//! Seeded whole-stack benchmark of the APPLE reproduction.
//!
//! ```text
//! apple-benchmark [--workload W] [--seed S] [--seconds T] [--trace [0|1]] [--smoke]
//! apple-benchmark --selfcheck [N] [--seed S] [--seconds T]
//! ```
//!
//! One invocation with `--workload` runs that workload in this process and
//! prints, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1` (which
//! also writes `out/trace-<workload>.json`). Without `--workload` the four
//! workloads run one after the other, each in a child process so that
//! `peak_rss_mb` stays per workload. `README.md` defines every metric.

mod harness;
mod inputs;
mod metrics;
mod offline;
mod online;
mod selfcheck;
mod stats;
mod trace;
mod walk;

use apple_telemetry::json::{write_num, write_str};
use harness::{peak_rss_mb, Outcome, Recorded, RunCfg};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "offline-plan",
    "online-churn",
    "online-resolve",
    "walk-replay",
];

/// Default `--seed`.
const DEFAULT_SEED: u64 = 11;
/// Default `--seconds` (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 25.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    /// `--selfcheck [N]`: runs per set.
    selfcheck: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: run.sh [--workload {}] [--seed N] [--seconds T] [--trace [0|1]] [--smoke]\n       run.sh --selfcheck [RUNS] [--seed N] [--seconds T]",
        WORKLOADS.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        selfcheck: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        // An optional value is taken only when it does not look like a flag.
        let mut optional = || it.next_if(|v| !v.starts_with("--"));
        match flag.as_str() {
            "--workload" => {
                let w = it.next().ok_or("--workload needs a name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload \"{w}\""));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a number")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: \"{v}\" is not a whole number"))?;
            }
            "--seconds" => {
                let v = it.next().ok_or("--seconds needs a number")?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!("--seconds: \"{v}\" is not a positive number"))?;
            }
            "--trace" => {
                args.trace = match optional().map(String::as_str) {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(v) => return Err(format!("--trace: expected 0 or 1, got \"{v}\"")),
                };
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => {
                let runs = match optional() {
                    None => 5,
                    Some(v) => v.parse().ok().filter(|n| *n >= 2).ok_or(format!(
                        "--selfcheck: \"{v}\" is not a run count of at least 2"
                    ))?,
                };
                args.selfcheck = Some(runs);
            }
            other => return Err(format!("unknown argument \"{other}\"")),
        }
    }
    if args.selfcheck.is_some() && args.smoke {
        return Err("--selfcheck refuses --smoke: a smoke run measures nothing".to_string());
    }
    Ok(args)
}

/// Where `out/` lives: `run.sh` exports its own directory; a bare `cargo
/// run` falls back to the package directory.
fn benchmark_dir() -> PathBuf {
    std::env::var_os("APPLE_BENCHMARK_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `git rev-parse HEAD` of the tree the harness runs in (`unknown` outside a
/// repository — the acceptance checkout is not one).
fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(benchmark_dir())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The last line of standard output.
fn result_line(out: &Outcome, metrics: &[(&'static str, f64, &'static str)]) -> String {
    let mut s = String::from("{\"correct\": ");
    s.push_str(if out.failed == 0 { "true" } else { "false" });
    s.push_str(", \"attempted\": ");
    write_num(&mut s, out.attempted.max(1) as f64);
    s.push_str(", \"failed\": ");
    write_num(&mut s, out.failed as f64);
    s.push_str(", \"metrics\": {");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        s.push_str(if i == 0 { "" } else { ", " });
        write_str(&mut s, name);
        s.push_str(": {\"value\": ");
        write_num(&mut s, *value);
        s.push_str(", \"unit\": ");
        write_str(&mut s, unit);
        s.push('}');
    }
    s.push_str("}}");
    s
}

fn run_workload(workload: &str, args: &Args) -> ExitCode {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        threads: nproc().min(2),
        trace: args.trace,
    };
    let (mut out, tracing) = match workload {
        "offline-plan" => offline::run(&cfg),
        "online-churn" => online::run(online::CHURN, &cfg),
        "online-resolve" => online::run(online::RESOLVE, &cfg),
        _ => walk::run(&cfg),
    };

    let mut context: Vec<(String, String)> = vec![
        ("workload".into(), workload.into()),
        (
            "scope".into(),
            if cfg.smoke { "smoke" } else { "full" }.into(),
        ),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), cfg.seconds.to_string()),
        ("trace".into(), u8::from(cfg.trace).to_string()),
        ("nproc".into(), nproc().to_string()),
        ("threads".into(), cfg.threads.to_string()),
        ("git".into(), git_head()),
    ];
    context.append(&mut out.notes);

    let metrics: Vec<(&'static str, f64, &'static str)> = if cfg.trace {
        let unlisted: Vec<&str> = out
            .layers
            .keys()
            .copied()
            .filter(|name| !metrics::PER_LAYER.iter().any(|m| m.0 == *name))
            .collect();
        out.check(unlisted.is_empty(), || {
            format!("layer metrics missing from the table: {unlisted:?}")
        });
        metrics::PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, out.layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let e = out.e2e;
        let values = [
            e.setup_s,
            e.ops_per_s,
            e.op_slow_us,
            e.recover_s,
            e.fleet_instances,
            peak_rss_mb(),
        ];
        metrics::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit, _), v)| (name, v, unit))
            .collect()
    };

    if cfg.trace {
        let snapshot = tracing
            .memory
            .as_ref()
            .map(|m| m.snapshot())
            .unwrap_or_default();
        let program_spans = Recorded::new(&snapshot, 1).program_spans();
        let file = trace::TraceFile {
            workload,
            context: &context,
            spans: tracing.tracer.spans(),
            program_spans: &program_spans,
            layers: &metrics,
            traced_wall_s: out.traced_wall_s,
            trace_overhead_pct: out.layers.get("trace.overhead_pct").copied().unwrap_or(0.0),
        };
        let dir = benchmark_dir().join("out");
        let path = dir.join(format!("trace-{workload}.json"));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, file.to_json()));
        match written {
            Ok(()) => context.push(("trace_file".into(), path.display().to_string())),
            Err(e) => {
                out.check(false, || format!("writing {}: {e}", path.display()));
            }
        }
    }

    for (name, value, unit) in &metrics {
        println!("{name:<40} {value:>16.4} {unit}");
    }
    for problem in &out.problems {
        println!("FAILED {problem}");
    }
    let mut line = String::from("context {");
    for (i, (k, v)) in context.iter().enumerate() {
        line.push_str(if i == 0 { "" } else { ", " });
        write_str(&mut line, k);
        line.push_str(": ");
        write_str(&mut line, v);
    }
    println!("{line}}}");
    println!("{}", result_line(&out, &metrics));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a child process of its own and relays the output.
fn run_all(args: &Args) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for workload in WORKLOADS {
        println!("== {workload}");
        match selfcheck::spawn(workload, args.seed, args.seconds, args.trace, args.smoke) {
            Ok(run) => {
                print!("{}", run.stdout);
                if !run.success {
                    code = ExitCode::FAILURE;
                }
            }
            Err(e) => {
                eprintln!("{workload}: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.selfcheck {
        return selfcheck::run(runs, &args.workload, args.seed, args.seconds);
    }
    match &args.workload {
        Some(workload) => run_workload(workload, &args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "--workload online-churn --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("online-churn"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.smoke),
            (7, 12.0, true, false)
        );
        assert!(
            !parse_args(&argv("--workload walk-replay --trace 0"))
                .unwrap()
                .trace
        );
    }

    #[test]
    fn trace_and_selfcheck_values_are_optional() {
        let a = parse_args(&argv("--trace --smoke")).unwrap();
        assert!(a.trace && a.smoke && a.workload.is_none());
        assert_eq!(parse_args(&argv("--selfcheck")).unwrap().selfcheck, Some(5));
        assert_eq!(
            parse_args(&argv("--selfcheck 10 --seed 3"))
                .unwrap()
                .selfcheck,
            Some(10)
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds -1",
            "--trace 2",
            "--selfcheck 1",
            "--selfcheck --smoke",
            "--frobnicate",
            "--workload",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        use apple_telemetry::json::Json;
        let mut out = Outcome::default();
        out.check(true, String::new);
        let line = result_line(
            &out,
            &[("setup_s", 0.8127, "s"), ("ops_per_s", 1234.5, "1/s")],
        );
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(Json::as_num), Some(0.8127));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
        assert!(!line.contains('\n'));
    }
}
