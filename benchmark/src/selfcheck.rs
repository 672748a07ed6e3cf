//! `--selfcheck`: is the benchmark steady enough to judge a change by?
//!
//! Runs every workload in two sets of `N` child processes, each run with
//! another seed, and applies the acceptance procedure to the end-to-end
//! metrics: per set, the spread of a metric is the distance between the
//! first and third quartile of its `N` values as a share of their median.
//! The check fails when a spread (other than `setup_s`'s) exceeds the
//! metric's bound in `BENCHMARK.json`, or when the second set's median is
//! worse than the first's by more than the bound; it warns when a spread
//! exceeds a third of the bound.

use crate::metrics::END_TO_END;
use crate::{benchmark_dir, stats, WORKLOADS};
use apple_telemetry::json::Json;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// What a child run of one workload printed.
pub struct ChildRun {
    /// Its whole standard output.
    pub stdout: String,
    /// Whether it exited with code 0.
    pub success: bool,
}

/// Runs one workload in a child process of this executable and waits for
/// it to end.
pub fn spawn(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> std::io::Result<ChildRun> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output()?;
    Ok(ChildRun {
        stdout: String::from_utf8_lossy(&output.stdout).into_owned(),
        success: output.status.success(),
    })
}

/// The metric values on the last line of a run's output; `None` unless the
/// line parses and says `"correct": true`.
fn metrics_of(stdout: &str) -> Option<BTreeMap<String, f64>> {
    let doc = Json::parse(stdout.lines().last()?).ok()?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return None;
    }
    doc.get("metrics")?
        .as_obj()?
        .iter()
        .map(|(name, m)| Some((name.clone(), m.get("value")?.as_num()?)))
        .collect()
}

/// The `bound` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let path = benchmark_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks `end_to_end`")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_num)
                .ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// `(median, spread)` of one metric over one set of runs.
fn median_and_spread(values: &mut [f64]) -> (f64, f64) {
    let median = stats::median(values);
    let (q1, q3) = stats::quartiles(values);
    (
        median,
        if median == 0.0 {
            0.0
        } else {
            (q3 - q1) / median.abs()
        },
    )
}

/// By how much `second` is worse than `first`, as a share of `first`
/// (negative when it is better).
fn worsening(first: f64, second: f64, better: &str) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    let change = (second - first) / first.abs();
    if better == "higher" {
        -change
    } else {
        change
    }
}

/// Runs the check; see the module documentation.
pub fn run(runs: usize, only: &Option<String>, seed: u64, seconds: f64) -> ExitCode {
    let bounds = match bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("selfcheck: {e}");
            return ExitCode::from(2);
        }
    };
    let mut failed = false;
    println!(
        "{:<15} {:<16} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "spread A", "median B", "spread B", "B vs A", "bound"
    );
    for workload in WORKLOADS
        .iter()
        .filter(|w| only.as_deref().is_none_or(|o| o == **w))
    {
        // Per set: metric → values over the set's runs.
        let (mut set_a, mut set_b) = (BTreeMap::<String, Vec<f64>>::new(), BTreeMap::new());
        for (set, values) in [&mut set_a, &mut set_b].into_iter().enumerate() {
            for run in 0..runs {
                let run_seed = seed + (set * runs + run) as u64;
                let metrics = spawn(workload, run_seed, seconds, false, false)
                    .ok()
                    .filter(|child| child.success)
                    .and_then(|child| metrics_of(&child.stdout));
                let Some(metrics) = metrics else {
                    println!(
                        "{workload:<15} seed {run_seed}: run failed or reported incorrect outputs"
                    );
                    failed = true;
                    continue;
                };
                for (name, value) in metrics {
                    values.entry(name).or_default().push(value);
                }
            }
        }
        for &(name, _, better) in END_TO_END {
            let (Some(a), Some(b)) = (set_a.get_mut(name), set_b.get_mut(name)) else {
                continue;
            };
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let bound = bounds.get(name).copied().unwrap_or(0.0);
            let (median_a, spread_a) = median_and_spread(a);
            let (median_b, spread_b) = median_and_spread(b);
            let drift = worsening(median_a, median_b, better);
            let spread = spread_a.max(spread_b);
            let verdict = if drift > bound || (name != "setup_s" && spread > bound) {
                failed = true;
                "FAIL"
            } else if name != "setup_s" && spread > bound / 3.0 {
                "above a third of the bound"
            } else {
                "ok"
            };
            println!(
                "{workload:<15} {name:<16} {median_a:>12.4} {spread_a:>8.4} {median_b:>12.4} {spread_b:>8.4} {drift:>+8.4} {bound:>6.2}  {verdict}"
            );
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_metrics_only_from_a_correct_last_line() {
        let good = "noise\n{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n";
        assert_eq!(metrics_of(good).unwrap()["setup_s"], 0.5);
        assert!(metrics_of(&good.replace("true", "false")).is_none());
        assert!(metrics_of("not json").is_none());
        assert!(metrics_of("").is_none());
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, "lower") - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, "higher") + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, "lower"), 0.0);
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (median, spread) = median_and_spread(&mut v);
        assert_eq!(median, 5.5);
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
