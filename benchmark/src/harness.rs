//! What the four workloads share: run configuration, the round window, the
//! correctness gate's tally, and helpers to read the program's own
//! telemetry out of a `MemoryRecorder` snapshot.

use crate::stats;
use crate::trace::{self, Tracer};
use apple_telemetry::{MemoryRecorder, Recorder, Snapshot, NOOP};
use std::collections::BTreeMap;
use std::time::Instant;

/// How one invocation runs a workload.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// `--seed`: every input derives from it.
    pub seed: u64,
    /// `--seconds`: how long the measured rounds may take in total.
    pub seconds: f64,
    /// `--smoke`: one short round per workload, to exercise every path.
    pub smoke: bool,
    /// Worker threads for the parallel replay: `min(nproc, 2)`.
    pub threads: usize,
    /// Record spans and per-layer metrics (`--trace 1`).
    pub trace: bool,
}

/// End-to-end metrics of one workload run (`peak_rss_mb` is added by
/// `main`, which owns the process).
#[derive(Debug, Clone, Copy, Default)]
pub struct EndToEnd {
    /// Median wall of one set-up (s).
    pub setup_s: f64,
    /// Operations per second of timed wall; median over rounds.
    pub ops_per_s: f64,
    /// Mean latency of the slowest tenth of a round's operations (µs);
    /// median over rounds.
    pub op_slow_us: f64,
    /// Wall of the workload's recovery operation (s); median over rounds.
    pub recover_s: f64,
    /// Mean VNF instances of the placements the workload produced.
    pub fleet_instances: f64,
}

/// What one round contributes to the end-to-end timings.
#[derive(Debug, Clone, Copy)]
pub struct RoundTimes {
    /// Operations the round timed.
    pub ops: usize,
    /// Their wall (s).
    pub wall_s: f64,
    /// Mean latency of the slowest tenth of them (µs).
    pub slow_us: f64,
    /// Wall of the round's recovery operation (s), when it succeeded.
    pub recover_s: Option<f64>,
}

impl EndToEnd {
    /// Sets the three timing metrics to the median of the per-round values.
    /// Medians, not totals, because the noise of a shared box only ever adds
    /// time and comes in spells: a spell that slows two rounds of twenty
    /// moves a total and leaves the median where it was.
    pub fn set_round_medians(&mut self, rounds: &[RoundTimes]) {
        let median_of = |f: &dyn Fn(&RoundTimes) -> Option<f64>| {
            stats::median(&mut rounds.iter().filter_map(f).collect::<Vec<f64>>())
        };
        self.ops_per_s = median_of(&|r| Some(r.ops as f64 / r.wall_s.max(1e-12)));
        self.op_slow_us = median_of(&|r| Some(r.slow_us));
        self.recover_s = median_of(&|r| r.recover_s);
    }
}

/// Per-layer metric values by name (names from `metrics::PER_LAYER`).
pub type Layers = BTreeMap<&'static str, f64>;

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and checks made.
    pub attempted: u64,
    /// Operations that failed and checks that found a violation.
    pub failed: u64,
    /// One line per failure, for the human reader.
    pub problems: Vec<String>,
    /// End-to-end metrics.
    pub e2e: EndToEnd,
    /// Per-layer metrics (empty unless traced).
    pub layers: Layers,
    /// Wall of the rounds whose spans were recorded (s).
    pub traced_wall_s: f64,
    /// Sample counts and sizes, printed on the context line.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Counts one attempted operation or check; records `problem` when it
    /// did not hold. Returns `ok` so callers can branch on it.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(problem());
            }
        }
        ok
    }

    /// Adds a context note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Files what every workload derives from its per-round timings: the
    /// three timing metrics, the traced wall and the sample counts.
    pub fn set_round_times(&mut self, times: &[RoundTimes]) {
        self.e2e.set_round_medians(times);
        self.traced_wall_s = times.iter().map(|t| t.wall_s).sum();
        self.note("rounds", times.len());
        self.note("ops", times.iter().map(|t| t.ops).sum::<usize>());
        let recovered = times.iter().filter(|t| t.recover_s.is_some()).count();
        self.note("recover_samples", recovered);
    }
}

/// The tracing side of a run: the harness's span tracer and the recorder
/// handed to the program (`NOOP` unless traced).
#[derive(Debug)]
pub struct Tracing {
    /// Harness spans.
    pub tracer: Tracer,
    /// What the program records into, on a traced run.
    pub memory: Option<MemoryRecorder>,
}

/// The rounds one run played.
#[derive(Debug)]
pub struct Rounds<R> {
    /// The measured rounds, in order.
    pub measured: Vec<R>,
    /// Traced run only: round 0 played once more beforehand with tracing
    /// off, to price the tracing.
    pub untraced_round0: Option<R>,
}

impl Tracing {
    /// Tracing on or off, as `cfg.trace` says.
    pub fn new(cfg: &RunCfg) -> Tracing {
        Tracing {
            tracer: Tracer::new(cfg.trace),
            memory: cfg.trace.then(MemoryRecorder::new),
        }
    }

    /// Plays `round` (given the round's number, the recorder, the tracer and
    /// the tally) under a `workload` root span and one `round` span each,
    /// for as long as the [`Window`] admits another round.
    pub fn play<R>(
        &mut self,
        cfg: &RunCfg,
        out: &mut Outcome,
        mut round: impl FnMut(u64, &dyn Recorder, &mut Tracer, &mut Outcome) -> R,
    ) -> Rounds<R> {
        let untraced_round0 = cfg.trace.then(|| {
            let (mut off, mut scratch) = (Tracer::new(false), Outcome::default());
            round(0, &NOOP, &mut off, &mut scratch)
        });
        let rec: &dyn Recorder = self.memory.as_ref().map_or(&NOOP, |m| m);
        let tr = &mut self.tracer;
        let mut measured = Vec::new();
        let mut window = Window::open(cfg);
        let root = tr.begin("workload");
        while window.another() {
            let started = Instant::now();
            tr.set_rep(window.rounds());
            let id = tr.begin("round");
            measured.push(round(u64::from(window.rounds()), rec, tr, out));
            tr.end(id);
            window.round_done(started);
        }
        tr.end(root);
        Rounds {
            measured,
            untraced_round0,
        }
    }

    /// Total milliseconds per harness span name, divided by `rounds`.
    pub fn span_ms_per_round(&self, rounds: usize) -> BTreeMap<&'static str, f64> {
        trace::by_name(self.tracer.spans())
            .into_iter()
            .map(|(name, a)| (name, a.total_ns as f64 / 1e6 / rounds.max(1) as f64))
            .collect()
    }
}

/// Files the layer metrics every workload derives from its per-round
/// timings: the round's wall and operations, and what tracing cost on
/// round 0 (`untraced_round0` is the same round played with tracing off).
pub fn fill_round_layers(layers: &mut Layers, times: &[RoundTimes], untraced_round0: &RoundTimes) {
    let n = times.len().max(1) as f64;
    let wall: f64 = times.iter().map(|t| t.wall_s).sum();
    let ops: usize = times.iter().map(|t| t.ops).sum();
    layers.insert("round.wall_ms", wall / n * 1e3);
    layers.insert("round.ops", ops as f64 / n);
    let (traced, base) = (
        times.first().map_or(0.0, |t| t.wall_s),
        untraced_round0.wall_s,
    );
    layers.insert("trace.overhead_pct", ratio(traced - base, base) * 100.0);
}

/// Decides whether another round fits the `--seconds` budget: a round is
/// started when the time used so far plus the longest round seen still fits.
/// The first round always runs; a smoke run stops after it.
#[derive(Debug)]
pub struct Window {
    opened: Instant,
    budget_s: f64,
    longest_s: f64,
    rounds: u32,
    single: bool,
}

impl Window {
    /// Opens the window now.
    pub fn open(cfg: &RunCfg) -> Window {
        Window {
            opened: Instant::now(),
            budget_s: cfg.seconds,
            longest_s: 0.0,
            rounds: 0,
            single: cfg.smoke,
        }
    }

    /// Whether to start another round.
    pub fn another(&self) -> bool {
        if self.rounds == 0 {
            return true;
        }
        !self.single && self.opened.elapsed().as_secs_f64() + self.longest_s <= self.budget_s
    }

    /// Records a finished round that started at `started`.
    pub fn round_done(&mut self, started: Instant) {
        self.longest_s = self.longest_s.max(started.elapsed().as_secs_f64());
        self.rounds += 1;
    }

    /// Rounds finished so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }
}

/// Set-up is repeated until it has been timed this many times ...
pub const SETUP_MIN_REPS: usize = 5;
/// ... and for this long in total (s), but never more than
/// [`SETUP_MAX_REPS`] times: a set-up of a fraction of a millisecond (the
/// online workloads') needs hundreds of repetitions before its median stops
/// moving by a quarter from run to run.
pub const SETUP_MIN_SECS: f64 = 1.0;
/// Upper limit on set-up repetitions.
pub const SETUP_MAX_REPS: usize = 2_000;

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]) and returns the last
/// result with the median wall of one run (s) and the repetition count.
pub fn setup_median<T>(mut setup: impl FnMut() -> T) -> (T, f64, usize) {
    let mut walls = Vec::new();
    let started = Instant::now();
    loop {
        let t0 = Instant::now();
        let built = std::hint::black_box(setup());
        walls.push(t0.elapsed().as_secs_f64());
        let enough =
            walls.len() >= SETUP_MIN_REPS && started.elapsed().as_secs_f64() >= SETUP_MIN_SECS;
        if enough || walls.len() >= SETUP_MAX_REPS {
            let reps = walls.len();
            return (built, stats::median(&mut walls), reps);
        }
    }
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Mean of the slowest tenth of `samples` (seconds), in microseconds; the
/// single slowest sample when there are fewer than twenty.
///
/// This is the end-to-end tail metric rather than a percentile because it
/// averages many samples instead of reading one order statistic: over ten
/// seeds the p99 step latency of `online-churn` spreads 12 % and the p90
/// plan latency of `offline-plan` 10 % (README, "Demoted").
pub fn slow_tenth_us(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    stats::sort(&mut sorted);
    let slowest = &sorted[sorted.len() - (sorted.len() / 10).max(1).min(sorted.len())..];
    mean(slowest) * 1e6
}

/// The `q` percentile of ascending `sorted` (seconds) in microseconds, or
/// the maximum when fewer than ten samples lie beyond it — a percentile that
/// few samples support is not reported under its name.
pub fn percentile_us(sorted: &[f64], q: f64) -> f64 {
    let q = if stats::supported(sorted.len(), q) {
        q
    } else {
        1.0
    };
    stats::percentile(sorted, q) * 1e6
}

/// `VmHWM` of this process in MB (0 when `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Read access to what the program recorded into the traced run's
/// `MemoryRecorder`, with every total divided by the number of rounds.
#[derive(Debug)]
pub struct Recorded<'a> {
    snap: &'a Snapshot,
    rounds: f64,
}

impl<'a> Recorded<'a> {
    /// Wraps a snapshot taken after `rounds` traced rounds.
    pub fn new(snap: &'a Snapshot, rounds: usize) -> Recorded<'a> {
        Recorded {
            snap,
            rounds: rounds.max(1) as f64,
        }
    }

    /// A counter, per round.
    pub fn counter(&self, name: &str) -> f64 {
        self.snap.counter(name).unwrap_or(0) as f64 / self.rounds
    }

    /// Total milliseconds of the program span `name`, per round.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.hist_sum(&format!("span.{name}"))
    }

    /// Sum of a histogram's observations, per round.
    pub fn hist_sum(&self, name: &str) -> f64 {
        self.snap.histogram(name).map_or(0.0, |h| h.sum) / self.rounds
    }

    /// `(p50, p99, max)` of a histogram (not divided: they are not totals).
    pub fn hist_quantiles(&self, name: &str) -> (f64, f64, f64) {
        self.snap
            .histogram(name)
            .map_or((0.0, 0.0, 0.0), |h| (h.p50, h.p99, h.max))
    }

    /// Every program span as name → (calls, total ms), undivided, for the
    /// trace file.
    pub fn program_spans(&self) -> BTreeMap<String, (u64, f64)> {
        self.snap
            .histograms()
            .filter_map(|(name, h)| {
                name.strip_prefix("span.")
                    .map(|n| (n.to_string(), (h.count, h.sum)))
            })
            .collect()
    }

    /// Fills the metrics every workload reads the same way: the LP, the
    /// engine, the re-planner and the plan pipeline's stages.
    pub fn fill_solver_layers(&self, layers: &mut Layers) {
        for name in ["lp.solves", "lp.pivots", "lp.phase1_pivots"] {
            layers.insert(name, self.counter(name));
        }
        layers.insert("lp.phase1_ms", self.hist_sum("lp.phase1_ms"));
        layers.insert("lp.phase2_ms", self.hist_sum("lp.phase2_ms"));
        layers.insert("engine.place_ms", self.span_ms("engine.place"));
        layers.insert("engine.build_ms", self.span_ms("engine.build"));
        layers.insert("engine.solve_ms", self.span_ms("engine.solve"));
        layers.insert("engine.round_ms", self.span_ms("engine.round"));
        layers.insert("engine.consolidate_ms", self.span_ms("engine.consolidate"));
        let solves = self.counter("engine.consolidation_solves");
        let removed = self.counter("engine.consolidation_removed");
        layers.insert("engine.consolidation_solves", solves);
        layers.insert("engine.consolidation_removed", removed);
        layers.insert("engine.consolidation_yield", ratio(removed, solves));
        layers.insert("failover.replan_ms", self.span_ms("failover.replan"));
        let hits = self.counter("failover.replan_warm_hits");
        let misses = self.counter("failover.replan_warm_misses");
        layers.insert("failover.warm_hit_ratio", ratio(hits, hits + misses));
        layers.insert("classes.build_ms", self.span_ms("apple.classes"));
        layers.insert("subclass.derive_ms", self.span_ms("apple.subclass"));
        layers.insert("rules.generate_ms", self.span_ms("apple.rules"));
    }
}

/// `num ÷ den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_tenth_averages_the_top_decile() {
        assert_eq!(slow_tenth_us(&[]), 0.0);
        assert_eq!(slow_tenth_us(&[3e-6, 1e-6, 2e-6]), 3.0);
        let v: Vec<f64> = (1..=100).rev().map(|i| f64::from(i) * 1e-6).collect();
        assert!((slow_tenth_us(&v) - 95.5).abs() < 1e-9);
    }

    #[test]
    fn end_to_end_timings_are_medians_over_rounds() {
        let round = |ops, wall_s, slow_us, recover_s| RoundTimes {
            ops,
            wall_s,
            slow_us,
            recover_s,
        };
        let mut e = EndToEnd::default();
        e.set_round_medians(&[
            round(10, 1.0, 5.0, Some(0.2)),
            round(10, 2.0, 7.0, None),
            round(10, 10.0, 90.0, Some(0.4)), // a slow spell
        ]);
        assert_eq!((e.ops_per_s, e.op_slow_us), (5.0, 7.0));
        assert!((e.recover_s - 0.3).abs() < 1e-12);
    }

    #[test]
    fn unsupported_percentiles_fall_back_to_the_maximum() {
        let v: Vec<f64> = (1..=1000).map(|i| f64::from(i) * 1e-6).collect();
        assert!((percentile_us(&v, 0.99) - 990.0).abs() < 1e-9);
        assert!((percentile_us(&v, 0.999) - 1000.0).abs() < 1e-9);
        assert_eq!(percentile_us(&[], 0.9), 0.0);
    }

    #[test]
    fn window_always_runs_one_round_and_smoke_only_one() {
        let cfg = RunCfg {
            seed: 1,
            seconds: 0.0,
            smoke: false,
            threads: 1,
            trace: false,
        };
        let mut w = Window::open(&cfg);
        assert!(w.another());
        w.round_done(Instant::now());
        assert!(!w.another(), "budget 0 admits no second round");
        let mut smoke = Window::open(&RunCfg {
            seconds: 1e9,
            smoke: true,
            ..cfg
        });
        smoke.round_done(Instant::now());
        assert!(!smoke.another());
        assert_eq!(smoke.rounds(), 1);
    }

    #[test]
    fn gate_counts_attempts_and_failures() {
        let mut o = Outcome::default();
        assert!(o.check(true, || unreachable!()));
        assert!(!o.check(false, || "broken".to_string()));
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert_eq!(o.problems, vec!["broken".to_string()]);
    }
}
