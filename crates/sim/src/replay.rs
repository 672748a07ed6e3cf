//! The Fig. 12 experiment: replay a time-varying traffic-matrix series
//! against a planned APPLE deployment and record the network-wide packet
//! loss rate over time, with and without fast failover.
//!
//! Each snapshot is one simulation tick (the paper replays its matrices
//! "in time order", one second per snapshot for UNIV1). At each tick:
//!
//! 1. per-class rates are refreshed from the snapshot,
//! 2. per-instance offered load follows the Dynamic Handler's sub-class
//!    shares,
//! 3. instances crossing the overload trip threshold notify the handler
//!    (when fast failover is enabled), which re-balances or spawns a
//!    ClickOS helper (reconfiguration ≈ 30 ms — effective the same tick;
//!    a normal-VM helper pays its full boot across ticks),
//! 4. packet loss per instance follows the Fig. 6 overload curve, and the
//!    network-wide loss rate is recorded,
//! 5. when every overloaded instance clears (hysteresis), the distribution
//!    rolls back and helpers are cancelled.

use apple_core::classes::ClassId;
use apple_core::controller::{Apple, AppleConfig};
use apple_core::engine::EngineError;
use apple_core::failover::{DynamicHandler, FailoverAction, FailoverError};
use apple_core::orchestrator::ControlOps;
use apple_nf::{InstanceId, OverloadModel, TimingModel, VnfSpec};
use apple_telemetry::{Recorder, RecorderExt};
use apple_topology::Topology;
use apple_traffic::TmSeries;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

use crate::metrics::Series;

/// Errors a replay can hit: planning the deployment, or bootstrapping the
/// Dynamic Handler from it.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The Optimization Engine could not plan the deployment.
    Plan(EngineError),
    /// The Dynamic Handler rejected the deployment (inconsistent plan).
    Failover(FailoverError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Plan(e) => write!(f, "planning failed: {e}"),
            ReplayError::Failover(e) => write!(f, "failover bootstrap failed: {e}"),
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<EngineError> for ReplayError {
    fn from(e: EngineError) -> Self {
        ReplayError::Plan(e)
    }
}

impl From<FailoverError> for ReplayError {
    fn from(e: FailoverError) -> Self {
        ReplayError::Failover(e)
    }
}

/// Packet size for the Mbps → pps conversion (1500 B in the prototype).
const PACKET_BYTES: u32 = 1500;

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Deployment planning knobs (classes, engine, host size).
    pub apple: AppleConfig,
    /// Enable the Dynamic Handler (fast failover). Disabling it gives the
    /// "without fast failover" curve of Fig. 12.
    pub fast_failover: bool,
    /// Seed for the timing model's boot jitter.
    pub seed: u64,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            apple: AppleConfig::default(),
            fast_failover: true,
            seed: 0,
        }
    }
}

/// Result of a replay run.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// Network-wide packet loss rate per tick.
    pub loss: Series,
    /// Extra cores consumed by failover helpers per tick.
    pub helper_cores: Series,
    /// Peak helper cores across the run (the §IX-E "< 17 cores" figure).
    pub peak_helper_cores: u32,
    /// Number of overload notifications handled.
    pub notifications: usize,
    /// Number of helper instances spawned.
    pub helpers_spawned: usize,
    /// Steady-state cores of the planned deployment (before failover).
    pub planned_cores: u32,
}

/// Replays `series` on a deployment planned from the series mean.
///
/// Telemetry: planning and the tick loop run in `sim.plan` / `sim.replay`
/// spans, every overload notification goes through
/// [`DynamicHandler::handle_overload`] (so `failover.*` counters
/// accumulate), `sim.notifications` counts them, helper boot delays are
/// observed as `sim.helper_boot_ms`, and `sim.peak_helper_cores` /
/// `sim.planned_cores` are gauged at the end of the run.
///
/// # Errors
///
/// [`ReplayError`] from planning or handler bootstrap.
pub fn replay(
    topo: &Topology,
    series: &TmSeries,
    cfg: &ReplayConfig,
    rec: &dyn Recorder,
) -> Result<ReplayOutcome, ReplayError> {
    let apple = {
        let _s = rec.span("sim.plan");
        Apple::plan_recorded(topo, &series.mean(), &cfg.apple, rec)?
    };
    let _replay_span = rec.span("sim.replay");
    let planned_cores = apple.placement().total_cores();
    let mut handler = apple.dynamic_handler()?;
    let (classes, _placement, _plan, _program, mut orch) = apple.into_parts();
    let mut timing = TimingModel::paper(cfg.seed);
    let mut ops = ControlOps::reliable(cfg.seed);

    let mut loss = Series::new("loss-rate");
    let mut helper_cores = Series::new("helper-cores");
    let mut notifications = 0usize;
    let mut helpers_spawned = 0usize;
    // Helpers still booting: instance -> ready tick.
    let mut booting: BTreeMap<InstanceId, usize> = BTreeMap::new();
    let mut overloaded: std::collections::BTreeSet<InstanceId> = Default::default();

    for (tick, tm) in series.iter().enumerate() {
        // 1. Refresh class rates.
        let scoped = classes.with_rates_from(tm);
        let rates: BTreeMap<ClassId, f64> = scoped.iter().map(|c| (c.id, c.rate_mbps)).collect();

        // Helpers finish booting.
        booting.retain(|_, ready| *ready > tick);

        // 2–3. Offered load per instance and overload handling.
        let mut tick_lost = 0.0f64;
        let mut tick_offered = 0.0f64;
        let mut trips: Vec<InstanceId> = Vec::new();
        let loads = instance_loads(&handler, &rates);
        for (&inst, &mbps) in &loads {
            let Some(vi) = orch.instance(inst) else {
                continue;
            };
            let model = OverloadModel::for_capacity(vi.spec().capacity_pps(PACKET_BYTES));
            let pps = mbps * 1e6 / (f64::from(PACKET_BYTES) * 8.0);
            // A still-booting helper forwards nothing; its share is lost
            // outright (this is why ClickOS reconfiguration matters).
            if booting.contains_key(&inst) {
                tick_offered += pps;
                tick_lost += pps;
                continue;
            }
            tick_offered += pps;
            tick_lost += pps * model.loss_rate(pps);
            if model.is_overloaded(pps) {
                // Instances re-notify while they stay overloaded — each
                // notification halves the load of the sub-classes through
                // them, so repeated notifications converge geometrically.
                trips.push(inst);
                overloaded.insert(inst);
            } else if model.is_cleared(pps) {
                overloaded.remove(&inst);
            }
        }

        if cfg.fast_failover {
            for inst in trips {
                notifications += 1;
                rec.counter("sim.notifications", 1);
                match handler.handle_overload(inst, &rates, &scoped, &mut orch, &mut ops, rec) {
                    Ok(FailoverAction::SpawnedHelper { instance, nf, .. }) => {
                        helpers_spawned += 1;
                        // ClickOS helpers reconfigure in ~30 ms (same
                        // tick); ordinary VMs pay a full boot.
                        let spec = VnfSpec::of(nf);
                        let delay_ms = timing.provision(spec.clickos, spec.clickos);
                        rec.observe_duration("sim.helper_boot_ms", Duration::from_millis(delay_ms));
                        let ready = tick + (delay_ms / 1_000) as usize;
                        if ready > tick {
                            booting.insert(instance, ready);
                        }
                    }
                    Ok(_) => {}
                    Err(_) => {
                        // No capacity anywhere: the overload persists and
                        // the loss curve shows it.
                        rec.counter("sim.failover_errors", 1);
                    }
                }
            }
            // 5. Roll back once nothing is overloaded any more.
            if overloaded.is_empty() && handler.helper_cores() > 0 {
                handler.roll_back(&mut orch, rec);
            }
        }

        let rate = if tick_offered > 0.0 {
            tick_lost / tick_offered
        } else {
            0.0
        };
        loss.push(tick as f64, rate);
        helper_cores.push(tick as f64, f64::from(handler.helper_cores()));
    }

    rec.gauge(
        "sim.peak_helper_cores",
        f64::from(handler.peak_helper_cores()),
    );
    rec.gauge("sim.planned_cores", f64::from(planned_cores));
    Ok(ReplayOutcome {
        loss,
        helper_cores,
        peak_helper_cores: handler.peak_helper_cores(),
        notifications,
        helpers_spawned,
        planned_cores,
    })
}

/// Offered load per instance in Mbps under the handler's current shares.
fn instance_loads(
    handler: &DynamicHandler,
    rates: &BTreeMap<ClassId, f64>,
) -> BTreeMap<InstanceId, f64> {
    let mut loads: BTreeMap<InstanceId, f64> = BTreeMap::new();
    for s in handler.shares() {
        let mbps = s.fraction * rates.get(&s.class).copied().unwrap_or(0.0);
        for &inst in &s.instances {
            *loads.entry(inst).or_insert(0.0) += mbps;
        }
    }
    loads
}

#[cfg(test)]
mod tests {
    use super::*;
    use apple_core::classes::ClassConfig;
    use apple_telemetry::NOOP;
    use apple_topology::zoo;
    use apple_traffic::SeriesConfig;

    fn small_replay_cfg(fast_failover: bool) -> ReplayConfig {
        ReplayConfig {
            apple: AppleConfig {
                classes: ClassConfig {
                    max_classes: 10,
                    ..Default::default()
                },
                ..Default::default()
            },
            fast_failover,
            ..Default::default()
        }
    }

    fn bursty_series(topo: &Topology) -> TmSeries {
        TmSeries::generate(
            topo,
            &SeriesConfig {
                snapshots: 60,
                burst_pairs: 2,
                burst_scale: 8.0,
                ..SeriesConfig::paper(5)
            },
        )
    }

    #[test]
    fn replay_produces_full_series() {
        let topo = zoo::internet2();
        let series = bursty_series(&topo);
        let out = replay(&topo, &series, &small_replay_cfg(true), &NOOP).unwrap();
        assert_eq!(out.loss.len(), series.len());
        assert_eq!(out.helper_cores.len(), series.len());
        assert!(out.planned_cores > 0);
    }

    #[test]
    fn failover_reduces_loss_under_bursts() {
        let topo = zoo::internet2();
        let series = bursty_series(&topo);
        let with = replay(&topo, &series, &small_replay_cfg(true), &NOOP).unwrap();
        let without = replay(&topo, &series, &small_replay_cfg(false), &NOOP).unwrap();
        assert!(
            with.loss.mean() <= without.loss.mean() + 1e-12,
            "failover made things worse: {} vs {}",
            with.loss.mean(),
            without.loss.mean()
        );
        // The no-failover run must actually lose packets during bursts,
        // otherwise the comparison is vacuous.
        assert!(without.loss.max() > 0.0, "bursts never overloaded anything");
    }

    #[test]
    fn loss_rates_are_valid_probabilities() {
        let topo = zoo::internet2();
        let series = bursty_series(&topo);
        let out = replay(&topo, &series, &small_replay_cfg(true), &NOOP).unwrap();
        for (_, v) in out.loss.samples() {
            assert!((0.0..=1.0).contains(v), "loss {v} out of range");
        }
    }

    #[test]
    fn helpers_roll_back_after_bursts() {
        let topo = zoo::internet2();
        let series = bursty_series(&topo);
        let out = replay(&topo, &series, &small_replay_cfg(true), &NOOP).unwrap();
        // By the end of the series (bursts long over) no helper cores
        // should remain committed.
        let tail = out.helper_cores.samples().last().unwrap().1;
        assert_eq!(tail, 0.0, "helpers not rolled back");
    }

    #[test]
    fn no_failover_run_spawns_nothing() {
        let topo = zoo::internet2();
        let series = bursty_series(&topo);
        let out = replay(&topo, &series, &small_replay_cfg(false), &NOOP).unwrap();
        assert_eq!(out.helpers_spawned, 0);
        assert_eq!(out.notifications, 0);
        assert_eq!(out.peak_helper_cores, 0);
    }
}
