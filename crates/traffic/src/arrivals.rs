//! Flow-level arrival processes: Poisson arrivals with exponential
//! holding times.
//!
//! The snapshot-level [`crate::series::TmSeries`] is what the paper's
//! evaluation replays; finer-grained experiments (the online placer and
//! the online orchestration loop) need individual flows arriving and
//! departing. This module generates a deterministic M/M/∞-style timeline
//! per OD pair: arrivals at rate `λ`, independent exponential durations
//! with mean `D`, so the expected number of concurrent flows is `λ·D`
//! (Little's law — which the tests check).

use crate::flows::Flow;
use apple_rng::rngs::StdRng;
use apple_rng::{Rng, SeedableRng};
use apple_topology::NodeId;

/// Configuration of a flow arrival process for one OD pair.
#[derive(Debug, Clone)]
pub struct ArrivalConfig {
    /// Flow arrivals per second (λ).
    pub arrival_rate: f64,
    /// Mean flow duration in seconds (1/μ).
    pub mean_duration_secs: f64,
    /// Mean per-flow rate in Mbps (exponentially distributed).
    pub mean_rate_mbps: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ArrivalConfig {
    fn default() -> Self {
        ArrivalConfig {
            arrival_rate: 2.0,
            mean_duration_secs: 30.0,
            mean_rate_mbps: 5.0,
            seed: 0,
        }
    }
}

/// One flow with its lifetime.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedFlow {
    /// The flow itself.
    pub flow: Flow,
    /// Arrival time (seconds).
    pub start_secs: f64,
    /// Departure time (seconds).
    pub end_secs: f64,
}

/// A generated arrival timeline for one OD pair.
#[derive(Debug, Clone, Default)]
pub struct FlowArrivals {
    flows: Vec<TimedFlow>,
}

impl FlowArrivals {
    /// Generates the timeline over `[0, horizon_secs)`.
    ///
    /// # Panics
    ///
    /// Panics if rates/durations are not positive and finite.
    pub fn generate(
        src: NodeId,
        dst: NodeId,
        cfg: &ArrivalConfig,
        horizon_secs: f64,
    ) -> FlowArrivals {
        assert!(
            cfg.arrival_rate > 0.0 && cfg.arrival_rate.is_finite(),
            "arrival rate must be positive"
        );
        assert!(
            cfg.mean_duration_secs > 0.0 && cfg.mean_rate_mbps > 0.0,
            "durations and rates must be positive"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ ((src.0 as u64) << 20) ^ dst.0 as u64);
        let mut exp = |mean: f64| -> f64 {
            let u: f64 = rng.gen_range(1e-12..1.0);
            -mean * u.ln()
        };
        let mut flows = Vec::new();
        let mut t = 0.0;
        let mut seq = 0u32;
        loop {
            t += exp(1.0 / cfg.arrival_rate);
            if t >= horizon_secs {
                break;
            }
            let duration = exp(cfg.mean_duration_secs);
            let rate = exp(cfg.mean_rate_mbps);
            let src_prefix = Flow::prefix_of(src);
            let dst_prefix = Flow::prefix_of(dst);
            flows.push(TimedFlow {
                flow: Flow {
                    src_ip: src_prefix | (1 + (seq % 250)),
                    dst_ip: dst_prefix | (1 + ((seq / 250) % 250)),
                    src_port: 10_000u16.wrapping_add((seq % 50_000) as u16),
                    dst_port: 80,
                    proto: 6,
                    rate_mbps: rate,
                    ingress: src,
                    egress: dst,
                },
                start_secs: t,
                end_secs: t + duration,
            });
            seq += 1;
        }
        FlowArrivals { flows }
    }

    /// All flows, in arrival order.
    pub fn flows(&self) -> &[TimedFlow] {
        &self.flows
    }

    /// Flows alive at time `t`.
    pub fn active_at(&self, t: f64) -> Vec<&TimedFlow> {
        self.flows
            .iter()
            .filter(|f| f.start_secs <= t && t < f.end_secs)
            .collect()
    }

    /// Aggregate offered rate at time `t` in Mbps.
    pub fn rate_at(&self, t: f64) -> f64 {
        self.active_at(t).iter().map(|f| f.flow.rate_mbps).sum()
    }

    /// Mean concurrent flows sampled at `samples` evenly spaced instants
    /// of `[warmup, horizon)`.
    pub fn mean_concurrency(&self, warmup: f64, horizon: f64, samples: usize) -> f64 {
        if samples == 0 || horizon <= warmup {
            return 0.0;
        }
        let step = (horizon - warmup) / samples as f64;
        let total: usize = (0..samples)
            .map(|i| self.active_at(warmup + i as f64 * step).len())
            .sum();
        total as f64 / samples as f64
    }
}

/// What happened to a flow at a timeline instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlowEventKind {
    /// The flow departed (its holding time expired). Departures sort
    /// before arrivals at equal timestamps so capacity is released before
    /// it is re-demanded.
    Departure,
    /// The flow arrived and starts offering traffic.
    Arrival,
}

/// One arrival or departure on a merged multi-pair timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowEvent {
    /// Event time in seconds from the timeline origin.
    pub time_secs: f64,
    /// Stable flow identifier, unique across the whole timeline (pair
    /// index in the high bits, per-pair sequence number in the low bits).
    pub flow_id: u64,
    /// Arrival or departure.
    pub kind: FlowEventKind,
    /// The flow this event is about (same object on arrival and
    /// departure).
    pub flow: Flow,
}

/// A merged, time-ordered arrival/departure timeline over many OD pairs —
/// the input of the online orchestration loop.
///
/// Every generated flow contributes exactly two events (its arrival and
/// its departure, even when the departure falls past the generation
/// horizon), so draining the timeline always returns the system to zero
/// active flows. Ordering is fully deterministic: events sort by time,
/// then departures before arrivals, then by flow id.
#[derive(Debug, Clone, Default)]
pub struct EventTimeline {
    events: Vec<FlowEvent>,
}

impl EventTimeline {
    /// Generates the merged timeline for `pairs` over `[0, horizon_secs)`
    /// of arrivals (departures may land later). Each pair runs an
    /// independent [`FlowArrivals`] process derived from `cfg.seed` — the
    /// same per-pair streams `FlowArrivals::generate` would produce.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` rates/durations are not positive (see
    /// [`FlowArrivals::generate`]) or if more than `2^32` pairs are given.
    pub fn generate(
        pairs: &[(NodeId, NodeId)],
        cfg: &ArrivalConfig,
        horizon_secs: f64,
    ) -> EventTimeline {
        assert!(pairs.len() < (1usize << 32), "too many OD pairs");
        let mut events = Vec::new();
        for (p, &(src, dst)) in pairs.iter().enumerate() {
            let arrivals = FlowArrivals::generate(src, dst, cfg, horizon_secs);
            for (seq, tf) in arrivals.flows().iter().enumerate() {
                let flow_id = ((p as u64) << 32) | seq as u64;
                events.push(FlowEvent {
                    time_secs: tf.start_secs,
                    flow_id,
                    kind: FlowEventKind::Arrival,
                    flow: tf.flow,
                });
                events.push(FlowEvent {
                    time_secs: tf.end_secs,
                    flow_id,
                    kind: FlowEventKind::Departure,
                    flow: tf.flow,
                });
            }
        }
        events.sort_by(|a, b| {
            a.time_secs
                .partial_cmp(&b.time_secs)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.kind.cmp(&b.kind))
                .then_with(|| a.flow_id.cmp(&b.flow_id))
        });
        EventTimeline { events }
    }

    /// The events in replay order.
    pub fn events(&self) -> &[FlowEvent] {
        &self.events
    }

    /// Number of events (twice the number of generated flows).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Truncates the timeline to its first `n` events (used by smoke
    /// benchmarks; the truncated timeline may no longer drain).
    pub fn truncated(&self, n: usize) -> EventTimeline {
        EventTimeline {
            events: self.events.iter().take(n).cloned().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn littles_law_holds() {
        // λ = 4/s, D = 10 s ⇒ E[concurrent] = 40.
        let cfg = ArrivalConfig {
            arrival_rate: 4.0,
            mean_duration_secs: 10.0,
            mean_rate_mbps: 2.0,
            seed: 3,
        };
        let a = FlowArrivals::generate(NodeId(0), NodeId(1), &cfg, 600.0);
        let mean = a.mean_concurrency(60.0, 600.0, 200);
        assert!(
            (mean - 40.0).abs() < 8.0,
            "Little's law violated: mean concurrency {mean} vs 40"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = ArrivalConfig::default();
        let a = FlowArrivals::generate(NodeId(2), NodeId(3), &cfg, 100.0);
        let b = FlowArrivals::generate(NodeId(2), NodeId(3), &cfg, 100.0);
        assert_eq!(a.flows(), b.flows());
        let c = FlowArrivals::generate(
            NodeId(2),
            NodeId(3),
            &ArrivalConfig { seed: 9, ..cfg },
            100.0,
        );
        assert_ne!(a.flows(), c.flows());
    }

    #[test]
    fn rate_sums_active_flows() {
        let cfg = ArrivalConfig {
            arrival_rate: 1.0,
            mean_duration_secs: 5.0,
            mean_rate_mbps: 3.0,
            seed: 7,
        };
        let a = FlowArrivals::generate(NodeId(0), NodeId(1), &cfg, 60.0);
        let t = 30.0;
        let expected: f64 = a.active_at(t).iter().map(|f| f.flow.rate_mbps).sum();
        assert_eq!(a.rate_at(t), expected);
        // Flows end after they start.
        for f in a.flows() {
            assert!(f.end_secs > f.start_secs);
            assert!(f.flow.rate_mbps > 0.0);
        }
    }

    #[test]
    fn flows_carry_pair_prefixes() {
        let a = FlowArrivals::generate(NodeId(4), NodeId(5), &ArrivalConfig::default(), 50.0);
        for f in a.flows() {
            assert_eq!(f.flow.src_ip & 0xffff_ff00, Flow::prefix_of(NodeId(4)));
            assert_eq!(f.flow.dst_ip & 0xffff_ff00, Flow::prefix_of(NodeId(5)));
            assert_eq!(f.flow.ingress, NodeId(4));
        }
    }

    #[test]
    fn timeline_drains_and_orders() {
        let pairs = [(NodeId(0), NodeId(1)), (NodeId(2), NodeId(3))];
        let cfg = ArrivalConfig {
            seed: 11,
            ..Default::default()
        };
        let tl = EventTimeline::generate(&pairs, &cfg, 120.0);
        assert!(!tl.is_empty());
        assert_eq!(tl.len() % 2, 0, "two events per flow");
        let mut active = std::collections::BTreeSet::new();
        let mut last = (f64::NEG_INFINITY, FlowEventKind::Departure, 0u64);
        for e in tl.events() {
            let key = (e.time_secs, e.kind, e.flow_id);
            assert!(key > last, "events must be strictly ordered");
            last = key;
            match e.kind {
                FlowEventKind::Arrival => assert!(active.insert(e.flow_id)),
                FlowEventKind::Departure => assert!(active.remove(&e.flow_id)),
            }
        }
        assert!(active.is_empty(), "timeline must drain to zero flows");
    }

    #[test]
    fn timeline_deterministic_and_truncates() {
        let pairs = [(NodeId(1), NodeId(4))];
        let cfg = ArrivalConfig::default();
        let a = EventTimeline::generate(&pairs, &cfg, 80.0);
        let b = EventTimeline::generate(&pairs, &cfg, 80.0);
        assert_eq!(a.events(), b.events());
        let t = a.truncated(5);
        assert_eq!(t.len(), 5.min(a.len()));
        assert_eq!(t.events(), &a.events()[..t.len()]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_rate_panics() {
        let _ = FlowArrivals::generate(
            NodeId(0),
            NodeId(1),
            &ArrivalConfig {
                arrival_rate: 0.0,
                ..Default::default()
            },
            10.0,
        );
    }
}
