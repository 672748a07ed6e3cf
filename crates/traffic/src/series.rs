//! Time-varying traffic-matrix series: 672 snapshots with diurnal drift and
//! MVR power-law noise, plus burst injection for the failover experiments.

use crate::gravity::GravityModel;
use crate::matrix::TrafficMatrix;
use apple_rng::rngs::StdRng;
use apple_rng::{Rng, SeedableRng};
use apple_topology::{NodeId, Topology};

/// Depth of the diurnal swing, 0..1 (0.4 ⇒ valley is 60 % of peak).
const DIURNAL_DEPTH: f64 = 0.4;
/// Depth of the weekday/weekend swing, 0..1.
const WEEKLY_DEPTH: f64 = 0.15;
/// MVR coefficient `a` in `var = a · mean^b`.
const MVR_A: f64 = 1.0;
/// MVR exponent `b` (measurements on backbones report ~1.5; 2.0 would
/// mean no smoothing from aggregation).
const MVR_B: f64 = 1.5;

/// Configuration of a [`TmSeries`] generation run.
#[derive(Debug, Clone)]
pub struct SeriesConfig {
    /// Number of snapshots (the paper combines 672 per topology = 7 days of
    /// 15-minute samples).
    pub snapshots: usize,
    /// Network-wide mean total load in Mbps.
    pub total_mbps: f64,
    /// Number of OD pairs that receive sudden bursts, emulating the
    /// "fiercely changed traffic" of Fig 12.
    pub burst_pairs: usize,
    /// Burst magnitude as a multiple of the pair's base rate.
    pub burst_scale: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SeriesConfig {
    /// The configuration matching the paper's simulation setup for a given
    /// seed: 672 snapshots, moderate diurnal/weekly swing, backbone MVR.
    pub fn paper(seed: u64) -> SeriesConfig {
        SeriesConfig {
            snapshots: 672,
            total_mbps: 8_000.0,
            burst_pairs: 3,
            burst_scale: 4.0,
            seed,
        }
    }

    /// A small, fast configuration for unit tests.
    pub fn small(seed: u64) -> SeriesConfig {
        SeriesConfig {
            snapshots: 48,
            total_mbps: 2_000.0,
            ..SeriesConfig::paper(seed)
        }
    }
}

/// A generated series of traffic matrices.
///
/// # Example
///
/// ```
/// use apple_topology::zoo;
/// use apple_traffic::{SeriesConfig, TmSeries};
///
/// let topo = zoo::internet2();
/// let series = TmSeries::generate(&topo, &SeriesConfig::small(0));
/// assert_eq!(series.len(), 48);
/// assert!(series.snapshot(0).total() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TmSeries {
    snapshots: Vec<TrafficMatrix>,
    /// OD pairs that received bursts, with the snapshot index where each
    /// burst begins (useful for plotting Fig 12's loss spikes).
    bursts: Vec<(NodeId, NodeId, usize)>,
}

impl TmSeries {
    /// Generates a series for the topology.
    pub fn generate(topo: &Topology, cfg: &SeriesConfig) -> TmSeries {
        let base = GravityModel::new(cfg.total_mbps, cfg.seed).base_matrix(topo);
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_mul(0xa076_1d64_78bd_642f));
        let n = base.size();

        // Choose burst victims among the heaviest pairs.
        let ranked = GravityModel::new(cfg.total_mbps, cfg.seed).ranked_pairs(topo);
        let mut bursts = Vec::new();
        for (k, &(s, d)) in ranked.iter().take(cfg.burst_pairs).enumerate() {
            // Spread burst onsets across the middle of the series.
            let at = cfg.snapshots / 4 + (k * cfg.snapshots) / (2 * cfg.burst_pairs.max(1));
            bursts.push((s, d, at));
        }
        let burst_len = (cfg.snapshots / 24).max(2); // a couple of hours

        let mut snapshots = Vec::with_capacity(cfg.snapshots);
        for t in 0..cfg.snapshots {
            let mut tm = TrafficMatrix::zeros(n);
            let season = seasonal_factor(t, cfg);
            for (s, d, mean) in base.entries() {
                let level = mean * season;
                // MVR noise: std = sqrt(a · level^b); truncated at ±3σ and
                // floored at 5 % of the level.
                let std = (MVR_A * level.powf(MVR_B)).sqrt();
                let z = sample_normal(&mut rng).clamp(-3.0, 3.0);
                let rate = (level + std * z).max(0.05 * level);
                tm.set(s, d, rate);
            }
            for &(s, d, at) in &bursts {
                if t >= at && t < at + burst_len {
                    let extra = base.rate(s, d) * cfg.burst_scale;
                    tm.add(s, d, extra);
                }
            }
            snapshots.push(tm);
        }
        TmSeries { snapshots, bursts }
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// True when the series has no snapshots.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// The `i`-th snapshot.
    ///
    /// # Panics
    ///
    /// Panics when `i >= len()`.
    pub fn snapshot(&self, i: usize) -> &TrafficMatrix {
        &self.snapshots[i]
    }

    /// Iterates over the snapshots in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, TrafficMatrix> {
        self.snapshots.iter()
    }

    /// Mean matrix across all snapshots — the Optimization Engine's input
    /// in §IX-A ("whose traffic matrix input is the mean value of the 672
    /// snapshots").
    pub fn mean(&self) -> TrafficMatrix {
        TrafficMatrix::mean_of(&self.snapshots)
    }

    /// The injected bursts: `(src, dst, onset snapshot)`.
    pub fn bursts(&self) -> &[(NodeId, NodeId, usize)] {
        &self.bursts
    }
}

impl<'a> IntoIterator for &'a TmSeries {
    type Item = &'a TrafficMatrix;
    type IntoIter = std::slice::Iter<'a, TrafficMatrix>;
    fn into_iter(self) -> Self::IntoIter {
        self.snapshots.iter()
    }
}

/// Diurnal × weekly multiplicative factor at snapshot `t`.
fn seasonal_factor(t: usize, cfg: &SeriesConfig) -> f64 {
    // Map the series onto 7 days regardless of length.
    let day_frac = (t as f64 / cfg.snapshots as f64) * 7.0;
    let hour = (day_frac.fract()) * 24.0;
    // Peak around 14:00, valley around 02:00.
    let diurnal =
        1.0 - DIURNAL_DEPTH * 0.5 * (1.0 + ((hour - 2.0) / 24.0 * std::f64::consts::TAU).cos());
    let weekday = day_frac as usize % 7;
    let weekly = if weekday >= 5 {
        1.0 - WEEKLY_DEPTH
    } else {
        1.0
    };
    diurnal * weekly
}

/// Standard normal sample via Box–Muller.
fn sample_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(1e-12..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use apple_topology::zoo;

    #[test]
    fn paper_series_has_672_snapshots() {
        let topo = zoo::internet2();
        let s = TmSeries::generate(&topo, &SeriesConfig::paper(0));
        assert_eq!(s.len(), 672);
        assert!(!s.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let topo = zoo::internet2();
        let a = TmSeries::generate(&topo, &SeriesConfig::small(5));
        let b = TmSeries::generate(&topo, &SeriesConfig::small(5));
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn all_rates_non_negative_and_finite() {
        let topo = zoo::geant();
        let s = TmSeries::generate(&topo, &SeriesConfig::small(1));
        for tm in &s {
            for (_, _, r) in tm.entries() {
                assert!(r.is_finite() && r > 0.0);
            }
        }
    }

    #[test]
    fn mean_close_to_configured_total() {
        let topo = zoo::internet2();
        let cfg = SeriesConfig::paper(2);
        let s = TmSeries::generate(&topo, &cfg);
        let mean_total = s.mean().total();
        // Diurnal modulation pulls the mean below the base total; the
        // result must stay within a sane band around it.
        assert!(
            mean_total > 0.4 * cfg.total_mbps && mean_total < 1.6 * cfg.total_mbps,
            "mean {mean_total} vs configured {}",
            cfg.total_mbps
        );
    }

    #[test]
    fn bursts_visible_in_series() {
        let topo = zoo::internet2();
        let cfg = SeriesConfig::paper(3);
        let s = TmSeries::generate(&topo, &cfg);
        assert_eq!(s.bursts().len(), cfg.burst_pairs);
        for &(src, dst, at) in s.bursts() {
            let during = s.snapshot(at).rate(src, dst);
            let before = s.snapshot(at.saturating_sub(5)).rate(src, dst);
            assert!(
                during > 2.0 * before,
                "burst at {at} not visible: {before} -> {during}"
            );
        }
    }

    #[test]
    fn seasonal_factor_bounded() {
        let cfg = SeriesConfig::paper(0);
        for t in 0..cfg.snapshots {
            let f = seasonal_factor(t, &cfg);
            assert!(f > 0.3 && f <= 1.01, "factor {f} at {t}");
        }
    }

    #[test]
    fn aggregation_smooths_variance() {
        // The §IV-A claim: relative variance of an aggregate is below the
        // mean relative variance of its components (MVR with b < 2).
        let topo = zoo::geant();
        let s = TmSeries::generate(&topo, &SeriesConfig::small(4));
        let tm0 = s.snapshot(0);
        let pairs: Vec<_> = tm0.entries().map(|(a, b, _)| (a, b)).take(20).collect();
        let series_of = |src: NodeId, dst: NodeId| -> Vec<f64> {
            s.iter().map(|tm| tm.rate(src, dst)).collect()
        };
        let cv = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64;
            v.sqrt() / m
        };
        let mean_cv: f64 = pairs
            .iter()
            .map(|&(a, b)| cv(&series_of(a, b)))
            .sum::<f64>()
            / pairs.len() as f64;
        // Aggregate of the same pairs.
        let agg: Vec<f64> = s
            .iter()
            .map(|tm| pairs.iter().map(|&(a, b)| tm.rate(a, b)).sum::<f64>())
            .collect();
        assert!(
            cv(&agg) < mean_cv,
            "aggregate CV {} not below mean component CV {}",
            cv(&agg),
            mean_cv
        );
    }
}
