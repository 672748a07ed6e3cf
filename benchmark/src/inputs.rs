//! Seeded input generation. Everything the program is given derives from
//! `--seed` through these functions; the program itself never sees the seed
//! of the run, only the inputs (and the seeds that are fields of its own
//! configuration types).

use apple_rng::rngs::StdRng;
use apple_rng::{Rng, SeedableRng};
use apple_topology::Topology;
use apple_traffic::{GravityModel, TrafficMatrix};

/// Gravity-model seed of every base matrix. Pinned, because it fixes *which*
/// OD pairs are heavy and therefore the class set and the LP's structure:
/// re-drawing it per run moves one cold GEANT plan between 0.9 s and 3.9 s
/// and makes some instances infeasible, which no number of repetitions
/// inside a run's budget averages out (README, "Recorded limits").
pub const BASE_GRAVITY_SEED: u64 = 0;

/// Relative half-width of the per-run rate jitter: every OD rate is scaled
/// by a factor drawn uniformly from `[1 − JITTER, 1 + JITTER]`.
pub const JITTER: f64 = 0.2;

/// An independent seed for item `index` of stream `stream` of a run
/// (SplitMix64 finaliser over the three words).
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(stream.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(index.wrapping_mul(0x94d0_49bb_1331_11eb))
        .wrapping_add(0x2545_f491_4f6c_dd1d);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The pinned gravity-model matrix of `topo` at `total_mbps`.
pub fn base_matrix(topo: &Topology, total_mbps: f64) -> TrafficMatrix {
    GravityModel::new(total_mbps, BASE_GRAVITY_SEED).base_matrix(topo)
}

/// `base` with every rate scaled by an independent factor in
/// `[1 − JITTER, 1 + JITTER]` drawn from `seed`.
pub fn jittered(base: &TrafficMatrix, seed: u64) -> TrafficMatrix {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tm = TrafficMatrix::zeros(base.size());
    for (s, d, rate) in base.entries() {
        let u: f64 = rng.gen_range(-1.0..1.0);
        tm.set(s, d, rate * (1.0 + JITTER * u));
    }
    tm
}

#[cfg(test)]
mod tests {
    use super::*;
    use apple_topology::TopologyKind;

    #[test]
    fn sub_seeds_differ_by_every_word() {
        let a = sub_seed(11, 0, 0);
        assert_eq!(a, sub_seed(11, 0, 0));
        assert_ne!(a, sub_seed(12, 0, 0));
        assert_ne!(a, sub_seed(11, 1, 0));
        assert_ne!(a, sub_seed(11, 0, 1));
    }

    #[test]
    fn jitter_is_seeded_and_bounded() {
        let topo = TopologyKind::Internet2.build();
        let base = base_matrix(&topo, 7_000.0);
        let a = jittered(&base, 3);
        assert_eq!(a, jittered(&base, 3));
        assert_ne!(a, jittered(&base, 4));
        for (s, d, rate) in base.entries() {
            let r = a.rate(s, d) / rate;
            assert!((1.0 - JITTER..=1.0 + JITTER).contains(&r), "{r}");
        }
    }
}
