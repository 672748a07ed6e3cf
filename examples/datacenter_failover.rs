//! Data-center scenario (the paper's UNIV1 setting): a 2-tier topology with
//! ECMP multipath, bursty traffic, and fast failover absorbing the bursts.
//!
//! Run with `cargo run --release --example datacenter_failover`.

use apple_nfv::core::classes::ClassConfig;
use apple_nfv::core::controller::AppleConfig;
use apple_nfv::sim::replay::{replay, ReplayConfig};
use apple_nfv::telemetry::NOOP;
use apple_nfv::topology::zoo;
use apple_nfv::traffic::{SeriesConfig, TmSeries};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let topo = zoo::univ1();
    println!("{} (2-tier, ECMP multipath)", topo.summary());
    let series = TmSeries::generate(
        &topo,
        &SeriesConfig {
            snapshots: 90,
            total_mbps: 9_000.0,
            burst_pairs: 3,
            burst_scale: 7.0,
            ..SeriesConfig::paper(77)
        },
    );
    let cfg = ReplayConfig {
        apple: AppleConfig {
            classes: ClassConfig {
                max_classes: 24,
                ..Default::default()
            },
            ..Default::default()
        },
        fast_failover: true,
        ..Default::default()
    };
    let with_ff = replay(&topo, &series, &cfg, &NOOP)?;
    let without_ff = replay(
        &topo,
        &series,
        &ReplayConfig {
            fast_failover: false,
            ..cfg
        },
        &NOOP,
    )?;

    println!(
        "steady-state plan: {} cores; bursts on {} OD pairs",
        with_ff.planned_cores,
        series.bursts().len()
    );
    println!("\n tick   loss w/ failover   loss w/o   helper cores");
    for i in 0..with_ff.loss.len() {
        let w = with_ff.loss.samples()[i].1;
        let wo = without_ff.loss.samples()[i].1;
        let hc = with_ff.helper_cores.samples()[i].1;
        // Print the interesting ticks (any activity) plus a sparse carrier.
        if w > 0.0 || wo > 0.0 || hc > 0.0 || i % 15 == 0 {
            println!("{i:>5}  {w:>16.4}  {wo:>9.4}  {hc:>12.0}");
        }
    }
    println!(
        "\nmean loss {:.4} (with) vs {:.4} (without); {} notifications, {} ClickOS helpers, peak {} extra cores",
        with_ff.loss.mean(),
        without_ff.loss.mean(),
        with_ff.notifications,
        with_ff.helpers_spawned,
        with_ff.peak_helper_cores
    );
    Ok(())
}
