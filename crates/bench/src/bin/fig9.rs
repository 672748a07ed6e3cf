//! Regenerates Fig. 9: the overload-detection timeline — source rate
//! 1 → 10 → 1 Kpps, detection at 8.5 Kpps via port-counter polling, a
//! second ClickOS monitor reconfigured within tens of milliseconds, and
//! roll-back below 4 Kpps (§VIII-E).
//!
//! Run with `cargo run --release --bin fig9`.

use apple_bench::hr;
use apple_sim::failover_lab::{detection_timeline, DetectorConfig};
use apple_telemetry::NOOP;

fn main() {
    println!("Fig. 9 — overloading detection timeline");
    hr();
    println!(
        "{:>8}{:>12}{:>12}{:>9}{:>10}",
        "t (ms)", "send (pps)", "overloaded", "helper", "loss"
    );
    let cfg = DetectorConfig::paper();
    let tl = detection_timeline(&cfg, &NOOP);
    for p in tl.iter().step_by(5) {
        println!(
            "{:>8}{:>12.0}{:>12}{:>9}{:>10.4}",
            p.t_ms,
            p.send_pps,
            if p.overloaded { "yes" } else { "-" },
            if p.helper_active { "yes" } else { "-" },
            p.loss_rate
        );
    }
    hr();
    let detect = tl.iter().find(|p| p.overloaded).map(|p| p.t_ms);
    let helper = tl.iter().find(|p| p.helper_active).map(|p| p.t_ms);
    let lossy = tl.iter().filter(|p| p.loss_rate > 0.0).count();
    println!(
        "burst at {} ms; detected at {:?} ms; helper live at {:?} ms; lossy samples: {}",
        cfg.burst_start_ms, detect, helper, lossy
    );
    println!("paper: overload detected immediately, packet loss 0% throughout");
}
