//! The metric tables: every name the harness prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names (a unit test compares
//! the two), and `README.md` says what each one means on each workload.

/// One metric: `(name, unit, better)`.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, reported by the untraced run of every workload.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_slow_us", "us", "lower"),
    ("recover_s", "s", "lower"),
    ("fleet_instances", "count", "lower"),
    ("peak_rss_mb", "MB", "lower"),
];

/// Per-layer metrics, reported by the traced run of every workload (0 where
/// the workload leaves the layer idle). Totals are per round.
pub const PER_LAYER: &[MetricDef] = &[
    ("round.wall_ms", "ms", "lower"),
    ("round.ops", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("traffic.timeline_build_ms", "ms", "lower"),
    ("classes.build_ms", "ms", "lower"),
    ("classes.apply_ms", "ms", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.pivots", "count", "lower"),
    ("lp.phase1_pivots", "count", "lower"),
    ("lp.phase1_ms", "ms", "lower"),
    ("lp.phase2_ms", "ms", "lower"),
    ("engine.place_ms", "ms", "lower"),
    ("engine.build_ms", "ms", "lower"),
    ("engine.solve_ms", "ms", "lower"),
    ("engine.round_ms", "ms", "lower"),
    ("engine.consolidate_ms", "ms", "lower"),
    ("engine.consolidation_solves", "count", "lower"),
    ("engine.consolidation_removed", "count", "higher"),
    ("engine.consolidation_yield", "ratio", "higher"),
    ("failover.replan_ms", "ms", "lower"),
    ("failover.replan_cold_ms", "ms", "lower"),
    ("failover.replan_host_down_ms", "ms", "lower"),
    ("failover.warm_hit_ratio", "ratio", "higher"),
    ("subclass.derive_ms", "ms", "lower"),
    ("rules.generate_ms", "ms", "lower"),
    ("online.step_self_ms", "ms", "lower"),
    ("online.step_p50_us", "us", "lower"),
    ("online.step_p99_us", "us", "lower"),
    ("online.step_p999_us", "us", "lower"),
    ("online.step_max_ms", "ms", "lower"),
    ("online.placements", "count", "lower"),
    ("online.launches", "count", "lower"),
    ("online.retired", "count", "lower"),
    ("online.shed_events", "count", "lower"),
    ("online.overload", "count", "lower"),
    ("online.resolves_applied", "count", "higher"),
    ("online.resolves_repacked", "count", "lower"),
    ("online.resolves_deferred", "count", "lower"),
    ("online.resolves_failed", "count", "lower"),
    ("online.resolve_applied_ratio", "ratio", "higher"),
    ("online.resolve_stall_p50_ms", "ms", "lower"),
    ("online.resolve_stall_max_ms", "ms", "lower"),
    ("online.resolve_other_ms", "ms", "lower"),
    ("orchestrator.launch_latency_vms_p50", "ms", "lower"),
    ("orchestrator.launch_latency_vms_max", "ms", "lower"),
    ("compiler.compile_ms", "ms", "lower"),
    ("compiler.rules_compiled", "count", "lower"),
    ("compiler.rules_per_op", "ratio", "lower"),
    ("diff.diff_ms", "ms", "lower"),
    ("diff.plans", "count", "lower"),
    ("diff.rule_ops", "count", "lower"),
    ("dataplane.sync_self_ms", "ms", "lower"),
    ("dataplane.snapshot_us", "us", "lower"),
    ("southbound.apply_us", "us", "lower"),
    ("southbound.barriers", "count", "lower"),
    ("southbound.retries", "count", "lower"),
    ("southbound.wait_vms_p50", "ms", "lower"),
    ("southbound.wait_vms_p99", "ms", "lower"),
    ("fastpath.build_ms", "ms", "lower"),
    ("fastpath.rebuild_delta_us", "us", "lower"),
    ("fastpath.rebuild_delta_calls", "count", "lower"),
    ("fastpath.walk_ns", "ns", "lower"),
    ("journal.append_ms", "ms", "lower"),
    ("journal.scan_ms", "ms", "lower"),
    ("journal.records", "count", "lower"),
    ("journal.bytes", "B", "lower"),
    ("journal.snapshots", "count", "lower"),
    ("journal.bytes_per_event", "B", "lower"),
    ("recovery.journaled_step_self_ms", "ms", "lower"),
    ("recovery.encode_state_ms", "ms", "lower"),
    ("recovery.snapshot_bytes", "B", "lower"),
    ("recovery.recover_latest_ms", "ms", "lower"),
    ("recovery.records_replayed", "count", "lower"),
    ("replay.walk_batch_ms", "ms", "lower"),
    ("replay.walks_per_s_par", "1/s", "higher"),
    ("replay.par_speedup", "ratio", "higher"),
    ("replay.conformance_p50_ms", "ms", "lower"),
    ("replay.conformance_walks", "count", "lower"),
    ("walk.linear_walks_per_s", "1/s", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use apple_telemetry::json::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn owned(table: &[MetricDef]) -> Vec<(String, String, String)> {
        table
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_harness_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(*better, "lower" | "higher"));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }
}
