//! Every metric the benchmark reports, with its unit. `BENCHMARK.json`
//! lists the same names; a run prints each one, so a workload that
//! bypasses a layer reports that layer's counts as 0.

/// End-to-end metrics (printed with `--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_time_ms", "ms"),
    ("host_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("queries_per_host_s", "1/s"),
];

/// Per-layer metrics (printed with `--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.runner.run.pr_host_s", "s"),
    ("core.runner.run.hb_host_s", "s"),
    ("core.runner.run.bfs_host_s", "s"),
    ("core.runner.run.sssp_host_s", "s"),
    ("core.runner.run.cc_host_s", "s"),
    ("core.kernel.pr_sweep_host_s", "s"),
    ("core.kernel.hb_sweep_host_s", "s"),
    ("core.kernel.narrow_sweep_host_s", "s"),
    ("core.kernel.edges", "count"),
    ("core.kernel.edges_per_host_s", "1/s"),
    ("core.kernel.launches", "count"),
    ("engines.analyze_host_s", "s"),
    ("core.select_host_s", "s"),
    ("engines.compact_host_s", "s"),
    ("engines.explicit_bytes", "B"),
    ("engines.zero_copy_bytes", "B"),
    ("engines.um_bytes", "B"),
    ("engines.compaction_bytes", "B"),
    ("engines.tlps", "count"),
    ("engines.page_faults", "count"),
    ("engines.transfer_ratio", "ratio"),
    ("core.select.filter_parts", "count"),
    ("core.select.compaction_parts", "count"),
    ("core.select.zero_copy_parts", "count"),
    ("core.select.unified_parts", "count"),
    ("core.runner.tasks", "count"),
    ("core.runner.iterations", "count"),
    ("sim.transfer_ms", "ms"),
    ("sim.compute_ms", "ms"),
    ("sim.compaction_ms", "ms"),
    ("sim.exchange_ms", "ms"),
    ("sim.exchange_exposed_ms", "ms"),
    ("sim.exchange_bytes", "B"),
    ("sim.host_link_bytes", "B"),
    ("sim.peer_bytes", "B"),
    ("sim.forwarded_bytes", "B"),
    ("sim.device_skew", "ratio"),
    ("sim.schedule_host_s", "s"),
    ("sim.price_all_gather_host_s", "s"),
    ("core.session.quote_host_s", "s"),
    ("core.session.submit_host_s", "s"),
    ("core.session.run_next_host_s", "s"),
    ("core.session.self_host_s", "s"),
    ("algos.execute_host_s", "s"),
    ("core.session.cohorts", "count"),
    ("core.session.mean_width", "req/cohort"),
    ("core.session.wait_p50_ms", "ms"),
    ("core.session.service_p50_ms", "ms"),
    ("core.session.queue_max", "count"),
    ("core.session.rejected", "count"),
    ("core.session.generator_lag_ms", "ms"),
    ("graph.generate_host_s", "s"),
    ("core.system_new_host_s", "s"),
    ("graph.mutate_host_s", "s"),
    ("graph.mutation_ops", "count"),
    ("graph.dirty_partitions", "count"),
    ("graph.reactivated", "count"),
    ("graph.compactions", "count"),
    ("graph.sweep_repriced", "count"),
    ("graph.delta_surplus_rtt", "RTT"),
    ("self.bench_host_s", "s"),
    ("self.graph_host_s", "s"),
    ("self.core.runner_host_s", "s"),
    ("self.core.session_host_s", "s"),
    ("self.algos_host_s", "s"),
    ("trace.section_host_s", "s"),
    ("trace.overhead_host_s", "s"),
    ("trace.spans", "count"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The names and units in `BENCHMARK.json` must be exactly these.
    #[test]
    fn catalog_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (section, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = json.find(&format!("\"{section}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed: Vec<(String, String)> = body
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| {
                    let name = rest[..rest.find('"').expect("name closes")].to_string();
                    let unit_at = rest.find("\"unit\": \"").expect("unit present") + 9;
                    let unit = &rest[unit_at..];
                    (name, unit[..unit.find('"').expect("unit closes")].to_string())
                })
                .collect();
            let want: Vec<(String, String)> =
                list.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(listed, want, "{section}");
        }
        let names: BTreeSet<&str> = END_TO_END.iter().chain(PER_LAYER).map(|&(n, _)| n).collect();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len(), "names are unique");
    }
}
