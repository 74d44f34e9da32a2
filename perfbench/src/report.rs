//! The metric catalog and the result line.
//!
//! Every workload reports every end-to-end metric (untraced runs) and every
//! per-layer metric (traced runs); a per-layer metric whose layer is not on a
//! workload's path is reported as 0 and printed as `n/a`. The catalog must match
//! `BENCHMARK.json`, which a test checks.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "1/s"),
    ("p50_ms", "ms"),
    ("recall_at_10", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-specific end-to-end figures, reported by the traced run.
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("light.p50_ms", "ms"),
    ("light.p99_ms", "ms"),
    ("heavy.p50_ms", "ms"),
    ("heavy.p99_ms", "ms"),
    ("max_qps_at_slo", "1/s"),
    ("rounds_per_s", "1/s"),
    ("insert_p50_ms", "ms"),
    ("insert_p99_ms", "ms"),
    ("failed_share", "share"),
    // p2h-core kernels.
    ("core.abs_dot_block_ns_per_row", "ns"),
    ("core.gbytes_per_s", "GB/s"),
    // Tree search (per query).
    ("tree.inner_products", "count"),
    ("tree.nodes_visited", "count"),
    ("tree.leaves_visited", "count"),
    ("tree.candidates_verified", "count"),
    ("tree.pruned_subtrees", "count"),
    ("tree.pruned_by_ball", "count"),
    ("tree.pruned_by_cone", "count"),
    ("tree.useful_ratio", "share"),
    ("tree.bounds_us", "us"),
    ("tree.verify_us", "us"),
    ("tree.other_us", "us"),
    ("balltree.query_us", "us"),
    ("balltree.recall_at_10", "share"),
    // p2h-engine executor.
    ("engine.busy_share", "share"),
    ("engine.overhead_us_per_batch", "us"),
    ("engine.scaling", "x"),
    // p2h-store cold start.
    ("store.read_ms", "ms"),
    ("store.crc_ms", "ms"),
    ("store.decode_ms", "ms"),
    ("store.load_mb", "MB"),
    ("store.bytes_per_user_byte", "x"),
    // p2h-live.
    ("live.delete_us_p50", "us"),
    ("live.fsyncs_per_round", "count"),
    ("live.wal_bytes_per_insert", "bytes"),
    ("live.compactions", "count"),
    ("live.folded_rows", "count"),
    ("live.compact_s", "s"),
    ("live.memtable_rows_mean", "count"),
    ("live.stall_p99_ms", "ms"),
    // p2h-shard.
    ("shard.fanout_share", "share"),
    ("shard.serve_sharded_us", "us"),
    ("shard.serve_query_parallel_us", "us"),
    // p2h-net.
    ("net.ping_rtt_us_p50", "us"),
    ("net.frame_bytes_per_query", "bytes"),
    // p2h-front and the load generator.
    ("front.mean_batch_size.light", "count"),
    ("front.mean_batch_size.heavy", "count"),
    ("front.probe_rtt_us_p50", "us"),
    ("front.shed", "count"),
    ("front.unexplained_us", "us"),
    ("gen.lag_p99_ms", "ms"),
    // p2h-obs: the cost of instrumentation.
    ("obs.trace_overhead_share", "share"),
    ("obs.timing_overhead_share", "share"),
];

/// Metric values collected by one run, keyed by catalog name.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is in neither catalog (a typo would otherwise vanish).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric `{name}` is not in the catalog");
        self.values.insert(name, value);
    }

    /// The recorded value of `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }
}

/// The unit of a catalog metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, unit)| *unit)
}

/// One outcome of a run: how many operations were attempted and failed, and the
/// metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Operations that failed or were refused (typed overload/deadline included).
    pub failed: u64,
    /// Collected metrics.
    pub metrics: Metrics,
}

/// Prints every metric of the selected catalog as a `name = value unit` line and
/// returns the final JSON result line.
///
/// # Errors
///
/// An end-to-end metric that is missing or not a positive finite number — the
/// result contract forbids it, and printing it anyway would hide a broken run.
pub fn render(outcome: &Outcome, traced: bool) -> Result<(Vec<String>, String), String> {
    let catalog = if traced { PER_LAYER } else { END_TO_END };
    let mut lines = Vec::with_capacity(catalog.len());
    let mut json = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric `{name}` is not finite: {v}")),
            None if traced => {
                lines.push(format!("{name} = n/a {unit}"));
                json.push(format!("\"{name}\": {{\"value\": 0.0, \"unit\": \"{unit}\"}}"));
                continue;
            }
            None => return Err(format!("end-to-end metric `{name}` was not measured")),
        };
        if !traced && value <= 0.0 {
            return Err(format!("end-to-end metric `{name}` is {value}, not positive"));
        }
        lines.push(format!("{name} = {value} {unit}"));
        json.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    let line = format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        json.join(", ")
    );
    Ok((lines, line))
}

/// A JSON number with every significant digit (`f64`'s shortest round-trip form).
fn json_number(value: f64) -> String {
    let text = format!("{value}");
    if text.contains('.') || text.contains('e') {
        text
    } else {
        format!("{text}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `key` in `BENCHMARK.json`, in order.
    fn manifest_names(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let start = text.find(&format!("\"{key}\"")).expect("section present");
        let section = &text[start..];
        let section = &section[..section.find(']').expect("section closes")];
        section
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |field: &str| {
                    let at = entry.find(&format!("\"{field}\"")).expect("field present");
                    let rest = &entry[at + field.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(catalog: &[(&str, &str)]) -> Vec<(String, String)> {
        catalog.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn catalog_matches_the_manifest() {
        assert_eq!(manifest_names("end_to_end"), owned(END_TO_END));
        assert_eq!(manifest_names("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn catalog_names_follow_the_naming_rules() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && seen.insert(*name), "{name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric(), "{name}");
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(
                unit.len() <= 16
                    && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    fn full_outcome() -> Outcome {
        let mut outcome = Outcome { attempted: 40, failed: 0, ..Outcome::default() };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            outcome.metrics.set(name, 1.25 + i as f64 / 3.0);
        }
        outcome
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let (lines, json) = render(&full_outcome(), false).unwrap();
        assert_eq!(lines.len(), END_TO_END.len());
        assert!(json
            .starts_with("{\"correct\": true, \"attempted\": 40, \"failed\": 0, \"metrics\": {"));
        assert!(json.ends_with("}}}"));
        for (name, unit) in END_TO_END {
            assert!(json.contains(&format!("\"{name}\": {{\"value\": ")), "{name}");
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
        }
        // All digits survive: 1.25 + 1/3 is printed in full.
        assert!(json.contains(&format!("{}", 1.25 + 1.0 / 3.0)));
        assert!(!json.contains('\n'));
    }

    #[test]
    fn traced_line_lists_every_layer_metric() {
        let mut outcome = full_outcome();
        outcome.metrics.set("tree.nodes_visited", 12.0);
        let (lines, json) = render(&outcome, true).unwrap();
        assert_eq!(lines.len(), PER_LAYER.len());
        assert!(json.contains("\"tree.nodes_visited\": {\"value\": 12.0, \"unit\": \"count\"}"));
        assert!(json.contains("\"front.shed\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(lines.iter().any(|l| l == "front.shed = n/a count"));
        assert!(!json.contains("\"setup_s\""));
    }

    #[test]
    fn a_missing_or_zero_end_to_end_metric_is_refused() {
        let mut outcome = Outcome::default();
        outcome.metrics.set("setup_s", 1.0);
        assert!(render(&outcome, false).unwrap_err().contains("was not measured"));
        let mut zero = full_outcome();
        zero.metrics.set("qps", 0.0);
        assert!(render(&zero, false).unwrap_err().contains("not positive"));
    }
}
