//! Engine-side metric recording: cached per-index (and per-shard) instrument handles
//! over the process-wide [`p2h_obs`] registry.
//!
//! The cost model keeps the serving hot path clean: instrument handles are resolved
//! once per index name (one registry write-lock, amortized to a read-locked `HashMap`
//! hit afterwards), per-query samples accumulate in **local** [`StreamingHistogram`]s
//! while the response is walked, and everything publishes with a constant number of
//! relaxed atomic adds per batch. No per-query atomics, no per-query allocation — the
//! `obs_overhead` integration test holds the whole serve path to ≤ 1 allocation per
//! query.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use p2h_obs::{global, Counter, Histogram, StreamingHistogram};

use crate::batch::{BatchResponse, ShardedBatchResponse};

/// `SearchStats::to_metrics()` names, paired with the Prometheus family each one
/// feeds. Order matches `to_metrics()` (asserted in debug builds on every record).
const SEARCH_COUNTER_FAMILIES: [(&str, &str, &str); 13] = [
    ("inner_products", "p2h_search_inner_products_total", "O(d) inner products computed."),
    ("nodes_visited", "p2h_search_nodes_visited_total", "Tree nodes visited."),
    ("leaves_visited", "p2h_search_leaves_visited_total", "Leaf nodes visited."),
    (
        "candidates_verified",
        "p2h_search_candidates_verified_total",
        "Points whose exact distance was computed.",
    ),
    (
        "pruned_subtrees",
        "p2h_search_pruned_subtrees_total",
        "Subtrees pruned by the node-level ball bound.",
    ),
    (
        "pruned_by_ball_bound",
        "p2h_search_pruned_by_ball_bound_total",
        "Points skipped by the point-level ball bound.",
    ),
    (
        "pruned_by_cone_bound",
        "p2h_search_pruned_by_cone_bound_total",
        "Points skipped by the point-level cone bound.",
    ),
    ("buckets_probed", "p2h_search_buckets_probed_total", "Hash buckets / projections probed."),
    ("time_bounds_ns", "p2h_search_time_bounds_ns_total", "Nanoseconds computing lower bounds."),
    ("time_verify_ns", "p2h_search_time_verify_ns_total", "Nanoseconds verifying candidates."),
    ("time_lookup_ns", "p2h_search_time_lookup_ns_total", "Nanoseconds probing hash tables."),
    (
        "time_merge_ns",
        "p2h_search_time_merge_ns_total",
        "Nanoseconds merging per-shard top-k lists.",
    ),
    ("time_total_ns", "p2h_search_time_total_ns_total", "Total query nanoseconds."),
];

/// Cached instrument handles for one registered index name.
struct IndexInstruments {
    queries: Arc<Counter>,
    batches: Arc<Counter>,
    batch_wall_ns: Arc<Counter>,
    latency: Arc<Histogram>,
    batch_size: Arc<Histogram>,
    candidates_verified: Arc<Histogram>,
    nodes_visited: Arc<Histogram>,
    pruned_subtrees: Arc<Histogram>,
    /// One counter per `SearchStats::to_metrics()` entry, in the same order.
    stat_counters: Vec<Arc<Counter>>,
    /// Per-shard instruments, created lazily the first time the sharded path serves
    /// this name (index = shard id).
    shards: RwLock<Vec<ShardInstruments>>,
}

struct ShardInstruments {
    latency: Arc<Histogram>,
    sub_searches: Arc<Counter>,
    candidates_verified: Arc<Counter>,
}

impl IndexInstruments {
    fn new(index: &str) -> Self {
        let registry = global();
        let labels: &[(&str, &str)] = &[("index", index)];
        Self {
            queries: registry.counter("p2h_queries_total", "Queries served, by index.", labels),
            batches: registry.counter("p2h_batches_total", "Batches served, by index.", labels),
            batch_wall_ns: registry.counter(
                "p2h_batch_wall_ns_total",
                "Batch wall-clock nanoseconds (including scheduling overhead).",
                labels,
            ),
            latency: registry.histogram(
                "p2h_query_latency_ns",
                "Per-query wall-clock latency in nanoseconds.",
                labels,
            ),
            batch_size: registry.histogram("p2h_batch_size", "Queries per served batch.", labels),
            candidates_verified: registry.histogram(
                "p2h_query_candidates_verified",
                "Per-query points whose exact distance was computed.",
                labels,
            ),
            nodes_visited: registry.histogram(
                "p2h_query_nodes_visited",
                "Per-query tree nodes visited.",
                labels,
            ),
            pruned_subtrees: registry.histogram(
                "p2h_query_pruned_subtrees",
                "Per-query subtrees pruned by the ball bound.",
                labels,
            ),
            stat_counters: SEARCH_COUNTER_FAMILIES
                .iter()
                .map(|&(_, family, help)| registry.counter(family, help, labels))
                .collect(),
            shards: RwLock::new(Vec::new()),
        }
    }

    /// Publishes one batch response: aggregate counters plus per-query distributions
    /// accumulated locally and merged in a single pass each.
    fn record_batch(&self, response: &BatchResponse) {
        let n = response.results.len();
        self.queries.add(n as u64);
        self.batches.inc();
        self.batch_wall_ns.add(response.wall_time_ns);
        self.batch_size.record(n as u64);
        self.latency.merge_from(&response.latency);

        let mut candidates = StreamingHistogram::new();
        let mut nodes = StreamingHistogram::new();
        let mut pruned = StreamingHistogram::new();
        for result in &response.results {
            candidates.record(result.stats.candidates_verified);
            nodes.record(result.stats.nodes_visited);
            pruned.record(result.stats.pruned_subtrees);
        }
        self.candidates_verified.merge_from(&candidates);
        self.nodes_visited.merge_from(&nodes);
        self.pruned_subtrees.merge_from(&pruned);

        for ((name, value), counter) in
            response.total_stats.to_metrics().iter().zip(&self.stat_counters)
        {
            debug_assert!(
                SEARCH_COUNTER_FAMILIES.iter().any(|&(n, ..)| n == *name),
                "SearchStats::to_metrics() field `{name}` has no metric family"
            );
            counter.add(*value);
        }
    }

    /// Publishes the per-shard latency distributions and work counters of a
    /// fanned-out batch.
    fn record_shards(&self, index: &str, response: &ShardedBatchResponse) {
        self.ensure_shards(index, response.per_shard_latency.len());
        let shards = self.shards.read().expect("shard instruments poisoned");
        for (shard, (latency, stats)) in
            response.per_shard_latency.iter().zip(&response.per_shard_stats).enumerate()
        {
            let instruments = &shards[shard];
            instruments.latency.merge_from(latency);
            instruments.sub_searches.add(latency.count());
            instruments.candidates_verified.add(stats.candidates_verified);
        }
    }

    /// The observed per-shard sub-search latency quantile `q`, one entry per shard,
    /// or `None` until every shard has at least `min_samples` recorded sub-searches
    /// (a half-warm distribution would bias routing toward whichever shards happened
    /// to serve first).
    fn shard_latency_quantiles(&self, q: f64, min_samples: u64) -> Option<Vec<u64>> {
        let shards = self.shards.read().expect("shard instruments poisoned");
        if shards.is_empty() {
            return None;
        }
        let mut quantiles = Vec::with_capacity(shards.len());
        for shard in shards.iter() {
            let snapshot = shard.latency.snapshot();
            if snapshot.count() < min_samples {
                return None;
            }
            quantiles.push(snapshot.quantile(q));
        }
        Some(quantiles)
    }

    fn ensure_shards(&self, index: &str, count: usize) {
        if self.shards.read().expect("shard instruments poisoned").len() >= count {
            return;
        }
        let registry = global();
        let mut shards = self.shards.write().expect("shard instruments poisoned");
        while shards.len() < count {
            let shard_label = shards.len().to_string();
            let labels: &[(&str, &str)] = &[("index", index), ("shard", &shard_label)];
            shards.push(ShardInstruments {
                latency: registry.histogram(
                    "p2h_shard_latency_ns",
                    "Per-shard sub-search latency in nanoseconds.",
                    labels,
                ),
                sub_searches: registry.counter(
                    "p2h_shard_sub_searches_total",
                    "Sub-searches the shard actually ran (budget-skipped shards excluded).",
                    labels,
                ),
                candidates_verified: registry.counter(
                    "p2h_shard_candidates_verified_total",
                    "Points the shard verified exactly.",
                    labels,
                ),
            });
        }
    }
}

/// The engine's handle cache: one [`IndexInstruments`] per served index name.
#[derive(Default)]
pub(crate) struct EngineMetrics {
    per_index: RwLock<HashMap<String, Arc<IndexInstruments>>>,
}

impl std::fmt::Debug for EngineMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cached = self.per_index.read().map(|m| m.len()).unwrap_or(0);
        f.debug_struct("EngineMetrics").field("cached_indexes", &cached).finish()
    }
}

impl EngineMetrics {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    fn instruments(&self, index: &str) -> Arc<IndexInstruments> {
        if let Some(found) = self.per_index.read().expect("engine metrics poisoned").get(index) {
            return Arc::clone(found);
        }
        let mut cache = self.per_index.write().expect("engine metrics poisoned");
        Arc::clone(
            cache
                .entry(index.to_string())
                .or_insert_with(|| Arc::new(IndexInstruments::new(index))),
        )
    }

    /// Records a served batch, plus its per-shard telemetry when it was fanned out.
    pub(crate) fn record(&self, index: &str, response: &ShardedBatchResponse) {
        let instruments = self.instruments(index);
        instruments.record_batch(&response.batch);
        if !response.per_shard_latency.is_empty() {
            instruments.record_shards(index, response);
        }
    }

    /// Records a batch that carries no per-shard telemetry.
    pub(crate) fn record_batch(&self, index: &str, response: &BatchResponse) {
        self.instruments(index).record_batch(response);
    }

    /// Observed `p2h_shard_latency_ns` p99 per shard of `index`, or `None` before the
    /// sharded path has served this name with at least `min_samples` sub-searches on
    /// every shard. Feeds the front-end dispatch heuristic; reading is a snapshot of
    /// the cached histogram handles, no registry lock.
    pub(crate) fn shard_latency_p99s(&self, index: &str, min_samples: u64) -> Option<Vec<u64>> {
        let cache = self.per_index.read().expect("engine metrics poisoned");
        let instruments = Arc::clone(cache.get(index)?);
        drop(cache);
        instruments.shard_latency_quantiles(0.99, min_samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchRequest;
    use crate::executor::BatchExecutor;
    use p2h_core::{HyperplaneQuery, LinearScan, PointSet, Scalar, SearchParams};

    #[test]
    fn recording_populates_the_global_registry() {
        let rows: Vec<Vec<Scalar>> =
            (0..64).map(|i| vec![i as Scalar * 0.2, (i % 7) as Scalar]).collect();
        let index = LinearScan::new(PointSet::augment(&rows).unwrap());
        let queries: Vec<HyperplaneQuery> = (0..10)
            .map(|i| {
                HyperplaneQuery::from_normal_and_bias(&[1.0, i as Scalar * 0.1], -1.0).unwrap()
            })
            .collect();
        let request = BatchRequest::new(queries, SearchParams::exact(3));
        let response = BatchExecutor::new(2).execute(&index, &request);

        let metrics = EngineMetrics::new();
        metrics.record_batch("metrics-unit", &response);
        metrics.record_batch("metrics-unit", &response);

        let snapshot = global().snapshot();
        let labels: &[(&str, &str)] = &[("index", "metrics-unit")];
        assert_eq!(snapshot.series("p2h_queries_total", labels).unwrap().value.scalar(), 20);
        assert_eq!(snapshot.series("p2h_batches_total", labels).unwrap().value.scalar(), 2);
        let latency =
            snapshot.series("p2h_query_latency_ns", labels).unwrap().value.histogram().unwrap();
        assert_eq!(latency.count(), 20);
        // Linear scan verifies all 64 points per query: 2 batches * 10 queries * 64.
        assert_eq!(
            snapshot.series("p2h_search_candidates_verified_total", labels).unwrap().value.scalar(),
            2 * 10 * 64
        );
        // The per-query distribution agrees with the response's own histogram.
        let expected = {
            let mut h = StreamingHistogram::new();
            for &ns in &response.latencies_ns {
                h.record(ns);
                h.record(ns);
            }
            h
        };
        assert_eq!(latency, &expected);
    }
}
