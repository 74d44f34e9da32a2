//! Batch request/response types and the serving path a batch took.

use p2h_core::{HyperplaneQuery, SearchParams, SearchResult, SearchStats};
use p2h_obs::StreamingHistogram;

/// A batch of hyperplane queries with a shared default [`SearchParams`] and optional
/// per-query overrides.
///
/// Overrides let one batch mix workloads — e.g. most queries exact, a few with a tight
/// candidate budget — without splitting it into multiple round trips.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRequest {
    /// The queries, in the order results will be returned.
    pub queries: Vec<HyperplaneQuery>,
    /// Parameters applied to every query without an override.
    pub default_params: SearchParams,
    /// Sparse per-query parameter overrides, keyed by query position.
    pub overrides: Vec<(usize, SearchParams)>,
}

impl BatchRequest {
    /// Creates a batch applying `default_params` to every query.
    pub fn new(queries: Vec<HyperplaneQuery>, default_params: SearchParams) -> Self {
        Self { queries, default_params, overrides: Vec::new() }
    }

    /// Overrides the parameters of the query at `position` (builder style). The last
    /// override for a position wins.
    #[must_use]
    pub fn with_override(mut self, position: usize, params: SearchParams) -> Self {
        self.overrides.push((position, params));
        self
    }

    /// The parameters in effect for the query at `position`.
    pub fn params_for(&self, position: usize) -> &SearchParams {
        self.overrides
            .iter()
            .rev()
            .find(|(p, _)| *p == position)
            .map_or(&self.default_params, |(_, params)| params)
    }

    /// Number of queries in the batch.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch contains no queries.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// Which execution path served a batch.
///
/// Every path answers **bit-identically** for the same entry and request — the choice
/// is purely a performance decision, so a front-end can count it
/// (`p2h_front_dispatch_total{path=…}`) without callers ever observing a difference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePath {
    /// A live (mutable) index answered, through the batch executor's work loop,
    /// query-parallel.
    Live,
    /// Each query fanned out across the shards of a sharded index, one (shard, query)
    /// sub-search per task. Router-served batches (`Engine::serve_remote`) report this
    /// path too: the router fans every query out across the remote shards.
    ShardParallel,
    /// Queries ran in parallel, each searched whole by one worker — a plain index, or
    /// a sharded one the straggler policy judged better served across queries.
    QueryParallel,
}

impl ServePath {
    /// A stable label value for dispatch counters.
    pub fn as_str(self) -> &'static str {
        match self {
            ServePath::Live => "live",
            ServePath::ShardParallel => "shard_parallel",
            ServePath::QueryParallel => "query_parallel",
        }
    }
}

/// The answer to a [`BatchRequest`].
#[derive(Debug, Clone)]
pub struct BatchResponse {
    /// Per-query results, in request order. Identical to what sequential execution
    /// would return, regardless of how many threads served the batch.
    pub results: Vec<SearchResult>,
    /// Per-query wall-clock latency in nanoseconds, in request order (the raw samples
    /// behind `latency`; useful when a caller needs to attribute latency to a query).
    pub latencies_ns: Vec<u64>,
    /// Component-wise sum of every query's [`SearchStats`].
    pub total_stats: SearchStats,
    /// Distribution of per-query wall-clock latencies over the workspace's shared
    /// log-bucket layout (see [`p2h_obs::hist`]): quantiles report the bucket's upper
    /// bound, so they overestimate the true sample by at most 2x; `latencies_ns` holds
    /// the exact samples.
    pub latency: StreamingHistogram,
    /// Wall-clock nanoseconds for the whole batch (including scheduling overhead).
    pub wall_time_ns: u64,
    /// The execution path that served the batch.
    pub path: ServePath,
}

impl BatchResponse {
    /// Queries answered per second of batch wall-clock time.
    pub fn throughput_qps(&self) -> f64 {
        if self.wall_time_ns == 0 {
            return 0.0;
        }
        self.results.len() as f64 / (self.wall_time_ns as f64 / 1.0e9)
    }
}

/// The answer to a batch fanned out across the shards of a sharded index
/// (`Engine::serve_sharded`, [`crate::BatchExecutor::execute_sharded`]): the merged
/// batch plus per-shard telemetry.
#[derive(Debug, Clone)]
pub struct ShardedBatchResponse {
    /// The merged per-query results and batch telemetry — bit-identical answers to
    /// the query-parallel path, regardless of thread count. Per-query latency is the
    /// query's fan-out latency (the sum of its per-shard sub-search latencies).
    pub batch: BatchResponse,
    /// Per-shard latency distributions over the sub-searches the shard actually ran
    /// (budget-skipped shards record nothing) — the shard-imbalance signal a serving
    /// operator watches.
    pub per_shard_latency: Vec<StreamingHistogram>,
    /// Per-shard work counters, same indexing as `per_shard_latency`.
    pub per_shard_stats: Vec<SearchStats>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::HyperplaneQuery;

    fn query() -> HyperplaneQuery {
        HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], -0.5).unwrap()
    }

    #[test]
    fn overrides_apply_per_position() {
        let request = BatchRequest::new(vec![query(), query(), query()], SearchParams::exact(5))
            .with_override(1, SearchParams::approximate(5, 100))
            .with_override(1, SearchParams::approximate(5, 200));
        assert_eq!(request.len(), 3);
        assert!(!request.is_empty());
        assert_eq!(request.params_for(0).candidate_limit, None);
        // Last override wins.
        assert_eq!(request.params_for(1).candidate_limit, Some(200));
        assert_eq!(request.params_for(2).candidate_limit, None);
    }
}
