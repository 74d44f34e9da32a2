//! The `Engine` façade: registry + executor + request validation + observability.

use std::sync::Arc;

use p2h_core::{Error, Result, Scalar, SearchResult};
use p2h_live::{LiveError, LiveIndex};
use p2h_obs::trace::{from_env, QueryTrace, TraceSink};

use crate::batch::{BatchRequest, BatchResponse, ServePath, ShardedBatchResponse};
use crate::executor::BatchExecutor;
use crate::metrics::EngineMetrics;
use crate::registry::{Entry, IndexRegistry};

/// Minimum recorded sub-searches per shard before the dispatch heuristic trusts the
/// observed `p2h_shard_latency_ns` distributions over its static default.
const DISPATCH_MIN_SHARD_SAMPLES: u64 = 64;

/// A batch-query serving engine: a shared [`IndexRegistry`] plus a [`BatchExecutor`].
///
/// `Engine` is `Send + Sync`; wrap it in an `Arc` and serve batches from any number of
/// threads concurrently. Registration and serving can interleave freely — an index
/// removed mid-flight stays alive until its last in-flight batch completes.
///
/// Every served batch is also published to the process-wide [`p2h_obs`] metrics
/// registry (per-index latency histograms, work counters, per-shard telemetry — see
/// `docs/OBSERVABILITY.md` for the catalog) and, when `P2H_TRACE=path[:rate]` is set,
/// sampled queries are written as JSON-line spans. Neither changes any answer: the
/// instrumentation only adds counter updates (and clock reads for sampled queries),
/// and the disabled/unsampled hot path stays allocation-free per query (pinned by the
/// `obs_overhead` integration test).
#[derive(Debug, Default)]
pub struct Engine {
    registry: IndexRegistry,
    executor: BatchExecutor,
    pub(crate) metrics: EngineMetrics,
}

impl Engine {
    /// Creates an engine whose executor uses `threads` long-lived workers (`0` = one
    /// per available CPU): each batch runs on the calling thread plus up to
    /// `threads − 1` helper threads, spawned at the first multi-query batch and joined
    /// when the engine is dropped.
    pub fn new(threads: usize) -> Self {
        Self {
            registry: IndexRegistry::new(),
            executor: BatchExecutor::new(threads),
            metrics: EngineMetrics::new(),
        }
    }

    /// Cold-starts an engine from a `p2h-store` snapshot directory: every index named
    /// in the store's manifest is loaded (no rebuilding) and registered, and the
    /// executor uses `threads` long-lived workers (`0` = one per available CPU), as
    /// in [`Engine::new`].
    ///
    /// # Errors
    ///
    /// Propagates any [`p2h_store::StoreError`] from
    /// [`IndexRegistry::open_dir`] — missing directory/manifest or corrupt snapshots.
    pub fn from_store(
        dir: impl AsRef<std::path::Path>,
        threads: usize,
    ) -> std::result::Result<Self, p2h_store::StoreError> {
        Ok(Self {
            registry: IndexRegistry::open_dir(dir)?,
            executor: BatchExecutor::new(threads),
            metrics: EngineMetrics::new(),
        })
    }

    /// [`Engine::from_store`] with an explicit [`p2h_store::LoadMode`]:
    /// `LoadMode::Mmap` cold-starts by memory-mapping the snapshot files and serving
    /// the index arrays zero-copy out of the mappings (bit-identical answers, near-free
    /// startup, bytes shared between processes via the page cache). The default
    /// [`Engine::from_store`] resolves the mode from the `P2H_STORE_MMAP` environment
    /// variable.
    pub fn from_store_with(
        dir: impl AsRef<std::path::Path>,
        threads: usize,
        mode: p2h_store::LoadMode,
    ) -> std::result::Result<Self, p2h_store::StoreError> {
        Ok(Self {
            registry: IndexRegistry::open_dir_with(dir, mode)?,
            executor: BatchExecutor::new(threads),
            metrics: EngineMetrics::new(),
        })
    }

    /// The index registry (register/lookup/remove indexes here).
    pub fn registry(&self) -> &IndexRegistry {
        &self.registry
    }

    /// The batch executor.
    pub fn executor(&self) -> &BatchExecutor {
        &self.executor
    }

    /// A point-in-time snapshot of the process-wide metrics registry — every series
    /// this engine (and the store layer) has recorded, ready for programmatic
    /// inspection.
    pub fn metrics_snapshot(&self) -> p2h_obs::MetricsSnapshot {
        p2h_obs::global().snapshot()
    }

    /// The process-wide metrics in Prometheus text exposition format: per-index
    /// query-latency histograms (p50/p95/p99 derivable from the log buckets),
    /// per-shard latency, `SearchStats`-derived counters, and store load-stage
    /// timings. See `docs/OBSERVABILITY.md` for the metric catalog.
    pub fn render_metrics(&self) -> String {
        p2h_obs::global().render_text()
    }

    /// Serves a batch against the entry registered under `index_name`, of any kind,
    /// and reports the path taken as [`BatchResponse::path`]:
    ///
    /// * plain indexes run query-parallel on the batch executor;
    /// * sharded indexes fan small batches (fewer than `2 × shards` queries) out
    ///   across shards, which cuts tail latency when workers would otherwise idle —
    ///   *unless* the observed per-shard p99s (`p2h_shard_latency_ns`) say one shard
    ///   is a ≥4× straggler, in which case fan-out would gate every query on it and
    ///   query-parallel wins. Large batches always go query-parallel (every worker
    ///   stays busy without fan-out/merge overhead);
    /// * live indexes run query-parallel through the same executor loop; each query
    ///   holds the live tier's read lock for its own search only.
    ///
    /// Answers are **bit-identical** whichever path is taken.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if no index is registered under
    /// `index_name` or an override targets a position outside the batch (a silent
    /// no-op otherwise — almost certainly an off-by-one at the call site), and
    /// [`Error::DimensionMismatch`] if any query's dimension differs from the index's
    /// augmented dimension (checked up front, so a bad query cannot panic a worker
    /// thread mid-batch).
    pub fn serve(&self, index_name: &str, request: &BatchRequest) -> Result<BatchResponse> {
        let entry =
            self.registry.entry(index_name).ok_or_else(|| not_registered("", index_name))?;
        Ok(self.serve_entry(index_name, &entry, request, false)?.batch)
    }

    /// The shard-vs-query parallelism call for a sharded entry in [`Engine::serve`].
    fn prefer_shard_parallel(&self, index_name: &str, shards: usize, batch: usize) -> bool {
        if batch >= shards.saturating_mul(2).max(2) {
            return false; // enough queries to saturate workers without fan-out
        }
        match self.metrics.shard_latency_p99s(index_name, DISPATCH_MIN_SHARD_SAMPLES) {
            Some(p99s) if !p99s.is_empty() => {
                let mut sorted = p99s;
                sorted.sort_unstable();
                let median = sorted[sorted.len() / 2].max(1);
                let slowest = *sorted.last().expect("non-empty");
                // A heavy straggler shard gates every fanned-out query on itself.
                slowest < median.saturating_mul(4)
            }
            // No (or not enough) observations yet: default to fan-out for small
            // batches — the static half of the heuristic.
            _ => true,
        }
    }

    /// Serves a batch against the *sharded* index registered under `index_name`,
    /// always fanning each query across its shards (the forced form of the
    /// shard-parallel path [`Engine::serve`] picks for small batches) and returning
    /// per-shard latency and work statistics alongside the merged per-query results.
    ///
    /// The merged results are bit-identical to [`Engine::serve`] on the same name —
    /// only the parallelism shape (across shards vs across queries) and the telemetry
    /// differ, so callers can switch between the two paths freely.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if no *sharded* index is registered under
    /// `index_name` and the same validation errors as [`Engine::serve`].
    pub fn serve_sharded(
        &self,
        index_name: &str,
        request: &BatchRequest,
    ) -> Result<ShardedBatchResponse> {
        match self.registry.entry(index_name) {
            Some(entry @ Entry::Sharded(_)) => self.serve_entry(index_name, &entry, request, true),
            _ => Err(not_registered("sharded ", index_name)),
        }
    }

    /// Validate → plan trace → execute → record metrics → write traces, once for
    /// every entry kind. `fan_out` forces sharded entries onto the shard-parallel
    /// path; otherwise [`Engine::prefer_shard_parallel`] decides.
    fn serve_entry(
        &self,
        name: &str,
        entry: &Entry,
        request: &BatchRequest,
        fan_out: bool,
    ) -> Result<ShardedBatchResponse> {
        validate_request(entry.dim(), request)?;
        let trace = plan_trace(request);
        let effective = trace.as_ref().map_or(request, |plan| &plan.request);
        let unsharded = |batch| ShardedBatchResponse {
            batch,
            per_shard_latency: Vec::new(),
            per_shard_stats: Vec::new(),
        };
        let response = match entry {
            Entry::Sharded(index)
                if fan_out
                    || self.prefer_shard_parallel(name, index.shard_count(), request.len()) =>
            {
                self.executor.execute_sharded(index, effective)
            }
            Entry::Sharded(index) => unsharded(self.executor.execute(index.as_ref(), effective)),
            Entry::Plain(index) => unsharded(self.executor.execute(index.as_ref(), effective)),
            Entry::Live(index) => unsharded(self.executor.execute_live(index, effective)?),
        };
        self.metrics.record(name, &response);
        if let Some(plan) = &trace {
            let batch = &response.batch;
            let path = match batch.path {
                ServePath::QueryParallel => "batch",
                ServePath::ShardParallel => "sharded",
                ServePath::Live => "live",
            };
            write_traces(plan, name, path, &batch.results, &batch.latencies_ns);
        }
        Ok(response)
    }

    /// Registers a live (mutable) index under `name` and returns the shared handle —
    /// shorthand for [`IndexRegistry::register_live`].
    pub fn register_live(&self, name: impl Into<String>, index: LiveIndex) -> Arc<LiveIndex> {
        self.registry.register_live(name, index)
    }

    /// The live index registered under `name`, for direct mutation
    /// (insert/delete/compact) alongside serving.
    pub fn live(&self, name: &str) -> Option<Arc<LiveIndex>> {
        self.registry.get_live(name)
    }

    /// Inserts `rows` (raw, unaugmented points) into the live index registered under
    /// `index_name`, returning the assigned ids. Durable (WAL-fsynced) on return.
    ///
    /// # Errors
    ///
    /// `InvalidParameter` when no live index holds that name; otherwise whatever
    /// [`LiveIndex::insert_batch`] returns (dimension mismatch, WAL I/O failure).
    pub fn live_insert(
        &self,
        index_name: &str,
        rows: &[Vec<Scalar>],
    ) -> std::result::Result<Vec<u32>, LiveError> {
        self.live_handle(index_name)?.insert_batch(rows)
    }

    /// Deletes the point with global id `id` from the live index registered under
    /// `index_name`. Durable (WAL-fsynced) on return.
    ///
    /// # Errors
    ///
    /// `InvalidParameter` when no live index holds that name;
    /// [`LiveError::NotFound`] when `id` is not live; WAL I/O failures.
    pub fn live_delete(&self, index_name: &str, id: u32) -> std::result::Result<(), LiveError> {
        self.live_handle(index_name)?.delete(id)
    }

    fn live_handle(&self, index_name: &str) -> std::result::Result<Arc<LiveIndex>, LiveError> {
        self.registry
            .get_live(index_name)
            .ok_or_else(|| LiveError::Core(not_registered("live ", index_name)))
    }

    /// Serves a batch against the *live* index registered under `index_name` —
    /// [`Engine::serve`] restricted to live entries. Answers are bit-identical to a
    /// full rebuild containing the same live points.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if no live index is registered under
    /// `index_name` and the same validation errors as [`Engine::serve`].
    pub fn serve_live(&self, index_name: &str, request: &BatchRequest) -> Result<BatchResponse> {
        match self.registry.entry(index_name) {
            Some(entry @ Entry::Live(_)) => {
                Ok(self.serve_entry(index_name, &entry, request, false)?.batch)
            }
            _ => Err(not_registered("live ", index_name)),
        }
    }
}

/// The typed error for a name that holds no entry of the wanted kind (`kind` is
/// `""`, `"sharded "` or `"live "`).
fn not_registered(kind: &str, index_name: &str) -> Error {
    Error::InvalidParameter {
        name: "index_name",
        message: format!("no {kind}index registered under `{index_name}`"),
    }
}

/// The sink plus everything execution needs when at least one query of a batch is
/// sampled: the rewritten request (sampled queries get `collect_timing`) and the
/// sampled `(position, trace sequence number)` pairs.
pub(crate) struct TracePlan {
    sink: &'static TraceSink,
    pub(crate) request: BatchRequest,
    sampled: Vec<(usize, u64)>,
}

/// Decides up front which queries of this batch are sampled for tracing. Returns
/// `None` (and touches nothing) when tracing is disabled or no query won the sampling
/// draw; otherwise returns a copy of the request whose sampled queries have
/// `collect_timing` enabled — clock reads only, answers unchanged.
pub(crate) fn plan_trace(request: &BatchRequest) -> Option<TracePlan> {
    let sink = from_env()?;
    let sampled: Vec<(usize, u64)> =
        (0..request.queries.len()).filter_map(|i| sink.sample().map(|seq| (i, seq))).collect();
    if sampled.is_empty() {
        return None;
    }
    let mut traced = request.clone();
    for &(position, _) in &sampled {
        let mut params = request.params_for(position).clone();
        params.collect_timing = true;
        traced.overrides.push((position, params));
    }
    Some(TracePlan { sink, request: traced, sampled })
}

/// Writes one JSON-line span per sampled query of a completed batch.
pub(crate) fn write_traces(
    plan: &TracePlan,
    index: &str,
    path: &str,
    results: &[SearchResult],
    latencies_ns: &[u64],
) {
    for &(position, seq) in &plan.sampled {
        let params = plan.request.params_for(position);
        let stats = &results[position].stats;
        let latency_ns = latencies_ns[position];
        let attributed = stats
            .time_bounds_ns
            .saturating_add(stats.time_verify_ns)
            .saturating_add(stats.time_lookup_ns)
            .saturating_add(stats.time_merge_ns);
        plan.sink.write(&QueryTrace {
            seq,
            index,
            path,
            query: position,
            k: params.k as u64,
            candidate_limit: params.candidate_limit.map(|c| c as u64),
            latency_ns,
            stage_bounds_ns: stats.time_bounds_ns,
            stage_verify_ns: stats.time_verify_ns,
            stage_lookup_ns: stats.time_lookup_ns,
            stage_merge_ns: stats.time_merge_ns,
            stage_other_ns: latency_ns.saturating_sub(attributed),
            nodes_visited: stats.nodes_visited,
            candidates_verified: stats.candidates_verified,
            pruned_subtrees: stats.pruned_subtrees,
            result_len: results[position].neighbors.len() as u64,
        });
    }
}

/// Up-front request validation shared by every serving path: dimension mismatches and
/// out-of-range overrides are errors, not worker-thread panics or silent no-ops.
fn validate_request(dim: usize, request: &BatchRequest) -> Result<()> {
    for query in &request.queries {
        if query.dim() != dim {
            return Err(Error::DimensionMismatch { expected: dim, actual: query.dim() });
        }
    }
    for &(position, _) in &request.overrides {
        if position >= request.queries.len() {
            return Err(Error::InvalidParameter {
                name: "overrides",
                message: format!(
                    "override targets position {position} but the batch has {} queries",
                    request.queries.len()
                ),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::{HyperplaneQuery, LinearScan, PointSet, Scalar, SearchParams};

    fn engine_with_scan() -> Engine {
        let rows: Vec<Vec<Scalar>> =
            (0..100).map(|i| vec![i as Scalar * 0.1, (i % 5) as Scalar]).collect();
        let engine = Engine::new(2);
        engine.registry().register("scan", LinearScan::new(PointSet::augment(&rows).unwrap()));
        engine
    }

    #[test]
    fn serves_registered_indexes() {
        let engine = engine_with_scan();
        let queries = vec![HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], -2.0).unwrap()];
        let request = BatchRequest::new(queries, SearchParams::exact(3));
        let response = engine.serve("scan", &request).unwrap();
        assert_eq!(response.results.len(), 1);
        assert_eq!(response.results[0].neighbors.len(), 3);
    }

    #[test]
    fn unknown_index_is_an_error() {
        let engine = engine_with_scan();
        let request = BatchRequest::new(Vec::new(), SearchParams::exact(1));
        assert!(matches!(
            engine.serve("nope", &request),
            Err(Error::InvalidParameter { name: "index_name", .. })
        ));
    }

    #[test]
    fn out_of_range_override_is_an_error_not_a_silent_noop() {
        let engine = engine_with_scan();
        let queries = vec![HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], -2.0).unwrap()];
        let request = BatchRequest::new(queries, SearchParams::exact(3))
            .with_override(1, SearchParams::approximate(3, 10));
        assert!(matches!(
            engine.serve("scan", &request),
            Err(Error::InvalidParameter { name: "overrides", .. })
        ));
    }

    #[test]
    fn dimension_mismatch_is_an_error_not_a_panic() {
        let engine = engine_with_scan();
        let wrong_dim = vec![HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0, 0.0], 0.0).unwrap()];
        let request = BatchRequest::new(wrong_dim, SearchParams::exact(1));
        assert!(matches!(
            engine.serve("scan", &request),
            Err(Error::DimensionMismatch { expected: 3, actual: 4 })
        ));
    }

    #[test]
    fn serve_dispatches_by_entry_kind_and_stays_bit_identical() {
        use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
        let engine = engine_with_scan();
        let rows: Vec<Vec<Scalar>> =
            (0..100).map(|i| vec![i as Scalar * 0.1, (i % 5) as Scalar]).collect();
        let sharded = ShardedIndexBuilder::new(
            Partitioner::Contiguous { shards: 2 },
            ShardIndexKind::LinearScan,
        )
        .build(&PointSet::augment(&rows).unwrap())
        .unwrap();
        engine.registry().register_sharded("sh", sharded);

        let make_request = |n: usize| {
            let queries: Vec<HyperplaneQuery> = (0..n)
                .map(|i| {
                    HyperplaneQuery::from_normal_and_bias(&[1.0, i as Scalar * 0.3], -2.0).unwrap()
                })
                .collect();
            BatchRequest::new(queries, SearchParams::exact(4))
        };
        // The reference: the query-parallel executor on the trait-object handle.
        let assert_same = |name: &str, served: &BatchResponse, request: &BatchRequest| {
            let index = engine.registry().get(name).unwrap();
            let reference = engine.executor().execute(index.as_ref(), request);
            assert_eq!(served.results.len(), reference.results.len());
            for (x, y) in served.results.iter().zip(&reference.results) {
                let xb: Vec<(usize, u32)> =
                    x.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect();
                let yb: Vec<(usize, u32)> =
                    y.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect();
                assert_eq!(xb, yb);
            }
        };

        // Plain index: the only path is query-parallel.
        let request = make_request(3);
        let served = engine.serve("scan", &request).unwrap();
        assert_eq!(served.path, ServePath::QueryParallel);
        assert_same("scan", &served, &request);

        // Sharded, small batch (< 2×shards): fan-out across shards.
        let small = make_request(2);
        let served = engine.serve("sh", &small).unwrap();
        assert_eq!(served.path, ServePath::ShardParallel);
        assert_same("sh", &served, &small);

        // Sharded, large batch: query-parallel wins.
        let large = make_request(16);
        let served = engine.serve("sh", &large).unwrap();
        assert_eq!(served.path, ServePath::QueryParallel);
        assert_same("sh", &served, &large);

        // The forced fan-out path answers the same, with per-shard telemetry.
        let fanned = engine.serve_sharded("sh", &large).unwrap();
        assert_eq!(fanned.batch.path, ServePath::ShardParallel);
        assert_eq!(fanned.per_shard_latency.len(), 2);
        assert_same("sh", &fanned.batch, &large);

        // Unknown names and wrong kinds are typed errors.
        for outcome in [
            engine.serve("nope", &small).map(drop),
            engine.serve_sharded("scan", &small).map(drop),
            engine.serve_live("sh", &small).map(drop),
        ] {
            assert!(matches!(outcome, Err(Error::InvalidParameter { name: "index_name", .. })));
        }
    }

    #[test]
    fn serving_populates_the_exposition_dump() {
        let engine = engine_with_scan();
        let queries: Vec<HyperplaneQuery> = (0..6)
            .map(|i| {
                HyperplaneQuery::from_normal_and_bias(&[1.0, i as Scalar * 0.2], -2.0).unwrap()
            })
            .collect();
        let request = BatchRequest::new(queries, SearchParams::exact(2));
        engine.serve("scan", &request).unwrap();

        let snapshot = engine.metrics_snapshot();
        let labels: &[(&str, &str)] = &[("index", "scan")];
        assert!(snapshot.series("p2h_queries_total", labels).unwrap().value.scalar() >= 6);
        let text = engine.render_metrics();
        assert!(text.contains("p2h_query_latency_ns_bucket{index=\"scan\""));
        assert!(text.contains("p2h_search_candidates_verified_total{index=\"scan\"}"));
    }
}
