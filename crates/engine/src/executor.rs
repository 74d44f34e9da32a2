//! The batch executor: one chunked work-stealing loop behind every serving path
//! (plain, sharded fan-out, live), run by the calling thread and the executor's
//! long-lived helper threads (see [`crate::pool`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use p2h_core::{P2hIndex, QueryScratch, Result, SearchResult, SearchStats};
use p2h_live::LiveIndex;
use p2h_obs::StreamingHistogram;
use p2h_shard::{merge_topk, ShardedIndex};

use crate::batch::{BatchRequest, BatchResponse, ServePath, ShardedBatchResponse};
use crate::pool::Pool;

/// Largest number of tasks a worker claims per cursor bump.
const MAX_CHUNK: usize = 32;

/// Chunk size for dynamic work handout: large enough to amortize the shared-cursor
/// traffic when per-task cost is tiny, small enough (at most [`MAX_CHUNK`], at most
/// ~an eighth of each worker's fair share) that skewed per-task costs still balance.
fn chunk_size(n: usize, workers: usize) -> usize {
    (n / (workers * 8)).clamp(1, MAX_CHUNK)
}

/// Executes query batches over worker threads with deterministic result ordering.
///
/// The workers of a batch are the calling thread plus up to `threads − 1` helper
/// threads that live as long as the executor: they are spawned at its first batch
/// with more than one task and joined when its last clone is dropped. Clones share the
/// helpers, and any number of threads may execute batches on one executor at once;
/// each caller works on its own batch, so every batch makes progress even when all
/// helpers are busy with other callers' batches.
///
/// Work distribution is dynamic: an atomic cursor hands out *chunks* of consecutive
/// task indexes (see [`chunk_size`]) so that workers synchronize once per chunk rather
/// than once per task, which matters when a single search costs only microseconds.
/// A task is one query ([`BatchExecutor::execute`], live batches) or one (shard,
/// query) sub-search ([`BatchExecutor::execute_sharded`]). Results are reassembled in
/// request order and each task is answered independently, so the response's
/// `results` are bit-identical to sequential execution no matter how many threads ran
/// the batch or how the chunks interleaved — only the latency histogram and
/// wall-clock time vary.
///
/// Each worker owns one [`QueryScratch`] for its whole run and answers every task
/// through a scratch-reusing search, so the steady-state per-query path performs no
/// heap allocation beyond each query's k-element result vector (verified by the
/// `allocations` integration test).
#[derive(Clone)]
pub struct BatchExecutor {
    threads: usize,
    pool: Arc<Pool>,
}

impl std::fmt::Debug for BatchExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchExecutor").field("threads", &self.threads).finish_non_exhaustive()
    }
}

impl Default for BatchExecutor {
    fn default() -> Self {
        Self::new(0)
    }
}

impl BatchExecutor {
    /// Creates an executor with the given worker-thread count; `0` means one worker per
    /// available CPU. No thread is spawned until the first multi-worker batch.
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(4, |p| p.get())
        } else {
            threads
        };
        Self { threads, pool: Arc::new(Pool::new(threads - 1)) }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Executes every query of `request` against `index`, in parallel across queries.
    ///
    /// The caller is responsible for dimension validation (see `Engine::serve`); passing
    /// a query whose dimension does not match the index panics, exactly as
    /// [`P2hIndex::search`] does.
    pub fn execute(&self, index: &dyn P2hIndex, request: &BatchRequest) -> BatchResponse {
        let start = Instant::now();
        let outcomes = self.run(request.queries.len(), |i, scratch| {
            index.search_with_scratch(&request.queries[i], request.params_for(i), scratch)
        });
        assemble(outcomes, ServePath::QueryParallel, start)
    }

    /// Fans every query of `request` across every shard of `index` — one (shard,
    /// query) sub-search per task, so several workers cooperate on each query, which
    /// cuts single-query latency when the batch is small relative to the worker count
    /// — and merges the per-shard top-k lists with the total-order [`merge_topk`].
    /// Merged results are bit-identical to [`BatchExecutor::execute`] on the same
    /// index; the response adds per-shard latency and work statistics.
    ///
    /// The caller is responsible for dimension validation (see
    /// `Engine::serve_sharded`); a mismatched query panics, as in
    /// [`BatchExecutor::execute`].
    pub fn execute_sharded(
        &self,
        index: &ShardedIndex,
        request: &BatchRequest,
    ) -> ShardedBatchResponse {
        let start = Instant::now();
        let n_queries = request.queries.len();
        let n_shards = index.shard_count();
        // Task `shard * n_queries + query`: the shard's globally-mapped top-k list
        // (None when the budget split skipped the shard) for that query.
        let mut sub_searches = self
            .run(n_queries * n_shards, |task, scratch| {
                let (shard, query) = (task / n_queries, task % n_queries);
                index.search_shard(
                    shard,
                    &request.queries[query],
                    request.params_for(query),
                    scratch,
                )
            })
            .into_iter();

        // Reassemble: merge each query's shard lists, aggregate per-shard telemetry.
        let mut per_shard_stats = vec![SearchStats::default(); n_shards];
        let mut per_shard_latency = vec![StreamingHistogram::new(); n_shards];
        let mut per_query: Vec<(Vec<_>, SearchStats, u64)> = (0..n_queries)
            .map(|_| (Vec::with_capacity(n_shards), SearchStats::default(), 0))
            .collect();
        for shard in 0..n_shards {
            for (lists, stats, latency_ns) in per_query.iter_mut() {
                let (outcome, sub_latency) = sub_searches.next().expect("one outcome per task");
                *latency_ns += sub_latency;
                if let Some(sub) = outcome {
                    stats.merge(&sub.stats);
                    per_shard_stats[shard].merge(&sub.stats);
                    per_shard_latency[shard].record(sub_latency);
                    lists.push(sub.neighbors);
                }
            }
        }
        let outcomes = per_query
            .into_iter()
            .enumerate()
            .map(|(query, (lists, mut stats, latency_ns))| {
                let merge_start = Instant::now();
                let neighbors = merge_topk(request.params_for(query).k, lists);
                stats.time_merge_ns = merge_start.elapsed().as_nanos() as u64;
                // Report the measured fan-out latency rather than the sum of the
                // shards' self-reported totals (same quantity, one clock); the merge
                // happens after the fan-out, so it adds on top.
                stats.time_total_ns = latency_ns + stats.time_merge_ns;
                (SearchResult { neighbors, stats }, latency_ns)
            })
            .collect();
        ShardedBatchResponse {
            batch: assemble(outcomes, ServePath::ShardParallel, start),
            per_shard_latency,
            per_shard_stats,
        }
    }

    /// Executes every query of `request` against a live index through the same work
    /// loop, in parallel across queries. Each search holds the live tier's read lock
    /// for that query only, so mutations interleave between queries, never inside
    /// one; the first failed query's error is returned.
    pub(crate) fn execute_live(
        &self,
        index: &LiveIndex,
        request: &BatchRequest,
    ) -> Result<BatchResponse> {
        let start = Instant::now();
        let outcomes = self
            .run(request.queries.len(), |i, scratch| {
                index.search_with_scratch(&request.queries[i], request.params_for(i), scratch)
            })
            .into_iter()
            .map(|(result, latency_ns)| Ok((result?, latency_ns)))
            .collect::<Result<Vec<_>>>()?;
        Ok(assemble(outcomes, ServePath::Live, start))
    }
}

impl BatchExecutor {
    /// The work loop behind every execution shape: runs `task(i, scratch)` for every
    /// `i` in `0..tasks` on up to `threads` workers — the calling thread plus the
    /// pool's helpers — each with its own scratch, and returns the outputs in task
    /// order, each with its wall-clock latency in nanoseconds.
    fn run<T: Send>(
        &self,
        tasks: usize,
        task: impl Fn(usize, &mut QueryScratch) -> T + Sync,
    ) -> Vec<(T, u64)> {
        let workers = self.threads.min(tasks).max(1);
        let chunk = chunk_size(tasks, workers);
        let cursor = AtomicUsize::new(0);
        let per_worker = Mutex::new(Vec::with_capacity(workers));
        self.pool.broadcast(workers - 1, &|| {
            let mut scratch = QueryScratch::new();
            let mut local = Vec::with_capacity(tasks / workers + chunk);
            loop {
                let begin = cursor.fetch_add(chunk, Ordering::Relaxed);
                if begin >= tasks {
                    break;
                }
                for i in begin..(begin + chunk).min(tasks) {
                    let task_start = Instant::now();
                    let output = task(i, &mut scratch);
                    local.push((i, (output, task_start.elapsed().as_nanos() as u64)));
                }
            }
            per_worker.lock().unwrap_or_else(PoisonError::into_inner).push(local);
        });

        let mut slots: Vec<Option<(T, u64)>> = (0..tasks).map(|_| None).collect();
        let per_worker = per_worker.into_inner().unwrap_or_else(PoisonError::into_inner);
        for (i, outcome) in per_worker.into_iter().flatten() {
            slots[i] = Some(outcome);
        }
        slots.into_iter().map(|slot| slot.expect("every task was dispatched")).collect()
    }
}

/// Builds the response for per-query `(result, latency)` outcomes in request order.
fn assemble(outcomes: Vec<(SearchResult, u64)>, path: ServePath, start: Instant) -> BatchResponse {
    let mut results = Vec::with_capacity(outcomes.len());
    let mut latencies_ns = Vec::with_capacity(outcomes.len());
    let mut latency = StreamingHistogram::new();
    let mut total_stats = SearchStats::default();
    for (result, latency_ns) in outcomes {
        total_stats.merge(&result.stats);
        latency.record(latency_ns);
        latencies_ns.push(latency_ns);
        results.push(result);
    }
    BatchResponse {
        results,
        latencies_ns,
        total_stats,
        latency,
        wall_time_ns: start.elapsed().as_nanos() as u64,
        path,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::{HyperplaneQuery, LinearScan, PointSet, Scalar, SearchParams};
    use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};

    fn setup(n: usize) -> (LinearScan, Vec<HyperplaneQuery>) {
        let rows: Vec<Vec<Scalar>> = (0..n)
            .map(|i| vec![(i % 31) as Scalar * 0.7 - 10.0, (i % 17) as Scalar * 0.3])
            .collect();
        let points = PointSet::augment(&rows).unwrap();
        let queries = (0..24)
            .map(|i| {
                HyperplaneQuery::from_normal_and_bias(
                    &[1.0, (i as Scalar * 0.37).sin()],
                    -(i as Scalar * 0.5) + 3.0,
                )
                .unwrap()
            })
            .collect();
        (LinearScan::new(points), queries)
    }

    #[test]
    fn parallel_results_match_sequential_bit_for_bit() {
        let (index, queries) = setup(800);
        let request = BatchRequest::new(queries, SearchParams::exact(7))
            .with_override(3, SearchParams::approximate(7, 50))
            .with_override(11, SearchParams::exact(2));
        let sequential = BatchExecutor::new(1).execute(&index, &request);
        for threads in [2, 4, 8] {
            let parallel = BatchExecutor::new(threads).execute(&index, &request);
            assert_eq!(parallel.results.len(), sequential.results.len());
            for (p, s) in parallel.results.iter().zip(sequential.results.iter()) {
                assert_eq!(p.neighbors, s.neighbors, "threads={threads}");
            }
        }
    }

    #[test]
    fn chunked_handout_covers_every_query_exactly_once() {
        // More queries than workers * chunk so several cursor rounds happen; the
        // reassembly would hit a `None` slot (and panic) if any index were skipped, and
        // duplicated indexes would leave another slot `None`.
        let (index, mut queries) = setup(120);
        while queries.len() < 150 {
            let q = queries[queries.len() % 24].clone();
            queries.push(q);
        }
        let n = queries.len();
        assert!(n > 4 * chunk_size(n, 4) * 2);
        let request = BatchRequest::new(queries, SearchParams::exact(3));
        let sequential = BatchExecutor::new(1).execute(&index, &request);
        let chunked = BatchExecutor::new(4).execute(&index, &request);
        assert_eq!(chunked.results.len(), n);
        assert_eq!(chunked.latency.count(), n as u64);
        for (p, s) in chunked.results.iter().zip(sequential.results.iter()) {
            assert_eq!(p.neighbors, s.neighbors);
        }
    }

    #[test]
    fn chunk_size_is_bounded_and_positive() {
        assert_eq!(chunk_size(1, 8), 1);
        assert_eq!(chunk_size(0, 4), 1);
        assert_eq!(chunk_size(64, 8), 1);
        assert_eq!(chunk_size(1_000, 4), 31);
        // Huge batches are capped so tail latency stays balanced.
        assert_eq!(chunk_size(1_000_000, 4), MAX_CHUNK);
        for (n, w) in [(10, 3), (100, 7), (5_000, 16), (123_456, 5)] {
            let c = chunk_size(n, w);
            assert!((1..=MAX_CHUNK).contains(&c), "chunk_size({n}, {w}) = {c}");
        }
    }

    #[test]
    fn aggregates_cover_every_query() {
        let (index, queries) = setup(300);
        let n_queries = queries.len();
        let request = BatchRequest::new(queries, SearchParams::exact(3));
        let response = BatchExecutor::new(4).execute(&index, &request);
        assert_eq!(response.results.len(), n_queries);
        assert_eq!(response.latency.count(), n_queries as u64);
        // Linear scan verifies every point for every query.
        assert_eq!(response.total_stats.candidates_verified, (300 * n_queries) as u64);
        assert!(response.wall_time_ns > 0);
        assert!(response.throughput_qps() > 0.0);
    }

    #[test]
    fn empty_batch_is_safe() {
        let (index, _) = setup(10);
        let (sharded, _) = setup_sharded(100, 2);
        let request = BatchRequest::new(Vec::new(), SearchParams::exact(1));
        let executor = BatchExecutor::new(4);
        for response in
            [executor.execute(&index, &request), executor.execute_sharded(&sharded, &request).batch]
        {
            assert!(response.results.is_empty());
            assert_eq!(response.latency.count(), 0);
            assert_eq!(response.throughput_qps(), 0.0);
        }
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        let executor = BatchExecutor::new(0);
        assert!(executor.threads() >= 1);
    }

    fn setup_sharded(n: usize, shards: usize) -> (ShardedIndex, Vec<HyperplaneQuery>) {
        let rows: Vec<Vec<Scalar>> = (0..n)
            .map(|i| vec![(i % 29) as Scalar * 0.9 - 12.0, (i % 13) as Scalar * 0.4])
            .collect();
        let points = PointSet::augment(&rows).unwrap();
        let sharded = ShardedIndexBuilder::new(
            Partitioner::Hash { shards },
            ShardIndexKind::BallTree { leaf_size: 16 },
        )
        .build(&points)
        .unwrap();
        let queries = (0..20)
            .map(|i| {
                HyperplaneQuery::from_normal_and_bias(
                    &[1.0, (i as Scalar * 0.43).cos()],
                    -(i as Scalar * 0.7) + 2.0,
                )
                .unwrap()
            })
            .collect();
        (sharded, queries)
    }

    #[test]
    fn shard_parallel_results_match_the_trait_path_bit_for_bit() {
        let (index, queries) = setup_sharded(700, 4);
        let request = BatchRequest::new(queries, SearchParams::exact(6))
            .with_override(2, SearchParams::approximate(6, 100))
            .with_override(9, SearchParams::exact(1));
        let mut scratch = QueryScratch::new();
        let reference: Vec<SearchResult> = request
            .queries
            .iter()
            .enumerate()
            .map(|(i, q)| index.search_with_scratch(q, request.params_for(i), &mut scratch))
            .collect();
        for threads in [1, 2, 4, 8] {
            let response = BatchExecutor::new(threads).execute_sharded(&index, &request);
            assert_eq!(response.batch.results.len(), reference.len());
            for (got, expected) in response.batch.results.iter().zip(&reference) {
                assert_eq!(got.neighbors, expected.neighbors, "threads={threads}");
            }
        }
    }

    #[test]
    fn per_shard_telemetry_covers_every_sub_search() {
        let (index, queries) = setup_sharded(600, 3);
        let n_queries = queries.len() as u64;
        let request = BatchRequest::new(queries, SearchParams::exact(4));
        let response = BatchExecutor::new(2).execute_sharded(&index, &request);
        assert_eq!(response.per_shard_latency.len(), 3);
        assert_eq!(response.per_shard_stats.len(), 3);
        for shard in 0..3 {
            // Exact search skips no shard: every query touched every shard.
            assert_eq!(response.per_shard_latency[shard].count(), n_queries);
            assert!(response.per_shard_stats[shard].candidates_verified > 0);
        }
        let batch = &response.batch;
        assert_eq!(batch.latency.count(), n_queries);
        assert!(batch.throughput_qps() > 0.0);
        // The shard stats partition the total work.
        let shard_sum: u64 = response.per_shard_stats.iter().map(|s| s.candidates_verified).sum();
        assert_eq!(shard_sum, batch.total_stats.candidates_verified);
        // Merge time is measured per query (not by the shards) and aggregates.
        let merge_sum: u64 = batch.results.iter().map(|r| r.stats.time_merge_ns).sum();
        assert_eq!(batch.total_stats.time_merge_ns, merge_sum);
        for (result, &latency_ns) in batch.results.iter().zip(&batch.latencies_ns) {
            assert_eq!(result.stats.time_total_ns, latency_ns + result.stats.time_merge_ns);
        }
    }

    #[test]
    fn budget_skipped_shards_record_no_latency_samples() {
        let (index, queries) = setup_sharded(500, 4);
        let n_queries = queries.len() as u64;
        // A budget of 1 reaches only the shard holding global id 0.
        let request = BatchRequest::new(queries, SearchParams::approximate(1, 1));
        let response = BatchExecutor::new(2).execute_sharded(&index, &request);
        let sampled: u64 = response.per_shard_latency.iter().map(|h| h.count()).sum();
        assert_eq!(sampled, n_queries, "only one shard may run per query");
        assert_eq!(response.batch.total_stats.candidates_verified, n_queries);
    }

    /// Runs two one-task chunks that wait for each other, so one runs on the caller
    /// and one on a helper; `on_caller` / `on_helper` then run on the respective
    /// thread.
    fn run_on_caller_and_helper(
        executor: &BatchExecutor,
        on_caller: impl Fn() + Sync,
        on_helper: impl Fn() + Sync,
    ) {
        assert_eq!(chunk_size(2, 2), 1);
        let caller = std::thread::current().id();
        let both_started = std::sync::Barrier::new(2);
        executor.run(2, |_, _| {
            both_started.wait();
            if std::thread::current().id() == caller {
                on_caller()
            } else {
                on_helper()
            }
        });
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_and_the_pool_keeps_serving() {
        let executor = BatchExecutor::new(2);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_on_caller_and_helper(&executor, || {}, || panic!("task failed on a helper"))
        }));
        let payload = outcome.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"batch worker thread panicked"));

        // The helper survived its task's panic: the next batches (which need it to
        // meet the caller at the barrier) and real searches still run correctly.
        run_on_caller_and_helper(&executor, || {}, || {});
        let (index, queries) = setup(400);
        let request = BatchRequest::new(queries, SearchParams::exact(5));
        let sequential = BatchExecutor::new(1).execute(&index, &request);
        let parallel = executor.execute(&index, &request);
        for (p, s) in parallel.results.iter().zip(&sequential.results) {
            assert_eq!(p.neighbors, s.neighbors);
        }
    }

    #[test]
    fn a_caller_panic_waits_for_the_claimed_helper_before_unwinding() {
        let executor = BatchExecutor::new(2);
        let helper_finished = AtomicUsize::new(0);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_on_caller_and_helper(
                &executor,
                || panic!("task failed on the caller"),
                || {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    helper_finished.fetch_add(1, Ordering::SeqCst);
                },
            )
        }));
        let payload = outcome.expect_err("the caller's own panic propagates");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task failed on the caller"));
        // The borrowed task closure was still in use on the helper when the caller
        // panicked; the unwind waited for it.
        assert_eq!(helper_finished.load(Ordering::SeqCst), 1);
        run_on_caller_and_helper(&executor, || {}, || {});
    }

    #[test]
    fn clones_share_one_pool() {
        let executor = BatchExecutor::new(3);
        let clone = executor.clone();
        assert!(Arc::ptr_eq(&executor.pool, &clone.pool));
        assert_eq!(clone.threads(), 3);
        assert_eq!(format!("{clone:?}"), "BatchExecutor { threads: 3, .. }");
    }

    #[test]
    fn live_execution_returns_search_errors_instead_of_panicking() {
        let dir =
            std::env::temp_dir().join(format!("p2h-engine-executor-live-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = p2h_store::Store::create(&dir).unwrap();
        let live = LiveIndex::create(&store, "live", 3).unwrap();
        let rows: Vec<Vec<Scalar>> = (0..50).map(|i| vec![i as Scalar * 0.1, 1.0]).collect();
        live.insert_batch(&rows).unwrap();
        let (_, mut queries) = setup(10);
        // One query of the wrong dimension, mid-batch: a typed error, not a worker panic.
        queries[7] = HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0, 0.0], 0.0).unwrap();
        let request = BatchRequest::new(queries, SearchParams::exact(3));
        assert!(matches!(
            BatchExecutor::new(2).execute_live(&live, &request),
            Err(p2h_core::Error::DimensionMismatch { expected: 3, actual: 4 })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
