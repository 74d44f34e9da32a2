//! `search-batch`: one driver thread sends fixed-size batches of approximate
//! data-difference queries back to back to `Engine::serve` on a BC-Tree built with
//! `build_parallel`, with one executor worker per CPU.

use std::sync::Arc;
use std::time::{Duration, Instant};

use p2h_balltree::DEFAULT_LEAF_SIZE;
use p2h_core::{LinearScan, P2hIndex, SearchParams, SearchStats};
use p2h_engine::{BallTreeBuilder, BatchRequest, BcTreeBuilder, Engine};

use crate::check;
use crate::config::*;
use crate::inputs::{self, QueryInputs};
use crate::layers;
use crate::report::Outcome;
use crate::stats::{median, Summary};
use crate::trace::{Span, Tracer};
use crate::Ctx;

const INDEX: &str = "search-batch";

/// What one closed loop measured.
struct Loop {
    queries: usize,
    /// `(seconds since start, queries)` per completed batch.
    done: Vec<(f64, f64)>,
    batch_ms: Vec<f64>,
    busy: Vec<f64>,
    overhead_us: Vec<f64>,
}

impl Loop {
    /// Median of the per-second query rates.
    fn qps(&self) -> f64 {
        crate::stats::windowed_rate(&self.done, 1.0)
    }
}

/// Serves `batches` round-robin until `duration` has passed.
fn closed_loop(
    engine: &Engine,
    batches: &[BatchRequest],
    duration: Duration,
    tracer: &Tracer,
) -> Result<Loop, String> {
    let threads = engine.executor().threads() as f64;
    let mut out = Loop {
        queries: 0,
        done: Vec::new(),
        batch_ms: Vec::new(),
        busy: Vec::new(),
        overhead_us: Vec::new(),
    };
    let start = Instant::now();
    let mut b = 0usize;
    while start.elapsed() < duration {
        let batch = &batches[b % batches.len()];
        let parent = tracer.open();
        let begin_ns = tracer.now_ns();
        let sent = Instant::now();
        let response = tracer
            .span("p2h_engine::Engine::serve", parent, b as u64, || engine.serve(INDEX, batch))
            .map_err(|e| format!("batch {b}: {e}"))?;
        out.batch_ms.push(sent.elapsed().as_secs_f64() * 1e3);
        tracer.record(Span {
            id: parent,
            parent: 0,
            name: "search-batch.batch",
            request: b as u64,
            start_ns: begin_ns,
            end_ns: tracer.now_ns(),
        });
        let work_ns: u64 = response.latencies_ns.iter().sum();
        let wall = response.wall_time_ns.max(1) as f64;
        out.busy.push(work_ns as f64 / (threads * wall));
        out.overhead_us.push((wall - work_ns as f64 / threads) / 1e3);
        out.queries += batch.len();
        out.done.push((start.elapsed().as_secs_f64(), batch.len() as f64));
        b += 1;
    }
    Ok(out)
}

/// One pass over the pool: summed stats and mean recall.
fn pool_pass(
    engine: &Engine,
    name: &str,
    batches: &[BatchRequest],
    inputs: &QueryInputs,
) -> Result<(SearchStats, f64, f64), String> {
    let mut total = SearchStats::default();
    let mut recall = 0.0;
    let mut query_ns = 0u64;
    let mut at = 0;
    for batch in batches {
        let response = engine.serve(name, batch).map_err(|e| e.to_string())?;
        for result in &response.results {
            if result.neighbors.len() != K {
                return Err(format!(
                    "query {at}: {} neighbors, expected {K}",
                    result.neighbors.len()
                ));
            }
            recall += check::recall(result, &inputs.truth[at]);
            at += 1;
        }
        total.merge(&response.total_stats);
        query_ns += response.latencies_ns.iter().sum::<u64>();
    }
    Ok((total, recall / at as f64, query_ns as f64 / 1e3 / at as f64))
}

fn batches(inputs: &QueryInputs, params: &SearchParams) -> Vec<BatchRequest> {
    inputs.queries.chunks(SB_BATCH).map(|c| BatchRequest::new(c.to_vec(), params.clone())).collect()
}

/// Runs the workload.
///
/// # Errors
///
/// A failed output check or a serving error.
pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let inputs = inputs::load_query_inputs(&ctx.work, "search-batch", ctx.seed)?;
    let nproc = ctx.nproc;

    // The exact oracle for the bit-for-bit subset (untimed).
    let check_queries = &inputs.queries[..SB_EXACT_CHECK];
    let oracle: Vec<_> = {
        let scan = LinearScan::new(inputs.points.clone());
        check_queries.iter().map(|q| scan.search_exact(q, K)).collect()
    };

    // Set-up: the parallel build, repeated; the last tree is served.
    let mut setup_s = Vec::with_capacity(SB_SETUP_REPEATS);
    let mut tree = None;
    for repeat in 0..SB_SETUP_REPEATS {
        drop(tree.take());
        let (secs, built) = layers::timed(|| {
            ctx.tracer.span("p2h_bctree::BcTreeBuilder::build_parallel", 0, repeat as u64, || {
                BcTreeBuilder::new(DEFAULT_LEAF_SIZE)
                    .with_seed(ctx.seed)
                    .build_parallel(&inputs.points, nproc)
            })
        });
        tree = Some(built.map_err(|e| format!("build: {e}"))?);
        setup_s.push(secs);
    }
    let engine = Engine::new(nproc);
    let shared = engine.registry().register(INDEX, tree.expect("built at least once"));

    let exact = engine
        .serve(INDEX, &BatchRequest::new(check_queries.to_vec(), SearchParams::exact(K)))
        .map_err(|e| e.to_string())?;
    for (i, (got, want)) in exact.results.iter().zip(&oracle).enumerate() {
        check::same_bits(got, want, &format!("exact query {i} vs LinearScan"))?;
    }

    let params = SearchParams::approximate(K, SB_BUDGET);
    let pool = batches(&inputs, &params);
    let (first_pass, recall, _) = pool_pass(&engine, INDEX, &pool, &inputs)?;

    let mut outcome = Outcome::default();
    let m = &mut outcome.metrics;
    let duration = Duration::from_secs_f64(ctx.seconds);
    let main = if ctx.tracer.enabled() {
        // Half untraced, half traced: the traced half's figures are this run's own
        // end-to-end numbers, and the pair gives the tracing overhead.
        let plain = closed_loop(&engine, &pool, duration / 2, &Tracer::new(false))?;
        let traced = closed_loop(&engine, &pool, duration / 2, ctx.tracer)?;
        m.set("obs.trace_overhead_share", layers::overhead_share(plain.qps(), traced.qps()));
        m.set("engine.scaling", {
            let single = Engine::new(1);
            single.registry().register_shared(INDEX, Arc::clone(&shared));
            let one = closed_loop(&single, &pool, Duration::from_secs(2), &Tracer::new(false))?;
            plain.qps() / one.qps()
        });
        traced
    } else {
        closed_loop(&engine, &pool, duration, ctx.tracer)?
    };
    let batch = Summary::of(&main.batch_ms).ok_or("too few batches for a median")?;
    outcome.attempted = main.queries as u64;
    let m = &mut outcome.metrics;
    m.set("setup_s", median(&setup_s));
    m.set("qps", main.qps());
    m.set("p50_ms", batch.p50);
    m.set("recall_at_10", recall);
    m.set("peak_rss_mb", crate::env::peak_rss_mb("self").unwrap_or(0.0));
    m.set("batch_p50_ms", batch.p50);
    m.set("batch_p99_ms", batch.tail);
    m.set("failed_share", 0.0);
    ctx.note(format!("search-batch batch latency: {}", batch.describe("ms")));
    ctx.note(format!("search-batch setup builds: {setup_s:?} s"));

    if ctx.tracer.enabled() {
        layers::record_tree(m, &first_pass, inputs.queries.len());
        m.set("engine.busy_share", crate::stats::mean(&main.busy));
        m.set("engine.overhead_us_per_batch", crate::stats::mean(&main.overhead_us));
        let timing_params = params.clone().with_timing();
        let (plain_s, _) = layers::timed(|| pool_pass(&engine, INDEX, &pool, &inputs));
        let (timed_s, timed) =
            layers::timed(|| pool_pass(&engine, INDEX, &batches(&inputs, &timing_params), &inputs));
        let (timed_stats, _, _) = timed?;
        layers::record_timing(m, &timed_stats, inputs.queries.len());
        m.set("obs.timing_overhead_share", layers::overhead_share(1.0 / plain_s, 1.0 / timed_s));
        layers::kernel_probe(m, &inputs.points, &inputs.queries[..64], 65_536);

        // The paper's comparison: Ball-Tree on the same data at the same budget.
        let ball = BallTreeBuilder::new(DEFAULT_LEAF_SIZE)
            .with_seed(ctx.seed)
            .build_parallel(&inputs.points, nproc)
            .map_err(|e| format!("ball build: {e}"))?;
        engine.registry().register("ball", ball);
        let (_, ball_recall, ball_us) = pool_pass(&engine, "ball", &pool, &inputs)?;
        m.set("balltree.query_us", ball_us);
        m.set("balltree.recall_at_10", ball_recall);
        let (_, _, bc_us) = pool_pass(&engine, INDEX, &pool, &inputs)?;
        ctx.note(format!("search-batch per-query us: bctree {bc_us:.2} balltree {ball_us:.2}"));
    }
    Ok(outcome)
}
