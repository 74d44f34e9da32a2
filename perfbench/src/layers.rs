//! Per-layer probes shared by the workloads.

use std::time::Instant;

use p2h_core::{kernels, HyperplaneQuery, PointSet, Scalar, SearchStats};

use crate::config::K;
use crate::report::Metrics;

/// Times `kernels::abs_dot_block` over the workload's own rows: every query in
/// `queries` against the first `rows` points, in cache-sized strips. Records
/// `core.abs_dot_block_ns_per_row` and `core.gbytes_per_s` (bytes of rows read).
pub fn kernel_probe(
    metrics: &mut Metrics,
    points: &PointSet,
    queries: &[HyperplaneQuery],
    rows: usize,
) {
    const STRIP: usize = 256;
    let dim = points.dim();
    let rows = rows.min(points.len());
    let mut out = vec![0.0 as Scalar; STRIP];
    let mut sink = 0.0 as Scalar;
    let start = Instant::now();
    for q in queries {
        let mut at = 0;
        while at < rows {
            let end = (at + STRIP).min(rows);
            let out = &mut out[..end - at];
            kernels::abs_dot_block(q.coeffs(), points.flat_range(at, end), dim, out);
            sink += out[0];
            at = end;
        }
    }
    let ns = start.elapsed().as_nanos() as f64;
    std::hint::black_box(sink);
    let row_visits = (queries.len() * rows) as f64;
    metrics.set("core.abs_dot_block_ns_per_row", ns / row_visits);
    metrics.set("core.gbytes_per_s", row_visits * (dim * 4) as f64 / ns);
}

/// Records the per-query tree counters from the summed stats of `queries` searches.
pub fn record_tree(metrics: &mut Metrics, total: &SearchStats, queries: usize) {
    let per = |v: u64| v as f64 / queries.max(1) as f64;
    metrics.set("tree.inner_products", per(total.inner_products));
    metrics.set("tree.nodes_visited", per(total.nodes_visited));
    metrics.set("tree.leaves_visited", per(total.leaves_visited));
    metrics.set("tree.candidates_verified", per(total.candidates_verified));
    metrics.set("tree.pruned_subtrees", per(total.pruned_subtrees));
    metrics.set("tree.pruned_by_ball", per(total.pruned_by_ball_bound));
    metrics.set("tree.pruned_by_cone", per(total.pruned_by_cone_bound));
    let verified = per(total.candidates_verified);
    metrics.set("tree.useful_ratio", if verified > 0.0 { K as f64 / verified } else { 0.0 });
}

/// Records the per-query phase split from stats collected with `collect_timing`.
pub fn record_timing(metrics: &mut Metrics, timed: &SearchStats, queries: usize) {
    let us = |ns: u64| ns as f64 / 1.0e3 / queries.max(1) as f64;
    metrics.set("tree.bounds_us", us(timed.time_bounds_ns));
    metrics.set("tree.verify_us", us(timed.time_verify_ns));
    metrics.set("tree.other_us", us(timed.time_other_ns()));
}

/// `1 − instrumented / plain` for two throughputs: the share of throughput the
/// instrumentation costs (negative when noise favours the instrumented run).
pub fn overhead_share(plain_qps: f64, instrumented_qps: f64) -> f64 {
    if plain_qps > 0.0 {
        1.0 - instrumented_qps / plain_qps
    } else {
        0.0
    }
}

/// Wall-clock seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}
