//! Microbenchmark of the dense kernels: scalar vs dispatched-SIMD vs blocked, across
//! the dimensions of the paper's data sets and representative leaf sizes.
//!
//! Prints a Markdown table of ns/point for four ways of computing the `|⟨x, q⟩|`
//! distances of a leaf-sized strip of points:
//!
//! * `scalar/pt`   — one `kernels::scalar::dot` call per point (the pre-kernel-layer
//!   baseline: per-point scalar verification),
//! * `simd/pt`     — one dispatched `kernels::abs_dot` call per point,
//! * `scalar-blk`  — `kernels::scalar::dot_block` over the whole strip (forced-scalar
//!   dispatch, showing the gain from amortized query reload alone),
//! * `simd-blk`    — dispatched `kernels::abs_dot_block` over the whole strip (the
//!   kernel behind every blocked leaf scan).
//!
//! A second table gives ns per call of the scalar pruning bounds (Ball-Tree's node
//! ball bound, BC-Tree's point ball and cone bounds) and of NH/FH's quadratic
//! transform of one 128-d point at λ = d and λ = 8d.
//!
//! Usage: `kernel_bench [--rows N] [--iters N]` — `--rows` is the strip (leaf) size,
//! default 100 (the paper's reference `N0`); `--iters` scales the measurement loop.
//! Results are recorded in `EXPERIMENTS.md`.

use std::hint::black_box;
use std::time::Instant;

use p2h_balltree::bound::node_ball_bound;
use p2h_bctree::bounds::{point_ball_bound, point_cone_bound};
use p2h_core::kernels;
use p2h_core::Scalar;
use p2h_hash::QuadraticTransform;

/// Deterministic pseudo-random data; no RNG dependency needed for a microbench.
fn filled(len: usize, seed: u64) -> Vec<Scalar> {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as Scalar / (1 << 24) as Scalar) * 2.0 - 1.0
        })
        .collect()
}

/// Best-of-three measurement of `body`, in ns per point.
fn measure(rows: usize, iters: usize, mut body: impl FnMut() -> Scalar) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        let mut sink = 0.0;
        for _ in 0..iters {
            sink += body();
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        black_box(sink);
        best = best.min(elapsed / (iters as f64 * rows as f64));
    }
    best
}

fn main() {
    let mut rows = 100usize;
    let mut iters = 2_000usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rows" => {
                i += 1;
                rows = args[i].parse().expect("--rows expects an integer");
            }
            "--iters" => {
                i += 1;
                iters = args[i].parse().expect("--iters expects an integer");
            }
            other => panic!("unknown flag `{other}` (usage: kernel_bench [--rows N] [--iters N])"),
        }
        i += 1;
    }

    println!("detected backend: {}", kernels::detected_backend().label());
    println!("active backend:   {}", kernels::active_backend().label());
    println!("strip rows: {rows}\n");
    println!(
        "| dim | scalar/pt (ns) | simd/pt (ns) | scalar-blk (ns) | simd-blk (ns) | blk vs scalar/pt |"
    );
    println!("|---|---|---|---|---|---|");

    for dim in [16usize, 64, 128, 256, 960] {
        let query = filled(dim, 1);
        let data = filled(dim * rows, dim as u64);
        let mut out = vec![0.0 as Scalar; rows];
        // Scale iterations down for the big dims so every row costs similar wall time.
        let iters = (iters * 128 / dim.max(16)).max(50);

        let scalar_pt = measure(rows, iters, || {
            let mut acc = 0.0;
            for r in 0..rows {
                acc += kernels::scalar::dot(black_box(&query), &data[r * dim..(r + 1) * dim]).abs();
            }
            acc
        });

        let simd_pt = measure(rows, iters, || {
            let mut acc = 0.0;
            for r in 0..rows {
                acc += kernels::abs_dot(black_box(&query), &data[r * dim..(r + 1) * dim]);
            }
            acc
        });

        let scalar_blk = measure(rows, iters, || {
            kernels::scalar::dot_block(black_box(&query), &data, dim, &mut out);
            out[rows / 2]
        });

        let simd_blk = measure(rows, iters, || {
            kernels::abs_dot_block(black_box(&query), &data, dim, &mut out);
            out[rows / 2]
        });

        println!(
            "| {dim} | {scalar_pt:.2} | {simd_pt:.2} | {scalar_blk:.2} | {simd_blk:.2} | {:.1}x |",
            scalar_pt / simd_blk
        );
    }

    println!(
        "\nblk vs scalar/pt = per-point scalar abs_dot time over blocked dispatched time:\n\
         the speedup a blocked leaf scan gets over the seed's per-point scalar loop."
    );

    println!("\n| case | ns/call |");
    println!("|---|---|");
    // A bound is a few flops, so it gets as many calls as a strip row gets points.
    let calls = iters * rows;
    let node_ball =
        measure(1, calls, || node_ball_bound(black_box(3.7), black_box(1.2), black_box(0.8)));
    println!("| node_ball_bound | {node_ball:.2} |");
    let point_ball =
        measure(1, calls, || point_ball_bound(black_box(3.7), black_box(1.2), black_box(0.4)));
    println!("| point_ball_bound | {point_ball:.2} |");
    let point_cone = measure(1, calls, || {
        point_cone_bound(black_box(1.1), black_box(0.6), black_box(2.0), black_box(0.9))
    });
    println!("| point_cone_bound | {point_cone:.2} |");
    let dim = 128;
    let x = filled(dim, 2);
    for factor in [1usize, 8] {
        let transform = QuadraticTransform::sampled(dim, factor * dim, 3);
        let ns = measure(1, iters, || transform.transform_data(black_box(&x))[0]);
        println!("| quadratic_transform d{dim} λ={factor}d | {ns:.2} |");
    }
}
