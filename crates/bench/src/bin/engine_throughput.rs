//! Engine throughput scaling: batch-query QPS vs worker-thread count, plus parallel
//! index-construction speedup, on a synthetic data set.
//!
//! This is the serving-side experiment that motivates the `p2h-engine` crate: the same
//! batch of hyperplane queries is executed against one shared BC-Tree with 1, 2, 4, …
//! worker threads, reporting throughput (QPS), per-query latency percentiles, and the
//! speedup over single-threaded execution. Results are verified bit-identical across
//! all thread counts before anything is reported — parallelism must never change
//! answers.
//!
//! ```text
//! cargo run --release --bin engine_throughput -- [--n N] [--dim D] [--queries Q]
//!     [--k K] [--budget B] [--threads 1,2,4,8] [--out DIR]
//! ```

use std::path::PathBuf;
use std::time::Instant;

use p2h_bench::num_threads;
use p2h_core::{SearchParams, SearchResult};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_engine::{BatchRequest, BcTreeBuilder, Engine, SharedIndex};
use p2h_eval::{markdown_table, write_csv};

struct Config {
    n: usize,
    dim: usize,
    queries: usize,
    k: usize,
    budget: Option<usize>,
    threads: Vec<usize>,
    out_dir: PathBuf,
}

impl Default for Config {
    fn default() -> Self {
        let max = num_threads();
        let mut threads = vec![1usize, 2, 4, 8, 16];
        threads.retain(|&t| t <= max.max(4));
        Self {
            n: 100_000,
            dim: 64,
            queries: 256,
            k: 10,
            budget: Some(2_000),
            threads,
            out_dir: PathBuf::from("results"),
        }
    }
}

impl Config {
    fn from_args() -> Self {
        let mut cfg = Self::default();
        let args: Vec<String> = std::env::args().skip(1).collect();

        fn take(args: &[String], i: &mut usize, name: &str) -> String {
            *i += 1;
            args.get(*i).unwrap_or_else(|| panic!("missing value for {name}")).clone()
        }

        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--n" => cfg.n = take(&args, &mut i, "--n").parse().expect("--n: integer"),
                "--dim" => cfg.dim = take(&args, &mut i, "--dim").parse().expect("--dim: integer"),
                "--queries" => {
                    cfg.queries =
                        take(&args, &mut i, "--queries").parse().expect("--queries: integer")
                }
                "--k" => cfg.k = take(&args, &mut i, "--k").parse().expect("--k: integer"),
                "--budget" => {
                    let value = take(&args, &mut i, "--budget");
                    cfg.budget = if value == "none" {
                        None
                    } else {
                        Some(value.parse().expect("--budget: integer or `none`"))
                    };
                }
                "--threads" => {
                    cfg.threads = take(&args, &mut i, "--threads")
                        .split(',')
                        .map(|t| t.trim().parse().expect("--threads: comma-separated integers"))
                        .collect();
                }
                "--out" => cfg.out_dir = PathBuf::from(take(&args, &mut i, "--out")),
                "--help" | "-h" => {
                    eprintln!(
                        "usage: engine_throughput [--n N] [--dim D] [--queries Q] [--k K] \
                         [--budget B|none] [--threads 1,2,4,8] [--out DIR]"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown flag `{other}`; run with --help for usage"),
            }
            i += 1;
        }
        cfg
    }
}

fn main() {
    let cfg = Config::from_args();
    println!(
        "engine throughput scaling: n={}, dim={}, queries={}, k={}, budget={:?} \
         ({} CPUs available)\n",
        cfg.n,
        cfg.dim,
        cfg.queries,
        cfg.k,
        cfg.budget,
        num_threads()
    );

    let points = SyntheticDataset::new(
        "engine-throughput",
        cfg.n,
        cfg.dim,
        DataDistribution::GaussianClusters { clusters: 16, std_dev: 1.5 },
        2023,
    )
    .generate()
    .expect("synthetic generation");
    let queries = generate_queries(&points, cfg.queries, QueryDistribution::DataDifference, 7)
        .expect("query generation");

    // --- Parallel index construction -------------------------------------------------
    let builder = BcTreeBuilder::new(100);
    let start = Instant::now();
    let sequential_tree = builder.build(&points).expect("sequential build");
    let sequential_build_s = start.elapsed().as_secs_f64();
    drop(sequential_tree);

    let max_threads = cfg.threads.iter().copied().max().unwrap_or(1);
    let start = Instant::now();
    let tree = builder.build_parallel(&points, max_threads).expect("parallel build");
    let parallel_build_s = start.elapsed().as_secs_f64();
    println!(
        "BC-Tree construction: sequential {sequential_build_s:.3} s, parallel ({max_threads} \
         threads) {parallel_build_s:.3} s — {:.2}x speedup\n",
        sequential_build_s / parallel_build_s.max(1e-12)
    );

    // --- Batch query throughput vs thread count --------------------------------------
    let mut params = SearchParams::exact(cfg.k);
    params.candidate_limit = cfg.budget;
    let request = BatchRequest::new(queries, params);

    // Every measured run goes through `Engine::serve` — the instrumented production
    // path — so the exposition dump at the end reflects exactly what was benchmarked.
    let shared: SharedIndex = std::sync::Arc::new(tree);

    // The single-threaded run is always the reference — for the bit-identical check and
    // for the `speedup_vs_1` column — even when 1 is not in `--threads`.
    let baseline_engine = Engine::new(1);
    baseline_engine.registry().register_shared("bc", std::sync::Arc::clone(&shared));
    let _ = baseline_engine.serve("bc", &request).expect("warm-up"); // warm-up (fills caches)
    let baseline = baseline_engine.serve("bc", &request).expect("baseline serve");
    let reference: Vec<SearchResult> = baseline.results.clone();
    let baseline_qps = baseline.throughput_qps();

    let mut rows = Vec::new();
    for &threads in &cfg.threads {
        let response = if threads == 1 {
            baseline.clone()
        } else {
            let engine = Engine::new(threads);
            engine.registry().register_shared("bc", std::sync::Arc::clone(&shared));
            // Warm-up run, then the measured run.
            let _ = engine.serve("bc", &request).expect("warm-up");
            engine.serve("bc", &request).expect("measured serve")
        };

        for (qi, (got, want)) in response.results.iter().zip(reference.iter()).enumerate() {
            assert_eq!(
                got.neighbors, want.neighbors,
                "threads={threads}, query {qi}: parallel results diverged from \
                 single-threaded execution"
            );
        }

        let qps = response.throughput_qps();
        let speedup = if baseline_qps > 0.0 { qps / baseline_qps } else { 0.0 };
        rows.push(vec![
            threads.to_string(),
            format!("{qps:.0}"),
            format!("{speedup:.2}"),
            format!("{:.3}", response.latency.quantile(0.50) as f64 / 1.0e6),
            format!("{:.3}", response.latency.quantile(0.95) as f64 / 1.0e6),
            format!("{:.3}", response.latency.quantile(0.99) as f64 / 1.0e6),
            format!("{:.3}", response.wall_time_ns as f64 / 1.0e6),
        ]);
    }

    let headers = ["threads", "qps", "speedup_vs_1", "p50_ms", "p95_ms", "p99_ms", "batch_wall_ms"];
    println!("{}", markdown_table(&headers, &rows));
    println!("(all thread counts returned bit-identical results)");

    let path = cfg.out_dir.join("engine_throughput.csv");
    match write_csv(&path, &headers, &rows) {
        Ok(()) => println!("(written to {})", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }

    println!("\n## metrics exposition (Prometheus text format)\n");
    println!("```\n{}```", baseline_engine.render_metrics());
}
