//! Sharded serving: build time and query throughput as a function of shard count,
//! plus an end-to-end build → shard → snapshot → reload → verify cycle.
//!
//! For every configured shard count the binary builds a `ShardedIndex` (BC-Tree per
//! shard), measures the build time, serves a query batch through both the
//! query-parallel path (`BatchExecutor` over the `P2hIndex` trait) and the
//! shard-parallel path (`BatchExecutor::execute_sharded`), and verifies that both are **bit-identical**
//! to an unsharded reference. It then snapshots the sharded index as a `p2h-store`
//! shard group, cold-loads it back, and verifies the reloaded answers again. With
//! `--check` any mismatch (or store error) exits non-zero — this is the step CI runs
//! on the forced-scalar kernel path.
//!
//! ```text
//! cargo run --release --bin shard_bench -- [--n N] [--dim D] [--queries Q] [--k K]
//!     [--shards LIST] [--threads T] [--check] [--out DIR]
//! ```

use std::path::PathBuf;
use std::time::Instant;

use p2h_bench::serving::{bit_identical, clustered_dataset, serving_queries};
use p2h_core::{kernels, HyperplaneQuery, LinearScan, PointSet, SearchParams};
use p2h_engine::{
    BatchExecutor, BatchRequest, Engine, Partitioner, ShardIndexKind, ShardedIndex,
    ShardedIndexBuilder,
};
use p2h_eval::{markdown_table, write_csv};
use p2h_store::Store;

struct Config {
    n: usize,
    dim: usize,
    queries: usize,
    k: usize,
    shards: Vec<usize>,
    threads: usize,
    check: bool,
    out_dir: PathBuf,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            n: 200_000,
            dim: 64,
            queries: 256,
            k: 10,
            shards: vec![1, 2, 4, 8],
            threads: 0,
            check: false,
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
                "--shards" => {
                    cfg.shards = take(&args, &mut i, "--shards")
                        .split(',')
                        .map(|s| s.trim().parse().expect("--shards: comma-separated integers"))
                        .collect()
                }
                "--threads" => {
                    cfg.threads =
                        take(&args, &mut i, "--threads").parse().expect("--threads: integer")
                }
                "--check" => cfg.check = true,
                "--out" => cfg.out_dir = PathBuf::from(take(&args, &mut i, "--out")),
                other => {
                    eprintln!(
                        "unknown flag `{other}`; flags: --n --dim --queries --k --shards \
                         --threads --check --out"
                    );
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        cfg
    }
}

struct Row {
    shards: usize,
    build_s: f64,
    batch_qps: f64,
    fanout_qps: f64,
    fanout_p99_ms: f64,
    reload_s: f64,
    identical: bool,
}

fn bench_shard_count(
    shards: usize,
    points: &PointSet,
    request: &BatchRequest,
    reference: &[p2h_core::SearchResult],
    store_dir: &std::path::Path,
    threads: usize,
) -> Row {
    let leaf_size = 100;
    let builder = ShardedIndexBuilder::new(
        Partitioner::Hash { shards },
        ShardIndexKind::BcTree { leaf_size },
    )
    .with_seed(1);

    let start = Instant::now();
    let sharded = builder.build(points).expect("sharded build");
    let build_s = start.elapsed().as_secs_f64();

    // Query-parallel serving: the sharded index behind the ordinary batch executor.
    let batch = BatchExecutor::new(threads).execute(&sharded, request);
    // Shard-parallel serving: fan each query across shards.
    let fanout = BatchExecutor::new(threads).execute_sharded(&sharded, request).batch;

    // Snapshot as a shard group and cold-load it back.
    std::fs::remove_dir_all(store_dir).ok();
    let store = Store::create(store_dir).expect("create store");
    sharded.save_into(&store, "sharded").expect("save shard group");
    let start = Instant::now();
    let reloaded = ShardedIndex::load_from(&store, "sharded").expect("load shard group");
    let reload_s = start.elapsed().as_secs_f64();
    let reloaded_batch = BatchExecutor::new(threads).execute(&reloaded, request);

    let same = bit_identical(&batch.results, reference)
        && bit_identical(&fanout.results, reference)
        && bit_identical(&reloaded_batch.results, reference);

    Row {
        shards,
        build_s,
        batch_qps: batch.throughput_qps(),
        fanout_qps: fanout.throughput_qps(),
        fanout_p99_ms: fanout.latency.quantile(0.99) as f64 / 1e6,
        reload_s,
        identical: same,
    }
}

fn main() {
    let cfg = Config::from_args();
    println!(
        "# shard_bench — sharded build + serving vs shard count \
         (n = {}, dim = {}, queries = {}, k = {}, kernel backend: {})\n",
        cfg.n,
        cfg.dim,
        cfg.queries,
        cfg.k,
        kernels::active_backend().label()
    );

    let points: PointSet = clustered_dataset("shard-bench", cfg.n, cfg.dim);
    let queries: Vec<HyperplaneQuery> = serving_queries(&points, cfg.queries);
    let request = BatchRequest::new(queries, SearchParams::exact(cfg.k));

    // Unsharded reference answers (the linear-scan oracle is exact and cheap to trust).
    let oracle = LinearScan::new(points.clone());
    let reference = BatchExecutor::new(cfg.threads).execute(&oracle, &request);

    let store_dir = cfg.out_dir.join("shard-store");
    let rows: Vec<Row> = cfg
        .shards
        .iter()
        .map(|&shards| {
            bench_shard_count(
                shards,
                &points,
                &request,
                &reference.results,
                &store_dir,
                cfg.threads,
            )
        })
        .collect();

    let headers = [
        "shards",
        "build (s)",
        "batch QPS",
        "fan-out QPS",
        "fan-out p99 (ms)",
        "reload (s)",
        "bit-identical",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.shards.to_string(),
                format!("{:.3}", r.build_s),
                format!("{:.0}", r.batch_qps),
                format!("{:.0}", r.fanout_qps),
                format!("{:.3}", r.fanout_p99_ms),
                format!("{:.3}", r.reload_s),
                if r.identical { "yes".into() } else { "NO".into() },
            ]
        })
        .collect();
    println!("{}", markdown_table(&headers, &table));

    std::fs::create_dir_all(&cfg.out_dir).expect("create out dir");
    write_csv(&cfg.out_dir.join("shard_bench.csv"), &headers, &table).expect("write csv");
    println!("\ncsv written to {}", cfg.out_dir.join("shard_bench.csv").display());

    if rows.iter().any(|r| !r.identical) {
        eprintln!(
            "FAILED: a sharded (or reloaded) index returned different answers than the \
             unsharded reference"
        );
        std::process::exit(1);
    }
    if cfg.check {
        println!(
            "check passed: sharded, shard-parallel, and reloaded answers are bit-identical \
             to the unsharded reference for every shard count"
        );
    }

    // Serve the largest configuration once through the engine's shard-aware path so
    // the exposition dump below carries per-shard latency series.
    if let Some(&shards) = cfg.shards.last() {
        let engine = Engine::new(cfg.threads);
        let sharded = ShardedIndexBuilder::new(
            Partitioner::Hash { shards },
            ShardIndexKind::BallTree { leaf_size: 100 },
        )
        .build(&points)
        .expect("build sharded index for metrics dump");
        engine.registry().register_sharded("shard-bench", sharded);
        engine.serve_sharded("shard-bench", &request).expect("serve sharded batch");
        println!("\n## metrics exposition (Prometheus text format)\n");
        println!("```\n{}```", engine.render_metrics());
    }
}
