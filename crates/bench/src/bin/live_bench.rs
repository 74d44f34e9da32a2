//! Live-tier benchmark: what online updates cost. Four measurements against one
//! streaming pool, plus a bit-identity check of the layered answers:
//!
//! 1. **Durable insert throughput vs batch size** — every `insert_batch` call is one
//!    WAL append + one fsync (the acknowledgement point), so throughput is fsync-bound
//!    at batch 1 and amortizes with batching.
//! 2. **Memtable size vs query latency** — the memtable is an exact linear strip-scan
//!    layered over the compacted Ball-Tree base; latency grows linearly with the
//!    uncompacted tail, which is the number compaction policy should watch.
//! 3. **Compaction cost vs a from-scratch rebuild** — `compact()` folds memtable +
//!    base into a fresh tree committed as a new store epoch; the comparison is
//!    building the same tree from raw points and saving it (what a rebuild-the-world
//!    pipeline would pay, ignoring its serving gap).
//! 4. **Base tombstones vs query cost** — deletes of base points are tombstones
//!    until the next compaction. The exact query latency and the base candidates
//!    verified per query are measured at 0, 1k and 5k tombstones, each one a point
//!    nearest some query (round-robin over the queries). That is the worst place
//!    for a tombstone: it is verified but never admitted to the top-k, so the base
//!    search runs as deep as the query's k-th nearest survivor.
//!
//! With `--check`, every layered answer set (before, during, and after the memtable
//! growth, after compaction, and with 5k base tombstones) is compared bit-for-bit against a fresh
//! [`LinearScan`] rebuild over the same live points; any mismatch exits non-zero.
//!
//! ```text
//! cargo run --release --bin live_bench -- [--n N] [--dim D] [--queries Q]
//!     [--k K] [--inserts I] [--check] [--out DIR]
//! ```

use std::path::PathBuf;
use std::time::Instant;

use p2h_balltree::BallTreeBuilder;
use p2h_bench::serving::{clustered_dataset, serving_queries};
use p2h_core::{
    kernels, HyperplaneQuery, LinearScan, P2hIndex, PointSet, Scalar, SearchParams, SearchResult,
};
use p2h_eval::{markdown_table, write_csv};
use p2h_live::LiveIndex;
use p2h_store::Store;

struct Config {
    n: usize,
    dim: usize,
    queries: usize,
    k: usize,
    inserts: usize,
    check: bool,
    out_dir: PathBuf,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            n: 100_000,
            dim: 32,
            queries: 64,
            k: 10,
            inserts: 2_000,
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
                "--inserts" => {
                    cfg.inserts =
                        take(&args, &mut i, "--inserts").parse().expect("--inserts: integer")
                }
                "--check" => cfg.check = true,
                "--out" => cfg.out_dir = PathBuf::from(take(&args, &mut i, "--out")),
                other => {
                    eprintln!(
                        "unknown flag `{other}`; flags: --n --dim --queries --k --inserts \
                         --check --out"
                    );
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        cfg
    }
}

/// Strips the augmentation coordinate: live inserts take raw `dim-1` rows.
fn raw_rows(points: &PointSet, start: usize, end: usize) -> Vec<Vec<Scalar>> {
    let raw = points.dim() - 1;
    (start..end).map(|i| points.point(i)[..raw].to_vec()).collect()
}

/// Layered answers keyed by global id (the live tier reports global ids directly).
fn live_answers(live: &LiveIndex, queries: &[HyperplaneQuery], k: usize) -> Vec<Vec<(u32, u32)>> {
    queries
        .iter()
        .map(|q| {
            let result = live.search_exact(q, k).expect("live search");
            result.neighbors.iter().map(|n| (n.index as u32, n.distance.to_bits())).collect()
        })
        .collect()
}

/// The fresh-rebuild oracle: a linear scan over the live points, translated to the
/// same global-id keying.
fn oracle_answers(live: &LiveIndex, queries: &[HyperplaneQuery], k: usize) -> Vec<Vec<(u32, u32)>> {
    let ordered = live.live_points();
    let rows: Vec<Vec<Scalar>> = ordered.iter().map(|(_, row)| row.clone()).collect();
    let scan = LinearScan::new(PointSet::from_rows(&rows).expect("oracle point set"));
    let params = SearchParams::exact(k);
    queries
        .iter()
        .map(|q| {
            let result: SearchResult = scan.search(q, &params);
            result.neighbors.iter().map(|n| (ordered[n.index].0, n.distance.to_bits())).collect()
        })
        .collect()
}

/// Mean exact-query latency (µs) and mean candidates verified per query.
fn exact_query_cost(live: &LiveIndex, queries: &[HyperplaneQuery], k: usize) -> (f64, f64) {
    // One untimed pass first (it counts the candidates): the timed pass must not pay
    // first-touch page faults for freshly compacted (or freshly mapped) base arrays.
    let mut candidates = 0u64;
    for q in queries {
        candidates += live.search_exact(q, k).expect("live search").stats.candidates_verified;
    }
    let start = Instant::now();
    for q in queries {
        std::hint::black_box(live.search_exact(q, k).expect("live search"));
    }
    let per_query = queries.len() as f64;
    (start.elapsed().as_secs_f64() * 1e6 / per_query, candidates as f64 / per_query)
}

fn main() {
    let cfg = Config::from_args();
    println!(
        "# live_bench — online updates: insert throughput, memtable drag, compaction \
         (base n = {}, raw dim = {}, kernel backend: {})\n",
        cfg.n,
        cfg.dim,
        kernels::active_backend().label()
    );

    let batch_sizes = [1usize, 8, 64, 512];
    let memtable_steps = [0usize, 1_000, 10_000, 50_000];

    // One clustered dataset covers everything: the first `n` rows seed the base, the
    // tail streams in as live inserts. `clustered_dataset` takes the raw dim and
    // returns augmented points.
    let total = cfg.n + batch_sizes.len() * cfg.inserts + memtable_steps[memtable_steps.len() - 1];
    let points = clustered_dataset("live-bench", total, cfg.dim);
    let queries = serving_queries(&points, cfg.queries);

    let dir = cfg.out_dir.join("live-store");
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).expect("create store");
    let live = LiveIndex::create(&store, "pool", cfg.dim + 1).expect("create live index");
    let mut cursor = 0usize;

    // Seed the base: stream in the first `n` points and compact them into a
    // Ball-Tree, so every measurement below runs against a realistically sized
    // immutable base with an initially empty memtable.
    while cursor < cfg.n {
        let step = (cfg.n - cursor).min(4096);
        live.insert_batch(&raw_rows(&points, cursor, cursor + step)).expect("seed insert");
        cursor += step;
    }
    live.compact().expect("seed compaction");
    let mut check_failed = false;
    let mut check = |live: &LiveIndex, stage: &str| {
        if !cfg.check {
            return;
        }
        let same = live_answers(live, &queries, cfg.k) == oracle_answers(live, &queries, cfg.k);
        if !same {
            eprintln!("FAILED: layered answers diverged from the fresh-rebuild oracle ({stage})");
        }
        check_failed |= !same;
    };

    // ---- 1. durable insert throughput vs batch size --------------------------------
    let mut insert_rows: Vec<Vec<String>> = Vec::new();
    for &batch in &batch_sizes {
        let rows = raw_rows(&points, cursor, cursor + cfg.inserts);
        cursor += cfg.inserts;
        let start = Instant::now();
        for chunk in rows.chunks(batch) {
            live.insert_batch(chunk).expect("insert batch");
        }
        let secs = start.elapsed().as_secs_f64();
        let fsyncs = rows.len().div_ceil(batch);
        insert_rows.push(vec![
            batch.to_string(),
            format!("{:.0}", rows.len() as f64 / secs),
            format!("{:.0}", fsyncs as f64 / secs),
            format!("{:.1}", secs * 1e6 / rows.len() as f64),
        ]);
    }
    let insert_headers = ["batch size", "inserts/s", "fsyncs/s", "µs/insert"];
    println!("## durable insert throughput ({} inserts per row)\n", cfg.inserts);
    println!("{}", markdown_table(&insert_headers, &insert_rows));
    check(&live, "after insert-throughput phase");

    // ---- 2. memtable size vs query latency -----------------------------------------
    // Fold everything inserted so far into a compacted base, then regrow the memtable
    // in steps, timing the same exact query batch at each size.
    live.compact().expect("baseline compaction");
    let mut latency_rows: Vec<Vec<String>> = Vec::new();
    let mut base = f64::NAN;
    for &target in &memtable_steps {
        while live.memtable_len() < target {
            let step = (target - live.memtable_len()).min(512);
            live.insert_batch(&raw_rows(&points, cursor, cursor + step))
                .expect("memtable growth insert");
            cursor += step;
        }
        let (us, _) = exact_query_cost(&live, &queries, cfg.k);
        if base.is_nan() {
            base = us;
        }
        latency_rows.push(vec![
            target.to_string(),
            format!("{:.1}", us),
            format!("{:.2}x", us / base),
        ]);
    }
    check(&live, "with the largest memtable");
    let latency_headers = ["memtable rows", "mean query latency (µs)", "vs compacted"];
    println!("## memtable size vs exact query latency (base = compacted tree)\n");
    println!("{}", markdown_table(&latency_headers, &latency_rows));

    // ---- 3. compaction cost vs from-scratch rebuild --------------------------------
    let survivors = live.len();
    let start = Instant::now();
    let report = live.compact().expect("measured compaction");
    let compact_s = start.elapsed().as_secs_f64();
    check(&live, "after the measured compaction");
    let (post_compact_us, _) = exact_query_cost(&live, &queries, cfg.k);

    let (rebuild_build_s, rebuild_save_s) = {
        let ordered = live.live_points();
        let flat: Vec<Scalar> = ordered.iter().flat_map(|(_, row)| row.iter().copied()).collect();
        let rebuilt_points = PointSet::from_flat(cfg.dim + 1, flat).expect("rebuild point set");
        let start = Instant::now();
        let tree = BallTreeBuilder::new(100)
            .with_seed(1)
            .build(&rebuilt_points)
            .expect("from-scratch rebuild");
        let build_s = start.elapsed().as_secs_f64();
        let rebuild_store = Store::create(dir.join("rebuild")).expect("rebuild store");
        let start = Instant::now();
        rebuild_store.save("rebuilt", &tree).expect("rebuild save");
        (build_s, start.elapsed().as_secs_f64())
    };
    let rebuild_s = rebuild_build_s + rebuild_save_s;

    let compaction_headers = ["path", "wall (s)", "survivors", "memtable rows folded"];
    let compaction_rows = vec![
        vec![
            "live compact() → new epoch".into(),
            format!("{compact_s:.3}"),
            report.survivors.to_string(),
            report.folded_rows.to_string(),
        ],
        vec![
            format!(
                "from-scratch build + save ({rebuild_build_s:.3} build + {rebuild_save_s:.3} save)"
            ),
            format!("{rebuild_s:.3}"),
            survivors.to_string(),
            "-".into(),
        ],
    ];
    println!("## compaction vs rebuild (epoch {} committed)\n", report.epoch);
    println!("{}", markdown_table(&compaction_headers, &compaction_rows));
    println!(
        "\ncompaction = {:.2}x a from-scratch rebuild; post-compaction latency {:.1} µs \
         (memtable drained, serving continued throughout at the largest-memtable latency \
         above)",
        compact_s / rebuild_s.max(1e-9),
        post_compact_us,
    );

    // ---- 4. base tombstones vs exact query cost ------------------------------------
    // The memtable is empty after the measured compaction, so every candidate below
    // is a base candidate. Tombstones go round-robin over the queries, each time to
    // that query's nearest point not yet deleted.
    let tombstone_steps = [0usize, 1_000, 5_000];
    let max_tombs = tombstone_steps[tombstone_steps.len() - 1];
    let order: Vec<u32> = {
        let ordered = live.live_points();
        let rows: Vec<Vec<Scalar>> = ordered.iter().map(|(_, row)| row.clone()).collect();
        let scan = LinearScan::new(PointSet::from_rows(&rows).expect("oracle point set"));
        let depth = max_tombs.min(ordered.len());
        let nearest: Vec<Vec<u32>> = queries
            .iter()
            .map(|q| {
                let result = scan.search(q, &SearchParams::exact(depth));
                result.neighbors.iter().map(|n| ordered[n.index].0).collect()
            })
            .collect();
        let mut seen = std::collections::HashSet::new();
        let mut order = Vec::with_capacity(depth);
        for rank in 0..depth {
            for list in &nearest {
                if seen.insert(list[rank]) {
                    order.push(list[rank]);
                }
            }
        }
        order.truncate(depth);
        order
    };
    let mut tombstone_rows: Vec<Vec<String>> = Vec::new();
    let mut deleted = 0usize;
    let mut untombstoned = (f64::NAN, f64::NAN);
    for &target in &tombstone_steps {
        let target = target.min(order.len());
        for &id in &order[deleted..target] {
            live.delete(id).expect("tombstone delete");
        }
        deleted = target;
        let (us, candidates) = exact_query_cost(&live, &queries, cfg.k);
        if untombstoned.0.is_nan() {
            untombstoned = (us, candidates);
        }
        tombstone_rows.push(vec![
            deleted.to_string(),
            format!("{:.1}", us),
            format!("{:.2}x", us / untombstoned.0),
            format!("{:.0}", candidates),
            format!("{:.2}x", candidates / untombstoned.1),
        ]);
    }
    check(&live, "with the most base tombstones");
    let tombstone_headers = [
        "base tombstones",
        "mean query latency (µs)",
        "vs none",
        "base candidates / query",
        "vs none",
    ];
    println!(
        "\n## base tombstones vs exact query cost (each tombstone one of a query's \
         nearest points)\n"
    );
    println!("{}", markdown_table(&tombstone_headers, &tombstone_rows));

    std::fs::create_dir_all(&cfg.out_dir).expect("create out dir");
    write_csv(&cfg.out_dir.join("live_bench_inserts.csv"), &insert_headers, &insert_rows)
        .expect("write csv");
    write_csv(&cfg.out_dir.join("live_bench_latency.csv"), &latency_headers, &latency_rows)
        .expect("write csv");
    write_csv(
        &cfg.out_dir.join("live_bench_compaction.csv"),
        &compaction_headers,
        &compaction_rows,
    )
    .expect("write csv");
    write_csv(&cfg.out_dir.join("live_bench_tombstones.csv"), &tombstone_headers, &tombstone_rows)
        .expect("write csv");
    println!("\ncsv written to {}", cfg.out_dir.display());

    std::fs::remove_dir_all(&dir).ok();
    if check_failed {
        std::process::exit(1);
    }
    if cfg.check {
        println!(
            "check passed: layered answers bit-identical to the fresh-rebuild oracle at \
             every stage"
        );
    }
}
