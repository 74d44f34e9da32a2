//! Observable serving end to end: build a sharded index, snapshot it, cold-start an
//! engine from disk, serve a batch through both serving paths, and print the live
//! metrics registry — per-index latency histograms, per-shard p99, `SearchStats`
//! counters, and the store's cold-start stage split (read vs. CRC vs. decode) — in
//! Prometheus text exposition format.
//!
//! Set `P2H_TRACE=/tmp/p2h-trace.jsonl:10` before running to additionally stream a
//! JSON-lines record (with per-stage timings) for every 10th query.
//!
//! ```text
//! cargo run --release --example metrics_serving
//! ```

use p2hnns::engine::{BatchRequest, Engine};
use p2hnns::shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
use p2hnns::{
    generate_queries, DataDistribution, QueryDistribution, SearchParams, Store, SyntheticDataset,
};

fn main() {
    // Offline: build a sharded BC-Tree index and snapshot it as a shard group.
    let points = SyntheticDataset::new(
        "metrics-serving",
        40_000,
        24,
        DataDistribution::GaussianClusters { clusters: 8, std_dev: 1.5 },
        17,
    )
    .generate()
    .expect("synthetic data");
    let sharded = ShardedIndexBuilder::new(
        Partitioner::Hash { shards: 4 },
        ShardIndexKind::BcTree { leaf_size: 100 },
    )
    .with_seed(1)
    .build(&points)
    .expect("sharded build");

    let dir = std::env::temp_dir().join(format!("p2h-metrics-serving-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).expect("create store");
    sharded.save_into(&store, "p2h").expect("snapshot shard group");
    drop(sharded);

    // Serving: cold-start from the snapshot directory (this populates the
    // `p2h_store_load_stage_ns_total` read/CRC/decode split and the engine's
    // cold-start counters), then serve one batch through each path.
    let engine = Engine::from_store(&dir, 0).expect("cold start");
    let queries =
        generate_queries(&points, 128, QueryDistribution::DataDifference, 3).expect("queries");
    let request = BatchRequest::new(queries, SearchParams::exact(10));

    let batch = engine.serve("p2h", &request).expect("batch serve");
    let fanout = engine.serve_sharded("p2h", &request).expect("sharded serve");
    let fanout = &fanout.batch;
    for (path, response) in [("query-parallel", &batch), ("shard-parallel", fanout)] {
        let p99_ms = response.latency.quantile(0.99) as f64 / 1.0e6;
        println!("{path}: {:.0} qps, p99={p99_ms:.3}ms", response.throughput_qps());
    }

    // Per-shard tail latency, read back from the metrics registry rather than the
    // response: this is what a dashboard scraping the exposition endpoint would see.
    let snapshot = engine.metrics_snapshot();
    for shard in 0..4 {
        let shard_label = shard.to_string();
        let series = snapshot
            .series("p2h_shard_latency_ns", &[("index", "p2h"), ("shard", &shard_label)])
            .expect("per-shard latency series");
        let hist = series.value.histogram().expect("histogram series");
        println!(
            "  shard {shard}: count={} p99≤{} ns (log-bucket upper bound)",
            hist.count(),
            hist.quantile(0.99)
        );
    }

    // The full scrape, exactly as a Prometheus endpoint would serve it.
    println!("\n# --- metrics exposition ---\n{}", engine.render_metrics());

    std::fs::remove_dir_all(&dir).ok();
}
