//! Sharded serving end to end: partition a point set across several BC-Trees, serve a
//! batch through both serving paths, snapshot the whole thing as a shard group, and
//! cold-start a second engine from the directory — all with bit-identical answers.
//!
//! ```text
//! cargo run --release --example sharded_serving
//! ```

use p2hnns::engine::{BatchRequest, Engine};
use p2hnns::obs::StreamingHistogram;
use p2hnns::shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
use p2hnns::{
    generate_queries, DataDistribution, LinearScan, P2hIndex, QueryDistribution, SearchParams,
    Store, SyntheticDataset,
};

fn main() {
    // A synthetic workload: 60k points in 32 dimensions, 64 hyperplane queries.
    let points = SyntheticDataset::new(
        "sharded-serving",
        60_000,
        32,
        DataDistribution::GaussianClusters { clusters: 12, std_dev: 1.5 },
        7,
    )
    .generate()
    .expect("synthetic data");
    let queries =
        generate_queries(&points, 64, QueryDistribution::DataDifference, 3).expect("queries");
    let request = BatchRequest::new(queries, SearchParams::exact(10));

    // Partition across 4 shards (hash-scattered) with one BC-Tree per shard.
    let sharded = ShardedIndexBuilder::new(
        Partitioner::Hash { shards: 4 },
        ShardIndexKind::BcTree { leaf_size: 100 },
    )
    .with_seed(1)
    .build(&points)
    .expect("sharded build");
    println!(
        "built {} shards over {} points ({} KiB of index structure)",
        sharded.shard_count(),
        sharded.len(),
        sharded.index_size_bytes() / 1024
    );

    // Serve through the engine. `serve` picks query-parallel or shard-parallel
    // execution per batch (this 64-query batch runs query-parallel);
    // `serve_sharded` always fans each query across the shards and reports
    // per-shard latency.
    let engine = Engine::new(0);
    engine.registry().register_sharded("p2h", sharded);
    let batch = engine.serve("p2h", &request).expect("batch serve");
    let fanout = engine.serve_sharded("p2h", &request).expect("sharded serve");
    let summary = |h: &StreamingHistogram| {
        let ms = |q: f64| h.quantile(q) as f64 / 1.0e6;
        format!("p50={:.3}ms p99={:.3}ms (n={})", ms(0.50), ms(0.99), h.count())
    };
    println!("query-parallel: {:.0} qps, {}", batch.throughput_qps(), summary(&batch.latency));
    println!(
        "shard-parallel: {:.0} qps, {}",
        fanout.batch.throughput_qps(),
        summary(&fanout.batch.latency)
    );
    for (shard, histogram) in fanout.per_shard_latency.iter().enumerate() {
        println!("  shard {shard}: {}", summary(histogram));
    }

    // The merge is exact: both paths agree with the unsharded linear-scan oracle bit
    // for bit.
    let oracle = LinearScan::new(points.clone());
    for (i, (a, b)) in batch.results.iter().zip(&fanout.batch.results).enumerate() {
        let expected = oracle.search(&request.queries[i], request.params_for(i));
        assert_eq!(a.neighbors, expected.neighbors);
        assert_eq!(b.neighbors, expected.neighbors);
    }
    println!("sharded answers are bit-identical to the unsharded oracle");

    // Persist as a shard group (atomic multi-file commit) and cold-start from disk.
    let dir = std::env::temp_dir().join(format!("p2h-sharded-serving-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).expect("create store");
    engine.registry().get_sharded("p2h").unwrap().save_into(&store, "p2h").expect("snapshot");

    let cold = Engine::from_store(&dir, 0).expect("cold start");
    let reloaded = cold.serve("p2h", &request).expect("serve after reload");
    for (a, b) in batch.results.iter().zip(&reloaded.results) {
        assert_eq!(a.neighbors, b.neighbors);
    }
    println!("cold-started engine answers bit-identically from {}", dir.display());

    std::fs::remove_dir_all(&dir).ok();
}
