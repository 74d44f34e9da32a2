//! Cold-start serving from a snapshot store: `IndexRegistry::open_dir` /
//! `Engine::from_store` must reproduce the answers of the process that built and
//! saved the indexes, bit for bit.

use std::path::PathBuf;

use p2h_core::{HyperplaneQuery, LinearScan, PointSet, SearchParams};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_engine::{
    BallTreeBuilder, BatchRequest, BcTreeBuilder, Engine, IndexRegistry, Partitioner,
    ShardIndexKind, ShardedIndexBuilder, Store, StoreError,
};

fn dataset(n: usize, dim: usize) -> PointSet {
    SyntheticDataset::new(
        "engine-store",
        n,
        dim,
        DataDistribution::GaussianClusters { clusters: 6, std_dev: 1.3 },
        71,
    )
    .generate()
    .unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("p2h-engine-store-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn engine_cold_starts_from_a_store_with_identical_answers() {
    let dir = temp_dir("cold-start");
    let ps = dataset(6_000, 12);
    let queries: Vec<HyperplaneQuery> =
        generate_queries(&ps, 48, QueryDistribution::DataDifference, 5).unwrap();
    let request = BatchRequest::new(queries, SearchParams::exact(10))
        .with_override(0, SearchParams::approximate(10, 400));

    // "Offline" process: build (in parallel), serve once for reference, snapshot.
    let ball = BallTreeBuilder::new(64).with_seed(3).build_parallel(&ps, 4).unwrap();
    let bc = BcTreeBuilder::new(64).with_seed(3).build_parallel(&ps, 4).unwrap();
    let offline = Engine::new(2);
    offline.registry().register("ball", ball.clone());
    offline.registry().register("bc", bc.clone());
    offline.registry().register("scan", LinearScan::new(ps.clone()));
    let reference: Vec<_> = offline
        .registry()
        .names()
        .iter()
        .map(|name| offline.serve(name, &request).unwrap())
        .collect();

    let store = Store::create(&dir).unwrap();
    store.save("ball", &ball).unwrap();
    store.save("bc", &bc).unwrap();
    store.save("scan", &LinearScan::new(ps.clone())).unwrap();

    // "Serving" process: cold-start purely from the directory.
    let engine = Engine::from_store(&dir, 2).unwrap();
    assert_eq!(engine.registry().names(), vec!["ball", "bc", "scan"]);
    for (name, expected) in engine.registry().names().iter().zip(&reference) {
        let served = engine.serve(name, &request).unwrap();
        assert_eq!(served.results.len(), expected.results.len());
        for (a, b) in served.results.iter().zip(&expected.results) {
            assert_eq!(a.neighbors, b.neighbors, "index {name}");
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn engine_cold_starts_a_sharded_index_from_a_shard_group() {
    let dir = temp_dir("sharded-cold-start");
    let ps = dataset(5_000, 10);
    let queries: Vec<HyperplaneQuery> =
        generate_queries(&ps, 32, QueryDistribution::DataDifference, 8).unwrap();
    let request = BatchRequest::new(queries, SearchParams::exact(10))
        .with_override(1, SearchParams::approximate(10, 500));

    // "Offline" process: build the sharded index, serve once for reference, snapshot
    // it as a shard group next to a plain index.
    let sharded = ShardedIndexBuilder::new(
        Partitioner::Hash { shards: 4 },
        ShardIndexKind::BcTree { leaf_size: 64 },
    )
    .with_seed(7)
    .build(&ps)
    .unwrap();
    let offline = Engine::new(2);
    offline.registry().register_sharded("sharded", sharded);
    offline.registry().register("scan", LinearScan::new(ps.clone()));
    let reference = offline.serve("sharded", &request).unwrap();

    let store = Store::create(&dir).unwrap();
    offline.registry().get_sharded("sharded").unwrap().save_into(&store, "sharded").unwrap();
    store.save("scan", &LinearScan::new(ps.clone())).unwrap();

    // "Serving" process: cold-start purely from the directory; both serving paths
    // (query-parallel trait path and shard-parallel executor) must answer
    // bit-identically to the offline process.
    let engine = Engine::from_store(&dir, 3).unwrap();
    assert_eq!(engine.registry().names(), vec!["scan", "sharded"]);
    assert_eq!(engine.registry().get_sharded("sharded").unwrap().shard_count(), 4);

    let served = engine.serve("sharded", &request).unwrap();
    let shard_parallel = engine.serve_sharded("sharded", &request).unwrap();
    assert_eq!(served.results.len(), reference.results.len());
    for ((a, b), c) in
        served.results.iter().zip(&reference.results).zip(&shard_parallel.batch.results)
    {
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(a.neighbors, c.neighbors);
    }
    // Per-shard telemetry is present for every shard.
    assert_eq!(shard_parallel.per_shard_latency.len(), 4);
    assert!(shard_parallel.per_shard_stats.iter().all(|s| s.candidates_verified > 0));

    // The plain index is not reachable through the sharded serving path.
    assert!(engine.serve_sharded("scan", &request).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_dir_surfaces_store_errors() {
    let dir = temp_dir("errors");
    assert!(matches!(IndexRegistry::open_dir(&dir), Err(StoreError::Io { .. })));

    // A manifest entry whose snapshot file is corrupt: loading is all-or-nothing.
    let store = Store::create(&dir).unwrap();
    let ps = dataset(500, 6);
    let path = store.save("scan", &LinearScan::new(ps)).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(IndexRegistry::open_dir(&dir), Err(StoreError::ChecksumMismatch { .. })));
    assert!(Engine::from_store(&dir, 1).is_err());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mmap_cold_start_serves_bit_identically_to_copy() {
    use p2h_store::LoadMode;
    let dir = temp_dir("mmap-cold-start");
    let ps = dataset(3_000, 10);
    let queries: Vec<HyperplaneQuery> =
        generate_queries(&ps, 24, QueryDistribution::DataDifference, 11).unwrap();
    let request = BatchRequest::new(queries, SearchParams::exact(10));

    let store = Store::create(&dir).unwrap();
    store.save("ball", &BallTreeBuilder::new(48).with_seed(7).build(&ps).unwrap()).unwrap();
    store.save("bc", &BcTreeBuilder::new(48).with_seed(7).build(&ps).unwrap()).unwrap();
    store.save("scan", &LinearScan::new(ps.clone())).unwrap();
    ShardedIndexBuilder::new(
        Partitioner::Hash { shards: 3 },
        ShardIndexKind::BcTree { leaf_size: 48 },
    )
    .with_seed(7)
    .build(&ps)
    .unwrap()
    .save_into(&store, "sharded")
    .unwrap();

    // The same store cold-started under both loaders: every served batch (including
    // the shard-parallel path) is bit-identical.
    let copy = Engine::from_store_with(&dir, 2, LoadMode::Copy).unwrap();
    let mmap = Engine::from_store_with(&dir, 2, LoadMode::Mmap).unwrap();
    assert_eq!(copy.registry().names(), mmap.registry().names());
    for name in copy.registry().names() {
        let a = copy.serve(&name, &request).unwrap();
        let b = mmap.serve(&name, &request).unwrap();
        for (x, y) in a.results.iter().zip(&b.results) {
            assert_eq!(x.neighbors.len(), y.neighbors.len(), "index {name}");
            for (m, n) in x.neighbors.iter().zip(&y.neighbors) {
                assert_eq!(m.index, n.index, "index {name}");
                assert_eq!(m.distance.to_bits(), n.distance.to_bits(), "index {name}");
            }
        }
    }
    let a = copy.serve_sharded("sharded", &request).unwrap();
    let b = mmap.serve_sharded("sharded", &request).unwrap();
    for (x, y) in a.batch.results.iter().zip(&b.batch.results) {
        assert_eq!(x.neighbors, y.neighbors);
    }

    std::fs::remove_dir_all(&dir).ok();
}
