//! Engine determinism: parallel batch execution must return results bit-identical to
//! sequential per-query execution, for every index type and thread count.

use p2h_core::{HyperplaneQuery, LinearScan, P2hIndex, PointSet, SearchParams};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_engine::{BallTreeBuilder, BatchExecutor, BatchRequest, BcTreeBuilder, Engine};

fn setup() -> (PointSet, Vec<HyperplaneQuery>) {
    let points = SyntheticDataset::new(
        "engine-determinism",
        4_000,
        16,
        DataDistribution::GaussianClusters { clusters: 6, std_dev: 1.5 },
        91,
    )
    .generate()
    .unwrap();
    let queries = generate_queries(&points, 32, QueryDistribution::DataDifference, 7).unwrap();
    (points, queries)
}

#[test]
fn parallel_batches_match_sequential_search_for_every_index() {
    let (points, queries) = setup();
    let scan = LinearScan::new(points.clone());
    let ball = BallTreeBuilder::new(64).build_parallel(&points, 4).unwrap();
    let bc = BcTreeBuilder::new(64).build_parallel(&points, 4).unwrap();
    let indexes: [(&dyn P2hIndex, &str); 3] =
        [(&scan, "Linear-Scan"), (&ball, "Ball-Tree"), (&bc, "BC-Tree")];

    let request = BatchRequest::new(queries.clone(), SearchParams::exact(10))
        .with_override(0, SearchParams::approximate(10, 300))
        .with_override(17, SearchParams::exact(3));

    for (index, label) in indexes {
        // Sequential reference: call the index directly, one query at a time.
        let reference: Vec<_> =
            (0..queries.len()).map(|i| index.search(&queries[i], request.params_for(i))).collect();
        for threads in [1, 2, 4, 8] {
            let response = BatchExecutor::new(threads).execute(index, &request);
            assert_eq!(response.results.len(), reference.len(), "{label}, threads={threads}");
            for (qi, (got, want)) in response.results.iter().zip(reference.iter()).enumerate() {
                assert_eq!(
                    got.neighbors, want.neighbors,
                    "{label}, threads={threads}, query {qi}: neighbors differ"
                );
                assert_eq!(
                    got.stats.candidates_verified, want.stats.candidates_verified,
                    "{label}, threads={threads}, query {qi}: work counters differ"
                );
            }
        }
    }
}

#[test]
fn engine_serve_matches_direct_execution() {
    let (points, queries) = setup();
    let engine = Engine::new(4);
    engine.registry().register("bc", BcTreeBuilder::new(100).build(&points).unwrap());

    let request = BatchRequest::new(queries.clone(), SearchParams::exact(5));
    let via_engine = engine.serve("bc", &request).unwrap();

    let direct = engine.registry().get("bc").unwrap();
    let reference: Vec<_> =
        queries.iter().map(|q| direct.search(q, &SearchParams::exact(5))).collect();
    for (got, want) in via_engine.results.iter().zip(reference.iter()) {
        assert_eq!(got.neighbors, want.neighbors);
    }
    assert_eq!(via_engine.latency.count(), queries.len() as u64);
    assert!(via_engine.total_stats.candidates_verified > 0);
}

#[test]
fn parallel_built_trees_answer_exactly() {
    // Indexes built in parallel are plugged into a parallel batch: the full concurrent
    // path must still reproduce the linear-scan oracle exactly.
    let (points, queries) = setup();
    let scan = LinearScan::new(points.clone());
    let bc = BcTreeBuilder::new(64).build_parallel(&points, 0).unwrap();
    let request = BatchRequest::new(queries.clone(), SearchParams::exact(10));
    let response = BatchExecutor::new(0).execute(&bc, &request);
    for (qi, (got, q)) in response.results.iter().zip(queries.iter()).enumerate() {
        let exact = scan.search_exact(q, 10);
        assert_eq!(got.distances(), exact.distances(), "query {qi}");
    }
}
