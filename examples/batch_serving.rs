//! Batch serving with the `p2h-engine` layer: register indexes by name, serve query
//! batches in parallel, and read latency percentiles off the response.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example batch_serving
//! ```

use p2hnns::engine::{BatchRequest, Engine};
use p2hnns::{
    generate_queries, BallTreeBuilder, BcTreeBuilder, DataDistribution, LinearScan,
    QueryDistribution, SearchParams, SyntheticDataset,
};

fn main() {
    // 1. A shared synthetic data set: 50,000 points in 48 dimensions.
    let points = SyntheticDataset::new(
        "batch-serving",
        50_000,
        48,
        DataDistribution::GaussianClusters { clusters: 12, std_dev: 1.5 },
        7,
    )
    .generate()
    .expect("synthetic generation");

    // 2. Build the indexes — the trees with parallel construction — and register them
    //    under names. Registered indexes live behind `Arc`s, so any number of serving
    //    threads can search them concurrently without copies.
    let engine = Engine::new(0); // 0 = one worker per CPU
    let ball = BallTreeBuilder::new(100).build_parallel(&points, 0).expect("build Ball-Tree");
    let bc = BcTreeBuilder::new(100).build_parallel(&points, 0).expect("build BC-Tree");
    engine.registry().register("ball", ball);
    engine.registry().register("bc", bc);
    engine.registry().register("scan", LinearScan::new(points.clone()));
    println!(
        "registered indexes: {:?} ({} worker threads per batch)\n",
        engine.registry().names(),
        engine.executor().threads()
    );

    // 3. A batch of 128 hyperplane queries: mostly budgeted top-10, with two positions
    //    overridden — one exact, one with a very tight budget.
    let queries = generate_queries(&points, 128, QueryDistribution::DataDifference, 11)
        .expect("query generation");
    let request = BatchRequest::new(queries, SearchParams::approximate(10, 2_000))
        .with_override(0, SearchParams::exact(10))
        .with_override(1, SearchParams::approximate(10, 200));

    // 4. Serve the same batch from every registered index and compare.
    for name in engine.registry().names() {
        let response = engine.serve(&name, &request).expect("serve batch");
        println!(
            "{name:<5} {:>8.0} qps  p50={:.3}ms p99={:.3}ms  avg {:.0} candidates/query",
            response.throughput_qps(),
            response.latency.quantile(0.50) as f64 / 1.0e6,
            response.latency.quantile(0.99) as f64 / 1.0e6,
            response.total_stats.candidates_verified as f64 / response.results.len() as f64,
        );
    }

    // 5. The per-request overrides were honored: query 0 ran exact, query 1 with a
    //    200-candidate budget.
    let response = engine.serve("bc", &request).expect("serve batch");
    let exact = response.results[0].stats.candidates_verified;
    let tight = response.results[1].stats.candidates_verified;
    println!(
        "\noverrides: query 0 (exact) verified {exact} candidates, \
         query 1 (budget 200) verified {tight}"
    );
    assert!(tight <= 200);

    // 6. Parallel serving never changes answers: the batch result equals a direct
    //    sequential search on the same index.
    let bc = engine.registry().get("bc").expect("bc registered");
    for (i, result) in response.results.iter().enumerate() {
        let direct = bc.search(&request.queries[i], request.params_for(i));
        assert_eq!(result.neighbors, direct.neighbors);
    }
    println!("parallel batch answers verified identical to sequential search");
}
