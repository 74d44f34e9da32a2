//! Cross-crate integration tests: every index must return the exact answer (identical to
//! the linear-scan oracle) when run without a candidate budget, across data
//! distributions, dimensions, and values of k.

use p2hnns::{
    generate_queries, BallTreeBuilder, BcTreeBuilder, BcTreeVariant, DataDistribution, FhIndex,
    FhParams, LinearScan, NhIndex, NhParams, P2hIndex, PointSet, QueryDistribution, SearchParams,
    SyntheticDataset,
};

fn dataset(distribution: DataDistribution, n: usize, dim: usize, seed: u64) -> PointSet {
    SyntheticDataset::new("integration", n, dim, distribution, seed).generate().unwrap()
}

fn all_distributions() -> Vec<DataDistribution> {
    vec![
        DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.0 },
        DataDistribution::Correlated { rank: 3, noise: 0.3 },
        DataDistribution::Uniform { scale: 5.0 },
        DataDistribution::HeavyTailedNorms { mu: 0.5, sigma: 0.8 },
    ]
}

#[test]
fn trees_are_exact_on_every_distribution() {
    for (d_idx, distribution) in all_distributions().into_iter().enumerate() {
        let points = dataset(distribution, 1_500, 10, 100 + d_idx as u64);
        let queries = generate_queries(&points, 6, QueryDistribution::DataDifference, 5).unwrap();
        let scan = LinearScan::new(points.clone());
        let ball = BallTreeBuilder::new(50).build(&points).unwrap();
        let bc = BcTreeBuilder::new(50).build(&points).unwrap();
        for (qi, q) in queries.iter().enumerate() {
            for k in [1, 7, 25] {
                let exact = scan.search_exact(q, k);
                assert_eq!(
                    ball.search_exact(q, k).distances(),
                    exact.distances(),
                    "Ball-Tree mismatch: distribution {d_idx}, query {qi}, k={k}"
                );
                assert_eq!(
                    bc.search_exact(q, k).distances(),
                    exact.distances(),
                    "BC-Tree mismatch: distribution {d_idx}, query {qi}, k={k}"
                );
            }
        }
    }
}

#[test]
fn hashing_baselines_are_exact_with_unlimited_budget() {
    let points =
        dataset(DataDistribution::GaussianClusters { clusters: 3, std_dev: 1.5 }, 900, 8, 7);
    let queries = generate_queries(&points, 4, QueryDistribution::DataDifference, 9).unwrap();
    let scan = LinearScan::new(points.clone());
    let nh = NhIndex::build(&points, NhParams::new(2, 8)).unwrap();
    let fh = FhIndex::build(&points, FhParams::new(2, 8, 3)).unwrap();
    for q in &queries {
        let exact = scan.search_exact(q, 10);
        assert_eq!(nh.search_exact(q, 10).distances(), exact.distances(), "NH");
        assert_eq!(fh.search_exact(q, 10).distances(), exact.distances(), "FH");
    }
}

#[test]
fn every_index_kind_honours_the_collectors_exclusion_filter() {
    use p2hnns::core::{IdBitset, QueryScratch};

    let points =
        dataset(DataDistribution::GaussianClusters { clusters: 3, std_dev: 1.5 }, 900, 8, 7);
    let queries = generate_queries(&points, 4, QueryDistribution::DataDifference, 9).unwrap();
    let scan = LinearScan::new(points.clone());
    let indexes: Vec<Box<dyn P2hIndex>> = vec![
        Box::new(scan.clone()),
        Box::new(BallTreeBuilder::new(50).build(&points).unwrap()),
        Box::new(BcTreeBuilder::new(50).build(&points).unwrap()),
        Box::new(NhIndex::build(&points, NhParams::new(2, 8)).unwrap()),
        Box::new(FhIndex::build(&points, FhParams::new(2, 8, 3)).unwrap()),
    ];
    let mut scratch = QueryScratch::new();
    for q in &queries {
        // Exclude each query's exact top-5 and every 9th point.
        let excluded: IdBitset = scan
            .search_exact(q, 5)
            .indices()
            .into_iter()
            .chain((0..points.len()).step_by(9))
            .collect();
        let survivors: Vec<f32> = scan
            .search_exact(q, points.len())
            .neighbors
            .iter()
            .filter(|n| !excluded.contains(n.index))
            .take(10)
            .map(|n| n.distance)
            .collect();
        for index in &indexes {
            scratch.collector.set_excluded(&excluded);
            let got = index.search_with_scratch(q, &SearchParams::exact(10), &mut scratch);
            assert!(got.indices().iter().all(|&i| !excluded.contains(i)), "{}", index.name());
            assert_eq!(got.distances(), survivors, "{}", index.name());
        }
    }
}

#[test]
fn bc_tree_variants_agree_on_exact_results() {
    let points = dataset(DataDistribution::Correlated { rank: 4, noise: 0.2 }, 2_000, 12, 17);
    let queries = generate_queries(&points, 5, QueryDistribution::RandomNormal, 21).unwrap();
    let bc = BcTreeBuilder::new(80).build(&points).unwrap();
    for q in &queries {
        let reference = bc.search_variant(q, &SearchParams::exact(15), BcTreeVariant::Full);
        for variant in
            [BcTreeVariant::WithoutCone, BcTreeVariant::WithoutBall, BcTreeVariant::WithoutBoth]
        {
            let got = bc.search_variant(q, &SearchParams::exact(15), variant);
            assert_eq!(got.distances(), reference.distances(), "variant {variant:?}");
        }
    }
}

#[test]
fn different_leaf_sizes_do_not_change_exact_answers() {
    let points =
        dataset(DataDistribution::GaussianClusters { clusters: 5, std_dev: 2.0 }, 3_000, 16, 23);
    let queries = generate_queries(&points, 4, QueryDistribution::DataDifference, 31).unwrap();
    let scan = LinearScan::new(points.clone());
    for leaf_size in [10, 100, 1_000, 5_000] {
        let bc = BcTreeBuilder::new(leaf_size).build(&points).unwrap();
        for q in &queries {
            assert_eq!(
                bc.search_exact(q, 10).distances(),
                scan.search_exact(q, 10).distances(),
                "leaf size {leaf_size}"
            );
        }
    }
}

#[test]
fn raw_queries_and_augmented_points_are_consistent() {
    // End-to-end sanity of the dimension conventions: the distance reported by the index
    // for the winning point matches the raw point-to-hyperplane formula (Equation 1).
    let raw_rows: Vec<Vec<f32>> = (0..500)
        .map(|i| vec![(i % 23) as f32 * 0.3, (i % 7) as f32 - 3.0, i as f32 * 0.01])
        .collect();
    let points = PointSet::augment(&raw_rows).unwrap();
    let bc = BcTreeBuilder::new(32).build(&points).unwrap();
    let query = p2hnns::HyperplaneQuery::from_normal_and_bias(&[0.5, -1.0, 2.0], 0.7).unwrap();
    let result = bc.search_exact(&query, 1);
    let winner = result.neighbors[0];
    let direct = query.p2h_distance_raw(&raw_rows[winner.index]);
    assert!((winner.distance - direct).abs() < 1e-4);
    // And no other point is closer.
    for row in &raw_rows {
        assert!(query.p2h_distance_raw(row) + 1e-5 >= winner.distance);
    }
}
