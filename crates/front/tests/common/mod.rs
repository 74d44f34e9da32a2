//! Shared fixture for the front-end integration suites: a deterministic engine
//! carrying all three dispatchable entry kinds (plain trait-object, sharded,
//! live), plus the per-query oracle — each query answered **alone**, outside the
//! engine's dispatch policy, the exact baseline the coalescing bit-identity
//! contract is stated against.

// Each integration binary compiles its own copy of this module and uses a
// different subset of it.
#![allow(dead_code)]

use std::sync::Arc;

use p2h_core::{
    HyperplaneQuery, LinearScan, PointSet, QueryScratch, Scalar, SearchParams, SearchResult,
};
use p2h_engine::{BatchRequest, Engine, Entry};
use p2h_live::LiveIndex;
use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
use p2h_store::Store;

pub const RAW_DIM: usize = 8;

pub fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub fn unit_interval(x: &mut u64) -> Scalar {
    ((splitmix64(x) >> 11) as f64 / (1u64 << 53) as f64) as Scalar
}

pub fn synthetic_rows(n: usize, seed: u64) -> Vec<Vec<Scalar>> {
    let mut state = seed;
    (0..n).map(|_| (0..RAW_DIM).map(|_| unit_interval(&mut state) * 4.0 - 2.0).collect()).collect()
}

pub fn synthetic_queries(m: usize, seed: u64) -> Vec<(HyperplaneQuery, SearchParams)> {
    let mut state = seed ^ 0x5151_5151;
    (0..m)
        .map(|i| {
            let normal: Vec<Scalar> =
                (0..RAW_DIM).map(|_| unit_interval(&mut state) * 2.0 - 1.0).collect();
            let bias = unit_interval(&mut state) - 0.5;
            let query = HyperplaneQuery::from_normal_and_bias(&normal, bias)
                .expect("non-degenerate synthetic normal");
            let params = match i % 3 {
                0 => SearchParams::exact(10),
                1 => SearchParams::approximate(5, 64),
                _ => SearchParams::exact(3),
            };
            (query, params)
        })
        .collect()
}

/// An engine with one entry per dispatch path, plus the live store backing the
/// `"live"` entry (kept alive for the test's duration).
pub struct Fixture {
    pub engine: Arc<Engine>,
    pub queries: Vec<(HyperplaneQuery, SearchParams)>,
    store_dir: std::path::PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.store_dir).ok();
    }
}

/// Entry names the fixture registers, one per dispatch path.
pub const ENTRIES: [&str; 3] = ["plain", "sharded", "live"];

pub fn fixture(tag: &str, seed: u64, points: usize, queries: usize) -> Fixture {
    let rows = synthetic_rows(points, seed);
    let point_set = PointSet::augment(&rows).expect("non-empty rows");
    let engine = Engine::new(2);
    engine.registry().register("plain", LinearScan::new(point_set.clone()));
    engine.registry().register_sharded(
        "sharded",
        ShardedIndexBuilder::new(Partitioner::Hash { shards: 3 }, ShardIndexKind::LinearScan)
            .with_seed(seed)
            .build(&point_set)
            .expect("sharded build"),
    );
    let store_dir =
        std::env::temp_dir().join(format!("p2h-front-{tag}-{}-{seed}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    let store = Store::create(&store_dir).expect("create live store");
    let live = LiveIndex::create(&store, "live", RAW_DIM + 1).expect("create live index");
    live.insert_batch(&rows).expect("insert rows");
    engine.register_live("live", live);
    Fixture { engine: Arc::new(engine), queries: synthetic_queries(queries, seed), store_dir }
}

/// The oracle: the same query answered **alone**, bypassing `Engine::serve` and
/// its dispatch policy — plain and sharded entries through the query-parallel
/// executor on the trait-object handle, live entries through a direct
/// `LiveIndex` search — so the property compares two different execution shapes.
pub fn serve_alone(
    engine: &Engine,
    entry: &str,
    query: &HyperplaneQuery,
    params: &SearchParams,
) -> SearchResult {
    match engine.registry().entry(entry).expect("oracle entry registered") {
        Entry::Live(live) => live
            .search_with_scratch(query, params, &mut QueryScratch::new())
            .expect("oracle live search"),
        _ => {
            let index = engine.registry().get(entry).expect("oracle index registered");
            let request = BatchRequest::new(vec![query.clone()], params.clone());
            let mut response = engine.executor().execute(index.as_ref(), &request);
            response.results.pop().expect("one query, one result")
        }
    }
}

/// Bit-exact comparison: neighbor ids and raw `f32` distance bits.
pub fn assert_bits(got: &SearchResult, want: &SearchResult, context: &str) {
    assert_eq!(got.neighbors.len(), want.neighbors.len(), "{context}: neighbor count");
    for (rank, (g, w)) in got.neighbors.iter().zip(&want.neighbors).enumerate() {
        assert!(
            g.index == w.index && g.distance.to_bits() == w.distance.to_bits(),
            "{context}: rank {rank}: front ({}, {:#010x}) != alone ({}, {:#010x})",
            g.index,
            g.distance.to_bits(),
            w.index,
            w.distance.to_bits()
        );
    }
}
