//! Base tombstones cost the exact search nothing it would not pay anyway.
//!
//! Layered search hands the base tombstones to the top-k collector as an exclusion
//! filter and searches the base with plain `k`. Two consequences are pinned here on
//! a 20k-point Ball-Tree base:
//!
//! * tombstoning points that could never enter a query's top-k leaves that query's
//!   traversal exactly as it was (same nodes visited, same candidates verified) —
//!   the search does not overfetch by the tombstone count;
//! * tombstoning a query's own top-50 still gives answers bit-identical to a
//!   `LinearScan` over the live points, before and after a reopen (WAL replay
//!   rebuilds the tombstones) and after compaction folds them away.

use std::path::PathBuf;

use p2h_core::{
    HyperplaneQuery, LinearScan, P2hIndex, PointSet, Scalar, SearchParams, SearchResult,
};
use p2h_live::LiveIndex;
use p2h_store::Store;

const N: usize = 20_000;
const RAW_DIM: usize = 3;

/// Deterministic uniform points in `[-1, 1)^RAW_DIM` (splitmix64).
fn raw_points(seed: u64) -> Vec<Vec<Scalar>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 40) as Scalar / (1u64 << 23) as Scalar - 1.0
    };
    (0..N).map(|_| (0..RAW_DIM).map(|_| next()).collect()).collect()
}

fn query() -> HyperplaneQuery {
    let normal: Vec<Scalar> = (0..RAW_DIM).map(|i| 1.0 - 0.2 * i as Scalar).collect();
    HyperplaneQuery::from_normal_and_bias(&normal, 0.3).expect("query")
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("p2h-live-{tag}-{}", std::process::id()))
}

/// A live entry whose whole content is one compacted Ball-Tree base.
fn base_only_entry(store: &Store) -> LiveIndex {
    let live = LiveIndex::create(store, "pool", RAW_DIM + 1).expect("create live index");
    live.insert_batch(&raw_points(11)).expect("insert");
    live.compact().expect("compact into a Ball-Tree base");
    assert_eq!(live.memtable_len(), 0);
    live
}

/// Live point ids sorted by the total `(distance, id)` order for `query`.
fn ids_by_distance(live: &LiveIndex, query: &HyperplaneQuery) -> Vec<u32> {
    let points = live.live_points();
    let rows: Vec<Vec<Scalar>> = points.iter().map(|(_, x)| x.clone()).collect();
    let scan = LinearScan::new(PointSet::from_rows(&rows).expect("rows"));
    let all = scan.search(query, &SearchParams::exact(points.len()));
    all.neighbors.iter().map(|n| points[n.index].0).collect()
}

/// `(global id, distance bits)` pairs of a `LinearScan` over the live points.
fn oracle(live: &LiveIndex, query: &HyperplaneQuery, k: usize) -> Vec<(usize, u32)> {
    let points = live.live_points();
    let rows: Vec<Vec<Scalar>> = points.iter().map(|(_, x)| x.clone()).collect();
    let scan = LinearScan::new(PointSet::from_rows(&rows).expect("rows"));
    let result = scan.search(query, &SearchParams::exact(k));
    result.neighbors.iter().map(|n| (points[n.index].0 as usize, n.distance.to_bits())).collect()
}

fn answer(result: &SearchResult) -> Vec<(usize, u32)> {
    result.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect()
}

#[test]
fn far_tombstones_leave_the_traversal_unchanged() {
    let dir = temp_dir("far-tombs");
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).expect("create store");
    let live = base_only_entry(&store);
    let q = query();
    let before = live.search_exact(&q, 10).expect("search");

    let by_distance = ids_by_distance(&live, &q);
    for &id in by_distance.iter().rev().take(1_000) {
        live.delete(id).expect("delete");
    }
    let after = live.search_exact(&q, 10).expect("search");
    std::fs::remove_dir_all(&dir).ok();

    assert_eq!(answer(&after), answer(&before), "far points never were in the top-10");
    assert_eq!(
        (after.stats.nodes_visited, after.stats.candidates_verified),
        (before.stats.nodes_visited, before.stats.candidates_verified),
        "1,000 far tombstones changed the base traversal: the search overfetched"
    );
}

#[test]
fn tombstoned_top_50_stays_bit_identical_across_reopen_and_compaction() {
    let dir = temp_dir("near-tombs");
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).expect("create store");
    let live = base_only_entry(&store);
    let q = query();
    for &id in ids_by_distance(&live, &q).iter().take(50) {
        live.delete(id).expect("delete");
    }

    let check = |live: &LiveIndex, stage: &str| {
        for k in [1, 10] {
            let got = answer(&live.search_exact(&q, k).expect("search"));
            assert_eq!(got, oracle(live, &q, k), "{stage}, k={k}");
        }
    };
    check(&live, "before reopen");
    drop(live);
    let live = LiveIndex::open(&Store::open(&dir).expect("reopen store"), "pool").expect("reopen");
    check(&live, "after reopen");
    live.compact().expect("compact");
    check(&live, "after compaction");
    std::fs::remove_dir_all(&dir).ok();
}
