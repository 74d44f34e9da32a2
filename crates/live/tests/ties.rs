//! Exact answers must not depend on visit order when distances tie.
//!
//! A 40×40 integer grid queried with axis-aligned hyperplanes through half-integers
//! puts whole grid columns (or rows) at exactly the same distance, with every
//! distance exactly representable. The top-k under the total `(distance, id)` order
//! is then a unique set that a tree reaches in a very different order than a scan
//! does, so any "first offered wins" tie rule or `lb >= λ` prune shows up as wrong
//! ids. `LinearScan`, the Ball-Tree at three leaf sizes, and a live entry over a
//! Ball-Tree base (with a memtable and tombstones on both tiers) must all match a
//! full sort.

use std::path::PathBuf;

use p2h_balltree::BallTreeBuilder;
use p2h_core::{HyperplaneQuery, LinearScan, Neighbor, P2hIndex, PointSet, Scalar, SearchResult};
use p2h_live::LiveIndex;
use p2h_store::Store;

const SIDE: usize = 40;
const KS: [usize; 4] = [1, 5, 41, 79];

/// `(id, distance bits)` — the exact comparison currency.
type Answer = Vec<(usize, u32)>;

fn answer(result: &SearchResult) -> Answer {
    result.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect()
}

/// Raw grid rows in id order: id `i * SIDE + j` is the point `(i, j)`.
fn grid() -> Vec<Vec<Scalar>> {
    (0..SIDE * SIDE).map(|id| vec![(id / SIDE) as Scalar, (id % SIDE) as Scalar]).collect()
}

/// `x = c + ½` and `y = c + ½` for every gap between grid lines.
fn queries() -> Vec<HyperplaneQuery> {
    let mut out = Vec::new();
    for c in 0..SIDE - 1 {
        let offset = -(c as Scalar + 0.5);
        for normal in [[1.0, 0.0], [0.0, 1.0]] {
            out.push(HyperplaneQuery::from_normal_and_bias(&normal, offset).expect("query"));
        }
    }
    out
}

/// The oracle: every `(id, point)` sorted by the total `Neighbor` order.
fn full_sort(points: &[(usize, Vec<Scalar>)], query: &HyperplaneQuery, k: usize) -> Answer {
    let mut all: Vec<Neighbor> =
        points.iter().map(|(id, x)| Neighbor::new(*id, query.p2h_distance(x))).collect();
    all.sort_unstable();
    all.truncate(k);
    all.iter().map(|n| (n.index, n.distance.to_bits())).collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("p2h-live-{tag}-{}", std::process::id()))
}

#[test]
fn tied_distances_resolve_to_the_smaller_id_in_every_index() {
    let raw = grid();
    let points = PointSet::augment(&raw).expect("grid");
    let all: Vec<(usize, Vec<Scalar>)> =
        (0..points.len()).map(|i| (i, points.point(i).to_vec())).collect();
    let queries = queries();

    let scan = LinearScan::new(points.clone());
    let trees: Vec<(usize, p2h_balltree::BallTree)> = [4, 16, 64]
        .into_iter()
        .map(|leaf| (leaf, BallTreeBuilder::new(leaf).with_seed(7).build(&points).expect("tree")))
        .collect();
    let mut mismatches = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        for k in KS {
            let expected = full_sort(&all, q, k);
            if answer(&scan.search_exact(q, k)) != expected {
                mismatches.push(format!("LinearScan q{qi} k={k}"));
            }
            for (leaf, tree) in &trees {
                if answer(&tree.search_exact(q, k)) != expected {
                    mismatches.push(format!("Ball-Tree leaf {leaf} q{qi} k={k}"));
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "{} tied answers differ: {:?}", mismatches.len(), mismatches);
}

#[test]
fn tied_distances_resolve_to_the_smaller_id_in_a_live_entry() {
    let raw = grid();
    let dir = temp_dir("ties");
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).expect("create store");
    let live = LiveIndex::create(&store, "grid", 3).expect("create live index");
    // Three quarters of the grid in a compacted Ball-Tree base and the rest in the
    // memtable; checked before and after a tombstone pattern that cuts through both
    // tiers.
    let split = SIDE * SIDE * 3 / 4;
    live.insert_batch(&raw[..split]).expect("insert base rows");
    live.compact().expect("compact into a Ball-Tree base");
    live.insert_batch(&raw[split..]).expect("insert memtable rows");
    let mut mismatches = Vec::new();
    let mut check = |live: &LiveIndex, stage: &str| {
        let live_points: Vec<(usize, Vec<Scalar>)> =
            live.live_points().into_iter().map(|(id, x)| (id as usize, x)).collect();
        for (qi, q) in queries().iter().enumerate() {
            for k in KS {
                let got = answer(&live.search_exact(q, k).expect("live search"));
                if got != full_sort(&live_points, q, k) {
                    mismatches.push(format!("live {stage} q{qi} k={k}"));
                }
            }
        }
    };
    check(&live, "without tombstones");
    for id in (0..SIDE * SIDE).filter(|id| id % 7 == 3) {
        live.delete(id as u32).expect("delete");
    }
    check(&live, "with tombstones");
    std::fs::remove_dir_all(&dir).ok();
    assert!(mismatches.is_empty(), "{} tied answers differ: {:?}", mismatches.len(), mismatches);
}
