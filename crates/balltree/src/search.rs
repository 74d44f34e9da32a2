//! Branch-and-bound search over the Ball-Tree (Algorithm 3 of the paper).
//!
//! The traversal is iterative (an explicit stack living in the caller's
//! [`QueryScratch`]) and leaf verification is *blocked*: each leaf's contiguous rows are
//! fed to [`kernels::abs_dot_block`] in strips, turning candidate verification into a
//! small matvec instead of `leaf_size` independent inner-product calls. The visit
//! order, pruning decisions, and statistics are identical to the recursive formulation;
//! the distances are bit-identical to [`p2h_core::LinearScan`]'s because every index
//! shares the dispatched kernels (see `p2h_core::kernels`).

use std::time::Instant;

use p2h_core::{
    kernels, BranchPreference, HyperplaneQuery, P2hIndex, QueryScratch, Scalar, SearchParams,
    SearchResult, SearchStats, LEAF_STRIP,
};

use crate::bound::node_ball_bound;
use crate::build::BallTree;
use crate::node::Node;

impl BallTree {
    /// Runs one query against the tree and returns the result with statistics.
    fn run_search(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        assert_eq!(
            query.dim(),
            self.points.dim(),
            "query dimension must match the augmented data dimension"
        );
        let start = Instant::now();
        scratch.reset(params.k);
        let QueryScratch { collector, stack, strip, .. } = scratch;

        let q = query.coeffs();
        let query_norm = query.norm();
        let dim = self.points.dim();
        let preference = params.branch_preference;
        let candidate_limit = params.candidate_limit.map_or(u64::MAX, |c| c as u64);
        let timing = params.collect_timing;
        let mut stats = SearchStats::default();

        // Resolve the buffer-backed arrays once per query: a mapped `VecBuf` pays a
        // dynamic-dispatch slice resolution per deref, which must stay out of the
        // per-node and per-candidate loops below.
        let points_flat = self.points.as_flat();
        let original_ids: &[u32] = &self.original_ids;
        let centers: &[Scalar] = &self.centers;
        let center_of = |node: &Node| {
            let start = node.center_offset as usize * dim;
            &centers[start..start + dim]
        };

        let timer = timing.then(Instant::now);
        let ip_root = kernels::dot(q, center_of(&self.nodes[0]));
        stats.inner_products += 1;
        if let Some(t) = timer {
            stats.time_bounds_ns += t.elapsed().as_nanos() as u64;
        }
        stack.push((0, ip_root));

        // Depth-first branch-and-bound: popping the preferred child first reproduces the
        // recursive visit order exactly, and the node-level bound is evaluated with the
        // threshold current at pop time — the same moment the recursion would check it.
        'traversal: while let Some((node_id, ip)) = stack.pop() {
            let node = &self.nodes[node_id as usize];
            stats.nodes_visited += 1;

            let lb = node_ball_bound(ip.abs(), query_norm, node.radius);
            if lb > collector.threshold() {
                stats.pruned_subtrees += 1;
                continue;
            }

            if node.is_leaf() {
                stats.leaves_visited += 1;
                // Blocked exhaustive scan (the `ExhaustiveScan` routine of Algorithm 3):
                // one abs_dot_block call per strip of contiguous leaf rows.
                let timer = timing.then(Instant::now);
                let mut pos = node.start as usize;
                let end = node.end as usize;
                while pos < end {
                    let budget = candidate_limit - stats.candidates_verified;
                    if budget == 0 {
                        if let Some(t) = timer {
                            stats.time_verify_ns += t.elapsed().as_nanos() as u64;
                        }
                        break 'traversal;
                    }
                    let block = (end - pos).min(LEAF_STRIP).min(budget as usize);
                    kernels::abs_dot_block(
                        q,
                        &points_flat[pos * dim..(pos + block) * dim],
                        dim,
                        &mut strip[..block],
                    );
                    stats.inner_products += block as u64;
                    stats.candidates_verified += block as u64;
                    for (i, &dist) in strip[..block].iter().enumerate() {
                        collector.offer(original_ids[pos + i] as usize, dist);
                    }
                    pos += block;
                }
                if let Some(t) = timer {
                    stats.time_verify_ns += t.elapsed().as_nanos() as u64;
                }
                continue;
            }

            // Compute the child center inner products once here; they ride on the stack
            // to the child visits, so Ball-Tree performs exactly two O(d) inner products
            // per expanded internal node (the cost model of Theorem 5). Sibling centers
            // are stored adjacently (left row immediately followed by right), so both
            // products come from one two-row blocked matvec that loads the query once;
            // per-row results are bit-identical to two separate `dot` calls.
            let timer = timing.then(Instant::now);
            let left = &self.nodes[node.left as usize];
            let right = &self.nodes[node.right as usize];
            debug_assert_eq!(right.center_offset, left.center_offset + 1);
            let pair_start = left.center_offset as usize * dim;
            let mut pair = [0.0; 2];
            kernels::dot_block(q, &centers[pair_start..pair_start + 2 * dim], dim, &mut pair);
            let (ip_left, ip_right) = (pair[0], pair[1]);
            stats.inner_products += 2;
            if let Some(t) = timer {
                stats.time_bounds_ns += t.elapsed().as_nanos() as u64;
            }

            let left_first = match preference {
                BranchPreference::Center => ip_left.abs() < ip_right.abs(),
                BranchPreference::LowerBound => {
                    node_ball_bound(ip_left.abs(), query_norm, left.radius)
                        < node_ball_bound(ip_right.abs(), query_norm, right.radius)
                }
            };
            // Push the non-preferred child first so the preferred one pops first.
            if left_first {
                stack.push((node.right, ip_right));
                stack.push((node.left, ip_left));
            } else {
                stack.push((node.left, ip_left));
                stack.push((node.right, ip_right));
            }
        }

        stats.time_total_ns = start.elapsed().as_nanos() as u64;
        SearchResult { neighbors: collector.take_sorted(), stats }
    }
}

impl P2hIndex for BallTree {
    fn name(&self) -> &'static str {
        "Ball-Tree"
    }

    fn len(&self) -> usize {
        self.points.len()
    }

    fn dim(&self) -> usize {
        self.points.dim()
    }

    fn index_size_bytes(&self) -> usize {
        self.structure_size_bytes()
    }

    fn search(&self, query: &HyperplaneQuery, params: &SearchParams) -> SearchResult {
        self.run_search(query, params, &mut QueryScratch::new())
    }

    fn search_with_scratch(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        self.run_search(query, params, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::BallTreeBuilder;
    use p2h_core::{LinearScan, PointSet};
    use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};

    fn dataset(n: usize, dim: usize, seed: u64) -> PointSet {
        SyntheticDataset::new(
            "bt-search",
            n,
            dim,
            DataDistribution::GaussianClusters { clusters: 6, std_dev: 1.5 },
            seed,
        )
        .generate()
        .unwrap()
    }

    fn queries(ps: &PointSet, count: usize) -> Vec<HyperplaneQuery> {
        generate_queries(ps, count, QueryDistribution::DataDifference, 77).unwrap()
    }

    #[test]
    fn exact_search_matches_linear_scan() {
        let ps = dataset(3_000, 12, 1);
        let tree = BallTreeBuilder::new(64).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        for (qi, q) in queries(&ps, 10).iter().enumerate() {
            for k in [1, 5, 20] {
                let exact = scan.search_exact(q, k);
                let got = tree.search_exact(q, k);
                assert_eq!(
                    got.distances(),
                    exact.distances(),
                    "query {qi}, k={k}: distances differ"
                );
            }
        }
    }

    #[test]
    fn scratch_reuse_is_identical_to_fresh_searches() {
        let ps = dataset(4_000, 16, 11);
        let tree = BallTreeBuilder::new(64).build(&ps).unwrap();
        let mut scratch = QueryScratch::new();
        for q in &queries(&ps, 12) {
            for params in [SearchParams::exact(5), SearchParams::approximate(3, 400)] {
                let fresh = tree.search(q, &params);
                let reused = tree.search_with_scratch(q, &params, &mut scratch);
                assert_eq!(fresh.neighbors, reused.neighbors);
                assert_eq!(fresh.stats.candidates_verified, reused.stats.candidates_verified);
                assert_eq!(fresh.stats.nodes_visited, reused.stats.nodes_visited);
            }
        }
    }

    #[test]
    fn exact_search_prunes_work() {
        let ps = dataset(20_000, 16, 2);
        let tree = BallTreeBuilder::new(100).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let result = tree.search_exact(q, 10);
        assert!(
            result.stats.candidates_verified < 20_000,
            "branch-and-bound should verify fewer than all points, verified {}",
            result.stats.candidates_verified
        );
        assert!(result.stats.pruned_subtrees > 0);
        assert_eq!(result.neighbors.len(), 10);
    }

    #[test]
    fn candidate_limit_bounds_verification() {
        let ps = dataset(5_000, 8, 3);
        let tree = BallTreeBuilder::new(100).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let result = tree.search(q, &SearchParams::approximate(10, 500));
        assert!(result.stats.candidates_verified <= 500);
        assert_eq!(result.neighbors.len(), 10);
    }

    #[test]
    fn larger_candidate_budget_never_hurts_recall() {
        let ps = dataset(5_000, 12, 4);
        let tree = BallTreeBuilder::new(100).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        let q = &queries(&ps, 1)[0];
        let exact: Vec<usize> = scan.search_exact(q, 10).indices();
        let recall = |limit: usize| {
            let result = tree.search(q, &SearchParams::approximate(10, limit));
            result.indices().iter().filter(|i| exact.contains(i)).count()
        };
        let small = recall(200);
        let large = recall(5_000);
        assert!(large >= small);
        assert_eq!(large, 10, "with an unlimited budget the search is exact");
    }

    #[test]
    fn both_branch_preferences_give_exact_results() {
        let ps = dataset(2_000, 8, 5);
        let tree = BallTreeBuilder::new(50).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        for q in &queries(&ps, 5) {
            let exact = scan.search_exact(q, 5);
            for pref in [BranchPreference::Center, BranchPreference::LowerBound] {
                let params = SearchParams::exact(5).with_branch_preference(pref);
                let got = tree.search(q, &params);
                assert_eq!(got.distances(), exact.distances());
            }
        }
    }

    #[test]
    fn center_preference_verifies_no_more_than_lower_bound_on_average() {
        // Section III-C argues the center preference reaches good candidates sooner.
        // With a limited budget it should therefore achieve at least comparable recall.
        let ps = dataset(10_000, 16, 6);
        let tree = BallTreeBuilder::new(100).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        let qs = queries(&ps, 20);
        let mut center_hits = 0usize;
        let mut lb_hits = 0usize;
        for q in &qs {
            let exact: Vec<usize> = scan.search_exact(q, 10).indices();
            let count = |pref| {
                let params = SearchParams::approximate(10, 1_000).with_branch_preference(pref);
                tree.search(q, &params).indices().iter().filter(|i| exact.contains(i)).count()
            };
            center_hits += count(BranchPreference::Center);
            lb_hits += count(BranchPreference::LowerBound);
        }
        assert!(
            center_hits + 10 >= lb_hits,
            "center preference should not be much worse: center={center_hits}, lb={lb_hits}"
        );
    }

    #[test]
    fn timing_collection_populates_phase_timers() {
        let ps = dataset(2_000, 8, 7);
        let tree = BallTreeBuilder::new(50).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let result = tree.search(q, &SearchParams::exact(5).with_timing());
        assert!(result.stats.time_total_ns > 0);
        assert!(result.stats.time_verify_ns > 0);
        // Without timing the phase timers stay zero.
        let untimed = tree.search_exact(q, 5);
        assert_eq!(untimed.stats.time_verify_ns, 0);
        assert_eq!(untimed.stats.time_bounds_ns, 0);
    }

    #[test]
    fn index_trait_metadata() {
        let ps = dataset(1_000, 8, 8);
        let tree = BallTreeBuilder::new(100).build(&ps).unwrap();
        assert_eq!(tree.name(), "Ball-Tree");
        assert_eq!(tree.len(), 1_000);
        assert_eq!(tree.dim(), 9);
        assert!(tree.index_size_bytes() > 0);
    }

    #[test]
    fn k_larger_than_n_returns_all_points() {
        let ps = dataset(50, 4, 9);
        let tree = BallTreeBuilder::new(10).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let result = tree.search_exact(q, 100);
        assert_eq!(result.neighbors.len(), 50);
        let d = result.distances();
        assert!(d.windows(2).all(|w| w[0] <= w[1]));
    }
}
