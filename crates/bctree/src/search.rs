//! BC-Tree search (Algorithm 5 of the paper): collaborative inner-product computing at
//! internal nodes and point-level (ball + cone) pruning inside the leaves.
//!
//! Like the Ball-Tree, the traversal is iterative (explicit stack in the caller's
//! [`QueryScratch`]) and leaf verification is blocked. Point-level pruning is applied at
//! **strip granularity**: for each strip of up to [`LEAF_STRIP`] leaf rows, the bounds
//! are evaluated against the threshold `q.λ` as of the strip start, the surviving rows
//! are verified (through one [`kernels::abs_dot_block`] matvec when the whole strip
//! survives, per-row kernels otherwise — bit-identical either way), and `q.λ` is
//! refreshed between strips. Because the bounds are true lower bounds, pruning with a
//! slightly stale (i.e. larger or equal) threshold only ever verifies *extra* points —
//! never skips a point that could enter the top-k — so exactness is preserved while the
//! verification loop becomes a matvec.

use std::time::Instant;

use p2h_balltree::bound::node_ball_bound;
use p2h_balltree::Node;
use p2h_core::{
    kernels, BranchPreference, HyperplaneQuery, P2hIndex, QueryScratch, SearchParams, SearchResult,
    SearchStats, LEAF_STRIP,
};

use crate::bounds::{point_ball_bound, point_cone_bound, query_decomposition};
use crate::build::BcTree;
use crate::BcTreeVariant;

impl BcTree {
    /// Runs one query with an explicit ablation [`BcTreeVariant`] (Figure 8).
    pub fn search_variant(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        variant: BcTreeVariant,
    ) -> SearchResult {
        self.run_search(query, params, variant, &mut QueryScratch::new())
    }

    /// Scratch-reusing twin of [`BcTree::search_variant`].
    pub fn search_variant_with_scratch(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        variant: BcTreeVariant,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        self.run_search(query, params, variant, scratch)
    }

    fn run_search(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        variant: BcTreeVariant,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        assert_eq!(
            query.dim(),
            self.points.dim(),
            "query dimension must match the augmented data dimension"
        );
        let start = Instant::now();
        scratch.reset(params.k);
        let QueryScratch { collector, stack, strip, keep } = scratch;

        let q = query.coeffs();
        let query_norm = query.norm();
        let dim = self.points.dim();
        let preference = params.branch_preference;
        let candidate_limit = params.candidate_limit.map_or(u64::MAX, |c| c as u64);
        let timing = params.collect_timing;
        let mut stats = SearchStats::default();

        // Resolve the buffer-backed center array once per query: a mapped `VecBuf`
        // pays a dynamic-dispatch slice resolution per deref, which must stay out of
        // the per-node loop below.
        let centers: &[p2h_core::Scalar] = &self.centers;
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
                let exhausted = self.scan_leaf(ScanLeaf {
                    node_idx: node_id as usize,
                    node,
                    ip_node: ip,
                    q,
                    query_norm,
                    dim,
                    variant,
                    candidate_limit,
                    timing,
                    collector,
                    strip,
                    keep,
                    stats: &mut stats,
                });
                if exhausted {
                    break 'traversal;
                }
                continue;
            }

            // Collaborative inner-product computing (Lemma 2): one O(d) inner product
            // for the left child, O(1) arithmetic for the right child.
            let timer = timing.then(Instant::now);
            let left = &self.nodes[node.left as usize];
            let right = &self.nodes[node.right as usize];
            let ip_left = kernels::dot(q, center_of(left));
            stats.inner_products += 1;
            let size = node.size() as p2h_core::Scalar;
            let size_l = left.size() as p2h_core::Scalar;
            let size_r = right.size() as p2h_core::Scalar;
            let ip_right = (size / size_r) * ip - (size_l / size_r) * ip_left;
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

    /// The `ScanWithPruning` routine of Algorithm 5 at strip granularity.
    ///
    /// Returns `true` when the candidate budget was exhausted (the traversal stops).
    fn scan_leaf(&self, args: ScanLeaf<'_, '_>) -> bool {
        let ScanLeaf {
            node_idx,
            node,
            ip_node,
            q,
            query_norm,
            dim,
            variant,
            candidate_limit,
            timing,
            collector,
            strip,
            keep,
            stats,
        } = args;

        // Per-leaf buffer resolution (see the traversal: derefs of mapped buffers
        // must not happen per candidate).
        let points_flat = self.points.as_flat();
        let original_ids: &[u32] = &self.original_ids;

        let bounds_timer = timing.then(Instant::now);
        let center_norm = self.center_norms[node_idx];
        let (q_cos, q_sin) = query_decomposition(ip_node, center_norm, query_norm);
        let abs_ip = ip_node.abs();
        if let Some(t) = bounds_timer {
            stats.time_bounds_ns += t.elapsed().as_nanos() as u64;
        }

        let mut pos = node.start as usize;
        let end = node.end as usize;
        while pos < end {
            if stats.candidates_verified >= candidate_limit {
                return true;
            }
            let strip_end = end.min(pos + LEAF_STRIP);
            let lambda = collector.threshold();

            // Phase 1: point-level bounds for the whole strip against the strip-start
            // threshold. Survivors are recorded; a ball-bound hit prunes the entire
            // remaining leaf (points are sorted by descending r_x, so every later point
            // has an equal-or-larger bound).
            let timer = timing.then(Instant::now);
            let mut kept = 0usize;
            let mut suffix_pruned = false;
            for p in pos..strip_end {
                let aux = self.aux[p];
                if variant.uses_ball_bound() {
                    let lb_ball = point_ball_bound(abs_ip, query_norm, aux.radius);
                    if lb_ball > lambda {
                        stats.pruned_by_ball_bound += (end - p) as u64;
                        suffix_pruned = true;
                        break;
                    }
                }
                if variant.uses_cone_bound() {
                    let lb_cone = point_cone_bound(q_cos, q_sin, aux.x_cos, aux.x_sin);
                    if lb_cone > lambda {
                        stats.pruned_by_cone_bound += 1;
                        continue;
                    }
                }
                keep[kept] = p as u32;
                kept += 1;
            }
            if let Some(t) = timer {
                stats.time_bounds_ns += t.elapsed().as_nanos() as u64;
            }

            // Phase 2: verify the survivors, capped by the remaining candidate budget.
            let budget = candidate_limit - stats.candidates_verified;
            let take = kept.min(budget.min(usize::MAX as u64) as usize);
            let timer = timing.then(Instant::now);
            if take > 0 {
                let full_strip = kept == strip_end - pos && !suffix_pruned;
                if full_strip && take == kept {
                    // Nothing pruned: verify the contiguous strip as one matvec.
                    kernels::abs_dot_block(
                        q,
                        &points_flat[pos * dim..strip_end * dim],
                        dim,
                        &mut strip[..take],
                    );
                    for (i, &dist) in strip[..take].iter().enumerate() {
                        collector.offer(original_ids[pos + i] as usize, dist);
                    }
                } else {
                    // Holes from pruning (or a trimmed budget): verify survivors with
                    // the single-row kernel, which is bit-identical per row.
                    for &p in &keep[..take] {
                        let p = p as usize;
                        let dist = kernels::abs_dot(&points_flat[p * dim..(p + 1) * dim], q);
                        collector.offer(original_ids[p] as usize, dist);
                    }
                }
                stats.inner_products += take as u64;
                stats.candidates_verified += take as u64;
            }
            if let Some(t) = timer {
                stats.time_verify_ns += t.elapsed().as_nanos() as u64;
            }

            if take < kept {
                return true; // Budget ran out mid-strip.
            }
            if suffix_pruned {
                return false; // Rest of the leaf is ball-bound-pruned; leaf done.
            }
            pos = strip_end;
        }
        false
    }
}

/// Argument bundle for [`BcTree::scan_leaf`] (avoids a dozen positional parameters).
struct ScanLeaf<'a, 'b> {
    node_idx: usize,
    node: &'a Node,
    ip_node: p2h_core::Scalar,
    q: &'a [p2h_core::Scalar],
    query_norm: p2h_core::Scalar,
    dim: usize,
    variant: BcTreeVariant,
    candidate_limit: u64,
    timing: bool,
    collector: &'b mut p2h_core::TopKCollector,
    strip: &'b mut [p2h_core::Scalar; LEAF_STRIP],
    keep: &'b mut [u32; LEAF_STRIP],
    stats: &'b mut SearchStats,
}

/// A borrowed view of a [`BcTree`] that answers queries with a fixed ablation
/// [`BcTreeVariant`], so the variants can be used anywhere a [`P2hIndex`] is expected
/// (e.g. the evaluation harness for Figure 8).
#[derive(Debug, Clone, Copy)]
pub struct BcTreeVariantView<'a> {
    tree: &'a BcTree,
    variant: BcTreeVariant,
}

impl BcTree {
    /// Returns a view of this tree that searches with the given ablation variant.
    pub fn with_variant(&self, variant: BcTreeVariant) -> BcTreeVariantView<'_> {
        BcTreeVariantView { tree: self, variant }
    }
}

impl P2hIndex for BcTreeVariantView<'_> {
    fn name(&self) -> &'static str {
        self.variant.label()
    }

    fn len(&self) -> usize {
        self.tree.len()
    }

    fn dim(&self) -> usize {
        self.tree.dim()
    }

    fn index_size_bytes(&self) -> usize {
        self.tree.index_size_bytes()
    }

    fn search(&self, query: &HyperplaneQuery, params: &SearchParams) -> SearchResult {
        self.tree.search_variant(query, params, self.variant)
    }

    fn search_with_scratch(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        self.tree.search_variant_with_scratch(query, params, self.variant, scratch)
    }
}

impl P2hIndex for BcTree {
    fn name(&self) -> &'static str {
        "BC-Tree"
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
        self.search_variant(query, params, BcTreeVariant::Full)
    }

    fn search_with_scratch(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        self.search_variant_with_scratch(query, params, BcTreeVariant::Full, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::BcTreeBuilder;
    use p2h_balltree::BallTreeBuilder;
    use p2h_core::{LinearScan, PointSet};
    use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};

    fn dataset(n: usize, dim: usize, seed: u64) -> PointSet {
        SyntheticDataset::new(
            "bc-search",
            n,
            dim,
            DataDistribution::GaussianClusters { clusters: 6, std_dev: 1.5 },
            seed,
        )
        .generate()
        .unwrap()
    }

    fn queries(ps: &PointSet, count: usize) -> Vec<HyperplaneQuery> {
        generate_queries(ps, count, QueryDistribution::DataDifference, 123).unwrap()
    }

    #[test]
    fn exact_search_matches_linear_scan_for_all_variants() {
        let ps = dataset(3_000, 12, 1);
        let tree = BcTreeBuilder::new(64).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        for (qi, q) in queries(&ps, 8).iter().enumerate() {
            for k in [1, 10] {
                let exact = scan.search_exact(q, k);
                for variant in [
                    BcTreeVariant::Full,
                    BcTreeVariant::WithoutCone,
                    BcTreeVariant::WithoutBall,
                    BcTreeVariant::WithoutBoth,
                ] {
                    let got = tree.search_variant(q, &SearchParams::exact(k), variant);
                    assert_eq!(
                        got.distances(),
                        exact.distances(),
                        "query {qi}, k={k}, variant {variant:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_identical_to_fresh_searches() {
        let ps = dataset(4_000, 12, 12);
        let tree = BcTreeBuilder::new(64).build(&ps).unwrap();
        let mut scratch = QueryScratch::new();
        for q in &queries(&ps, 10) {
            for params in [SearchParams::exact(7), SearchParams::approximate(5, 300)] {
                let fresh = tree.search(q, &params);
                let reused = tree.search_with_scratch(q, &params, &mut scratch);
                assert_eq!(fresh.neighbors, reused.neighbors);
                assert_eq!(fresh.stats.candidates_verified, reused.stats.candidates_verified);
            }
        }
    }

    #[test]
    fn point_level_pruning_reduces_verification() {
        let ps = dataset(20_000, 16, 2);
        let tree = BcTreeBuilder::new(200).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let full = tree.search_variant(q, &SearchParams::exact(10), BcTreeVariant::Full);
        let none = tree.search_variant(q, &SearchParams::exact(10), BcTreeVariant::WithoutBoth);
        assert_eq!(full.distances(), none.distances(), "pruning must not change the answer");
        assert!(
            full.stats.candidates_verified <= none.stats.candidates_verified,
            "point-level pruning should not increase verification: {} vs {}",
            full.stats.candidates_verified,
            none.stats.candidates_verified
        );
        assert!(
            full.stats.pruned_by_ball_bound + full.stats.pruned_by_cone_bound > 0,
            "the point-level bounds should prune something on clustered data"
        );
    }

    #[test]
    fn collaborative_ip_roughly_halves_center_inner_products() {
        // Theorem 5: BC-Tree spends about half the O(d) center inner products a Ball-Tree
        // spends on the same traversal. The traversal order is identical (same splits,
        // same preference), so compare the `inner_products` spent on internal nodes,
        // i.e. total minus candidate verifications.
        let ps = dataset(10_000, 16, 3);
        let bc = BcTreeBuilder::new(100).with_seed(5).build(&ps).unwrap();
        let ball = BallTreeBuilder::new(100).with_seed(5).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        // Disable point-level pruning so both trees verify identical candidate sets.
        let bc_result = bc.search_variant(q, &SearchParams::exact(10), BcTreeVariant::WithoutBoth);
        let ball_result = ball.search_exact(q, 10);
        assert_eq!(bc_result.distances(), ball_result.distances());
        let bc_center_ips = bc_result.stats.inner_products - bc_result.stats.candidates_verified;
        let ball_center_ips =
            ball_result.stats.inner_products - ball_result.stats.candidates_verified;
        assert!(
            bc_center_ips <= ball_center_ips / 2 + 1,
            "collaborative computing should halve center inner products: bc={bc_center_ips}, ball={ball_center_ips}"
        );
    }

    #[test]
    fn candidate_limit_is_respected() {
        let ps = dataset(5_000, 8, 4);
        let tree = BcTreeBuilder::new(100).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        for limit in [100, 500, 2_000] {
            let result = tree.search(q, &SearchParams::approximate(10, limit));
            assert!(result.stats.candidates_verified <= limit as u64);
        }
    }

    #[test]
    fn recall_improves_with_budget() {
        let ps = dataset(8_000, 12, 5);
        let tree = BcTreeBuilder::new(100).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        let qs = queries(&ps, 10);
        let mut small_hits = 0;
        let mut large_hits = 0;
        for q in &qs {
            let exact: Vec<usize> = scan.search_exact(q, 10).indices();
            let hits = |limit| {
                tree.search(q, &SearchParams::approximate(10, limit))
                    .indices()
                    .iter()
                    .filter(|i| exact.contains(i))
                    .count()
            };
            small_hits += hits(200);
            large_hits += hits(4_000);
        }
        assert!(large_hits >= small_hits);
        // Half the data set as candidate budget should recover the large majority of the
        // exact top-10 (the branch-and-bound order visits promising leaves first).
        assert!(
            large_hits as f64 >= 0.7 * (10 * qs.len()) as f64,
            "large-budget recall too low: {large_hits}/{}",
            10 * qs.len()
        );
    }

    #[test]
    fn both_branch_preferences_are_exact() {
        let ps = dataset(2_000, 8, 6);
        let tree = BcTreeBuilder::new(50).build(&ps).unwrap();
        let scan = LinearScan::new(ps.clone());
        for q in &queries(&ps, 5) {
            let exact = scan.search_exact(q, 5);
            for pref in [BranchPreference::Center, BranchPreference::LowerBound] {
                let got = tree.search(q, &SearchParams::exact(5).with_branch_preference(pref));
                assert_eq!(got.distances(), exact.distances());
            }
        }
    }

    #[test]
    fn timing_collection_populates_phase_timers() {
        let ps = dataset(3_000, 8, 7);
        let tree = BcTreeBuilder::new(100).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let result = tree.search(q, &SearchParams::exact(5).with_timing());
        assert!(result.stats.time_total_ns > 0);
        assert!(result.stats.time_bounds_ns > 0);
        let untimed = tree.search_exact(q, 5);
        assert_eq!(untimed.stats.time_bounds_ns, 0);
    }

    #[test]
    fn trait_metadata() {
        let ps = dataset(1_000, 8, 8);
        let tree = BcTreeBuilder::new(100).build(&ps).unwrap();
        assert_eq!(tree.name(), "BC-Tree");
        assert_eq!(tree.len(), 1_000);
        assert_eq!(tree.dim(), 9);
        assert!(tree.index_size_bytes() > 0);
    }

    #[test]
    fn heavy_tailed_data_is_handled() {
        // Data far from the unit hypersphere: exactly the regime in which the paper's
        // trees must keep working while normalized hashing schemes fail.
        let ps = SyntheticDataset::new(
            "heavy",
            4_000,
            16,
            DataDistribution::HeavyTailedNorms { mu: 1.5, sigma: 1.0 },
            9,
        )
        .generate()
        .unwrap();
        let tree = BcTreeBuilder::new(100).build(&ps).unwrap();
        tree.check_invariants().unwrap();
        let scan = LinearScan::new(ps.clone());
        for q in &queries(&ps, 5) {
            assert_eq!(tree.search_exact(q, 10).distances(), scan.search_exact(q, 10).distances());
        }
    }

    #[test]
    fn k_larger_than_n_returns_all_points() {
        let ps = dataset(60, 4, 10);
        let tree = BcTreeBuilder::new(16).build(&ps).unwrap();
        let q = &queries(&ps, 1)[0];
        let result = tree.search_exact(q, 500);
        assert_eq!(result.neighbors.len(), 60);
    }
}
