//! The index abstraction shared by every P2HNNS method in the workspace.

use serde::{Deserialize, Serialize};

use crate::{HyperplaneQuery, Neighbor, QueryScratch, Scalar};

/// Which child of an internal tree node is descended first during branch-and-bound.
///
/// Section III-C of the paper compares the two choices and recommends the center
/// preference; Figure 7 reproduces that comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BranchPreference {
    /// Visit the child whose center has the smaller absolute inner product with the
    /// query first (the paper's default).
    #[default]
    Center,
    /// Visit the child with the smaller node-level ball bound first.
    LowerBound,
}

/// Parameters of a single P2HNNS query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchParams {
    /// Number of neighbors to return (top-k).
    pub k: usize,
    /// Maximum number of candidate points whose exact distance may be evaluated.
    ///
    /// `None` means unlimited, which yields the exact answer for the tree indexes. A
    /// finite budget yields the approximate search used throughout the paper's
    /// evaluation (the "candidate fraction" knob); smaller budgets are faster but may
    /// miss true neighbors.
    pub candidate_limit: Option<usize>,
    /// Branch ordering heuristic for tree-based indexes. Ignored by hashing methods.
    pub branch_preference: BranchPreference,
    /// Whether to collect the fine-grained phase timings (`time_bounds_ns`,
    /// `time_verify_ns`, `time_lookup_ns`). Collecting them adds clock-read overhead to
    /// the hot path, so it is off by default and only enabled for the Figure 10 time
    /// profile experiment.
    pub collect_timing: bool,
}

impl SearchParams {
    /// Exact top-k search with the default (center) branch preference.
    pub fn exact(k: usize) -> Self {
        Self {
            k,
            candidate_limit: None,
            branch_preference: BranchPreference::Center,
            collect_timing: false,
        }
    }

    /// Approximate top-k search that verifies at most `candidate_limit` points.
    pub fn approximate(k: usize, candidate_limit: usize) -> Self {
        Self { candidate_limit: Some(candidate_limit), ..Self::exact(k) }
    }

    /// Returns a copy with the given branch preference.
    pub fn with_branch_preference(mut self, preference: BranchPreference) -> Self {
        self.branch_preference = preference;
        self
    }

    /// Returns a copy with fine-grained phase timing enabled.
    pub fn with_timing(mut self) -> Self {
        self.collect_timing = true;
        self
    }
}

impl Default for SearchParams {
    fn default() -> Self {
        Self::exact(1)
    }
}

/// Counters and timings collected while answering one query.
///
/// The counters mirror the cost model of the paper: inner-product computations dominate
/// both the lower-bound evaluation (node visits) and the candidate verification, and the
/// time profile of Figure 10 splits the query time into verification, bucket lookup,
/// lower-bound computation, and everything else.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of O(d) inner products computed (center bounds + candidate verification).
    pub inner_products: u64,
    /// Number of tree nodes (internal + leaf) visited.
    pub nodes_visited: u64,
    /// Number of leaf nodes visited.
    pub leaves_visited: u64,
    /// Number of data points whose exact distance was computed.
    pub candidates_verified: u64,
    /// Number of subtrees pruned by the node-level ball bound.
    pub pruned_subtrees: u64,
    /// Number of points skipped by the point-level ball bound (including batch breaks).
    pub pruned_by_ball_bound: u64,
    /// Number of points skipped by the point-level cone bound.
    pub pruned_by_cone_bound: u64,
    /// Number of hash buckets (or projection positions) probed. Zero for tree indexes.
    pub buckets_probed: u64,
    /// Nanoseconds spent computing lower bounds (node- and point-level).
    pub time_bounds_ns: u64,
    /// Nanoseconds spent verifying candidates (exact inner products).
    pub time_verify_ns: u64,
    /// Nanoseconds spent looking up hash tables / projection arrays. Zero for trees.
    pub time_lookup_ns: u64,
    /// Nanoseconds spent merging per-shard top-k lists. Zero outside the sharded
    /// fan-out serving path.
    pub time_merge_ns: u64,
    /// Total wall-clock nanoseconds for the query.
    pub time_total_ns: u64,
}

impl SearchStats {
    /// Merges another stats record into this one (component-wise **saturating** sum).
    ///
    /// Aggregation saturates rather than wraps: stats merge across whole batches,
    /// shards, and long-lived serving processes, and a counter quietly wrapping past
    /// `u64::MAX` (e.g. a hostile batch replaying an expensive query) would corrupt
    /// every downstream aggregate. A pegged `u64::MAX` is an obvious outlier instead.
    pub fn merge(&mut self, other: &SearchStats) {
        self.inner_products = self.inner_products.saturating_add(other.inner_products);
        self.nodes_visited = self.nodes_visited.saturating_add(other.nodes_visited);
        self.leaves_visited = self.leaves_visited.saturating_add(other.leaves_visited);
        self.candidates_verified =
            self.candidates_verified.saturating_add(other.candidates_verified);
        self.pruned_subtrees = self.pruned_subtrees.saturating_add(other.pruned_subtrees);
        self.pruned_by_ball_bound =
            self.pruned_by_ball_bound.saturating_add(other.pruned_by_ball_bound);
        self.pruned_by_cone_bound =
            self.pruned_by_cone_bound.saturating_add(other.pruned_by_cone_bound);
        self.buckets_probed = self.buckets_probed.saturating_add(other.buckets_probed);
        self.time_bounds_ns = self.time_bounds_ns.saturating_add(other.time_bounds_ns);
        self.time_verify_ns = self.time_verify_ns.saturating_add(other.time_verify_ns);
        self.time_lookup_ns = self.time_lookup_ns.saturating_add(other.time_lookup_ns);
        self.time_merge_ns = self.time_merge_ns.saturating_add(other.time_merge_ns);
        self.time_total_ns = self.time_total_ns.saturating_add(other.time_total_ns);
    }

    /// Nanoseconds not accounted for by verification, lookup, bound computation, or
    /// fan-out merging (tree traversal bookkeeping, heap maintenance, …).
    pub fn time_other_ns(&self) -> u64 {
        self.time_total_ns
            .saturating_sub(self.time_bounds_ns)
            .saturating_sub(self.time_verify_ns)
            .saturating_sub(self.time_lookup_ns)
            .saturating_sub(self.time_merge_ns)
    }

    /// Every counter as a `(name, value)` pair, in declaration order — the mapping an
    /// observability layer turns into named metrics. The names are stable and match
    /// the field names (they appear as `p2h_search_<name>_total` in the engine's
    /// Prometheus exposition, see `docs/OBSERVABILITY.md`).
    pub fn to_metrics(&self) -> [(&'static str, u64); 13] {
        [
            ("inner_products", self.inner_products),
            ("nodes_visited", self.nodes_visited),
            ("leaves_visited", self.leaves_visited),
            ("candidates_verified", self.candidates_verified),
            ("pruned_subtrees", self.pruned_subtrees),
            ("pruned_by_ball_bound", self.pruned_by_ball_bound),
            ("pruned_by_cone_bound", self.pruned_by_cone_bound),
            ("buckets_probed", self.buckets_probed),
            ("time_bounds_ns", self.time_bounds_ns),
            ("time_verify_ns", self.time_verify_ns),
            ("time_lookup_ns", self.time_lookup_ns),
            ("time_merge_ns", self.time_merge_ns),
            ("time_total_ns", self.time_total_ns),
        ]
    }
}

impl std::fmt::Display for SearchStats {
    /// One log-friendly line: the work counters, then the timing split when present.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ip={} nodes={} leaves={} verified={} pruned={} ball={} cone={} buckets={}",
            self.inner_products,
            self.nodes_visited,
            self.leaves_visited,
            self.candidates_verified,
            self.pruned_subtrees,
            self.pruned_by_ball_bound,
            self.pruned_by_cone_bound,
            self.buckets_probed,
        )?;
        if self.time_total_ns > 0 {
            write!(
                f,
                " time={:.3}ms (bounds={:.3} verify={:.3} lookup={:.3} merge={:.3} other={:.3})",
                self.time_total_ns as f64 / 1.0e6,
                self.time_bounds_ns as f64 / 1.0e6,
                self.time_verify_ns as f64 / 1.0e6,
                self.time_lookup_ns as f64 / 1.0e6,
                self.time_merge_ns as f64 / 1.0e6,
                self.time_other_ns() as f64 / 1.0e6,
            )?;
        }
        Ok(())
    }
}

/// The answer to one P2HNNS query.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The neighbors found, sorted by ascending point-to-hyperplane distance.
    pub neighbors: Vec<Neighbor>,
    /// Work counters and timings for this query.
    pub stats: SearchStats,
}

impl SearchResult {
    /// Indices of the returned neighbors, in ascending-distance order.
    pub fn indices(&self) -> Vec<usize> {
        self.neighbors.iter().map(|n| n.index).collect()
    }

    /// Distances of the returned neighbors, in ascending order.
    pub fn distances(&self) -> Vec<Scalar> {
        self.neighbors.iter().map(|n| n.distance).collect()
    }
}

/// A point-to-hyperplane nearest neighbor index.
///
/// Every method in the workspace — [`crate::LinearScan`], Ball-Tree, BC-Tree, NH, and FH
/// — implements this trait, which is what the evaluation harness and the examples are
/// written against.
///
/// The `Send + Sync` supertrait makes every index shareable across threads behind an
/// `Arc<dyn P2hIndex>`: [`P2hIndex::search`] takes `&self`, so a fully built index is an
/// immutable structure that any number of serving threads may query concurrently (the
/// contract the `p2h-engine` crate builds on). Implementations must not use interior
/// mutability in the search path.
pub trait P2hIndex: Send + Sync {
    /// Human-readable name of the method (e.g. `"BC-Tree"`), used in reports.
    fn name(&self) -> &'static str;

    /// Number of indexed data points.
    fn len(&self) -> usize;

    /// Whether the index is empty. Indexes are built from non-empty point sets, so this
    /// is normally `false`.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality of the indexed (augmented) points.
    fn dim(&self) -> usize;

    /// Approximate memory footprint of the index structure in bytes, *excluding* the raw
    /// data points themselves (which every method needs for verification). This is the
    /// quantity reported as "Index Size" in Table III of the paper.
    fn index_size_bytes(&self) -> usize;

    /// Answers a top-k point-to-hyperplane nearest neighbor query.
    fn search(&self, query: &HyperplaneQuery, params: &SearchParams) -> SearchResult;

    /// Answers a query using caller-provided [`QueryScratch`], enabling allocation-free
    /// steady-state execution when many queries run on one thread.
    ///
    /// Results are identical to [`P2hIndex::search`] — the scratch only carries
    /// reusable working memory (top-k heap storage, traversal stack, distance strips)
    /// — except that ids in the collector's exclusion filter
    /// ([`crate::TopKCollector::set_excluded`]) never enter the answer: the search
    /// returns the top-k of the points *not* excluded. Every index kind in the
    /// workspace offers its point positions through `scratch.collector` and so honours
    /// the filter; the default implementation ignores the scratch (and any filter)
    /// and delegates to `search`.
    fn search_with_scratch(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        scratch: &mut QueryScratch,
    ) -> SearchResult {
        let _ = scratch;
        self.search(query, params)
    }

    /// Convenience wrapper: exact top-k search with default parameters.
    fn search_exact(&self, query: &HyperplaneQuery, k: usize) -> SearchResult {
        self.search(query, &SearchParams::exact(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_params_constructors() {
        let exact = SearchParams::exact(10);
        assert_eq!(exact.k, 10);
        assert_eq!(exact.candidate_limit, None);
        assert_eq!(exact.branch_preference, BranchPreference::Center);

        let approx = SearchParams::approximate(5, 1000);
        assert_eq!(approx.k, 5);
        assert_eq!(approx.candidate_limit, Some(1000));

        let lb = exact.with_branch_preference(BranchPreference::LowerBound);
        assert_eq!(lb.branch_preference, BranchPreference::LowerBound);
        assert_eq!(SearchParams::default().k, 1);
    }

    #[test]
    fn stats_merge_sums_fields() {
        let mut a = SearchStats { inner_products: 2, candidates_verified: 3, ..Default::default() };
        let b = SearchStats {
            inner_products: 5,
            candidates_verified: 7,
            nodes_visited: 1,
            time_total_ns: 100,
            time_verify_ns: 40,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.inner_products, 7);
        assert_eq!(a.candidates_verified, 10);
        assert_eq!(a.nodes_visited, 1);
        assert_eq!(a.time_total_ns, 100);
    }

    #[test]
    fn stats_merge_saturates_instead_of_wrapping() {
        let mut near_max = SearchStats {
            inner_products: u64::MAX - 1,
            candidates_verified: u64::MAX,
            time_total_ns: u64::MAX - 10,
            ..Default::default()
        };
        let more = SearchStats {
            inner_products: 5,
            candidates_verified: 1,
            nodes_visited: 3,
            time_total_ns: 100,
            ..Default::default()
        };
        near_max.merge(&more);
        // Saturated, not wrapped to a tiny value.
        assert_eq!(near_max.inner_products, u64::MAX);
        assert_eq!(near_max.candidates_verified, u64::MAX);
        assert_eq!(near_max.time_total_ns, u64::MAX);
        // Unsaturated fields still sum normally.
        assert_eq!(near_max.nodes_visited, 3);
    }

    #[test]
    fn stats_metrics_mapping_covers_every_field_in_order() {
        let stats = SearchStats {
            inner_products: 1,
            nodes_visited: 2,
            leaves_visited: 3,
            candidates_verified: 4,
            pruned_subtrees: 5,
            pruned_by_ball_bound: 6,
            pruned_by_cone_bound: 7,
            buckets_probed: 8,
            time_bounds_ns: 9,
            time_verify_ns: 10,
            time_lookup_ns: 11,
            time_merge_ns: 12,
            time_total_ns: 13,
        };
        let metrics = stats.to_metrics();
        assert_eq!(metrics.len(), 13);
        let values: Vec<u64> = metrics.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, (1..=13).collect::<Vec<u64>>());
        // Names are unique and field-shaped.
        let mut names: Vec<&str> = metrics.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 13);
        assert!(metrics.iter().all(|(n, _)| n.chars().all(|c| c.is_ascii_lowercase() || c == '_')));
    }

    #[test]
    fn stats_display_is_one_line_and_gains_timing_when_present() {
        let plain = SearchStats { candidates_verified: 42, ..Default::default() };
        let line = plain.to_string();
        assert!(line.contains("verified=42"));
        assert!(!line.contains("time="), "no timing section without timings");
        assert!(!line.contains('\n'));

        let timed = SearchStats {
            candidates_verified: 42,
            time_total_ns: 2_000_000,
            time_verify_ns: 1_000_000,
            time_merge_ns: 500_000,
            ..Default::default()
        };
        let line = timed.to_string();
        assert!(line.contains("time=2.000ms"));
        assert!(line.contains("merge=0.500"));
        assert!(line.contains("other=0.500"));
    }

    #[test]
    fn time_other_never_underflows() {
        let stats = SearchStats {
            time_total_ns: 10,
            time_verify_ns: 20,
            time_bounds_ns: 5,
            ..Default::default()
        };
        assert_eq!(stats.time_other_ns(), 0);
        let stats2 = SearchStats {
            time_total_ns: 100,
            time_verify_ns: 20,
            time_bounds_ns: 30,
            time_lookup_ns: 10,
            ..Default::default()
        };
        assert_eq!(stats2.time_other_ns(), 40);
    }

    #[test]
    fn search_result_accessors() {
        let result = SearchResult {
            neighbors: vec![Neighbor::new(4, 0.1), Neighbor::new(2, 0.5)],
            stats: SearchStats::default(),
        };
        assert_eq!(result.indices(), vec![4, 2]);
        assert_eq!(result.distances(), vec![0.1, 0.5]);
    }
}
