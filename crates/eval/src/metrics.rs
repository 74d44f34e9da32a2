//! Per-query and per-method evaluation records.

use p2h_core::SearchStats;

/// The outcome of running one query against one index configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEvaluation {
    /// Recall against the exact ground truth (`|returned ∩ exact| / k`).
    pub recall: f64,
    /// Wall-clock query time in nanoseconds.
    pub time_ns: u64,
    /// Work counters collected during the query.
    pub stats: SearchStats,
}

/// Aggregated evaluation of one index configuration over a query batch.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodEvaluation {
    /// Method label (e.g. `"BC-Tree"`, `"NH (λ=8d)"`).
    pub label: String,
    /// `k` of the top-k queries.
    pub k: usize,
    /// Candidate budget used (`None` = exact search).
    pub candidate_limit: Option<usize>,
    /// Mean recall over all queries, in `[0, 1]`.
    pub mean_recall: f64,
    /// Average wall-clock query time in milliseconds.
    pub avg_query_time_ms: f64,
    /// Sum of the per-query work counters.
    pub total_stats: SearchStats,
    /// The individual per-query records.
    pub per_query: Vec<QueryEvaluation>,
}

impl MethodEvaluation {
    /// Builds the aggregate from per-query records.
    pub fn from_queries(
        label: impl Into<String>,
        k: usize,
        candidate_limit: Option<usize>,
        per_query: Vec<QueryEvaluation>,
    ) -> Self {
        let n = per_query.len().max(1) as f64;
        let mean_recall = per_query.iter().map(|q| q.recall).sum::<f64>() / n;
        let avg_query_time_ms = per_query.iter().map(|q| q.time_ns as f64).sum::<f64>() / n / 1.0e6;
        let mut total_stats = SearchStats::default();
        for q in &per_query {
            total_stats.merge(&q.stats);
        }
        Self {
            label: label.into(),
            k,
            candidate_limit,
            mean_recall,
            avg_query_time_ms,
            total_stats,
            per_query,
        }
    }

    /// Mean recall expressed as a percentage (the unit of the paper's figures).
    pub fn recall_pct(&self) -> f64 {
        self.mean_recall * 100.0
    }

    /// Average number of candidates verified per query.
    pub fn avg_candidates(&self) -> f64 {
        self.total_stats.candidates_verified as f64 / self.per_query.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(recall: f64, time_ns: u64, verified: u64) -> QueryEvaluation {
        QueryEvaluation {
            recall,
            time_ns,
            stats: SearchStats { candidates_verified: verified, ..Default::default() },
        }
    }

    #[test]
    fn aggregates_mean_recall_and_time() {
        let eval = MethodEvaluation::from_queries(
            "test",
            10,
            Some(100),
            vec![q(1.0, 2_000_000, 50), q(0.5, 4_000_000, 150)],
        );
        assert!((eval.mean_recall - 0.75).abs() < 1e-12);
        assert!((eval.recall_pct() - 75.0).abs() < 1e-9);
        assert!((eval.avg_query_time_ms - 3.0).abs() < 1e-9);
        assert_eq!(eval.total_stats.candidates_verified, 200);
        assert!((eval.avg_candidates() - 100.0).abs() < 1e-9);
        assert_eq!(eval.k, 10);
        assert_eq!(eval.candidate_limit, Some(100));
        assert_eq!(eval.label, "test");
    }

    #[test]
    fn empty_query_batch_is_safe() {
        let eval = MethodEvaluation::from_queries("empty", 5, None, vec![]);
        assert_eq!(eval.mean_recall, 0.0);
        assert_eq!(eval.avg_query_time_ms, 0.0);
        assert_eq!(eval.avg_candidates(), 0.0);
    }
}
