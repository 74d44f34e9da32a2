//! Output checks. Any mismatch aborts the run: it exits nonzero and prints no
//! numbers.

use p2h_core::{Scalar, SearchResult};

/// Compares two answers bit for bit: same ids in the same order, same f32
/// distance bits.
///
/// # Errors
///
/// Describes the first difference.
pub fn same_bits(got: &SearchResult, want: &SearchResult, context: &str) -> Result<(), String> {
    same_pairs(&pairs(got), &pairs(want), context)
}

/// `(id, distance)` pairs of an answer.
pub fn pairs(result: &SearchResult) -> Vec<(u32, Scalar)> {
    result.neighbors.iter().map(|n| (n.index as u32, n.distance)).collect()
}

/// [`same_bits`] over `(id, distance)` pairs.
///
/// # Errors
///
/// Describes the first difference.
pub fn same_pairs(
    got: &[(u32, Scalar)],
    want: &[(u32, Scalar)],
    context: &str,
) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{context}: {} neighbors, expected {}", got.len(), want.len()));
    }
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        if g.0 != w.0 || g.1.to_bits() != w.1.to_bits() {
            return Err(format!(
                "{context}: rank {rank}: got ({}, {:#010x}), expected ({}, {:#010x})",
                g.0,
                g.1.to_bits(),
                w.0,
                w.1.to_bits()
            ));
        }
    }
    Ok(())
}

/// Recall@k of `got` against exact `truth`, counting a returned point whose
/// distance ties the k-th true distance as a hit (ties are interchangeable).
pub fn recall(got: &SearchResult, truth: &[(u32, Scalar)]) -> f64 {
    let Some(kth) = truth.last().map(|t| t.1) else {
        return 1.0;
    };
    let hits = got
        .neighbors
        .iter()
        .filter(|n| n.distance <= kth || truth.iter().any(|t| t.0 as usize == n.index))
        .count();
    hits.min(truth.len()) as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_core::{Neighbor, SearchStats};

    fn answer(pairs: &[(usize, f32)]) -> SearchResult {
        SearchResult {
            neighbors: pairs.iter().map(|&(i, d)| Neighbor::new(i, d)).collect(),
            stats: SearchStats::default(),
        }
    }

    #[test]
    fn one_flipped_bit_is_a_mismatch() {
        let a = answer(&[(3, 0.5), (9, 0.75)]);
        assert!(same_bits(&a, &a.clone(), "q").is_ok());
        let flipped = answer(&[(3, 0.5), (9, f32::from_bits(0.75f32.to_bits() ^ 1))]);
        assert!(same_bits(&flipped, &a, "q").unwrap_err().contains("rank 1"));
        assert!(same_bits(&answer(&[(3, 0.5)]), &a, "q").is_err());
    }

    #[test]
    fn recall_counts_ties_with_the_kth_distance() {
        let truth = vec![(1, 0.1), (2, 0.2)];
        assert_eq!(recall(&answer(&[(1, 0.1), (2, 0.2)]), &truth), 1.0);
        assert_eq!(recall(&answer(&[(1, 0.1), (7, 0.2)]), &truth), 1.0);
        assert_eq!(recall(&answer(&[(1, 0.1), (7, 0.9)]), &truth), 0.5);
    }
}
