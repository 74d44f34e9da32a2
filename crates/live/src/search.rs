//! Layered search: base tier + memtable scan, merged under the total `Neighbor`
//! order so answers are bit-identical to a full rebuild over the same live points.
//!
//! ## Why the layering cannot change a bit
//!
//! The top-k of a point set under the total order `(distance.total_cmp, id)` is a
//! unique set, independent of the order candidates are offered in. The layered path
//! offers exactly the live points a rebuild would contain, with exactly the
//! distances a rebuild would compute:
//!
//! * **Distances** — memtable rows go through [`p2h_core::kernels::abs_dot_block`],
//!   the same dispatched kernel every index uses, and blocked evaluation is
//!   bit-identical per row to single-row evaluation regardless of where block
//!   boundaries fall. The base tier is an ordinary exact index, itself bit-identical
//!   to a linear scan over its points.
//! * **Tie-breaks** — base results are reported in base-local positions; the id
//!   file's mapping is strictly increasing, so translating positions to global ids
//!   preserves the order and therefore every accept/reject decision. Memtable rows
//!   are offered under their global ids directly.
//! * **Tombstones** — the base tombstones are installed as the collector's
//!   exclusion filter ([`p2h_core::TopKCollector::set_excluded`]) and the base is
//!   searched with plain `k`. A tombstoned point is still verified when its leaf is
//!   visited, but it is never admitted, so it never tightens `q.λ`: the base
//!   returns exactly the top-k of its *surviving* points, and prunes against the
//!   k-th survivor's distance rather than the `(k + tombstones)`-th. The filter is
//!   cleared before the memtable scan, whose rows carry their own tombstones.
//!
//! The final [`merge_topk`] is the same merge shard fan-out uses.
//!
//! Under a `candidate_limit` budget the scan order is the global id order (base
//! survivors first, then memtable rows), matching a rebuilt linear scan's prefix
//! exactly when the base is a [`p2h_core::LinearScan`]; tree bases spend the budget
//! in tree order, as they do everywhere else.

use std::time::Instant;

use p2h_core::{
    kernels, merge_topk, Error, HyperplaneQuery, QueryScratch, Result, SearchParams, SearchResult,
    SearchStats, LEAF_STRIP,
};

use crate::index::{LiveIndex, LiveState};

impl LiveIndex {
    /// Searches the layered index. Same parameter semantics as
    /// [`p2h_core::P2hIndex::search`]; answers are bit-identical to a full rebuild
    /// containing the same live points.
    ///
    /// # Errors
    ///
    /// [`Error::DimensionMismatch`] when the query dimension differs from the
    /// index's augmented dimension (a checked error here, where the trait-bound
    /// indexes panic — the live tier is reachable from serving paths that must not
    /// take a worker down).
    pub fn search(&self, query: &HyperplaneQuery, params: &SearchParams) -> Result<SearchResult> {
        self.search_with_scratch(query, params, &mut QueryScratch::new())
    }

    /// [`LiveIndex::search`] with caller-provided scratch space (allocation-free
    /// steady state).
    pub fn search_with_scratch(
        &self,
        query: &HyperplaneQuery,
        params: &SearchParams,
        scratch: &mut QueryScratch,
    ) -> Result<SearchResult> {
        let state = self.read_state();
        if query.dim() != state.dim {
            return Err(Error::DimensionMismatch { expected: state.dim, actual: query.dim() });
        }
        Ok(search_layered(&state, query, params, scratch))
    }

    /// Exhaustive top-`k` (no candidate budget).
    pub fn search_exact(&self, query: &HyperplaneQuery, k: usize) -> Result<SearchResult> {
        self.search(query, &SearchParams::exact(k))
    }
}

fn search_layered(
    state: &LiveState,
    query: &HyperplaneQuery,
    params: &SearchParams,
    scratch: &mut QueryScratch,
) -> SearchResult {
    let start = Instant::now();
    let k = params.k;
    let mut stats = SearchStats::default();
    let mut remaining = params.candidate_limit.unwrap_or(usize::MAX);
    let mut lists = Vec::with_capacity(2);

    if let Some(base) = &state.base {
        let surviving = state.base_ids.len() - state.base_tombs.len();
        let scan = remaining.min(surviving);
        let mut base_params = params.clone();
        base_params.candidate_limit = params.candidate_limit.map(|_| {
            // Budgets count *surviving* points. Translate `scan` survivors into the
            // base-local position prefix that contains them (each tombstone inside
            // the prefix extends it by one position).
            let mut positions = scan;
            for tomb in state.base_tombs.iter() {
                if tomb < positions {
                    positions += 1;
                } else {
                    break;
                }
            }
            positions
        });
        scratch.collector.set_excluded(&state.base_tombs);
        let base_result = base.as_index().search_with_scratch(query, &base_params, scratch);
        scratch.collector.clear_excluded();
        stats.merge(&base_result.stats);
        let mut list = base_result.neighbors;
        for n in &mut list {
            n.index = state.base_ids[n.index] as usize;
        }
        lists.push(list);
        remaining = remaining.saturating_sub(scan);
    }

    // Memtable tier: one strip-scan across every layer in ascending id order,
    // offering live rows under their global ids (identical per-row distances and
    // identical tie-breaks to a rebuilt linear scan — see the module docs).
    let verify_start = Instant::now();
    scratch.reset(k);
    let QueryScratch { collector, strip, .. } = scratch;
    let dim = state.dim;
    let q = query.coeffs();
    let mut computed = 0u64;
    let mut offered = 0u64;
    'layers: for layer in &state.layers {
        let mut pos = 0usize;
        while pos < layer.rows {
            if remaining == 0 {
                break 'layers;
            }
            let block = (layer.rows - pos).min(LEAF_STRIP);
            kernels::abs_dot_block(
                q,
                &layer.flat[pos * dim..(pos + block) * dim],
                dim,
                &mut strip[..block],
            );
            computed += block as u64;
            for (i, &dist) in strip[..block].iter().enumerate() {
                if layer.deleted[pos + i] {
                    continue;
                }
                if remaining == 0 {
                    break;
                }
                collector.offer(layer.start_id as usize + pos + i, dist);
                offered += 1;
                remaining -= 1;
            }
            pos += block;
        }
    }
    stats.inner_products += computed;
    stats.candidates_verified += offered;
    stats.time_verify_ns += verify_start.elapsed().as_nanos() as u64;
    lists.push(collector.take_sorted());

    let merge_start = Instant::now();
    let neighbors = merge_topk(k, lists);
    stats.time_merge_ns += merge_start.elapsed().as_nanos() as u64;
    // The base tier's total is a slice of this wall time, not an addition to it.
    stats.time_total_ns = start.elapsed().as_nanos() as u64;
    SearchResult { neighbors, stats }
}
