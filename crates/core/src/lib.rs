//! # p2h-core
//!
//! Core types and primitives for Point-to-Hyperplane Nearest Neighbor Search (P2HNNS).
//!
//! This crate defines the shared vocabulary used by every index in the workspace:
//!
//! * [`PointSet`] — a dense, row-major collection of data points, with the
//!   dimension-append convention of the paper (`x = (p; 1)`),
//! * [`HyperplaneQuery`] — a hyperplane query normalized so that the point-to-hyperplane
//!   distance reduces to an absolute inner product,
//! * [`TopKCollector`] and [`Neighbor`] — a bounded max-heap (with an optional
//!   [`IdBitset`] exclusion filter) for maintaining the current
//!   top-k answers and the pruning threshold `q.λ`, plus [`merge_topk`] — the
//!   deterministic total-order merge shared by every fan-out path (shards, the
//!   distributed router, the live memtable layering),
//! * [`P2hIndex`] — the trait every index (linear scan, Ball-Tree, BC-Tree, NH, FH)
//!   implements, together with [`SearchParams`], [`SearchResult`] and [`SearchStats`],
//! * [`LinearScan`] — the exhaustive-scan baseline used for ground truth,
//! * [`VecBuf`] — the owned-or-mapped buffer behind every large read-only array
//!   ([`PointSet`] payloads, tree centers, permutations, projection tables), which is
//!   what lets `p2h-store` restore indexes zero-copy from memory-mapped snapshots,
//! * [`QueryScratch`] — reusable per-worker working memory for allocation-free search,
//! * low-level dense kernels in [`distance`], backed by the runtime-dispatched SIMD
//!   implementations in [`kernels`].
//!
//! ## Kernel dispatch
//!
//! The dense kernels ([`kernels::dot`], [`kernels::abs_dot`], [`kernels::norm_sq`],
//! [`kernels::euclidean_sq`], and the blocked [`kernels::dot_block`] /
//! [`kernels::abs_dot_block`]) select an implementation **once per process, at
//! runtime**:
//!
//! * on `x86_64`, AVX2+FMA when `is_x86_feature_detected!` reports both features;
//! * on `aarch64`, NEON (a baseline feature, no detection needed);
//! * otherwise, the portable 4-way-unrolled scalar code in [`kernels::scalar`].
//!
//! The scalar path can be forced for benchmarking, CI, or cross-machine
//! reproducibility, either with the environment variable `P2H_FORCE_SCALAR=1` or at
//! runtime with [`kernels::force_scalar`]`(true)`; [`kernels::active_backend`] reports
//! the current choice.
//!
//! Two properties make dispatch safe for the *exact*-search guarantees of the paper
//! reproduction: within a backend the blocked kernels are bit-identical per row to the
//! single-vector kernels, and every index (including the [`LinearScan`] ground-truth
//! oracle) routes through the same dispatcher — so inside one process all methods share
//! one floating-point summation order and exact searches remain comparable with
//! `assert_eq!`. Different backends differ in the last ulps (FMA contraction), which is
//! why the trees must never hand-roll their own inner products. See the [`kernels`]
//! module documentation for details.
//!
//! The formulation follows Section II of "Lightweight-Yet-Efficient: Revitalizing
//! Ball-Tree for Point-to-Hyperplane Nearest Neighbor Search" (Huang & Tung, ICDE 2023):
//! data points `p ∈ R^{d-1}` are augmented to `x = (p; 1) ∈ R^d`, queries `q ∈ R^d` are
//! rescaled so that the norm of their first `d-1` coordinates is 1, and the
//! point-to-hyperplane distance is `|⟨x, q⟩|`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod buf;
pub mod distance;
mod error;
mod index;
pub mod kernels;
mod linear_scan;
mod point_set;
mod query;
mod scratch;
mod topk;

pub use buf::{BufBacking, BufElem, VecBuf};
pub use error::{Error, Result};
pub use index::{BranchPreference, P2hIndex, SearchParams, SearchResult, SearchStats};
pub use kernels::KernelBackend;
pub use linear_scan::LinearScan;
pub use point_set::PointSet;
pub use query::HyperplaneQuery;
pub use scratch::{QueryScratch, LEAF_STRIP};
pub use topk::{merge_topk, IdBitset, Neighbor, TopKCollector};

/// The floating point type used for data points and queries throughout the workspace.
///
/// The reference implementation of the paper uses single-precision floats; so do we.
pub type Scalar = f32;
