//! Store-side observability: snapshot load stage timings, byte counters, and sweep
//! telemetry, published to the process-wide [`p2h_obs`] registry.
//!
//! A snapshot load has three stages with very different cost profiles:
//!
//! * **read** — materializing file bytes (`std::fs::read` under [`LoadMode::Copy`],
//!   `mmap(2)` under [`LoadMode::Mmap`]);
//! * **crc** — the per-section checksum pass (the one full walk over the payload that
//!   both load modes share);
//! * **decode** — everything else: header validation, array reconstruction (copying
//!   or zero-copy view setup), and structural checks.
//!
//! The split is what makes the copy-vs-mmap trade-off visible in the exposition dump:
//! under mmap the read stage collapses to the syscall and decode to view setup, while
//! the CRC pass stays — exactly the "cold start cost drops to one checksum pass" claim
//! the zero-copy loader makes.
//!
//! Stage attribution works with thread-local accumulators rather than plumbing a
//! context through every decode function: the read and CRC paths note their own
//! nanoseconds as they happen, and [`timed_decode`] wraps a whole load entry point,
//! attributing `elapsed − read − crc − nested-decode` to the decode stage. The
//! nested-decode term makes the wrapper re-entrant, so coarse wrappers (e.g.
//! `load_entries`) can nest finer ones (`load_group_files`) without double counting.

use std::cell::Cell;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use p2h_obs::{Counter, MetricsRegistry};

use crate::mmap::LoadMode;

/// Cached handles into the global metrics registry (one lookup per process).
pub(crate) struct StoreMetrics {
    read_ns: Arc<Counter>,
    crc_ns: Arc<Counter>,
    decode_ns: Arc<Counter>,
    crc_bytes: Arc<Counter>,
    loads_copy: Arc<Counter>,
    loads_mmap: Arc<Counter>,
    bytes_copy: Arc<Counter>,
    bytes_mmap: Arc<Counter>,
    sweeps: Arc<Counter>,
    swept_files: Arc<Counter>,
    sweep_future_skips: Arc<Counter>,
    eintr_retries: Arc<Counter>,
}

fn store_metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| StoreMetrics::new(p2h_obs::global()))
}

impl StoreMetrics {
    fn new(reg: &MetricsRegistry) -> Self {
        let stage = |label| {
            reg.counter(
                "p2h_store_load_stage_ns_total",
                "Nanoseconds spent in each snapshot load stage (read, crc, decode).",
                &[("stage", label)],
            )
        };
        let loads = |label| {
            reg.counter(
                "p2h_store_loads_total",
                "Snapshot files materialized, by load mode.",
                &[("mode", label)],
            )
        };
        let bytes = |label| {
            reg.counter(
                "p2h_store_load_bytes_total",
                "Snapshot bytes materialized: owned heap copies (mode=\"copy\") vs. \
                 zero-copy mappings (mode=\"mmap\").",
                &[("mode", label)],
            )
        };
        StoreMetrics {
            read_ns: stage("read"),
            crc_ns: stage("crc"),
            decode_ns: stage("decode"),
            crc_bytes: reg.counter(
                "p2h_store_crc_bytes_total",
                "Payload bytes checksummed while reading snapshot sections.",
                &[],
            ),
            loads_copy: loads("copy"),
            loads_mmap: loads("mmap"),
            bytes_copy: bytes("copy"),
            bytes_mmap: bytes("mmap"),
            sweeps: reg.counter(
                "p2h_store_sweeps_total",
                "Stale-file sweeps performed on store open.",
                &[],
            ),
            swept_files: reg.counter(
                "p2h_store_swept_files_total",
                "Crash-leftover files deleted by stale-file sweeps.",
                &[],
            ),
            sweep_future_skips: reg.counter(
                "p2h_store_sweep_future_skips_total",
                "Sweep candidates skipped because their mtime is in the future \
                 (clock skew or a restored backup — not provably stale).",
                &[],
            ),
            eintr_retries: reg.counter(
                "p2h_store_eintr_retries_total",
                "Interrupted (EINTR) syscalls transparently reissued by the store's \
                 I/O retry loops.",
                &[],
            ),
        }
    }

    /// The registry side of [`record_read`].
    fn note_read(&self, mode: LoadMode, ns: u64, bytes: usize) {
        self.read_ns.add(ns);
        match mode {
            LoadMode::Copy => {
                self.loads_copy.inc();
                self.bytes_copy.add(bytes as u64);
            }
            LoadMode::Mmap => {
                self.loads_mmap.inc();
                self.bytes_mmap.add(bytes as u64);
            }
        }
    }

    /// The registry side of [`record_sweep`].
    fn note_sweep(&self, swept: u64, future_skipped: u64) {
        self.sweeps.inc();
        self.swept_files.add(swept);
        self.sweep_future_skips.add(future_skipped);
    }
}

thread_local! {
    /// Read-stage nanoseconds noted on this thread (used by [`timed_decode`] to
    /// subtract file I/O that happens inside a wrapped load).
    static READ_NS: Cell<u64> = const { Cell::new(0) };
    /// CRC-stage nanoseconds noted on this thread.
    static CRC_NS: Cell<u64> = const { Cell::new(0) };
    /// Decode-stage nanoseconds already attributed by nested [`timed_decode`] calls.
    static DECODE_NS: Cell<u64> = const { Cell::new(0) };
}

/// Records one file materialization: `ns` in the read stage plus per-mode load and
/// byte counters. `mode` is the mode actually used (after any big-endian demotion).
pub(crate) fn record_read(mode: LoadMode, ns: u64, bytes: usize) {
    READ_NS.with(|c| c.set(c.get().saturating_add(ns)));
    store_metrics().note_read(mode, ns, bytes);
}

/// Records one section checksum pass: `ns` in the CRC stage, `bytes` checksummed.
pub(crate) fn record_crc(ns: u64, bytes: usize) {
    CRC_NS.with(|c| c.set(c.get().saturating_add(ns)));
    let m = store_metrics();
    m.crc_ns.add(ns);
    m.crc_bytes.add(bytes as u64);
}

/// Runs `f` (a snapshot load entry point), attributing its wall time minus the read,
/// CRC, and already-attributed nested decode nanoseconds to the decode stage.
/// Re-entrant: nesting wrapped loads never double-counts.
pub(crate) fn timed_decode<T>(f: impl FnOnce() -> T) -> T {
    let read0 = READ_NS.with(Cell::get);
    let crc0 = CRC_NS.with(Cell::get);
    let decode0 = DECODE_NS.with(Cell::get);
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_nanos() as u64;
    let read_d = READ_NS.with(Cell::get).saturating_sub(read0);
    let crc_d = CRC_NS.with(Cell::get).saturating_sub(crc0);
    let decode_d = DECODE_NS.with(Cell::get).saturating_sub(decode0);
    let own = elapsed.saturating_sub(read_d).saturating_sub(crc_d).saturating_sub(decode_d);
    DECODE_NS.with(|c| c.set(c.get().saturating_add(own)));
    store_metrics().decode_ns.add(own);
    out
}

/// Records one stale-file sweep deleting `swept` files and skipping `future_skipped`
/// candidates whose mtime lies in the future.
pub(crate) fn record_sweep(swept: u64, future_skipped: u64) {
    store_metrics().note_sweep(swept, future_skipped);
}

/// Records one EINTR-interrupted syscall that the retry loop reissued.
pub(crate) fn record_eintr_retry() {
    store_metrics().eintr_retries.inc();
}

#[cfg(test)]
mod tests {
    use super::*;

    // Other tests in this binary load snapshots concurrently and bump the global
    // counters, so these tests read state only they write: the calling thread's
    // stage accumulators and a private registry.

    #[test]
    fn stage_attribution_is_reentrant_and_splits_read_crc_decode() {
        let read0 = READ_NS.with(Cell::get);
        let crc0 = CRC_NS.with(Cell::get);
        let decode0 = DECODE_NS.with(Cell::get);

        // Outer load wraps an inner load; the inner one notes read + CRC work and
        // spends a known minimum of decode time.
        let decode_floor = std::time::Duration::from_millis(2);
        let start = Instant::now();
        timed_decode(|| {
            timed_decode(|| {
                record_read(LoadMode::Copy, 1_000, 64);
                record_crc(500, 64);
                std::thread::sleep(decode_floor);
            });
        });
        let wall = start.elapsed().as_nanos() as u64;

        assert_eq!(READ_NS.with(Cell::get) - read0, 1_000);
        assert_eq!(CRC_NS.with(Cell::get) - crc0, 500);
        // Decode time excludes the noted read/CRC ns, and the nested wrapper's share is
        // subtracted from the outer one: two wrappers observed the same interval, yet
        // it is counted once. Both bounds hold however the thread is scheduled.
        let decode_d = DECODE_NS.with(Cell::get) - decode0;
        assert!(
            decode_d <= wall - 1_500,
            "decode {decode_d} ns double-counts or includes read/crc"
        );
        assert!(
            decode_d >= decode_floor.as_nanos() as u64 - 1_500,
            "decode {decode_d} ns lost time"
        );
    }

    #[test]
    fn sweep_and_byte_counters_accumulate() {
        let m = StoreMetrics::new(&MetricsRegistry::new());
        m.note_sweep(3, 0);
        m.note_read(LoadMode::Mmap, 10, 4096);
        assert_eq!(m.sweeps.value(), 1);
        assert_eq!(m.swept_files.value(), 3);
        assert_eq!(m.bytes_mmap.value(), 4096);
    }
}
