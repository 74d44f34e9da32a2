//! Front-end tuning knobs: batching policy, admission control, threading shape.

use std::time::Duration;

/// Configuration for a [`crate::FrontServer`].
///
/// The two batching knobs trade latency for throughput: a query entering an empty
/// queue waits at most `max_delay` for company; a queue that already holds
/// `max_batch` same-index queries dispatches immediately. Coalescing never changes
/// an answer — a batch's results are bit-identical to serving each query alone —
/// so the knobs are pure performance tuning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontConfig {
    /// Event-loop threads multiplexing client connections (`0` = one per available
    /// CPU, capped at 8 — front I/O parallelism saturates long before compute).
    pub loops: usize,
    /// Most queries coalesced into one engine batch. `1` disables coalescing.
    pub max_batch: usize,
    /// Longest a queued query waits for batch-mates before dispatching anyway.
    /// `Duration::ZERO` dispatches every poll — effectively batch-of-whatever-raced-in.
    pub max_delay: Duration,
    /// Admission bound: queries allowed to wait in the coalescing queue. A query
    /// arriving at a full queue is shed immediately with a typed `Overloaded`
    /// error — never silently dropped, never queued unbounded.
    pub queue_depth: usize,
    /// Engine executor workers, the batcher thread plus long-lived helpers (`0` =
    /// one per available CPU).
    pub threads: usize,
}

impl Default for FrontConfig {
    fn default() -> Self {
        Self {
            loops: 2,
            max_batch: 32,
            max_delay: Duration::from_micros(500),
            queue_depth: 1024,
            threads: 0,
        }
    }
}

impl FrontConfig {
    /// The effective event-loop count (resolves `0` to the CPU count, capped at 8).
    pub fn effective_loops(&self) -> usize {
        if self.loops > 0 {
            return self.loops;
        }
        std::thread::available_parallelism().map_or(2, |n| n.get()).min(8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane_and_loops_resolve() {
        let config = FrontConfig::default();
        assert!(config.max_batch > 1);
        assert!(config.queue_depth >= config.max_batch);
        assert!(config.effective_loops() >= 1);
        let auto = FrontConfig { loops: 0, ..config };
        assert!((1..=8).contains(&auto.effective_loops()));
    }
}
