//! Background compaction: a policy thread that watches a [`LiveIndex`]'s memtable
//! and runs [`LiveIndex::compact_triggered`] when a size or time threshold trips.
//!
//! The policy is deliberately dumb — poll the memtable point count on an interval,
//! fire on `points >= max_memtable_points` (trigger `size`) or on
//! `max_interval` elapsing with mutations pending (trigger `time`) — because the
//! compaction itself already carries all the hard guarantees (serving continues,
//! answers stay bit-identical, crashes recover to exactly the acknowledged
//! operations). Every fired compaction lands in
//! `p2h_live_compactions_total{index,trigger}` so operators can tell policy-driven
//! work from explicit [`LiveIndex::compact`] calls.
//!
//! A [`Compactor`] handle owns the thread; dropping it (or calling
//! [`Compactor::shutdown`]) stops the loop without interrupting a compaction that
//! is already running.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::compact::CompactionTrigger;
use crate::error::LiveError;
use crate::index::LiveIndex;

/// When the background compactor fires. Thresholds set to their "disabled" value
/// (`0` points / zero interval) turn that trigger off individually.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Fire (trigger `size`) once the memtable holds at least this many live rows.
    /// `0` disables the size trigger.
    pub max_memtable_points: usize,
    /// Fire (trigger `time`) when this much time has passed since the last
    /// compaction (or since the policy started) and the memtable is non-empty.
    /// `Duration::ZERO` disables the time trigger.
    pub max_interval: Duration,
    /// How often the policy thread samples the memtable.
    pub poll_interval: Duration,
}

impl Default for CompactionPolicy {
    /// Size-triggered at 4096 memtable points, time trigger off, 200 ms polls.
    fn default() -> Self {
        Self {
            max_memtable_points: 4096,
            max_interval: Duration::ZERO,
            poll_interval: Duration::from_millis(200),
        }
    }
}

impl CompactionPolicy {
    /// Spawns the policy thread over `index`. The returned [`Compactor`] stops the
    /// loop when dropped; the `Arc` keeps the index alive for the thread's lifetime,
    /// so shutting down the compactor before dropping the index is not required
    /// (just tidy).
    pub fn spawn(self, index: Arc<LiveIndex>) -> Compactor {
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let name = format!("p2h-live-compact-{}", index.name());
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || policy_loop(&self, &index, &stop))
            .expect("spawn compaction policy thread");
        Compactor { shutdown, thread: Some(thread) }
    }

    /// The trigger that should fire for a memtable of `points` rows `since_last`
    /// after the previous compaction, if any. Size wins over time when both trip.
    fn due(&self, points: usize, since_last: Duration) -> Option<CompactionTrigger> {
        if self.max_memtable_points > 0 && points >= self.max_memtable_points {
            return Some(CompactionTrigger::Size);
        }
        if !self.max_interval.is_zero() && since_last >= self.max_interval && points > 0 {
            return Some(CompactionTrigger::Time);
        }
        None
    }
}

fn policy_loop(policy: &CompactionPolicy, index: &LiveIndex, shutdown: &AtomicBool) {
    let mut last = Instant::now();
    while !shutdown.load(Ordering::SeqCst) {
        if let Some(trigger) = policy.due(index.memtable_len(), last.elapsed()) {
            match index.compact_triggered(trigger) {
                // A concurrent manual compaction is doing our work; treat its run
                // as ours for interval purposes and re-sample next poll.
                Ok(_) | Err(LiveError::CompactionInProgress) => last = Instant::now(),
                // Staging/build failures leave the index serving the old epoch;
                // retrying every poll would hammer a broken store, so back the
                // clock off a full interval like a success would.
                Err(_) => last = Instant::now(),
            }
        }
        std::thread::sleep(policy.poll_interval);
    }
}

/// Handle to a running background compactor. Dropping it stops the policy loop
/// (after at most one `poll_interval`); a compaction already in flight completes.
#[derive(Debug)]
pub struct Compactor {
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Compactor {
    /// Stops the policy loop and joins the thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            thread.join().ok();
        }
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p2h_store::Store;

    fn live_in(dir: &std::path::Path, name: &str) -> Arc<LiveIndex> {
        let store = Store::create(dir).unwrap();
        Arc::new(LiveIndex::create(&store, name, 3).unwrap())
    }

    fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if done() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        false
    }

    fn compactions(name: &str, trigger: &str) -> u64 {
        p2h_obs::global()
            .snapshot()
            .series("p2h_live_compactions_total", &[("index", name), ("trigger", trigger)])
            .map_or(0, |series| series.value.scalar())
    }

    #[test]
    fn due_prefers_size_and_skips_empty_memtables() {
        let policy = CompactionPolicy {
            max_memtable_points: 10,
            max_interval: Duration::from_secs(1),
            poll_interval: Duration::from_millis(1),
        };
        assert_eq!(policy.due(10, Duration::ZERO), Some(CompactionTrigger::Size));
        assert_eq!(policy.due(9, Duration::from_secs(2)), Some(CompactionTrigger::Time));
        assert_eq!(policy.due(9, Duration::from_millis(500)), None);
        // An idle index never time-compacts: there is nothing to fold.
        assert_eq!(policy.due(0, Duration::from_secs(2)), None);
        // Explicit zeros disable both triggers.
        let off =
            CompactionPolicy { max_memtable_points: 0, max_interval: Duration::ZERO, ..policy };
        assert_eq!(off.due(1_000_000, Duration::from_secs(3600)), None);
    }

    #[test]
    fn size_trigger_compacts_in_the_background() {
        let dir = std::env::temp_dir().join(format!("p2h-policy-size-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let live = live_in(&dir, "policy-size");
        let policy = CompactionPolicy {
            max_memtable_points: 8,
            max_interval: Duration::ZERO,
            poll_interval: Duration::from_millis(5),
        };
        let compactor = policy.spawn(Arc::clone(&live));
        for i in 0..20 {
            live.insert(&[i as f32, 1.0]).unwrap();
        }
        assert!(
            wait_until(Duration::from_secs(10), || live.memtable_len() < 8
                && !live.is_compacting()),
            "background compaction never drained the memtable"
        );
        assert!(compactions("policy-size", "size") >= 1);
        assert_eq!(compactions("policy-size", "time"), 0);
        // Answers still cover every inserted point after the fold.
        assert_eq!(live.len(), 20);
        compactor.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn time_trigger_compacts_pending_mutations() {
        let dir = std::env::temp_dir().join(format!("p2h-policy-time-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let live = live_in(&dir, "policy-time");
        let policy = CompactionPolicy {
            max_memtable_points: 0, // size trigger off
            max_interval: Duration::from_millis(30),
            poll_interval: Duration::from_millis(5),
        };
        for i in 0..3 {
            live.insert(&[i as f32, -1.0]).unwrap();
        }
        let compactor = policy.spawn(Arc::clone(&live));
        assert!(
            wait_until(Duration::from_secs(10), || live.memtable_len() == 0
                && !live.is_compacting()),
            "time trigger never fired"
        );
        assert!(compactions("policy-time", "time") >= 1);
        assert_eq!(compactions("policy-time", "size"), 0);
        assert_eq!(live.len(), 3);
        compactor.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
