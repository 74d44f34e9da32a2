//! Open-loop load generation.
//!
//! Each connection has a writer thread that sends every request at its scheduled
//! time (seeded Poisson arrivals) whether or not earlier replies have come back, and
//! a reader thread that matches replies to requests by id. A request's latency runs
//! from its *scheduled* send time, so a stalled writer or server shows up in every
//! request it delays instead of being hidden (no coordinated omission). The writer's
//! own lateness is kept separately as the generator lag.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sending half of one connection.
pub trait Wire: Send {
    /// Sends request `id`.
    ///
    /// # Errors
    ///
    /// A transport failure.
    fn send(&mut self, id: u64) -> Result<(), String>;
}

/// The receiving half of one connection.
pub trait Replies: Send {
    /// The next reply: its request id and whether it succeeded (a typed refusal is
    /// `false`).
    ///
    /// # Errors
    ///
    /// A transport failure or a wrong answer.
    fn recv(&mut self) -> Result<(u64, bool), String>;
}

/// What one connection measured in one phase.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Per answered request, milliseconds from scheduled send to reply.
    pub latency_ms: Vec<f64>,
    /// Per request, milliseconds the writer sent after its scheduled time.
    pub lag_ms: Vec<f64>,
    /// Requests sent.
    pub sent: u64,
    /// Requests refused by the server.
    pub failed: u64,
    /// Milliseconds from the last scheduled send to the last reply.
    pub drain_ms: f64,
    /// Seconds from the phase start to the last reply.
    pub span_s: f64,
}

impl Phase {
    /// Folds another connection's measurements into this one.
    pub fn merge(&mut self, other: Phase) {
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.sent += other.sent;
        self.failed += other.failed;
        self.drain_ms = self.drain_ms.max(other.drain_ms);
        self.span_s = self.span_s.max(other.span_s);
    }

    /// Answered requests per second of the phase, up to its last reply.
    pub fn goodput(&self) -> f64 {
        self.latency_ms.len() as f64 / self.span_s.max(f64::MIN_POSITIVE)
    }
}

/// Poisson arrival offsets (ns from phase start) at `rate` per second over
/// `seconds`, a function of `seed` only.
pub fn schedule(rate: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0f64;
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 1);
    loop {
        let u: f64 = rng.gen_range(1e-12..1.0);
        at += -u.ln() / rate;
        if at >= seconds {
            return out;
        }
        out.push((at * 1e9) as u64);
    }
}

/// Drives one connection through `offsets` (request `first_id + i` is due at
/// `start + offsets[i]`) and waits for every reply.
///
/// # Errors
///
/// A transport failure, a wrong answer, or a reply for an unknown request.
pub fn drive(
    offsets: &[u64],
    first_id: u64,
    start: Instant,
    mut wire: impl Wire,
    mut replies: impl Replies,
) -> Result<Phase, String> {
    std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> Result<Vec<f64>, String> {
            let mut lag_ms = Vec::with_capacity(offsets.len());
            for (i, &offset) in offsets.iter().enumerate() {
                let due = start + Duration::from_nanos(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                wire.send(first_id + i as u64)?;
            }
            Ok(lag_ms)
        });
        let reader = scope.spawn(move || -> Result<Phase, String> {
            let mut pending: HashMap<u64, u64> =
                offsets.iter().enumerate().map(|(i, &o)| (first_id + i as u64, o)).collect();
            let mut phase = Phase { sent: offsets.len() as u64, ..Phase::default() };
            let mut last = Instant::now();
            while !pending.is_empty() {
                let (id, ok) = replies.recv()?;
                last = Instant::now();
                let offset = pending
                    .remove(&id)
                    .ok_or_else(|| format!("reply for unknown or repeated request {id}"))?;
                if ok {
                    let due = start + Duration::from_nanos(offset);
                    phase.latency_ms.push(last.saturating_duration_since(due).as_secs_f64() * 1e3);
                } else {
                    phase.failed += 1;
                }
            }
            let final_due = start + Duration::from_nanos(offsets.last().copied().unwrap_or(0));
            phase.drain_ms = last.saturating_duration_since(final_due).as_secs_f64() * 1e3;
            phase.span_s = last.saturating_duration_since(start).as_secs_f64();
            Ok(phase)
        });
        let lag = writer.join().map_err(|_| "writer thread panicked".to_string())?;
        let phase = reader.join().map_err(|_| "reader thread panicked".to_string())?;
        let mut phase = phase?;
        phase.lag_ms = lag?;
        Ok(phase)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

    use crate::stats::percentile;

    /// A fake server on the far side of a rendezvous channel: it answers each
    /// request after `service`, and once, on request `stall_at`, stalls for `stall`
    /// before reading anything else — so the writer blocks behind it, as it would
    /// behind a full socket.
    fn fake_server(
        service: Duration,
        stall_at: Option<u64>,
        stall: Duration,
    ) -> (impl Wire, impl Replies, std::thread::JoinHandle<()>) {
        struct Tx(SyncSender<u64>);
        impl Wire for Tx {
            fn send(&mut self, id: u64) -> Result<(), String> {
                self.0.send(id).map_err(|e| e.to_string())
            }
        }
        struct Rx(Receiver<u64>);
        impl Replies for Rx {
            fn recv(&mut self) -> Result<(u64, bool), String> {
                self.0.recv().map(|id| (id, true)).map_err(|e| e.to_string())
            }
        }
        let (req_tx, req_rx) = sync_channel::<u64>(0);
        let (rep_tx, rep_rx) = sync_channel::<u64>(1 << 16);
        let server = std::thread::spawn(move || {
            for id in req_rx {
                if Some(id) == stall_at {
                    std::thread::sleep(stall);
                }
                std::thread::sleep(service);
                rep_tx.send(id).unwrap();
            }
        });
        (Tx(req_tx), Rx(rep_rx), server)
    }

    fn run(stall_at: Option<u64>) -> Phase {
        let offsets: Vec<u64> = (0..200u64).map(|i| i * 1_000_000).collect(); // 1 kHz, 200 ms
        let (wire, replies, server) =
            fake_server(Duration::from_micros(50), stall_at, Duration::from_millis(60));
        let phase = drive(&offsets, 0, Instant::now(), wire, replies).unwrap();
        server.join().unwrap();
        phase
    }

    fn p99(samples: &[f64]) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, 99.0)
    }

    #[test]
    fn a_server_stall_delays_later_requests_and_shows_as_generator_lag() {
        let calm = run(None);
        let stalled = run(Some(50));
        assert_eq!((calm.sent, stalled.sent), (200, 200));
        assert_eq!(stalled.latency_ms.len(), 200);
        // Requests scheduled during the 60 ms stall are charged from their
        // scheduled time: dozens of them see tens of milliseconds.
        let slow = stalled.latency_ms.iter().filter(|&&ms| ms > 20.0).count();
        assert!(slow >= 20, "only {slow} requests saw the stall");
        assert!(p99(&stalled.latency_ms) > 20.0 + p99(&calm.latency_ms));
        // The writer was blocked behind the stalled server: its lateness rises too.
        assert!(
            p99(&stalled.lag_ms) > 20.0 + p99(&calm.lag_ms),
            "{} vs {}",
            p99(&stalled.lag_ms),
            p99(&calm.lag_ms)
        );
    }

    #[test]
    fn schedules_are_seeded_poisson_at_the_asked_rate() {
        let a = schedule(5_000.0, 2.0, 7);
        assert_eq!(a, schedule(5_000.0, 2.0, 7));
        assert_ne!(a, schedule(5_000.0, 2.0, 8));
        assert!((9_000..11_000).contains(&a.len()), "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 2_000_000_000);
    }

    #[test]
    fn unknown_reply_ids_are_errors() {
        struct Nop;
        impl Wire for Nop {
            fn send(&mut self, _: u64) -> Result<(), String> {
                Ok(())
            }
        }
        struct Bogus;
        impl Replies for Bogus {
            fn recv(&mut self) -> Result<(u64, bool), String> {
                Ok((999, true))
            }
        }
        assert!(drive(&[0, 1], 0, Instant::now(), Nop, Bogus).unwrap_err().contains("unknown"));
    }
}
