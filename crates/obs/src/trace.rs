//! Sampled structured query tracing: every-Nth-query spans written as JSON lines.
//!
//! Tracing is configured once per process through the `P2H_TRACE` environment
//! variable: `P2H_TRACE=path` traces every query to `path`, `P2H_TRACE=path:N` traces
//! every Nth query. When the variable is unset (the default), [`from_env`] returns
//! `None` and the serving hot path pays exactly one `OnceLock` load per batch —
//! no branch per query, no allocation, no clock read.
//!
//! Each record is one JSON object per line (see `docs/OBSERVABILITY.md` for the
//! schema): the query's position and effective parameters, its wall-clock latency,
//! and the stage breakdown carried by [`SearchStats`-shaped fields] — bounds
//! (traversal), verify (leaf verification), lookup (hash probing), merge (sharded
//! fan-out merge), and the unattributed remainder. Stage timings require the serving
//! layer to enable `collect_timing` for sampled queries; that only adds clock reads,
//! so traced answers stay bit-identical (enforced in CI by running
//! `snapshot_bench --check` under `P2H_TRACE`).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// A JSON-lines trace sink with every-Nth sampling.
///
/// A failed append (disk full, closed fd) permanently disables the sink: tracing is
/// best-effort telemetry, and an unwritable sink must neither take the serve path
/// down nor re-discover the same error on every sampled query. The first failure
/// increments `p2h_trace_errors_total` exactly once; after that [`sample`] returns
/// `None` without drawing a sequence number, so the serve path pays one relaxed load.
///
/// [`sample`]: TraceSink::sample
#[derive(Debug)]
pub struct TraceSink {
    writer: Mutex<BufWriter<File>>,
    rate: u64,
    sequence: AtomicU64,
    disabled: AtomicBool,
}

impl TraceSink {
    /// Creates a sink writing to `path`, sampling every `rate`-th query (`rate` is
    /// clamped to at least 1).
    pub fn create(path: &Path, rate: u64) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self {
            writer: Mutex::new(BufWriter::new(file)),
            rate: rate.max(1),
            sequence: AtomicU64::new(0),
            disabled: AtomicBool::new(false),
        })
    }

    /// The sampling rate (1 = every query).
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Whether a write failure has permanently disabled this sink.
    pub fn is_disabled(&self) -> bool {
        self.disabled.load(Ordering::Acquire)
    }

    /// Draws the next global sequence number and decides whether that query is
    /// sampled; returns the sequence number if so. One `fetch_add` per call, one
    /// relaxed load once the sink is disabled.
    #[inline]
    pub fn sample(&self) -> Option<u64> {
        if self.disabled.load(Ordering::Acquire) {
            return None;
        }
        let seq = self.sequence.fetch_add(1, Ordering::Relaxed);
        seq.is_multiple_of(self.rate).then_some(seq)
    }

    /// Writes one record as a JSON line and flushes it (the sink lives for the whole
    /// process, so buffered bytes would otherwise only surface at exit). A failed
    /// write or flush disables the sink (see the type-level docs).
    pub fn write(&self, record: &QueryTrace<'_>) {
        let line = record.to_json_line();
        let mut writer = self.writer.lock().expect("trace sink poisoned");
        let result = match crate::fault::check("trace.write") {
            Some(_) => Err(std::io::Error::other("injected trace write failure")),
            None => writer.write_all(line.as_bytes()).and_then(|()| writer.flush()),
        };
        if result.is_err() {
            self.disable();
        }
    }

    /// Flushes buffered records; a failure disables the sink like a failed write.
    pub fn flush(&self) {
        if self.writer.lock().expect("trace sink poisoned").flush().is_err() {
            self.disable();
        }
    }

    fn disable(&self) {
        // swap() makes the metric increment exactly-once even under concurrent
        // failing writers.
        if !self.disabled.swap(true, Ordering::AcqRel) {
            crate::global()
                .counter(
                    "p2h_trace_errors_total",
                    "Trace sinks disabled after a failed JSON-lines append.",
                    &[],
                )
                .inc();
        }
    }
}

/// One sampled query span.
#[derive(Debug, Clone, Copy)]
pub struct QueryTrace<'a> {
    /// Global sample sequence number (from [`TraceSink::sample`]).
    pub seq: u64,
    /// Name the index is registered under.
    pub index: &'a str,
    /// Serving path the batch took: `"batch"` (query-parallel), `"sharded"`
    /// (fan-out across shards), `"live"` (layered memtable + base), or `"remote"`
    /// (routed to shard servers through `Engine::serve_remote`).
    pub path: &'a str,
    /// Query position within its batch.
    pub query: usize,
    /// Requested top-k.
    pub k: u64,
    /// Candidate budget, if the query was approximate.
    pub candidate_limit: Option<u64>,
    /// Wall-clock latency of the query (fan-out sum for the sharded path).
    pub latency_ns: u64,
    /// Nanoseconds in lower-bound computation (tree traversal).
    pub stage_bounds_ns: u64,
    /// Nanoseconds verifying candidates (leaf verification).
    pub stage_verify_ns: u64,
    /// Nanoseconds probing hash tables / projections.
    pub stage_lookup_ns: u64,
    /// Nanoseconds merging per-shard top-k lists (sharded path only).
    pub stage_merge_ns: u64,
    /// Unattributed remainder of `latency_ns`.
    pub stage_other_ns: u64,
    /// Tree nodes visited.
    pub nodes_visited: u64,
    /// Exact distances computed.
    pub candidates_verified: u64,
    /// Subtrees pruned by the ball bound.
    pub pruned_subtrees: u64,
    /// Neighbors returned.
    pub result_len: u64,
}

impl QueryTrace<'_> {
    /// Serializes the record as one JSON line (trailing `\n` included).
    pub fn to_json_line(&self) -> String {
        let mut line = String::with_capacity(256);
        line.push('{');
        push_field(&mut line, "seq", self.seq);
        line.push_str(",\"index\":\"");
        push_escaped(&mut line, self.index);
        line.push_str("\",\"path\":\"");
        push_escaped(&mut line, self.path);
        line.push('"');
        line.push(',');
        push_field(&mut line, "query", self.query as u64);
        line.push(',');
        push_field(&mut line, "k", self.k);
        match self.candidate_limit {
            Some(limit) => {
                line.push(',');
                push_field(&mut line, "candidate_limit", limit);
            }
            None => line.push_str(",\"candidate_limit\":null"),
        }
        for (name, value) in [
            ("latency_ns", self.latency_ns),
            ("stage_bounds_ns", self.stage_bounds_ns),
            ("stage_verify_ns", self.stage_verify_ns),
            ("stage_lookup_ns", self.stage_lookup_ns),
            ("stage_merge_ns", self.stage_merge_ns),
            ("stage_other_ns", self.stage_other_ns),
            ("nodes_visited", self.nodes_visited),
            ("candidates_verified", self.candidates_verified),
            ("pruned_subtrees", self.pruned_subtrees),
            ("result_len", self.result_len),
        ] {
            line.push(',');
            push_field(&mut line, name, value);
        }
        line.push_str("}\n");
        line
    }
}

fn push_field(line: &mut String, name: &str, value: u64) {
    use std::fmt::Write as _;
    let _ = write!(line, "\"{name}\":{value}");
}

fn push_escaped(line: &mut String, value: &str) {
    for c in value.chars() {
        match c {
            '"' => line.push_str("\\\""),
            '\\' => line.push_str("\\\\"),
            '\n' => line.push_str("\\n"),
            '\r' => line.push_str("\\r"),
            '\t' => line.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(line, "\\u{:04x}", c as u32);
            }
            c => line.push(c),
        }
    }
}

/// The process-wide trace sink configured by `P2H_TRACE=path[:rate]`, or `None` when
/// tracing is disabled (unset/empty variable, or an unwritable path — tracing must
/// never take the serving path down). The variable is read once, on first call.
pub fn from_env() -> Option<&'static TraceSink> {
    static SINK: OnceLock<Option<TraceSink>> = OnceLock::new();
    SINK.get_or_init(|| {
        let spec = std::env::var("P2H_TRACE").ok()?;
        if spec.is_empty() {
            return None;
        }
        let (path, rate) = match spec.rsplit_once(':') {
            Some((path, rate_str)) if !path.is_empty() => match rate_str.parse::<u64>() {
                Ok(rate) => (path.to_string(), rate),
                Err(_) => (spec.clone(), 1),
            },
            _ => (spec.clone(), 1),
        };
        TraceSink::create(Path::new(&path), rate).ok()
    })
    .as_ref()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> QueryTrace<'static> {
        QueryTrace {
            seq: 7,
            index: "ball",
            path: "batch",
            query: 3,
            k: 10,
            candidate_limit: Some(200),
            latency_ns: 1234,
            stage_bounds_ns: 400,
            stage_verify_ns: 500,
            stage_lookup_ns: 0,
            stage_merge_ns: 0,
            stage_other_ns: 334,
            nodes_visited: 42,
            candidates_verified: 17,
            pruned_subtrees: 5,
            result_len: 10,
        }
    }

    #[test]
    fn json_line_has_every_field() {
        let line = record().to_json_line();
        assert!(line.starts_with('{') && line.ends_with("}\n"));
        for needle in [
            "\"seq\":7",
            "\"index\":\"ball\"",
            "\"path\":\"batch\"",
            "\"query\":3",
            "\"k\":10",
            "\"candidate_limit\":200",
            "\"latency_ns\":1234",
            "\"stage_bounds_ns\":400",
            "\"stage_merge_ns\":0",
            "\"result_len\":10",
        ] {
            assert!(line.contains(needle), "{needle} missing from {line}");
        }
        let exact = QueryTrace { candidate_limit: None, ..record() };
        assert!(exact.to_json_line().contains("\"candidate_limit\":null"));
    }

    #[test]
    fn index_names_are_escaped() {
        let weird = QueryTrace { index: "a\"b\\c\nd", ..record() };
        assert!(weird.to_json_line().contains("\"index\":\"a\\\"b\\\\c\\nd\""));
    }

    #[test]
    fn sampling_takes_every_nth() {
        let dir = std::env::temp_dir().join(format!("p2h-obs-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sink = TraceSink::create(&dir.join("t.jsonl"), 3).unwrap();
        let sampled: Vec<bool> = (0..9).map(|_| sink.sample().is_some()).collect();
        assert_eq!(sampled, [true, false, false, true, false, false, true, false, false]);
        assert_eq!(sink.rate(), 3);
        // rate 0 clamps to 1: every query sampled.
        let every = TraceSink::create(&dir.join("u.jsonl"), 0).unwrap();
        assert!(every.sample().is_some() && every.sample().is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_disables_sink_with_one_metric_increment() {
        let _guard = crate::fault::test_lock();
        let dir = std::env::temp_dir().join(format!("p2h-obs-trace-f-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let sink = TraceSink::create(&dir.join("fail.jsonl"), 1).unwrap();
        let errors = crate::global().counter(
            "p2h_trace_errors_total",
            "Trace sinks disabled after a failed JSON-lines append.",
            &[],
        );
        let before = errors.value();

        crate::fault::set_spec("trace.write:disconnect:1:1").unwrap();
        assert!(sink.sample().is_some(), "sink starts enabled");
        sink.write(&record());
        crate::fault::set_rules(Vec::new());

        assert!(sink.is_disabled(), "failed append disables the sink");
        assert_eq!(errors.value(), before + 1, "exactly one error increment");
        assert!(sink.sample().is_none(), "disabled sink stops sampling");
        // Further writes must not error again or double-count.
        sink.write(&record());
        sink.flush();
        assert_eq!(errors.value(), before + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn writes_are_line_oriented() {
        let dir = std::env::temp_dir().join(format!("p2h-obs-trace-w-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("lines.jsonl");
        let sink = TraceSink::create(&path, 1).unwrap();
        sink.write(&record());
        sink.write(&record());
        sink.flush();
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents.lines().count(), 2);
        for line in contents.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
