//! `front-open`: open-loop load over loopback TCP against a `front-server` child
//! that cold-starts from a store holding a BC-Tree shard group.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use p2h_balltree::DEFAULT_LEAF_SIZE;
use p2h_core::{LinearScan, PointSet, SearchParams, SearchResult, SearchStats};
use p2h_engine::{
    BatchRequest, Engine, LoadMode, Partitioner, ShardIndexKind, ShardedIndexBuilder, Store,
};
use p2h_net::wire::{frame_bytes, read_frame, write_frame};
use p2h_net::{Message, WireQuery, PROTOCOL_VERSION};

use crate::config::*;
use crate::inputs::{self, QueryInputs};
use crate::layers;
use crate::openloop::{self, Phase, Replies, Wire};
use crate::report::{Metrics, Outcome};
use crate::stats::{median, percentile, Summary};
use crate::trace::{Span, Tracer};
use crate::{check, prom, Ctx};

const INDEX: &str = "front";
const PROBE: &str = "probe";
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// A `front-server` child that is killed and reaped however the run ends.
struct Server {
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawns `front-server --store DIR` with the default front config and waits for
/// its `READY addr=… pid=…` banner. Returns the server and seconds to the banner.
fn spawn(binary: &Path, store: &Path) -> Result<(Server, f64), String> {
    let start = Instant::now();
    let mut child = Command::new(binary)
        .arg("--store")
        .arg(store)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut server = Server { child, addr: String::new() };
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).map_err(|e| format!("read banner: {e}"))?;
    let elapsed = start.elapsed().as_secs_f64();
    server.addr = line
        .trim()
        .strip_prefix("READY addr=")
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or_else(|| format!("front-server did not report READY (got `{}`)", line.trim()))?
        .to_string();
    Ok((server, elapsed))
}

/// A connection that has completed the version handshake.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
    write_frame(&mut stream, &Message::Hello { version: PROTOCOL_VERSION }, "client.send")
        .map_err(|e| e.to_string())?;
    match read_frame(&mut stream, "client.recv").map_err(|e| e.to_string())? {
        Some(Message::HelloOk { .. }) => Ok(stream),
        other => Err(format!("handshake: unexpected {other:?}")),
    }
}

/// One request/reply on a handshaken connection.
fn call(stream: &mut TcpStream, message: &Message) -> Result<Message, String> {
    write_frame(stream, message, "client.send").map_err(|e| e.to_string())?;
    read_frame(stream, "client.recv")
        .map_err(|e| e.to_string())?
        .ok_or_else(|| "server closed the connection".into())
}

fn scrape(admin: &mut TcpStream) -> Result<String, String> {
    match call(admin, &Message::MetricsRequest { id: u64::MAX })? {
        Message::MetricsReply { text, .. } => Ok(text),
        other => Err(format!("metrics: unexpected {other:?}")),
    }
}

struct Sender<'a> {
    stream: TcpStream,
    queries: &'a [WireQuery],
    tracer: &'a Tracer,
}

impl Wire for Sender<'_> {
    fn send(&mut self, id: u64) -> Result<(), String> {
        let message = Message::FrontQuery {
            id,
            index: INDEX.to_string(),
            deadline_ms: 0,
            query: self.queries[id as usize % self.queries.len()].clone(),
        };
        self.tracer
            .span("p2h_net::wire::write_frame", 0, id, || {
                write_frame(&mut self.stream, &message, "client.send")
            })
            .map_err(|e| format!("send {id}: {e}"))
    }
}

struct Receiver<'a> {
    stream: TcpStream,
    oracle: &'a [SearchResult],
    tracer: &'a Tracer,
}

impl Replies for Receiver<'_> {
    fn recv(&mut self) -> Result<(u64, bool), String> {
        let span = self.tracer.open();
        let start_ns = self.tracer.now_ns();
        let frame =
            read_frame(&mut self.stream, "client.recv").map_err(|e| format!("receive: {e}"))?;
        if let Some(Message::FrontReply { id, .. } | Message::FrontError { id, .. }) = &frame {
            let end_ns = self.tracer.now_ns();
            let name = "p2h_net::wire::read_frame";
            self.tracer.record(Span { id: span, parent: 0, name, request: *id, start_ns, end_ns });
        }
        match frame {
            Some(Message::FrontReply { id, result }) => {
                let want = &self.oracle[id as usize % self.oracle.len()];
                check::same_bits(&result, want, &format!("front reply {id} vs in-process answer"))?;
                Ok((id, true))
            }
            Some(Message::FrontError { id, .. }) => Ok((id, false)),
            other => Err(format!("unexpected frame {other:?}")),
        }
    }
}

/// What the front-end is asked and must answer: the query pool on the wire, and
/// the in-process answers from the same store every reply must equal.
struct Fixture<'a> {
    inputs: &'a QueryInputs,
    params: SearchParams,
    wire_queries: Vec<WireQuery>,
    local: Engine,
    oracle: Vec<SearchResult>,
    oracle_stats: SearchStats,
    recall: f64,
}

impl<'a> Fixture<'a> {
    fn new(inputs: &'a QueryInputs, store_dir: &Path, threads: usize) -> Result<Self, String> {
        let params = SearchParams::approximate(K, FO_BUDGET);
        let wire_queries =
            inputs.queries.iter().map(|q| WireQuery::from_query(q, &params)).collect();
        let local = Engine::from_store_with(store_dir, threads, LoadMode::Copy)
            .map_err(|e| e.to_string())?;
        let answers = local
            .serve(INDEX, &BatchRequest::new(inputs.queries.clone(), params.clone()))
            .map_err(|e| e.to_string())?;
        let recall = answers
            .results
            .iter()
            .zip(&inputs.truth)
            .map(|(r, t)| check::recall(r, t))
            .sum::<f64>()
            / inputs.queries.len() as f64;
        Ok(Self {
            inputs,
            params,
            wire_queries,
            local,
            oracle_stats: answers.total_stats,
            oracle: answers.results,
            recall,
        })
    }
}

/// Offers `rate` requests/s for `seconds` over `conns` connections.
fn phase(
    fx: &Fixture<'_>,
    addr: &str,
    conns: usize,
    rate: f64,
    seconds: f64,
    seed: u64,
    tracer: &Tracer,
) -> Result<Phase, String> {
    let (queries, oracle) = (&fx.wire_queries[..], &fx.oracle[..]);
    let mut streams = Vec::with_capacity(conns);
    for _ in 0..conns {
        streams.push(connect(addr)?);
    }
    let start = Instant::now() + Duration::from_millis(5);
    let results: Vec<Result<Phase, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(c, stream)| {
                let offsets = openloop::schedule(
                    rate / conns as f64,
                    seconds,
                    seed.wrapping_mul(31).wrapping_add(c as u64),
                );
                let first_id = (c as u64) << 40 | (seed & 0xFFFF) << 24;
                scope.spawn(move || -> Result<Phase, String> {
                    let writer = stream.try_clone().map_err(|e| e.to_string())?;
                    openloop::drive(
                        &offsets,
                        first_id,
                        start,
                        Sender { stream: writer, queries, tracer },
                        Receiver { stream, oracle, tracer },
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("connection thread panicked".into())))
            .collect()
    });
    let mut total = Phase::default();
    for result in results {
        total.merge(result?);
    }
    Ok(total)
}

/// One rung of the rate ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    /// Offered requests per second.
    pub rate: f64,
    /// Windowed p99 in ms, or the backlog drain time or refusal stand-in if larger.
    pub p99: f64,
    /// Whether the rung met the limit with no backlog and no refusals.
    pub passed: bool,
}

/// The highest rung of the ladder that passed, interpolated on log p99 toward the
/// first rung that failed: the offered rate at which p99 would reach the limit.
pub fn max_qps_at_slo(rungs: &[Rung], slo_ms: f64) -> f64 {
    let Some(first_fail) = rungs.iter().position(|r| !r.passed) else {
        return rungs.last().map_or(0.0, |r| r.rate);
    };
    if first_fail == 0 {
        return rungs[0].rate * (slo_ms / rungs[0].p99).min(1.0);
    }
    let Rung { rate: lo_rate, p99: lo_p99, .. } = rungs[first_fail - 1];
    let Rung { rate: hi_rate, p99: hi_p99, .. } = rungs[first_fail];
    let span = hi_p99.ln() - lo_p99.ln();
    let frac = if hi_p99 > slo_ms && span > 0.0 {
        ((slo_ms.ln() - lo_p99.ln()) / span).clamp(0.0, 1.0)
    } else {
        0.0
    };
    lo_rate + (hi_rate - lo_rate) * frac
}

/// Heavy-phase p50 not accounted for by the wire and event loop (ping), the
/// coalescing queue and the engine batch.
pub fn unexplained_us(heavy_p50_us: f64, ping_us: f64, queue_us: f64, engine_us: f64) -> f64 {
    heavy_p50_us - ping_us - queue_us - engine_us
}

fn build_store(dir: &Path, inputs: &QueryInputs, seed: u64, shards: usize) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::create(dir).map_err(|e| format!("create store: {e}"))?;
    ShardedIndexBuilder::new(
        Partitioner::Hash { shards },
        ShardIndexKind::BcTree { leaf_size: DEFAULT_LEAF_SIZE },
    )
    .with_seed(seed)
    .build_parallel(&inputs.points, shards)
    .map_err(|e| format!("shard build: {e}"))?
    .save_into(&store, INDEX)
    .map_err(|e| format!("save shard group: {e}"))?;
    let one = PointSet::from_flat(inputs.points.dim(), inputs.points.point(0).to_vec())
        .map_err(|e| e.to_string())?;
    store.save(PROBE, &LinearScan::new(one)).map_err(|e| format!("save probe entry: {e}"))?;
    Ok(())
}

/// Closed-loop round trips of `message` on a fresh connection; microseconds each.
fn round_trips(
    addr: &str,
    count: usize,
    message: impl Fn(u64) -> Message,
) -> Result<Vec<f64>, String> {
    let mut stream = connect(addr)?;
    let mut rtts = Vec::with_capacity(count);
    for i in 0..count as u64 {
        let sent = Instant::now();
        match call(&mut stream, &message(i))? {
            Message::Pong { .. } | Message::FrontReply { .. } => {
                rtts.push(sent.elapsed().as_secs_f64() * 1e6)
            }
            other => return Err(format!("probe: unexpected {other:?}")),
        }
    }
    Ok(rtts)
}

/// Mean microseconds per batch of `size` queries served by `serve`.
fn serve_us(
    pool: &[BatchRequest],
    mut serve: impl FnMut(&BatchRequest) -> Result<(), String>,
) -> Result<f64, String> {
    let start = Instant::now();
    for batch in pool {
        serve(batch)?;
    }
    Ok(start.elapsed().as_secs_f64() * 1e6 / pool.len() as f64)
}

/// Runs the workload.
///
/// # Errors
///
/// A failed output check, a refused request in a fixed-rate phase, or a
/// transport or serving error.
pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let binary = ctx.front_server.clone().ok_or("front-open needs --front-server")?;
    let inputs = inputs::load_query_inputs(&ctx.work, "front-open", ctx.seed)?;
    let store_dir = ctx.work.join(format!("front-store-{}", std::process::id()));
    build_store(&store_dir, &inputs, ctx.seed, ctx.nproc)?;
    let result = measure(ctx, &binary, &store_dir, &inputs);
    let _ = std::fs::remove_dir_all(&store_dir);
    result
}

fn measure(
    ctx: &Ctx<'_>,
    binary: &Path,
    store_dir: &Path,
    inputs: &QueryInputs,
) -> Result<Outcome, String> {
    let fx = Fixture::new(inputs, store_dir, ctx.nproc)?;

    // Set-up: spawn to READY, repeated; the last server is measured.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for repeat in 0..SETUP_REPEATS {
        drop(server.take());
        let (spawned, secs) =
            ctx.tracer
                .span("front-server::cold_start", 0, repeat as u64, || spawn(binary, store_dir))?;
        setup_s.push(secs);
        server = Some(spawned);
    }
    let server = server.expect("spawned at least once");
    let addr = server.addr.clone();
    let mut admin = connect(&addr)?;
    let cold = scrape(&mut admin)?;

    let conns = (ctx.nproc / 2).max(1);
    let quiet = Tracer::new(false);
    let run_phase = |rate: f64, secs: f64, salt: u64, tracer: &Tracer| {
        phase(&fx, &addr, conns, rate, secs, ctx.seed ^ salt, tracer)
    };
    let heavy_s = ctx.seconds * FO_HEAVY_SHARE;

    run_phase(FO_HEAVY_RATE, 0.3, 0x3A, &quiet)?; // warm-up, not measured
    let m0 = scrape(&mut admin)?;
    let light = run_phase(FO_LIGHT_RATE, ctx.seconds * FO_LIGHT_SHARE, 0x11, &quiet)?;
    let m1 = scrape(&mut admin)?;
    let heavy = run_phase(FO_HEAVY_RATE, heavy_s, 0x22, &quiet)?;
    let m2 = scrape(&mut admin)?;
    let peak_rss = crate::env::peak_rss_mb(&server.child.id().to_string()).unwrap_or(0.0);
    let light_sum = Summary::of(&light.latency_ms).ok_or("too few light-phase replies")?;
    let heavy_sum = Summary::of(&heavy.latency_ms).ok_or("too few heavy-phase replies")?;
    ctx.note(format!("front-open light latency: {}", light_sum.describe("ms")));
    ctx.note(format!("front-open heavy latency: {}", heavy_sum.describe("ms")));
    ctx.note(format!("front-open setup spawns: {setup_s:?} s; {conns} connection(s)"));

    // A refusal (typed overload or deadline) is counted as failed, never retried;
    // latency percentiles cover the answered requests.
    let (attempted, failed) = (light.sent + heavy.sent, light.failed + heavy.failed);
    ctx.note(format!("front-open refused {failed} of {attempted} fixed-rate requests"));
    let mut outcome = Outcome { attempted, failed, ..Outcome::default() };
    let m = &mut outcome.metrics;
    m.set("setup_s", median(&setup_s));
    m.set("qps", heavy.goodput());
    m.set("p50_ms", heavy_sum.p50);
    m.set("recall_at_10", fx.recall);
    m.set("peak_rss_mb", peak_rss);
    m.set("light.p50_ms", light_sum.p50);
    m.set("light.p99_ms", light_sum.tail);
    m.set("heavy.p50_ms", heavy_sum.p50);
    m.set("heavy.p99_ms", heavy_sum.tail);
    m.set("failed_share", failed as f64 / attempted.max(1) as f64);
    if !ctx.tracer.enabled() {
        return Ok(outcome);
    }

    // Traced run: the heavy phase again with spans on, the rate ladder, the probes.
    let traced = run_phase(FO_HEAVY_RATE, heavy_s, 0x22, ctx.tracer)?;
    let traced_sum = Summary::of(&traced.latency_ms).ok_or("too few traced replies")?;
    ctx.note(format!("front-open traced heavy latency: {}", traced_sum.describe("ms")));
    m.set("obs.trace_overhead_share", traced_sum.p50 / heavy_sum.p50 - 1.0);
    let (rungs, ladder_failed) =
        ladder(ctx, |rate, secs, salt| run_phase(rate, secs, salt, &quiet))?;
    m.set("max_qps_at_slo", max_qps_at_slo(&rungs, FO_SLO_MS));
    let ping = round_trips(&addr, FO_PROBES, |nonce| Message::Ping { nonce })?;
    let probe_query = WireQuery::from_query(&inputs.queries[0], &SearchParams::exact(1));
    let probe = round_trips(&addr, FO_PROBES, |id| Message::FrontQuery {
        id,
        index: PROBE.to_string(),
        deadline_ms: 0,
        query: probe_query.clone(),
    })?;
    let end = scrape(&mut admin)?;
    drop(admin);
    drop(server);

    let scrapes = Scrapes { cold, m0, m1, m2, end };
    layer_metrics(ctx, m, &fx, &scrapes)?;
    let Scrapes { m0, m1, m2, end, .. } = scrapes;
    let mut lag = heavy.lag_ms.clone();
    lag.extend(&light.lag_ms);
    lag.sort_by(f64::total_cmp);
    m.set("gen.lag_p99_ms", percentile(&lag, 99.0));
    let ping_p50 = median(&ping);
    m.set("net.ping_rtt_us_p50", ping_p50);
    m.set("front.probe_rtt_us_p50", median(&probe));
    m.set("front.shed", prom::delta(&m0, &end, "p2h_front_shed_total", &[]));
    let queue_us = prom::delta(&m1, &m2, "p2h_front_queue_wait_ns_sum", &[])
        / prom::delta(&m1, &m2, "p2h_front_queue_wait_ns_count", &[]).max(1.0)
        / 1e3;
    let engine_us = prom::delta(&m1, &m2, "p2h_batch_wall_ns_total", &[])
        / prom::delta(&m1, &m2, "p2h_batches_total", &[]).max(1.0)
        / 1e3;
    m.set(
        "front.unexplained_us",
        unexplained_us(heavy_sum.p50 * 1e3, ping_p50, queue_us, engine_us),
    );
    ctx.note(format!(
        "front-open heavy p50 split (us): ping {ping_p50:.2} queue {queue_us:.2} engine {engine_us:.2}; ladder refused {ladder_failed}"
    ));
    Ok(outcome)
}

/// Climbs [`FO_LADDER`] until a rung misses the limit. Returns the rungs and the
/// requests the ladder saw refused.
fn ladder(
    ctx: &Ctx<'_>,
    run_phase: impl Fn(f64, f64, u64) -> Result<Phase, String>,
) -> Result<(Vec<Rung>, u64), String> {
    let mut rungs = Vec::new();
    let mut refused_total = 0;
    for (i, &rate) in FO_LADDER.iter().enumerate() {
        let rung = run_phase(rate, FO_RUNG_S, 0x100 + i as u64)?;
        refused_total += rung.failed;
        let p99 = Summary::of(&rung.latency_ms).map_or(f64::INFINITY, |s| s.tail);
        let ok = rung.failed == 0 && p99 <= FO_SLO_MS && rung.drain_ms <= FO_SLO_MS;
        // A backlog still draining past the limit counts like a p99 beyond it, and a
        // refused request misses any limit: each percent refused adds the limit again.
        let refused = rung.failed as f64 / rung.sent.max(1) as f64;
        let refusal_p99 = if rung.failed > 0 { FO_SLO_MS * (1.0 + 100.0 * refused) } else { 0.0 };
        let p99 = p99.max(rung.drain_ms).max(refusal_p99);
        let lag = Summary::of(&rung.lag_ms).map_or(0.0, |s| s.tail);
        ctx.note(format!(
            "front-open ladder rate={rate} p99_ms={p99:.4} lag_p99_ms={lag:.4} drain_ms={:.4} failed={} n={} -> {}",
            rung.drain_ms,
            rung.failed,
            rung.latency_ms.len(),
            if ok { "pass" } else { "fail" }
        ));
        rungs.push(Rung { rate, p99, passed: ok });
        if !ok {
            break;
        }
    }
    Ok((rungs, refused_total))
}

struct Scrapes {
    cold: String,
    m0: String,
    m1: String,
    m2: String,
    end: String,
}

fn layer_metrics(
    ctx: &Ctx<'_>,
    m: &mut Metrics,
    fx: &Fixture<'_>,
    s: &Scrapes,
) -> Result<(), String> {
    let (inputs, local, params) = (fx.inputs, &fx.local, &fx.params);
    let stage =
        |name: &str| prom::sum(&s.cold, "p2h_store_load_stage_ns_total", &[("stage", name)]) / 1e6;
    m.set("store.read_ms", stage("read"));
    m.set("store.crc_ms", stage("crc"));
    m.set("store.decode_ms", stage("decode"));
    let load_bytes = prom::sum(&s.cold, "p2h_store_load_bytes_total", &[]);
    m.set("store.load_mb", load_bytes / 1e6);
    m.set("store.bytes_per_user_byte", load_bytes / (inputs.points.len() * FO_RAW_DIM * 4) as f64);

    let batch_size = |a: &str, b: &str| {
        prom::delta(a, b, "p2h_front_requests_total", &[])
            / prom::delta(a, b, "p2h_front_batches_total", &[]).max(1.0)
    };
    let light_batch = batch_size(&s.m0, &s.m1);
    let heavy_batch = batch_size(&s.m1, &s.m2);
    m.set("front.mean_batch_size.light", light_batch);
    m.set("front.mean_batch_size.heavy", heavy_batch);
    let fanned =
        prom::delta(&s.m0, &s.m2, "p2h_front_dispatch_total", &[("path", "shard_parallel")]);
    m.set(
        "shard.fanout_share",
        fanned / prom::delta(&s.m0, &s.m2, "p2h_front_dispatch_total", &[]).max(1.0),
    );

    let request = Message::FrontQuery {
        id: 0,
        index: INDEX.to_string(),
        deadline_ms: 0,
        query: fx.wire_queries[0].clone(),
    };
    let reply = Message::FrontReply { id: 0, result: fx.oracle[0].clone() };
    m.set(
        "net.frame_bytes_per_query",
        (frame_bytes(&request).len() + frame_bytes(&reply).len()) as f64,
    );

    layers::record_tree(m, &fx.oracle_stats, inputs.queries.len());
    let size = (heavy_batch.round() as usize).clamp(1, 64);
    let pool: Vec<BatchRequest> = inputs
        .queries
        .chunks(size)
        .map(|c| BatchRequest::new(c.to_vec(), params.clone()))
        .collect();
    let sharded =
        serve_us(&pool, |b| local.serve_sharded(INDEX, b).map(drop).map_err(|e| e.to_string()))?;
    let query_parallel =
        serve_us(&pool, |b| local.serve(INDEX, b).map(drop).map_err(|e| e.to_string()))?;
    m.set("shard.serve_sharded_us", sharded);
    m.set("shard.serve_query_parallel_us", query_parallel);

    let whole = BatchRequest::new(inputs.queries.clone(), params.clone());
    let timed = BatchRequest::new(inputs.queries.clone(), params.clone().with_timing());
    let (plain_s, _) = layers::timed(|| local.serve(INDEX, &whole));
    let (timed_s, response) = layers::timed(|| local.serve(INDEX, &timed));
    let response = response.map_err(|e| e.to_string())?;
    layers::record_timing(m, &response.total_stats, inputs.queries.len());
    m.set("obs.timing_overhead_share", layers::overhead_share(1.0 / plain_s, 1.0 / timed_s));
    layers::kernel_probe(m, &inputs.points, &inputs.queries[..64], 65_536);
    ctx.note(format!("front-open in-process batch of {size}: sharded {sharded:.1} us, query-parallel {query_parallel:.1} us"));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unexplained_is_the_remainder_of_the_heavy_median() {
        assert_eq!(unexplained_us(900.0, 60.0, 500.0, 250.0), 90.0);
        // More explained than measured shows as a negative remainder, not a clamp.
        assert_eq!(unexplained_us(700.0, 60.0, 500.0, 250.0), -110.0);
    }

    fn rung(rate: f64, p99: f64, passed: bool) -> Rung {
        Rung { rate, p99, passed }
    }

    #[test]
    fn ladder_interpolates_on_log_p99_toward_the_first_failure() {
        let slo = 5.0;
        // All pass: the top rung.
        assert_eq!(max_qps_at_slo(&[rung(1.0, 1.0, true), rung(2.0, 2.0, true)], slo), 2.0);
        // p99 from 2.5 to 10 ms between 4k and 6k: the limit is crossed halfway in log.
        let rungs =
            [rung(2_000.0, 1.0, true), rung(4_000.0, 2.5, true), rung(6_000.0, 10.0, false)];
        assert!((max_qps_at_slo(&rungs, slo) - 5_000.0).abs() < 1e-6);
        // A failure with p99 under the limit (refusals, backlog) stops at the last pass.
        assert_eq!(
            max_qps_at_slo(&[rung(4_000.0, 2.5, true), rung(6_000.0, 3.0, false)], slo),
            4_000.0
        );
        // The first rung already fails: scale it down by the excess.
        assert_eq!(max_qps_at_slo(&[rung(4_000.0, 10.0, false)], slo), 2_000.0);
    }
}
