//! `active-learning`: the paper's application loop over a live entry. Each round
//! serves one exact batch of hyperplanes (one per class) through
//! `Engine::serve_live`, deletes the nearest point of each (the labelled one) and
//! inserts a batch of new arrivals durably. The benchmark starts compactions itself
//! on a background thread at fixed rounds.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use p2h_core::{LinearScan, P2hIndex, PointSet, Scalar, SearchParams, SearchStats};
use p2h_engine::{BatchRequest, CompactionReport, Engine, LiveIndex, LoadMode, Store};

use crate::config::*;
use crate::inputs::{self, ActiveInputs};
use crate::layers;
use crate::report::{Metrics, Outcome};
use crate::stats::{mean, median, Summary};
use crate::trace::{Span, Tracer};
use crate::{check, prom, Ctx};

const NAME: &str = "active";

fn rows(flat: &[Scalar]) -> Vec<Vec<Scalar>> {
    flat.chunks(AL_RAW_DIM).map(<[Scalar]>::to_vec).collect()
}

/// Builds the store the timed cold start opens: a compacted Ball-Tree base plus a
/// WAL tail of inserts and deletes (untimed).
fn prepare_store(dir: &Path, inputs: &ActiveInputs) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = Store::create(dir).map_err(|e| format!("create store: {e}"))?;
    let live = LiveIndex::create(&store, NAME, AL_RAW_DIM + 1)
        .map_err(|e| format!("create live entry: {e}"))?;
    for chunk in inputs.base.chunks(10_000 * AL_RAW_DIM) {
        live.insert_batch(&rows(chunk)).map_err(|e| format!("base insert: {e}"))?;
    }
    live.compact().map_err(|e| format!("base compaction: {e}"))?;
    for chunk in inputs.tail.chunks(100 * AL_RAW_DIM) {
        live.insert_batch(&rows(chunk)).map_err(|e| format!("tail insert: {e}"))?;
    }
    for &id in &inputs.tail_deletes {
        live.delete(id).map_err(|e| format!("tail delete {id}: {e}"))?;
    }
    Ok(())
}

/// Checks one exact query against `LinearScan` over `live_points()` and the
/// benchmark's model of the live ids against the index's.
fn oracle_check(
    engine: &Engine,
    live: &LiveIndex,
    model: &BTreeSet<u32>,
    query: &p2h_core::HyperplaneQuery,
    context: &str,
) -> Result<(), String> {
    let points = live.live_points();
    let ids: Vec<u32> = points.iter().map(|p| p.0).collect();
    if ids.len() != model.len() || !ids.iter().eq(model.iter()) {
        return Err(format!(
            "{context}: the index holds {} live ids, the model {}",
            ids.len(),
            model.len()
        ));
    }
    let flat: Vec<Scalar> = points.into_iter().flat_map(|p| p.1).collect();
    let scan =
        LinearScan::new(PointSet::from_flat(AL_RAW_DIM + 1, flat).map_err(|e| e.to_string())?);
    let want: Vec<(u32, Scalar)> =
        scan.search_exact(query, K).neighbors.iter().map(|n| (ids[n.index], n.distance)).collect();
    let got = engine
        .serve_live(NAME, &BatchRequest::new(vec![query.clone()], SearchParams::exact(K)))
        .map_err(|e| e.to_string())?;
    check::same_pairs(
        &check::pairs(&got.results[0]),
        &want,
        &format!("{context}: live answer vs LinearScan"),
    )
}

/// Runs the workload.
///
/// # Errors
///
/// A failed output check or a serving, WAL or compaction error.
pub fn run(ctx: &Ctx<'_>) -> Result<Outcome, String> {
    let inputs = inputs::load_active_inputs(&ctx.work, ctx.seed)?;
    let dir = ctx.work.join(format!("active-store-{}", std::process::id()));
    prepare_store(&dir, &inputs)?;
    let result = measure(ctx, &dir, &inputs);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn measure(ctx: &Ctx<'_>, dir: &Path, inputs: &ActiveInputs) -> Result<Outcome, String> {
    // Set-up: store open, WAL replay and register, repeated; the last engine serves.
    let before_open = p2h_obs::global().render_text();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut opened = None;
    for repeat in 0..SETUP_REPEATS {
        drop(opened.take());
        let (secs, engine) = layers::timed(|| -> Result<Engine, String> {
            let store = ctx.tracer.span("p2h_store::Store::open_with", 0, repeat as u64, || {
                Store::open_with(dir, LoadMode::Copy)
            });
            let store = store.map_err(|e| format!("open store: {e}"))?;
            let live = ctx.tracer.span("p2h_live::LiveIndex::open", 0, repeat as u64, || {
                LiveIndex::open(&store, NAME)
            });
            let engine = Engine::new(ctx.nproc);
            engine.register_live(NAME, live.map_err(|e| format!("open live entry: {e}"))?);
            Ok(engine)
        });
        opened = Some(engine?);
        setup_s.push(secs);
    }
    let after_open = p2h_obs::global().render_text();
    let engine = opened.expect("opened at least once");
    let live = engine.live(NAME).expect("registered");

    // The benchmark's own model of the live ids.
    let mut model: BTreeSet<u32> = (0..(AL_N + AL_TAIL) as u32).collect();
    for id in &inputs.tail_deletes {
        model.remove(id);
    }
    oracle_check(&engine, &live, &model, &inputs.hyperplanes[0], "after open")?;

    let h = AL_CLASSES;
    let mut s = Samples::default();
    let mut excluded = Duration::ZERO;
    let mut pending: Option<std::thread::JoinHandle<Result<CompactionReport, String>>> = None;
    let mut rounds = 0usize;
    let mut done = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    // A slow host stretches the run rather than skipping a compaction.
    let last_compaction = AL_COMPACT_AT.last().copied().unwrap_or(0);
    while rounds < AL_MAX_ROUNDS
        && (Instant::now() < deadline || pending.is_some() || rounds <= last_compaction)
    {
        let r = rounds;
        if r == 0 {
            s.counted.0 = p2h_obs::global().render_text();
        }
        if AL_COMPACT_AT.contains(&r) && pending.is_none() {
            let index = Arc::clone(&live);
            let handle =
                std::thread::spawn(move || index.compact().map_err(|e| format!("compaction: {e}")));
            // Continue only once the compaction has frozen its survivors, so the rows
            // it folds are the same in every run.
            while !live.is_compacting() && !handle.is_finished() {
                std::thread::yield_now();
            }
            pending = Some(handle);
        }
        let round_span = ctx.tracer.open();
        let round_start = ctx.tracer.now_ns();
        let request = BatchRequest::new(
            inputs.hyperplanes[r * h..(r + 1) * h].to_vec(),
            SearchParams::exact(K),
        );
        let sent = Instant::now();
        let response = ctx
            .tracer
            .span("p2h_engine::Engine::serve_live", round_span, r as u64, || {
                engine.serve_live(NAME, &request)
            })
            .map_err(|e| format!("round {r}: {e}"))?;
        let ms = sent.elapsed().as_secs_f64() * 1e3;
        s.batch_ms.push(ms);
        if pending.is_some() {
            s.stall_ms.push(ms);
        }
        if r < AL_COUNT_ROUNDS {
            s.count_stats.merge(&response.total_stats);
        }

        // Label (delete) the nearest point of each hyperplane not already labelled.
        let mut labelled = Vec::with_capacity(h);
        for (c, result) in response.results.iter().enumerate() {
            let id = result
                .neighbors
                .iter()
                .map(|n| n.index as u32)
                .find(|id| !labelled.contains(id))
                .ok_or_else(|| format!("round {r} class {c}: no unlabelled neighbor"))?;
            let t = Instant::now();
            ctx.tracer
                .span("p2h_engine::Engine::live_delete", round_span, r as u64, || {
                    engine.live_delete(NAME, id)
                })
                .map_err(|e| format!("round {r}: delete {id}: {e}"))?;
            s.delete_us.push(t.elapsed().as_secs_f64() * 1e6);
            if !model.remove(&id) {
                return Err(format!("round {r}: deleted id {id} is not live in the model"));
            }
            labelled.push(id);
        }

        let arrivals = rows(
            &inputs.arrivals[r * AL_ARRIVALS * AL_RAW_DIM..(r + 1) * AL_ARRIVALS * AL_RAW_DIM],
        );
        let t = Instant::now();
        let ids = ctx
            .tracer
            .span("p2h_engine::Engine::live_insert", round_span, r as u64, || {
                engine.live_insert(NAME, &arrivals)
            })
            .map_err(|e| format!("round {r}: insert: {e}"))?;
        s.insert_ms.push(t.elapsed().as_secs_f64() * 1e3);
        model.extend(ids);
        s.memtable.push(live.memtable_len() as f64);
        ctx.tracer.record(Span {
            id: round_span,
            parent: 0,
            name: "active-learning.round",
            request: r as u64,
            start_ns: round_start,
            end_ns: ctx.tracer.now_ns(),
        });
        if r + 1 == AL_COUNT_ROUNDS {
            s.counted.1 = p2h_obs::global().render_text();
        }
        rounds += 1;
        done.push((start.elapsed().saturating_sub(excluded).as_secs_f64(), 1.0));

        if pending.as_ref().is_some_and(|h| h.is_finished()) {
            let report = pending
                .take()
                .expect("checked")
                .join()
                .map_err(|_| "compaction thread panicked")??;
            s.reports.push(report);
            let paused = Instant::now();
            oracle_check(
                &engine,
                &live,
                &model,
                &inputs.hyperplanes[r * h],
                &format!("after compaction at round {r}"),
            )?;
            excluded += paused.elapsed();
        }
    }
    let elapsed = start.elapsed().saturating_sub(excluded).as_secs_f64();
    let rounds_per_s = crate::stats::windowed_rate(&done, 1.0);
    let last = rounds.saturating_sub(1);
    oracle_check(&engine, &live, &model, &inputs.hyperplanes[last * h + 1], "at the end")?;
    if rounds <= AL_COUNT_ROUNDS || s.reports.len() != AL_COMPACT_AT.len() {
        return Err(format!(
            "only {rounds} rounds and {} compactions ran; the workload needs more than {} rounds and all of {:?}",
            s.reports.len(),
            AL_COMPACT_AT.last().copied().unwrap_or(0),
            AL_COMPACT_AT
        ));
    }

    let batch = Summary::of(&s.batch_ms).ok_or("too few rounds for a median")?;
    let insert = Summary::of(&s.insert_ms).ok_or("too few inserts for a median")?;
    let mut outcome =
        Outcome { attempted: (rounds * (2 * h + 1)) as u64, failed: 0, ..Outcome::default() };
    let m = &mut outcome.metrics;
    m.set("setup_s", median(&setup_s));
    m.set("qps", rounds_per_s * h as f64);
    m.set("p50_ms", batch.p50);
    // Every sampled query matched LinearScan exactly, or the run aborted above.
    m.set("recall_at_10", 1.0);
    m.set("peak_rss_mb", crate::env::peak_rss_mb("self").unwrap_or(0.0));
    m.set("batch_p50_ms", batch.p50);
    m.set("batch_p99_ms", batch.tail);
    m.set("rounds_per_s", rounds_per_s);
    m.set("insert_p50_ms", insert.p50);
    m.set("insert_p99_ms", insert.tail);
    m.set("failed_share", 0.0);
    ctx.note(format!(
        "active-learning rounds: {rounds} in {elapsed:.3} s; batch {}",
        batch.describe("ms")
    ));
    ctx.note(format!("active-learning insert latency: {}", insert.describe("ms")));
    ctx.note(format!("active-learning setup opens: {setup_s:?} s"));

    if ctx.tracer.enabled() {
        let opens = SETUP_REPEATS as f64;
        let stage = |name: &str| {
            prom::delta(
                &before_open,
                &after_open,
                "p2h_store_load_stage_ns_total",
                &[("stage", name)],
            ) / 1e6
                / opens
        };
        m.set("store.read_ms", stage("read"));
        m.set("store.crc_ms", stage("crc"));
        m.set("store.decode_ms", stage("decode"));
        let load_bytes =
            prom::delta(&before_open, &after_open, "p2h_store_load_bytes_total", &[]) / opens;
        m.set("store.load_mb", load_bytes / 1e6);
        m.set("store.bytes_per_user_byte", load_bytes / ((AL_N + AL_TAIL) * AL_RAW_DIM * 4) as f64);
        live_metrics(ctx, m, &engine, inputs, &s, &mut model)?;
        layers::record_tree(m, &s.count_stats, AL_COUNT_ROUNDS * h);
        query_only_probes(m, &engine, inputs)?;
        oracle_check(&engine, &live, &model, &inputs.hyperplanes[0], "after the traced probes")?;
    }
    Ok(outcome)
}

/// What the round loop recorded.
#[derive(Default)]
struct Samples {
    batch_ms: Vec<f64>,
    /// Query-batch latencies while a compaction ran.
    stall_ms: Vec<f64>,
    insert_ms: Vec<f64>,
    delete_us: Vec<f64>,
    /// Memtable rows after each round.
    memtable: Vec<f64>,
    reports: Vec<CompactionReport>,
    /// Summed search stats of the first [`AL_COUNT_ROUNDS`] rounds.
    count_stats: SearchStats,
    /// Metrics text before and after the first [`AL_COUNT_ROUNDS`] rounds.
    counted: (String, String),
}

fn live_metrics(
    ctx: &Ctx<'_>,
    m: &mut Metrics,
    engine: &Engine,
    inputs: &ActiveInputs,
    s: &Samples,
    model: &mut BTreeSet<u32>,
) -> Result<(), String> {
    let (counted, reports, stall_ms) = (&s.counted, &s.reports, &s.stall_ms);
    m.set("live.delete_us_p50", median(&s.delete_us));
    let fsyncs = prom::delta(&counted.0, &counted.1, "p2h_live_wal_fsyncs_total", &[]);
    m.set("live.fsyncs_per_round", fsyncs / AL_COUNT_ROUNDS as f64);
    // WAL bytes of one arrival batch, exactly.
    let before = p2h_obs::global().render_text();
    let ids = engine
        .live_insert(NAME, &rows(&inputs.arrivals[..AL_ARRIVALS * AL_RAW_DIM]))
        .map_err(|e| e.to_string())?;
    let after = p2h_obs::global().render_text();
    model.extend(ids);
    m.set(
        "live.wal_bytes_per_insert",
        prom::delta(&before, &after, "p2h_live_wal_bytes_total", &[]) / AL_ARRIVALS as f64,
    );
    m.set("live.compactions", reports.len() as f64);
    m.set("live.folded_rows", reports.iter().map(|r| r.folded_rows as f64).sum());
    m.set(
        "live.compact_s",
        mean(&reports.iter().map(|r| r.wall_ns as f64 / 1e9).collect::<Vec<_>>()),
    );
    m.set("live.memtable_rows_mean", mean(&s.memtable));
    let stall = Summary::of(stall_ms);
    m.set(
        "live.stall_p99_ms",
        stall.map_or_else(|| stall_ms.iter().copied().fold(0.0, f64::max), |s| s.tail),
    );
    ctx.note(match stall {
        Some(s) => format!("active-learning batch latency during compaction: {}", s.describe("ms")),
        None => format!(
            "active-learning batch latency during compaction: max of {} samples",
            stall_ms.len()
        ),
    });
    Ok(())
}

/// Query-only batches on the live entry, outside the round loop: the span and
/// phase-timing overheads on the live serve path, the phase split and the executor
/// busy share.
fn query_only_probes(
    m: &mut Metrics,
    engine: &Engine,
    inputs: &ActiveInputs,
) -> Result<(), String> {
    const BATCHES: usize = 40;
    let h = AL_CLASSES;
    let request = |b: usize, params: SearchParams| {
        BatchRequest::new(inputs.hyperplanes[b * h..(b + 1) * h].to_vec(), params)
    };
    let on = Tracer::new(true);
    let off = Tracer::new(false);
    let mut secs = [0.0f64; 3];
    let mut busy = Vec::new();
    let mut timed_stats = SearchStats::default();
    for b in 0..BATCHES {
        for (slot, tracer, params) in [
            (0, &off, SearchParams::exact(K)),
            (1, &on, SearchParams::exact(K)),
            (2, &off, SearchParams::exact(K).with_timing()),
        ] {
            let (s, response) = layers::timed(|| {
                tracer.span("p2h_engine::Engine::serve_live", 0, b as u64, || {
                    engine.serve_live(NAME, &request(b, params))
                })
            });
            let response = response.map_err(|e| e.to_string())?;
            secs[slot] += s;
            if slot == 0 {
                busy.push(
                    response.latencies_ns.iter().sum::<u64>() as f64
                        / response.wall_time_ns.max(1) as f64,
                );
            }
            if slot == 2 {
                timed_stats.merge(&response.total_stats);
            }
        }
    }
    m.set("obs.trace_overhead_share", layers::overhead_share(1.0 / secs[0], 1.0 / secs[1]));
    m.set("obs.timing_overhead_share", layers::overhead_share(1.0 / secs[0], 1.0 / secs[2]));
    layers::record_timing(m, &timed_stats, BATCHES * h);
    m.set("engine.busy_share", mean(&busy));
    let sample = (AL_N / 2).min(65_536);
    let points = PointSet::augment_flat(AL_RAW_DIM, &inputs.base[..sample * AL_RAW_DIM])
        .map_err(|e| e.to_string())?;
    layers::kernel_probe(m, &points, &inputs.hyperplanes[..64], sample);
    Ok(())
}
