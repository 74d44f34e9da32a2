//! Workload constants. They are fixed: no rate, size or limit is recalibrated per
//! run or per host, so two runs at the same seed do the same work.

/// Top-k of every query.
pub const K: usize = 10;
/// Set-up repetitions per run of `search-batch` (a build takes ~0.1 s);
/// `setup_s` is their median.
pub const SB_SETUP_REPEATS: usize = 9;
/// Set-up repetitions per run of `front-open` and `active-learning`.
pub const SETUP_REPEATS: usize = 5;

/// `search-batch`: points (SIFT-shaped: 26 MB of f32, far beyond the 4 MiB L2 per
/// core; 200k points were tried and were not steady on a shared host).
pub const SB_N: usize = 50_000;
/// `search-batch`: raw dimensionality (augmented to 129).
pub const SB_RAW_DIM: usize = 128;
/// `search-batch`: Gaussian clusters.
pub const SB_CLUSTERS: usize = 100;
/// `search-batch`: distinct data-difference queries, cycled by the closed loop;
/// recall is measured over one full pass.
pub const SB_POOL: usize = 4096;
/// `search-batch`: queries per batch.
pub const SB_BATCH: usize = 128;
/// `search-batch`: candidate budget, 1% of the points.
pub const SB_BUDGET: usize = SB_N / 100;
/// `search-batch`: pool queries also served exactly and compared with `LinearScan`.
pub const SB_EXACT_CHECK: usize = 16;

/// `front-open`: points, all cache-resident at d = 33.
pub const FO_N: usize = 100_000;
/// `front-open`: raw dimensionality.
pub const FO_RAW_DIM: usize = 32;
/// `front-open`: Gaussian clusters.
pub const FO_CLUSTERS: usize = 100;
/// `front-open`: distinct queries, cycled by the generator.
pub const FO_POOL: usize = 4096;
/// `front-open`: candidate budget per query (0.5% of the points).
pub const FO_BUDGET: usize = 500;
/// `front-open`: offered rate of the `light` phase (mostly lone queries).
pub const FO_LIGHT_RATE: f64 = 400.0;
/// `front-open`: offered rate of the `heavy` phase (coalesced batches of ~9, clear
/// of the batch size where dispatch switches between shard- and query-parallel).
pub const FO_HEAVY_RATE: f64 = 12_000.0;
/// `front-open`: the rate ladder that finds `max_qps_at_slo` (traced runs only).
pub const FO_LADDER: &[f64] = &[
    24_000.0, 26_000.0, 28_000.0, 30_000.0, 32_000.0, 34_000.0, 36_000.0, 38_000.0, 40_000.0,
    42_000.0, 44_000.0, 46_000.0, 48_000.0, 50_000.0,
];
/// `front-open`: the latency limit of the ladder (windowed p99, from scheduled send).
pub const FO_SLO_MS: f64 = 10.0;
/// `front-open`: share of `--seconds` given to the light phase.
pub const FO_LIGHT_SHARE: f64 = 0.25;
/// `front-open`: share of `--seconds` given to the heavy phase.
pub const FO_HEAVY_SHARE: f64 = 0.5;
/// `front-open`: seconds per ladder rung (the ladder stops at the first failing rung).
pub const FO_RUNG_S: f64 = 0.6;
/// `front-open`: closed-loop probes (Ping/Pong and one-point entry round trips).
pub const FO_PROBES: usize = 1_000;

/// `active-learning`: compacted base points.
pub const AL_N: usize = 100_000;
/// `active-learning`: raw dimensionality.
pub const AL_RAW_DIM: usize = 32;
/// `active-learning`: classes, hence hyperplanes per round.
pub const AL_CLASSES: usize = 5;
/// `active-learning`: points inserted into the WAL tail before the timed open.
pub const AL_TAIL: usize = 2_000;
/// `active-learning`: base points deleted in the WAL tail.
pub const AL_TAIL_DELETES: usize = 200;
/// `active-learning`: new arrivals inserted per round (one durable batch).
pub const AL_ARRIVALS: usize = 8;
/// `active-learning`: rounds generated; a run stops early if it reaches them.
pub const AL_MAX_ROUNDS: usize = 8_000;
/// `active-learning`: rounds at which the benchmark starts a background compaction.
pub const AL_COMPACT_AT: &[usize] = &[150, 450];
/// `active-learning`: rounds before the first compaction over which exact per-round
/// counts (fsyncs, WAL bytes, tree counters) are taken.
pub const AL_COUNT_ROUNDS: usize = 100;
