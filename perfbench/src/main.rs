//! `perfbench` — the repository's seeded benchmark.
//!
//! ```text
//! perfbench prepare --workload W --seed N [--work DIR]
//! perfbench run --workload W --seed N --seconds S --trace 0|1
//!               [--work DIR] [--front-server PATH] [--rustc TEXT] [--rev TEXT]
//! ```
//!
//! `prepare` generates and caches the workload's inputs and exact ground truth;
//! `run` only reads them. `run` prints provenance, every metric by name with its
//! unit, and as its last line one JSON result object. Any failed output check exits
//! nonzero without printing numbers. `perfbench/run.py` builds the program and
//! drives both steps.

mod active_learning;
mod check;
mod config;
mod env;
mod front_open;
mod inputs;
mod layers;
mod openloop;
mod prom;
mod report;
mod search_batch;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;

use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["search-batch", "front-open", "active-learning"];

/// Everything a workload needs from the command line.
pub struct Ctx<'a> {
    /// Scratch directory: input cache, stores, traces.
    pub work: PathBuf,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Span recorder (disabled in untraced runs).
    pub tracer: &'a Tracer,
    /// The `front-server` binary.
    pub front_server: Option<PathBuf>,
    /// Available CPUs.
    pub nproc: usize,
    notes: Mutex<Vec<String>>,
}

impl Ctx<'_> {
    /// Queues a human-readable line printed before the metrics.
    pub fn note(&self, line: String) {
        self.notes.lock().expect("notes poisoned").push(line);
    }
}

struct Args {
    command: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
    front_server: Option<PathBuf>,
    rustc: String,
    rev: String,
}

fn parse_args() -> Result<Args, String> {
    let mut iter = std::env::args().skip(1);
    let command = iter.next().ok_or("usage: perfbench prepare|run --workload W --seed N ...")?;
    let mut args = Args {
        command,
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        work: PathBuf::from(".perfbench"),
        front_server: None,
        rustc: "unknown".into(),
        rev: "unknown".into(),
    };
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--work" => args.work = PathBuf::from(value()?),
            "--front-server" => args.front_server = Some(PathBuf::from(value()?)),
            "--rustc" => args.rustc = value()?,
            "--rev" => args.rev = value()?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got `{}`", args.workload));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    env::guard()?;
    match args.command.as_str() {
        "prepare" => {
            let generated = inputs::prepare(&args.work, &args.workload, args.seed)?;
            eprintln!(
                "perfbench: inputs for {} seed {} {}",
                args.workload,
                args.seed,
                if generated { "generated" } else { "already cached" }
            );
            Ok(())
        }
        "run" => measure(args),
        other => Err(format!("unknown command `{other}` (prepare|run)")),
    }
}

fn measure(args: &Args) -> Result<(), String> {
    let tracer = Tracer::new(args.trace);
    let ctx = Ctx {
        work: args.work.clone(),
        seed: args.seed,
        seconds: args.seconds,
        tracer: &tracer,
        front_server: args.front_server.clone(),
        nproc: env::nproc(),
        notes: Mutex::new(Vec::new()),
    };
    let outcome = match args.workload.as_str() {
        "search-batch" => search_batch::run(&ctx)?,
        "front-open" => front_open::run(&ctx)?,
        _ => active_learning::run(&ctx)?,
    };
    let (lines, json) = report::render(&outcome, args.trace)?;
    println!(
        "workload = {} seed = {} seconds = {} trace = {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in env::provenance(&args.rustc, &args.rev) {
        println!("{line}");
    }
    for line in ctx.notes.lock().expect("notes poisoned").iter() {
        println!("{line}");
    }
    if args.trace {
        let dir = args.work.join("traces");
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join(format!("{}-{}.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        for (name, count, total_ms, self_ms) in tracer.totals() {
            println!("span {name}: count={count} total_ms={total_ms:.3} self_ms={self_ms:.3}");
        }
        println!("spans written to {}", path.display());
    }
    println!("attempted = {} failed = {}", outcome.attempted, outcome.failed);
    for line in lines {
        println!("{line}");
    }
    println!("{json}");
    Ok(())
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| run(&args));
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: FAIL: {message}");
            ExitCode::from(2)
        }
    }
}
