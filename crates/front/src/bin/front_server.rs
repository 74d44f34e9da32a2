//! `front-server` — the coalescing serving front-end over a snapshot store.
//!
//! ```text
//! front-server --store DIR [--addr 127.0.0.1:0] [--max-batch 32]
//!              [--max-delay-us 500] [--queue-depth 1024] [--loops 2] [--threads 0]
//! ```
//!
//! Cold-starts every manifest entry from the store (`P2H_STORE_MMAP` picks the
//! load mode), then serves `FrontQuery`/`MetricsRequest`/`Reload` frames until
//! killed. Prints the same one-line parseable banner as `shard-server` —
//! `READY addr=<addr> pid=<pid>` — so a parent process learns the ephemeral port
//! and the pid in one read. The listener sets `SO_REUSEADDR`, so a restarted
//! front can re-bind the killed one's exact port immediately.
//!
//! Batching/admission knobs start at [`FrontConfig::default`]; each flag overrides
//! one field.

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use p2h_front::{FrontConfig, FrontServer};

struct Args {
    store: String,
    addr: String,
    config: FrontConfig,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut store = None;
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = FrontConfig::default();
    let mut iter = args.into_iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| iter.next().ok_or_else(|| format!("{name} requires a value"));
        let parse = |name: &str, raw: String| {
            raw.parse::<u64>().map_err(|e| format!("{name} '{raw}': {e}"))
        };
        match flag.as_str() {
            "--store" => store = Some(value("--store")?),
            "--addr" => addr = value("--addr")?,
            "--max-batch" => {
                config.max_batch = (parse("--max-batch", value("--max-batch")?)? as usize).max(1)
            }
            "--max-delay-us" => {
                config.max_delay =
                    Duration::from_micros(parse("--max-delay-us", value("--max-delay-us")?)?)
            }
            "--queue-depth" => {
                config.queue_depth =
                    (parse("--queue-depth", value("--queue-depth")?)? as usize).max(1)
            }
            "--loops" => config.loops = parse("--loops", value("--loops")?)? as usize,
            "--threads" => config.threads = parse("--threads", value("--threads")?)? as usize,
            "--help" | "-h" => {
                return Err("usage: front-server --store DIR [--addr 127.0.0.1:0] \
                            [--max-batch N] [--max-delay-us N] [--queue-depth N] \
                            [--loops N] [--threads N]"
                    .into())
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(Args { store: store.ok_or("--store is required")?, addr, config })
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let server = FrontServer::from_store(&args.store, args.config)
        .map_err(|e| format!("cold start: {e}"))?;
    let handle = server.serve(&args.addr).map_err(|e| format!("bind {}: {e}", args.addr))?;
    // The parent parses this exact one-line banner: the address it will dial and
    // the pid it will later signal.
    println!("READY addr={} pid={}", handle.addr(), std::process::id());
    std::io::stdout().flush().ok();
    // Serve until killed; reloads arrive over the wire, not via signals.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("front-server: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[&str]) -> Result<Args, String> {
        parse_args(flags.iter().map(|flag| flag.to_string()))
    }

    #[test]
    fn only_store_given_keeps_the_default_config() {
        let args = parse(&["--store", "dir"]).expect("parse");
        assert_eq!(args.store, "dir");
        assert_eq!(args.addr, "127.0.0.1:0");
        assert_eq!(args.config, FrontConfig::default());
    }

    #[test]
    fn each_flag_overrides_exactly_its_field() {
        let defaults = FrontConfig::default();
        let cases: [(&str, &str, FrontConfig); 5] = [
            ("--loops", "3", FrontConfig { loops: 3, ..defaults.clone() }),
            ("--max-batch", "7", FrontConfig { max_batch: 7, ..defaults.clone() }),
            (
                "--max-delay-us",
                "250",
                FrontConfig { max_delay: Duration::from_micros(250), ..defaults.clone() },
            ),
            ("--queue-depth", "64", FrontConfig { queue_depth: 64, ..defaults.clone() }),
            ("--threads", "2", FrontConfig { threads: 2, ..defaults.clone() }),
        ];
        for (flag, value, expected) in cases {
            let args = parse(&["--store", "dir", flag, value]).expect(flag);
            assert_eq!(args.config, expected, "{flag} {value}");
        }
        // Zero batch size and queue depth would serve nothing; both clamp to 1.
        let args = parse(&["--max-batch", "0", "--queue-depth", "0", "--store", "d"]).unwrap();
        assert_eq!((args.config.max_batch, args.config.queue_depth), (1, 1));
        let args = parse(&["--store", "d", "--addr", "0.0.0.0:7000"]).unwrap();
        assert_eq!(args.addr, "0.0.0.0:7000");
    }

    #[test]
    fn bad_or_missing_flags_are_errors() {
        for (flags, needle) in [
            (&["--loops", "2"][..], "--store is required"),
            (&["--store"][..], "--store requires a value"),
            (&["--store", "d", "--threads"][..], "--threads requires a value"),
            (&["--store", "d", "--max-batch", "many"][..], "--max-batch 'many'"),
            (&["--store", "d", "--max-delay-us", "-1"][..], "--max-delay-us '-1'"),
            (&["--store", "d", "--verbose"][..], "unknown flag '--verbose'"),
            (&["--help"][..], "usage: front-server"),
        ] {
            match parse(flags) {
                Err(message) => assert!(message.contains(needle), "{flags:?}: {message}"),
                Ok(_) => panic!("{flags:?} parsed"),
            }
        }
    }
}
