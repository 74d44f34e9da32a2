//! `p2h-front` — the serving front-end for point-to-hyperplane search.
//!
//! A std-only, thread-per-core TCP front-end over the workspace's length-prefixed
//! CRC frame protocol ([`p2h_net::wire`]), built on a minimal `poll(2)` shim
//! instead of an async runtime (none exists offline). It adds the three serving
//! behaviors an engine alone does not have:
//!
//! * **Dynamic batching** — concurrent single queries coalesce into engine
//!   batches under a `max_batch`/`max_delay` policy and demultiplex back per
//!   connection. Answers are **bit-identical** to serving each query alone; the
//!   knobs trade latency for throughput, never correctness.
//! * **Admission control** — a bounded coalescing queue with per-request
//!   deadlines. Overload sheds with a typed [`p2h_net::ErrorCode::Overloaded`]
//!   error and lapsed deadlines with `DeadlineExceeded`; nothing is silently
//!   dropped and nothing queues unbounded.
//! * **Zero-downtime reload** — a `Reload` request cold-starts a fresh
//!   [`p2h_engine::Engine`] from the snapshot store and swaps it in under live
//!   traffic; in-flight batches finish on the engine they captured.
//!
//! Batches dispatch through `Engine::serve`, which routes each one to the
//! live / shard-parallel / query-parallel path using the registry and the
//! observed `p2h_shard_latency_ns` histograms, and reports the path taken as
//! `BatchResponse::path`. The `p2h_front_*` metric families
//! (catalog in `docs/OBSERVABILITY.md`) expose queue depth, batch sizes, shed
//! counts, and dispatch paths; `docs/SERVING.md` documents the protocol and
//! operational lifecycle.
//!
//! # Quickstart
//!
//! ```no_run
//! use p2h_front::{FrontClient, FrontConfig, FrontServer};
//!
//! // Serve a snapshot store (written by `p2h_store::StoreWriter`):
//! let server = FrontServer::from_store("/var/lib/p2h/snapshot", FrontConfig::default())?;
//! let handle = server.serve("127.0.0.1:7479")?;
//!
//! // Query it — coalescing happens server-side, transparently:
//! let mut client = FrontClient::connect(&handle.addr().to_string())?;
//! # let (query, params) = unimplemented!();
//! let outcome = client.query("main", &query, &params, 50)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_op_in_unsafe_fn)]

mod client;
mod config;
mod metrics;
mod poll;
mod queue;
mod server;

pub use client::{FrontClient, FrontOutcome, RetryingClient};
pub use config::FrontConfig;
pub use server::{FrontHandle, FrontServer};
