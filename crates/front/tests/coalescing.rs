//! Satellite 3 — coalescing correctness as a property.
//!
//! Any mix of concurrent clients, batching policy (`max_batch`/`max_delay`), entry
//! kind (plain / sharded / live), and pipelining depth must produce answers
//! **bit-identical** (ids + `f32` distance bits) to the same query answered
//! *alone*, outside the engine's dispatch policy (`common::serve_alone`). The CI front job re-runs this suite under
//! `P2H_FORCE_SCALAR=1` and both `P2H_STORE_MMAP` modes, so the property also
//! covers the SIMD-vs-scalar and load-mode axes.

mod common;

use std::time::Duration;

use common::{assert_bits, fixture, serve_alone, ENTRIES};
use p2h_front::{FrontClient, FrontConfig, FrontServer};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn coalesced_answers_are_bit_identical_to_serving_alone(
        seed in 0u64..1_000_000,
        clients in 1usize..4,
        waves in 1usize..3,
        max_batch in 1usize..9,
        delay_idx in 0usize..3,
        entry_mix in 0usize..3,
    ) {
        let fix = fixture("coalesce", seed, 240, 12);
        let config = FrontConfig {
            loops: 2,
            max_batch,
            max_delay: Duration::from_micros([0u64, 120, 900][delay_idx]),
            queue_depth: 4096,
            threads: 2,
        };
        let handle = FrontServer::new(fix.engine.clone(), config)
            .serve("127.0.0.1:0")
            .expect("serve");
        let addr = handle.addr().to_string();

        std::thread::scope(|scope| {
            for worker in 0..clients {
                let addr = &addr;
                let fix = &fix;
                scope.spawn(move || {
                    // Each worker targets one entry kind; the mix offset rotates
                    // which, so batches interleave different indexes in the queue.
                    let entry = ENTRIES[(worker + entry_mix) % ENTRIES.len()];
                    let mut client = FrontClient::connect(addr).expect("connect");
                    for wave in 0..waves {
                        let outcomes = client
                            .query_many(entry, &fix.queries, 0)
                            .expect("pipelined wave");
                        for (position, outcome) in outcomes.into_iter().enumerate() {
                            let (query, params) = &fix.queries[position];
                            let got = outcome.unwrap_or_else(|(code, message)| {
                                panic!("worker {worker} wave {wave} q{position}: {code}: {message}")
                            });
                            let want = serve_alone(&fix.engine, entry, query, params);
                            assert_bits(
                                &got,
                                &want,
                                &format!("{entry} worker {worker} wave {wave} q{position}"),
                            );
                        }
                    }
                });
            }
        });
        handle.shutdown();
    }
}

/// The non-property smoke leg: every entry kind over one server, single client,
/// with coalescing wide open — quick signal when the property harness is skipped.
#[test]
fn every_entry_kind_serves_bit_identically_through_the_front() {
    let fix = fixture("smoke", 0xABCD, 300, 16);
    let handle = FrontServer::new(fix.engine.clone(), FrontConfig::default())
        .serve("127.0.0.1:0")
        .expect("serve");
    let mut client = FrontClient::connect(&handle.addr().to_string()).expect("connect");
    for entry in ENTRIES {
        let outcomes = client.query_many(entry, &fix.queries, 0).expect("wave");
        for (position, outcome) in outcomes.into_iter().enumerate() {
            let (query, params) = &fix.queries[position];
            let got = outcome.expect("typed success");
            assert_bits(
                &got,
                &serve_alone(&fix.engine, entry, query, params),
                &format!("{entry} q{position}"),
            );
        }
    }
    handle.shutdown();
}
