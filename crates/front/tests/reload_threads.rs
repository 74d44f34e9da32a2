//! Reloading under traffic retires each previous engine's worker threads: after many
//! reloads with zero failed requests, the server runs its own threads plus at most
//! the current engine's helpers. Linux only (it counts `/proc/self/task`); the one test in
//! this binary keeps other tests' servers out of the count.
#![cfg(target_os = "linux")]

mod common;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use common::{assert_bits, synthetic_queries, synthetic_rows};
use p2h_core::{LinearScan, P2hIndex, PointSet, QueryScratch};
use p2h_front::{FrontClient, FrontConfig, FrontServer};
use p2h_shard::{Partitioner, ShardIndexKind, ShardedIndexBuilder};
use p2h_store::Store;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("read /proc/self/task").count()
}

/// Polls until the thread count is at most `bound`: exiting threads (the one-off
/// reload threads, joined workers) leave `/proc/self/task` a moment after they finish.
fn settle_to(bound: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let count = thread_count();
        if count <= bound || Instant::now() > deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn reloads_under_traffic_join_the_previous_engines_workers() {
    let seed = 0x7EAD;
    let rows = synthetic_rows(300, seed);
    let points = PointSet::augment(&rows).expect("rows");
    let queries = synthetic_queries(12, seed);

    let store_dir =
        std::env::temp_dir().join(format!("p2h-front-reload-threads-{}", std::process::id()));
    std::fs::remove_dir_all(&store_dir).ok();
    let store = Store::create(&store_dir).expect("create store");
    ShardedIndexBuilder::new(Partitioner::Hash { shards: 2 }, ShardIndexKind::LinearScan)
        .with_seed(seed)
        .build(&points)
        .expect("build")
        .save_into(&store, "main")
        .expect("save");
    let scan = LinearScan::new(points.clone());
    let mut scratch = QueryScratch::new();
    let oracle: Vec<_> =
        queries.iter().map(|(q, p)| scan.search_with_scratch(q, p, &mut scratch)).collect();

    // Two executor workers: every engine owns one helper thread once it has served a
    // multi-query batch.
    let config = FrontConfig { threads: 2, ..FrontConfig::default() };
    let handle = FrontServer::from_store(&store_dir, config)
        .expect("cold start")
        .serve("127.0.0.1:0")
        .expect("serve");
    let addr = handle.addr().to_string();
    // The server's own threads; no engine has spawned its helper yet.
    let idle = thread_count();

    let reloads = 10;
    let stop = AtomicBool::new(false);
    let served = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for worker in 0..3usize {
            let (addr, queries, oracle, stop, served) = (&addr, &queries, &oracle, &stop, &served);
            scope.spawn(move || {
                let mut client = FrontClient::connect(addr).expect("connect");
                while !stop.load(Ordering::Relaxed) {
                    let outcomes = client.query_many("main", queries, 0).expect("transport");
                    for (position, outcome) in outcomes.into_iter().enumerate() {
                        let got = outcome.unwrap_or_else(|(code, message)| {
                            panic!("worker {worker} q{position} failed: {code}: {message}")
                        });
                        assert_bits(
                            &got,
                            &oracle[position],
                            &format!("worker {worker} q{position}"),
                        );
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }

        let mut admin = FrontClient::connect(&addr).expect("connect admin");
        for round in 0..reloads {
            std::thread::sleep(Duration::from_millis(30));
            let entries = admin.reload().unwrap_or_else(|e| panic!("reload {round}: {e}"));
            assert_eq!(entries, 1);
        }
        std::thread::sleep(Duration::from_millis(30));
        stop.store(true, Ordering::Relaxed);
    });
    assert!(served.load(Ordering::Relaxed) > 0, "traffic ran across the reloads");

    // At most the server's own threads plus the current engine's helper: the ten
    // retired engines left nothing behind.
    let bound = idle + 1;
    let after = settle_to(bound);
    assert!(after <= bound, "{reloads} reloads left {after} threads; expected at most {bound}");
    handle.shutdown();
    std::fs::remove_dir_all(&store_dir).ok();
}
