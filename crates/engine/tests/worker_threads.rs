//! The executor's helper threads are joined, not leaked: creating, serving and
//! dropping an `Engine` over and over leaves the process's thread count where it
//! started. Linux only (it counts `/proc/self/task`); the one test in this binary
//! keeps other tests' threads out of the count.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use p2h_core::{HyperplaneQuery, LinearScan, PointSet, Scalar, SearchParams};
use p2h_engine::{BatchRequest, Engine};

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("read /proc/self/task").count()
}

/// Polls until the thread count drops to `expected`: a joined thread's task entry
/// can outlive `pthread_join` by a moment.
fn settle_to(expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let count = thread_count();
        if count <= expected || Instant::now() > deadline {
            return count;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn dropping_an_engine_joins_its_worker_threads() {
    let rows: Vec<Vec<Scalar>> =
        (0..200).map(|i| vec![(i % 23) as Scalar * 0.5 - 5.0, (i % 7) as Scalar]).collect();
    let points = PointSet::augment(&rows).unwrap();
    let queries: Vec<HyperplaneQuery> = (0..16)
        .map(|i| {
            HyperplaneQuery::from_normal_and_bias(&[1.0, i as Scalar * 0.1], -(i as Scalar))
                .unwrap()
        })
        .collect();
    let request = BatchRequest::new(queries, SearchParams::exact(4));

    let start = thread_count();
    for round in 0..50 {
        let engine = Engine::new(3);
        engine.registry().register("scan", LinearScan::new(points.clone()));
        assert_eq!(engine.serve("scan", &request).unwrap().results.len(), 16);
        // A 16-query batch on 3 workers spawned the engine's two helpers.
        assert!(thread_count() >= start + 2, "round {round}: helpers were spawned");
        drop(engine);
    }
    assert_eq!(settle_to(start), start, "50 dropped engines left threads behind");
}
