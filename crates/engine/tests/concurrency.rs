//! Concurrency smoke tests: one shared engine serving many client threads at once,
//! with registration and removal interleaved mid-flight.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

use p2h_core::{LinearScan, P2hIndex as _, PointSet, Scalar, SearchParams, SearchResult};
use p2h_data::{generate_queries, DataDistribution, QueryDistribution, SyntheticDataset};
use p2h_engine::{
    BatchExecutor, BatchRequest, BcTreeBuilder, Engine, Entry, IndexRegistry, LiveIndex,
    Partitioner, ServePath, ShardIndexKind, ShardedIndexBuilder, Store,
};

#[test]
fn many_client_threads_share_one_index() {
    let points = SyntheticDataset::new(
        "engine-concurrency",
        3_000,
        12,
        DataDistribution::GaussianClusters { clusters: 5, std_dev: 1.2 },
        23,
    )
    .generate()
    .unwrap();
    let queries = generate_queries(&points, 16, QueryDistribution::DataDifference, 3).unwrap();
    let scan = LinearScan::new(points.clone());

    let engine = Arc::new(Engine::new(2));
    engine.registry().register("bc", BcTreeBuilder::new(64).build(&points).unwrap());

    let request = Arc::new(BatchRequest::new(queries.clone(), SearchParams::exact(5)));
    let clients = 8;
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let engine = Arc::clone(&engine);
                let request = Arc::clone(&request);
                scope.spawn(move || engine.serve("bc", &request).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });

    // Every client sees the same (exact) answers.
    assert_eq!(responses.len(), clients);
    for response in &responses {
        assert_eq!(response.results.len(), queries.len());
        for (result, query) in response.results.iter().zip(queries.iter()) {
            let exact = scan.search_exact(query, 5);
            assert_eq!(result.neighbors, exact.neighbors);
        }
    }
}

#[test]
fn removal_mid_flight_does_not_invalidate_served_handles() {
    let points = SyntheticDataset::new(
        "engine-remove",
        1_000,
        8,
        DataDistribution::Uniform { scale: 3.0 },
        5,
    )
    .generate()
    .unwrap();
    let queries = generate_queries(&points, 8, QueryDistribution::RandomNormal, 11).unwrap();

    let engine = Arc::new(Engine::new(2));
    engine.registry().register("victim", LinearScan::new(points));
    // A client grabs the handle, the registry entry disappears, the handle keeps working.
    let handle = engine.registry().get("victim").unwrap();
    assert!(engine.registry().remove("victim").is_some());
    assert!(engine.registry().get("victim").is_none());

    let request = BatchRequest::new(queries, SearchParams::exact(3));
    let response = engine.executor().execute(handle.as_ref(), &request);
    assert_eq!(response.results.len(), 8);

    // Serving by the removed name is a clean error.
    assert!(engine.serve("victim", &request).is_err());
}

/// Registry readers (`names`, `len`) and writers of every entry kind (`register`,
/// `register_sharded`, `register_live`, `remove`) interleave without deadlocking. A
/// watchdog fails the test instead of hanging the suite.
#[test]
fn registry_readers_and_writers_of_every_kind_never_deadlock() {
    let dir =
        std::env::temp_dir().join(format!("p2h-engine-registry-locks-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).unwrap();
    let mut live = LiveIndex::create(&store, "live", 3).unwrap();
    let rows: Vec<Vec<Scalar>> = (0..20).map(|i| vec![i as Scalar, 0.5]).collect();
    let points = PointSet::augment(&rows).unwrap();

    let registry = Arc::new(IndexRegistry::new());
    let writing = Arc::new(AtomicBool::new(true));
    let (finished, watchdog) = mpsc::channel();

    let reader = {
        let (registry, writing, finished) =
            (Arc::clone(&registry), Arc::clone(&writing), finished.clone());
        std::thread::spawn(move || {
            while writing.load(Ordering::Relaxed) {
                let names = registry.names();
                assert!(names.len() <= 3);
                assert!(registry.len() <= 3);
            }
            finished.send("reader").unwrap();
        })
    };
    let writer = {
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || {
            let names = ["a", "b", "c"];
            for round in 0..600 {
                let sharded = ShardedIndexBuilder::new(
                    Partitioner::Contiguous { shards: 2 },
                    ShardIndexKind::LinearScan,
                )
                .build(&points)
                .unwrap();
                registry.register_sharded(names[round % 3], sharded);
                registry.register(names[(round + 1) % 3], LinearScan::new(points.clone()));
                drop(registry.register_live(names[(round + 2) % 3], live));
                // Take the live index back out so the next round can register it again.
                live = match registry.remove(names[(round + 2) % 3]) {
                    Some(Entry::Live(handle)) => Arc::try_unwrap(handle)
                        .unwrap_or_else(|_| panic!("the registry held the only handle")),
                    _ => panic!("the live entry was replaced concurrently"),
                };
                registry.remove(names[round % 3]);
            }
            writing.store(false, Ordering::Relaxed);
            finished.send("writer").unwrap();
        })
    };

    for _ in 0..2 {
        if let Err(e) = watchdog.recv_timeout(Duration::from_secs(60)) {
            panic!("registry readers and writers stopped making progress: {e}");
        }
    }
    reader.join().unwrap();
    writer.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

fn result_bits(results: &[SearchResult]) -> Vec<Vec<(usize, u32)>> {
    results
        .iter()
        .map(|r| r.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect())
        .collect()
}

/// Callers released together by a barrier share one engine's two-worker executor —
/// its one helper thread — across plain, sharded and live entries. Every caller's
/// answers are bit-identical to a one-worker executor (sequential search for the live
/// entry), whichever thread ran which task.
#[test]
fn callers_starting_together_share_the_pool_bit_identically() {
    let points = SyntheticDataset::new(
        "engine-pool-callers",
        2_000,
        10,
        DataDistribution::GaussianClusters { clusters: 4, std_dev: 1.0 },
        31,
    )
    .generate()
    .unwrap();
    let queries = generate_queries(&points, 24, QueryDistribution::DataDifference, 9).unwrap();
    let request = BatchRequest::new(queries, SearchParams::exact(7))
        .with_override(4, SearchParams::approximate(7, 300));

    let dir = std::env::temp_dir().join(format!("p2h-engine-pool-callers-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).unwrap();
    let live = LiveIndex::create(&store, "live", points.dim()).unwrap();
    let rows: Vec<Vec<Scalar>> =
        (0..points.len()).map(|i| points.point(i)[..points.dim() - 1].to_vec()).collect();
    live.insert_batch(&rows[..1_500]).unwrap();
    live.compact().unwrap();
    live.insert_batch(&rows[1_500..]).unwrap();
    for id in (0..points.len() as u32).step_by(9) {
        live.delete(id).unwrap();
    }

    let engine = Engine::new(2);
    engine.registry().register("bc", BcTreeBuilder::new(32).build(&points).unwrap());
    engine.registry().register_sharded(
        "sharded",
        ShardedIndexBuilder::new(Partitioner::Hash { shards: 3 }, ShardIndexKind::LinearScan)
            .build(&points)
            .unwrap(),
    );
    let live = engine.register_live("live", live);

    let sequential = BatchExecutor::new(1);
    let plain_reference = match engine.registry().entry("bc") {
        Some(Entry::Plain(index)) => {
            result_bits(&sequential.execute(index.as_ref(), &request).results)
        }
        _ => panic!("bc is a plain entry"),
    };
    let sharded_reference = match engine.registry().entry("sharded") {
        Some(Entry::Sharded(index)) => {
            result_bits(&sequential.execute(index.as_ref(), &request).results)
        }
        _ => panic!("sharded is a sharded entry"),
    };
    let live_reference: Vec<SearchResult> = request
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| live.search(q, request.params_for(i)).unwrap())
        .collect();
    let live_reference = result_bits(&live_reference);

    let callers = 6;
    let start = Barrier::new(callers);
    std::thread::scope(|scope| {
        for caller in 0..callers {
            let (engine, request, start) = (&engine, &request, &start);
            let (plain_reference, sharded_reference, live_reference) =
                (&plain_reference, &sharded_reference, &live_reference);
            scope.spawn(move || {
                start.wait();
                for round in 0..5 {
                    let plain = engine.serve("bc", request).unwrap();
                    assert_eq!(&result_bits(&plain.results), plain_reference, "{caller}/{round}");
                    let sharded = engine.serve("sharded", request).unwrap();
                    assert_eq!(
                        &result_bits(&sharded.results),
                        sharded_reference,
                        "{caller}/{round}"
                    );
                    let live = engine.serve("live", request).unwrap();
                    assert_eq!(live.path, ServePath::Live);
                    assert_eq!(&result_bits(&live.results), live_reference, "{caller}/{round}");
                }
            });
        }
    });
    std::fs::remove_dir_all(&dir).ok();
}
