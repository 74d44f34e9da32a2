//! Engine integration for the live tier: registration, mutate-and-serve through
//! `Engine::live_insert`/`live_delete`/`serve`/`serve_live`, the same up-front
//! validation as every other entry kind, live batches on the shared executor at every
//! thread count, and cold start — a store directory holding a live entry loads through
//! `Engine::from_store` and answers bit-identically to the pre-restart engine.

use std::path::PathBuf;
use std::sync::Arc;

use p2h_core::{Error, HyperplaneQuery, Scalar, SearchParams, SearchResult};
use p2h_engine::{BatchRequest, BatchResponse, Engine, Entry, LiveIndex, ServePath, Store};

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("p2h-engine-live-{tag}-{}", std::process::id()))
}

fn answer_bits(response: &BatchResponse) -> Vec<Vec<(usize, u32)>> {
    result_bits(&response.results)
}

fn result_bits(results: &[SearchResult]) -> Vec<Vec<(usize, u32)>> {
    results
        .iter()
        .map(|r| r.neighbors.iter().map(|n| (n.index, n.distance.to_bits())).collect())
        .collect()
}

#[test]
fn live_mutate_serve_and_cold_start() {
    let dir = temp_dir("roundtrip");
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).unwrap();
    let live = LiveIndex::create(&store, "stream", 3).unwrap();

    let engine = Engine::new(2);
    engine.register_live("stream", live);
    assert_eq!(engine.registry().names(), vec!["stream".to_string()]);
    assert_eq!(engine.registry().len(), 1);

    let ids =
        engine.live_insert("stream", &[vec![0.0, 0.0], vec![1.0, 1.0], vec![4.0, 0.5]]).unwrap();
    assert_eq!(ids, vec![0, 1, 2]);
    engine.live_delete("stream", 1).unwrap();

    let queries = vec![
        HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0], -3.0).unwrap(),
        HyperplaneQuery::from_normal_and_bias(&[0.5, -1.0], 0.2).unwrap(),
    ];
    let request = BatchRequest::new(queries.clone(), SearchParams::exact(2));
    let response = engine.serve_live("stream", &request).unwrap();
    assert_eq!(response.results.len(), 2);
    assert_eq!(response.results[0].neighbors[0].index, 2);
    assert!(response.results.iter().all(|r| r.neighbors.iter().all(|n| n.index != 1)));
    assert_eq!(response.latencies_ns.len(), 2);

    // `serve` answers live names like `serve_live`; unknown names and bad requests
    // are typed errors exactly like on every other entry kind.
    assert_eq!(answer_bits(&engine.serve("stream", &request).unwrap()), answer_bits(&response));
    assert!(matches!(
        engine.serve_live("missing", &request),
        Err(Error::InvalidParameter { name: "index_name", .. })
    ));
    let wrong_dim = BatchRequest::new(
        vec![HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0, 0.0], 0.0).unwrap()],
        SearchParams::exact(1),
    );
    assert!(matches!(
        engine.serve_live("stream", &wrong_dim),
        Err(Error::DimensionMismatch { expected: 3, actual: 4 })
    ));
    assert!(engine.live_insert("missing", &[vec![0.0, 0.0]]).is_err());

    // Compact (new store epoch), then cold-start a second engine from the same
    // directory: the manifest's live entry replays and answers are bit-identical.
    engine.live("stream").unwrap().compact().unwrap();
    let after_compact = engine.serve_live("stream", &request).unwrap();
    assert_eq!(answer_bits(&response), answer_bits(&after_compact));

    let cold = Engine::from_store(&dir, 1).unwrap();
    assert_eq!(cold.registry().names(), vec!["stream".to_string()]);
    let cold_response = cold.serve_live("stream", &request).unwrap();
    assert_eq!(answer_bits(&response), answer_bits(&cold_response));

    // The cold-started handle is mutable too — the tier stays live across restarts.
    assert_eq!(cold.live_insert("stream", &[vec![-2.0, 3.0]]).unwrap(), vec![3]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Live batches run on the shared executor: at 1, 2 and 4 worker threads, `serve` and
/// `serve_live` match sequential `LiveIndex::search` bit for bit over a live set that
/// spans a compacted base, memtable rows, and tombstones in both.
#[test]
fn live_batches_match_sequential_search_at_every_thread_count() {
    let dir = temp_dir("executor");
    std::fs::remove_dir_all(&dir).ok();
    let store = Store::create(&dir).unwrap();
    let live = LiveIndex::create(&store, "stream", 3).unwrap();
    let row = |i: usize| vec![(i % 37) as Scalar * 0.3 - 5.0, (i % 11) as Scalar * 0.7 - 3.0];
    live.insert_batch(&(0..400).map(row).collect::<Vec<_>>()).unwrap();
    for id in (0..400).step_by(7) {
        live.delete(id).unwrap();
    }
    live.compact().unwrap();
    live.insert_batch(&(400..520).map(row).collect::<Vec<_>>()).unwrap();
    for id in (3..520).step_by(13).filter(|&id| live.is_live(id)) {
        live.delete(id).unwrap();
    }
    assert!(live.memtable_len() > 0);
    assert!(!live.is_live(0) && !live.is_live(406) && live.is_live(401));

    let queries: Vec<HyperplaneQuery> = (0..40)
        .map(|i| {
            let angle = i as Scalar * 0.41;
            HyperplaneQuery::from_normal_and_bias(
                &[angle.cos(), angle.sin()],
                0.2 * i as Scalar - 3.0,
            )
            .unwrap()
        })
        .collect();
    let request = BatchRequest::new(queries, SearchParams::exact(6))
        .with_override(5, SearchParams::approximate(4, 50))
        .with_override(9, SearchParams::exact(1));
    let reference: Vec<SearchResult> = request
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| live.search(q, request.params_for(i)).unwrap())
        .collect();
    let wrong_dim = BatchRequest::new(
        vec![HyperplaneQuery::from_normal_and_bias(&[1.0, 0.0, 0.0], 0.0).unwrap()],
        SearchParams::exact(1),
    );

    let mut live = Some(live);
    for threads in [1, 2, 4] {
        let engine = Engine::new(threads);
        drop(engine.register_live("stream", live.take().unwrap()));
        for response in [
            engine.serve("stream", &request).unwrap(),
            engine.serve_live("stream", &request).unwrap(),
        ] {
            assert_eq!(response.path, ServePath::Live);
            assert_eq!(response.latencies_ns.len(), reference.len());
            assert_eq!(answer_bits(&response), result_bits(&reference), "threads={threads}");
        }
        assert!(matches!(
            engine.serve("stream", &wrong_dim),
            Err(Error::DimensionMismatch { expected: 3, actual: 4 })
        ));
        // Hand the index to the next engine.
        live = match engine.registry().remove("stream") {
            Some(Entry::Live(handle)) => Arc::try_unwrap(handle).ok(),
            _ => None,
        };
    }
    std::fs::remove_dir_all(&dir).ok();
}
