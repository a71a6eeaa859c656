//! The sharded-serving suite: sharded pipeline export → sharded container →
//! registry → routed query engine, proving the per-shard serving contracts.
//!
//! 1. **N shards ≡ 1 shard** — for the KNN-family estimators, a model at N
//!    shards answers every query bit-identically to the same venue served
//!    at 1 shard (cross-shard re-rank).
//! 2. **Incremental republish** — ingesting a survey log dirties exactly
//!    the shards it touches; republishing them swaps only those shards'
//!    `Arc`s and generations while the clean shards are carried over
//!    pointer-identically, and the incremental snapshots equal a full
//!    recompute bitwise.
//! 3. **Determinism** — a fixed query log through the sharded engine is
//!    bit-identical at any thread count, and so is a warm-started
//!    (`LiveVenue::ingest_warm`) bf16 venue update; the batch-major engine
//!    answers every query exactly like the model's per-query `estimate`, at
//!    any batch capacity and thread count.

use std::sync::Arc;

use radiomap_core::prelude::*;
use radiomap_core::{LiveVenue, PipelineConfig};
use rm_radiomap::MNAR_FILL_VALUE;
use rm_serve::{decode_sharded, encode, encode_sharded, ModelRegistry, ShardedQueryEngine};
use rm_tensor::TensorPayload;

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

const NUM_PATHS: usize = 4;
const RECORDS_PER_PATH: usize = 5;
const NUM_APS: usize = 8;

/// A venue surveyed along `NUM_PATHS` spatially separated paths: path `p`
/// lives around `x = 50 p` and hears APs `2p` and `2p + 1` (the rest are
/// missing → MAR → filled with the −100 floor). Every record carries its RP,
/// so the MAR-only + linear-interpolation pipeline is seed-free and
/// record-local — a per-shard imputation produces exactly the 1-shard
/// imputation restricted to the shard's members, which is what lets the
/// N-vs-1-shard comparisons below assert bitwise equality.
fn multi_path_map() -> RadioMap {
    let mut records = Vec::new();
    for path in 0..NUM_PATHS {
        for i in 0..RECORDS_PER_PATH {
            let values: Vec<Option<f64>> = (0..NUM_APS)
                .map(|ap| {
                    if ap / 2 == path {
                        Some(-45.0 - i as f64 - ap as f64 * 3.0)
                    } else {
                        None
                    }
                })
                .collect();
            let rp = Point::new(path as f64 * 50.0 + i as f64 * 2.0, path as f64 * 10.0);
            records.push(RadioMapRecord::new(
                Fingerprint::new(values),
                Some(rp),
                i as f64,
                path,
            ));
        }
    }
    RadioMap::new(records, NUM_APS)
}

/// A seed-free pipeline (see [`multi_path_map`]) with `knn_k` large enough
/// that every quantized scan window covers its entire map — the standing
/// assumption under which the cross-shard re-rank is exact holds trivially,
/// so every equality below is bitwise, not approximate.
fn seedfree_config(estimator: EstimatorKind, shards: usize) -> PipelineConfig {
    PipelineConfig {
        differentiator: DifferentiatorKind::MarOnly,
        imputer: ImputerKind::LinearInterpolation,
        estimator,
        knn_k: 12,
        threads: 1,
        shards: Some(shards),
        ..PipelineConfig::default()
    }
}

/// Query log: every record's dense fingerprint plus jittered variants, so
/// the estimators face exact hits, near misses and cross-shard blends.
fn query_log(map: &RadioMap) -> Vec<Vec<f64>> {
    let mut log = Vec::new();
    for pass in 0..6 {
        for (i, record) in map.records().iter().enumerate() {
            let jitter = (pass * 17 + i) as f64 * 0.23;
            log.push(
                record
                    .fingerprint
                    .to_dense(MNAR_FILL_VALUE)
                    .iter()
                    .map(|&v| v + jitter)
                    .collect(),
            );
        }
    }
    log
}

// ---------------------------------------------------------------------------
// 1. N shards ≡ 1 shard
// ---------------------------------------------------------------------------

/// For both KNN-family estimators, the engine serving the venue at
/// `NUM_PATHS` shards (from a container that went through the sharded codec)
/// answers every query bit-identically to the same venue served whole, at 1
/// shard.
#[test]
fn sharded_serving_answers_match_whole_venue_serving_bitwise() {
    assert_sharded_serving_matches_one_shard(&multi_path_map(), NUM_PATHS);
}

/// A path surveyed without any reference point leaves its records without a
/// location after interpolation, so they have no row in their shard's map;
/// the venue still serves, at `NUM_PATHS - 1` shards (an unlocated path
/// joins shard 0) bit-identically to 1 shard.
#[test]
fn location_less_records_serve_identically_at_any_shard_count() {
    let mut map = multi_path_map();
    for record in map.records_mut() {
        if record.path_id == NUM_PATHS - 1 {
            record.rp = None;
        }
    }
    let whole = ImputationPipeline::new(seedfree_config(EstimatorKind::Knn, 1))
        .export_sharded_snapshot("whole", &map, &MultiPolygon::empty());
    assert_eq!(
        whole.snapshots[0].map.len(),
        (NUM_PATHS - 1) * RECORDS_PER_PATH,
        "the unlocated path's records have no row"
    );
    assert_sharded_serving_matches_one_shard(&map, NUM_PATHS - 1);
}

/// Serves `map` at 1 shard and at `NUM_PATHS` requested shards (expecting
/// `num_shards` of them) and asserts every KNN/WKNN answer is bitwise equal.
fn assert_sharded_serving_matches_one_shard(map: &RadioMap, num_shards: usize) {
    let topology = MultiPolygon::empty();
    for estimator in [EstimatorKind::Knn, EstimatorKind::Wknn] {
        let whole = ImputationPipeline::new(seedfree_config(estimator, 1))
            .export_sharded_snapshot("whole", map, &topology);
        assert_eq!(whole.num_shards(), 1);
        let sharded = ImputationPipeline::new(seedfree_config(estimator, NUM_PATHS))
            .export_sharded_snapshot("venue", map, &topology);
        assert_eq!(sharded.num_shards(), num_shards);
        for shard in 0..num_shards {
            assert!(
                !sharded.shards.members_of(shard).is_empty(),
                "every shard must hold records"
            );
        }

        // The sharded model is published from bytes that round-tripped the
        // container codec, so the on-disk format is on the serving path.
        let reloaded = decode_sharded(&encode_sharded(&sharded)).expect("container decodes");
        let registry = ModelRegistry::new();
        registry.publish_sharded(whole, 1);
        registry.publish_sharded(reloaded, 1);

        let log = query_log(map);
        let whole_responses = ShardedQueryEngine::new(&registry, "whole", 1).run_log(&log);
        let sharded_responses = ShardedQueryEngine::new(&registry, "venue", 1).run_log(&log);
        assert_eq!(whole_responses.len(), sharded_responses.len());
        for (whole_response, sharded_response) in whole_responses.iter().zip(&sharded_responses) {
            assert_eq!(whole_response.index, sharded_response.index);
            assert!(sharded_response.shard < num_shards);
            let a = whole_response.position.expect("dense maps answer");
            let b = sharded_response.position.expect("dense maps answer");
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits()),
                (b.x.to_bits(), b.y.to_bits()),
                "{} query {} diverged between {num_shards} shards and 1 shard",
                estimator.name(),
                whole_response.index
            );
        }
    }
}

/// Routing sends a query heard only on one shard's APs to that shard — the
/// response is attributable to the shard whose survey covers the query.
#[test]
fn queries_route_to_the_shard_covering_their_aps() {
    let map = multi_path_map();
    let topology = MultiPolygon::empty();
    let sharded = ImputationPipeline::new(seedfree_config(EstimatorKind::Knn, NUM_PATHS))
        .export_sharded_snapshot("venue", &map, &topology);
    let registry = ModelRegistry::new();
    registry.publish_sharded(sharded, 1);
    let model = registry.sharded_model("venue").expect("published");

    for path in 0..NUM_PATHS {
        // A query hearing exactly path `p`'s APs routes to the shard that
        // holds path `p` (the shard covering those APs).
        let mut fingerprint = vec![MNAR_FILL_VALUE; NUM_APS];
        fingerprint[2 * path] = -50.0;
        fingerprint[2 * path + 1] = -55.0;
        let routed = model.route(&fingerprint);
        let expected = model
            .shards()
            .shard_of_path(path)
            .expect("surveyed path is registered");
        assert_eq!(routed, expected, "path {path} query misrouted");
    }
}

// ---------------------------------------------------------------------------
// 2. Incremental republish
// ---------------------------------------------------------------------------

/// The live-venue flow end to end: build → publish_sharded → ingest a log
/// touching one shard → republish exactly the dirty shard. The clean
/// shards' models must be carried over pointer-identically with their
/// generations untouched; the dirty shard gets a fresh model and
/// generation; the retired shard model is returned to the publisher; and
/// the incremental snapshots equal a full recompute bitwise.
#[test]
fn incremental_republish_swaps_only_the_dirty_shard() {
    let map = multi_path_map();
    let mut live = LiveVenue::build(
        "live",
        map,
        MultiPolygon::empty(),
        seedfree_config(EstimatorKind::Knn, NUM_PATHS),
    );
    assert_eq!(live.shards().num_shards(), NUM_PATHS);

    let registry = ModelRegistry::new();
    registry.publish_sharded(live.sharded_snapshot(), 1);
    let before = registry.sharded_model("live").expect("published");
    let generations_before = before.shard_generations();

    // A fresh survey pass on a new path spatially inside one existing
    // shard's region: routed by nearest centroid, it dirties exactly that
    // shard.
    let new_rp = Point::new(105.0, 21.0);
    let log: Vec<RadioMapRecord> = (0..3)
        .map(|i| {
            let values: Vec<Option<f64>> = (0..NUM_APS)
                .map(|ap| {
                    if ap / 2 == 2 {
                        Some(-40.0 - i as f64 - ap as f64)
                    } else {
                        None
                    }
                })
                .collect();
            RadioMapRecord::new(Fingerprint::new(values), Some(new_rp), i as f64, 99)
        })
        .collect();
    let dirty = live.ingest(&log);
    assert_eq!(dirty.len(), 1, "the log touches one shard's region");
    let dirty_shard = dirty[0];

    // Incremental ≡ full: every live snapshot (recomputed or carried) is
    // bitwise what a full rebuild from the current map would produce.
    for (incremental, full) in live.snapshots().iter().zip(live.recompute_all()) {
        assert_eq!(encode(incremental), encode(&full));
    }

    let retired = registry.publish_shard(
        "live",
        dirty_shard,
        live.snapshots()[dirty_shard].clone(),
        live.shards(),
        1,
    );
    assert!(
        Arc::ptr_eq(&retired, &before.models()[dirty_shard]),
        "the retired model is the dirty shard's previous model"
    );

    let after = registry.sharded_model("live").expect("still published");
    for shard in 0..NUM_PATHS {
        if shard == dirty_shard {
            assert!(
                !Arc::ptr_eq(&before.models()[shard], &after.models()[shard]),
                "dirty shard must be a fresh model"
            );
            assert!(
                after.models()[shard].generation() > generations_before[shard],
                "dirty shard must carry a fresh generation"
            );
        } else {
            assert!(
                Arc::ptr_eq(&before.models()[shard], &after.models()[shard]),
                "clean shard {shard} must be carried over pointer-identically"
            );
            assert_eq!(after.shard_generations()[shard], generations_before[shard]);
        }
    }
    assert_eq!(after.generation(), registry.generation());

    // The republished shard actually serves the ingested survey: with the
    // new record's exact fingerprint and k = 1 the answer is its RP.
    let probe = log[0].fingerprint.to_dense(MNAR_FILL_VALUE);
    let nearest = after.models()[dirty_shard]
        .snapshot()
        .map
        .fingerprints()
        .iter()
        .any(|f| {
            f.iter()
                .zip(&probe)
                .all(|(a, b)| a.to_bits() == b.to_bits())
        });
    assert!(nearest, "ingested record must be in the republished shard");
    let answer = ShardedQueryEngine::new(&registry, "live", 1)
        .run_log(&[probe])
        .pop()
        .expect("one response");
    assert_eq!(answer.shard, dirty_shard, "probe routes to the dirty shard");
    assert_eq!(
        answer.generation,
        after.models()[dirty_shard].generation(),
        "response attributes to the republished generation"
    );
}

/// Warm-started ingest of a bf16 BRITS venue: the log dirties exactly the
/// shard whose region it lands in; that shard's re-imputation resumes from
/// its previous bf16 tensors (it does not fall back to cold training) and
/// re-exports bf16 tensors; the updated venue publishes and serves every
/// query (so its row records fit the grown member lists); and the whole
/// update is bit-identical at any thread count.
#[test]
fn warm_ingest_republishes_bf16_shards_bit_identically_at_any_thread_count() {
    let log: Vec<RadioMapRecord> = (0..3)
        .map(|i| {
            let values: Vec<Option<f64>> = (0..NUM_APS)
                .map(|ap| (ap / 2 == 2).then_some(-41.0 - i as f64 - ap as f64))
                .collect();
            RadioMapRecord::new(
                Fingerprint::new(values),
                Some(Point::new(104.0 + i as f64, 20.5)),
                i as f64,
                99,
            )
        })
        .collect();
    let build = |threads: usize| {
        LiveVenue::build(
            "warm",
            multi_path_map(),
            MultiPolygon::empty(),
            PipelineConfig {
                differentiator: DifferentiatorKind::MarOnly,
                imputer: ImputerKind::Brits,
                epochs: Some(2),
                threads,
                precision: Precision::Bf16,
                shards: Some(2),
                ..PipelineConfig::default()
            },
        )
    };
    let mut live = build(1);
    let before: Vec<Vec<u8>> = live.snapshots().iter().map(encode).collect();
    let dirty = live.ingest_warm(&log, 1);

    assert_eq!(dirty.len(), 1, "the log touches one shard's region");
    let dirty_shard = dirty[0];
    let total = live.map().len();
    let members = live.shards().members_of(dirty_shard);
    assert!(
        (total - log.len()..total).all(|r| members.contains(&r)),
        "the ingested records join the dirty shard"
    );
    for (shard, snapshot) in live.snapshots().iter().enumerate() {
        if shard != dirty_shard {
            assert_eq!(
                encode(snapshot),
                before[shard],
                "clean shard {shard} changed"
            );
        }
    }
    let tensors = &live.snapshots()[dirty_shard].tensors;
    assert_eq!(tensors.len(), 24, "BRITS exports 24 weight tensors");
    for t in tensors {
        assert!(
            matches!(t.payload, TensorPayload::Bf16(_)),
            "{} is {}, not bf16",
            t.name,
            t.payload.dtype_name()
        );
    }

    let registry = ModelRegistry::new();
    registry.publish_sharded(live.sharded_snapshot(), 1);
    let log_queries = query_log(live.map());
    let responses = ShardedQueryEngine::new(&registry, "warm", 1).run_log(&log_queries);
    assert_eq!(responses.len(), log_queries.len());
    assert!(
        responses.iter().all(|r| r.position.is_some()),
        "every query is answered"
    );

    // The update resumed from the previous weights: a cold re-training of
    // the same shard lands elsewhere.
    let mut cold = build(1);
    assert_eq!(cold.ingest(&log), dirty);
    assert!(
        cold.snapshots()[dirty_shard]
            .tensors
            .iter()
            .zip(tensors)
            .any(|(a, b)| !a.bits_eq(b)),
        "warm ingest fell back to cold training"
    );

    let mut parallel = build(2);
    assert_eq!(parallel.ingest_warm(&log, 1), dirty);
    assert_eq!(
        encode_sharded(&parallel.sharded_snapshot()),
        encode_sharded(&live.sharded_snapshot()),
        "warm bf16 ingest differs between threads=1 and threads=2"
    );
}

// ---------------------------------------------------------------------------
// 3. Determinism
// ---------------------------------------------------------------------------

/// A fixed query log through the sharded engine is bit-identical at any
/// thread count — routing, re-rank and generation attribution included.
#[test]
fn a_sharded_query_log_is_bit_identical_at_any_thread_count() {
    let map = multi_path_map();
    let topology = MultiPolygon::empty();
    let sharded = ImputationPipeline::new(seedfree_config(EstimatorKind::Wknn, NUM_PATHS))
        .export_sharded_snapshot("det", &map, &topology);
    let registry = ModelRegistry::new();
    registry.publish_sharded(sharded, 1);
    let log = query_log(&map);

    let reference = ShardedQueryEngine::new(&registry, "det", 1).run_log(&log);
    for threads in [2, 8, rm_runtime::default_threads(), 0] {
        let responses = ShardedQueryEngine::new(&registry, "det", threads).run_log(&log);
        assert_eq!(responses.len(), reference.len());
        for (a, b) in reference.iter().zip(&responses) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.shard, b.shard);
            assert_eq!(a.generation, b.generation);
            let (pa, pb) = (a.position.unwrap(), b.position.unwrap());
            assert_eq!(
                (pa.x.to_bits(), pa.y.to_bits()),
                (pb.x.to_bits(), pb.y.to_bits()),
                "query {} differs between threads=1 and threads={threads}",
                a.index
            );
        }
    }
}

/// A venue of `paths` survey paths, each hearing four APs shared with its
/// neighbours (AP `a` is heard on paths `a / 2 − 1` and `a / 2`), with
/// record-dependent RSSI so quantized ranking has real work to do.
fn overlapping_paths_map(paths: usize) -> RadioMap {
    let num_aps = 2 * paths + 2;
    let mut records = Vec::new();
    for path in 0..paths {
        for i in 0..12 {
            let values: Vec<Option<f64>> = (0..num_aps)
                .map(|ap| {
                    (ap / 2 == path || ap / 2 == path + 1)
                        .then(|| -42.0 - ((i * 7 + ap * 13 + path * 5) % 41) as f64 * 1.1)
                })
                .collect();
            let rp = Point::new(path as f64 * 30.0 + i as f64 * 1.5, (i % 4) as f64 * 2.0);
            records.push(RadioMapRecord::new(
                Fingerprint::new(values),
                Some(rp),
                i as f64,
                path,
            ));
        }
    }
    RadioMap::new(records, num_aps)
}

/// The engine ranks each micro-batch batch-major, one contiguous slice per
/// participant; at 8 shards, every capacity (including one off the 4-query
/// scan group) and thread count answers each query bitwise equal to the
/// model's own per-query `estimate` and `route`.
#[test]
fn batched_engine_answers_equal_per_query_estimates_at_eight_shards() {
    let map = overlapping_paths_map(8);
    let config = PipelineConfig {
        knn_k: 3,
        ..seedfree_config(EstimatorKind::Wknn, 8)
    };
    let sharded = ImputationPipeline::new(config).export_sharded_snapshot(
        "eight",
        &map,
        &MultiPolygon::empty(),
    );
    let registry = ModelRegistry::new();
    registry.publish_sharded(sharded, 1);
    let model = registry.sharded_model("eight").expect("published");
    assert_eq!(model.num_shards(), 8);
    let log = query_log(&map);
    for max_batch in [1, 7, 64] {
        for threads in [1, 2] {
            let responses =
                ShardedQueryEngine::with_max_batch(&registry, "eight", threads, max_batch)
                    .run_log(&log);
            assert_eq!(responses.len(), log.len());
            for (response, query) in responses.iter().zip(&log) {
                assert_eq!(response.shard, model.route(query));
                let (got, want) = (response.position.unwrap(), model.estimate(query).unwrap());
                assert_eq!(
                    (got.x.to_bits(), got.y.to_bits()),
                    (want.x.to_bits(), want.y.to_bits()),
                    "query {} at max_batch={max_batch}, threads={threads}",
                    response.index
                );
            }
        }
    }
}
