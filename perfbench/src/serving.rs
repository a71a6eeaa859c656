//! `serve-steady`: read-only serving of a sharded venue.
//!
//! Set-up builds a wanda-like venue at full scale, holds a tenth of its
//! located survey records out as query sources, imputes the rest (TopoAC +
//! linear interpolation), exports it as an 8-shard snapshot and publishes
//! it. One closed-loop client then submits micro-batches of seeded noisy
//! copies of the held-out fingerprints to a `ShardedQueryEngine` and drains
//! each batch; a query's latency runs from its `submit` to the `drain` that
//! returns it. Everything measured runs at fan-out width [`WIDTH`]. Every
//! answer must equal the served model's own `estimate` of the same
//! fingerprint, bit for bit; answers are checked as they arrive.

use std::cell::RefCell;
use std::collections::BTreeMap;

use radiomap_core::prelude::*;
use radiomap_core::{DifferentiatorKind, ImputationPipeline, ImputerKind, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_positioning::{merge_candidates, wknn_estimate, EstimatorKind, Knn, KnnCandidate};
use rm_radiomap::split_test_records;
use rm_serve::{ModelRegistry, ShardedQueryEngine, ShardedVenueModel, MAX_MICRO_BATCH};

use crate::common::{
    finish_trace, repeated_setup, same_point, secs, set_per_setup, Counters, Outcome, RunOptions,
    THREADS, VENUE_SEED,
};
use crate::inputs::{self, Query, FLOOR_DBM};
use crate::stats;
use crate::trace::{self, now, Tracer};

pub const VENUE: &str = "wanda-like";
pub const SCALE: f64 = 1.0;
pub const SHARDS: usize = 8;
/// Share of located survey records held out as query sources.
pub const HELD_OUT: f64 = 0.1;
/// Distinct queries in the seeded log; the client cycles through it.
pub const LOG_LEN: usize = 4096;
/// Set-ups per run (the full-scale venue takes seconds to generate).
pub const SETUPS: usize = 3;
/// Query batches between two extra export + publish rounds. The rounds are
/// spread over the whole measured window, so `build_s` samples the same
/// stretch of time as the queries.
pub const REBUILD_EVERY: u64 = 64;
/// Fan-out width of the export, the publish and the query engine. Work
/// fanned out over both cores waits for the slower one, so it follows the
/// load other tenants put on either core of the shared host: in runs taken
/// in turn, `qps` ranged over 8 % of its value and `build_s` over 30 % at
/// width 2, against 0.8 % and 5 % at width 1.
pub const WIDTH: usize = 1;
/// Batches answered before measuring.
pub const WARMUP_BATCHES: usize = 8;

fn config() -> PipelineConfig {
    PipelineConfig {
        differentiator: DifferentiatorKind::TopoAc,
        imputer: ImputerKind::LinearInterpolation,
        estimator: EstimatorKind::Wknn,
        knn_k: 3,
        epochs: Some(1),
        batch_size: Some(1),
        threads: WIDTH,
        shards: Some(SHARDS),
        seed: VENUE_SEED,
        ..PipelineConfig::default()
    }
}

/// Splits `map` into the records a venue is built from and the held-out
/// query sources (dense fingerprints with their surveyed location).
pub fn held_out(tracer: &Tracer, op: u64, map: &RadioMap) -> (RadioMap, Vec<Query>) {
    let mut rng = StdRng::seed_from_u64(VENUE_SEED);
    let (_, mut held) = tracer.span("radiomap::split_test_records", op, || {
        split_test_records(map, HELD_OUT, &mut rng)
    });
    held.sort_unstable();
    let sources = held
        .iter()
        .map(|&i| {
            let record = map.record(i);
            Query {
                fingerprint: record.fingerprint.to_dense(FLOOR_DBM),
                truth: record.rp.expect("held-out records are located"),
            }
        })
        .collect();
    let kept = map
        .records()
        .iter()
        .enumerate()
        .filter(|(i, _)| held.binary_search(i).is_err())
        .map(|(_, r)| r.clone())
        .collect();
    (RadioMap::new(kept, map.num_aps()), sources)
}

/// One answered query: its log position, answer, routed shard and the
/// generation that answered it.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub log_pos: u32,
    pub position: Option<Point>,
    pub shard: usize,
    pub generation: u64,
}

/// Submits one micro-batch starting at log position `pos` and drains it.
/// Returns the answers and each query's submit-to-drain latency (seconds).
pub fn serve_batch(
    engine: &mut ShardedQueryEngine<'_>,
    log: &[Query],
    pos: usize,
    answers: &mut Vec<Answer>,
    latencies: &mut Vec<f64>,
) {
    let mut submitted = Vec::with_capacity(MAX_MICRO_BATCH);
    let mut positions = Vec::with_capacity(MAX_MICRO_BATCH);
    for k in 0..MAX_MICRO_BATCH {
        let log_pos = (pos + k) % log.len();
        let fingerprint = log[log_pos].fingerprint.clone();
        positions.push(log_pos as u32);
        submitted.push(now());
        engine.submit(fingerprint);
    }
    let responses = engine.drain();
    let done = now();
    assert_eq!(
        responses.len(),
        MAX_MICRO_BATCH,
        "a drain returns its batch"
    );
    for ((response, start), log_pos) in responses.into_iter().zip(submitted).zip(positions) {
        latencies.push(done.duration_since(start).as_secs_f64());
        answers.push(Answer {
            log_pos,
            position: response.position,
            shard: response.shard,
            generation: response.generation,
        });
    }
}

/// Running counts over answered queries, so a run checks its answers as
/// they arrive instead of keeping them.
#[derive(Debug, Default)]
pub struct Tally {
    pub answered: u64,
    /// Answers without a position.
    pub missing: u64,
    pub per_shard: Vec<u64>,
    /// Answers per generation.
    pub generations: BTreeMap<u64, u64>,
}

impl Tally {
    pub fn add(&mut self, answers: &[Answer]) {
        for a in answers {
            self.answered += 1;
            self.missing += u64::from(a.position.is_none());
            if self.per_shard.len() <= a.shard {
                self.per_shard.resize(a.shard + 1, 0);
            }
            self.per_shard[a.shard] += 1;
            *self.generations.entry(a.generation).or_default() += 1;
        }
    }

    /// The largest share of answers routed to one shard.
    pub fn route_max_share(&self) -> f64 {
        self.per_shard.iter().copied().max().unwrap_or(0) as f64 / self.answered.max(1) as f64
    }

    /// Counts the tallied queries as operations: one fails when it got no
    /// position or a generation outside `published` (sorted).
    pub fn check(&self, out: &mut Outcome, published: &[u64]) {
        let unknown: Vec<(u64, u64)> = self
            .generations
            .iter()
            .filter(|(g, _)| published.binary_search(g).is_err())
            .map(|(&g, &n)| (g, n))
            .collect();
        let failed = self.missing + unknown.iter().map(|&(_, n)| n).sum::<u64>();
        out.ops(self.answered, failed.min(self.answered), || {
            format!(
                "{} answers without a position; answers from unpublished generations: {unknown:?}",
                self.missing
            )
        });
    }
}

/// Checks one batch's answers against `reference` (the model's own answer to
/// every log entry).
fn check_batch(out: &mut Outcome, answers: &[Answer], reference: &[Option<Point>]) {
    for a in answers {
        let expected = reference[a.log_pos as usize];
        out.op(
            a.position.is_some() && same_point(a.position, expected),
            || {
                format!(
                    "query for log entry {}: served {:?}, the model estimates {expected:?}",
                    a.log_pos, a.position
                )
            },
        );
    }
}

/// Mean positioning error of `answers` to `log`, one answer per entry.
pub fn mean_error(log: &[Query], answers: &[Option<Point>]) -> Option<f64> {
    let errors: Vec<f64> = answers
        .iter()
        .zip(log)
        .filter_map(|(p, q)| p.map(|p| p.distance(q.truth)))
        .collect();
    (!errors.is_empty()).then(|| stats::mean(&errors))
}

/// The model's own answer to every log entry.
pub fn reference_answers(model: &ShardedVenueModel, log: &[Query]) -> Vec<Option<Point>> {
    rm_runtime::par_map(THREADS, log, |_, q| model.estimate(&q.fingerprint))
}

/// Shard-local KNN rankers over the published shard maps, for the traced
/// replay of the engine's cross-shard ranking.
struct Shadow {
    rankers: Vec<Knn>,
    members: Vec<Vec<usize>>,
    k: usize,
}

impl Shadow {
    fn build(tracer: &Tracer, model: &ShardedVenueModel) -> Self {
        let rankers = model
            .models()
            .iter()
            .enumerate()
            .map(|(s, m)| {
                tracer.span("positioning::fit", s as u64, || {
                    Knn::new(m.snapshot().map.clone(), m.snapshot().knn_k)
                })
            })
            .collect();
        let members = (0..model.num_shards())
            .map(|s| model.shards().members_of(s).to_vec())
            .collect();
        let k = model
            .models()
            .iter()
            .map(|m| m.snapshot().knn_k.max(1))
            .max()
            .unwrap_or(1);
        Self {
            rankers,
            members,
            k,
        }
    }

    /// Every shard's top-k with global record indices, merged venue-wide and
    /// folded by WKNN — the engine's ranking, from the positioning layer.
    fn estimate(&self, fingerprint: &[f64]) -> Option<Point> {
        let mut pooled: Vec<KnnCandidate> = Vec::new();
        for (ranker, members) in self.rankers.iter().zip(&self.members) {
            pooled.extend(
                ranker
                    .candidates(fingerprint)
                    .into_iter()
                    .map(|c| KnnCandidate {
                        index: members[c.index as usize] as u32,
                        ..c
                    }),
            );
        }
        wknn_estimate(&merge_candidates(self.k, pooled))
    }
}

struct Served {
    registry: ModelRegistry,
    log: Vec<Query>,
    map: RadioMap,
    walls: MultiPolygon,
}

/// Imputes and exports the served map as a sharded snapshot and publishes
/// it into a fresh registry.
fn build(tracer: &Tracer, op: u64, map: &RadioMap, walls: &MultiPolygon) -> ModelRegistry {
    let snapshot = tracer.span("core::export_sharded_snapshot", op, || {
        ImputationPipeline::new(config()).export_sharded_snapshot(VENUE, map, walls)
    });
    let registry = ModelRegistry::new();
    tracer.span("serve::publish_sharded", op, || {
        registry.publish_sharded(snapshot, WIDTH)
    });
    registry
}

pub fn run(opts: RunOptions) -> Outcome {
    let mut out = Outcome::default();
    out.info(
        "sizing",
        format!(
            "{{\"venue\":\"{VENUE}\",\"scale\":{SCALE},\"shards\":{SHARDS},\"held_out\":{HELD_OUT},\
             \"imputer\":\"TopoAC+LI\",\"estimator\":\"WKNN\",\"batch\":{MAX_MICRO_BATCH},\
             \"log_len\":{LOG_LEN},\"width\":{WIDTH}}}"
        ),
    );
    let tracer = Tracer::new(opts.trace);
    let builds = RefCell::new(Vec::new());

    let served = repeated_setup(&mut out, &tracer, SETUPS, |op| {
        let dataset = tracer.span("venue_sim::dataset", op, || {
            DatasetSpec::new(VenuePreset::WandaLike, VENUE_SEED)
                .with_scale(SCALE)
                .build()
        });
        let (map, sources) = held_out(&tracer, op, &dataset.radio_map);
        if tracer.enabled() {
            // The export computes this partition internally; timed on its
            // own here so the traced run can attribute it.
            tracer.span("radiomap::shard", op, || {
                VenueShards::compute(&map, SHARDS, VENUE_SEED)
            });
        }
        let start = now();
        let registry = build(&tracer, op, &map, &dataset.venue.walls);
        builds.borrow_mut().push(secs(start));
        Served {
            registry,
            log: inputs::query_log(&sources, LOG_LEN, opts.seed),
            map,
            walls: dataset.venue.walls,
        }
    });
    let mut builds = builds.into_inner();
    let untraced = Tracer::new(false);

    let model = served
        .registry
        .sharded_model(VENUE)
        .expect("the venue was published");
    let shadow = opts.trace.then(|| Shadow::build(&tracer, &model));
    let log = &served.log;
    let reference = reference_answers(&model, log);
    match mean_error(log, &reference) {
        Some(ape) => out.set("ape_m", ape),
        None => out.fail("the model answers no log entry".into()),
    }
    let mut engine = ShardedQueryEngine::new(&served.registry, VENUE, WIDTH);
    let (mut answers, mut latencies) = (Vec::new(), Vec::new());
    let mut pos = 0;
    for _ in 0..WARMUP_BATCHES {
        serve_batch(&mut engine, log, pos, &mut answers, &mut latencies);
        pos += MAX_MICRO_BATCH;
    }
    latencies.clear();

    let budget = opts.budget();
    let clock = now();
    let mut counters = Counters::default();
    let mut tally = Tally::default();
    let mut batch_walls = Vec::new();
    let mut traced_queries = 0usize;
    let mut batches = 0u64;
    // Queries and batch time of the untraced batches since the last rebuild;
    // each such window gives one throughput sample.
    let mut window = (0usize, 0.0f64);
    let mut window_qps = Vec::new();
    while clock.elapsed() < budget || (opts.trace && batches < 2) {
        let traced = opts.trace && batches % 2 == 1;
        answers.clear();
        let before = Counters::read();
        let start = now();
        if traced {
            tracer.span("serve::batch", batches, || {
                serve_batch(&mut engine, log, pos, &mut answers, &mut latencies)
            });
            replay(
                &mut out,
                &tracer,
                batches,
                &model,
                shadow.as_ref(),
                log,
                &answers,
            );
            traced_queries += MAX_MICRO_BATCH;
        } else {
            serve_batch(&mut engine, log, pos, &mut answers, &mut latencies);
            let wall = secs(start);
            batch_walls.push(wall);
            window.0 += MAX_MICRO_BATCH;
            window.1 += wall;
            counters.add(Counters::read().since(before));
        }
        check_batch(&mut out, &answers, &reference);
        tally.add(&answers);
        pos += MAX_MICRO_BATCH;
        batches += 1;
        if batches.is_multiple_of(REBUILD_EVERY) {
            if window.0 > 0 {
                window_qps.push(window.0 as f64 / window.1);
                window = (0, 0.0);
            }
            let start = now();
            drop(build(&untraced, 0, &served.map, &served.walls));
            builds.push(secs(start));
        }
    }
    out.set("build_s", stats::median(&builds));
    out.info("build_walls_s", format!("{builds:?}"));
    let mut published = model.shard_generations();
    published.sort_unstable();
    tally.check(&mut out, &published);
    out.info("queries", tally.answered);
    let untraced_queries = batch_walls.len() * MAX_MICRO_BATCH;
    if !opts.trace {
        let us: Vec<f64> = latencies.iter().map(|s| s * 1e6).collect();
        out.set_percentile("query_p50_us", &us, 50.0);
        out.info_distribution("query_us", &us);
        if window_qps.is_empty() {
            // A run too short for one whole window.
            window_qps.push(window.0 as f64 / window.1);
        }
        out.set("qps", stats::median(&window_qps));
        out.info("qps_windows", window_qps.len());
    }

    if opts.trace {
        let spans = tracer.take();
        set_per_setup(&mut out, "venue_sim.dataset_s", "venue_sim::dataset");
        set_per_setup(&mut out, "radiomap.shard_s", "radiomap::shard");
        set_per_setup(&mut out, "core.export_s", "core::export_sharded_snapshot");
        let fit: f64 = trace::durations(&spans, "positioning::fit").iter().sum();
        out.set("positioning.fit_s", fit);
        let rank: f64 = trace::durations(&spans, "positioning::rank").iter().sum();
        out.set(
            "positioning.query_us",
            rank / traced_queries.max(1) as f64 * 1e6,
        );
        let traced_batches = trace::durations(&spans, "serve::batch");
        out.set("serve.flush_us", stats::median(&traced_batches) * 1e6);
        out.set(
            "trace.overhead_share",
            stats::median(&traced_batches) / stats::median(&batch_walls) - 1.0,
        );
        out.set("serve.route_max_share", tally.route_max_share());
        counters.report(&mut out, untraced_queries as u64);
        finish_trace(&mut out, spans);
    }
    out
}

/// Traced batches only: recomputes the batch's answers from the public
/// routing and ranking functions and checks them against the engine's.
fn replay(
    out: &mut Outcome,
    tracer: &Tracer,
    batch: u64,
    model: &ShardedVenueModel,
    shadow: Option<&Shadow>,
    log: &[Query],
    answers: &[Answer],
) {
    let Some(shadow) = shadow else { return };
    let routes: Vec<usize> = tracer.span("serve::route", batch, || {
        answers
            .iter()
            .map(|a| model.route(&log[a.log_pos as usize].fingerprint))
            .collect()
    });
    let ranked: Vec<Option<Point>> = tracer.span("positioning::rank", batch, || {
        answers
            .iter()
            .map(|a| shadow.estimate(&log[a.log_pos as usize].fingerprint))
            .collect()
    });
    for ((a, route), position) in answers.iter().zip(routes).zip(ranked) {
        out.op(route == a.shard && same_point(position, a.position), || {
            format!(
                "log entry {}: replayed route {route} / answer {position:?} differ from the engine's {} / {:?}",
                a.log_pos, a.shard, a.position
            )
        });
    }
}
