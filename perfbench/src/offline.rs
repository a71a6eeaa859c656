//! The offline workload `table6`: a grid of `(differentiator, imputer)`
//! cells evaluated on both Wi-Fi venues by the protocol of the paper's
//! Table VI.
//!
//! Each grid is run through the library's public stage functions — test
//! split, differentiation, imputation, estimator fit, evaluation — exactly
//! as `ImputationPipeline::evaluate_grid` composes them, so the traced run
//! can time every layer from outside. The first grid of a run is
//! `evaluate_grid` itself; every later grid must reproduce its per-cell APE
//! bit for bit. After each grid, every cell's estimator answers seeded noisy
//! copies of its held-out test fingerprints (the positioning queries) in
//! micro-batches, like a serving client.

use radiomap_core::prelude::*;
use radiomap_core::{DifferentiatorKind, ImputationPipeline, ImputerKind, PipelineConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rm_positioning::{evaluate_estimator_threads, EstimatorKind, TestQuery};
use rm_radiomap::split_test_records;
use rm_serve::MAX_MICRO_BATCH;
use rm_tensor::NamedTensor;

use crate::common::{
    finish_trace, repeated_setup, same_point, secs, set_per_setup, Counters, Outcome, RunOptions,
    THREADS, VENUE_SEED,
};
use crate::inputs;
use crate::stats;
use crate::trace::{self, now, Span, Tracer};

/// Sizing of the offline workload.
pub struct GridSpec {
    pub scale: f64,
    pub epochs: usize,
    pub estimator: EstimatorKind,
    pub cells: Vec<(DifferentiatorKind, ImputerKind)>,
}

/// Set-ups per run (generating both venues is cheap).
pub const SETUPS: usize = 8;

/// Noisy copies of each held-out test fingerprint in the query pass.
pub const COPIES: usize = 256;
// Whole batches only, so every query of the pass shares its batch's latency
// with exactly `MAX_MICRO_BATCH - 1` others.
const _: () = assert!(COPIES.is_multiple_of(MAX_MICRO_BATCH));

pub const VENUES: [VenuePreset; 2] = [VenuePreset::KaideLike, VenuePreset::WandaLike];

/// `table6`: the rows of the paper's Table VI with WKNN — every imputer
/// after TopoAC, plus BiSIM after DasaKM (D-BiSIM).
pub fn table6() -> GridSpec {
    let topo_ac = [
        ImputerKind::CaseDeletion,
        ImputerKind::LinearInterpolation,
        ImputerKind::SemiSupervised,
        ImputerKind::Mice,
        ImputerKind::MatrixFactorization,
        ImputerKind::Brits,
        ImputerKind::Ssgan,
        ImputerKind::Bisim,
    ];
    GridSpec {
        scale: 0.1,
        epochs: 3,
        estimator: EstimatorKind::Wknn,
        cells: topo_ac
            .iter()
            .map(|&i| (DifferentiatorKind::TopoAc, i))
            .chain([(DifferentiatorKind::DasaKm, ImputerKind::Bisim)])
            .collect(),
    }
}

impl GridSpec {
    fn config(&self) -> PipelineConfig {
        PipelineConfig {
            estimator: self.estimator,
            epochs: Some(self.epochs),
            batch_size: Some(1),
            shards: Some(1),
            threads: THREADS,
            seed: VENUE_SEED,
            ..PipelineConfig::default()
        }
    }

    pub fn sizing_json(&self) -> String {
        format!(
            "{{\"venues\":[\"kaide-like\",\"wanda-like\"],\"scale\":{},\"epochs\":{},\
             \"estimator\":\"{}\",\"cells_per_venue\":{},\"queries_per_test_record\":{},\"threads\":{}}}",
            self.scale,
            self.epochs,
            self.estimator.name(),
            self.cells.len(),
            COPIES,
            THREADS
        )
    }
}

/// The span name, and so the layer, of an imputer's training call.
fn impute_span(kind: ImputerKind) -> &'static str {
    match kind {
        ImputerKind::Bisim => "bisim::impute",
        ImputerKind::Brits => "imputers::brits",
        ImputerKind::Ssgan => "imputers::ssgan",
        _ => "imputers::classical",
    }
}

fn infer_span(kind: ImputerKind) -> &'static str {
    match kind {
        ImputerKind::Bisim => "bisim::infer",
        _ => "imputers::infer",
    }
}

fn is_neural(kind: ImputerKind) -> bool {
    matches!(
        kind,
        ImputerKind::Bisim | ImputerKind::Brits | ImputerKind::Ssgan
    )
}

/// What one evaluated cell leaves behind.
struct CellRun {
    ape: f64,
    mar_fraction: Option<f64>,
    estimator: Box<dyn LocationEstimator>,
    tests: Vec<TestQuery>,
    /// For the inference replay: the map the imputer saw, its mask, its
    /// output and its exported weights.
    working: RadioMap,
    mask: MaskMatrix,
    imputed: ImputedRadioMap,
    tensors: Vec<NamedTensor>,
}

/// One cell through the public stage functions, in the order and with the
/// arguments `ImputationPipeline::evaluate` uses.
fn run_cell(
    tracer: &Tracer,
    op: u64,
    config: &PipelineConfig,
    map: &RadioMap,
    topology: &MultiPolygon,
) -> CellRun {
    let pipeline = ImputationPipeline::new(config.clone());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (_, test_indices) = tracer.span("radiomap::split_test_records", op, || {
        split_test_records(map, config.test_fraction, &mut rng)
    });
    let ground_truth: Vec<(usize, Point)> = test_indices
        .iter()
        .map(|&i| (i, map.record(i).rp.expect("test records have RPs")))
        .collect();
    let mut working = map.clone();
    for &(i, _) in &ground_truth {
        working.records_mut()[i].rp = None;
    }

    let differentiator = config
        .differentiator
        .build(topology, config.eta, config.seed);
    let mask = tracer.span("differentiator::differentiate", op, || {
        differentiator.differentiate(&working)
    });
    let mar_fraction = mask.mar_fraction();

    let imputer = config
        .imputer
        .build_with(&pipeline.build_options(config.seed));
    let (imputed, tensors) = tracer.span(impute_span(config.imputer), op, || {
        imputer.impute_with_snapshot(&working, &mask)
    });

    let mut test_set = test_indices.clone();
    test_set.sort_unstable();
    let mut fingerprints = Vec::new();
    let mut locations = Vec::new();
    for i in 0..imputed.len() {
        if test_set.binary_search(&i).is_ok() {
            continue;
        }
        if let Some(location) = imputed.locations[i] {
            fingerprints.push(imputed.fingerprints[i].clone());
            locations.push(location);
        }
    }
    let dense = DenseRadioMap::new(fingerprints, locations, map.num_aps());
    let estimator = tracer.span("positioning::fit", op, || {
        config
            .estimator
            .build_threads(dense, config.knn_k, config.threads)
    });
    let tests: Vec<TestQuery> = ground_truth
        .iter()
        .map(|&(i, location)| TestQuery {
            fingerprint: imputed.fingerprints[i].clone(),
            location,
        })
        .collect();
    let ape = tracer.span("positioning::evaluate", op, || {
        evaluate_estimator_threads(estimator.as_ref(), &tests, config.threads).unwrap_or(f64::NAN)
    });
    CellRun {
        ape,
        mar_fraction,
        estimator,
        tests,
        working,
        mask,
        imputed,
        tensors,
    }
}

/// A query-pass answer with the query's ground truth.
type Answered = (Option<Point>, Point);

/// A grid cell: venue index and configuration.
struct Cell {
    venue: usize,
    config: PipelineConfig,
}

fn cells(spec: &GridSpec) -> Vec<Cell> {
    let base = spec.config();
    (0..VENUES.len())
        .flat_map(|venue| {
            let base = base.clone();
            spec.cells
                .iter()
                .map(move |&(differentiator, imputer)| Cell {
                    venue,
                    config: PipelineConfig {
                        differentiator,
                        imputer,
                        ..base.clone()
                    },
                })
        })
        .collect()
}

/// One decomposed grid: per venue, the venue's cells fanned out over the
/// pool in grid order. Returns the cells and the grid's wall time.
fn run_grid(tracer: &Tracer, cells: &[Cell], datasets: &[Dataset]) -> (Vec<CellRun>, f64) {
    let start = now();
    let mut runs: Vec<Option<CellRun>> = (0..cells.len()).map(|_| None).collect();
    for (venue, dataset) in datasets.iter().enumerate() {
        let venue_order: Vec<usize> = (0..cells.len())
            .filter(|&c| cells[c].venue == venue)
            .collect();
        let outputs = tracer.span("runtime::par_map", venue as u64, || {
            let parent = tracer.current();
            rm_runtime::par_map(THREADS, &venue_order, |_, &c| {
                tracer.adopt(parent, || {
                    tracer.span("core::cell", c as u64, || {
                        run_cell(
                            tracer,
                            c as u64,
                            &cells[c].config,
                            &dataset.radio_map,
                            &dataset.venue.walls,
                        )
                    })
                })
            })
        });
        for (&c, run) in venue_order.iter().zip(outputs) {
            runs[c] = Some(run);
        }
    }
    let wall = secs(start);
    (
        runs.into_iter()
            .map(|r| r.expect("every cell ran"))
            .collect(),
        wall,
    )
}

/// The library's own grid, venue by venue; returns the per-cell APE. Runs
/// untraced: it is the reference, not part of the layer accounting.
fn reference_grid(spec: &GridSpec, cells: &[Cell], datasets: &[Dataset]) -> Vec<f64> {
    let mut apes = vec![f64::NAN; cells.len()];
    for (venue, dataset) in datasets.iter().enumerate() {
        let venue_order: Vec<usize> = (0..cells.len())
            .filter(|&c| cells[c].venue == venue)
            .collect();
        let kinds: Vec<(DifferentiatorKind, ImputerKind)> = venue_order
            .iter()
            .map(|&c| (cells[c].config.differentiator, cells[c].config.imputer))
            .collect();
        let results = ImputationPipeline::new(spec.config()).evaluate_grid(
            &dataset.radio_map,
            &dataset.venue.walls,
            &kinds,
        );
        for (&c, result) in venue_order.iter().zip(results) {
            apes[c] = result.ape_m;
        }
    }
    apes
}

/// Noise vectors for the query pass, one table per venue: row
/// `t * COPIES + c` perturbs copy `c` of held-out test record `t`. Every
/// cell of a venue holds out the same records, so they share the table.
fn query_noise(cells: &[Cell], runs: &[CellRun], seed: u64) -> Vec<Vec<Vec<f64>>> {
    (0..VENUES.len())
        .map(|venue| {
            let c = cells
                .iter()
                .position(|cell| cell.venue == venue)
                .expect("every venue has cells");
            let tests = &runs[c].tests;
            let width = tests.first().map_or(0, |t| t.fingerprint.len());
            inputs::noise_table(
                tests.len() * COPIES,
                width,
                rm_runtime::derive_seed(seed, venue as u64),
            )
        })
        .collect()
}

/// The query pass over every cell: `COPIES` noisy copies of each held-out
/// test fingerprint, answered in closed-loop micro-batches of
/// `MAX_MICRO_BATCH`, one estimate at a time, as a serving client would
/// submit them. A query's latency runs from its batch's start to the end of
/// the batch, so the latency samples are the batches' wall times. Returns
/// the answers with their ground truth and the batch wall times.
fn query_pass(
    tracer: &Tracer,
    cells: &[Cell],
    runs: &[CellRun],
    noise: &[Vec<Vec<f64>>],
) -> (Vec<Answered>, Vec<f64>) {
    let queries: usize = runs.iter().map(|r| r.tests.len() * COPIES).sum();
    let mut answers = Vec::with_capacity(queries);
    let mut batches = Vec::with_capacity(queries.div_ceil(MAX_MICRO_BATCH));
    for (c, (cell, run)) in cells.iter().zip(runs).enumerate() {
        let table = &noise[cell.venue];
        tracer.span("positioning::estimate", c as u64, || {
            for first in (0..run.tests.len() * COPIES).step_by(MAX_MICRO_BATCH) {
                let last = (first + MAX_MICRO_BATCH).min(run.tests.len() * COPIES);
                let batch: Vec<(Vec<f64>, Point)> = (first..last)
                    .map(|k| {
                        let test = &run.tests[k / COPIES];
                        (
                            inputs::with_noise(&test.fingerprint, &table[k]),
                            test.location,
                        )
                    })
                    .collect();
                let start = now();
                let answered: Vec<Option<Point>> = batch
                    .iter()
                    .map(|(fingerprint, _)| {
                        run.estimator.estimate(std::hint::black_box(fingerprint))
                    })
                    .collect();
                batches.push(secs(start));
                answers.extend(answered.into_iter().zip(batch.into_iter().map(|(_, t)| t)));
            }
        });
    }
    (answers, batches)
}

/// Per-cell, per-query checks of one measured grid against the reference.
fn check_grid(
    out: &mut Outcome,
    cells: &[Cell],
    runs: &[CellRun],
    reference: &[f64],
    answers: &[Answered],
    first_answers: &[Answered],
) {
    for (c, run) in runs.iter().enumerate() {
        let ok = run.ape.is_finite() && run.ape.to_bits() == reference[c].to_bits();
        out.op(ok, || {
            format!(
                "cell {c} ({} + {}): APE {} differs from evaluate_grid's {}",
                cells[c].config.differentiator.name(),
                cells[c].config.imputer.name(),
                run.ape,
                reference[c]
            )
        });
    }
    for (i, ((a, _), (b, _))) in answers.iter().zip(first_answers).enumerate() {
        out.op(a.is_some() && same_point(*a, *b), || {
            format!("query {i}: answer {a:?} is missing or differs from the first grid's {b:?}")
        });
    }
}

fn mean_error(answers: &[Answered]) -> f64 {
    let errors: Vec<f64> = answers
        .iter()
        .filter_map(|(a, truth)| a.map(|p| p.distance(*truth)))
        .collect();
    stats::mean(&errors)
}

/// Runs the `table6` workload.
pub fn run(opts: RunOptions) -> Outcome {
    let spec = &table6();
    let mut out = Outcome::default();
    out.info("sizing", spec.sizing_json());
    let tracer = Tracer::new(opts.trace);
    let untraced = Tracer::new(false);

    let datasets = repeated_setup(&mut out, &tracer, SETUPS, |setup| {
        VENUES
            .iter()
            .map(|&preset| {
                tracer.span("venue_sim::dataset", setup, || {
                    DatasetSpec::new(preset, VENUE_SEED)
                        .with_scale(spec.scale)
                        .build()
                })
            })
            .collect::<Vec<Dataset>>()
    });

    let cells = cells(spec);

    // The library's grid: warm-up, and the reference every grid must match.
    let start = now();
    let reference = reference_grid(spec, &cells, &datasets);
    out.info("reference_grid_s", secs(start));
    out.info(
        "reference_ape_m",
        stats::mean(&reference).to_string().replace("NaN", "null"),
    );

    let budget = opts.budget();
    let clock = now();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut batches = Vec::new();
    let mut pass_qps = Vec::new();
    let mut counters = Counters::default();
    let mut counted_cells = 0u64;
    let mut traced_queries = 0usize;
    let mut noise: Option<Vec<Vec<Vec<f64>>>> = None;
    let mut first_answers: Option<Vec<Answered>> = None;
    let mut last_traced: Option<Vec<CellRun>> = None;
    let mut grids = 0usize;
    // In a traced run, untraced and traced grids alternate: the untraced
    // ones give the counters and the baseline of the tracing overhead.
    while walls.is_empty() || (opts.trace && traced_walls.is_empty()) || clock.elapsed() < budget {
        let traced = opts.trace && grids % 2 == 1;
        let active = if traced { &tracer } else { &untraced };
        let before = Counters::read();
        let (runs, wall) = run_grid(active, &cells, &datasets);
        let delta = Counters::read().since(before);
        let noise = noise.get_or_insert_with(|| query_noise(&cells, &runs, opts.seed));
        let (answers, grid_batches) = query_pass(active, &cells, &runs, noise);
        let first = first_answers.get_or_insert_with(|| answers.clone());
        check_grid(&mut out, &cells, &runs, &reference, &answers, first);
        if traced {
            traced_walls.push(wall);
            traced_queries += grid_batches.len() * MAX_MICRO_BATCH;
            last_traced = Some(runs);
        } else {
            walls.push(wall);
            let pass_s: f64 = grid_batches.iter().sum();
            pass_qps.push((grid_batches.len() * MAX_MICRO_BATCH) as f64 / pass_s);
            batches.extend(grid_batches);
            counters.add(delta);
            counted_cells += cells.len() as u64;
        }
        grids += 1;
    }

    let first_answers = first_answers.expect("at least one grid");
    out.set("build_s", stats::median(&walls));
    out.set("ape_m", mean_error(&first_answers));
    // Every query of a batch waited for the whole batch, so the batch walls
    // are the latency samples (each stands for `MAX_MICRO_BATCH` queries).
    let latencies_us: Vec<f64> = batches.iter().map(|wall| wall * 1e6).collect();
    out.set_percentile("query_p50_us", &latencies_us, 50.0);
    out.set("qps", stats::median(&pass_qps));
    out.info("grids", walls.len());
    out.info("build_walls_s", format!("{walls:?}"));
    out.info_distribution("query_batch_us", &latencies_us);

    if opts.trace {
        let runs = last_traced.expect("a traced grid ran");
        replay_inference(&mut out, &tracer, &cells, &runs);
        let spans = tracer.take();
        layer_metrics(&mut out, &spans, &runs, traced_walls.len(), traced_queries);
        counters.report(&mut out, counted_cells);
        let overhead = stats::median(&traced_walls) / stats::median(&walls) - 1.0;
        out.set("trace.overhead_share", overhead);
        out.info("traced_build_walls_s", format!("{traced_walls:?}"));
        finish_trace(&mut out, spans);
    }
    out
}

/// Replays every neural cell's exported weights with zero fine-tuning
/// epochs (pure inference) and checks the replay against the trained run.
fn replay_inference(out: &mut Outcome, tracer: &Tracer, cells: &[Cell], runs: &[CellRun]) {
    for (c, (cell, run)) in cells.iter().zip(runs).enumerate() {
        if !is_neural(cell.config.imputer) {
            continue;
        }
        let pipeline = ImputationPipeline::new(cell.config.clone());
        let imputer = cell
            .config
            .imputer
            .build_with(&pipeline.build_options(cell.config.seed));
        let (replayed, _) = tracer.span(infer_span(cell.config.imputer), c as u64, || {
            imputer.impute_warm(&run.working, &run.mask, &run.tensors, 0)
        });
        let same = replayed.len() == run.imputed.len()
            && replayed
                .fingerprints
                .iter()
                .zip(&run.imputed.fingerprints)
                .all(|(a, b)| {
                    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
                })
            && replayed
                .locations
                .iter()
                .zip(&run.imputed.locations)
                .all(|(a, b)| same_point(*a, *b));
        out.op(same, || {
            format!("cell {c}: inference replay differs from the trained imputation")
        });
    }
}

/// Per-grid layer times and counts from the traced grids.
fn layer_metrics(
    out: &mut Outcome,
    spans: &[Span],
    runs: &[CellRun],
    traced_grids: usize,
    traced_queries: usize,
) {
    let grids = traced_grids.max(1) as f64;
    let per_grid = |name: &str| trace::durations(spans, name).iter().sum::<f64>() / grids;
    set_per_setup(out, "venue_sim.dataset_s", "venue_sim::dataset");
    out.set(
        "differentiator.s",
        per_grid("differentiator::differentiate"),
    );
    out.set(
        "imputers.classical.impute_s",
        per_grid("imputers::classical"),
    );
    out.set("imputers.brits.impute_s", per_grid("imputers::brits"));
    out.set("imputers.ssgan.impute_s", per_grid("imputers::ssgan"));
    out.set("bisim.impute_s", per_grid("bisim::impute"));
    out.set("positioning.fit_s", per_grid("positioning::fit"));
    // The replay runs once, on the last traced grid.
    let once = |name: &str| trace::durations(spans, name).iter().sum::<f64>();
    out.set("imputers.infer_s", once("imputers::infer"));
    out.set("bisim.infer_s", once("bisim::infer"));
    let mar: Vec<f64> = runs.iter().filter_map(|r| r.mar_fraction).collect();
    out.set(
        "differentiator.mar_share",
        if mar.is_empty() {
            0.0
        } else {
            stats::mean(&mar)
        },
    );
    let estimate_s: f64 = trace::durations(spans, "positioning::estimate")
        .iter()
        .sum();
    out.set(
        "positioning.query_us",
        estimate_s / traced_queries.max(1) as f64 * 1e6,
    );
}
