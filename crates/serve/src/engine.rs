//! The request-batching query front end.

use rm_geometry::Point;

use crate::registry::ModelRegistry;

/// Upper bound on one micro-batch: requests are fanned over the worker pool
/// in groups of at most this many, so a flush's latency is bounded no matter
/// how fast requests arrive.
pub const MAX_MICRO_BATCH: usize = 64;

/// One answered query against a sharded venue.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedQueryResponse {
    /// Position of the query in this engine's submission order (0-based).
    pub index: u64,
    /// The estimated location (cross-shard re-rank; see
    /// [`ShardedVenueModel`](crate::model::ShardedVenueModel)).
    pub position: Option<Point>,
    /// The primary shard the query routed to (AP overlap, ties by nearest
    /// signal centroid).
    pub shard: usize,
    /// The generation of the primary shard's model — after an incremental
    /// republish, queries routing to clean shards keep reporting those
    /// shards' old generations.
    pub generation: u64,
}

/// A batching query engine for one venue.
///
/// Requests accumulate in submission order and are flushed in micro-batches
/// of at most [`MAX_MICRO_BATCH`]: each flush clones the venue's current
/// composed [`ShardedVenueModel`](crate::model::ShardedVenueModel) from the
/// registry **once** and answers the whole batch against that one immutable
/// model. A batch can therefore never straddle a hot swap or a per-shard
/// republish: all its answers come from one consistent set of shard models,
/// and every response carries the primary shard it routed to plus that
/// shard's generation.
///
/// The flush splits the micro-batch into one contiguous slice per pool
/// participant, and each participant ranks its slice batch-major through
/// [`ShardedVenueModel::estimate_batch`](crate::model::ShardedVenueModel::estimate_batch):
/// shard-outer and query-inner, so a shard's int8 codes are scanned once
/// per group of queries while they sit in cache.
///
/// # Determinism
///
/// Batch boundaries depend only on the submission order and the batch
/// capacity — never on the thread count — and the fan-out is
/// `rm_runtime::par_map`, which is order-preserving and bit-identical at
/// any width. Each answer is a pure function of `(model, fingerprint)`:
/// the batch kernels are bit-identical to their per-query scalar
/// references, so neither the slice a query lands in nor the queries beside
/// it can change a bit. A fixed query log against a fixed model therefore
/// yields bit-identical responses at `RM_THREADS=1`, `2` or `N` and at any
/// batch capacity, each equal to the model's own
/// [`estimate`](crate::model::ShardedVenueModel::estimate) of that query;
/// on a single-shard venue each response also equals the offline
/// `evaluate_estimator` path's per-query estimate on the same snapshot.
pub struct ShardedQueryEngine<'a> {
    registry: &'a ModelRegistry,
    venue: String,
    threads: usize,
    max_batch: usize,
    next_index: u64,
    pending: Vec<(u64, Vec<f64>)>,
    answered: Vec<ShardedQueryResponse>,
}

impl<'a> ShardedQueryEngine<'a> {
    /// An engine serving `venue` from `registry`, flushing at
    /// [`MAX_MICRO_BATCH`] pending requests. `threads` is the fan-out width
    /// per micro-batch (`0` = auto, `1` = serial; responses are
    /// bit-identical at any value).
    pub fn new(registry: &'a ModelRegistry, venue: impl Into<String>, threads: usize) -> Self {
        Self::with_max_batch(registry, venue, threads, MAX_MICRO_BATCH)
    }

    /// [`ShardedQueryEngine::new`] with an explicit micro-batch capacity,
    /// clamped to `1..=MAX_MICRO_BATCH`. The capacity changes scheduling (how
    /// many requests share one model acquisition), never results.
    pub fn with_max_batch(
        registry: &'a ModelRegistry,
        venue: impl Into<String>,
        threads: usize,
        max_batch: usize,
    ) -> Self {
        Self {
            registry,
            venue: venue.into(),
            threads,
            max_batch: max_batch.clamp(1, MAX_MICRO_BATCH),
            next_index: 0,
            pending: Vec::new(),
            answered: Vec::new(),
        }
    }

    /// The venue this engine serves.
    pub fn venue(&self) -> &str {
        &self.venue
    }

    /// Enqueues one query; flushes automatically when the micro-batch is
    /// full. Returns the query's submission index.
    pub fn submit(&mut self, fingerprint: Vec<f64>) -> u64 {
        let index = self.next_index;
        self.next_index += 1;
        self.pending.push((index, fingerprint));
        if self.pending.len() >= self.max_batch {
            self.flush();
        }
        index
    }

    /// Flushes the pending (possibly partial) micro-batch. A no-op when
    /// nothing is pending. Panics if no model was ever published for this
    /// venue — serving without a model is a deployment error, not a query
    /// error.
    pub fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let model = self
            .registry
            .sharded_model(&self.venue)
            .unwrap_or_else(|| panic!("no sharded model published for venue `{}`", self.venue));
        let batch = std::mem::take(&mut self.pending);
        // One contiguous slice per participant, ranked batch-major.
        let participants = rm_runtime::resolve_threads(self.threads).clamp(1, batch.len());
        let slices: Vec<&[(u64, Vec<f64>)]> =
            batch.chunks(batch.len().div_ceil(participants)).collect();
        let answers = rm_runtime::par_map(self.threads, &slices, |_, slice| {
            let fingerprints: Vec<&[f64]> = slice.iter().map(|(_, f)| f.as_slice()).collect();
            let positions = model.estimate_batch(&fingerprints);
            fingerprints
                .iter()
                .map(|fingerprint| model.route(fingerprint))
                .zip(positions)
                .collect::<Vec<_>>()
        });
        self.answered
            .extend(batch.iter().zip(answers.into_iter().flatten()).map(
                |(&(index, _), (shard, position))| ShardedQueryResponse {
                    index,
                    position,
                    shard,
                    generation: model.models()[shard].generation(),
                },
            ));
    }

    /// Flushes any partial batch and returns every response answered since
    /// the last drain, in submission order.
    pub fn drain(&mut self) -> Vec<ShardedQueryResponse> {
        self.flush();
        std::mem::take(&mut self.answered)
    }

    /// Convenience for replaying a fixed query log: submits every
    /// fingerprint, flushes, and returns all responses in submission order.
    pub fn run_log(&mut self, log: &[Vec<f64>]) -> Vec<ShardedQueryResponse> {
        for fingerprint in log {
            self.submit(fingerprint.clone());
        }
        self.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radiomap_core::prelude::EstimatorKind;
    use radiomap_core::VenueSnapshot;
    use rm_radiomap::{DenseRadioMap, MaskMatrix};
    use rm_tensor::Precision;

    fn registry_with_grid() -> ModelRegistry {
        // 4 reference points on a line; 1-NN is exact on its fingerprints.
        let fingerprints: Vec<Vec<f64>> = (0..4).map(|i| vec![-50.0 - 10.0 * i as f64]).collect();
        let locations = (0..4).map(|i| Point::new(i as f64, 0.0)).collect();
        let registry = ModelRegistry::new();
        registry.publish_sharded(
            crate::tests::single_shard(VenueSnapshot {
                venue: "v".into(),
                map: DenseRadioMap::new(fingerprints, locations, 1),
                records: (0..4).collect(),
                mask: MaskMatrix::all_observed(4, 1),
                estimator: EstimatorKind::Knn,
                knn_k: 1,
                seed: 0,
                precision: Precision::F64,
                tensors: Vec::new(),
            }),
            1,
        );
        registry
    }

    #[test]
    fn responses_arrive_in_submission_order_with_generations() {
        let registry = registry_with_grid();
        let mut engine = ShardedQueryEngine::with_max_batch(&registry, "v", 1, 2);
        let log: Vec<Vec<f64>> = vec![vec![-50.0], vec![-70.0], vec![-60.0]];
        let responses = engine.run_log(&log);
        assert_eq!(responses.len(), 3);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.index, i as u64);
            assert_eq!(r.shard, 0);
            assert_eq!(r.generation, 1);
        }
        assert_eq!(responses[0].position.unwrap().x, 0.0);
        assert_eq!(responses[1].position.unwrap().x, 2.0);
        assert_eq!(responses[2].position.unwrap().x, 1.0);
    }

    #[test]
    fn submit_autoflushes_at_capacity_and_drain_flushes_the_rest() {
        let registry = registry_with_grid();
        let mut engine = ShardedQueryEngine::with_max_batch(&registry, "v", 1, 2);
        engine.submit(vec![-50.0]);
        assert!(engine.answered.is_empty());
        engine.submit(vec![-60.0]); // fills the batch → autoflush
        assert_eq!(engine.answered.len(), 2);
        engine.submit(vec![-70.0]); // partial
        let responses = engine.drain();
        assert_eq!(responses.len(), 3);
        assert!(engine.drain().is_empty());
        // Indices keep counting across drains.
        assert_eq!(engine.submit(vec![-50.0]), 3);
    }

    #[test]
    fn capacity_is_clamped_to_the_micro_batch_bound() {
        let registry = registry_with_grid();
        let engine = ShardedQueryEngine::with_max_batch(&registry, "v", 1, 10_000);
        assert_eq!(engine.max_batch, MAX_MICRO_BATCH);
        let engine = ShardedQueryEngine::with_max_batch(&registry, "v", 1, 0);
        assert_eq!(engine.max_batch, 1);
    }

    #[test]
    #[should_panic(expected = "no sharded model published for venue")]
    fn flushing_against_an_unpublished_venue_panics() {
        let registry = ModelRegistry::new();
        let mut engine = ShardedQueryEngine::new(&registry, "ghost", 1);
        engine.submit(vec![-50.0]);
        engine.flush();
    }

    #[test]
    fn batch_capacity_changes_scheduling_never_results() {
        let registry = registry_with_grid();
        let log: Vec<Vec<f64>> = (0..37).map(|i| vec![-45.0 - (i as f64) * 1.3]).collect();
        let reference = ShardedQueryEngine::with_max_batch(&registry, "v", 1, 1).run_log(&log);
        for capacity in [2, 7, MAX_MICRO_BATCH] {
            let got = ShardedQueryEngine::with_max_batch(&registry, "v", 1, capacity).run_log(&log);
            assert_eq!(got, reference, "capacity {capacity} changed responses");
        }
    }
}
