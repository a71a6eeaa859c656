//! A loaded, immutable venue model: the unit the registry swaps and the
//! query engine estimates against. A venue loads one [`ShardModel`] per
//! spatial shard and composes them into a [`ShardedVenueModel`] whose
//! answers at N shards match the same venue served at 1 shard via a
//! cross-shard candidate re-rank.

use std::sync::Arc;

use radiomap_core::{ShardedVenueSnapshot, VenueSnapshot};
use rm_geometry::Point;
use rm_positioning::{
    knn_estimate, merge_candidates, wknn_estimate, EstimatorKind, Knn, KnnCandidate,
    LocationEstimator,
};
use rm_radiomap::{VenueShards, MNAR_FILL_VALUE};

/// The ranking core of one shard: KNN-family estimators keep the concrete
/// [`Knn`] so the venue model can merge their per-shard candidates exactly;
/// anything else serves through the trait object and answers shard-locally.
enum ShardEstimator {
    Knn(Knn),
    Wknn(Knn),
    Other(Box<dyn LocationEstimator>),
}

/// An immutable serving model for one spatial shard — the per-shard publish
/// unit. Loading is deterministic: the estimator is built from the shard
/// snapshot's radio map with the snapshot's configuration, the same
/// construction the offline pipeline uses. A shard model is never mutated
/// after construction; an incremental republish swaps a single shard's `Arc`
/// and leaves the clean shards' models (and generations) untouched.
pub struct ShardModel {
    snapshot: VenueSnapshot,
    estimator: ShardEstimator,
    /// Global record index per row of the shard's map (the shard's sorted
    /// member list, restricted to the records that have a location) —
    /// rewrites local candidate indices into the venue-wide space.
    global_indices: Vec<usize>,
    /// Per-AP coverage: `true` when any record in this shard hears the AP
    /// above the −100 dBm floor. Drives AP-overlap routing (through the
    /// venue model's AP-major [`RoutingTable`]).
    ap_coverage: Vec<bool>,
    /// Mean fingerprint of the shard's records (the shard's signal
    /// centroid); routing tie-break for queries overlapping several shards
    /// equally.
    signal_centroid: Vec<f64>,
    generation: u64,
}

impl ShardModel {
    /// Builds the serving model for one shard under registry `generation`.
    /// `members` is the shard's member list (shard-local record → global
    /// record index); `threads` bounds the estimator's training-time
    /// fan-out (`0` = auto; only the random forest trains) — the built model
    /// is bit-identical at any value.
    ///
    /// # Panics
    /// Panics when the snapshot's row records do not fit `members`.
    pub fn load(
        snapshot: VenueSnapshot,
        members: &[usize],
        generation: u64,
        threads: usize,
    ) -> Self {
        assert!(
            snapshot.records.len() == snapshot.map.len()
                && snapshot.records.iter().all(|&r| r < members.len()),
            "shard member list does not match its snapshot"
        );
        let global_indices = snapshot.records.iter().map(|&r| members[r]).collect();
        let estimator = match snapshot.estimator {
            EstimatorKind::Knn => {
                ShardEstimator::Knn(Knn::new(snapshot.map.clone(), snapshot.knn_k))
            }
            EstimatorKind::Wknn => {
                ShardEstimator::Wknn(Knn::new(snapshot.map.clone(), snapshot.knn_k))
            }
            other => ShardEstimator::Other(other.build_threads(
                snapshot.map.clone(),
                snapshot.knn_k,
                threads,
            )),
        };
        let num_aps = snapshot.map.num_aps();
        let mut ap_coverage = vec![false; num_aps];
        let mut signal_centroid = vec![0.0; num_aps];
        for fingerprint in snapshot.map.fingerprints() {
            for (ap, &v) in fingerprint.iter().enumerate() {
                if v > MNAR_FILL_VALUE {
                    ap_coverage[ap] = true;
                }
                signal_centroid[ap] += v;
            }
        }
        if !snapshot.map.is_empty() {
            let n = snapshot.map.len() as f64;
            for v in &mut signal_centroid {
                *v /= n;
            }
        }
        Self {
            snapshot,
            estimator,
            global_indices,
            ap_coverage,
            signal_centroid,
            generation,
        }
    }

    /// The registry generation that published this shard.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The shard's snapshot.
    pub fn snapshot(&self) -> &VenueSnapshot {
        &self.snapshot
    }

    /// Shard-local estimate (exactly the configured estimator over this
    /// shard's sub-map).
    pub fn estimate(&self, fingerprint: &[f64]) -> Option<Point> {
        match &self.estimator {
            ShardEstimator::Knn(knn) => knn_estimate(&knn.candidates(fingerprint)),
            ShardEstimator::Wknn(knn) => wknn_estimate(&knn.candidates(fingerprint)),
            ShardEstimator::Other(e) => e.estimate(fingerprint),
        }
    }

    /// The KNN ranking core, or `None` when the estimator has no candidates
    /// to merge.
    fn ranker(&self) -> Option<&Knn> {
        match &self.estimator {
            ShardEstimator::Knn(knn) | ShardEstimator::Wknn(knn) => Some(knn),
            ShardEstimator::Other(_) => None,
        }
    }
}

/// Every shard's routing statistics, AP-major: entry `ap · shards + s`
/// holds shard `s`'s coverage of / centroid at AP `ap`, so routing walks
/// the query once and scores all shards side by side. Each shard's
/// centroid distance still sums its own terms left to right from `-0.0`,
/// exactly like a per-shard `sum`, so routes are bit-identical to scoring
/// one shard at a time.
struct RoutingTable {
    shards: usize,
    coverage: Vec<bool>,
    centroid: Vec<f64>,
}

impl RoutingTable {
    /// Interleaves the shards' per-AP coverage and centroids. Every shard
    /// of a venue has the venue's APs; a narrower shard map (which the
    /// pipeline never publishes) reads as hearing none of the APs it lacks.
    /// Never panics: `with_shard` runs under the registry's write lock.
    fn new(models: &[Arc<ShardModel>]) -> Self {
        let shards = models.len();
        let num_aps = models
            .iter()
            .map(|m| m.signal_centroid.len())
            .max()
            .unwrap_or(0);
        let mut coverage = vec![false; num_aps * shards];
        let mut centroid = vec![0.0; num_aps * shards];
        for (s, model) in models.iter().enumerate() {
            for (ap, (&covered, &c)) in model
                .ap_coverage
                .iter()
                .zip(&model.signal_centroid)
                .enumerate()
            {
                coverage[ap * shards + s] = covered;
                centroid[ap * shards + s] = c;
            }
        }
        Self {
            shards,
            coverage,
            centroid,
        }
    }

    /// The primary shard for `fingerprint`: most APs in common (query above
    /// the −100 floor on an AP some shard record hears), ties broken by
    /// nearest signal centroid, then lowest shard id.
    fn route(&self, fingerprint: &[f64]) -> usize {
        let lanes = self.shards.max(1);
        let mut overlap = vec![0usize; self.shards];
        let mut dist = vec![-0.0f64; self.shards];
        for ((&v, coverage), centroid) in fingerprint
            .iter()
            .zip(self.coverage.chunks_exact(lanes))
            .zip(self.centroid.chunks_exact(lanes))
        {
            let heard = v > MNAR_FILL_VALUE;
            for (((overlap, dist), &covered), &c) in overlap
                .iter_mut()
                .zip(&mut dist)
                .zip(coverage)
                .zip(centroid)
            {
                *overlap += usize::from(covered && heard);
                *dist += (v - c) * (v - c);
            }
        }
        let mut best = 0usize;
        let mut best_overlap = 0usize;
        let mut best_dist = f64::INFINITY;
        for (shard, (&overlap, &dist)) in overlap.iter().zip(&dist).enumerate() {
            if overlap > best_overlap || (overlap == best_overlap && dist < best_dist) {
                best = shard;
                best_overlap = overlap;
                best_dist = dist;
            }
        }
        best
    }
}

/// A composed serving model for a sharded venue: one immutable
/// [`ShardModel`] per spatial shard plus the partition that produced them.
///
/// Queries are **routed** to a primary shard by AP overlap (the shard
/// hearing the most of the query's APs, ties broken by nearest signal
/// centroid, then lowest shard id) — that shard's generation stamps the
/// response. For the KNN-family estimators the **answer** is computed by
/// cross-shard re-rank: every shard contributes its top-`k` candidates with
/// global record indices, the union is merged exactly like the whole-map
/// scan (ascending exact distance, ties by global index) and folded with the
/// same arithmetic — so a model at N shards answers bit-identically to the
/// 1-shard model over the merged map whenever the per-shard quantized
/// windows capture their true top-`k` (the same standing assumption the
/// whole-map scan makes). Non-ranking estimators (the forest) answer from
/// the primary shard alone.
///
/// A venue served whole is the 1-shard case: its one shard holds every
/// record (those the imputer left without a location have no map row), and
/// each answer equals the offline `evaluate_estimator` path's estimate over
/// that shard's snapshot bit for bit.
pub struct ShardedVenueModel {
    venue: String,
    shards: VenueShards,
    models: Vec<Arc<ShardModel>>,
    routing: RoutingTable,
}

impl ShardedVenueModel {
    /// Loads every shard of `snapshot`, stamping shard `i` with
    /// `generations[i]`.
    pub(crate) fn load(
        snapshot: ShardedVenueSnapshot,
        generations: &[u64],
        threads: usize,
    ) -> Self {
        let ShardedVenueSnapshot {
            venue,
            snapshots,
            shards,
        } = snapshot;
        assert_eq!(
            snapshots.len(),
            shards.num_shards(),
            "sharded snapshot is missing shards"
        );
        assert_eq!(snapshots.len(), generations.len());
        let models = snapshots
            .into_iter()
            .zip(generations)
            .enumerate()
            .map(|(shard, (snap, &generation))| {
                Arc::new(ShardModel::load(
                    snap,
                    shards.members_of(shard),
                    generation,
                    threads,
                ))
            })
            .collect::<Vec<_>>();
        Self {
            venue,
            shards,
            routing: RoutingTable::new(&models),
            models,
        }
    }

    /// Replaces one shard's model, leaving every other shard's `Arc` (and
    /// generation) untouched. The partition is replaced too — an incremental
    /// ingest may have appended records to the dirty shard's member list.
    pub(crate) fn with_shard(
        &self,
        shard: usize,
        model: Arc<ShardModel>,
        shards: VenueShards,
    ) -> Self {
        let mut models = self.models.clone();
        models[shard] = model;
        Self {
            venue: self.venue.clone(),
            shards,
            routing: RoutingTable::new(&models),
            models,
        }
    }

    /// The venue this model serves.
    pub fn venue(&self) -> &str {
        &self.venue
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.models.len()
    }

    /// The partition this model serves under.
    pub fn shards(&self) -> &VenueShards {
        &self.shards
    }

    /// The shard models, in shard-id order.
    pub fn models(&self) -> &[Arc<ShardModel>] {
        &self.models
    }

    /// Per-shard generations, in shard-id order. After an incremental
    /// republish only the dirty shards' entries change.
    pub fn shard_generations(&self) -> Vec<u64> {
        self.models.iter().map(|m| m.generation()).collect()
    }

    /// The newest generation across shards — the venue's publish version.
    pub fn generation(&self) -> u64 {
        self.models
            .iter()
            .map(|m| m.generation())
            .max()
            .unwrap_or(0)
    }

    /// The primary shard for `fingerprint`: most APs in common, ties broken
    /// by nearest signal centroid, then lowest shard id.
    pub fn route(&self, fingerprint: &[f64]) -> usize {
        self.routing.route(fingerprint)
    }

    /// Estimates the query's location (see the type docs for the cross-shard
    /// re-rank contract): the batch of one of
    /// [`estimate_batch`](Self::estimate_batch).
    pub fn estimate(&self, fingerprint: &[f64]) -> Option<Point> {
        self.estimate_batch(&[fingerprint])
            .pop()
            .expect("one answer per query")
    }

    /// [`estimate`](Self::estimate) for every query of a batch, in order.
    /// Ranking runs shard-outer and query-inner ([`Knn::candidates_batch`]),
    /// so each shard's codes stay in cache for the whole batch; every answer
    /// is still a pure function of `(model, fingerprint)`, independent of
    /// the batch around it.
    pub fn estimate_batch(&self, fingerprints: &[&[f64]]) -> Vec<Option<Point>> {
        let Some(rankers) = self
            .models
            .iter()
            .map(|m| m.ranker())
            .collect::<Option<Vec<&Knn>>>()
        else {
            // A non-ranking estimator: answer from the primary shard.
            return fingerprints
                .iter()
                .map(|fingerprint| self.models[self.route(fingerprint)].estimate(fingerprint))
                .collect();
        };
        let k = self
            .models
            .iter()
            .map(|m| m.snapshot().knn_k.max(1))
            .max()
            .unwrap_or(0);
        let mut pooled: Vec<Vec<KnnCandidate>> = fingerprints
            .iter()
            .map(|_| Vec::with_capacity(k * self.models.len()))
            .collect();
        for (model, ranker) in self.models.iter().zip(rankers) {
            for (pool, candidates) in pooled.iter_mut().zip(ranker.candidates_batch(fingerprints)) {
                pool.extend(candidates.into_iter().map(|c| KnnCandidate {
                    index: model.global_indices[c.index as usize] as u32,
                    ..c
                }));
            }
        }
        let fold = match self.models.first().map(|m| m.snapshot().estimator) {
            Some(EstimatorKind::Wknn) => wknn_estimate,
            _ => knn_estimate,
        };
        pooled
            .into_iter()
            .map(|candidates| fold(&merge_candidates(k, candidates)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use radiomap_core::prelude::EstimatorKind;
    use rm_radiomap::{DenseRadioMap, MaskMatrix};
    use rm_tensor::Precision;

    fn snapshot() -> VenueSnapshot {
        VenueSnapshot {
            venue: "t".into(),
            map: DenseRadioMap::new(
                vec![vec![-50.0, -90.0], vec![-90.0, -50.0]],
                vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)],
                2,
            ),
            records: vec![0, 1],
            mask: MaskMatrix::all_observed(2, 2),
            estimator: EstimatorKind::Knn,
            knn_k: 1,
            seed: 7,
            precision: Precision::F64,
            tensors: Vec::new(),
        }
    }

    #[test]
    fn load_builds_the_configured_estimator() {
        let model = ShardedVenueModel::load(crate::tests::single_shard(snapshot()), &[3], 1);
        assert_eq!(model.venue(), "t");
        assert_eq!(model.num_shards(), 1);
        assert_eq!(model.generation(), 3);
        assert_eq!(model.models()[0].snapshot().estimator, EstimatorKind::Knn);
        assert_eq!(model.models()[0].snapshot().knn_k, 1);
        // 1-NN on an exact fingerprint returns its reference point.
        let p = model.estimate(&[-50.0, -90.0]).unwrap();
        assert_eq!((p.x, p.y), (0.0, 0.0));
    }

    /// The registry shares models across threads; the compiler must agree.
    #[test]
    fn venue_model_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ShardedVenueModel>();
        assert_send_sync::<ShardModel>();
    }
}
