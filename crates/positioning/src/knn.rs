//! KNN and weighted-KNN location estimation.
//!
//! Candidate ranking runs on the int8-quantized fingerprints
//! ([`QuantizedFingerprints`]) — an 8×-smaller scan with exact integer
//! arithmetic — and the top `k + RERANK_MARGIN` candidates are re-ranked
//! with the exact f64 Euclidean distance, so the neighbour distances the
//! estimators consume carry no quantization error.
//!
//! Ranking is batch-major: [`Knn::candidates_batch`] is the one ranking
//! core (encode and scan the whole batch, then select and re-rank each
//! query's window), and [`Knn::candidates`] is its batch of one. The exact
//! re-rank ([`exact_distances`]) runs one candidate per AVX2 f64 lane: each
//! lane accumulates its own candidate's `(x − y) · (x − y)` in index order,
//! with a separate multiply and add, from the same `-0.0` start as the
//! scalar `sum` — the same operations in the same order as the scalar
//! Euclidean distance, so the lanes are bit-identical to it. Every query's
//! candidates are therefore a pure function of `(map, fingerprint, k)`,
//! whatever batch it arrives in and whichever kernels run.

// rm-lint: hot-path

use std::cmp::Ordering;

use rm_geometry::Point;
use rm_radiomap::DenseRadioMap;

use crate::quant::{QuantizedFingerprints, RERANK_MARGIN};
use crate::LocationEstimator;

/// One ranked KNN candidate: the exact f64 fingerprint distance, the record's
/// index within the ranking map, and its reference point. The index space is
/// the caller's map — shard-local for a per-shard scan; the sharded serving
/// layer rewrites it to the global record index before merging shards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KnnCandidate {
    /// Exact f64 Euclidean distance between query and record fingerprint.
    pub distance: f64,
    /// Record index within the map the candidate was ranked against.
    pub index: u32,
    /// The record's reference point.
    pub location: Point,
}

/// Merges candidate lists from independent scans (e.g. one per spatial shard,
/// with indices rewritten to the global record space) into the overall top-`k`,
/// replicating the whole-map scan's order exactly: ascending exact distance,
/// ties broken by ascending index. Because each per-shard list holds that
/// shard's true top-`k`, the merged list equals the whole-map top-`k` — the
/// cross-shard re-rank that makes a venue served at N shards answer like the
/// same venue served at 1 shard.
pub fn merge_candidates(k: usize, mut candidates: Vec<KnnCandidate>) -> Vec<KnnCandidate> {
    candidates.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .unwrap_or(Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
    candidates.truncate(k.max(1));
    candidates
}

/// Folds ranked neighbours into the unweighted KNN estimate (mean of the
/// reference points, in rank order). Extracted so the sharded serving path
/// applies bit-identical arithmetic to merged cross-shard candidates.
pub fn knn_estimate(neighbours: &[KnnCandidate]) -> Option<Point> {
    if neighbours.is_empty() {
        return None;
    }
    let sum = neighbours
        .iter()
        .fold(Point::origin(), |acc, c| acc + c.location);
    Some(sum / neighbours.len() as f64)
}

/// Folds ranked neighbours into the inverse-distance-weighted WKNN estimate,
/// in rank order (see [`knn_estimate`] for why this is a free function).
pub fn wknn_estimate(neighbours: &[KnnCandidate]) -> Option<Point> {
    if neighbours.is_empty() {
        return None;
    }
    let mut weight_sum = 0.0;
    let mut acc = Point::origin();
    for c in neighbours {
        let w = 1.0 / (c.distance + 1e-6);
        weight_sum += w;
        acc = acc + c.location * w;
    }
    Some(acc / weight_sum)
}

/// K-nearest-neighbour location estimation: the estimated location is the mean
/// of the reference points of the `k` radio-map fingerprints closest (in
/// Euclidean RSSI space) to the online fingerprint.
#[derive(Debug, Clone)]
pub struct Knn {
    map: DenseRadioMap,
    quantized: QuantizedFingerprints,
    k: usize,
}

impl Knn {
    /// Builds a KNN estimator over an imputed radio map, quantizing its
    /// fingerprints once for the int8 ranking scan. The paper uses `k = 3`
    /// for both KNN and WKNN-style estimators.
    pub fn new(map: DenseRadioMap, k: usize) -> Self {
        let quantized = QuantizedFingerprints::from_map(&map);
        Self {
            map,
            quantized,
            k: k.max(1),
        }
    }

    /// The neighbour count `k` this estimator ranks with.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The `k` nearest entries as ranked [`KnnCandidate`]s, sorted by
    /// increasing exact f64 distance (ties broken by record index, like the
    /// full scan's stable sort): the batch of one of
    /// [`candidates_batch`](Self::candidates_batch). Public so the sharded
    /// serving layer can merge per-shard candidates into a venue-wide
    /// top-`k` ([`merge_candidates`]).
    pub fn candidates(&self, fingerprint: &[f64]) -> Vec<KnnCandidate> {
        self.candidates_batch(&[fingerprint])
            .pop()
            .expect("one result per query")
    }

    /// [`candidates`](Self::candidates) for every query of a batch, in
    /// order.
    ///
    /// Ranking is two-phase: the int8 kernel scores every record for the
    /// whole batch, each query's `k + RERANK_MARGIN` best quantized
    /// candidates are selected, and those are re-ranked exactly. Both phases
    /// break ties by record index and every kernel is bit-identical to its
    /// scalar reference, so each query's result is a pure function of
    /// `(map, fingerprint, k)` — independent of the batch around it.
    ///
    /// # Panics
    /// If the map is not empty and a fingerprint's arity differs from it.
    pub fn candidates_batch(&self, fingerprints: &[&[f64]]) -> Vec<Vec<KnnCandidate>> {
        let n = self.map.len();
        if n == 0 {
            return vec![Vec::new(); fingerprints.len()];
        }
        let window = (self.k + RERANK_MARGIN).min(n);
        let encoded = self.quantized.encode_queries(fingerprints);
        let distances = self
            .quantized
            .squared_distances_batch(&encoded, fingerprints.len());
        let rows = self.map.fingerprints();
        let mut scored: Vec<(i32, u32)> = Vec::with_capacity(n);
        let mut selected: Vec<&[f64]> = Vec::with_capacity(window);
        fingerprints
            .iter()
            .zip(distances.chunks_exact(n))
            .map(|(&fingerprint, distances)| {
                scored.clear();
                scored.extend(distances.iter().copied().zip(0u32..));
                if window < n {
                    scored.select_nth_unstable(window - 1);
                    scored.truncate(window);
                }
                selected.clear();
                selected.extend(scored.iter().map(|&(_, i)| rows[i as usize].as_slice()));
                let mut exact: Vec<(f64, u32)> = exact_distances(fingerprint, &selected)
                    .into_iter()
                    .zip(scored.iter().map(|&(_, i)| i))
                    .collect();
                exact.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0)
                        .unwrap_or(Ordering::Equal)
                        .then(a.1.cmp(&b.1))
                });
                exact.truncate(self.k);
                exact
                    .into_iter()
                    .map(|(distance, i)| KnnCandidate {
                        distance,
                        index: i,
                        location: self.map.locations()[i as usize],
                    })
                    .collect()
            })
            .collect()
    }
}

impl LocationEstimator for Knn {
    fn estimate(&self, fingerprint: &[f64]) -> Option<Point> {
        knn_estimate(&self.candidates(fingerprint))
    }

    fn name(&self) -> &'static str {
        "KNN"
    }
}

/// Weighted KNN: like [`Knn`] but the neighbours' reference points are averaged
/// with weights inversely proportional to their fingerprint distance.
#[derive(Debug, Clone)]
pub struct Wknn {
    knn: Knn,
}

impl Wknn {
    /// Builds a WKNN estimator over an imputed radio map.
    pub fn new(map: DenseRadioMap, k: usize) -> Self {
        Self {
            knn: Knn::new(map, k),
        }
    }

    /// The underlying ranking core (candidate generation is identical to
    /// [`Knn`]; only the fold differs).
    pub fn inner(&self) -> &Knn {
        &self.knn
    }
}

impl LocationEstimator for Wknn {
    fn estimate(&self, fingerprint: &[f64]) -> Option<Point> {
        wknn_estimate(&self.knn.candidates(fingerprint))
    }

    fn name(&self) -> &'static str {
        "WKNN"
    }
}

/// The exact Euclidean distance between `query` and each of `rows`, in
/// order — bit-identical to `(Σᵢ (qᵢ − rᵢ)²).sqrt()` summed left to right
/// by `Iterator::sum`, whichever kernel runs (see the module docs).
///
/// # Panics
/// If a row's arity differs from the query's.
#[allow(unsafe_code)] // dispatch into the runtime-detected AVX2 kernel
pub fn exact_distances(query: &[f64], rows: &[&[f64]]) -> Vec<f64> {
    for row in rows {
        assert_eq!(row.len(), query.len(), "row arity mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    if crate::quant::avx2_dispatch() {
        let mut out = vec![0.0; rows.len()];
        for (rows, out) in rows.chunks(RERANK_LANES).zip(out.chunks_mut(RERANK_LANES)) {
            // SAFETY: AVX2 support was just checked at runtime, and every
            // row has the query's length (asserted above).
            unsafe { squared_sums_avx2(query, rows, out) };
        }
        for d in &mut out {
            *d = d.sqrt();
        }
        return out;
    }
    rows.iter().map(|row| euclidean(query, row)).collect()
}

/// Candidates one pass of the AVX2 re-rank carries: three independent
/// 4-lane accumulators, enough for a `k = 3` window of `3 + RERANK_MARGIN`.
#[cfg(target_arch = "x86_64")]
const RERANK_LANES: usize = 12;

/// Squared distances of up to [`RERANK_LANES`] rows to `query`, one row
/// per f64 lane. Rows are taken four at a time; two 128-bit half-row loads
/// per row pair and one unpack per element put element `i` of the four
/// rows into one vector, lanes ordered (r0, r2, r1, r3). Each lane then
/// accumulates `(q − r)·(q − r)` in index order from `-0.0`, one `mul` and
/// one `add` (never fused), exactly like the scalar fold; an odd last
/// element finishes per lane in scalar code. A short last group repeats its
/// last row in the spare lanes, whose sums are dropped.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: AVX2 availability (checked by the caller); `1 ≤ rows.len() ≤
// RERANK_LANES = out.len()` rows of exactly `query.len()` elements. Every
// pointer below is derived from those slices and offset within bounds.
unsafe fn squared_sums_avx2(query: &[f64], rows: &[&[f64]], out: &mut [f64]) {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_broadcast_sd, _mm256_loadu2_m128d, _mm256_mul_pd,
        _mm256_set1_pd, _mm256_storeu_pd, _mm256_sub_pd, _mm256_unpackhi_pd, _mm256_unpacklo_pd,
    };
    const GROUPS: usize = RERANK_LANES / 4;
    /// Source row of each vector lane (see the unpack order above).
    const LANE_ROW: [usize; 4] = [0, 2, 1, 3];
    let n = query.len();
    let groups = rows.len().div_ceil(4);
    let row = |r: usize| rows[r.min(rows.len() - 1)].as_ptr();
    let rp: [[*const f64; 4]; GROUPS] =
        std::array::from_fn(|g| std::array::from_fn(|l| row(4 * g + l)));
    let qp = query.as_ptr();
    let mut acc: [__m256d; GROUPS] = [_mm256_set1_pd(-0.0); GROUPS];
    let mut i = 0usize;
    // SAFETY: i + 1 < n for every load, and every row holds n elements.
    unsafe {
        while i + 2 <= n {
            let q0 = _mm256_broadcast_sd(&*qp.add(i));
            let q1 = _mm256_broadcast_sd(&*qp.add(i + 1));
            for (acc, rp) in acc.iter_mut().zip(&rp).take(groups) {
                let v01 = _mm256_loadu2_m128d(rp[1].add(i), rp[0].add(i));
                let v23 = _mm256_loadu2_m128d(rp[3].add(i), rp[2].add(i));
                let d0 = _mm256_sub_pd(q0, _mm256_unpacklo_pd(v01, v23));
                let d1 = _mm256_sub_pd(q1, _mm256_unpackhi_pd(v01, v23));
                *acc = _mm256_add_pd(*acc, _mm256_mul_pd(d0, d0));
                *acc = _mm256_add_pd(*acc, _mm256_mul_pd(d1, d1));
            }
            i += 2;
        }
    }
    for (g, acc) in acc.iter().enumerate().take(groups) {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` holds exactly one vector.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), *acc) };
        for (lane, &sum) in lanes.iter().enumerate() {
            let r = 4 * g + LANE_ROW[lane];
            if r < rows.len() {
                let mut sum = sum;
                for (x, y) in query[i..].iter().zip(&rows[r][i..]) {
                    sum += (x - y) * (x - y);
                }
                out[r] = sum;
            }
        }
    }
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three fingerprints at distinct locations; fingerprints are orthogonal so
    /// the nearest neighbour is unambiguous.
    fn map() -> DenseRadioMap {
        DenseRadioMap::new(
            vec![
                vec![-50.0, -90.0, -90.0],
                vec![-90.0, -50.0, -90.0],
                vec![-90.0, -90.0, -50.0],
            ],
            vec![
                Point::new(0.0, 0.0),
                Point::new(10.0, 0.0),
                Point::new(0.0, 10.0),
            ],
            3,
        )
    }

    #[test]
    fn knn_with_k1_returns_exact_match_location() {
        let knn = Knn::new(map(), 1);
        let est = knn.estimate(&[-50.0, -90.0, -90.0]).unwrap();
        assert_eq!(est, Point::new(0.0, 0.0));
        assert_eq!(knn.name(), "KNN");
    }

    #[test]
    fn knn_with_k3_returns_mean_of_all() {
        let knn = Knn::new(map(), 3);
        let est = knn.estimate(&[-70.0, -70.0, -70.0]).unwrap();
        assert!((est.x - 10.0 / 3.0).abs() < 1e-9);
        assert!((est.y - 10.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn wknn_weights_towards_the_closest_fingerprint() {
        let wknn = Wknn::new(map(), 3);
        // A query close to fingerprint 0 but not identical.
        let est = wknn.estimate(&[-52.0, -88.0, -90.0]).unwrap();
        // The estimate must be pulled towards (0,0) compared to the unweighted mean.
        assert!(est.x < 10.0 / 3.0);
        assert!(est.y < 10.0 / 3.0);
        assert_eq!(wknn.name(), "WKNN");
    }

    #[test]
    fn wknn_exact_match_dominates() {
        let wknn = Wknn::new(map(), 3);
        let est = wknn.estimate(&[-90.0, -50.0, -90.0]).unwrap();
        assert!(est.distance(Point::new(10.0, 0.0)) < 0.1);
    }

    #[test]
    fn k_larger_than_map_uses_all_entries() {
        let knn = Knn::new(map(), 100);
        assert!(knn.estimate(&[-60.0, -60.0, -60.0]).is_some());
    }

    /// Splitting a map into two halves, taking per-half candidates with
    /// rewritten indices, and merging reproduces the whole-map ranking and
    /// both folds bitwise — the contract sharded serving relies on.
    #[test]
    fn merged_per_shard_candidates_equal_the_whole_map_scan() {
        let fingerprints: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![-50.0 - 3.0 * i as f64, -90.0 + 2.0 * i as f64, -70.0])
            .collect();
        let locations: Vec<Point> = (0..10).map(|i| Point::new(i as f64, 2.0)).collect();
        let whole = Knn::new(
            DenseRadioMap::new(fingerprints.clone(), locations.clone(), 3),
            3,
        );
        // Interleaved "shards": evens and odds.
        let part = |parity: usize| -> (Knn, Vec<u32>) {
            let idx: Vec<usize> = (0..10).filter(|i| i % 2 == parity).collect();
            let knn = Knn::new(
                DenseRadioMap::new(
                    idx.iter().map(|&i| fingerprints[i].clone()).collect(),
                    idx.iter().map(|&i| locations[i]).collect(),
                    3,
                ),
                3,
            );
            (knn, idx.into_iter().map(|i| i as u32).collect())
        };
        let query = [-58.0, -85.0, -70.0];
        let mut pooled = Vec::new();
        for parity in 0..2 {
            let (knn, globals) = part(parity);
            pooled.extend(knn.candidates(&query).into_iter().map(|c| KnnCandidate {
                index: globals[c.index as usize],
                ..c
            }));
        }
        let merged = merge_candidates(3, pooled);
        let reference = whole.candidates(&query);
        assert_eq!(merged, reference);
        let ke = knn_estimate(&merged).unwrap();
        let we = wknn_estimate(&merged).unwrap();
        let kr = whole.estimate(&query).unwrap();
        assert_eq!(
            (ke.x.to_bits(), ke.y.to_bits()),
            (kr.x.to_bits(), kr.y.to_bits())
        );
        let wknn = Wknn::new(
            DenseRadioMap::new(fingerprints.clone(), locations.clone(), 3),
            3,
        );
        let wr = wknn.estimate(&query).unwrap();
        assert_eq!(
            (we.x.to_bits(), we.y.to_bits()),
            (wr.x.to_bits(), wr.y.to_bits())
        );
        assert_eq!(wknn.inner().k(), 3);
    }

    #[test]
    fn empty_map_returns_none() {
        let empty = DenseRadioMap::new(vec![], vec![], 3);
        assert!(Knn::new(empty.clone(), 3)
            .estimate(&[-50.0, -50.0, -50.0])
            .is_none());
        assert!(Wknn::new(empty, 3)
            .estimate(&[-50.0, -50.0, -50.0])
            .is_none());
    }

    /// A map without APs puts every record at distance 0: ranking must not
    /// panic and falls back to record order.
    #[test]
    fn zero_ap_map_ranks_by_record_index() {
        let locations: Vec<Point> = (0..20).map(|i| Point::new(i as f64, 1.0)).collect();
        let knn = Knn::new(DenseRadioMap::new(vec![vec![]; 20], locations, 0), 3);
        let ranked = knn.candidates(&[]);
        assert_eq!(
            ranked.iter().map(|c| c.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert!(ranked.iter().all(|c| c.distance == 0.0));
        assert_eq!(knn.estimate(&[]), Some(Point::new(1.0, 1.0)));
    }
}
