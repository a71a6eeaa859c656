//! Int8-quantized fingerprint distances for KNN candidate ranking.
//!
//! A serving-scale radio map is distance-bound: every online query scans all
//! stored fingerprints. This module shrinks that scan 8× in memory traffic
//! by quantizing the dense map once — a per-map affine int8 code
//! (`value ≈ min + (code + 128) · scale`, 255 levels over the map's RSSI
//! range) — and ranking candidates with an i32-accumulating squared-distance
//! kernel over the codes. The affine offset cancels in differences, so the
//! quantized squared distance is `(‖â − b̂‖₂ / scale)²` of the dequantized
//! vectors: a faithful, monotone-up-to-ε proxy for the f64 distance.
//!
//! Ranking is approximate, estimates are not: the estimators select a
//! slightly widened candidate window by quantized distance and then re-rank
//! those candidates with the **exact f64** Euclidean distance, so the final
//! neighbour distances (and the KNN/WKNN weights computed from them) carry
//! no quantization error. The quality guarantee is proptest-checked in
//! `tests/proptest_positioning.rs`: every returned neighbour's exact
//! distance is within [`QuantizedFingerprints::distance_slack`] of the true
//! k-th smallest.
//!
//! The scan is **batch-major**: [`QuantizedFingerprints::encode_queries`]
//! puts a whole batch of queries onto the map's grid (already widened to
//! i16), and [`QuantizedFingerprints::squared_distances_batch`] scores every
//! query against every record. The AVX2 kernel loads and widens each code
//! row once per group of 4 queries and keeps one i32 accumulator per query;
//! a single query is the batch of one. Both the scan and the encode are
//! bit-identical to their scalar references:
//!
//! * the scan is exact integer arithmetic, so every kernel variant computes
//!   the same sums by construction;
//! * the encode is the same `((v − min) / scale).round().clamp(0, 255)`
//!   expression compiled once more inside an AVX2 `#[target_feature]`
//!   context, where LLVM vectorises it (IEEE division and round-half-away
//!   are exact operations, so the lanes round exactly like the scalar
//!   code). It must stay a division: a reciprocal multiply changes codes.
//!
//! `RM_SIMD=0` (the same knob as the float kernels) forces the scalar
//! references — the per-query, per-row loop below — making the equivalence
//! checkable.

// rm-lint: hot-path

use rm_radiomap::DenseRadioMap;

/// Quantized squared distances overflow i32 only past this many APs
/// (`i32::MAX / 255² ≈ 33 025`); real venues have tens to hundreds.
const MAX_QUANTIZED_APS: usize = 32_768;

/// How many candidates beyond `k` the quantized ranking hands to the exact
/// f64 re-rank. Quantization can swap near-tied neighbours across the cut;
/// widening the window by a few slots lets the exact re-rank restore the
/// true order at the boundary for all but adversarially dense ties, at the
/// cost of a handful of extra f64 distance evaluations per query.
pub const RERANK_MARGIN: usize = 8;

/// Queries the AVX2 scan scores together against one loaded code row.
#[cfg(target_arch = "x86_64")]
const SCAN_GROUP: usize = 4;

/// A dense radio map's fingerprints in per-map affine int8 codes, plus the
/// parameters needed to quantize queries against the same grid.
#[derive(Debug, Clone)]
pub struct QuantizedFingerprints {
    /// Row-major codes, `len × num_aps`.
    codes: Vec<i8>,
    num_aps: usize,
    len: usize,
    /// Smallest RSSI in the map (code −128).
    min: f64,
    /// Dequantization step; strictly positive even for constant maps.
    scale: f64,
}

impl QuantizedFingerprints {
    /// Quantizes every fingerprint of `map` onto a 255-level affine grid
    /// spanning the map's own value range.
    ///
    /// # Panics
    /// If the map has more than 32 768 APs (the i32 accumulator bound) or a
    /// non-finite fingerprint value.
    pub fn from_map(map: &DenseRadioMap) -> Self {
        let num_aps = map.num_aps();
        assert!(
            num_aps <= MAX_QUANTIZED_APS,
            "int8 distance accumulator supports at most {MAX_QUANTIZED_APS} APs, got {num_aps}"
        );
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for row in map.fingerprints() {
            for &v in row {
                assert!(v.is_finite(), "cannot quantize non-finite RSSI {v}");
                min = min.min(v);
                max = max.max(v);
            }
        }
        if !min.is_finite() {
            // Empty map: any grid works, nothing will be scanned.
            (min, max) = (0.0, 0.0);
        }
        // 255 levels over the range; a degenerate (constant) map keeps a
        // positive scale so dequantization stays well-defined.
        let scale = if max > min { (max - min) / 255.0 } else { 1.0 };
        let mut codes = Vec::with_capacity(map.len() * num_aps);
        for row in map.fingerprints() {
            // Grid codes always fit i8 (the level is clamped to 0..=255).
            codes.extend(row.iter().map(|&v| encode(v, min, scale) as i8));
        }
        Self {
            codes,
            num_aps,
            len: map.len(),
            min,
            scale,
        }
    }

    /// Quantizes an online query fingerprint onto the map's grid.
    ///
    /// # Panics
    /// If the fingerprint's arity differs from the map's.
    pub fn encode_query(&self, fingerprint: &[f64]) -> Vec<i8> {
        // Grid codes always fit i8 (the level is clamped to 0..=255).
        self.encode_queries(&[fingerprint])
            .into_iter()
            .map(|c| c as i8)
            .collect()
    }

    /// Quantizes a batch of query fingerprints onto the map's grid, already
    /// widened to i16 for the scan: query `q`'s codes are
    /// `[q · num_aps, (q + 1) · num_aps)` of the result. Identical codes to
    /// [`encode_query`](Self::encode_query), whichever kernel runs.
    ///
    /// # Panics
    /// If a fingerprint's arity differs from the map's.
    pub fn encode_queries(&self, fingerprints: &[&[f64]]) -> Vec<i16> {
        let n = self.num_aps;
        let mut out = vec![0i16; fingerprints.len() * n];
        for (q, fingerprint) in fingerprints.iter().enumerate() {
            assert_eq!(fingerprint.len(), n, "query arity mismatch");
            encode_row_dispatch(
                fingerprint,
                self.min,
                self.scale,
                &mut out[q * n..(q + 1) * n],
            );
        }
        out
    }

    /// Resident bytes of the quantized codes (the f64 fingerprints they
    /// stand in for during ranking take 8× this).
    pub fn resident_bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<i8>()
    }

    /// Number of fingerprints.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when no fingerprints are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The quantized squared distance of one encoded query against every
    /// stored fingerprint, in record order: the batch of one of
    /// [`squared_distances_batch`](Self::squared_distances_batch).
    ///
    /// # Panics
    /// If the query's arity differs from the map's.
    pub fn squared_distances(&self, query: &[i8]) -> Vec<i32> {
        let widened: Vec<i16> = query.iter().map(|&c| i16::from(c)).collect();
        self.squared_distances_batch(&widened, 1)
    }

    /// The quantized squared distances of `batch` encoded queries (as laid
    /// out by [`encode_queries`](Self::encode_queries)) against every stored
    /// fingerprint: query `q`'s distances, in record order, are
    /// `[q · len, (q + 1) · len)` of the result. Integer arithmetic end to
    /// end, so the result is bit-identical to
    /// [`squared_distances_reference`](Self::squared_distances_reference)
    /// whichever kernel variant runs. A map without APs puts every record at
    /// distance 0 (ranking then falls back to record order).
    ///
    /// # Panics
    /// If `encoded` does not hold `batch` queries of the map's arity.
    #[allow(unsafe_code)] // dispatch into the runtime-detected AVX2 kernel
    pub fn squared_distances_batch(&self, encoded: &[i16], batch: usize) -> Vec<i32> {
        assert_eq!(encoded.len(), batch * self.num_aps, "query arity mismatch");
        let mut out = vec![0i32; batch * self.len];
        #[cfg(target_arch = "x86_64")]
        if avx2_dispatch() {
            // SAFETY: AVX2 availability was just checked at runtime, and the
            // buffers have the shapes the kernel documents.
            unsafe {
                squared_distances_avx2(&self.codes, self.len, self.num_aps, encoded, &mut out)
            };
            return out;
        }
        squared_distances_scalar(&self.codes, self.len, self.num_aps, encoded, &mut out);
        out
    }

    /// The scalar reference scan for one encoded query: the per-row
    /// i32-accumulated loop every kernel variant must reproduce bit for bit.
    ///
    /// # Panics
    /// If the query's arity differs from the map's.
    pub fn squared_distances_reference(&self, query: &[i8]) -> Vec<i32> {
        assert_eq!(query.len(), self.num_aps, "query arity mismatch");
        let widened: Vec<i16> = query.iter().map(|&c| i16::from(c)).collect();
        let mut out = vec![0i32; self.len];
        squared_distances_scalar(&self.codes, self.len, self.num_aps, &widened, &mut out);
        out
    }

    /// Exact distance of one dequantized value from its source: at most half
    /// a grid step per element (for in-range values).
    fn per_element_error(&self) -> f64 {
        self.scale / 2.0
    }

    /// Bound on how much a neighbour returned by quantized ranking + exact
    /// re-rank can exceed the true k-th smallest Euclidean distance, for
    /// queries within the map's value range: each of the two vectors
    /// dequantizes within `(scale/2)·√num_aps` of its source (ℓ₂ from the
    /// per-element ℓ∞ bound), the ranking metric is the dequantized
    /// distance, and the selection argument pays that gap twice.
    pub fn distance_slack(&self) -> f64 {
        2.0 * 2.0 * self.per_element_error() * (self.num_aps as f64).sqrt()
    }
}

/// Whether the AVX2 kernels run: the CPU has AVX2 and `RM_SIMD` does not
/// force the scalar references. Runtime AVX2 support is detected once per
/// process (same pattern as `rm_tensor::simd`).
pub(crate) fn avx2_dispatch() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::OnceLock;
        static AVX2: OnceLock<bool> = OnceLock::new();
        rm_tensor::simd_enabled() && *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// One value onto the grid, widened to i16: round to the nearest level,
/// clamp to the representable range (map values never clamp by
/// construction; query values outside the map's range do).
#[inline(always)]
fn encode(v: f64, min: f64, scale: f64) -> i16 {
    let level = ((v - min) / scale).round().clamp(0.0, 255.0);
    level as i16 - 128
}

/// Scalar reference encode of one query.
#[inline(always)]
fn encode_row(values: &[f64], min: f64, scale: f64, out: &mut [i16]) {
    for (code, &v) in out.iter_mut().zip(values) {
        *code = encode(v, min, scale);
    }
}

/// [`encode_row`] compiled for AVX2, where LLVM vectorises the division,
/// rounding and clamp — the same operations per element, so the same codes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn encode_row_avx2(values: &[f64], min: f64, scale: f64, out: &mut [i16]) {
    encode_row(values, min, scale, out);
}

/// [`encode_row`] through the AVX2 build when it may run.
#[allow(unsafe_code)] // dispatch into the runtime-detected AVX2 encode
fn encode_row_dispatch(values: &[f64], min: f64, scale: f64, out: &mut [i16]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_dispatch() {
        // SAFETY: AVX2 support was just checked at runtime, the
        // target-feature function's only contract.
        unsafe { encode_row_avx2(values, min, scale, out) };
        return;
    }
    encode_row(values, min, scale, out);
}

/// Scalar reference: i32-accumulated squared differences, one query and one
/// row at a time, query-major output (`len` distances per query). Rows are
/// indexed rather than chunked, so a map without APs still yields one (zero)
/// distance per row.
fn squared_distances_scalar(
    codes: &[i8],
    len: usize,
    num_aps: usize,
    queries: &[i16],
    out: &mut [i32],
) {
    if len == 0 {
        return;
    }
    for (q, dists) in out.chunks_exact_mut(len).enumerate() {
        let query = &queries[q * num_aps..(q + 1) * num_aps];
        for (r, dist) in dists.iter_mut().enumerate() {
            let row = &codes[r * num_aps..(r + 1) * num_aps];
            let mut acc = 0i32;
            for (&a, &b) in row.iter().zip(query) {
                let d = i32::from(a) - i32::from(b);
                acc += d * d;
            }
            *dist = acc;
        }
    }
}

/// AVX2 scan over a whole batch: groups of [`SCAN_GROUP`] queries share
/// each loaded code row, then the leftover queries run one at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: the contract is AVX2 availability (checked by the caller) plus
// `queries.len() = batch · num_aps` and `out.len() = batch · len`, which
// `squared_distances_batch` asserts.
unsafe fn squared_distances_avx2(
    codes: &[i8],
    len: usize,
    num_aps: usize,
    queries: &[i16],
    out: &mut [i32],
) {
    if num_aps == 0 || len == 0 {
        return; // every distance is the zero `out` was filled with
    }
    let batch = out.len() / len;
    let mut q = 0;
    while q < batch {
        let group = if batch - q >= SCAN_GROUP {
            SCAN_GROUP
        } else {
            1
        };
        let queries = &queries[q * num_aps..(q + group) * num_aps];
        let out = &mut out[q * len..(q + group) * len];
        // SAFETY: AVX2 is available (this function's contract), and the
        // group's slices hold exactly `group` queries and `group · len`
        // distances.
        unsafe {
            if group == SCAN_GROUP {
                scan_group::<SCAN_GROUP>(codes, num_aps, queries, out);
            } else {
                scan_group::<1>(codes, num_aps, queries, out);
            }
        }
        q += group;
    }
}

/// Scores `N` queries against every code row: 16 codes per iteration, the
/// row widened i8→i16 once and differenced against each query's
/// pre-widened codes, then pair-summed into that query's 8 i32 lanes by
/// `_mm256_madd_epi16`. Every step is exact integer arithmetic (|diff| ≤
/// 255, so diff² ≤ 65 025 and a lane holds at most `2 · 65 025` per madd;
/// the row total is bounded by i32::MAX via the AP-count bound at
/// quantization time) — bit-identical to the scalar reference by
/// construction.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: AVX2 availability (checked by the caller); `num_aps > 0`,
// `codes.len() = len · num_aps`, `queries.len() = N · num_aps` and
// `out.len() = N · len`. Every pointer below is derived from those slices
// and offset strictly within their bounds.
unsafe fn scan_group<const N: usize>(
    codes: &[i8],
    num_aps: usize,
    queries: &[i16],
    out: &mut [i32],
) {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_castsi256_si128, _mm256_cvtepi8_epi16,
        _mm256_extracti128_si256, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_setzero_si256,
        _mm256_sub_epi16, _mm_add_epi32, _mm_cvtsi128_si32, _mm_loadu_si128, _mm_shuffle_epi32,
    };
    let n = num_aps;
    let len = codes.len() / n;
    let body = n - n % 16;
    // SAFETY (whole body): every offset below is < n within a row of
    // `codes` or a query of `queries`, and < N · len within `out`;
    // unaligned loads are used throughout, so no alignment precondition.
    unsafe {
        let qp: [*const i16; N] = std::array::from_fn(|j| queries.as_ptr().add(j * n));
        let op = out.as_mut_ptr();
        for r in 0..len {
            let rp = codes.as_ptr().add(r * n);
            let mut acc: [__m256i; N] = [_mm256_setzero_si256(); N];
            let mut i = 0usize;
            while i < body {
                let a = _mm256_cvtepi8_epi16(_mm_loadu_si128(rp.add(i).cast()));
                for j in 0..N {
                    let d = _mm256_sub_epi16(a, _mm256_loadu_si256(qp[j].add(i).cast()));
                    acc[j] = _mm256_add_epi32(acc[j], _mm256_madd_epi16(d, d));
                }
                i += 16;
            }
            for j in 0..N {
                // Horizontal sum of the 8 i32 lanes, then the scalar tail.
                let lo = _mm256_castsi256_si128(acc[j]);
                let hi = _mm256_extracti128_si256(acc[j], 1);
                let s = _mm_add_epi32(lo, hi);
                let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b01_00_11_10));
                let s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0b00_00_00_01));
                let mut total = _mm_cvtsi128_si32(s);
                for t in body..n {
                    let d = i32::from(*rp.add(t)) - i32::from(*qp[j].add(t));
                    total += d * d;
                }
                *op.add(j * len + r) = total;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rm_geometry::Point;

    fn map(rows: Vec<Vec<f64>>) -> DenseRadioMap {
        let n = rows.first().map(Vec::len).unwrap_or(0);
        let locations = (0..rows.len()).map(|i| Point::new(i as f64, 0.0)).collect();
        DenseRadioMap::new(rows, locations, n)
    }

    #[test]
    fn codes_dequantize_within_half_a_step() {
        let m = map(vec![vec![-50.0, -73.5, -90.0], vec![-61.2, -88.8, -55.1]]);
        let q = QuantizedFingerprints::from_map(&m);
        for (row, codes) in m.fingerprints().iter().zip(q.codes.chunks_exact(3)) {
            for (&v, &c) in row.iter().zip(codes.iter()) {
                let dequant = q.min + (f64::from(c) + 128.0) * q.scale;
                assert!(
                    (dequant - v).abs() <= q.per_element_error() + 1e-12,
                    "{v} dequantized to {dequant}"
                );
            }
        }
        assert_eq!(q.resident_bytes(), 6);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    #[test]
    fn query_values_outside_the_map_range_clamp() {
        let m = map(vec![vec![-50.0, -90.0]]);
        let q = QuantizedFingerprints::from_map(&m);
        let codes = q.encode_query(&[-30.0, -120.0]);
        assert_eq!(codes, vec![127, -128]);
    }

    #[test]
    fn constant_map_has_positive_scale_and_zero_distances() {
        let m = map(vec![vec![-70.0, -70.0], vec![-70.0, -70.0]]);
        let q = QuantizedFingerprints::from_map(&m);
        assert!(q.scale > 0.0);
        let query = q.encode_query(&[-70.0, -70.0]);
        assert_eq!(q.squared_distances(&query), vec![0, 0]);
    }

    #[test]
    fn empty_map_scans_to_nothing() {
        let q = QuantizedFingerprints::from_map(&map(vec![]));
        assert!(q.is_empty());
        assert_eq!(q.squared_distances(&[]).len(), 0);
    }

    /// The dispatched kernel (AVX2 on capable hosts unless `RM_SIMD=0`) must
    /// agree with the scalar reference exactly — integers carry no rounding,
    /// so this is equality, not epsilon. Row lengths straddle the 16-lane
    /// vector width to cover both the vector body and the scalar tail.
    #[test]
    fn dispatched_kernel_matches_scalar_reference_exactly() {
        for num_aps in [1usize, 3, 15, 16, 17, 31, 32, 47] {
            let rows: Vec<Vec<f64>> = (0..5)
                .map(|r| {
                    (0..num_aps)
                        .map(|a| -40.0 - ((r * 31 + a * 17) % 60) as f64)
                        .collect()
                })
                .collect();
            let m = map(rows);
            let q = QuantizedFingerprints::from_map(&m);
            let query: Vec<f64> = (0..num_aps)
                .map(|a| -45.0 - ((a * 13) % 55) as f64)
                .collect();
            let encoded = q.encode_query(&query);
            let dispatched = q.squared_distances(&encoded);
            let reference = q.squared_distances_reference(&encoded);
            assert_eq!(dispatched, reference, "kernel mismatch at {num_aps} APs");
        }
    }

    /// The dispatched encode (AVX2-vectorised on capable hosts) rounds,
    /// clamps and saturates exactly like the scalar expression, including
    /// at half-level ties, out-of-range values and non-finite input.
    #[test]
    fn dispatched_encode_matches_the_scalar_expression() {
        let m = map(vec![vec![-91.3, -40.0, -77.7], vec![-100.0, -55.5, -62.25]]);
        let q = QuantizedFingerprints::from_map(&m);
        let mut values: Vec<f64> = (0..4096)
            .map(|i| -130.0 + f64::from(i) * (120.0 / 4096.0))
            .collect();
        // Exact half-level ties round away from zero.
        values.extend((0..256).map(|l| q.min + (f64::from(l) + 0.5) * q.scale));
        values.extend([
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            q.min,
            q.min + 255.0 * q.scale,
        ]);
        let mut dispatched = vec![0i16; values.len()];
        encode_row_dispatch(&values, q.min, q.scale, &mut dispatched);
        let expected: Vec<i16> = values
            .iter()
            .map(|&v| ((v - q.min) / q.scale).round().clamp(0.0, 255.0) as i16 - 128)
            .collect();
        assert_eq!(dispatched, expected);
    }
}
