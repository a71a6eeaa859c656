//! Property-based tests for the int8-quantized KNN ranking path.

use proptest::prelude::*;
use proptest::test_runner::ProptestConfig;
use rm_geometry::Point;
use rm_positioning::{exact_distances, Knn, LocationEstimator, QuantizedFingerprints, Wknn};
use rm_radiomap::DenseRadioMap;

/// Every arity the parity sweeps cover: past four 16-code scan blocks and
/// every residue of the 2-element re-rank step and the 4-lane groups.
const MAX_SWEEP_APS: usize = 70;

/// SplitMix64-ish stream mapped into an RSSI-like range.
fn rssi_stream(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        -100.0 + ((state >> 11) as f64 / (1u64 << 53) as f64) * 60.0
    }
}

fn random_map(records: usize, num_aps: usize, seed: u64) -> DenseRadioMap {
    let mut next = rssi_stream(seed);
    let fingerprints: Vec<Vec<f64>> = (0..records)
        .map(|_| (0..num_aps).map(|_| next()).collect())
        .collect();
    let locations: Vec<Point> = (0..records)
        .map(|i| Point::new((i % 13) as f64, (i / 13) as f64))
        .collect();
    DenseRadioMap::new(fingerprints, locations, num_aps)
}

fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

proptest! {
    /// The quality guarantee of quantized ranking + exact re-rank: for
    /// queries within the map's value range, the i-th returned neighbour's
    /// exact distance exceeds the true i-th smallest by at most the
    /// quantization slack (each vector dequantizes within (scale/2)·√n of
    /// its source, and a selection swap pays that gap on both sides).
    #[test]
    fn quantized_ranking_is_within_the_quantization_slack_of_exact(
        records in 1usize..60,
        num_aps in 1usize..40,
        k in 1usize..6,
        seed in 0u64..500,
    ) {
        let map = random_map(records, num_aps, seed);
        let quant = QuantizedFingerprints::from_map(&map);
        let slack = quant.distance_slack() + 1e-9;

        // A query drawn from the same value range as the map.
        let mut next = rssi_stream(seed ^ 0x9e3779b97f4a7c15);
        let query: Vec<f64> = (0..num_aps).map(|_| next()).collect();

        // Exact reference: all distances, fully sorted.
        let mut exact: Vec<f64> = map
            .fingerprints()
            .iter()
            .map(|f| euclidean(&query, f))
            .collect();
        exact.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));

        // Quantized path, observed through the WKNN estimator's ranking:
        // re-derive the selected neighbours' exact distances from the
        // quantized scan + re-rank logic mirrored here.
        let window = (k + rm_positioning::RERANK_MARGIN).min(map.len());
        let encoded = quant.encode_query(&query);
        let mut scored: Vec<(i32, u32)> =
            quant.squared_distances(&encoded).into_iter().zip(0u32..).collect();
        if window < map.len() {
            scored.select_nth_unstable(window - 1);
            scored.truncate(window);
        }
        let mut selected: Vec<f64> = scored
            .into_iter()
            .map(|(_, i)| euclidean(&query, &map.fingerprints()[i as usize]))
            .collect();
        selected.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        selected.truncate(k.min(map.len()));

        for (i, d) in selected.iter().enumerate() {
            prop_assert!(
                *d <= exact[i] + slack,
                "neighbour {i}: quantized pick {d} vs exact {} (slack {slack})",
                exact[i]
            );
        }
    }

    /// End-to-end: the WKNN estimate from the quantized ranking stays close
    /// to an estimate computed from the exact top-k whenever the exact top-k
    /// is unambiguous at the quantization resolution (separation > slack) —
    /// in that regime the two rankings provably agree, so the estimates are
    /// identical.
    #[test]
    fn wknn_estimate_matches_exact_when_the_top_k_is_separated(
        records in 4usize..40,
        num_aps in 1usize..24,
        seed in 0u64..300,
    ) {
        let k = 3usize;
        let map = random_map(records, num_aps, seed);
        let quant = QuantizedFingerprints::from_map(&map);
        let mut next = rssi_stream(seed ^ 0xdeadbeef);
        let query: Vec<f64> = (0..num_aps).map(|_| next()).collect();

        let mut exact: Vec<(f64, usize)> = map
            .fingerprints()
            .iter()
            .enumerate()
            .map(|(i, f)| (euclidean(&query, f), i))
            .collect();
        exact.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        // Only check when the k-th and (k+1)-th distances are separated by
        // more than the quantization slack: there the quantized ranking
        // cannot swap a true neighbour out of the window.
        if exact.len() > k && exact[k].0 - exact[k - 1].0 <= quant.distance_slack() {
            return Ok(());
        }

        let estimate = Wknn::new(map.clone(), k)
            .estimate(&query)
            .expect("non-empty map");
        let mut weight_sum = 0.0;
        let mut acc = Point::origin();
        for &(d, i) in exact.iter().take(k) {
            let w = 1.0 / (d + 1e-6);
            weight_sum += w;
            acc = acc + map.locations()[i] * w;
        }
        let reference = acc / weight_sum;
        prop_assert!(
            estimate.distance(reference) < 1e-9,
            "WKNN estimate {estimate:?} drifted from exact reference {reference:?}"
        );
    }
}

/// `batch` query fingerprints of `num_aps` APs, drawn a little wider than
/// the map's RSSI range so some codes clamp.
fn random_queries(batch: usize, num_aps: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut next = rssi_stream(seed);
    (0..batch)
        .map(|_| (0..num_aps).map(|_| next() * 1.1 + 4.0).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The batch-major scan (AVX2 multi-query kernel on capable hosts)
    /// equals the scalar per-row reference bit for bit at every arity from
    /// 0 to 70, for batch sizes on and off the 4-query group, and the batch
    /// encode equals the single-query encode.
    #[test]
    fn batch_scan_equals_the_scalar_reference_bit_for_bit(
        records in 0usize..24,
        batch in 1usize..65,
        seed in 0u64..1000,
    ) {
        for num_aps in 0..=MAX_SWEEP_APS {
            let map = random_map(records, num_aps, seed);
            let quant = QuantizedFingerprints::from_map(&map);
            let queries = random_queries(batch, num_aps, seed ^ num_aps as u64);
            let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
            let encoded = quant.encode_queries(&refs);
            let scanned = quant.squared_distances_batch(&encoded, batch);
            prop_assert_eq!(scanned.len(), batch * records);
            for (q, query) in queries.iter().enumerate() {
                let codes = quant.encode_query(query);
                let widened: Vec<i16> = codes.iter().map(|&c| i16::from(c)).collect();
                prop_assert_eq!(&encoded[q * num_aps..(q + 1) * num_aps], &widened[..]);
                let reference = quant.squared_distances_reference(&codes);
                prop_assert!(
                    scanned[q * records..(q + 1) * records] == reference[..],
                    "query {q} of {batch} at {num_aps} APs"
                );
            }
        }
    }

    /// The exact re-rank (one candidate per AVX2 lane on capable hosts)
    /// equals the scalar Euclidean fold bit for bit, for every arity from 0
    /// to 70 and candidate counts on and off the 4-lane groups.
    #[test]
    fn exact_distances_equal_the_scalar_euclidean_bit_for_bit(
        rows in 0usize..30,
        seed in 0u64..1000,
    ) {
        for num_aps in 0..=MAX_SWEEP_APS {
            let map = random_map(rows, num_aps, seed);
            let query = &random_queries(1, num_aps, !seed)[0];
            let refs: Vec<&[f64]> = map.fingerprints().iter().map(Vec::as_slice).collect();
            let got: Vec<u64> = exact_distances(query, &refs).iter().map(|d| d.to_bits()).collect();
            let expected: Vec<u64> = refs.iter().map(|r| euclidean(query, r).to_bits()).collect();
            prop_assert!(got == expected, "{rows} rows at {num_aps} APs");
        }
    }

    /// Ranking a batch equals ranking each of its queries alone: same
    /// candidates, same distance bits, same order.
    #[test]
    fn candidates_batch_equals_per_query_candidates(
        records in 1usize..60,
        num_aps in 0usize..71,
        batch in 1usize..65,
        k in 1usize..6,
        seed in 0u64..1000,
    ) {
        let knn = Knn::new(random_map(records, num_aps, seed), k);
        let queries = random_queries(batch, num_aps, seed.wrapping_mul(31));
        let refs: Vec<&[f64]> = queries.iter().map(Vec::as_slice).collect();
        let batched = knn.candidates_batch(&refs);
        prop_assert_eq!(batched.len(), batch);
        for (query, got) in queries.iter().zip(&batched) {
            let alone = knn.candidates(query);
            prop_assert_eq!(got.len(), k.min(records));
            prop_assert_eq!(got.len(), alone.len());
            for (a, b) in got.iter().zip(&alone) {
                prop_assert_eq!(a.index, b.index);
                prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                prop_assert_eq!(a.location, b.location);
            }
        }
    }
}
