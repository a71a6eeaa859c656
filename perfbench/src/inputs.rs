//! Seeded workload inputs: noisy positioning queries. Everything here is a
//! pure function of its arguments and the seed, so one seed always yields
//! byte-identical inputs.

use radiomap_core::prelude::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RSSI floor the library fills unheard access points with (dBm).
pub const FLOOR_DBM: f64 = -100.0;

/// Standard deviation of the RSSI noise added to query fingerprints (dB).
pub const QUERY_NOISE_DB: f64 = 2.0;

/// A positioning query with its ground-truth location.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub fingerprint: Vec<f64>,
    pub truth: Point,
}

/// A standard normal draw (Box–Muller).
fn gaussian(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// `width` draws of the query noise: normal, [`QUERY_NOISE_DB`] deviation.
fn noise(width: usize, rng: &mut StdRng) -> Vec<f64> {
    (0..width).map(|_| QUERY_NOISE_DB * gaussian(rng)).collect()
}

/// `rows` noise vectors of `width` entries, for [`with_noise`].
pub fn noise_table(rows: usize, width: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rows).map(|_| noise(width, &mut rng)).collect()
}

/// `fingerprint` with `noise` added on every heard access point; unheard
/// entries stay at the floor and heard ones never fall to it.
pub fn with_noise(fingerprint: &[f64], noise: &[f64]) -> Vec<f64> {
    fingerprint
        .iter()
        .zip(noise)
        .map(|(&v, &n)| {
            if v > FLOOR_DBM {
                (v + n).max(FLOOR_DBM + 0.5)
            } else {
                v
            }
        })
        .collect()
}

/// `count` queries over `sources` (fingerprint, truth) taken in turn, each
/// a seeded noisy copy of its source. Taking the sources in turn keeps every
/// source equally represented, so the seed moves only the noise.
pub fn query_log(sources: &[Query], count: usize, seed: u64) -> Vec<Query> {
    assert!(!sources.is_empty(), "no query sources");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let source = &sources[i % sources.len()];
            Query {
                fingerprint: with_noise(
                    &source.fingerprint,
                    &noise(source.fingerprint.len(), &mut rng),
                ),
                truth: source.truth,
            }
        })
        .collect()
}

/// Canonical bytes of a query log (every float as its bit pattern).
#[cfg(test)]
pub fn query_log_bytes(log: &[Query]) -> Vec<u8> {
    let mut out = Vec::new();
    for q in log {
        out.extend((q.fingerprint.len() as u64).to_le_bytes());
        for v in &q.fingerprint {
            out.extend(v.to_bits().to_le_bytes());
        }
        out.extend(q.truth.x.to_bits().to_le_bytes());
        out.extend(q.truth.y.to_bits().to_le_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources() -> Vec<Query> {
        (0..4)
            .map(|i| Query {
                fingerprint: vec![-60.0 - i as f64, FLOOR_DBM, -70.0, -82.5],
                truth: Point::new(i as f64, 2.0 * i as f64),
            })
            .collect()
    }

    #[test]
    fn query_logs_repeat_per_seed_and_differ_across_seeds() {
        let a = query_log_bytes(&query_log(&sources(), 200, 11));
        let b = query_log_bytes(&query_log(&sources(), 200, 11));
        let c = query_log_bytes(&query_log(&sources(), 200, 12));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn noise_keeps_the_floor_and_never_reaches_it() {
        let log = query_log(&sources(), 500, 3);
        for q in &log {
            assert_eq!(q.fingerprint[1], FLOOR_DBM);
            for (i, v) in q.fingerprint.iter().enumerate() {
                assert!(v.is_finite());
                if i != 1 {
                    assert!(*v > FLOOR_DBM);
                }
            }
        }
    }
}
