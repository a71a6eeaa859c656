//! bf16: the 2-byte tensor format of [`Precision::Bf16`](crate::Precision)
//! exports.
//!
//! `bf16` (bfloat16) is the upper half of an IEEE-754 binary32: 1 sign bit,
//! the same 8 exponent bits as `f32`, and 7 mantissa bits. Encoding is pure
//! bit truncation of the `f32` representation — deterministic, branch-free
//! and exactly invertible on the decode side (`bits << 16`), so a
//! round-tripped value is always the input with its low 16 mantissa bits
//! zeroed. The relative error of one encode is bounded by `2^-7` (one ulp of
//! the 7-bit mantissa).
//!
//! This is a **storage** format, not a compute type: [`Scalar`](crate::Scalar)
//! stays sealed to `f64`/`f32`. Every bf16 value is exactly representable in
//! `f32`, so bf16 inference is the ordinary f32 inference run on weights
//! rounded once to bf16 — the weights a [`Bf16Matrix`] export stores, read
//! back. Accuracy is therefore epsilon-checked against f32, not
//! bit-compatible with it.

use crate::matrix::Matrix;

/// Encodes an `f32` as bfloat16 bits by truncating the low 16 mantissa bits.
#[inline]
pub fn f32_to_bf16(v: f32) -> u16 {
    (v.to_bits() >> 16) as u16
}

/// Decodes bfloat16 bits back into the exactly-representable `f32`.
#[inline]
pub fn bf16_to_f32(bits: u16) -> f32 {
    f32::from_bits(u32::from(bits) << 16)
}

/// A dense row-major matrix stored as truncated bfloat16 bits — the
/// 2-bytes-per-element form of an `f32` weight matrix in a bf16 export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bf16Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u16>,
}

impl Bf16Matrix {
    /// Encodes an `f32` matrix by truncating every entry to bfloat16.
    pub fn from_matrix(m: &Matrix<f32>) -> Self {
        Self {
            rows: m.rows(),
            cols: m.cols(),
            data: m.data().iter().map(|&v| f32_to_bf16(v)).collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Decoded entry at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> f32 {
        bf16_to_f32(self.data[row * self.cols + col])
    }

    /// The raw truncated-bfloat16 bits, row-major — the exact payload the
    /// serving artifact serializes, so a persisted bf16 tensor round-trips
    /// bit for bit.
    pub fn bits(&self) -> &[u16] {
        &self.data
    }

    /// Rebuilds a matrix from raw bfloat16 bits (the deserialization inverse
    /// of [`Bf16Matrix::bits`]).
    ///
    /// # Panics
    /// Panics if `bits.len() != rows * cols`.
    pub fn from_bits(rows: usize, cols: usize, bits: Vec<u16>) -> Self {
        assert_eq!(bits.len(), rows * cols, "bf16 payload length mismatch");
        Self {
            rows,
            cols,
            data: bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bf16_round_trip_zeroes_the_low_mantissa_bits() {
        let pi = std::f32::consts::PI;
        for v in [0.0f32, -0.0, 1.0, -1.5, 0.15625, pi, -65504.0, 1e-20, 1e20] {
            let decoded = bf16_to_f32(f32_to_bf16(v));
            assert_eq!(decoded.to_bits(), v.to_bits() & 0xffff_0000);
            // Values already representable in bf16 survive exactly.
            assert_eq!(f32_to_bf16(decoded), f32_to_bf16(v));
        }
        // Powers of two and small integers are exact in bf16.
        assert_eq!(bf16_to_f32(f32_to_bf16(2.0)), 2.0);
        assert_eq!(bf16_to_f32(f32_to_bf16(-0.25)), -0.25);
        assert_eq!(bf16_to_f32(f32_to_bf16(100.0)), 100.0);
    }

    #[test]
    fn truncation_error_is_bounded_by_2_pow_minus_7() {
        for i in 0..4096u32 {
            let v = (i as f32 - 2048.0) * 0.037 + 0.001;
            let err = (bf16_to_f32(f32_to_bf16(v)) - v).abs();
            assert!(
                err <= v.abs() / 128.0,
                "bf16 truncation error {err} exceeds 2^-7 relative at {v}"
            );
        }
    }

    #[test]
    fn matrix_encode_round_trips_through_raw_bits() {
        let src = Matrix::<f32>::from_vec(
            130,
            3,
            (0..390).map(|i| (i as f32 - 195.0) * 0.173).collect(),
        );
        let packed = Bf16Matrix::from_matrix(&src);
        assert_eq!((packed.rows(), packed.cols()), (130, 3));
        assert_eq!(packed.bits().len(), 390);

        let reloaded = Bf16Matrix::from_bits(130, 3, packed.bits().to_vec());
        assert_eq!(reloaded, packed);
        for r in 0..130 {
            for c in 0..3 {
                assert_eq!(reloaded.get(r, c).to_bits(), packed.get(r, c).to_bits());
                let err = (reloaded.get(r, c) - src.get(r, c)).abs();
                assert!(err <= src.get(r, c).abs() / 128.0 + f32::EPSILON);
            }
        }
    }
}
