//! Explicit-width SIMD kernels: the vector width as a guarantee, not a hope.
//!
//! The blocked kernels of [`Matrix`](crate::Matrix) funnel their inner loop
//! through one primitive — `axpy_row`, the in-place `y[j] += a * x[j]` rank-1
//! row update. Until this module existed, that loop was a 4-wide unrolled
//! scalar loop the backend *usually* auto-vectorises; here it is rewritten
//! with `core::arch::x86_64` AVX2 intrinsics behind runtime feature
//! detection, so the width (4 lanes of `f64`, 8 of `f32`) is guaranteed on
//! any AVX2-capable host and inference latency stops depending on the
//! optimiser's mood.
//!
//! Dispatch is hoisted out of the row loop: each consumer
//! (`matmul_into`/`matmul_at_b`/`axpy`) reads the process-wide [`kernel()`]
//! choice **once per call** and then runs its entire blocked loop inside a
//! `#[target_feature]` context, so the row kernel inlines and no per-row
//! call or detection cost remains.
//!
//! A column-vector right operand (`n = 1`: every `W·x` and `Wᵀ·g` of the
//! recurrent graphs and their snapshots) has no row to vectorise, so it gets
//! kernels of its own: `W·x` puts one output row per lane
//! ([`matvec_f64_avx2`], [`matvec_f32_avx2`]: contiguous row loads
//! transposed in registers, several row groups in flight), and `Wᵀ·g` puts
//! the outputs across the lanes (`matvec_t_*_avx2`). Both sum each output
//! in increasing `k` from `+0.0` with a separate multiply and add, and
//! reproduce the reference's skip of exact-zero weights by masking those
//! products to `+0.0`, so they are bit-identical to the scalar body for
//! every input. They have no FMA variant and serve both AVX2 families.
//! Other products narrower than [`SIMD_MIN_COLS`] keep the inlined scalar
//! reference — bit-identical anyway, and faster when there is no vector body
//! to amortise the dispatch.
//!
//! Two contracts, one per kernel family:
//!
//! * **Bit-compat (default)** — the AVX2 kernels perform exactly one
//!   multiply and one add per element, in index order, on independent
//!   elements. IEEE-754 arithmetic is deterministic per element, so the SIMD
//!   result is **bit-identical** to the scalar reference at both precisions
//!   (`RM_SIMD=0` forces that reference; parity proptests in this module and
//!   the determinism suite check the equivalence).
//! * **Epsilon (opt-in)** — `RM_FMA=1` swaps in fused-multiply-add variants
//!   for the serving path. Fusing drops the intermediate rounding, so FMA
//!   results are *not* bit-compatible with the reference — only
//!   epsilon-close (proptest-bounded below). Never enable it where the
//!   cross-PR bitwise contract matters.
//!
//! `RM_SIMD` / `RM_FMA` are resolved once per process through cached
//! accessors, the same pattern as `RM_POOL`/`RM_ARENA`.

// rm-lint: hot-path

use std::sync::OnceLock;

static SIMD_ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether the explicit-width SIMD kernels are active (default) or disabled
/// via `RM_SIMD=0` (or `off`), which forces the 4-wide unrolled scalar
/// reference path the SIMD kernels are bitwise-checked against. Resolved
/// once per process, like `RM_POOL` and `RM_ARENA`.
#[allow(clippy::disallowed_methods)] // audited env read; see the rm-lint allow inside
pub fn simd_enabled() -> bool {
    *SIMD_ENABLED.get_or_init(|| {
        !matches!(
            // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_SIMD
            std::env::var("RM_SIMD").as_deref(),
            Ok("0") | Ok("off")
        )
    })
}

static FMA_ENABLED: OnceLock<bool> = OnceLock::new();

/// Whether the fused-multiply-add kernel variants are active (`RM_FMA=1` or
/// `on`; **default off**). FMA fuses the multiply and add into one rounding,
/// so it is faster but *not* bit-compatible with the scalar reference — only
/// epsilon-close. Reserve it for the serving path, where the determinism
/// contract is per-process, not cross-configuration. Resolved once per
/// process.
#[allow(clippy::disallowed_methods)] // audited env read; see the rm-lint allow inside
pub fn fma_enabled() -> bool {
    *FMA_ENABLED.get_or_init(|| {
        matches!(
            // rm-lint: allow(no-raw-env-read): this IS the once-per-process cached accessor for RM_FMA
            std::env::var("RM_FMA").as_deref(),
            Ok("1") | Ok("on")
        )
    })
}

/// Runtime AVX2 support, detected once per process.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| is_x86_feature_detected!("avx2"))
}

/// Runtime FMA support, detected once per process.
#[cfg(target_arch = "x86_64")]
fn fma_available() -> bool {
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| is_x86_feature_detected!("fma"))
}

/// Minimum row length for which the consumers dispatch to the `axpy_row`
/// arch kernels. Below this there is little vector body to amortise the
/// dispatch, and the 4-wide unrolled scalar reference — which the AVX2
/// kernels are bit-identical to anyway — inlines into the consumer loop.
/// Column vectors (`n = 1`) are the exception: they take the lane-per-row
/// and lane-per-output column kernels instead. The choice depends only on
/// the operand shape, so it is deterministic.
pub(crate) const SIMD_MIN_COLS: usize = 16;

/// The row-kernel family the process resolved to, read once per consumer
/// call (not once per row). `Avx2`/`Fma` are only ever produced after the
/// matching runtime CPU detection succeeded, which is what makes the
/// `unsafe` dispatch into the `#[target_feature]` consumers sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// The 4-wide unrolled scalar reference (`RM_SIMD=0`, non-x86_64, or no
    /// AVX2 at runtime).
    Scalar,
    /// Explicit-width AVX2, bit-identical to `Scalar`.
    Avx2,
    /// AVX2 + fused multiply-add (`RM_FMA=1` opt-in), epsilon-checked only.
    Fma,
}

/// The process-wide kernel choice: knobs and CPU detection folded into one
/// cached value, so the hot consumers pay a single atomic load per call.
#[inline]
pub(crate) fn kernel() -> Kernel {
    static KERNEL: OnceLock<Kernel> = OnceLock::new();
    *KERNEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if simd_enabled() && avx2_available() {
                if fma_enabled() && fma_available() {
                    return Kernel::Fma;
                }
                return Kernel::Avx2;
            }
        }
        Kernel::Scalar
    })
}

/// Name of the `axpy_row` kernel the current process dispatches to:
/// `"avx2+fma"`, `"avx2"` or `"scalar"`. For bench labels and reports.
pub fn simd_kernel_name() -> &'static str {
    match kernel() {
        Kernel::Fma => "avx2+fma",
        Kernel::Avx2 => "avx2",
        Kernel::Scalar => "scalar",
    }
}

/// AVX2 `y[j] += a * x[j]` over `f64` slices, 4 lanes per vector, two
/// vectors per main-loop iteration. Each element sees exactly one
/// `_mm256_mul_pd` and one `_mm256_add_pd` — separate roundings, index
/// order — so the result is bit-identical to the scalar reference.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
// SAFETY: the `unsafe fn` contract is AVX2 availability (checked by the
// dispatcher); every pointer below is derived from the equal-length input
// slices and offset strictly within their bounds.
pub(crate) unsafe fn axpy_row_f64_avx2(a: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_storeu_pd,
    };
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    // SAFETY: all offsets are < n ≤ both slice lengths; unaligned
    // loads/stores are used throughout, so no alignment precondition.
    unsafe {
        let av = _mm256_set1_pd(a);
        let mut i = 0usize;
        while i + 8 <= n {
            let y0 = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(i)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i))),
            );
            let y1 = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(i + 4)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i + 4))),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + 4), y1);
            i += 8;
        }
        if i + 4 <= n {
            let y0 = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(i)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i))),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            i += 4;
        }
        while i < n {
            *yp.add(i) += a * *xp.add(i);
            i += 1;
        }
    }
}

/// AVX2+FMA `y[j] = fma(a, x[j], y[j])` over `f64` slices. One fused
/// rounding per element — **not** bit-compatible with the scalar reference;
/// epsilon-checked only (`RM_FMA=1` opt-in).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)]
#[inline]
// SAFETY: the `unsafe fn` contract is AVX2+FMA availability (checked by the
// dispatcher); every pointer below is derived from the equal-length input
// slices and offset strictly within their bounds.
pub(crate) unsafe fn axpy_row_f64_fma(a: f64, x: &[f64], y: &mut [f64]) {
    use std::arch::x86_64::{_mm256_fmadd_pd, _mm256_loadu_pd, _mm256_set1_pd, _mm256_storeu_pd};
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    // SAFETY: all offsets are < n ≤ both slice lengths; unaligned
    // loads/stores are used throughout, so no alignment precondition.
    unsafe {
        let av = _mm256_set1_pd(a);
        let mut i = 0usize;
        while i + 8 <= n {
            let y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            let y1 = _mm256_fmadd_pd(
                av,
                _mm256_loadu_pd(xp.add(i + 4)),
                _mm256_loadu_pd(yp.add(i + 4)),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + 4), y1);
            i += 8;
        }
        if i + 4 <= n {
            let y0 = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), y0);
            i += 4;
        }
        while i < n {
            *yp.add(i) = a.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }
}

/// AVX2 `y[j] += a * x[j]` over `f32` slices, 8 lanes per vector, two
/// vectors per main-loop iteration. Same bit-compat argument as the `f64`
/// kernel: one multiply, one add, index order, independent elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
// SAFETY: the `unsafe fn` contract is AVX2 availability (checked by the
// dispatcher); every pointer below is derived from the equal-length input
// slices and offset strictly within their bounds.
pub(crate) unsafe fn axpy_row_f32_avx2(a: f32, x: &[f32], y: &mut [f32]) {
    use std::arch::x86_64::{
        _mm256_add_ps, _mm256_loadu_ps, _mm256_mul_ps, _mm256_set1_ps, _mm256_storeu_ps,
    };
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    // SAFETY: all offsets are < n ≤ both slice lengths; unaligned
    // loads/stores are used throughout, so no alignment precondition.
    unsafe {
        let av = _mm256_set1_ps(a);
        let mut i = 0usize;
        while i + 16 <= n {
            let y0 = _mm256_add_ps(
                _mm256_loadu_ps(yp.add(i)),
                _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i))),
            );
            let y1 = _mm256_add_ps(
                _mm256_loadu_ps(yp.add(i + 8)),
                _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i + 8))),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            _mm256_storeu_ps(yp.add(i + 8), y1);
            i += 16;
        }
        if i + 8 <= n {
            let y0 = _mm256_add_ps(
                _mm256_loadu_ps(yp.add(i)),
                _mm256_mul_ps(av, _mm256_loadu_ps(xp.add(i))),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            i += 8;
        }
        while i < n {
            *yp.add(i) += a * *xp.add(i);
            i += 1;
        }
    }
}

/// AVX2+FMA `y[j] = fma(a, x[j], y[j])` over `f32` slices. Epsilon-checked
/// only, like the `f64` FMA variant.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(unsafe_code)]
#[inline]
// SAFETY: the `unsafe fn` contract is AVX2+FMA availability (checked by the
// dispatcher); every pointer below is derived from the equal-length input
// slices and offset strictly within their bounds.
pub(crate) unsafe fn axpy_row_f32_fma(a: f32, x: &[f32], y: &mut [f32]) {
    use std::arch::x86_64::{_mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_storeu_ps};
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().min(y.len());
    let xp = x.as_ptr();
    let yp = y.as_mut_ptr();
    // SAFETY: all offsets are < n ≤ both slice lengths; unaligned
    // loads/stores are used throughout, so no alignment precondition.
    unsafe {
        let av = _mm256_set1_ps(a);
        let mut i = 0usize;
        while i + 16 <= n {
            let y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            let y1 = _mm256_fmadd_ps(
                av,
                _mm256_loadu_ps(xp.add(i + 8)),
                _mm256_loadu_ps(yp.add(i + 8)),
            );
            _mm256_storeu_ps(yp.add(i), y0);
            _mm256_storeu_ps(yp.add(i + 8), y1);
            i += 16;
        }
        if i + 8 <= n {
            let y0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            _mm256_storeu_ps(yp.add(i), y0);
            i += 8;
        }
        while i < n {
            *yp.add(i) = a.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }
}

/// Generates the fused four-row rank-1 update kernels
/// `y[j] += Σ_r a[r] * x[r][j]`: the k-unrolled panel primitive of
/// `matmul_into`. Each element is evaluated as four sequential multiply-adds
/// in `r` order — exactly the arithmetic of four consecutive single-row
/// updates — so the AVX2 instances stay bit-identical to the scalar
/// reference; the win is that each `y` vector is loaded and stored once per
/// four reduction steps instead of once per step. The FMA instances fuse
/// each step's rounding (`RM_FMA=1` opt-in, epsilon contract).
#[cfg(target_arch = "x86_64")]
macro_rules! axpy_row4_kernels {
    (
        $t:ty, $lanes:expr,
        $set1:ident, $loadu:ident, $storeu:ident, $mul:ident, $add:ident, $fmadd:ident,
        $avx2_name:ident, $fma_name:ident
    ) => {
        /// Fused four-row AVX2 update; bit-identical to four sequential
        /// single-row updates (see the macro doc).
        // SAFETY: the `unsafe fn` contract is AVX2 availability (upheld by
        // the `Kernel::Avx2` dispatch); every pointer is derived from the
        // input slices and offset strictly below `n`, the minimum length.
        #[target_feature(enable = "avx2")]
        #[allow(unsafe_code)]
        #[inline]
        pub(crate) unsafe fn $avx2_name(a: [$t; 4], x: [&[$t]; 4], y: &mut [$t]) {
            use std::arch::x86_64::{$add, $loadu, $mul, $set1, $storeu};
            let n = y
                .len()
                .min(x[0].len())
                .min(x[1].len())
                .min(x[2].len())
                .min(x[3].len());
            let yp = y.as_mut_ptr();
            let xp = [x[0].as_ptr(), x[1].as_ptr(), x[2].as_ptr(), x[3].as_ptr()];
            // SAFETY: all offsets are < n ≤ every slice length; unaligned
            // loads/stores are used throughout, so no alignment precondition.
            unsafe {
                let av = [$set1(a[0]), $set1(a[1]), $set1(a[2]), $set1(a[3])];
                let mut i = 0usize;
                while i + 2 * $lanes <= n {
                    let mut y0 = $loadu(yp.add(i));
                    let mut y1 = $loadu(yp.add(i + $lanes));
                    y0 = $add(y0, $mul(av[0], $loadu(xp[0].add(i))));
                    y1 = $add(y1, $mul(av[0], $loadu(xp[0].add(i + $lanes))));
                    y0 = $add(y0, $mul(av[1], $loadu(xp[1].add(i))));
                    y1 = $add(y1, $mul(av[1], $loadu(xp[1].add(i + $lanes))));
                    y0 = $add(y0, $mul(av[2], $loadu(xp[2].add(i))));
                    y1 = $add(y1, $mul(av[2], $loadu(xp[2].add(i + $lanes))));
                    y0 = $add(y0, $mul(av[3], $loadu(xp[3].add(i))));
                    y1 = $add(y1, $mul(av[3], $loadu(xp[3].add(i + $lanes))));
                    $storeu(yp.add(i), y0);
                    $storeu(yp.add(i + $lanes), y1);
                    i += 2 * $lanes;
                }
                if i + $lanes <= n {
                    let mut y0 = $loadu(yp.add(i));
                    y0 = $add(y0, $mul(av[0], $loadu(xp[0].add(i))));
                    y0 = $add(y0, $mul(av[1], $loadu(xp[1].add(i))));
                    y0 = $add(y0, $mul(av[2], $loadu(xp[2].add(i))));
                    y0 = $add(y0, $mul(av[3], $loadu(xp[3].add(i))));
                    $storeu(yp.add(i), y0);
                    i += $lanes;
                }
                while i < n {
                    let mut v = *yp.add(i);
                    v += a[0] * *xp[0].add(i);
                    v += a[1] * *xp[1].add(i);
                    v += a[2] * *xp[2].add(i);
                    v += a[3] * *xp[3].add(i);
                    *yp.add(i) = v;
                    i += 1;
                }
            }
        }

        /// Fused four-row AVX2+FMA update (`RM_FMA=1` opt-in; one rounding
        /// per step, epsilon contract).
        // SAFETY: the `unsafe fn` contract is AVX2+FMA availability (upheld
        // by the `Kernel::Fma` dispatch); same in-bounds pointer argument as
        // the AVX2 instance.
        #[target_feature(enable = "avx2,fma")]
        #[allow(unsafe_code)]
        #[inline]
        pub(crate) unsafe fn $fma_name(a: [$t; 4], x: [&[$t]; 4], y: &mut [$t]) {
            use std::arch::x86_64::{$fmadd, $loadu, $set1, $storeu};
            let n = y
                .len()
                .min(x[0].len())
                .min(x[1].len())
                .min(x[2].len())
                .min(x[3].len());
            let yp = y.as_mut_ptr();
            let xp = [x[0].as_ptr(), x[1].as_ptr(), x[2].as_ptr(), x[3].as_ptr()];
            // SAFETY: all offsets are < n ≤ every slice length; unaligned
            // loads/stores are used throughout, so no alignment precondition.
            unsafe {
                let av = [$set1(a[0]), $set1(a[1]), $set1(a[2]), $set1(a[3])];
                let mut i = 0usize;
                while i + 2 * $lanes <= n {
                    let mut y0 = $loadu(yp.add(i));
                    let mut y1 = $loadu(yp.add(i + $lanes));
                    y0 = $fmadd(av[0], $loadu(xp[0].add(i)), y0);
                    y1 = $fmadd(av[0], $loadu(xp[0].add(i + $lanes)), y1);
                    y0 = $fmadd(av[1], $loadu(xp[1].add(i)), y0);
                    y1 = $fmadd(av[1], $loadu(xp[1].add(i + $lanes)), y1);
                    y0 = $fmadd(av[2], $loadu(xp[2].add(i)), y0);
                    y1 = $fmadd(av[2], $loadu(xp[2].add(i + $lanes)), y1);
                    y0 = $fmadd(av[3], $loadu(xp[3].add(i)), y0);
                    y1 = $fmadd(av[3], $loadu(xp[3].add(i + $lanes)), y1);
                    $storeu(yp.add(i), y0);
                    $storeu(yp.add(i + $lanes), y1);
                    i += 2 * $lanes;
                }
                if i + $lanes <= n {
                    let mut y0 = $loadu(yp.add(i));
                    y0 = $fmadd(av[0], $loadu(xp[0].add(i)), y0);
                    y0 = $fmadd(av[1], $loadu(xp[1].add(i)), y0);
                    y0 = $fmadd(av[2], $loadu(xp[2].add(i)), y0);
                    y0 = $fmadd(av[3], $loadu(xp[3].add(i)), y0);
                    $storeu(yp.add(i), y0);
                    i += $lanes;
                }
                while i < n {
                    let mut v = *yp.add(i);
                    v = a[0].mul_add(*xp[0].add(i), v);
                    v = a[1].mul_add(*xp[1].add(i), v);
                    v = a[2].mul_add(*xp[2].add(i), v);
                    v = a[3].mul_add(*xp[3].add(i), v);
                    *yp.add(i) = v;
                    i += 1;
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
axpy_row4_kernels!(
    f64,
    4,
    _mm256_set1_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_mul_pd,
    _mm256_add_pd,
    _mm256_fmadd_pd,
    axpy_row4_f64_avx2,
    axpy_row4_f64_fma
);
#[cfg(target_arch = "x86_64")]
axpy_row4_kernels!(
    f32,
    8,
    _mm256_set1_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_mul_ps,
    _mm256_add_ps,
    _mm256_fmadd_ps,
    axpy_row4_f32_avx2,
    axpy_row4_f32_fma
);

/// Row groups the `W·x` column kernels carry per pass over `x`: independent
/// accumulators, so the add latency of one row group hides behind the
/// others. Four f64 groups (16 rows) or two f32 groups (16 rows) keep the
/// accumulators, the broadcast `x` values and the shuffle temporaries within
/// the 16 vector registers.
#[cfg(target_arch = "x86_64")]
const MATVEC_GROUPS_F64: usize = 4;
/// The f32 counterpart of [`MATVEC_GROUPS_F64`] (8 rows per group).
#[cfg(target_arch = "x86_64")]
const MATVEC_GROUPS_F32: usize = 2;

/// Vectors per column chunk of the `Wᵀ·g` kernels: eight independent
/// accumulators per pass over the rows of `W`.
#[cfg(target_arch = "x86_64")]
const MATVEC_T_VECTORS: usize = 8;

/// The scalar finish of one output of a column product: continues `sum`
/// over `w[k] * x[k]` for the remaining `k`, skipping exact-zero weights
/// — the reference arithmetic of `matmul_into`/`matmul_at_b` at `n = 1`.
/// `w` is walked from `start` with `stride` (1 for a row of `W`, `cols` for
/// a column).
#[inline(always)]
fn finish_dot<T: crate::Scalar>(mut sum: T, w: &[T], start: usize, stride: usize, x: &[T]) -> T {
    for (k, &xk) in x.iter().enumerate() {
        let a = w[start + k * stride];
        if a != T::ZERO {
            sum += a * xk;
        }
    }
    sum
}

/// `out = W·x` for a row-major `out.len() × cols` matrix `W` and a column
/// vector `x`, one output row per f64 lane.
///
/// Each lane computes `acc = acc + w·x[k]` in increasing `k` from `+0.0`,
/// with a separate multiply and add (never fused) — the arithmetic of the
/// scalar reference, which walks each row in `k` order from a zeroed output.
/// The reference skips exact-zero weights; here the product is masked to
/// `+0.0` wherever `w == 0` (`_CMP_NEQ_UQ`, so a NaN weight is kept, as the
/// reference keeps it). A sum that starts at `+0.0` never becomes `-0.0`
/// under round-to-nearest, so adding the masked `+0.0` leaves it unchanged
/// and every finite, infinite and NaN result equals the reference bit for
/// bit. (Where two NaNs of different payloads meet, which one propagates is
/// unspecified by IEEE 754 on either side.)
///
/// Rows are taken four at a time: two 128-bit half-row loads per row pair
/// and one unpack per `k` put the weights `W[r][k]` of four rows into one
/// vector, lanes ordered (r0, r2, r1, r3). [`MATVEC_GROUPS_F64`] groups are
/// in flight per pass; a short last group repeats its last row in the spare
/// lanes, whose sums are dropped. An odd last `k` finishes per lane in
/// scalar code.
///
/// # Safety
/// Only call after runtime AVX2 detection succeeded. (Operand shapes are
/// asserted, so no other precondition.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: the `unsafe fn` contract is AVX2 availability (checked by the
// dispatcher); the callee only offsets within `w`, `x` and `out`, whose
// shapes are asserted here.
pub(crate) unsafe fn matvec_f64_avx2(w: &[f64], cols: usize, x: &[f64], out: &mut [f64]) {
    assert_eq!(w.len(), out.len() * cols, "matvec weight shape");
    assert_eq!(x.len(), cols, "matvec operand length");
    let mut r = 0;
    while r < out.len() {
        // SAFETY: AVX2 is enabled in this context; `r < out.len()` and the
        // shapes were asserted above.
        unsafe {
            match (out.len() - r).div_ceil(4) {
                1 => matvec_block_f64::<1>(w, cols, x, r, out),
                2 => matvec_block_f64::<2>(w, cols, x, r, out),
                3 => matvec_block_f64::<3>(w, cols, x, r, out),
                _ => matvec_block_f64::<MATVEC_GROUPS_F64>(w, cols, x, r, out),
            }
        }
        r += 4 * MATVEC_GROUPS_F64;
    }
}

/// `G` row groups of [`matvec_f64_avx2`], rows `r0..r0 + 4G` (clamped to
/// the last row).
///
/// # Safety
/// AVX2 must be available, `r0 < out.len()`, `w.len() == out.len() * cols`
/// and `x.len() == cols`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
// SAFETY: AVX2 availability (the caller's contract); `r0 < out.len()`,
// `w.len() == out.len() * cols` and `x.len() == cols`. Every row pointer is
// clamped to a real row and offset by at most `cols - 1`.
unsafe fn matvec_block_f64<const G: usize>(
    w: &[f64],
    cols: usize,
    x: &[f64],
    r0: usize,
    out: &mut [f64],
) {
    use std::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_and_pd, _mm256_broadcast_sd, _mm256_cmp_pd,
        _mm256_loadu2_m128d, _mm256_mul_pd, _mm256_setzero_pd, _mm256_storeu_pd,
        _mm256_unpackhi_pd, _mm256_unpacklo_pd, _CMP_NEQ_UQ,
    };
    /// Source row of each vector lane (see the unpack order above).
    const LANE_ROW: [usize; 4] = [0, 2, 1, 3];
    let rows = out.len();
    let row = |r: usize| w[r.min(rows - 1) * cols..].as_ptr();
    let rp: [[*const f64; 4]; G] =
        std::array::from_fn(|g| std::array::from_fn(|l| row(r0 + 4 * g + l)));
    let xp = x.as_ptr();
    let zero = _mm256_setzero_pd();
    let mut acc: [__m256d; G] = [zero; G];
    let mut k = 0usize;
    // SAFETY: k + 1 < cols for every load, and every row holds cols elements.
    unsafe {
        while k + 2 <= cols {
            let x0 = _mm256_broadcast_sd(&*xp.add(k));
            let x1 = _mm256_broadcast_sd(&*xp.add(k + 1));
            for (acc, rp) in acc.iter_mut().zip(&rp) {
                let v01 = _mm256_loadu2_m128d(rp[1].add(k), rp[0].add(k));
                let v23 = _mm256_loadu2_m128d(rp[3].add(k), rp[2].add(k));
                let w0 = _mm256_unpacklo_pd(v01, v23);
                let w1 = _mm256_unpackhi_pd(v01, v23);
                let p0 = _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_NEQ_UQ>(w0, zero),
                    _mm256_mul_pd(w0, x0),
                );
                *acc = _mm256_add_pd(*acc, p0);
                let p1 = _mm256_and_pd(
                    _mm256_cmp_pd::<_CMP_NEQ_UQ>(w1, zero),
                    _mm256_mul_pd(w1, x1),
                );
                *acc = _mm256_add_pd(*acc, p1);
            }
            k += 2;
        }
    }
    for (g, acc) in acc.iter().enumerate() {
        let mut lanes = [0.0f64; 4];
        // SAFETY: `lanes` holds exactly one vector.
        unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), *acc) };
        for (lane, &sum) in lanes.iter().enumerate() {
            let r = r0 + 4 * g + LANE_ROW[lane];
            if r < rows {
                out[r] = finish_dot(sum, w, r * cols + k, 1, &x[k..]);
            }
        }
    }
}

/// `out = W·x` at f32, one output row per lane, 8 rows per vector: the
/// [`matvec_f64_avx2`] contract and arithmetic at f32. Rows are taken eight
/// at a time and `k` four at a time: four 128-bit half-row loads pair row
/// `r` with row `r + 4`, and two unpack stages (f32 pairs, then f64-sized
/// pairs) transpose them, so each vector holds `W[r][k]` of rows r0..r7 in
/// order. [`MATVEC_GROUPS_F32`] groups are in flight; `cols % 4` trailing
/// `k` finish per lane in scalar code.
///
/// # Safety
/// Only call after runtime AVX2 detection succeeded. (Operand shapes are
/// asserted, so no other precondition.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
// SAFETY: the `unsafe fn` contract is AVX2 availability (checked by the
// dispatcher); the callee only offsets within `w`, `x` and `out`, whose
// shapes are asserted here.
pub(crate) unsafe fn matvec_f32_avx2(w: &[f32], cols: usize, x: &[f32], out: &mut [f32]) {
    assert_eq!(w.len(), out.len() * cols, "matvec weight shape");
    assert_eq!(x.len(), cols, "matvec operand length");
    let mut r = 0;
    while r < out.len() {
        // SAFETY: AVX2 is enabled in this context; `r < out.len()` and the
        // shapes were asserted above.
        unsafe {
            match (out.len() - r).div_ceil(8) {
                1 => matvec_block_f32::<1>(w, cols, x, r, out),
                _ => matvec_block_f32::<MATVEC_GROUPS_F32>(w, cols, x, r, out),
            }
        }
        r += 8 * MATVEC_GROUPS_F32;
    }
}

/// `G` row groups of [`matvec_f32_avx2`], rows `r0..r0 + 8G` (clamped to
/// the last row).
///
/// # Safety
/// AVX2 must be available, `r0 < out.len()`, `w.len() == out.len() * cols`
/// and `x.len() == cols`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(unsafe_code)]
#[inline]
// SAFETY: AVX2 availability (the caller's contract); `r0 < out.len()`,
// `w.len() == out.len() * cols` and `x.len() == cols`. Every row pointer is
// clamped to a real row and offset by at most `cols - 1`.
unsafe fn matvec_block_f32<const G: usize>(
    w: &[f32],
    cols: usize,
    x: &[f32],
    r0: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::{
        __m256, _mm256_add_ps, _mm256_and_ps, _mm256_broadcast_ss, _mm256_castpd_ps,
        _mm256_castps_pd, _mm256_cmp_ps, _mm256_loadu2_m128, _mm256_mul_ps, _mm256_setzero_ps,
        _mm256_storeu_ps, _mm256_unpackhi_pd, _mm256_unpackhi_ps, _mm256_unpacklo_pd,
        _mm256_unpacklo_ps, _CMP_NEQ_UQ,
    };
    let rows = out.len();
    let row = |r: usize| w[r.min(rows - 1) * cols..].as_ptr();
    let rp: [[*const f32; 8]; G] =
        std::array::from_fn(|g| std::array::from_fn(|l| row(r0 + 8 * g + l)));
    let xp = x.as_ptr();
    let zero = _mm256_setzero_ps();
    let mut acc: [__m256; G] = [zero; G];
    let mut k = 0usize;
    // SAFETY: k + 3 < cols for every load, and every row holds cols elements.
    unsafe {
        while k + 4 <= cols {
            let xk = [
                _mm256_broadcast_ss(&*xp.add(k)),
                _mm256_broadcast_ss(&*xp.add(k + 1)),
                _mm256_broadcast_ss(&*xp.add(k + 2)),
                _mm256_broadcast_ss(&*xp.add(k + 3)),
            ];
            for (acc, rp) in acc.iter_mut().zip(&rp) {
                // (r0 | r4), (r1 | r5), ... at k..k + 4.
                let v04 = _mm256_loadu2_m128(rp[4].add(k), rp[0].add(k));
                let v15 = _mm256_loadu2_m128(rp[5].add(k), rp[1].add(k));
                let v26 = _mm256_loadu2_m128(rp[6].add(k), rp[2].add(k));
                let v37 = _mm256_loadu2_m128(rp[7].add(k), rp[3].add(k));
                // (r0 r1 at k, k+1 | r4 r5 at k, k+1) and the k+2, k+3 half.
                let t01 = _mm256_castps_pd(_mm256_unpacklo_ps(v04, v15));
                let t23 = _mm256_castps_pd(_mm256_unpackhi_ps(v04, v15));
                let u01 = _mm256_castps_pd(_mm256_unpacklo_ps(v26, v37));
                let u23 = _mm256_castps_pd(_mm256_unpackhi_ps(v26, v37));
                let wk = [
                    _mm256_castpd_ps(_mm256_unpacklo_pd(t01, u01)),
                    _mm256_castpd_ps(_mm256_unpackhi_pd(t01, u01)),
                    _mm256_castpd_ps(_mm256_unpacklo_pd(t23, u23)),
                    _mm256_castpd_ps(_mm256_unpackhi_pd(t23, u23)),
                ];
                for (wv, xv) in wk.into_iter().zip(xk) {
                    let p = _mm256_and_ps(
                        _mm256_cmp_ps::<_CMP_NEQ_UQ>(wv, zero),
                        _mm256_mul_ps(wv, xv),
                    );
                    *acc = _mm256_add_ps(*acc, p);
                }
            }
            k += 4;
        }
    }
    for (g, acc) in acc.iter().enumerate() {
        let mut lanes = [0.0f32; 8];
        // SAFETY: `lanes` holds exactly one vector.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), *acc) };
        for (lane, &sum) in lanes.iter().enumerate() {
            let r = r0 + 8 * g + lane;
            if r < rows {
                out[r] = finish_dot(sum, w, r * cols + k, 1, &x[k..]);
            }
        }
    }
}

/// Generates the `out = Wᵀ·g` column kernels: `out[j] = Σ_k W[k][j]·g[k]`
/// for a row-major `g.len() × out.len()` matrix `W`, lanes across the
/// output elements. Each output is summed in increasing `k` from `+0.0`
/// with a separate multiply and add, and the product is masked to `+0.0`
/// where `W[k][j] == 0` — the zero rule and bit-compat argument of
/// [`matvec_f64_avx2`], matching the reference's masked rank-1 updates
/// (`out += W[k]·g[k]` row by row). The outputs are walked in chunks of
/// [`MATVEC_T_VECTORS`] vectors, each held in registers across all rows,
/// then single vectors; the last `out.len() % lanes` finish in scalar code.
#[cfg(target_arch = "x86_64")]
macro_rules! matvec_t_kernel {
    (
        $t:ty, $vec:ident, $lanes:expr,
        $set1:ident, $setzero:ident, $loadu:ident, $storeu:ident,
        $mul:ident, $add:ident, $and:ident, $cmp:ident,
        $name:ident, $chunk:ident
    ) => {
        /// `out = Wᵀ·g`, lanes across the outputs (see the macro doc).
        ///
        /// # Safety
        /// Only call after runtime AVX2 detection succeeded. (Operand shapes
        /// are asserted, so no other precondition.)
        #[target_feature(enable = "avx2")]
        #[allow(unsafe_code)]
        // SAFETY: the `unsafe fn` contract is AVX2 availability (checked
        // by the dispatcher); the callee only offsets within `w`, `g` and
        // `out`, whose shapes are asserted here.
        pub(crate) unsafe fn $name(w: &[$t], g: &[$t], out: &mut [$t]) {
            let cols = out.len();
            assert_eq!(w.len(), g.len() * cols, "matvec_t weight shape");
            let mut j = 0;
            // SAFETY: AVX2 is enabled in this context, the shapes were
            // asserted above and each chunk ends at or before `cols`.
            unsafe {
                while j + MATVEC_T_VECTORS * $lanes <= cols {
                    $chunk::<MATVEC_T_VECTORS>(w, g, j, out);
                    j += MATVEC_T_VECTORS * $lanes;
                }
                while j + $lanes <= cols {
                    $chunk::<1>(w, g, j, out);
                    j += $lanes;
                }
            }
            for (jj, o) in out.iter_mut().enumerate().skip(j) {
                *o = finish_dot(0.0, w, jj, cols, g);
            }
        }

        /// `V` vectors of outputs of the kernel above, from column `j0`.
        ///
        /// # Safety
        /// AVX2 must be available, `w.len() == g.len() * out.len()` and
        /// `j0 + V * lanes <= out.len()`.
        #[target_feature(enable = "avx2")]
        #[allow(unsafe_code)]
        #[inline]
        // SAFETY: AVX2 availability (the caller's contract);
        // `w.len() == g.len() * out.len()` and `j0 + V * lanes ≤ out.len()`,
        // so every load stays inside row `k` of `W` and every store inside
        // `out`.
        unsafe fn $chunk<const V: usize>(w: &[$t], g: &[$t], j0: usize, out: &mut [$t]) {
            use std::arch::x86_64::{
                $add, $and, $cmp, $loadu, $mul, $set1, $setzero, $storeu, $vec, _CMP_NEQ_UQ,
            };
            let cols = out.len();
            let zero = $setzero();
            let mut acc: [$vec; V] = [zero; V];
            // SAFETY: see the function contract above.
            unsafe {
                for (k, &gk) in g.iter().enumerate() {
                    let gv = $set1(gk);
                    let wp = w.as_ptr().add(k * cols + j0);
                    for (v, acc) in acc.iter_mut().enumerate() {
                        let wv = $loadu(wp.add(v * $lanes));
                        let p = $and($cmp::<_CMP_NEQ_UQ>(wv, zero), $mul(wv, gv));
                        *acc = $add(*acc, p);
                    }
                }
                for (v, acc) in acc.iter().enumerate() {
                    $storeu(out.as_mut_ptr().add(j0 + v * $lanes), *acc);
                }
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
matvec_t_kernel!(
    f64,
    __m256d,
    4,
    _mm256_set1_pd,
    _mm256_setzero_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_mul_pd,
    _mm256_add_pd,
    _mm256_and_pd,
    _mm256_cmp_pd,
    matvec_t_f64_avx2,
    matvec_t_chunk_f64
);
#[cfg(target_arch = "x86_64")]
matvec_t_kernel!(
    f32,
    __m256,
    8,
    _mm256_set1_ps,
    _mm256_setzero_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_mul_ps,
    _mm256_add_ps,
    _mm256_and_ps,
    _mm256_cmp_ps,
    matvec_t_f32_avx2,
    matvec_t_chunk_f32
);

/// Non-x86_64 stand-ins for the arch kernels, so the [`Scalar`]
/// (`crate::Scalar`) dispatch hooks link on every target. Off x86_64,
/// [`kernel()`] never resolves past [`Kernel::Scalar`], so these are never
/// reached through dispatch; the bodies just delegate to the scalar
/// reference and the `unsafe` only mirrors the x86_64 signatures.
#[cfg(not(target_arch = "x86_64"))]
macro_rules! scalar_fallback {
    ($name:ident, $t:ty) => {
        // SAFETY: trivially safe body (delegates to the safe scalar
        // reference); `unsafe fn` only to match the x86_64 kernel signature.
        #[allow(unsafe_code)]
        pub(crate) unsafe fn $name(a: $t, x: &[$t], y: &mut [$t]) {
            crate::matrix::axpy_row_scalar(a, x, y)
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
scalar_fallback!(axpy_row_f64_avx2, f64);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback!(axpy_row_f64_fma, f64);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback!(axpy_row_f32_avx2, f32);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback!(axpy_row_f32_fma, f32);

/// Four-row counterpart of [`scalar_fallback!`]: four sequential scalar row
/// updates, the definitionally bit-identical expansion of the fused kernel.
#[cfg(not(target_arch = "x86_64"))]
macro_rules! scalar_fallback4 {
    ($name:ident, $t:ty) => {
        // SAFETY: trivially safe body (sequential safe scalar updates);
        // `unsafe fn` only to match the x86_64 kernel signature.
        #[allow(unsafe_code)]
        pub(crate) unsafe fn $name(a: [$t; 4], x: [&[$t]; 4], y: &mut [$t]) {
            for (ar, xr) in a.iter().zip(x.iter()) {
                crate::matrix::axpy_row_scalar(*ar, xr, y);
            }
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
scalar_fallback4!(axpy_row4_f64_avx2, f64);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback4!(axpy_row4_f64_fma, f64);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback4!(axpy_row4_f32_avx2, f32);
#[cfg(not(target_arch = "x86_64"))]
scalar_fallback4!(axpy_row4_f32_fma, f32);

/// Column-kernel counterpart of [`scalar_fallback!`]: the reference loops
/// (`k` order, exact-zero weights skipped), one output at a time.
#[cfg(not(target_arch = "x86_64"))]
macro_rules! matvec_fallback {
    ($name:ident, $t_name:ident, $t:ty) => {
        // SAFETY: trivially safe body (safe scalar loops); `unsafe fn` only
        // to match the x86_64 kernel signature.
        #[allow(unsafe_code)]
        pub(crate) unsafe fn $name(w: &[$t], cols: usize, x: &[$t], out: &mut [$t]) {
            for (r, o) in out.iter_mut().enumerate() {
                *o = finish_dot(0.0, w, r * cols, 1, x);
            }
        }

        // SAFETY: as above.
        #[allow(unsafe_code)]
        pub(crate) unsafe fn $t_name(w: &[$t], g: &[$t], out: &mut [$t]) {
            let cols = out.len();
            for (j, o) in out.iter_mut().enumerate() {
                *o = finish_dot(0.0, w, j, cols, g);
            }
        }
    };
}

#[cfg(not(target_arch = "x86_64"))]
matvec_fallback!(matvec_f64_avx2, matvec_t_f64_avx2, f64);
#[cfg(not(target_arch = "x86_64"))]
matvec_fallback!(matvec_f32_avx2, matvec_t_f32_avx2, f32);

#[cfg(test)]
mod tests {
    #![allow(unsafe_code)] // tests call the kernels directly, guarded by the same detection

    use super::*;
    use crate::matrix::axpy_row_scalar;

    /// Deterministic pseudo-random values without consuming an RNG stream:
    /// a splitmix-style hash of the index, mapped into `[-1, 1]`.
    fn val(i: u64) -> f64 {
        let mut z = i
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x243f_6a88_85a3_08d3);
        z ^= z >> 30;
        z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        (z as f64 / u64::MAX as f64) * 2.0 - 1.0
    }

    #[test]
    fn kernel_name_is_consistent_with_the_knobs() {
        let name = simd_kernel_name();
        if !simd_enabled() {
            assert_eq!(name, "scalar");
        } else {
            assert!(["scalar", "avx2", "avx2+fma"].contains(&name));
        }
        // fma_enabled is cached; calling it twice must agree.
        assert_eq!(fma_enabled(), fma_enabled());
    }

    /// The AVX2 kernels are bit-identical to the scalar reference at every
    /// length (vector body, single-vector tail and scalar remainder) and at
    /// both precisions — the contract `matmul_into`/`matmul_at_b`/`axpy`
    /// inherit.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernels_are_bit_identical_to_the_scalar_reference() {
        if !avx2_available() {
            return;
        }
        for n in 0..70usize {
            let a64 = val(9_000 + n as u64);
            let x64: Vec<f64> = (0..n).map(|j| val(j as u64)).collect();
            let base64: Vec<f64> = (0..n).map(|j| val(1_000 + j as u64)).collect();
            let mut simd_y = base64.clone();
            let mut scalar_y = base64.clone();
            // SAFETY: avx2_available() was checked at the top of the test.
            unsafe { axpy_row_f64_avx2(a64, &x64, &mut simd_y) };
            axpy_row_scalar(a64, &x64, &mut scalar_y);
            for (s, r) in simd_y.iter().zip(&scalar_y) {
                assert_eq!(s.to_bits(), r.to_bits(), "f64 mismatch at n={n}");
            }

            let a32 = a64 as f32;
            let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
            let base32: Vec<f32> = base64.iter().map(|&v| v as f32).collect();
            let mut simd_y = base32.clone();
            let mut scalar_y = base32;
            // SAFETY: avx2_available() was checked at the top of the test.
            unsafe { axpy_row_f32_avx2(a32, &x32, &mut simd_y) };
            axpy_row_scalar(a32, &x32, &mut scalar_y);
            for (s, r) in simd_y.iter().zip(&scalar_y) {
                assert_eq!(s.to_bits(), r.to_bits(), "f32 mismatch at n={n}");
            }
        }
    }

    /// The FMA variants are epsilon-close to (but, in general, not bitwise
    /// equal to) the non-FMA kernels: fusing removes one rounding per
    /// element, so the difference is bounded by an ulp-scale epsilon.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_kernels_are_epsilon_close_to_the_non_fma_reference() {
        if !avx2_available() || !fma_available() {
            return;
        }
        for n in [1usize, 3, 4, 7, 8, 16, 33, 64, 129] {
            let a64 = val(5_000 + n as u64);
            let x64: Vec<f64> = (0..n).map(|j| val(100 + j as u64)).collect();
            let base64: Vec<f64> = (0..n).map(|j| val(2_000 + j as u64)).collect();
            let mut fma_y = base64.clone();
            let mut ref_y = base64.clone();
            // SAFETY: fma_available() was checked at the top of the test.
            unsafe { axpy_row_f64_fma(a64, &x64, &mut fma_y) };
            axpy_row_scalar(a64, &x64, &mut ref_y);
            for (f, r) in fma_y.iter().zip(&ref_y) {
                assert!((f - r).abs() <= 1e-15, "f64 fma drifted: {f} vs {r}");
            }

            let a32 = a64 as f32;
            let x32: Vec<f32> = x64.iter().map(|&v| v as f32).collect();
            let base32: Vec<f32> = base64.iter().map(|&v| v as f32).collect();
            let mut fma_y = base32.clone();
            let mut ref_y = base32;
            // SAFETY: fma_available() was checked at the top of the test.
            unsafe { axpy_row_f32_fma(a32, &x32, &mut fma_y) };
            axpy_row_scalar(a32, &x32, &mut ref_y);
            for (f, r) in fma_y.iter().zip(&ref_y) {
                assert!((f - r).abs() <= 1e-6, "f32 fma drifted: {f} vs {r}");
            }
        }
    }
}
