//! The runtime-dispatched, register-blocked matmul tile behind
//! [`crate::matrix::Matrix::matmul`] and
//! [`crate::matrix::Matrix::matmul_with`] (both [`MatmulKernel`]s) and
//! behind [`matmul_packed_into`].
//!
//! ## The tile
//!
//! The output is cut into `MR × NR` tiles (`MR` = 4 rows; `NR` = a few
//! vectors of columns, 64 on AVX-512). A tile's accumulators live in
//! registers across the **whole** `k` loop: per `k` the tile loads one
//! `NR`-wide slice of `rhs` row `k` in place (row-major, no packing and
//! no copy of the weights), broadcasts the tile's four `lhs[i][k]`
//! scalars, and updates every accumulator once. Each output element is
//! loaded and stored once per matmul instead of once per `k`.
//!
//! ## The bit-exactness obligation
//!
//! The serving dataplane (`amoeba-serve`) requires every inference kernel
//! to produce results **bit-identical** to the naive reference
//! ([`crate::matrix::Matrix::matmul_naive`]): wire output must be a pure
//! function of `(seed, session_id, policy, censor)`, never of which
//! kernel, batch size or shard count executed the math. The usual way a
//! SIMD matmul breaks this is by re-associating the `k`-reduction
//! (horizontal adds over lanes) or by fusing multiply and add into one
//! rounding (`FMA`). The tile does neither:
//!
//! * Lanes run over the **output columns `j`**, never the reduction
//!   dimension `k`. Each output element accumulates `acc + (a * b)` one
//!   `k` at a time in ascending-`k` order, starting from the zeroed
//!   output — the reference's exact sequence, written in its operand
//!   order. (One thing no kernel pins, the reference included: when an
//!   add meets two NaNs of different payloads, which payload survives
//!   is the compiler's choice, because LLVM may commute the add. A
//!   single NaN's sign and payload do carry through, and are tested.)
//! * Only `mul` then `add` intrinsics are used, never an FMA: two
//!   IEEE-754 roundings, exactly like the scalar `o += a * b` (rustc
//!   performs no FP contraction).
//! * **Zero-skip rule.** The reference skips a term whose `lhs` scalar
//!   compares equal to `0.0` (`+0.0` or `-0.0`), so `0 · Inf` and
//!   `0 · NaN` never reach the sum. The tile keeps that skip so that a
//!   skipped term leaves the accumulator unchanged: on AVX-512 by a
//!   *masked add* (`_mm512_mask_add_ps`, lane mask `a != 0.0`, true for
//!   NaN), at the other levels by a branch on the broadcast scalar (the
//!   workloads' `lhs` is about 99% non-zero, where AVX2's blend and
//!   SSE2's and/andnot/or select both measured slower than the
//!   branch). Never mask the *product* to zero instead: that adds
//!   `+0.0` to the accumulator,
//!   and `-0.0 + +0.0` is `+0.0`, so it is exact only as long as no
//!   accumulator can hold `-0.0` (true only because the output starts
//!   at `+0.0`) — an invariant the masked add does not depend on.
//!
//! Every level is generated from one tile macro, row tail (`m % MR`) and
//! column tail included, so the levels cannot drift apart; the unit tests
//! here force every level on the host through both entry points against
//! the naive kernel, and `tests/algebra_props.rs` property-tests the
//! public paths.
//!
//! ## Dispatch
//!
//! [`SimdLevel::detect`] picks the widest available instruction set once
//! per process (AVX-512F → AVX2 → SSE2 on x86-64, scalar elsewhere); the
//! level can also be forced per call for testing. Detection uses
//! `std::is_x86_feature_detected!`, so the same binary runs correctly on
//! any host. Both [`MatmulKernel`]s dispatch at the detected level —
//! every level produces the same bits, so the kernel choice cannot move
//! them.
//!
//! ## Packed right-hand sides
//!
//! [`matmul_packed_into`] runs the same tile over a **panel-packed**
//! right operand (see [`pack_rhs`]): the `(K, N)` weight matrix is
//! reordered into `NC`-wide column panels, each stored `k`-major — the
//! layout `amoeba_nn::packed::PackedWeights` prepares once per frozen
//! policy. Each panel is an ordinary row-major `(K, w)` matrix, so the
//! tile reads it with the panel width `w` as its row stride. The
//! per-element mul/add sequence is unchanged, so it is bit-exact by the
//! same argument (pinned by this module's tests).

use std::fmt;

/// Which matmul execution path [`crate::matrix::Matrix::matmul_with`]
/// takes. Both run the same [`SimdLevel::detect`]-dispatched
/// register-blocked tile (see the [module docs](self)) and produce
/// bit-identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MatmulKernel {
    /// [`crate::matrix::Matrix::matmul`]'s default path.
    #[default]
    Blocked,
    /// The path `amoeba-serve`'s SIMD backend names explicitly; today
    /// the same dispatched tile as [`MatmulKernel::Blocked`].
    Simd,
}

/// The widest SIMD instruction set the running CPU offers for the f32
/// matmul tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimdLevel {
    /// 512-bit AVX-512F lanes (16 f32 per op).
    Avx512,
    /// 256-bit AVX2 lanes (8 f32 per op).
    Avx2,
    /// 128-bit SSE2 lanes (4 f32 per op; baseline on x86-64).
    Sse2,
    /// No vector unit used; plain scalar loop.
    Scalar,
}

impl fmt::Display for SimdLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SimdLevel::Avx512 => "avx512",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Scalar => "scalar",
        })
    }
}

impl SimdLevel {
    /// Detects the widest level the running CPU supports (cached after
    /// the first call). Non-x86-64 targets always report
    /// [`SimdLevel::Scalar`].
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            use std::sync::OnceLock;
            static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
            *LEVEL.get_or_init(|| {
                if std::arch::is_x86_feature_detected!("avx512f") {
                    SimdLevel::Avx512
                } else if std::arch::is_x86_feature_detected!("avx2") {
                    SimdLevel::Avx2
                } else if std::arch::is_x86_feature_detected!("sse2") {
                    SimdLevel::Sse2
                } else {
                    SimdLevel::Scalar
                }
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdLevel::Scalar
        }
    }

    /// True when this level is executable on the running CPU (scalar is
    /// always available).
    pub fn is_available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }
}

/// Rows per register tile.
const MR: usize = 4;

/// Reduction depth per pass over the output (see `gemm`): a `KC × 64`
/// AVX-512 slab of `rhs` is 32 KiB, inside a 48 KiB L1. Measured on the
/// paper preset's `64×512×1536` gate product (AVX-512 Xeon, 48 KiB L1d,
/// 2 MiB L2 per core): 14–22 GMAC/s unblocked, 22–26 GMAC/s at 128;
/// 64 and 256 were no better.
const KC: usize = 128;

/// Column-panel width of the [`pack_rhs`] layout.
const NC: usize = 256;

// Per-level operations the tile macro is written against, one module
// per level: `V` is one vector of `LANES` f32 and `M` the zero-skip mask
// of one broadcast `lhs` scalar; a tile is `MR` rows × `NV` vectors.
// Only `load`/`store` touch memory.

/// The scalar level (also every vector level's sub-lane column tail).
mod scalar {
    pub(super) type V = f32;
    pub(super) type M = bool;
    pub(super) const LANES: usize = 1;
    /// Tile width in vectors (2 measured about 2.5× slower).
    pub(super) const NV: usize = 4;

    #[inline(always)]
    pub(super) fn zero() -> V {
        0.0
    }
    #[inline(always)]
    pub(super) fn splat(a: f32) -> V {
        a
    }
    #[inline(always)]
    pub(super) fn nonzero(a: V) -> M {
        a != 0.0
    }
    /// `acc + (a * b)` where `nz`, else `acc` unchanged.
    #[inline(always)]
    pub(super) fn step(acc: V, nz: M, a: V, b: V) -> V {
        if nz {
            acc + a * b
        } else {
            acc
        }
    }
    /// # Safety
    /// `p` must be valid for reading one f32.
    #[inline(always)]
    pub(super) unsafe fn load(p: *const f32) -> V {
        // SAFETY: forwarded to the caller.
        unsafe { *p }
    }
    /// # Safety
    /// `p` must be valid for writing one f32.
    #[inline(always)]
    pub(super) unsafe fn store(p: *mut f32, v: V) {
        // SAFETY: forwarded to the caller.
        unsafe { *p = v }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    pub(super) type V = __m512;
    pub(super) type M = __mmask16;
    pub(super) const LANES: usize = 16;
    /// Tile width in vectors: 4 rows × 4 vectors = 16 zmm accumulators.
    pub(super) const NV: usize = 4;

    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn zero() -> V {
        _mm512_setzero_ps()
    }
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn splat(a: f32) -> V {
        _mm512_set1_ps(a)
    }
    /// All lanes set iff the broadcast scalar is `!= 0.0` (NaN included).
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn nonzero(a: V) -> M {
        _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(a, _mm512_setzero_ps())
    }
    /// `acc + (a * b)` in the lanes of `nz`, `acc` elsewhere.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) fn step(acc: V, nz: M, a: V, b: V) -> V {
        _mm512_mask_add_ps(acc, nz, acc, _mm512_mul_ps(a, b))
    }
    /// # Safety
    /// `p` must be valid for reading `LANES` f32 (no alignment needed).
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn load(p: *const f32) -> V {
        // SAFETY: forwarded to the caller.
        unsafe { _mm512_loadu_ps(p) }
    }
    /// # Safety
    /// `p` must be valid for writing `LANES` f32 (no alignment needed).
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn store(p: *mut f32, v: V) {
        // SAFETY: forwarded to the caller.
        unsafe { _mm512_storeu_ps(p, v) }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    pub(super) type V = __m256;
    pub(super) type M = bool;
    pub(super) const LANES: usize = 8;
    /// Tile width in vectors: 8 ymm accumulators of the 16 registers
    /// (3 vectors measured no faster).
    pub(super) const NV: usize = 2;

    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn zero() -> V {
        _mm256_setzero_ps()
    }
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn splat(a: f32) -> V {
        _mm256_set1_ps(a)
    }
    /// True iff the broadcast scalar is `!= 0.0` (NaN included).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn nonzero(a: V) -> M {
        _mm256_cvtss_f32(a) != 0.0
    }
    /// `acc + (a * b)` where `nz`, else `acc` unchanged. A branch, not a
    /// blend: the workloads' `lhs` is about 99% non-zero, where the
    /// blend measured slower.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) fn step(acc: V, nz: M, a: V, b: V) -> V {
        if nz {
            _mm256_add_ps(acc, _mm256_mul_ps(a, b))
        } else {
            acc
        }
    }
    /// # Safety
    /// `p` must be valid for reading `LANES` f32 (no alignment needed).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn load(p: *const f32) -> V {
        // SAFETY: forwarded to the caller.
        unsafe { _mm256_loadu_ps(p) }
    }
    /// # Safety
    /// `p` must be valid for writing `LANES` f32 (no alignment needed).
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn store(p: *mut f32, v: V) {
        // SAFETY: forwarded to the caller.
        unsafe { _mm256_storeu_ps(p, v) }
    }
}

#[cfg(target_arch = "x86_64")]
mod sse2 {
    use std::arch::x86_64::*;

    pub(super) type V = __m128;
    pub(super) type M = bool;
    pub(super) const LANES: usize = 4;
    /// Tile width in vectors: 12 xmm accumulators of the 16 registers
    /// (measured 5–9 GMAC/s, against 3–5 at 2 vectors).
    pub(super) const NV: usize = 3;

    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn zero() -> V {
        _mm_setzero_ps()
    }
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn splat(a: f32) -> V {
        _mm_set1_ps(a)
    }
    /// True iff the broadcast scalar is `!= 0.0` (NaN included).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn nonzero(a: V) -> M {
        _mm_cvtss_f32(a) != 0.0
    }
    /// `acc + (a * b)` where `nz`, else `acc` unchanged. SSE2 has no
    /// blend, and its and/andnot/or select measured slower than this
    /// branch even with half of `lhs` zero.
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) fn step(acc: V, nz: M, a: V, b: V) -> V {
        if nz {
            _mm_add_ps(acc, _mm_mul_ps(a, b))
        } else {
            acc
        }
    }
    /// # Safety
    /// `p` must be valid for reading `LANES` f32 (no alignment needed).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn load(p: *const f32) -> V {
        // SAFETY: forwarded to the caller.
        unsafe { _mm_loadu_ps(p) }
    }
    /// # Safety
    /// `p` must be valid for writing `LANES` f32 (no alignment needed).
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn store(p: *mut f32, v: V) {
        // SAFETY: forwarded to the caller.
        unsafe { _mm_storeu_ps(p, v) }
    }
}

/// Generates one strided matmul per level from a **single** tile
/// definition, parameterised only by the level's ops module and (for the
/// vector levels) a `#[target_feature]` attribute. The generated
/// `$name(a, lda, kk, b, ldb, c, ldc, m, n)` accumulates
/// `c[i*ldc + j] += Σ_{k < kk} a[i*lda + k] * b[k*ldb + j]` for `i < m`,
/// `j < n`, in ascending `k`.
///
/// Columns are walked in full `NV`-vector tiles, then single-vector
/// tiles, then (vector levels only) the last `n % LANES` columns through
/// `gemm_scalar`; rows in `MR`-row tiles, then one tile of the
/// remaining `m % MR` rows. Every row tile of a column strip reads the
/// same `kk × NR` slab of `b`, so the slab stays cache-hot.
///
/// # Safety
/// Caller must guarantee, whenever `m, n, kk > 0`: `kk ≤ lda`,
/// `n ≤ ldb`, `n ≤ ldc`; `a` valid for reading `(m - 1) * lda + kk` f32,
/// `b` for reading `(kk - 1) * ldb + n` f32 and `c` for reading and
/// writing `(m - 1) * ldc + n` f32; and, for the `#[target_feature]`
/// variants, that the feature is available on the host.
macro_rules! tile_gemm_impl {
    ($(#[$attr:meta])* $name:ident, $ops:ident) => {
        $(#[$attr])*
        #[allow(clippy::too_many_arguments)]
        // SAFETY: the contract in the `tile_gemm_impl!` docs; `gemm`
        // establishes it from the asserted slice sizes.
        unsafe fn $name(
            a: *const f32,
            lda: usize,
            kk: usize,
            b: *const f32,
            ldb: usize,
            c: *mut f32,
            ldc: usize,
            m: usize,
            n: usize,
        ) {
            const NR: usize = $ops::NV * $ops::LANES;
            debug_assert!(kk <= lda && n <= ldb && n <= ldc);
            let mut j = 0;
            // Each arm covers columns `j..j + width` with `j + width ≤ n`,
            // so the strip's `b`/`c` pointers stay inside the caller's
            // bounds; `a` is passed unchanged.
            while j < n {
                let left = n - j;
                if left >= NR {
                    // SAFETY: `width = NR ≤ left` (see above).
                    unsafe { rows::<{ $ops::NV }>(a, lda, kk, b.add(j), ldb, c.add(j), ldc, m) };
                    j += NR;
                } else if left >= $ops::LANES {
                    // SAFETY: `width = LANES ≤ left` (see above).
                    unsafe { rows::<1>(a, lda, kk, b.add(j), ldb, c.add(j), ldc, m) };
                    j += $ops::LANES;
                } else {
                    // SAFETY: `width = left` (see above); no target feature.
                    unsafe { gemm_scalar(a, lda, kk, b.add(j), ldb, c.add(j), ldc, m, left) };
                    j = n;
                }
            }

            /// One `NV`-vector column strip: `MR`-row tiles, then the row
            /// tail.
            $(#[$attr])*
            #[inline]
            // SAFETY: `$name`'s contract with `n = NV * LANES`.
            unsafe fn rows<const NV: usize>(
                a: *const f32,
                lda: usize,
                kk: usize,
                b: *const f32,
                ldb: usize,
                c: *mut f32,
                ldc: usize,
                m: usize,
            ) {
                let mut i = 0;
                while i + MR <= m {
                    // SAFETY: rows `i..i + MR` with `i + MR ≤ m`, so the
                    // row offsets stay inside `a` and `c`.
                    unsafe { tile::<MR, NV>(a.add(i * lda), lda, kk, b, ldb, c.add(i * ldc), ldc) };
                    i += MR;
                }
                let (a, c) = (a.wrapping_add(i * lda), c.wrapping_add(i * ldc));
                // SAFETY: the tile of the last `m - i < MR` rows, which
                // start at `a`/`c` as offset just above.
                unsafe {
                    match m - i {
                        0 => {}
                        1 => tile::<1, NV>(a, lda, kk, b, ldb, c, ldc),
                        2 => tile::<2, NV>(a, lda, kk, b, ldb, c, ldc),
                        3 => tile::<3, NV>(a, lda, kk, b, ldb, c, ldc),
                        _ => unreachable!("row tail is shorter than MR = 4"),
                    }
                }
            }

            /// One `R × NV·LANES` tile: accumulators loaded from `c`,
            /// held in registers over the whole `k` loop, stored back.
            $(#[$attr])*
            #[inline]
            // SAFETY: `$name`'s contract with `m = R`, `n = NV * LANES`.
            unsafe fn tile<const R: usize, const NV: usize>(
                a: *const f32,
                lda: usize,
                kk: usize,
                b: *const f32,
                ldb: usize,
                c: *mut f32,
                ldc: usize,
            ) {
                use $ops::{load, nonzero, splat, step, store, zero, LANES};
                let mut acc = [[zero(); NV]; R];
                for (r, row) in acc.iter_mut().enumerate() {
                    for (v, x) in row.iter_mut().enumerate() {
                        // SAFETY: element `(r, v * LANES)` of the tile,
                        // `LANES` wide, inside `c`.
                        *x = unsafe { load(c.add(r * ldc + v * LANES)) };
                    }
                }
                for k in 0..kk {
                    // SAFETY: `b` row `k < kk`; the `NV` vectors span
                    // this tile's `NV * LANES ≤ ldb` columns.
                    let bk = unsafe { b.add(k * ldb) };
                    let mut vb = [zero(); NV];
                    for (v, x) in vb.iter_mut().enumerate() {
                        // SAFETY: as above.
                        *x = unsafe { load(bk.add(v * LANES)) };
                    }
                    for (r, row) in acc.iter_mut().enumerate() {
                        // SAFETY: `a` element `(r, k)` with `r < R`,
                        // `k < kk`.
                        let va = splat(unsafe { *a.add(r * lda + k) });
                        let nz = nonzero(va);
                        for (x, &bv) in row.iter_mut().zip(&vb) {
                            *x = step(*x, nz, va, bv);
                        }
                    }
                }
                for (r, row) in acc.iter().enumerate() {
                    for (v, &x) in row.iter().enumerate() {
                        // SAFETY: the element loaded above.
                        unsafe { store(c.add(r * ldc + v * LANES), x) };
                    }
                }
            }
        }
    };
}

tile_gemm_impl!(gemm_scalar, scalar);

#[cfg(target_arch = "x86_64")]
tile_gemm_impl!(
    #[target_feature(enable = "avx512f")]
    gemm_avx512,
    avx512
);

#[cfg(target_arch = "x86_64")]
tile_gemm_impl!(
    #[target_feature(enable = "avx2")]
    gemm_avx2,
    avx2
);

#[cfg(target_arch = "x86_64")]
tile_gemm_impl!(
    #[target_feature(enable = "sse2")]
    gemm_sse2,
    sse2
);

/// Runs the tile at `level` over a `(m, kk)` row-major `lhs`, a `(kk, n)`
/// right operand of row stride `ldb` starting at `rhs[0]`, and a `(m, n)`
/// output of row stride `ldc` starting at `out[0]`. The bounds are
/// checked here, once per call, so the tile itself runs unchecked.
///
/// The reduction is walked in `KC`-deep blocks: each block's partial
/// sums are stored to `out` and reloaded by the next block's tiles. An
/// f32 store and load are exact, so every element still sees one
/// ascending-`k` sequence of `acc + (a * b)` steps; the blocking only
/// keeps a column strip's `KC × NR` slab of `rhs` in L1 across the row
/// tiles.
///
/// # Panics
/// Panics if a slice is too short for its shape, or if `level` is not
/// available on this CPU.
#[allow(clippy::too_many_arguments)]
fn gemm(
    level: SimdLevel,
    lhs: &[f32],
    rhs: &[f32],
    ldb: usize,
    out: &mut [f32],
    ldc: usize,
    m: usize,
    kk: usize,
    n: usize,
) {
    assert!(
        level.is_available(),
        "matmul: {level} not available on host"
    );
    if m == 0 || kk == 0 || n == 0 {
        return;
    }
    assert!(n <= ldb && n <= ldc, "matmul: row stride below width");
    assert!(lhs.len() >= m * kk, "matmul: lhs size");
    assert!(rhs.len() >= (kk - 1) * ldb + n, "matmul: rhs size");
    assert!(out.len() >= (m - 1) * ldc + n, "matmul: out size");
    let mut k0 = 0;
    while k0 < kk {
        let kc = KC.min(kk - k0);
        let (a, b, c) = (
            lhs[k0..].as_ptr(),
            rhs[k0 * ldb..].as_ptr(),
            out.as_mut_ptr(),
        );
        match level {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the asserts above bound every tile access: rows read
            // `lhs[k0 + i * kk..][..kc]`, `rhs[(k0 + k) * ldb..][..n]`.
            SimdLevel::Avx512 => unsafe { gemm_avx512(a, kk, kc, b, ldb, c, ldc, m, n) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: sizes and strides asserted above; availability too.
            SimdLevel::Avx2 => unsafe { gemm_avx2(a, kk, kc, b, ldb, c, ldc, m, n) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: sizes and strides asserted above; availability too.
            SimdLevel::Sse2 => unsafe { gemm_sse2(a, kk, kc, b, ldb, c, ldc, m, n) },
            // SAFETY: sizes and strides asserted above; no target feature.
            _ => unsafe { gemm_scalar(a, kk, kc, b, ldb, c, ldc, m, n) },
        }
        k0 += kc;
    }
}

/// Accumulates `lhs * rhs` into the zeroed `out` buffer through the tile
/// at `level` — the single entry point behind
/// [`crate::matrix::Matrix::matmul_with`] (and therefore
/// [`crate::matrix::Matrix::matmul`]). `lhs` is `(m, kk)` row-major,
/// `rhs` is `(kk, n)`, `out` is `(m, n)` and must start zeroed. Every
/// level produces the same bits.
///
/// # Panics
/// Panics on slice/dimension mismatch or an unavailable level.
pub(crate) fn matmul_into(
    level: SimdLevel,
    lhs: &[f32],
    rhs: &[f32],
    out: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
) {
    assert_eq!(lhs.len(), m * kk, "matmul_into: lhs size");
    assert_eq!(rhs.len(), kk * n, "matmul_into: rhs size");
    assert_eq!(out.len(), m * n, "matmul_into: out size");
    gemm(level, lhs, rhs, n, out, n, m, kk, n);
}

/// Reorders a row-major `(kk, n)` right operand into the panel-packed
/// layout [`matmul_packed_into`] consumes: `NC`-wide column panels in
/// ascending column order, each panel stored `k`-major (panel for columns
/// `[j0, j1)` occupies `packed[kk * j0..kk * j1]`, with row `k` of the
/// panel at offset `k * (j1 - j0)`). The packed buffer holds exactly the
/// same `kk * n` values — only their order changes, so packing is a pure
/// layout transform done once per weight matrix (at policy freeze), never
/// per matmul.
pub fn pack_rhs(rhs: &[f32], kk: usize, n: usize) -> Vec<f32> {
    assert_eq!(rhs.len(), kk * n, "pack_rhs: rhs size");
    let mut packed = Vec::with_capacity(kk * n);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + NC).min(n);
        for k in 0..kk {
            packed.extend_from_slice(&rhs[k * n + j0..k * n + j1]);
        }
        j0 = j1;
    }
    packed
}

/// Accumulates `lhs * rhs` into the zeroed `out` buffer where `rhs` was
/// pre-packed by [`pack_rhs`]: the same tile as the unpacked
/// `matmul_into`, run once per panel with the panel width as the row
/// stride. Bit-identical to it (and therefore to
/// [`crate::matrix::Matrix::matmul_naive`]) on every input at every
/// level, because packing permutes only the *addresses* of the weight
/// loads, never any element's ascending-`k` summation order or its
/// mul/add roundings. `lhs` is `(m, kk)` row-major, `packed` is the
/// [`pack_rhs`] image of the `(kk, n)` right operand, `out` is `(m, n)`
/// and must start zeroed.
///
/// # Panics
/// Panics on slice/dimension mismatch or an unavailable level.
pub fn matmul_packed_into(
    level: SimdLevel,
    lhs: &[f32],
    packed: &[f32],
    out: &mut [f32],
    m: usize,
    kk: usize,
    n: usize,
) {
    assert_eq!(lhs.len(), m * kk, "matmul_packed_into: lhs size");
    assert_eq!(packed.len(), kk * n, "matmul_packed_into: packed size");
    assert_eq!(out.len(), m * n, "matmul_packed_into: out size");
    if m == 0 || kk == 0 || n == 0 {
        return;
    }
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + NC).min(n);
        let panel = &packed[kk * j0..kk * j1];
        gemm(
            level,
            lhs,
            panel,
            j1 - j0,
            &mut out[j0..],
            n,
            m,
            kk,
            j1 - j0,
        );
        j0 = j1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn levels_on_host() -> Vec<SimdLevel> {
        [
            SimdLevel::Avx512,
            SimdLevel::Avx2,
            SimdLevel::Sse2,
            SimdLevel::Scalar,
        ]
        .into_iter()
        .filter(|l| l.is_available())
        .collect()
    }

    /// Operands that probe the exactness rules. `lhs` is about a quarter
    /// `±0.0`, and its column 0 is `±0.0` except on every third row.
    /// Over the columns, `rhs` row 0 cycles `+Inf, -Inf, NaN_a, NaN_b,
    /// finite` and row 1 (when `k > 1`) cycles `-Inf, -Inf, finite,
    /// finite, NaN_b`, with `NaN_a`/`NaN_b` of different sign and
    /// payload. So `0 · Inf` and `0 · NaN` must stay skipped on most
    /// rows, `Inf - Inf` must give the default NaN, and a NaN's sign and
    /// payload must carry through every later add.
    ///
    /// No element ever adds two NaNs of different payloads: which one
    /// survives is left to the compiler (Rust leaves the NaN payload of
    /// an operation with two NaN inputs unspecified, and LLVM commutes
    /// the add), so not even `matmul_naive` is consistent about it — it
    /// keeps the accumulator's payload when its inner loop is
    /// vectorised and the product's when it is not.
    fn edge_operands(m: usize, k: usize, n: usize, rng: &mut StdRng) -> (Matrix, Matrix) {
        let mut a = Matrix::randn(m, k, 1.0, rng);
        for (idx, v) in a.as_mut_slice().iter_mut().enumerate() {
            let (i, kc) = (idx / k, idx % k);
            if (kc == 0 && i % 3 != 2) || rng.gen_range(0.0f32..1.0) < 0.25 {
                *v = if rng.gen_range(0.0f32..1.0) < 0.5 {
                    0.0
                } else {
                    -0.0
                };
            }
        }
        let mut b = Matrix::randn(k, n, 1.0, rng);
        let (inf, nan_a, nan_b) = (f32::INFINITY, f32::NAN, f32::from_bits(0xffc0_1234));
        let rows = [
            [Some(inf), Some(-inf), Some(nan_a), Some(nan_b), None],
            [Some(-inf), Some(-inf), None, None, Some(nan_b)],
        ];
        for (r, specials) in rows.iter().enumerate().take(k) {
            for (j, v) in b.row_mut(r).iter_mut().enumerate() {
                if let Some(s) = specials[j % 5] {
                    *v = s;
                }
            }
        }
        (a, b)
    }

    /// Forces every level on the host through both entry points and
    /// compares each output element's bits with `matmul_naive`.
    fn assert_levels_match_naive(a: &Matrix, b: &Matrix) {
        let ((m, k), n) = (a.shape(), b.cols());
        let naive = a.matmul_naive(b);
        let packed = pack_rhs(b.as_slice(), k, n);
        for level in levels_on_host() {
            let mut out = vec![0.0f32; m * n];
            matmul_into(level, a.as_slice(), b.as_slice(), &mut out, m, k, n);
            let mut out_packed = vec![0.0f32; m * n];
            matmul_packed_into(level, a.as_slice(), &packed, &mut out_packed, m, k, n);
            for (idx, &want) in naive.as_slice().iter().enumerate() {
                let (i, j) = (idx / n, idx % n);
                assert_eq!(
                    out[idx].to_bits(),
                    want.to_bits(),
                    "matmul_into {level} {m}x{k}x{n} at ({i},{j})"
                );
                assert_eq!(
                    out_packed[idx].to_bits(),
                    want.to_bits(),
                    "matmul_packed_into {level} {m}x{k}x{n} at ({i},{j})"
                );
            }
        }
    }

    /// Every level, both entry points, on shapes that straddle every
    /// tile edge: row tails (`m % 4`), single-vector and sub-lane column
    /// tails for every lane width (16/8/4), the 64-column AVX-512 tile,
    /// the 256-column packed panel and the paper preset's 1536-wide gate
    /// matmul — with `±0.0` in `lhs` and `±Inf`/NaN in `rhs`.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn every_level_matches_naive_across_tile_edges() {
        let mut rng = StdRng::seed_from_u64(47);
        for m in [1usize, 3, 4, 5, 9, 64] {
            for n in [1usize, 4, 15, 16, 17, 63, 64, 65, 192, 1536] {
                for k in [1usize, 2, 512] {
                    let (a, b) = edge_operands(m, k, n, &mut rng);
                    assert_levels_match_naive(&a, &b);
                }
            }
        }
    }

    /// The same check on shapes small enough for miri, which runs the
    /// SSE2 and scalar instantiations of the tile on x86-64 (SSE2 is a
    /// baseline target feature, so it is detected there too) — the
    /// tile's pointer arithmetic, row tail and column tail included.
    #[test]
    fn every_level_matches_naive_on_small_shapes() {
        let mut rng = StdRng::seed_from_u64(61);
        for m in [1usize, 3, 5] {
            for n in [1usize, 3, 6, 17] {
                for k in [1usize, 2, 3] {
                    let (a, b) = edge_operands(m, k, n, &mut rng);
                    assert_levels_match_naive(&a, &b);
                }
            }
        }
    }

    /// The zero-skip rule at the bit level: a skipped term leaves the
    /// accumulator untouched, `-0.0` included. With an all-`±0.0` `lhs`
    /// every term is skipped, so an output pre-set to `-0.0` must stay
    /// `-0.0` against any `rhs`; adding a zeroed product instead would
    /// turn it into `+0.0`, and a `0 · Inf` product into NaN.
    #[test]
    fn skipped_terms_leave_a_negative_zero_accumulator() {
        let specials = [1.0, f32::INFINITY, f32::NAN, -2.5];
        for level in levels_on_host() {
            for (m, k, n) in [(1usize, 1usize, 1usize), (5, 3, 17), (4, 2, 64)] {
                let lhs: Vec<f32> = (0..m * k)
                    .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
                    .collect();
                let rhs: Vec<f32> = (0..k * n).map(|i| specials[i % 4]).collect();
                let mut out = vec![-0.0f32; m * n];
                matmul_into(level, &lhs, &rhs, &mut out, m, k, n);
                let packed = pack_rhs(&rhs, k, n);
                let mut out_packed = vec![-0.0f32; m * n];
                matmul_packed_into(level, &lhs, &packed, &mut out_packed, m, k, n);
                for v in out.iter().chain(&out_packed) {
                    assert_eq!(v.to_bits(), (-0.0f32).to_bits(), "{level} {m}x{k}x{n}");
                }
            }
        }
    }

    /// The detected level is available, and on x86-64 it is never scalar
    /// (SSE2 is architecturally guaranteed).
    #[test]
    fn detected_level_is_available() {
        let level = SimdLevel::detect();
        assert!(level.is_available());
        #[cfg(target_arch = "x86_64")]
        assert_ne!(level, SimdLevel::Scalar);
    }

    /// Zero-sized operands short-circuit identically to the reference,
    /// through both entry points at every level — `(0, 4, 300)` spans
    /// more than one packed panel with no output rows.
    #[test]
    fn empty_dims_are_zero() {
        for (m, k, n) in [(2usize, 0usize, 3usize), (0, 4, 5), (0, 4, 300), (3, 4, 0)] {
            let a = Matrix::zeros(m, k);
            let b = Matrix::zeros(k, n);
            let out = a.matmul_with(&b, MatmulKernel::Simd);
            assert_eq!(out.shape(), (m, n));
            assert!(out.as_slice().iter().all(|&v| v.to_bits() == 0));
            assert_levels_match_naive(&a, &b);
        }
    }

    /// `pack_rhs` is a pure permutation: every element of the original
    /// row-major operand appears exactly once in the packed buffer, at
    /// the documented panel offset.
    #[test]
    fn pack_rhs_is_a_permutation_at_documented_offsets() {
        let mut rng = StdRng::seed_from_u64(59);
        for &(kk, n) in &[
            (1usize, 1usize),
            (3, 7),
            (5, 255),
            (4, 256),
            (2, 261),
            (64, 300),
        ] {
            let rhs: Vec<f32> = (0..kk * n).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
            let packed = pack_rhs(&rhs, kk, n);
            assert_eq!(packed.len(), kk * n);
            for j0 in (0..n).step_by(NC) {
                let j1 = (j0 + NC).min(n);
                let w = j1 - j0;
                let panel = &packed[kk * j0..kk * j1];
                for k in 0..kk {
                    assert_eq!(
                        &panel[k * w..(k + 1) * w],
                        &rhs[k * n + j0..k * n + j1],
                        "({kk},{n}) panel {j0} row {k}"
                    );
                }
            }
        }
    }

    /// Both kernel choices agree bit-for-bit (the contract
    /// `amoeba-serve`'s backend-conformance suite leans on).
    #[test]
    #[cfg_attr(miri, ignore)]
    fn kernel_choices_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(53);
        let a = Matrix::randn(17, 33, 1.0, &mut rng);
        let b = Matrix::randn(33, 129, 1.0, &mut rng);
        let blocked = a.matmul_with(&b, MatmulKernel::Blocked);
        let simd = a.matmul_with(&b, MatmulKernel::Simd);
        for (x, y) in blocked.as_slice().iter().zip(simd.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(MatmulKernel::default(), MatmulKernel::Blocked);
    }
}
