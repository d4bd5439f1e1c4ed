//! The AVX2+FMA micro-kernel for x86_64.
//!
//! Accumulators run along M: each column of the C tile owns one or two
//! vector registers of rows, each `B(p, j)` is broadcast and fused
//! into them (`vfmadd231`), the `vfmacc.vf` pattern of a vector-length
//! agnostic kernel. `A` is read with a stride and `B` through a
//! `(column, k)` stride pair, so one body serves packed and unpacked
//! operands; with `B` broadcast, an unpacked `B` needs no gather.
//!
//! A tile is cut into strips of at most two vectors of rows and
//! [`MAX_ACC`] accumulator registers, so any `mr × nr` runs with
//! the accumulators in registers. A strip of at most one `xmm` of rows
//! runs on 128-bit registers. Row tails use masked loads and stores
//! (`vmaskmov`), which never touch memory outside the tile.

use std::arch::x86_64::*;

use super::RawTile;

/// Accumulator registers per strip: 12 of the 16 `ymm` registers,
/// leaving room for two `A` vectors and one broadcast `B` element.
const MAX_ACC: usize = 12;

/// Does this CPU have AVX2 and FMA? `is_x86_feature_detected!` probes
/// CPUID once per process and caches the answer, so this costs one
/// load after the first call.
#[inline]
pub(super) fn available() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

/// One vector register type and the operations the kernel needs.
///
/// # Safety
/// Every method requires a CPU with AVX2 and FMA. The pointer-taking
/// methods additionally require `p` to be valid for the lanes they
/// touch: all [`Vector::LANES`] lanes for `load`/`store`, the lanes a
/// `mask` enables for `load_masked`/`store_masked`.
pub(super) trait Vector {
    /// Element type.
    type E: Copy;
    /// Register type.
    type R: Copy;
    /// Lane-mask type for the masked loads and stores.
    type M: Copy;
    /// Elements per register.
    const LANES: usize;
    // SAFETY: `unsafe fn` declarations — callers discharge the
    // trait-level `# Safety` contract.
    unsafe fn zero() -> Self::R;
    // SAFETY: as above.
    unsafe fn splat(x: Self::E) -> Self::R;
    // SAFETY: as above.
    unsafe fn fmadd(a: Self::R, b: Self::R, c: Self::R) -> Self::R;
    // SAFETY: as above.
    unsafe fn mask(valid: usize) -> Self::M;
    // SAFETY: as above.
    unsafe fn load(p: *const Self::E) -> Self::R;
    // SAFETY: as above.
    unsafe fn load_masked(p: *const Self::E, m: Self::M) -> Self::R;
    // SAFETY: as above.
    unsafe fn store(p: *mut Self::E, v: Self::R);
    // SAFETY: as above.
    unsafe fn store_masked(p: *mut Self::E, m: Self::M, v: Self::R);
}

macro_rules! vector {
    (
        $(#[$doc:meta])*
        $name:ident: $e:ty => $r:ty, $m:ty, lanes $lanes:literal,
        zero $zero:ident, splat $splat:ident, fmadd $fmadd:ident,
        mask |$valid:ident| $mask:expr,
        load $load:ident, load_masked $mload:ident,
        store $store:ident, store_masked $mstore:ident $(,)?
    ) => {
        $(#[$doc])*
        pub(super) struct $name;

        impl Vector for $name {
            type E = $e;
            type R = $r;
            type M = $m;
            const LANES: usize = $lanes;
            // SAFETY: the trait's `# Safety` contract (AVX2+FMA present)
            // is what `target_feature` requires.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn zero() -> $r {
                $zero()
            }
            // SAFETY: as above.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn splat(x: $e) -> $r {
                $splat(x)
            }
            // SAFETY: as above.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn fmadd(a: $r, b: $r, c: $r) -> $r {
                $fmadd(a, b, c)
            }
            // SAFETY: as above.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn mask($valid: usize) -> $m {
                $mask
            }
            // SAFETY: as above, plus the caller's pointer contract.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn load(p: *const $e) -> $r {
                // SAFETY: `p` is valid for `LANES` reads (trait contract).
                unsafe { $load(p) }
            }
            // SAFETY: as above.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn load_masked(p: *const $e, m: $m) -> $r {
                // SAFETY: `p` is valid for the lanes `m` enables.
                unsafe { $mload(p, m) }
            }
            // SAFETY: as above.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn store(p: *mut $e, v: $r) {
                // SAFETY: `p` is valid for `LANES` writes.
                unsafe { $store(p, v) }
            }
            // SAFETY: as above.
            #[inline]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn store_masked(p: *mut $e, m: $m, v: $r) {
                // SAFETY: `p` is valid for the lanes `m` enables.
                unsafe { $mstore(p, m, v) }
            }
        }
    };
}

vector! {
    /// Eight `f32` lanes in a `ymm` register.
    F32x8: f32 => __m256, __m256i, lanes 8,
    zero _mm256_setzero_ps, splat _mm256_set1_ps, fmadd _mm256_fmadd_ps,
    mask |valid| _mm256_cmpgt_epi32(
        _mm256_set1_epi32(valid as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    ),
    load _mm256_loadu_ps, load_masked _mm256_maskload_ps,
    store _mm256_storeu_ps, store_masked _mm256_maskstore_ps,
}

vector! {
    /// Four `f32` lanes in an `xmm` register.
    F32x4: f32 => __m128, __m128i, lanes 4,
    zero _mm_setzero_ps, splat _mm_set1_ps, fmadd _mm_fmadd_ps,
    mask |valid| _mm_cmpgt_epi32(_mm_set1_epi32(valid as i32), _mm_setr_epi32(0, 1, 2, 3)),
    load _mm_loadu_ps, load_masked _mm_maskload_ps,
    store _mm_storeu_ps, store_masked _mm_maskstore_ps,
}

vector! {
    /// Four `f64` lanes in a `ymm` register.
    F64x4: f64 => __m256d, __m256i, lanes 4,
    zero _mm256_setzero_pd, splat _mm256_set1_pd, fmadd _mm256_fmadd_pd,
    mask |valid| _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(valid as i64),
        _mm256_setr_epi64x(0, 1, 2, 3),
    ),
    load _mm256_loadu_pd, load_masked _mm256_maskload_pd,
    store _mm256_storeu_pd, store_masked _mm256_maskstore_pd,
}

vector! {
    /// Two `f64` lanes in an `xmm` register.
    F64x2: f64 => __m128d, __m128i, lanes 2,
    zero _mm_setzero_pd, splat _mm_set1_pd, fmadd _mm_fmadd_pd,
    mask |valid| _mm_cmpgt_epi64(_mm_set1_epi64x(valid as i64), _mm_set_epi64x(1, 0)),
    load _mm_loadu_pd, load_masked _mm_maskload_pd,
    store _mm_storeu_pd, store_masked _mm_maskstore_pd,
}

/// Run one tile: row strips of at most two `Y` vectors, each on `X`
/// registers when it fits one.
///
/// # Safety
/// The CPU has AVX2 and FMA, and `t` satisfies the [`RawTile`] pointer
/// contract.
// SAFETY: an `unsafe fn` declaration — callers discharge the contract
// documented above.
#[target_feature(enable = "avx2,fma")]
pub(super) unsafe fn tile<Y, X>(t: &RawTile<Y::E>)
where
    Y: Vector,
    X: Vector<E = Y::E>,
{
    let mut i0 = 0;
    while i0 < t.mr {
        let rows = (t.mr - i0).min(2 * Y::LANES);
        // SAFETY: rows `i0..i0 + rows` lie inside the tile, so the
        // strip inherits the caller's contract.
        unsafe {
            if rows <= X::LANES {
                strip_columns::<X>(t, i0, rows);
            } else {
                strip_columns::<Y>(t, i0, rows);
            }
        }
        i0 += rows;
    }
}

/// Instantiate the strip kernel for a runtime column count.
macro_rules! by_columns {
    ($nc:expr, $args:expr, $v:ty, $mv:literal, $masked:literal, $unit:literal, [$($n:literal)*]) => {
        match $nc {
            $( $n => strip::<$v, $mv, $n, $masked, $unit>($args), )*
            _ => unreachable!("column strip wider than the accumulator budget"),
        }
    };
}

/// Rows `i0..i0 + rows` of the tile (at most two `V` vectors), cut into
/// column strips of at most [`MAX_ACC`] accumulators.
///
/// # Safety
/// As [`tile`], with `i0 + rows <= t.mr` and `rows <= 2 * V::LANES`.
// SAFETY: an `unsafe fn` declaration — callers discharge the contract
// documented above.
#[target_feature(enable = "avx2,fma")]
unsafe fn strip_columns<V: Vector>(t: &RawTile<V::E>, i0: usize, rows: usize) {
    let mv = rows.div_ceil(V::LANES);
    let masked = !rows.is_multiple_of(V::LANES);
    // SAFETY: AVX2 is present (caller contract); `mask` touches no memory.
    let mask = unsafe { V::mask(rows - (mv - 1) * V::LANES) };
    let max_cols = MAX_ACC / mv;
    // Packed B has unit column stride: its column offsets become
    // immediate displacements.
    let unit_col = t.b_col == 1;
    let mut j0 = 0;
    while j0 < t.nr {
        let nc = (t.nr - j0).min(max_cols);
        // Strip origins; offsets stay inside the tile, but `wrapping_add`
        // keeps the arithmetic defined even where `kc == 0` leaves A and
        // B empty.
        let a = t.a.wrapping_add(i0);
        let b = t.b.wrapping_add(j0 * t.b_col);
        let c = t.c.wrapping_add(j0 * t.ldc + i0);
        let args = (t, a, b, c, mask);
        // SAFETY: the strip covers rows `i0..i0 + rows` and columns
        // `j0..j0 + nc` of the tile, inside the caller's contract; the
        // mask enables exactly the rows of the last vector.
        unsafe {
            match (mv, masked, unit_col) {
                (1, false, false) => {
                    by_columns!(nc, args, V, 1, false, false, [1 2 3 4 5 6 7 8 9 10 11 12])
                }
                (1, false, true) => {
                    by_columns!(nc, args, V, 1, false, true, [1 2 3 4 5 6 7 8 9 10 11 12])
                }
                (1, true, false) => {
                    by_columns!(nc, args, V, 1, true, false, [1 2 3 4 5 6 7 8 9 10 11 12])
                }
                (1, true, true) => {
                    by_columns!(nc, args, V, 1, true, true, [1 2 3 4 5 6 7 8 9 10 11 12])
                }
                (2, false, false) => by_columns!(nc, args, V, 2, false, false, [1 2 3 4 5 6]),
                (2, false, true) => by_columns!(nc, args, V, 2, false, true, [1 2 3 4 5 6]),
                (2, true, false) => by_columns!(nc, args, V, 2, true, false, [1 2 3 4 5 6]),
                (2, true, true) => by_columns!(nc, args, V, 2, true, true, [1 2 3 4 5 6]),
                _ => unreachable!("row strip wider than two vectors"),
            }
        }
        j0 += nc;
    }
}

/// Operands of one strip: the tile, then the strip's `A`, `B` and `C`
/// origins and the row mask of its last vector.
type StripArgs<'t, V> = (
    &'t RawTile<<V as Vector>::E>,
    *const <V as Vector>::E,
    *const <V as Vector>::E,
    *mut <V as Vector>::E,
    <V as Vector>::M,
);

/// The register-tile body: `MV` vectors of rows by `NC` columns, the
/// last vector masked when `MASKED`, `B` columns one element apart
/// when `UNIT_COL` (packed `B`).
///
/// # Safety
/// AVX2+FMA are present; `a`, `b` and `c` head a strip of `MV` vectors
/// (the last limited to the rows `mask` enables) by `NC` columns
/// inside the tile of `t`, which satisfies the [`RawTile`] contract.
// SAFETY: an `unsafe fn` declaration — callers discharge the contract
// documented above.
#[target_feature(enable = "avx2,fma")]
unsafe fn strip<
    V: Vector,
    const MV: usize,
    const NC: usize,
    const MASKED: bool,
    const UNIT_COL: bool,
>(
    (t, a, b, c, mask): StripArgs<'_, V>,
) {
    // SAFETY: every pointer below addresses a row of the strip in A
    // (`a + p*a_stride + v*LANES`), an element of it in B
    // (`b + j*b_col + p*b_k`) or a row of it in C (`c + j*ldc +
    // v*LANES`) for p < kc, j < NC, v < MV — inside the footprints of
    // the `RawTile` contract; the last vector is masked to the strip's
    // rows whenever the strip ends mid-vector.
    unsafe {
        let mut acc = [[V::zero(); MV]; NC];
        // One pointer per B column, stepped by a shared k offset. For a
        // strided B the pointers pass through `black_box`: otherwise the
        // optimizer re-derives them as a chain of adds (one per column
        // per k step), which costs more than the loop's FMAs can hide.
        let b_col = if UNIT_COL { 1 } else { t.b_col };
        let cols: [*const V::E; NC] = std::array::from_fn(|j| b.wrapping_add(j * b_col));
        let cols = if UNIT_COL {
            cols
        } else {
            std::hint::black_box(cols)
        };
        let mut ap = a;
        let mut off = 0;
        for _ in 0..t.kc {
            let mut av = [V::zero(); MV];
            for (v, x) in av.iter_mut().enumerate() {
                let p = ap.add(v * V::LANES);
                *x = if MASKED && v + 1 == MV {
                    V::load_masked(p, mask)
                } else {
                    V::load(p)
                };
            }
            for (col, &bj) in acc.iter_mut().zip(cols.iter()) {
                let bj = V::splat(*bj.add(off));
                for (x, &s) in col.iter_mut().zip(av.iter()) {
                    *x = V::fmadd(s, bj, *x);
                }
            }
            ap = ap.wrapping_add(t.a_stride);
            off += t.b_k;
        }
        let alpha = V::splat(t.alpha);
        for (j, col) in acc.iter().enumerate() {
            for (v, &x) in col.iter().enumerate() {
                let p = c.add(j * t.ldc + v * V::LANES);
                if MASKED && v + 1 == MV {
                    V::store_masked(p, mask, V::fmadd(alpha, x, V::load_masked(p, mask)));
                } else {
                    V::store(p, V::fmadd(alpha, x, V::load(p)));
                }
            }
        }
    }
}
