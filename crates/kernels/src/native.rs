//! Native (host-executed) micro-kernels.
//!
//! These perform the real arithmetic. One kernel family serves every
//! native GEMM path; each call updates a column-major `mr × nr` block
//! of `C` with leading dimension `ldc`, computing `C += alpha · Ã · B̃`
//! as Algorithm 1 (GEBP) of the paper does: accumulate into a register
//! tile, then merge into `C`. The operands may be packed or not:
//!
//! * `A` — `mr` rows per k step, `a[p*a_stride + i] = A(i, p)`; the
//!   packed sliver of Fig. 2 has `a_stride = mr`, an unpacked
//!   column-major `A` has `a_stride = lda` (§IV's packing-optional
//!   kernel);
//! * `B` — a packed k-major sliver `b[p*nr + j]` or an unpacked
//!   column-major block `b[j*ldb + p]` ([`BLayout`]).
//!
//! Every element is computed with fused multiply-adds in one order:
//! `acc = fma(a, b, acc)` over `p = 0..kc`, then `c = fma(alpha, acc,
//! c)`. On x86_64 hosts with AVX2+FMA (detected at run time) the
//! explicit SIMD kernel of the `avx2` module runs; elsewhere, and under
//! Miri, the portable kernel does. Because both round identically, the
//! result is the same bits on every host and at every thread count.

use std::marker::PhantomData;

use crate::scalar::Scalar;

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx2;

/// How the `B` operand of a micro-kernel call is stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BLayout {
    /// Packed k-major sliver: `b[p*nr + j] = B̃(p, j)`.
    Packed,
    /// Unpacked column-major block: `b[j*ldb + p] = B(p, j)`.
    ColMajor {
        /// Leading dimension of `B`.
        ldb: usize,
    },
}

impl BLayout {
    /// `(column stride, k stride)` of `B` for a tile `nr` columns wide.
    fn strides(self, nr: usize) -> (usize, usize) {
        match self {
            BLayout::Packed => (1, nr),
            BLayout::ColMajor { ldb } => (ldb, 1),
        }
    }
}

/// One micro-kernel call with its operands resolved to raw pointers
/// and element strides — what [`Scalar::run_tile`] executes.
///
/// The pointer contract: for `i < mr`, `j < nr`, `p < kc`,
/// `a + p*a_stride + i` and `b + j*b_col + p*b_k` are valid for reads,
/// `c + j*ldc + i` is valid for exclusive reads and writes, and
/// `ldc >= mr`. The checked entry points ([`ukr`], [`ukr_ptr`]) prove
/// it from slice lengths before building one.
#[derive(Debug, Clone, Copy)]
pub struct RawTile<S> {
    /// Tile rows.
    pub mr: usize,
    /// Tile columns.
    pub nr: usize,
    /// Depth of the update.
    pub kc: usize,
    /// Scale applied to `Ã·B̃` before it is added to `C`.
    pub alpha: S,
    /// `A(0, 0)`.
    pub a: *const S,
    /// Element distance between consecutive k steps of `A`.
    pub a_stride: usize,
    /// `B(0, 0)`.
    pub b: *const S,
    /// Element distance between consecutive columns of `B`.
    pub b_col: usize,
    /// Element distance between consecutive k steps of `B`.
    pub b_k: usize,
    /// `C(0, 0)`.
    pub c: *mut S,
    /// Leading dimension of `C`.
    pub ldc: usize,
}

/// Elements spanned by `count` items `stride` apart, the last `width`
/// wide; `None` on overflow. Zero items span nothing.
fn span(count: usize, stride: usize, width: usize) -> Option<usize> {
    match count {
        0 => Some(0),
        _ => (count - 1).checked_mul(stride)?.checked_add(width),
    }
}

/// Check the `A`/`B` operands and `ldc` of a call and resolve it to a
/// [`RawTile`] over `c`. Every bound the kernels rely on for `A` and
/// `B` is proven here, before any raw-pointer access.
#[allow(clippy::too_many_arguments)]
fn checked_tile<S: Scalar>(
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: S,
    a: &[S],
    a_stride: usize,
    b: &[S],
    b_layout: BLayout,
    c: *mut S,
    ldc: usize,
) -> RawTile<S> {
    assert!(mr >= 1 && nr >= 1, "empty {mr}x{nr} tile");
    assert!(a_stride >= mr, "A stride must cover the tile rows");
    assert!(
        span(kc, a_stride, mr).is_some_and(|need| a.len() >= need),
        "A operand too short"
    );
    match b_layout {
        BLayout::Packed => assert!(
            kc.checked_mul(nr).is_some_and(|need| b.len() >= need),
            "packed B sliver too short"
        ),
        BLayout::ColMajor { ldb } => assert!(
            ldb >= kc && span(nr, ldb, kc).is_some_and(|need| b.len() >= need),
            "B operand too short"
        ),
    }
    assert!(ldc >= mr, "ldc must cover the tile rows");
    let (b_col, b_k) = b_layout.strides(nr);
    RawTile {
        mr,
        nr,
        kc,
        alpha,
        a: a.as_ptr(),
        a_stride,
        b: b.as_ptr(),
        b_col,
        b_k,
        c,
        ldc,
    }
}

/// Assert that `c` covers the column-major `mr × nr` footprint.
fn check_c<S>(mr: usize, nr: usize, c: &[S], ldc: usize) {
    assert!(
        ldc >= mr && span(nr, ldc, mr).is_some_and(|need| c.len() >= need),
        "C block out of bounds"
    );
}

/// The micro-kernel: `C += alpha · A · B` on one `mr × nr` tile, with
/// `A` rows `a_stride` apart per k step and `B` stored as `b_layout`
/// says. Any tile size runs; wide tiles are split into register-sized
/// strips inside the kernel.
#[allow(clippy::too_many_arguments)]
pub fn ukr<S: Scalar>(
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: S,
    a: &[S],
    a_stride: usize,
    b: &[S],
    b_layout: BLayout,
    c: &mut [S],
    ldc: usize,
) {
    check_c(mr, nr, c, ldc);
    let t = checked_tile(
        mr,
        nr,
        kc,
        alpha,
        a,
        a_stride,
        b,
        b_layout,
        c.as_mut_ptr(),
        ldc,
    );
    // SAFETY: `checked_tile` proved the A/B bounds and `ldc >= mr`;
    // `check_c` proved `c` covers the tile footprint, and `&mut` makes
    // it exclusive.
    unsafe { S::run_tile(&t) }
}

/// [`ukr`] against a raw `C` tile pointer: the in-place split-tile
/// path, where disjoint tiles of one `C` are updated from several
/// threads and no covering `&mut [S]` can exist.
///
/// # Safety
/// `c` must be valid for exclusive reads and writes of the elements
/// `c + j*ldc + i` for `i < mr`, `j < nr`.
// SAFETY: an `unsafe fn` declaration — callers discharge the tile-
// footprint contract in `# Safety` above; the body asserts the operand
// lengths before any raw access.
#[allow(clippy::too_many_arguments)]
pub unsafe fn ukr_ptr<S: Scalar>(
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: S,
    a: &[S],
    a_stride: usize,
    b: &[S],
    b_layout: BLayout,
    c: *mut S,
    ldc: usize,
) {
    let t = checked_tile(mr, nr, kc, alpha, a, a_stride, b, b_layout, c, ldc);
    // SAFETY: `checked_tile` proved the A/B bounds and `ldc >= mr`; the
    // caller guarantees the C footprint.
    unsafe { S::run_tile(&t) }
}

/// [`ukr`] forced onto the portable kernel, whatever the host: the
/// reference the SIMD kernel must match bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn ukr_portable<S: Scalar>(
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: S,
    a: &[S],
    a_stride: usize,
    b: &[S],
    b_layout: BLayout,
    c: &mut [S],
    ldc: usize,
) {
    check_c(mr, nr, c, ldc);
    let t = checked_tile(
        mr,
        nr,
        kc,
        alpha,
        a,
        a_stride,
        b,
        b_layout,
        c.as_mut_ptr(),
        ldc,
    );
    // SAFETY: as in `ukr` — every bound of the contract was asserted.
    unsafe { portable(&t) }
}

/// The portable kernel: one fused multiply-add chain per element, in
/// the order the SIMD kernel uses.
///
/// # Safety
/// `t` must satisfy the [`RawTile`] pointer contract.
// SAFETY: an `unsafe fn` declaration — callers discharge the
// `RawTile` contract documented above.
unsafe fn portable<S: Scalar>(t: &RawTile<S>) {
    for j in 0..t.nr {
        for i in 0..t.mr {
            let mut acc = S::ZERO;
            for p in 0..t.kc {
                // SAFETY: i < mr, j < nr, p < kc — inside the A and B
                // footprints of the `RawTile` contract.
                let (x, y) = unsafe {
                    (
                        *t.a.add(p * t.a_stride + i),
                        *t.b.add(j * t.b_col + p * t.b_k),
                    )
                };
                acc = x.fma(y, acc);
            }
            // SAFETY: (i, j) is inside the C footprint of the contract.
            unsafe {
                let c = t.c.add(j * t.ldc + i);
                *c = t.alpha.fma(acc, *c);
            }
        }
    }
}

/// The `f32` kernel dispatcher behind [`Scalar::run_tile`].
///
/// # Safety
/// `t` must satisfy the [`RawTile`] pointer contract.
// SAFETY: an `unsafe fn` declaration — callers discharge the
// `RawTile` contract documented above.
#[inline]
pub(crate) unsafe fn tile_f32(t: &RawTile<f32>) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx2::available() {
        // SAFETY: AVX2 and FMA were detected just above; the caller
        // upholds the pointer contract.
        return unsafe { avx2::tile::<avx2::F32x8, avx2::F32x4>(t) };
    }
    // SAFETY: the caller upholds the pointer contract.
    unsafe { portable(t) }
}

/// The `f64` kernel dispatcher behind [`Scalar::run_tile`].
///
/// # Safety
/// `t` must satisfy the [`RawTile`] pointer contract.
// SAFETY: an `unsafe fn` declaration — callers discharge the
// `RawTile` contract documented above.
#[inline]
pub(crate) unsafe fn tile_f64(t: &RawTile<f64>) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    if avx2::available() {
        // SAFETY: AVX2 and FMA were detected just above; the caller
        // upholds the pointer contract.
        return unsafe { avx2::tile::<avx2::F64x4, avx2::F64x2>(t) };
    }
    // SAFETY: the caller upholds the pointer contract.
    unsafe { portable(t) }
}

/// A runnable kernel for one tile shape on packed operands
/// (`a_stride = mr`, [`BLayout::Packed`]).
#[derive(Clone, Copy)]
pub struct Kernel<S: Scalar> {
    mr: usize,
    nr: usize,
    _elem: PhantomData<fn() -> S>,
}

impl<S: Scalar> std::fmt::Debug for Kernel<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernel({}x{})", self.mr, self.nr)
    }
}

impl<S: Scalar> Kernel<S> {
    /// Kernel for an `mr × nr` tile.
    pub fn for_shape(mr: usize, nr: usize) -> Self {
        Kernel {
            mr,
            nr,
            _elem: PhantomData,
        }
    }

    /// Tile rows.
    pub fn mr(&self) -> usize {
        self.mr
    }

    /// Tile columns.
    pub fn nr(&self) -> usize {
        self.nr
    }

    /// Run the kernel on a packed `A` sliver (`a[p*mr + i]`) and a
    /// packed `B` sliver (`b[p*nr + j]`).
    #[inline]
    pub fn run(&self, kc: usize, alpha: S, a: &[S], b: &[S], c: &mut [S], ldc: usize) {
        ukr(
            self.mr,
            self.nr,
            kc,
            alpha,
            a,
            self.mr,
            b,
            BLayout::Packed,
            c,
            ldc,
        )
    }

    /// Run the kernel against a raw `C` tile pointer (the in-place
    /// split-tile path, where a covering `&mut [S]` cannot exist).
    ///
    /// # Safety
    /// `c` must be valid for exclusive reads and writes of the elements
    /// `c + j*ldc + i` for `i < self.mr()`, `j < self.nr()`.
    // SAFETY: an `unsafe fn` declaration — callers discharge the
    // tile-footprint contract in `# Safety` above.
    #[inline]
    pub unsafe fn run_ptr(&self, kc: usize, alpha: S, a: &[S], b: &[S], c: *mut S, ldc: usize) {
        // SAFETY: forwarding the caller's tile-footprint contract.
        unsafe {
            ukr_ptr(
                self.mr,
                self.nr,
                kc,
                alpha,
                a,
                self.mr,
                b,
                BLayout::Packed,
                c,
                ldc,
            )
        }
    }
}

/// A typed registry handle: one `KernelRef` per `(shape, isa)` lookup.
///
/// Replaces the bare `(mr, nr)` tuple keys callers used to pass around:
/// a `KernelRef` can only be obtained through
/// [`KernelRegistry::lookup`], which has already proven the shape
/// against the registry ISA's Eq. 4 budget.
#[derive(Clone, Copy)]
pub struct KernelRef<S: Scalar> {
    shape: smm_model::KernelShape,
    isa: smm_model::VectorIsa,
    kernel: Kernel<S>,
}

impl<S: Scalar> std::fmt::Debug for KernelRef<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "KernelRef({}x{} @ {})",
            self.shape.mr, self.shape.nr, self.isa
        )
    }
}

impl<S: Scalar> KernelRef<S> {
    /// The validated register-tile shape.
    pub fn shape(&self) -> smm_model::KernelShape {
        self.shape
    }

    /// The ISA the shape was validated against.
    pub fn isa(&self) -> smm_model::VectorIsa {
        self.isa
    }

    /// The runnable kernel.
    pub fn kernel(&self) -> Kernel<S> {
        self.kernel
    }

    /// Run the kernel (see [`Kernel::run`]).
    #[inline]
    pub fn run(&self, kc: usize, alpha: S, a: &[S], b: &[S], c: &mut [S], ldc: usize) {
        self.kernel.run(kc, alpha, a, b, c, ldc)
    }
}

/// Kernel lookups keyed by `(shape, isa)`.
///
/// The native kernels compute with the host's vector unit, so the ISA
/// does not change *what* a kernel computes — it changes which shapes
/// are legal (Eq. 4 counts accumulators in vector registers of the
/// ISA's width) and how the shape is characterized by the model layer.
/// Every shape the budget admits runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelRegistry {
    isa: smm_model::VectorIsa,
}

impl KernelRegistry {
    /// Registry for the default NEON-128 configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registry validating shapes against an explicit ISA.
    pub fn for_isa(isa: smm_model::VectorIsa) -> Self {
        KernelRegistry { isa }
    }

    /// The ISA lookups are validated against.
    pub fn isa(&self) -> smm_model::VectorIsa {
        self.isa
    }

    /// Look up a kernel for `mr × nr`, proving it against this
    /// registry's Eq. 4 budget first.
    pub fn lookup<S: Scalar>(
        &self,
        mr: usize,
        nr: usize,
    ) -> Result<KernelRef<S>, smm_model::RegisterBudgetError> {
        self.isa
            .check_register_budget(mr, nr, std::mem::size_of::<S>())?;
        Ok(KernelRef {
            shape: smm_model::KernelShape::new(mr, nr),
            isa: self.isa,
            kernel: Kernel::for_shape(mr, nr),
        })
    }
}

/// Reference implementation of the packed contract, used to validate
/// the kernels: a plain triple loop with unfused arithmetic
/// ([`Scalar::madd`]), so it matches them within rounding, not bit for
/// bit.
#[allow(clippy::too_many_arguments)]
pub fn microkernel_reference<S: Scalar>(
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: S,
    a: &[S],
    b: &[S],
    c: &mut [S],
    ldc: usize,
) {
    for j in 0..nr {
        for i in 0..mr {
            let mut acc = S::ZERO;
            for p in 0..kc {
                acc = acc.madd(a[p * mr + i], b[p * nr + j]);
            }
            c[j * ldc + i] = c[j * ldc + i].madd(alpha, acc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(n: usize, seed: u64) -> Vec<f32> {
        // Small dyadic values: products and short sums are exact, so
        // fused and unfused arithmetic agree on them.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                ((state >> 33) as i32 % 17 - 8) as f32 * 0.25
            })
            .collect()
    }

    fn check_shape(mr: usize, nr: usize, kc: usize, alpha: f32) {
        let a = fill(mr * kc, 1);
        let b = fill(nr * kc, 2);
        let ldc = mr + 3;
        let mut c = fill(ldc * nr, 3);
        let mut c_ref = c.clone();
        Kernel::<f32>::for_shape(mr, nr).run(kc, alpha, &a, &b, &mut c, ldc);
        microkernel_reference(mr, nr, kc, alpha, &a, &b, &mut c_ref, ldc);
        for (i, (&x, &y)) in c.iter().zip(c_ref.iter()).enumerate() {
            assert!(
                (x - y).abs() <= 1e-4 * y.abs().max(1.0),
                "{mr}x{nr} kc={kc}: c[{i}] = {x} vs {y}"
            );
        }
    }

    /// Unpacked `A` and `B` in a column-major backing store, against
    /// the reference on the packed copies.
    fn check_strided(mr: usize, nr: usize, kc: usize) {
        let (lda, ldb, ldc) = (mr + 5, kc + 3, mr + 2);
        let a = fill(lda * kc, 4);
        let b = fill(ldb * nr, 5);
        let ap: Vec<f32> = (0..kc)
            .flat_map(|p| (0..mr).map(move |i| (p, i)))
            .map(|(p, i)| a[p * lda + i])
            .collect();
        let bp: Vec<f32> = (0..kc)
            .flat_map(|p| (0..nr).map(move |j| (p, j)))
            .map(|(p, j)| b[j * ldb + p])
            .collect();
        let mut c_ref = fill(ldc * nr, 6);
        microkernel_reference(mr, nr, kc, 2.0, &ap, &bp, &mut c_ref, ldc);
        for layout in [BLayout::Packed, BLayout::ColMajor { ldb }] {
            let b_src = if layout == BLayout::Packed { &bp } else { &b };
            let mut c = fill(ldc * nr, 6);
            ukr(mr, nr, kc, 2.0, &a, lda, b_src, layout, &mut c, ldc);
            assert_eq!(c, c_ref, "{mr}x{nr} kc={kc} {layout:?}");
        }
    }

    #[test]
    fn table_i_and_edge_shapes_match_reference() {
        for &(mr, nr) in &[
            (16, 4),
            (8, 8),
            (4, 4),
            (8, 12),
            (12, 4),
            (16, 1),
            (8, 2),
            (4, 12),
            (2, 8),
            (1, 1),
            (6, 4),
        ] {
            check_shape(mr, nr, 37, 1.0);
        }
    }

    #[test]
    fn alpha_scaling_applies() {
        check_shape(8, 8, 16, -2.5);
        check_shape(16, 4, 5, 0.5);
    }

    #[test]
    fn kc_zero_leaves_c_untouched_modulo_alpha_times_zero() {
        let mut c = vec![7.0f32; 16];
        Kernel::<f32>::for_shape(4, 4).run(0, 3.0, &[], &[], &mut c, 4);
        assert!(c.iter().all(|&x| x == 7.0));
        ukr(
            4,
            4,
            0,
            1.0,
            &[],
            9,
            &[],
            BLayout::ColMajor { ldb: 0 },
            &mut c,
            4,
        );
        assert!(c.iter().all(|&x| x == 7.0));
    }

    #[test]
    fn odd_shapes_match_reference() {
        check_shape(7, 5, 11, 1.5);
        check_shape(3, 3, 8, 1.0);
        check_shape(11, 4, 9, 1.0);
        check_shape(17, 13, 6, 1.0);
    }

    #[test]
    fn strided_operands_match_reference() {
        for &(mr, nr) in &[(16, 4), (8, 12), (12, 4), (1, 4), (4, 1), (2, 2)] {
            check_strided(mr, nr, 9);
        }
        check_strided(7, 5, 11);
        check_strided(3, 13, 4);
        check_strided(16, 16, 3);
    }

    #[test]
    fn packed_stride_equals_packed_kernel() {
        // a_stride = mr with packed B is exactly `Kernel::run`.
        let kc = 8;
        let a: Vec<f32> = (0..4 * kc).map(|i| i as f32 * 0.25).collect();
        let bp: Vec<f32> = (0..4 * kc).map(|i| (i % 5) as f32).collect();
        let mut c1 = vec![0.0f32; 16];
        let mut c2 = vec![0.0f32; 16];
        ukr(4, 4, kc, 1.0, &a, 4, &bp, BLayout::Packed, &mut c1, 4);
        Kernel::<f32>::for_shape(4, 4).run(kc, 1.0, &a, &bp, &mut c2, 4);
        assert_eq!(c1, c2);
    }

    /// Tiles wider than one register strip (the 32-row SVE-512 tiles
    /// and beyond) run as strips inside the kernel.
    #[test]
    fn wide_isa_tile_shapes_admitted() {
        for (mr, nr) in [(32, 12), (32, 32), (33, 4), (48, 1)] {
            check_shape(mr, nr, 5, 1.0);
        }
    }

    #[test]
    fn f64_kernels_work() {
        let a: Vec<f64> = (0..8 * 4).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..8 * 4).map(|i| (i % 7) as f64).collect();
        let mut c = vec![0.0f64; 4 * 4];
        let mut c_ref = c.clone();
        Kernel::<f64>::for_shape(4, 4).run(8, 1.0, &a, &b, &mut c, 4);
        microkernel_reference(4, 4, 8, 1.0, &a, &b, &mut c_ref, 4);
        assert_eq!(c, c_ref);
    }

    #[test]
    fn accumulation_adds_to_existing_c() {
        let a = vec![1.0f32; 4]; // 4x1 of ones, kc=1
        let b = vec![2.0f32; 1];
        let mut c = vec![10.0f32; 4];
        Kernel::<f32>::for_shape(4, 1).run(1, 1.0, &a, &b, &mut c, 4);
        assert_eq!(c, vec![12.0; 4]);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn short_operands_panic() {
        let mut c = vec![0.0f32; 16];
        Kernel::<f32>::for_shape(4, 4).run(10, 1.0, &[0.0; 8], &[0.0; 64], &mut c, 4);
    }

    #[test]
    #[should_panic(expected = "B operand too short")]
    fn short_column_major_b_panics() {
        let mut c = vec![0.0f32; 16];
        ukr(
            4,
            4,
            3,
            1.0,
            &[0.0; 12],
            4,
            &[0.0; 11],
            BLayout::ColMajor { ldb: 3 },
            &mut c,
            4,
        );
    }

    #[test]
    #[should_panic(expected = "C block out of bounds")]
    fn short_c_panics() {
        let mut c = vec![0.0f32; 15];
        Kernel::<f32>::for_shape(4, 4).run(1, 1.0, &[0.0; 4], &[0.0; 4], &mut c, 4);
    }

    #[test]
    fn registry_lookup_returns_typed_refs() {
        let reg = KernelRegistry::new();
        let k = reg.lookup::<f32>(8, 8).expect("8x8 fits NEON");
        assert_eq!(k.shape().mr, 8);
        assert_eq!(k.isa().name, "neon128");
        // Running through the ref matches the reference kernel.
        let a = fill(8 * 4, 1);
        let b = fill(8 * 4, 2);
        let mut c = fill(8 * 8, 3);
        let mut c_ref = c.clone();
        k.run(4, 1.0, &a, &b, &mut c, 8);
        microkernel_reference(8, 8, 4, 1.0, &a, &b, &mut c_ref, 8);
        assert_eq!(c, c_ref);
    }

    #[test]
    fn registry_enforces_its_isas_budget() {
        // 16x8 is over budget at 128-bit but legal at 256-bit.
        assert!(KernelRegistry::new().lookup::<f32>(16, 8).is_err());
        let wide = KernelRegistry::for_isa(smm_model::VectorIsa::sve256());
        assert!(wide.lookup::<f32>(16, 8).is_ok());
        // f64 halves the lanes: 16x8 needs 2x registers at 256-bit too.
        assert!(wide.lookup::<f64>(16, 8).is_err());
    }

    /// Every shape a registry admits runs and matches the reference,
    /// at every shipped width and both precisions — the Eq. 4 budget
    /// never hands out a tile the kernel cannot execute (it once
    /// admitted 32x12 at SVE-512 while the kernel stopped at 16 rows).
    #[test]
    fn every_admitted_shape_runs_at_every_width() {
        fn sweep<S: Scalar>(isa: smm_model::VectorIsa) -> usize {
            let reg = KernelRegistry::for_isa(isa);
            let kc = 3;
            let val = |i: usize| S::from_f64(((i * 7) % 9) as f64 * 0.25 - 1.0);
            let mut admitted = 0;
            for nr in 1.. {
                if reg.lookup::<S>(1, nr).is_err() {
                    break;
                }
                for mr in 1.. {
                    let Ok(k) = reg.lookup::<S>(mr, nr) else {
                        break;
                    };
                    admitted += 1;
                    let a: Vec<S> = (0..mr * kc).map(val).collect();
                    let b: Vec<S> = (0..nr * kc).map(|i| val(i + 3)).collect();
                    let mut c: Vec<S> = (0..mr * nr).map(|i| val(i + 5)).collect();
                    let mut c_ref = c.clone();
                    k.run(kc, S::from_f64(1.5), &a, &b, &mut c, mr);
                    microkernel_reference(mr, nr, kc, S::from_f64(1.5), &a, &b, &mut c_ref, mr);
                    assert!(c == c_ref, "{mr}x{nr} at {isa}");
                }
            }
            admitted
        }
        for isa in smm_model::VectorIsa::all() {
            assert!(sweep::<f32>(isa) > 0);
            assert!(sweep::<f64>(isa) > 0);
        }
        // The shape from the original report is among them.
        let sve512 = KernelRegistry::for_isa(smm_model::VectorIsa::sve512());
        assert!(sve512.lookup::<f32>(32, 12).is_ok());
    }
}
