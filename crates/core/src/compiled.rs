//! Compiled tile schedules: the one native executor.
//!
//! §IV of the paper credits JIT code paths partly for "pre-calculating
//! the offsets of memory accesses". Every [`SmmPlan`] carries a
//! `Schedule`, compiled once when the plan is built: a flat list of
//! steps — pack directives and micro-kernel calls, each with its tile
//! coordinates `(i0, j0, kk, mr, nr, kc)` and packing source resolved —
//! plus one index range of that list per grid cell of a threaded plan.
//! Element offsets are computed from the operands' leading dimensions
//! when a step runs, so one cached schedule serves every leading
//! dimension and every entry of a batch.
//!
//! Every native path runs a schedule through `Schedule::run`:
//! [`crate::exec`] per call or per grid cell (also for
//! [`CompiledPlan`], which binds a plan to raw slices), and
//! [`crate::batch`] once per entry over the contiguous entry ranges a
//! pool task claims.

use std::ops::Range;

use smm_gemm::arena::{self, PackBuf};
use smm_gemm::matrix::{MatMut, MatRef};
use smm_gemm::pack::{pack_a_exact, pack_b_exact_append};
use smm_gemm::parallel::split_ranges_nonempty;
use smm_kernels::native::{ukr_ptr, BLayout};
use smm_kernels::registry::TileSpan;
use smm_kernels::Scalar;

use crate::plan::SmmPlan;
use crate::telemetry::{now_if, Phase, Recorder};

/// One micro-kernel call. Coordinates are global: rows `i0..i0 + mr`
/// of `A` and `C`, columns `j0..j0 + nr` of `B` and `C`, depth
/// `kk..kk + kc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TileOp {
    i0: usize,
    j0: usize,
    kk: usize,
    mr: usize,
    nr: usize,
    kc: usize,
    /// `A` comes from the panel the last [`Step::PackA`] packed;
    /// otherwise it is read in place.
    a_packed: bool,
    /// Offset of the packed `B` sliver in the k block's scratch, or
    /// `None` when `B` is read in place.
    b_slot: Option<usize>,
}

/// One step of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Pack the `mr × kc` panel of `A` at `(i0, kk)`.
    PackA {
        i0: usize,
        kk: usize,
        mr: usize,
        kc: usize,
    },
    /// Pack the `kc × nr` sliver of `B` at `(kk, j0)` at offset `at`
    /// of the B scratch; offset 0 opens a new k block.
    PackB {
        kk: usize,
        j0: usize,
        kc: usize,
        nr: usize,
        at: usize,
    },
    /// Run one micro-tile.
    Tile(TileOp),
}

/// One grid cell of a threaded plan: the top-left element of the `C`
/// block it owns and its range of the schedule's steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cell {
    pub(crate) i0: usize,
    pub(crate) j0: usize,
    pub(crate) steps: Range<usize>,
}

/// A plan's compiled schedule (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct Schedule {
    steps: Vec<Step>,
    /// Grid cells of a threaded plan (empty when single-threaded), row
    /// band outer: the order in which [`MatMut::split_grid`] yields the
    /// tiles of `row_bands × col_bands`.
    pub(crate) cells: Vec<Cell>,
    /// `(start, len)` row bands of the grid.
    pub(crate) row_bands: Vec<(usize, usize)>,
    /// `(start, len)` column bands of the grid.
    pub(crate) col_bands: Vec<(usize, usize)>,
    /// Elements of the largest packed `A` panel (0: `A` is never
    /// packed).
    a_len: usize,
    /// Elements of the packed `B` slivers of the fullest k block (0:
    /// `B` is never packed).
    b_len: usize,
}

/// The non-empty bands of `ways` contiguous chunks of `tiles`.
fn bands(tiles: &[TileSpan], ways: usize) -> Vec<&[TileSpan]> {
    split_ranges_nonempty(tiles.len(), ways)
        .into_iter()
        .map(|(s, c)| &tiles[s..s + c])
        .collect()
}

/// `(start, len)` of a contiguous run of tiles.
fn extent(tiles: &[TileSpan]) -> (usize, usize) {
    (tiles[0].offset, tiles.iter().map(|t| t.logical).sum())
}

impl Schedule {
    /// Compile the tile tables, blocking and packing decisions of
    /// `plan`. Each grid cell packs its own operands (no barriers):
    /// per k block, first the cell's `B` slivers, then per row tile its
    /// `A` panel followed by the tile's kernel calls across the cell's
    /// columns. A single-threaded plan is one cell and records no grid.
    pub(crate) fn compile(plan: &SmmPlan) -> Self {
        let (m_ways, n_ways) = (plan.grid.m_ways(), plan.grid.n_ways());
        let (mt, nt) = (plan.m_tiles.len(), plan.n_tiles.len());
        let mut sched = Schedule::default();
        // Upper bound: every tile, plus an A panel per row tile and a
        // B sliver per column tile of each cell, per k block.
        let k_blocks = plan.k.div_ceil(plan.kc);
        sched
            .steps
            .reserve(k_blocks * (mt * nt + mt * n_ways + nt * m_ways));
        if plan.threads() <= 1 {
            sched.compile_cell(plan, &plan.m_tiles, &plan.n_tiles);
            return sched;
        }
        let m_bands = bands(&plan.m_tiles, m_ways);
        let n_bands = bands(&plan.n_tiles, n_ways);
        sched.row_bands = m_bands.iter().map(|t| extent(t)).collect();
        sched.col_bands = n_bands.iter().map(|t| extent(t)).collect();
        for m_tiles in &m_bands {
            for n_tiles in &n_bands {
                let start = sched.steps.len();
                sched.compile_cell(plan, m_tiles, n_tiles);
                sched.cells.push(Cell {
                    i0: m_tiles[0].offset,
                    j0: n_tiles[0].offset,
                    steps: start..sched.steps.len(),
                });
            }
        }
        sched
    }

    fn compile_cell(&mut self, plan: &SmmPlan, m_tiles: &[TileSpan], n_tiles: &[TileSpan]) {
        let packs_b = |nr: usize| plan.pack_b || (nr < plan.kernel.nr && plan.pack_edge_b);
        let mut kk = 0;
        while kk < plan.k {
            let kc = plan.kc.min(plan.k - kk);
            let mut at = 0;
            for jt in n_tiles.iter().filter(|jt| packs_b(jt.logical)) {
                let (j0, nr) = (jt.offset, jt.logical);
                self.steps.push(Step::PackB { kk, j0, kc, nr, at });
                at += kc * nr;
            }
            self.b_len = self.b_len.max(at);
            for it in m_tiles {
                let (i0, mr) = (it.offset, it.logical);
                if plan.pack_a {
                    self.steps.push(Step::PackA { i0, kk, mr, kc });
                    self.a_len = self.a_len.max(mr * kc);
                }
                // Packed slivers sit in the order they were packed.
                let mut slot = 0;
                for jt in n_tiles {
                    let nr = jt.logical;
                    let b_slot = packs_b(nr).then(|| {
                        slot += kc * nr;
                        slot - kc * nr
                    });
                    self.steps.push(Step::Tile(TileOp {
                        i0,
                        j0: jt.offset,
                        kk,
                        mr,
                        nr,
                        kc,
                        a_packed: plan.pack_a,
                        b_slot,
                    }));
                }
            }
            kk += kc;
        }
    }

    /// Micro-kernel calls per execution.
    pub(crate) fn tiles(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Tile(_)))
            .count()
    }

    /// Every step, on the calling thread, into the full `C`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_all<S: Scalar>(
        &self,
        alpha: S,
        a: MatRef<'_, S>,
        b: MatRef<'_, S>,
        c: &mut MatMut<'_, S>,
        scratch: &mut Scratch<S>,
        timed: bool,
        cost: &mut PackCost,
    ) {
        let all = 0..self.steps.len();
        self.run(all, (0, 0), alpha, a, b, c, scratch, timed, cost);
    }

    /// Run `steps` of the schedule: `C += alpha·A·B` over the tiles
    /// they name. `c` is the view whose top-left element is `C(base)`
    /// (a grid cell's tile, or the full matrix with base `(0, 0)`).
    ///
    /// With `timed` set, each pack step is clocked and its cost added
    /// to `cost`; packing is coarse enough (one step per panel or
    /// sliver per k block, never per micro-kernel) that the extra clock
    /// reads stay amortized. Untimed runs never read the clock.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run<S: Scalar>(
        &self,
        steps: Range<usize>,
        base: (usize, usize),
        alpha: S,
        a: MatRef<'_, S>,
        b: MatRef<'_, S>,
        c: &mut MatMut<'_, S>,
        scratch: &mut Scratch<S>,
        timed: bool,
        cost: &mut PackCost,
    ) {
        let (lda, ldb, ldc) = (a.ld(), b.ld(), c.ld());
        let elem = std::mem::size_of::<S>() as u64;
        for step in &self.steps[steps] {
            match *step {
                Step::PackA { i0, kk, mr, kc } => {
                    let buf = scratch.a.get_or_insert_with(|| arena::checkout(self.a_len));
                    let t0 = now_if(timed);
                    pack_a_exact(a, i0, kk, mr, kc, buf);
                    if let Some(t0) = t0 {
                        cost.a_ns += t0.elapsed().as_nanos() as u64;
                        cost.bytes += (mr * kc) as u64 * elem;
                        cost.a_packed = true;
                    }
                }
                Step::PackB { kk, j0, kc, nr, at } => {
                    let buf = scratch.b.get_or_insert_with(|| arena::checkout(self.b_len));
                    if at == 0 {
                        buf.clear();
                    }
                    let t0 = now_if(timed);
                    let off = pack_b_exact_append(b, kk, j0, kc, nr, buf);
                    assert_eq!(off, at, "B sliver packed out of schedule order");
                    if let Some(t0) = t0 {
                        cost.b_ns += t0.elapsed().as_nanos() as u64;
                        cost.bytes += (kc * nr) as u64 * elem;
                        cost.b_packed = true;
                    }
                }
                Step::Tile(t) => {
                    let (a_src, a_stride): (&[S], usize) = if t.a_packed {
                        (scratch.a.as_deref().map_or(&[][..], |v| v.as_slice()), t.mr)
                    } else {
                        (&a.data()[t.kk * lda + t.i0..], lda)
                    };
                    let (b_src, b_layout): (&[S], BLayout) = match t.b_slot {
                        Some(at) => {
                            let packed = scratch.b.as_deref().map_or(&[][..], |v| v.as_slice());
                            (&packed[at..at + t.kc * t.nr], BLayout::Packed)
                        }
                        None => (&b.data()[t.j0 * ldb + t.kk..], BLayout::ColMajor { ldb }),
                    };
                    let in_cell = t.i0.checked_sub(base.0).zip(t.j0.checked_sub(base.1));
                    let (i, j) = in_cell.expect("tile outside its grid cell");
                    let cptr = c.tile_ptr(i, j, t.mr, t.nr);
                    // SAFETY: `tile_ptr` just asserted the tile's
                    // `mr x nr` window lies inside `c`, whose elements
                    // `&mut c` owns exclusively; the kernel writes
                    // exactly that footprint with stride `ldc = c.ld()`.
                    unsafe {
                        ukr_ptr(
                            t.mr, t.nr, t.kc, alpha, a_src, a_stride, b_src, b_layout, cptr, ldc,
                        )
                    };
                }
            }
        }
    }
}

/// Packing scratch of one executing thread: the current `A` panel and
/// the packed `B` slivers of the current k block. Each buffer is
/// checked out of the thread's [`arena`] on first use and returned on
/// drop, so a scratch kept across the entries of a batch range costs
/// at most two checkouts, and a schedule that packs nothing none.
#[derive(Debug)]
pub(crate) struct Scratch<S: 'static> {
    a: Option<PackBuf<S>>,
    b: Option<PackBuf<S>>,
}

impl<S: 'static> Default for Scratch<S> {
    fn default() -> Self {
        Scratch { a: None, b: None }
    }
}

/// Packing cost observed by schedule runs; all zeros when untimed.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PackCost {
    a_ns: u64,
    b_ns: u64,
    bytes: u64,
    a_packed: bool,
    b_packed: bool,
}

impl PackCost {
    /// Record the spans of runs that took `total_ns` of wall time:
    /// pack phases as measured, compute as the remainder.
    pub(crate) fn record(&self, rec: &Recorder<'_>, total_ns: u64) {
        if self.a_packed {
            rec.span_ns(Phase::PackA, self.a_ns);
        }
        if self.b_packed {
            rec.span_ns(Phase::PackB, self.b_ns);
        }
        if self.bytes > 0 {
            rec.packed_bytes(self.bytes);
        }
        rec.span_ns(
            Phase::Compute,
            total_ns.saturating_sub(self.a_ns + self.b_ns),
        );
    }
}

/// A plan bound to fixed leading dimensions, for callers that hold raw
/// column-major slices. Executes exactly what [`crate::execute`] does.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    plan: SmmPlan,
    lda: usize,
    ldb: usize,
    ldc: usize,
}

impl CompiledPlan {
    /// Bind `plan` to operands with the given leading dimensions.
    pub fn compile(plan: &SmmPlan, lda: usize, ldb: usize, ldc: usize) -> Self {
        assert!(
            lda >= plan.m && ldb >= plan.k && ldc >= plan.m,
            "leading dimensions too small"
        );
        CompiledPlan {
            plan: plan.clone(),
            lda,
            ldb,
            ldc,
        }
    }

    /// Total tile invocations per call.
    pub fn tiles(&self) -> usize {
        self.plan.schedule.tiles()
    }

    /// Execute `C = alpha·A·B + beta·C` over raw column-major slices
    /// with the compiled leading dimensions.
    pub fn execute<S: Scalar>(
        &self,
        alpha: S,
        a: &[S],
        b: &[S],
        beta: S,
        c: &mut [S],
        _bufs: &mut CompiledScratch<S>,
    ) {
        let p = &self.plan;
        crate::exec::execute(
            p,
            alpha,
            MatRef::from_slice(a, p.m, p.k, self.lda),
            MatRef::from_slice(b, p.k, p.n, self.ldb),
            beta,
            MatMut::from_slice(c, p.m, p.n, self.ldc),
        );
    }
}

/// Packing scratch of [`CompiledPlan::execute`]: a handle on the
/// calling thread's packing arena, which lends each call its buffers
/// and takes them back after it, as for every call of the executor.
#[derive(Debug)]
pub struct CompiledScratch<S: Scalar>(std::marker::PhantomData<S>);

impl<S: Scalar> CompiledScratch<S> {
    /// A handle on the calling thread's arena.
    pub fn new() -> Self {
        CompiledScratch(std::marker::PhantomData)
    }
}

impl<S: Scalar> Default for CompiledScratch<S> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanConfig;
    use smm_gemm::gemm_naive;
    use smm_gemm::matrix::Mat;

    fn check(m: usize, n: usize, k: usize, cfg: &PlanConfig) {
        let plan = SmmPlan::build(m, n, k, cfg);
        let compiled = CompiledPlan::compile(&plan, m, k, m);
        let a = Mat::<f32>::random(m, k, 61);
        let b = Mat::<f32>::random(k, n, 62);
        let mut c = Mat::<f32>::random(m, n, 63);
        let mut c_ref = c.clone();
        let mut scratch = CompiledScratch::new();
        compiled.execute(1.5, a.data(), b.data(), 0.5, c.data_mut(), &mut scratch);
        gemm_naive(1.5, a.as_ref(), b.as_ref(), 0.5, c_ref.as_mut());
        assert!(c.max_abs_diff(&c_ref) < 1e-3, "{m}x{n}x{k}");
    }

    #[test]
    fn compiled_matches_naive() {
        let cfg = PlanConfig::default();
        check(8, 8, 8, &cfg);
        check(75, 12, 64, &cfg);
        check(33, 27, 19, &cfg);
        check(1, 1, 1, &cfg);
    }

    #[test]
    fn compiled_with_forced_packing() {
        for pa in [Some(false), Some(true)] {
            for pb in [Some(false), Some(true)] {
                let cfg = PlanConfig {
                    pack_a: pa,
                    pack_b: pb,
                    ..Default::default()
                };
                check(20, 14, 11, &cfg);
            }
        }
    }

    #[test]
    fn compiled_across_k_blocks() {
        let cfg = PlanConfig::default();
        check(16, 16, 1500, &cfg);
    }

    #[test]
    fn tile_count_matches_plan() {
        let plan = SmmPlan::build(32, 24, 16, &PlanConfig::default());
        let compiled = CompiledPlan::compile(&plan, 32, 16, 32);
        assert_eq!(compiled.tiles(), plan.m_tiles.len() * plan.n_tiles.len());
    }

    #[test]
    fn scratch_reuse_is_stable() {
        let plan = SmmPlan::build(
            12,
            12,
            12,
            &PlanConfig {
                pack_b: Some(true),
                ..Default::default()
            },
        );
        let compiled = CompiledPlan::compile(&plan, 12, 12, 12);
        let a = Mat::<f32>::random(12, 12, 1);
        let b = Mat::<f32>::random(12, 12, 2);
        let mut scratch = CompiledScratch::new();
        let mut first = vec![0.0f32; 144];
        compiled.execute(1.0, a.data(), b.data(), 0.0, &mut first, &mut scratch);
        let mut second = vec![0.0f32; 144];
        compiled.execute(1.0, a.data(), b.data(), 0.0, &mut second, &mut scratch);
        assert_eq!(first, second);
    }

    #[test]
    #[should_panic(expected = "leading dimensions")]
    fn bad_ld_rejected() {
        let plan = SmmPlan::build(8, 8, 8, &PlanConfig::default());
        CompiledPlan::compile(&plan, 4, 8, 8);
    }
}
