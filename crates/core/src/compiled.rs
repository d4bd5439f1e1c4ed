//! Compiled plans: flattened tile schedules with precomputed offsets.
//!
//! §IV of the paper recommends JIT techniques partly because they
//! "pre-calculate the offsets of memory accesses". [`SmmPlan`] still
//! walks its tile tables and recomputes element offsets on every call;
//! a [`CompiledPlan`] does that walk once, emitting a flat schedule of
//! [`TileOp`]s whose operand offsets, kernel dispatch and packing
//! directives are all resolved. Executing a compiled plan is a single
//! pass over the schedule — the steady-state dispatch cost for the
//! repeated tiny GEMMs that motivate SMM.
//!
//! Compiled plans are single-threaded by design (batch-level
//! parallelism composes on top, see [`crate::batch`]).

use smm_gemm::matrix::{MatMut, MatRef};
use smm_gemm::naive::check_dims;
use smm_gemm::pack::{pack_a_exact, pack_b_exact};
use smm_kernels::native::{ukr, BLayout};
use smm_kernels::Scalar;

use crate::plan::SmmPlan;

/// One packing directive in the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PackOp {
    /// Pack an A panel: `(row_offset, rows, buffer_index)`.
    A(usize, usize, usize),
    /// Pack a B sliver: `(col_offset, cols, buffer_index)`.
    B(usize, usize, usize),
}

/// One micro-tile invocation with fully resolved offsets.
#[derive(Debug, Clone, Copy)]
struct TileOp {
    /// Tile shape.
    mr: usize,
    nr: usize,
    /// Offset of `A(i0, kk)` in the caller's buffer (element units),
    /// or index of the packed-A buffer when `a_packed`.
    a_off: usize,
    a_packed: bool,
    a_stride: usize,
    /// Offset of `B(kk, j0)` or packed-B buffer index.
    b_off: usize,
    b_packed: bool,
    /// Offset of `C(i0, j0)`.
    c_off: usize,
    kc: usize,
}

/// A plan compiled against concrete leading dimensions.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    m: usize,
    n: usize,
    k: usize,
    lda: usize,
    ldb: usize,
    ldc: usize,
    /// Interleaved schedule: packing directives then tiles, per k-block.
    schedule: Vec<(Vec<PackOp>, Vec<TileOp>)>,
    n_a_buffers: usize,
    n_b_buffers: usize,
}

impl CompiledPlan {
    /// Flatten `plan` for operands with the given leading dimensions.
    pub fn compile(plan: &SmmPlan, lda: usize, ldb: usize, ldc: usize) -> Self {
        assert!(
            lda >= plan.m && ldb >= plan.k && ldc >= plan.m,
            "leading dimensions too small"
        );
        let nr = plan.kernel.nr;
        let mut schedule = Vec::new();
        let mut n_a_buffers = 0usize;
        let mut n_b_buffers = 0usize;

        let mut kk = 0;
        while kk < plan.k {
            let kc = plan.kc.min(plan.k - kk);
            let mut packs = Vec::new();
            // B packing decisions per sliver, with stable buffer ids.
            let mut b_buffer: Vec<Option<usize>> = Vec::with_capacity(plan.n_tiles.len());
            for jt in &plan.n_tiles {
                let edge = jt.logical < nr;
                if plan.pack_b || (edge && plan.pack_edge_b) {
                    let id = n_b_buffers;
                    n_b_buffers += 1;
                    packs.push(PackOp::B(jt.offset, jt.logical, id));
                    b_buffer.push(Some(id));
                } else {
                    b_buffer.push(None);
                }
            }
            let mut tiles = Vec::new();
            for it in &plan.m_tiles {
                let a_buffer = if plan.pack_a {
                    let id = n_a_buffers;
                    n_a_buffers += 1;
                    packs.push(PackOp::A(it.offset, it.logical, id));
                    Some(id)
                } else {
                    None
                };
                for (s, jt) in plan.n_tiles.iter().enumerate() {
                    tiles.push(TileOp {
                        mr: it.logical,
                        nr: jt.logical,
                        a_off: a_buffer.unwrap_or(kk * lda + it.offset),
                        a_packed: a_buffer.is_some(),
                        a_stride: if a_buffer.is_some() { it.logical } else { lda },
                        b_off: b_buffer[s].unwrap_or(jt.offset * ldb + kk),
                        b_packed: b_buffer[s].is_some(),
                        c_off: jt.offset * ldc + it.offset,
                        kc,
                    });
                }
            }
            schedule.push((packs, tiles));
            kk += kc;
        }
        CompiledPlan {
            m: plan.m,
            n: plan.n,
            k: plan.k,
            lda,
            ldb,
            ldc,
            schedule,
            n_a_buffers,
            n_b_buffers,
        }
    }

    /// Total tile invocations per call.
    pub fn tiles(&self) -> usize {
        self.schedule.iter().map(|(_, t)| t.len()).sum()
    }

    /// Execute `C = alpha·A·B + beta·C` over raw column-major slices
    /// with the compiled leading dimensions. `bufs` is reusable scratch
    /// (cleared and refilled here; keep it across calls to avoid
    /// allocation).
    pub fn execute<S: Scalar>(
        &self,
        alpha: S,
        a: &[S],
        b: &[S],
        beta: S,
        c: &mut [S],
        bufs: &mut CompiledScratch<S>,
    ) {
        let ar = MatRef::from_slice(a, self.m, self.k, self.lda);
        let br = MatRef::from_slice(b, self.k, self.n, self.ldb);
        let mut cm = MatMut::from_slice(c, self.m, self.n, self.ldc);
        check_dims(&ar, &br, &cm.rb());
        cm.scale(beta);
        bufs.a.resize(self.n_a_buffers, Vec::new());
        bufs.b.resize(self.n_b_buffers, Vec::new());

        let mut kk = 0;
        for (packs, tiles) in &self.schedule {
            let kc = tiles.first().map_or(self.k - kk, |t| t.kc);
            for p in packs {
                match *p {
                    PackOp::A(off, rows, id) => {
                        pack_a_exact(ar, off, kk, rows, kc, &mut bufs.a[id])
                    }
                    PackOp::B(off, cols, id) => {
                        pack_b_exact(br, kk, off, kc, cols, &mut bufs.b[id])
                    }
                }
            }
            for t in tiles {
                let a_src: &[S] = if t.a_packed {
                    &bufs.a[t.a_off]
                } else {
                    &a[t.a_off..]
                };
                let (b_src, b_layout): (&[S], _) = if t.b_packed {
                    (&bufs.b[t.b_off], BLayout::Packed)
                } else {
                    (&b[t.b_off..], BLayout::ColMajor { ldb: self.ldb })
                };
                ukr(
                    t.mr,
                    t.nr,
                    t.kc,
                    alpha,
                    a_src,
                    t.a_stride,
                    b_src,
                    b_layout,
                    &mut cm.data_mut()[t.c_off..],
                    self.ldc,
                );
            }
            kk += kc;
        }
    }
}

/// Reusable packing scratch for [`CompiledPlan::execute`].
#[derive(Debug, Default)]
pub struct CompiledScratch<S: Scalar> {
    a: Vec<Vec<S>>,
    b: Vec<Vec<S>>,
}

impl<S: Scalar> CompiledScratch<S> {
    /// Empty scratch.
    pub fn new() -> Self {
        CompiledScratch {
            a: Vec::new(),
            b: Vec::new(),
        }
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
