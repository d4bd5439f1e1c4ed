//! Native execution of an [`SmmPlan`].
//!
//! Single-threaded execution writes micro-tiles straight into `C`
//! (tiles are exact, never padded). Multi-threaded execution splits the
//! plan's tile lists across the thread grid's `m_ways × n_ways`; each
//! grid cell receives a disjoint tile of `C` from
//! [`MatMut::split_grid`] and updates it **in place** — no private
//! block, no post-join merge pass, `C` is swept once. Packing buffers
//! come from the thread-local [`smm_gemm::arena`], so a warmed-up
//! steady state allocates nothing per call.
//!
//! Multi-threaded plans run on a persistent [`TaskPool`] instead of
//! spawning threads per call — thread startup is the §III-D overhead
//! that makes naive parallel SMM slower than sequential. The cell
//! decomposition is identical to the historical spawn-per-call
//! executor, so results are bit-for-bit unchanged (see
//! `pooled_execution_is_bit_identical_to_spawn_per_call`).

use std::time::Instant;

use smm_gemm::arena;
use smm_gemm::matrix::{MatMut, MatRef};
use smm_gemm::naive::check_dims_of;
use smm_gemm::pack::{pack_a_exact, pack_b_exact_append};
use smm_gemm::parallel::split_ranges;
use smm_gemm::pool::TaskPool;
use smm_kernels::native::{ukr_ptr, BLayout};
use smm_kernels::registry::TileSpan;
use smm_kernels::Scalar;

use crate::plan::SmmPlan;
use crate::telemetry::{now_if, Phase, Recorder};
use crate::trace::{SpanName, Tracer};

/// Execute `C = alpha·A·B + beta·C` under a plan, on the process-wide
/// persistent pool ([`TaskPool::global`]).
pub fn execute<S: Scalar>(
    plan: &SmmPlan,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
) {
    execute_in(TaskPool::global(), plan, alpha, a, b, beta, c);
}

/// [`execute`] on an explicit pool handle.
pub fn execute_in<S: Scalar>(
    pool: &TaskPool,
    plan: &SmmPlan,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
) {
    execute_traced(pool, plan, Recorder::none(), alpha, a, b, beta, c);
}

/// [`execute_in`] with a telemetry [`Recorder`]: when the recorder is
/// active, this call's pack/compute spans (and, for multi-threaded
/// plans, the dispatch and synchronization spans) are recorded under
/// the recorder's call site. With an inactive recorder the function
/// never reads the clock, so the untraced path is unchanged.
#[allow(clippy::too_many_arguments)]
pub fn execute_traced<S: Scalar>(
    pool: &TaskPool,
    plan: &SmmPlan,
    rec: Recorder<'_>,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    c: MatMut<'_, S>,
) {
    execute_traced_ctx(
        pool,
        plan,
        rec,
        &Tracer::disabled(),
        None,
        alpha,
        a,
        b,
        beta,
        c,
    );
}

/// [`execute_traced`] under a request [`Tracer`]: when tracing is
/// enabled, each pool-worker cell task emits a `worker` span parented
/// under the caller's current span (captured as a [`crate::TraceCtx`]
/// before dispatch, since the cells run on pool threads). The cell
/// decomposition and execution order are untouched — results stay
/// bit-for-bit identical to the untraced path.
///
/// `start` lets a caller that has just read the clock (through `rec`)
/// hand that reading over as the start of execution instead of paying
/// for another; a single-threaded compute span then also covers the
/// beta scaling. The return value is the clock reading that closed
/// the execution (`None` when `rec` is inactive), for the caller to
/// reuse as the end of its call.
#[allow(clippy::too_many_arguments)]
pub fn execute_traced_ctx<S: Scalar>(
    pool: &TaskPool,
    plan: &SmmPlan,
    rec: Recorder<'_>,
    tracer: &Tracer,
    start: Option<Instant>,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    beta: S,
    mut c: MatMut<'_, S>,
) -> Option<Instant> {
    let (m, k, n) = check_dims_of(&a, &b, c.rows(), c.cols());
    assert_eq!(
        (m, n, k),
        (plan.m, plan.n, plan.k),
        "plan was built for {}x{}x{}",
        plan.m,
        plan.n,
        plan.k
    );
    let timed = rec.active();
    let threads = plan.threads();
    if threads <= 1 {
        c.scale(beta);
        let t0 = start.or_else(|| rec.now());
        let cost = run_tiles(
            plan,
            timed,
            alpha,
            a,
            b,
            &mut c,
            &plan.m_tiles,
            &plan.n_tiles,
            0,
            0,
        );
        let end = rec.now();
        if let (Some(t0), Some(t1)) = (t0, end) {
            record_cost(&rec, &cost, t1.duration_since(t0).as_nanos() as u64);
        }
        return end;
    }

    // The beta scaling is the serial bookend of the parallel section —
    // it counts as Sync in the Table-II sense, together with the
    // caller's wait beyond the slowest task. (The historical post-join
    // merge pass — the other bookend — no longer exists: each cell
    // writes its disjoint C tile in place.)
    let t_scale = start.or_else(|| rec.now());
    c.scale(beta);
    let scale_ns = t_scale.map_or(0, |t| t.elapsed().as_nanos() as u64);

    // Non-empty grid cells. Plan tiles cover each dimension
    // contiguously, so chunk row/col spans partition C exactly.
    let m_chunks = split_ranges(plan.m_tiles.len(), plan.grid.m_ways());
    let n_chunks = split_ranges(plan.n_tiles.len(), plan.grid.n_ways());
    let row_bands: Vec<(usize, usize, &[TileSpan])> = m_chunks
        .iter()
        .filter(|&&(_, mc)| mc > 0)
        .map(|&(ms, mc)| {
            let tiles = &plan.m_tiles[ms..ms + mc];
            let rows: usize = tiles.iter().map(|t| t.logical).sum();
            (tiles[0].offset, rows, tiles)
        })
        .collect();
    let col_bands: Vec<(usize, usize, &[TileSpan])> = n_chunks
        .iter()
        .filter(|&&(_, nc)| nc > 0)
        .map(|&(ns, nc)| {
            let tiles = &plan.n_tiles[ns..ns + nc];
            let cols: usize = tiles.iter().map(|t| t.logical).sum();
            (tiles[0].offset, cols, tiles)
        })
        .collect();
    let row_splits: Vec<(usize, usize)> = row_bands.iter().map(|&(i0, r, _)| (i0, r)).collect();
    let col_splits: Vec<(usize, usize)> = col_bands.iter().map(|&(j0, cl, _)| (j0, cl)).collect();
    // split_grid yields row band outer, column band inner — the same
    // order the nested loops below consume.
    let mut tiles_iter = c.split_grid(&row_splits, &col_splits).into_iter();

    // Parentage for the worker spans, captured on this thread: the
    // cells run on pool threads where the thread-local current span is
    // someone else's (or nobody's).
    let ctx = tracer.current_ctx();
    let mut tasks: Vec<_> = Vec::with_capacity(row_bands.len() * col_bands.len());
    let mut cell = 0u64;
    for &(i_base, _, m_tiles) in &row_bands {
        for &(j_base, _, n_tiles) in &col_bands {
            let (ti, tj, mut tile) = tiles_iter.next().expect("one tile per band pair");
            debug_assert_eq!((ti, tj), (i_base, j_base));
            let cell_idx = cell;
            cell += 1;
            tasks.push(move || {
                let _w = tracer.span_in(ctx, SpanName::Worker, cell_idx);
                let t0 = now_if(timed);
                let cost = run_tiles(
                    plan, timed, alpha, a, b, &mut tile, m_tiles, n_tiles, i_base, j_base,
                );
                let busy_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                (cost, busy_ns)
            });
        }
    }
    let t_dispatch = rec.now();
    let results = pool.run_scoped(tasks);
    let end = rec.now();
    let dispatch_ns = match (t_dispatch, end) {
        (Some(t0), Some(t1)) => t1.duration_since(t0).as_nanos() as u64,
        _ => 0,
    };
    if timed {
        let mut max_busy = 0u64;
        for (cost, busy_ns) in results {
            record_cost(&rec, &cost, busy_ns);
            max_busy = max_busy.max(busy_ns);
        }
        rec.span_ns(Phase::Dispatch, dispatch_ns);
        // Barrier slack (the caller's wait beyond the slowest cell)
        // plus the serial scale bookend; no merge term remains.
        rec.span_ns(Phase::Sync, dispatch_ns.saturating_sub(max_busy) + scale_ns);
    }
    end
}

/// Packing cost observed by one [`run_tiles`] invocation; all zeros
/// when untimed.
#[derive(Debug, Clone, Copy, Default)]
struct PackCost {
    a_ns: u64,
    b_ns: u64,
    bytes: u64,
    a_packed: bool,
    b_packed: bool,
}

/// Record one tile-run's spans: pack phases as measured, compute as
/// the remainder of the run's wall time.
fn record_cost(rec: &Recorder<'_>, cost: &PackCost, total_ns: u64) {
    if cost.a_packed {
        rec.span_ns(Phase::PackA, cost.a_ns);
    }
    if cost.b_packed {
        rec.span_ns(Phase::PackB, cost.b_ns);
    }
    if cost.bytes > 0 {
        rec.packed_bytes(cost.bytes);
    }
    rec.span_ns(
        Phase::Compute,
        total_ns.saturating_sub(cost.a_ns + cost.b_ns),
    );
}

/// Run a set of tiles; tile offsets are global, `i_base`/`j_base`
/// translate them into the target `C` view.
///
/// With `timed` set, each packing call is individually clocked and the
/// accumulated cost returned; packing is coarse enough (one call per
/// panel per k-block, never per micro-kernel) that the extra clock
/// reads stay amortized. Untimed runs return a zero [`PackCost`] and
/// never read the clock.
#[allow(clippy::too_many_arguments)]
fn run_tiles<S: Scalar>(
    plan: &SmmPlan,
    timed: bool,
    alpha: S,
    a: MatRef<'_, S>,
    b: MatRef<'_, S>,
    c: &mut MatMut<'_, S>,
    m_tiles: &[TileSpan],
    n_tiles: &[TileSpan],
    i_base: usize,
    j_base: usize,
) -> PackCost {
    let lda = a.ld();
    let ldb = b.ld();
    let ldc = c.ld();
    let nr = plan.kernel.nr;
    let elem = std::mem::size_of::<S>() as u64;
    let mut cost = PackCost::default();

    // Arena-backed working storage: one buffer holds every packed B
    // sliver of a k block (offsets below), one the current A panel.
    // After warm-up these checkouts allocate nothing.
    let kc_max = plan.kc.min(plan.k);
    let n_total: usize = n_tiles.iter().map(|t| t.logical).sum();
    let m_max: usize = m_tiles.iter().map(|t| t.logical).max().unwrap_or(0);
    let mut bpack = arena::checkout::<S>(kc_max * n_total);
    let mut apack = arena::checkout::<S>(kc_max * m_max);
    // Per-sliver start offsets into `bpack`; UNPACKED marks slivers
    // streamed straight from B.
    const UNPACKED: usize = usize::MAX;
    let mut b_offs = arena::checkout::<usize>(n_tiles.len());

    let mut kk = 0;
    while kk < plan.k {
        let kc = plan.kc.min(plan.k - kk);
        // Decide and perform B packing for this k block.
        bpack.clear();
        b_offs.clear();
        for jt in n_tiles.iter() {
            let edge = jt.logical < nr;
            if plan.pack_b || (edge && plan.pack_edge_b) {
                let t0 = now_if(timed);
                let off = pack_b_exact_append(b, kk, jt.offset, kc, jt.logical, &mut bpack);
                if let Some(t0) = t0 {
                    cost.b_ns += t0.elapsed().as_nanos() as u64;
                    cost.bytes += (kc * jt.logical) as u64 * elem;
                    cost.b_packed = true;
                }
                b_offs.push(off);
            } else {
                b_offs.push(UNPACKED);
            }
        }
        for it in m_tiles {
            // A source: packed panel or the raw column-major block.
            let (a_src, a_stride): (&[S], usize) = if plan.pack_a {
                let t0 = now_if(timed);
                pack_a_exact(a, it.offset, kk, it.logical, kc, &mut apack);
                if let Some(t0) = t0 {
                    cost.a_ns += t0.elapsed().as_nanos() as u64;
                    cost.bytes += (it.logical * kc) as u64 * elem;
                    cost.a_packed = true;
                }
                (apack.as_slice(), it.logical)
            } else {
                (&a.data()[kk * lda + it.offset..], lda)
            };
            for (s, jt) in n_tiles.iter().enumerate() {
                let cptr = c.tile_ptr(
                    it.offset - i_base,
                    jt.offset - j_base,
                    it.logical,
                    jt.logical,
                );
                let (b_src, b_layout) = if b_offs[s] != UNPACKED {
                    (
                        &bpack[b_offs[s]..b_offs[s] + kc * jt.logical],
                        BLayout::Packed,
                    )
                } else {
                    (&b.data()[jt.offset * ldb + kk..], BLayout::ColMajor { ldb })
                };
                // SAFETY: `tile_ptr` just asserted the tile's
                // `logical x logical` window lies inside `c`, whose
                // elements `&mut c` owns exclusively; the kernel writes
                // exactly that footprint with stride `ldc = c.ld()`.
                unsafe {
                    ukr_ptr(
                        it.logical, jt.logical, kc, alpha, a_src, a_stride, b_src, b_layout, cptr,
                        ldc,
                    )
                };
            }
        }
        kk += kc;
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanConfig;
    use smm_gemm::gemm_naive;
    use smm_gemm::matrix::Mat;

    fn check(m: usize, n: usize, k: usize, cfg: &PlanConfig, alpha: f32, beta: f32) {
        let plan = SmmPlan::build(m, n, k, cfg);
        let a = Mat::<f32>::random(m, k, 21);
        let b = Mat::<f32>::random(k, n, 22);
        let mut c = Mat::<f32>::random(m, n, 23);
        let mut c_ref = c.clone();
        execute(&plan, alpha, a.as_ref(), b.as_ref(), beta, c.as_mut());
        gemm_naive(alpha, a.as_ref(), b.as_ref(), beta, c_ref.as_mut());
        let d = c.max_abs_diff(&c_ref);
        assert!(d < 1e-3, "{m}x{n}x{k} cfg {cfg:?}: diff {d}");
    }

    #[test]
    fn default_plan_matches_naive() {
        let cfg = PlanConfig::default();
        check(8, 8, 8, &cfg, 1.0, 0.0);
        check(64, 64, 64, &cfg, 1.0, 1.0);
        check(75, 60, 60, &cfg, 2.0, 0.5);
        check(5, 200, 30, &cfg, 1.0, 0.0);
        check(200, 5, 30, &cfg, 1.0, 0.0);
        check(30, 30, 2, &cfg, -1.0, 1.0);
        check(1, 1, 1, &cfg, 1.0, 3.0);
    }

    #[test]
    fn all_packing_combinations_are_correct() {
        for pa in [Some(false), Some(true)] {
            for pb in [Some(false), Some(true)] {
                let cfg = PlanConfig {
                    pack_a: pa,
                    pack_b: pb,
                    ..Default::default()
                };
                check(33, 27, 19, &cfg, 1.5, 0.25);
                check(13, 3, 41, &cfg, 1.0, 0.0);
            }
        }
    }

    #[test]
    fn edge_packing_toggle_is_correct() {
        for peb in [false, true] {
            let cfg = PlanConfig {
                pack_b: Some(false),
                pack_edge_b: peb,
                ..Default::default()
            };
            check(16, 13, 8, &cfg, 1.0, 0.0);
        }
    }

    #[test]
    fn multithreaded_plans_match_naive() {
        for threads in [2, 4, 8] {
            let cfg = PlanConfig {
                max_threads: threads,
                ..Default::default()
            };
            check(48, 96, 24, &cfg, 1.0, 1.0);
            check(96, 16, 32, &cfg, 2.0, 0.0);
        }
    }

    #[test]
    fn multithreaded_tiny_problem_degrades_gracefully() {
        let cfg = PlanConfig {
            max_threads: 64,
            ..Default::default()
        };
        check(4, 4, 4, &cfg, 1.0, 0.0);
        check(2, 50, 10, &cfg, 1.0, 1.0);
    }

    #[test]
    fn k_blocking_boundaries_are_exact() {
        // Force multiple kc blocks.
        let cfg = PlanConfig::default();
        let plan = SmmPlan::build(16, 16, 2100, &cfg);
        assert!(plan.kc < 2100);
        check(16, 16, 2100, &cfg, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "plan was built for")]
    fn mismatched_shape_rejected() {
        let plan = SmmPlan::build(8, 8, 8, &PlanConfig::default());
        let a = Mat::<f32>::zeros(9, 8);
        let b = Mat::<f32>::zeros(8, 8);
        let mut c = Mat::<f32>::zeros(9, 8);
        execute(&plan, 1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    }

    #[test]
    fn explicit_pool_matches_global_pool() {
        let pool = TaskPool::new(3);
        let cfg = PlanConfig {
            max_threads: 4,
            ..Default::default()
        };
        let plan = SmmPlan::build(48, 40, 24, &cfg);
        let a = Mat::<f32>::random(48, 24, 31);
        let b = Mat::<f32>::random(24, 40, 32);
        let mut c1 = Mat::<f32>::random(48, 40, 33);
        let mut c2 = c1.clone();
        execute(&plan, 1.25, a.as_ref(), b.as_ref(), 0.5, c1.as_mut());
        execute_in(&pool, &plan, 1.25, a.as_ref(), b.as_ref(), 0.5, c2.as_mut());
        assert_eq!(c1.data(), c2.data());
    }

    /// The historical executor this PR replaced: one `thread::scope`
    /// spawn per grid cell, joined in submission order. Kept verbatim
    /// as the oracle for the bit-for-bit parity guarantee.
    fn execute_spawn_per_call<S: Scalar>(
        plan: &SmmPlan,
        alpha: S,
        a: MatRef<'_, S>,
        b: MatRef<'_, S>,
        beta: S,
        mut c: MatMut<'_, S>,
    ) {
        let (m, k, n) = check_dims_of(&a, &b, c.rows(), c.cols());
        assert_eq!((m, n, k), (plan.m, plan.n, plan.k));
        c.scale(beta);
        if plan.threads() <= 1 {
            run_tiles(
                plan,
                false,
                alpha,
                a,
                b,
                &mut c,
                &plan.m_tiles,
                &plan.n_tiles,
                0,
                0,
            );
            return;
        }
        let m_chunks = split_ranges(plan.m_tiles.len(), plan.grid.m_ways());
        let n_chunks = split_ranges(plan.n_tiles.len(), plan.grid.n_ways());
        let mut cells: Vec<(usize, usize, usize, usize, Mat<S>)> = Vec::new();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for &(ms, mc) in &m_chunks {
                for &(ns, nc) in &n_chunks {
                    if mc == 0 || nc == 0 {
                        continue;
                    }
                    let m_tiles = &plan.m_tiles[ms..ms + mc];
                    let n_tiles = &plan.n_tiles[ns..ns + nc];
                    let i_base = m_tiles[0].offset;
                    let j_base = n_tiles[0].offset;
                    let rows: usize = m_tiles.iter().map(|t| t.logical).sum();
                    let cols: usize = n_tiles.iter().map(|t| t.logical).sum();
                    handles.push(scope.spawn(move || {
                        let mut local = Mat::<S>::zeros(rows, cols);
                        {
                            let mut lm = local.as_mut();
                            run_tiles(
                                plan, false, alpha, a, b, &mut lm, m_tiles, n_tiles, i_base, j_base,
                            );
                        }
                        (i_base, j_base, rows, cols, local)
                    }));
                }
            }
            for h in handles {
                cells.push(h.join().expect("SMM worker panicked"));
            }
        });
        for (i_base, j_base, rows, cols, local) in cells {
            for j in 0..cols {
                for i in 0..rows {
                    let v = c.at(i_base + i, j_base + j) + local[(i, j)];
                    c.set(i_base + i, j_base + j, v);
                }
            }
        }
    }

    #[test]
    fn pooled_execution_is_bit_identical_to_spawn_per_call() {
        for &(m, n, k, threads) in &[
            (48usize, 96usize, 24usize, 4usize),
            (96, 16, 32, 8),
            (33, 27, 19, 2),
            (64, 64, 64, 16),
        ] {
            let cfg = PlanConfig {
                max_threads: threads,
                ..Default::default()
            };
            let plan = SmmPlan::build(m, n, k, &cfg);
            let a = Mat::<f32>::random(m, k, 41);
            let b = Mat::<f32>::random(k, n, 42);
            let mut c_pool = Mat::<f32>::random(m, n, 43);
            let mut c_spawn = c_pool.clone();
            execute(&plan, 1.5, a.as_ref(), b.as_ref(), 0.25, c_pool.as_mut());
            execute_spawn_per_call(&plan, 1.5, a.as_ref(), b.as_ref(), 0.25, c_spawn.as_mut());
            for (x, y) in c_pool.data().iter().zip(c_spawn.data()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{n}x{k} t{threads}");
            }
        }
    }
}
