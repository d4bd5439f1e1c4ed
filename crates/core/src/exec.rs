//! Native execution of an [`SmmPlan`].
//!
//! Every plan carries its compiled tile schedule (see
//! [`crate::compiled`]); this module runs it. A single-threaded plan
//! runs its whole schedule on the calling thread, straight into `C`
//! (tiles are exact, never padded). A multi-threaded plan splits `C`
//! with [`MatMut::split_grid`] into the disjoint blocks of its grid
//! cells, and each cell runs its range of the schedule **in place** on
//! a persistent [`TaskPool`] worker — no private block, no post-join
//! merge pass, no per-call thread spawns (thread startup is the §III-D
//! overhead that makes naive parallel SMM slower than sequential).
//! Packing buffers come from the thread-local [`smm_gemm::arena`], so a
//! warmed-up steady state allocates nothing per call.
//!
//! Every element is computed by one kernel call per k block in k-block
//! order, whatever the grid, so results are bit-for-bit independent of
//! the thread count (see `pooled_execution_is_bit_identical_to_spawn_per_call`
//! and the `golden_outputs` suite).

use std::time::Instant;

use smm_gemm::matrix::{MatMut, MatRef};
use smm_gemm::naive::check_dims_of;
use smm_gemm::pool::TaskPool;
use smm_kernels::Scalar;

use crate::compiled::{PackCost, Scratch};
use crate::plan::SmmPlan;
use crate::telemetry::{Phase, Recorder};
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
    let sched = &plan.schedule;
    if plan.threads() <= 1 {
        c.scale(beta);
        let t0 = start.or_else(|| rec.now());
        let (mut cost, mut scratch) = (PackCost::default(), Scratch::default());
        sched.run_all(alpha, a, b, &mut c, &mut scratch, timed, &mut cost);
        let end = rec.now();
        if let (Some(t0), Some(t1)) = (t0, end) {
            cost.record(&rec, t1.duration_since(t0).as_nanos() as u64);
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

    // split_grid yields row band outer, column band inner — the order
    // the schedule lists its cells in.
    let tiles = c.split_grid(&sched.row_bands, &sched.col_bands);
    // Parentage for the worker spans, captured on this thread: the
    // cells run on pool threads where the thread-local current span is
    // someone else's (or nobody's).
    let ctx = tracer.current_ctx();
    let tasks: Vec<_> = sched
        .cells
        .iter()
        .zip(tiles)
        .enumerate()
        .map(|(idx, (cell, (ti, tj, mut tile)))| {
            assert_eq!((ti, tj), (cell.i0, cell.j0), "grid cell out of order");
            move || {
                let _w = tracer.span_in(ctx, SpanName::Worker, idx as u64);
                let t0 = rec.now();
                let (steps, base) = (cell.steps.clone(), (cell.i0, cell.j0));
                let (mut cost, mut scratch) = (PackCost::default(), Scratch::default());
                sched.run(
                    steps,
                    base,
                    alpha,
                    a,
                    b,
                    &mut tile,
                    &mut scratch,
                    timed,
                    &mut cost,
                );
                let busy_ns = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                // Recorded here, in parallel with the other cells.
                if timed {
                    cost.record(&rec, busy_ns);
                }
                busy_ns
            }
        })
        .collect();
    let t_dispatch = rec.now();
    let busy = pool.run_scoped(tasks);
    let end = rec.now();
    let dispatch_ns = t_dispatch
        .zip(end)
        .map_or(0, |(t0, t1)| t1.duration_since(t0).as_nanos() as u64);
    if timed {
        let max_busy = busy.into_iter().max().unwrap_or(0);
        rec.span_ns(Phase::Dispatch, dispatch_ns);
        // Barrier slack (the caller's wait beyond the slowest cell)
        // plus the serial scale bookend; no merge term remains.
        rec.span_ns(Phase::Sync, dispatch_ns.saturating_sub(max_busy) + scale_ns);
    }
    end
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

    /// FNV-1a digests of the outputs below, recorded from the
    /// historical spawn-per-call executor: one `thread::scope` spawn
    /// per grid cell walking the plan's tile tables into a private
    /// block, merged into `C` after the join.
    const SPAWN_PER_CALL_DIGESTS: [(usize, usize, usize, usize, u64); 4] = [
        (48, 96, 24, 4, 0x1b5f_a69b_ea1a_d0e8),
        (96, 16, 32, 8, 0x172a_3e79_f5d2_9c1a),
        (33, 27, 19, 2, 0x236f_acc3_0b1b_b4ac),
        (64, 64, 64, 16, 0xcc5d_df07_925b_6fc4),
    ];

    #[test]
    fn pooled_execution_is_bit_identical_to_spawn_per_call() {
        for (m, n, k, threads, want) in SPAWN_PER_CALL_DIGESTS {
            let cfg = PlanConfig {
                max_threads: threads,
                ..Default::default()
            };
            let plan = SmmPlan::build(m, n, k, &cfg);
            let a = Mat::<f32>::random(m, k, 41);
            let b = Mat::<f32>::random(k, n, 42);
            let mut c = Mat::<f32>::random(m, n, 43);
            execute(&plan, 1.5, a.as_ref(), b.as_ref(), 0.25, c.as_mut());
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for byte in c.data().iter().flat_map(|x| x.to_bits().to_le_bytes()) {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            assert_eq!(h, want, "{m}x{n}x{k} t{threads}");
        }
    }
}
