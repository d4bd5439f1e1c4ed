//! `gemm_batch` against a per-entry `execute_in` under the same plan,
//! bit for bit, and the batch plan's place in the plan cache.
//!
//! The geometry sweep crosses thread counts {1, 2, 3, 8} with batch
//! sizes {1, threads − 1, threads + 1, 257}, so entry ranges come out
//! empty, single, uneven and long. Every batch has gapped leading
//! dimensions and padded strides; the gaps, the padding between
//! entries and a tail after the last entry hold a sentinel that must
//! survive. `beta ≠ 0` throughout, in `f32` and `f64`, with the model's
//! packing decisions and with both operands forced packed (so the pack
//! directives of the schedule run once per entry).

use smm_core::{execute_in, PlanConfig, Smm, SmmPlan, StridedBatch};
use smm_gemm::matrix::{MatMut, MatRef};
use smm_kernels::Scalar;

const SENTINEL: f64 = -7777.0;
/// Elements after the last entry's window.
const TAIL: usize = 9;

/// `len` values in [-1, 1] on a 1/997 grid.
fn fill<S: Scalar>(len: usize, seed: u64) -> Vec<S> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            S::from_f64(((state >> 33) % 1995) as f64 / 997.0 - 1.0)
        })
        .collect()
}

/// `batch` entries with every leading dimension and stride padded.
fn gapped(m: usize, n: usize, k: usize, batch: usize) -> StridedBatch {
    let (lda, ldb, ldc) = (m + 2, k + 1, m + 3);
    StridedBatch::try_new(
        m,
        n,
        k,
        batch,
        lda,
        lda * k + 5,
        ldb,
        ldb * n + 3,
        ldc,
        ldc * n + 7,
    )
    .unwrap()
}

/// Whether element `idx` of a `C` buffer lies in some entry's window.
fn in_window(d: &StridedBatch, idx: usize) -> bool {
    let (entry, off) = (idx / d.stride_c, idx % d.stride_c);
    entry < d.batch && off / d.ldc < d.n && off % d.ldc < d.m
}

fn check<S: Scalar>(smm: &Smm<S>, d: &StridedBatch, what: &str) {
    let a = fill::<S>(d.batch * d.stride_a, 1);
    let b = fill::<S>(d.batch * d.stride_b, 2);
    let values = fill::<S>(d.batch * d.stride_c + TAIL, 3);
    let c0: Vec<S> = (0..values.len())
        .map(|i| {
            if in_window(d, i) {
                values[i]
            } else {
                S::from_f64(SENTINEL)
            }
        })
        .collect();
    let (alpha, beta) = (S::from_f64(1.3), S::from_f64(0.75));

    let mut got = c0.clone();
    smm.gemm_batch(d, alpha, &a, &b, beta, &mut got).unwrap();

    let plan = smm.batch_plan(d.m, d.n, d.k);
    let mut want = c0;
    for i in 0..d.batch {
        execute_in(
            smm.pool(),
            &plan,
            alpha,
            MatRef::from_slice(&a[i * d.stride_a..], d.m, d.k, d.lda),
            MatRef::from_slice(&b[i * d.stride_b..], d.k, d.n, d.ldb),
            beta,
            MatMut::from_slice(&mut want[i * d.stride_c..], d.m, d.n, d.ldc),
        );
    }
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        let (g, w) = (g.to_f64(), w.to_f64());
        assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        if !in_window(d, i) {
            assert_eq!(g, SENTINEL, "{what}: gap element {i} written");
        }
    }
}

fn sweep<S: Scalar>(packed: bool) {
    for threads in [1usize, 2, 3, 8] {
        let force = packed.then_some(true);
        let smm = Smm::<S>::builder()
            .threads(threads)
            .pack_a(force)
            .pack_b(force)
            .build();
        for (m, n, k) in [(8, 8, 8), (7, 5, 13), (13, 6, 33)] {
            if packed {
                let plan = smm.batch_plan(m, n, k);
                assert!(plan.pack_a && plan.pack_b, "packing not forced");
            }
            for batch in [1, threads.saturating_sub(1), threads + 1, 257] {
                let d = gapped(m, n, k, batch);
                let what = format!("{m}x{n}x{k} x{batch} t{threads} packed={packed}");
                check(&smm, &d, &what);
            }
        }
    }
}

#[test]
fn batch_matches_per_entry_execution_f32() {
    sweep::<f32>(false);
}

#[test]
fn batch_matches_per_entry_execution_f64() {
    sweep::<f64>(false);
}

#[test]
fn batch_matches_per_entry_execution_with_forced_packing() {
    sweep::<f32>(true);
    sweep::<f64>(true);
}

#[test]
fn batch_plan_is_cached_one_miss_then_hits() {
    let smm = Smm::<f32>::new();
    let d = StridedBatch::dense(8, 8, 8, 16);
    let a = fill::<f32>(d.batch * d.stride_a, 1);
    let b = fill::<f32>(d.batch * d.stride_b, 2);
    let mut c = vec![0.0f32; d.batch * d.stride_c];
    let calls = 5;
    for _ in 0..calls {
        smm.gemm_batch(&d, 1.0, &a, &b, 0.0, &mut c).unwrap();
    }
    let s = smm.stats();
    assert_eq!((s.plan_misses, s.plan_hits), (1, calls - 1));
    // Single-threaded: the batch plan is the resident gemm plan.
    assert!(std::sync::Arc::ptr_eq(
        &smm.batch_plan(8, 8, 8),
        &smm.plan(8, 8, 8)
    ));
    assert_eq!(smm.cached_plans(), 1);
}

#[test]
fn threaded_instance_keys_the_batch_plan_on_its_thread_budget() {
    let smm = Smm::<f32>::with_threads(4);
    let (gemm, batch) = (smm.plan(64, 64, 64), smm.batch_plan(64, 64, 64));
    assert_eq!(gemm.threads(), 4);
    assert_eq!(batch.threads(), 1);
    assert_eq!(smm.stats().plan_misses, 2);
    assert_eq!(smm.cached_plans(), 1, "one shape, two budgets");
    // Under the default source the batch plan is the plain
    // single-threaded build.
    let cfg = PlanConfig {
        max_threads: 1,
        ..smm.config().clone()
    };
    let built = SmmPlan::build(64, 64, 64, &cfg);
    assert_eq!(format!("{batch:?}"), format!("{built:?}"));
}
