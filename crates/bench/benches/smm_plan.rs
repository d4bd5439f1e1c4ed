//! Plan-generation cost — the "JIT dispatch" overhead of the §IV
//! reference implementation: building a plan (and compiling its tile
//! schedule) from scratch vs hitting the shape cache, the end-to-end
//! win of caching for repeated tiny GEMMs, and what a cached call and a
//! batch entry add to a bare schedule execution.

use smm_bench::timing::Group;
use smm_core::{PlanConfig, Smm, SmmPlan};
use smm_gemm::matrix::Mat;

fn main() {
    let mut group = Group::new("smm_plan");
    let cfg = PlanConfig::default();
    group.bench("build_8x8x8", || {
        std::hint::black_box(SmmPlan::build(8, 8, 8, &cfg));
    });
    group.bench("build_200x200x200", || {
        std::hint::black_box(SmmPlan::build(200, 200, 200, &cfg));
    });
    let cfg64 = PlanConfig {
        max_threads: 64,
        ..Default::default()
    };
    group.bench("build_64thread_grid", || {
        std::hint::black_box(SmmPlan::build(128, 1024, 256, &cfg64));
    });

    // Cached lookup path (the steady state of repeated SMMs).
    let smm = Smm::<f32>::new();
    smm.plan(8, 8, 8);
    group.bench("cached_lookup", || {
        std::hint::black_box(smm.plan(8, 8, 8));
    });

    // End-to-end tiny GEMM through the cached path.
    let a = Mat::<f32>::random(8, 8, 1);
    let b = Mat::<f32>::random(8, 8, 2);
    let mut cm = Mat::<f32>::zeros(8, 8);
    group.bench("gemm_8x8x8_cached", || {
        smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, cm.as_mut())
    });

    // The same cached plan's compiled schedule run bare on raw slices
    // (no plan lookup, no telemetry; one executor serves both): the
    // floor under the cached call above.
    let plan = smm.plan(8, 8, 8);
    let compiled = smm_core::CompiledPlan::compile(&plan, 8, 8, 8);
    let mut scratch = smm_core::CompiledScratch::new();
    group.bench("schedule_8x8x8", || {
        compiled.execute(1.0f32, a.data(), b.data(), 0.0, cm.data_mut(), &mut scratch)
    });

    // One entry of a single-threaded 8^3 x 1024 batch on the same
    // schedule: the operand views and beta scaling are all it adds (the
    // `throughput` bin gates this ratio).
    let desc = smm_core::StridedBatch::dense(8, 8, 8, 1024);
    let ab: Vec<f32> = Mat::<f32>::random(8 * 1024, 8, 3).data().to_vec();
    let bb: Vec<f32> = Mat::<f32>::random(8 * 1024, 8, 4).data().to_vec();
    let mut cb = vec![0.0f32; 64 * 1024];
    group.bench("gemm_batch_8x8x8x1024", || {
        smm.gemm_batch(&desc, 1.0, &ab, &bb, 0.0, &mut cb).unwrap()
    });
}
