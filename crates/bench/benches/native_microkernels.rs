//! Native micro-kernel throughput: the Table I register tiles, the
//! OpenBLAS edge shapes and odd edge tiles (row and column tails), on
//! packed operands (kc = 64).

use smm_bench::timing::Group;
use smm_kernels::Kernel;

fn bench_kernels() {
    let mut group = Group::new("native_microkernels");
    let kc = 64usize;
    for &(mr, nr) in &[
        (16usize, 4usize),
        (8, 8),
        (8, 12),
        (12, 4),
        (8, 4),
        (4, 8),
        (4, 4),
        (2, 4),
        (1, 4),
        (7, 5),
        (3, 13),
    ] {
        let a: Vec<f32> = (0..mr * kc).map(|i| (i % 13) as f32 * 0.25).collect();
        let b: Vec<f32> = (0..nr * kc).map(|i| (i % 7) as f32 * 0.5).collect();
        let mut cbuf = vec![0.0f32; mr * nr];
        let kernel = Kernel::<f32>::for_shape(mr, nr);
        group.throughput((2 * mr * nr * kc) as u64);
        group.bench(&format!("{mr}x{nr}"), || {
            kernel.run(
                kc,
                1.0,
                std::hint::black_box(&a),
                std::hint::black_box(&b),
                &mut cbuf,
                mr,
            );
        });
    }
}

fn main() {
    bench_kernels();
}
