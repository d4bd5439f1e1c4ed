//! The kernel contract the packing-optional path of `exec` relies on:
//! `A` read in place with `a_stride = lda`, `B` either packed or read
//! in place as column-major.

use smm_kernels::native::{ukr, BLayout};

#[allow(clippy::too_many_arguments)]
fn reference(
    mr: usize,
    nr: usize,
    kc: usize,
    alpha: f32,
    a: &dyn Fn(usize, usize) -> f32,
    b: &dyn Fn(usize, usize) -> f32,
    c: &mut [f32],
    ldc: usize,
) {
    for j in 0..nr {
        for i in 0..mr {
            let mut s = 0.0;
            for p in 0..kc {
                s += a(i, p) * b(p, j);
            }
            c[j * ldc + i] += alpha * s;
        }
    }
}

fn check(mr: usize, nr: usize, kc: usize) {
    let lda = mr + 5;
    let ldb = kc + 3;
    let ldc = mr + 2;
    let a: Vec<f32> = (0..lda * kc).map(|i| ((i % 13) as f32) - 6.0).collect();
    let b: Vec<f32> = (0..ldb * nr).map(|i| ((i % 7) as f32) * 0.5).collect();
    // Packed B: bp[p*nr + j] = b[j*ldb + p].
    let mut bp = vec![0.0; kc * nr];
    for p in 0..kc {
        for j in 0..nr {
            bp[p * nr + j] = b[j * ldb + p];
        }
    }
    let af = |i: usize, p: usize| a[p * lda + i];
    let bf = |p: usize, j: usize| b[j * ldb + p];

    let mut c1 = vec![1.0f32; ldc * nr];
    let mut c2 = vec![1.0f32; ldc * nr];
    let mut c_ref = vec![1.0f32; ldc * nr];
    ukr(mr, nr, kc, 2.0, &a, lda, &bp, BLayout::Packed, &mut c1, ldc);
    let col_major = BLayout::ColMajor { ldb };
    ukr(mr, nr, kc, 2.0, &a, lda, &b, col_major, &mut c2, ldc);
    reference(mr, nr, kc, 2.0, &af, &bf, &mut c_ref, ldc);
    for i in 0..ldc * nr {
        assert!((c1[i] - c_ref[i]).abs() < 1e-3, "packed B {mr}x{nr} at {i}");
        assert!(
            (c2[i] - c_ref[i]).abs() < 1e-3,
            "col-major B {mr}x{nr} at {i}"
        );
    }
}

#[test]
fn static_shapes_match_reference() {
    for &(mr, nr) in &[
        (16, 4),
        (8, 8),
        (8, 12),
        (12, 4),
        (4, 4),
        (1, 4),
        (4, 1),
        (2, 2),
    ] {
        check(mr, nr, 9);
    }
}

#[test]
fn dynamic_shapes_match_reference() {
    check(7, 5, 11);
    check(3, 13, 4);
    check(16, 16, 3);
}

#[test]
fn kc_zero_is_identity() {
    let mut c = vec![3.0f32; 16];
    ukr(4, 4, 0, 1.0, &[], 4, &[], BLayout::Packed, &mut c, 4);
    assert!(c.iter().all(|&x| x == 3.0));
}

/// A tile taller than the column-major `A` it streams from is rejected
/// before any access, even when `C` has room for it.
#[test]
#[should_panic(expected = "A stride must cover the tile rows")]
fn oversized_tile_rejected() {
    let (lda, ldc, kc) = (32, 33, 2);
    let a = vec![0.0f32; lda * kc];
    let b = vec![0.0f32; 4 * kc];
    let mut c = vec![0.0f32; ldc * 4];
    ukr(33, 4, kc, 1.0, &a, lda, &b, BLayout::Packed, &mut c, ldc);
}
