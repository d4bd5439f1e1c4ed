//! Host roofline probe: single-core f32 FMA throughput at each vector
//! width the host reports (detected at run time), and copy bandwidth at
//! the packing working-set size. Kernel and pack rows are reported as
//! fractions of these, not of the simulated Phytium core.

use std::hint::black_box;

use crate::util::{now, secs_since};

/// Bytes copied by the bandwidth probe: one 64×64 f32 block, the block
/// the pack probe packs.
pub const COPY_BYTES: usize = 64 * 64 * 4;

/// Independent accumulator chains per probe (more than latency ×
/// issue width on current cores, so the probe is throughput-bound).
const CHAINS: usize = 12;

/// What the probe measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// (vector bits, ISA name, Gflop/s) for every width present.
    pub fma: Vec<(u32, &'static str, f64)>,
    /// Best of `fma`.
    pub peak_gflops: f64,
    /// Copy bandwidth at `COPY_BYTES`, GB/s.
    pub copy_gbs: f64,
}

impl Host {
    /// Gflop/s at `bits`, 0 when the host lacks that width.
    pub fn at(&self, bits: u32) -> f64 {
        self.fma
            .iter()
            .find(|(b, _, _)| *b == bits)
            .map_or(0.0, |f| f.2)
    }
}

/// Best rate over five timed runs of `f(iters)`, which does
/// `flops_per_iter` flops per iteration; iterations are calibrated so
/// one run takes about 20 ms.
fn best_gflops(flops_per_iter: f64, f: impl Fn(u64) -> f32) -> f64 {
    let mut iters = 1u64 << 10;
    loop {
        let t = now();
        black_box(f(black_box(iters)));
        if secs_since(t) > 0.005 || iters > 1 << 30 {
            break;
        }
        iters *= 4;
    }
    iters *= 4;
    (0..5)
        .map(|_| {
            let t = now();
            black_box(f(black_box(iters)));
            flops_per_iter * iters as f64 / secs_since(t) / 1e9
        })
        .fold(0.0, f64::max)
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    use super::CHAINS;

    #[target_feature(enable = "fma")]
    pub fn fma128(iters: u64) -> f32 {
        let (x, y) = (_mm_set1_ps(0.999_999), _mm_set1_ps(1e-7));
        let mut acc = [_mm_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm_fmadd_ps(*a, x, y);
            }
        }
        let s = acc.iter().fold(_mm_setzero_ps(), |s, a| _mm_add_ps(s, *a));
        _mm_cvtss_f32(s)
    }

    #[target_feature(enable = "avx,fma")]
    pub fn fma256(iters: u64) -> f32 {
        let (x, y) = (_mm256_set1_ps(0.999_999), _mm256_set1_ps(1e-7));
        let mut acc = [_mm256_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm256_fmadd_ps(*a, x, y);
            }
        }
        let s = acc
            .iter()
            .fold(_mm256_setzero_ps(), |s, a| _mm256_add_ps(s, *a));
        _mm256_cvtss_f32(s)
    }

    #[target_feature(enable = "avx512f")]
    pub fn fma512(iters: u64) -> f32 {
        let (x, y) = (_mm512_set1_ps(0.999_999), _mm512_set1_ps(1e-7));
        let mut acc = [_mm512_set1_ps(1.0); CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = _mm512_fmadd_ps(*a, x, y);
            }
        }
        let s = acc
            .iter()
            .fold(_mm512_setzero_ps(), |s, a| _mm512_add_ps(s, *a));
        _mm512_reduce_add_ps(s)
    }
}

/// FMA rate at every width this host has.
#[cfg(target_arch = "x86_64")]
fn fma_widths() -> Vec<(u32, &'static str, f64)> {
    let mut out = Vec::new();
    let flops = |lanes: usize| (2 * lanes * CHAINS) as f64;
    if is_x86_feature_detected!("fma") {
        // SAFETY: `fma` was detected at run time just above, which is
        // the one requirement of calling a `fma`-enabled function.
        let g = best_gflops(flops(4), |i| unsafe { x86::fma128(i) });
        out.push((128, "sse+fma", g));
    }
    if is_x86_feature_detected!("avx") && is_x86_feature_detected!("fma") {
        // SAFETY: `avx` and `fma` were both detected at run time above.
        let g = best_gflops(flops(8), |i| unsafe { x86::fma256(i) });
        out.push((256, "avx2+fma", g));
    }
    if is_x86_feature_detected!("avx512f") {
        // SAFETY: `avx512f` was detected at run time just above.
        let g = best_gflops(flops(16), |i| unsafe { x86::fma512(i) });
        out.push((512, "avx512f", g));
    }
    out
}

/// Without a vector probe for this architecture, the reference is a
/// scalar multiply-add loop (reported at width 32).
#[cfg(not(target_arch = "x86_64"))]
fn fma_widths() -> Vec<(u32, &'static str, f64)> {
    let scalar = |iters: u64| {
        let mut acc = [1.0f32; CHAINS];
        for _ in 0..iters {
            for a in acc.iter_mut() {
                *a = *a * 0.999_999 + 1e-7;
            }
        }
        acc.iter().sum()
    };
    vec![(32, "scalar", best_gflops((2 * CHAINS) as f64, scalar))]
}

/// Copy bandwidth at `COPY_BYTES` (bytes copied per second, GB/s).
fn copy_gbs() -> f64 {
    let src = vec![1.0f32; COPY_BYTES / 4];
    let mut dst = vec![0.0f32; COPY_BYTES / 4];
    let ns = crate::util::time_per_call(9, 2000, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&mut dst);
    });
    COPY_BYTES as f64 / ns
}

/// Run the probe.
pub fn probe() -> Host {
    let fma = fma_widths();
    let peak_gflops = fma.iter().map(|f| f.2).fold(0.0, f64::max);
    Host {
        fma,
        peak_gflops,
        copy_gbs: copy_gbs(),
    }
}
