//! Batched small-scale GEMM.
//!
//! The workloads that motivate SMM (DNN layers, block-sparse formats,
//! ABFT) multiply *many* small matrices of the same shape. LIBXSMM's
//! batched interface is the x86 precedent; here one cached
//! single-threaded plan ([`Smm::batch_plan`]) serves the whole batch,
//! and parallelism goes *across* entries instead of inside one GEMM,
//! which sidesteps every §III-D pitfall at once (nothing small is ever
//! split).
//!
//! A batch is validated once. Its entries are then split into
//! contiguous ranges, one per thread the instance allows, and run on
//! its persistent [`TaskPool`](smm_gemm::pool::TaskPool): each task
//! claims ranges until none is left, checks its packing scratch out of
//! its thread's [`smm_gemm::arena`] once, and runs the plan's compiled
//! schedule over its entries in a tight loop. Per entry only the
//! operand views, the `beta` scaling and the schedule's kernel calls
//! remain.

use std::time::Instant;

use smm_gemm::matrix::{MatMut, MatRef};
use smm_gemm::parallel::split_ranges;
use smm_kernels::Scalar;
use smm_sync::sync::Mutex;

use crate::compiled::{PackCost, Scratch};
use crate::error::{Operand, SmmError};
use crate::smm::Smm;
use crate::telemetry::{CallSite, Phase};
use crate::trace::{shape_arg, SpanName, TraceCtx};

/// Arguments describing one strided batch: `batch` GEMMs of identical
/// shape laid out at constant strides in three flat buffers.
#[derive(Debug, Clone, Copy)]
pub struct StridedBatch {
    /// Rows of each `A`/`C`.
    pub m: usize,
    /// Columns of each `B`/`C`.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// Number of GEMMs.
    pub batch: usize,
    /// Leading dimension of each `A` (>= m).
    pub lda: usize,
    /// Elements between consecutive `A` matrices (>= lda*k).
    pub stride_a: usize,
    /// Leading dimension of each `B` (>= k).
    pub ldb: usize,
    /// Elements between consecutive `B` matrices (>= ldb*n).
    pub stride_b: usize,
    /// Leading dimension of each `C` (>= m).
    pub ldc: usize,
    /// Elements between consecutive `C` matrices (>= ldc*n).
    pub stride_c: usize,
}

impl StridedBatch {
    /// Dense packing: `lda = m`, `ldb = k`, `ldc = m`, strides exactly
    /// one matrix apart.
    pub fn dense(m: usize, n: usize, k: usize, batch: usize) -> Self {
        StridedBatch {
            m,
            n,
            k,
            batch,
            lda: m.max(1),
            stride_a: m.max(1) * k,
            ldb: k.max(1),
            stride_b: k.max(1) * n,
            ldc: m.max(1),
            stride_c: m.max(1) * n,
        }
    }

    /// Validated construction: rejects leading dimensions smaller than
    /// the operand's rows and strides that would make consecutive
    /// matrices overlap.
    #[allow(clippy::too_many_arguments)]
    pub fn try_new(
        m: usize,
        n: usize,
        k: usize,
        batch: usize,
        lda: usize,
        stride_a: usize,
        ldb: usize,
        stride_b: usize,
        ldc: usize,
        stride_c: usize,
    ) -> Result<Self, SmmError> {
        let desc = StridedBatch {
            m,
            n,
            k,
            batch,
            lda,
            stride_a,
            ldb,
            stride_b,
            ldc,
            stride_c,
        };
        desc.validate_geometry()?;
        Ok(desc)
    }

    fn validate_geometry(&self) -> Result<(), SmmError> {
        let lds = [
            (Operand::A, self.lda, self.m.max(1)),
            (Operand::B, self.ldb, self.k.max(1)),
            (Operand::C, self.ldc, self.m.max(1)),
        ];
        for (operand, ld, min) in lds {
            if ld < min {
                return Err(SmmError::BadLeadingDim { operand, ld, min });
            }
        }
        let strides = [
            (Operand::A, self.stride_a, self.lda * self.k),
            (Operand::B, self.stride_b, self.ldb * self.n),
            (Operand::C, self.stride_c, self.ldc * self.n),
        ];
        for (operand, stride, min) in strides {
            if stride < min {
                return Err(SmmError::OverlappingStride {
                    operand,
                    stride,
                    min,
                });
            }
        }
        Ok(())
    }

    fn validate_buffers(&self, a_len: usize, b_len: usize, c_len: usize) -> Result<(), SmmError> {
        if self.batch == 0 {
            return Ok(());
        }
        let need = |stride: usize, last: usize| (self.batch - 1) * stride + last;
        if self.k > 0 && self.m > 0 {
            let need_a = need(self.stride_a, self.lda * (self.k - 1) + self.m);
            if a_len < need_a {
                return Err(SmmError::BufferTooShort {
                    operand: Operand::A,
                    len: a_len,
                    need: need_a,
                });
            }
        }
        if self.k > 0 && self.n > 0 {
            let need_b = need(self.stride_b, self.ldb * (self.n - 1) + self.k);
            if b_len < need_b {
                return Err(SmmError::BufferTooShort {
                    operand: Operand::B,
                    len: b_len,
                    need: need_b,
                });
            }
        }
        if self.m > 0 && self.n > 0 {
            let need_c = need(self.stride_c, self.ldc * (self.n - 1) + self.m);
            if c_len < need_c {
                return Err(SmmError::BufferTooShort {
                    operand: Operand::C,
                    len: c_len,
                    need: need_c,
                });
            }
        }
        Ok(())
    }
}

impl<S: Scalar> Smm<S> {
    /// Strided-batch GEMM: `C[i] = alpha * A[i] * B[i] + beta * C[i]`
    /// for `i in 0..batch`, with full validation. One cached plan
    /// ([`Smm::batch_plan`]) serves every entry; when this `Smm` allows
    /// multiple threads, contiguous ranges of entries run on the
    /// instance's persistent pool.
    pub fn gemm_batch(
        &self,
        desc: &StridedBatch,
        alpha: S,
        a: &[S],
        b: &[S],
        beta: S,
        c: &mut [S],
    ) -> Result<(), SmmError> {
        desc.validate_geometry()?;
        desc.validate_buffers(a.len(), b.len(), c.len())?;
        if desc.batch == 0 || desc.m == 0 || desc.n == 0 {
            return Ok(());
        }
        if desc.k == 0 {
            for i in 0..desc.batch {
                let c_i = &mut c[i * desc.stride_c..];
                MatMut::from_slice(c_i, desc.m, desc.n, desc.ldc).scale(beta);
            }
            return Ok(());
        }
        // The span and the telemetry share their clock readings.
        let rec = self.telemetry().recorder(CallSite::GemmBatch);
        let t_call = rec.now();
        let shape = shape_arg(desc.m, desc.n, desc.k);
        let root = self.tracer.span_at(SpanName::GemmBatch, shape, t_call);
        let plan = self.batch_plan(desc.m, desc.n, desc.k);
        let t_plan = rec.now();
        rec.span_between(Phase::PlanLookup, t_call, t_plan);
        let threads = self.config().max_threads.clamp(1, desc.batch);
        let timed = rec.active();
        // `end` is the clock reading that closed the call's last span;
        // it doubles as the call's end and rate-window timestamp.
        let finish = |end: Option<Instant>| {
            if let (Some(t0), Some(t1)) = (t_call, end) {
                self.telemetry().record_call_at(
                    CallSite::GemmBatch,
                    desc.m,
                    desc.n,
                    desc.k,
                    std::mem::size_of::<S>(),
                    desc.batch as u64,
                    t1.duration_since(t0).as_nanos() as u64,
                    Some(t1),
                );
            }
        };

        // Entries `first..first + count` on the calling thread, `c`
        // starting at entry `first`'s C.
        let plan = &*plan;
        let run = |c: &mut [S], (first, count), scratch: &mut _, cost: &mut _| {
            for e in 0..count {
                let i = first + e;
                let ar = MatRef::from_slice(&a[i * desc.stride_a..], desc.m, desc.k, desc.lda);
                let br = MatRef::from_slice(&b[i * desc.stride_b..], desc.k, desc.n, desc.ldb);
                let c_e = &mut c[e * desc.stride_c..];
                let mut cm = MatMut::from_slice(c_e, desc.m, desc.n, desc.ldc);
                cm.scale(beta);
                plan.schedule
                    .run_all(alpha, ar, br, &mut cm, scratch, timed, cost);
            }
        };

        if threads <= 1 {
            let (mut scratch, mut cost) = (Scratch::default(), PackCost::default());
            run(c, (0, desc.batch), &mut scratch, &mut cost);
            let end = rec.now();
            if let (Some(t0), Some(t1)) = (t_plan, end) {
                cost.record(&rec, t1.duration_since(t0).as_nanos() as u64);
            }
            finish(end);
            root.end_at(end);
            return Ok(());
        }

        // One contiguous range of entries per thread, each with the
        // window of C its entries own. Each pool task claims ranges
        // until none is left, so a worker that wakes late leaves its
        // range to one already running; a task that finds nothing
        // returns at once. A task checks its scratch out once, reads
        // the clock twice and records its spans once, whatever the
        // number of ranges it ran: per range, that would cost several
        // percent of a range of tiny entries.
        let mut ranges = Vec::with_capacity(threads);
        let mut rest = c;
        for (w, range) in split_ranges(desc.batch, threads).into_iter().enumerate() {
            let take = if w + 1 == threads {
                rest.len()
            } else {
                range.1 * desc.stride_c
            };
            let (win, tail) = rest.split_at_mut(take);
            rest = tail;
            ranges.push((range, win));
        }
        let queue = Mutex::new(ranges.into_iter());
        let claim = || queue.lock().expect("batch range queue poisoned").next();
        let (run, claim) = (&run, &claim);
        let tracer = self.tracer();
        // Capture parentage here: the tasks run on pool threads.
        let ctx = tracer.current_ctx();
        // Tasks beyond the pool's workers plus the caller could never
        // run at once; with ranges claimed they would only add jobs to
        // wait for.
        let tasks: Vec<_> = (0..threads.min(self.pool().workers() + 1))
            .map(|w| {
                move || {
                    let Some(mut next) = claim() else {
                        return 0;
                    };
                    let t0 = rec.now();
                    // A task the caller drains inline runs inside the
                    // call's own span and opens no worker span.
                    let inline = tracer.current_ctx() == ctx;
                    let parent = if inline { TraceCtx::none() } else { ctx };
                    let span = tracer.span_in_at(parent, SpanName::Worker, w as u64, t0);
                    let (mut scratch, mut cost) = (Scratch::default(), PackCost::default());
                    loop {
                        let (range, win) = next;
                        run(win, range, &mut scratch, &mut cost);
                        match claim() {
                            Some(more) => next = more,
                            None => break,
                        }
                    }
                    let t1 = rec.now();
                    span.end_at(t1);
                    let busy_ns = t0
                        .zip(t1)
                        .map_or(0, |(t0, t1)| t1.duration_since(t0).as_nanos() as u64);
                    // Recorded here, in parallel with the other tasks.
                    if timed {
                        cost.record(&rec, busy_ns);
                    }
                    busy_ns
                }
            })
            .collect();
        // The lookup's end doubles as the dispatch start: splitting C
        // into ranges above is part of fanning out.
        let busy = self.pool().run_scoped(tasks);
        let end = rec.now();
        if let (Some(td), Some(t1)) = (t_plan, end) {
            let dispatch_ns = t1.duration_since(td).as_nanos() as u64;
            let max_busy = busy.into_iter().max().unwrap_or(0);
            rec.span_ns(Phase::Dispatch, dispatch_ns);
            // Barrier slack: the caller's wait beyond the busiest task.
            rec.span_ns(Phase::Sync, dispatch_ns.saturating_sub(max_busy));
        }
        finish(end);
        root.end_at(end);
        Ok(())
    }

    /// Panicking wrapper over [`Smm::gemm_batch`], kept for the
    /// pre-builder API. The panic messages are the [`SmmError`]
    /// `Display` strings.
    pub fn gemm_strided_batch(
        &self,
        desc: StridedBatch,
        alpha: S,
        a: &[S],
        b: &[S],
        beta: S,
        c: &mut [S],
    ) {
        if let Err(e) = self.gemm_batch(&desc, alpha, a, b, beta, c) {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_gemm::gemm_naive;
    use smm_gemm::matrix::Mat;

    fn fill(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                ((state >> 33) as i64 % 17 - 8) as f32 * 0.25
            })
            .collect()
    }

    fn check_batch(desc: StridedBatch, threads: usize) {
        let a = fill((desc.batch.max(1)) * desc.stride_a + desc.lda * desc.k, 1);
        let b = fill((desc.batch.max(1)) * desc.stride_b + desc.ldb * desc.n, 2);
        let c0 = fill((desc.batch.max(1)) * desc.stride_c + desc.ldc * desc.n, 3);
        let mut c = c0.clone();
        let smm = Smm::<f32>::with_threads(threads);
        smm.gemm_strided_batch(desc, 1.5, &a, &b, 0.5, &mut c);
        for i in 0..desc.batch {
            let ar = MatRef::from_slice(&a[i * desc.stride_a..], desc.m, desc.k, desc.lda);
            let br = MatRef::from_slice(&b[i * desc.stride_b..], desc.k, desc.n, desc.ldb);
            let mut want = Mat::<f32>::from_fn(desc.m, desc.n, |r, col| {
                c0[i * desc.stride_c + col * desc.ldc + r]
            });
            gemm_naive(1.5, ar, br, 0.5, want.as_mut());
            for col in 0..desc.n {
                for r in 0..desc.m {
                    let got = c[i * desc.stride_c + col * desc.ldc + r];
                    assert!(
                        (got - want[(r, col)]).abs() < 1e-3,
                        "entry {i} ({r},{col}): {got} vs {}",
                        want[(r, col)]
                    );
                }
            }
        }
    }

    #[test]
    fn dense_batch_matches_naive() {
        check_batch(StridedBatch::dense(8, 8, 8, 10), 1);
        check_batch(StridedBatch::dense(5, 7, 3, 4), 1);
    }

    #[test]
    fn strided_batch_with_gaps() {
        let mut d = StridedBatch::dense(6, 5, 4, 3);
        d.lda = 8;
        d.stride_a = 64;
        d.ldc = 9;
        d.stride_c = 64;
        check_batch(d, 1);
    }

    #[test]
    fn threaded_batch_matches_naive() {
        check_batch(StridedBatch::dense(8, 8, 8, 17), 4);
        check_batch(StridedBatch::dense(12, 4, 16, 5), 8);
    }

    #[test]
    fn untouched_padding_between_entries() {
        let d = {
            let mut d = StridedBatch::dense(4, 4, 4, 2);
            d.stride_c = 32; // 16 elements of padding per entry
            d
        };
        let a = fill(d.batch * d.stride_a + 64, 1);
        let b = fill(d.batch * d.stride_b + 64, 2);
        let mut c = vec![7.0f32; d.batch * d.stride_c + 64];
        let smm = Smm::<f32>::new();
        smm.gemm_strided_batch(d, 1.0, &a, &b, 0.0, &mut c);
        // Padding region of entry 0 untouched.
        for x in &c[16..32] {
            assert_eq!(*x, 7.0);
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let smm = Smm::<f32>::new();
        let mut c = vec![1.0f32; 4];
        smm.gemm_strided_batch(StridedBatch::dense(2, 2, 2, 0), 1.0, &[], &[], 0.0, &mut c);
        assert_eq!(c, vec![1.0; 4]);
    }

    #[test]
    fn k_zero_scales_every_entry() {
        let d = StridedBatch::dense(2, 2, 0, 3);
        let smm = Smm::<f32>::new();
        let mut c = vec![4.0f32; 3 * d.stride_c.max(4)];
        smm.gemm_strided_batch(d, 1.0, &[], &[], 0.25, &mut c);
        assert_eq!(c[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "C buffer too short")]
    fn short_c_rejected() {
        let d = StridedBatch::dense(4, 4, 4, 4);
        let smm = Smm::<f32>::new();
        let a = vec![0.0f32; 256];
        let b = vec![0.0f32; 256];
        let mut c = vec![0.0f32; 20];
        smm.gemm_strided_batch(d, 1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_strides_rejected() {
        let mut d = StridedBatch::dense(4, 4, 4, 2);
        d.stride_c = 8; // < ldc * n
        let smm = Smm::<f32>::new();
        let a = vec![0.0f32; 64];
        let b = vec![0.0f32; 64];
        let mut c = vec![0.0f32; 64];
        smm.gemm_strided_batch(d, 1.0, &a, &b, 0.0, &mut c);
    }

    #[test]
    fn try_new_accepts_valid_geometry() {
        let d = StridedBatch::try_new(4, 5, 6, 3, 4, 24, 6, 30, 4, 20).unwrap();
        assert_eq!(d.batch, 3);
        check_batch(d, 2);
    }

    #[test]
    fn try_new_rejects_small_leading_dim() {
        let err = StridedBatch::try_new(4, 4, 4, 2, 3, 16, 4, 16, 4, 16).unwrap_err();
        assert_eq!(
            err,
            SmmError::BadLeadingDim {
                operand: Operand::A,
                ld: 3,
                min: 4
            }
        );
    }

    #[test]
    fn try_new_rejects_overlapping_stride() {
        let err = StridedBatch::try_new(4, 4, 4, 2, 4, 15, 4, 16, 4, 16).unwrap_err();
        assert_eq!(
            err,
            SmmError::OverlappingStride {
                operand: Operand::A,
                stride: 15,
                min: 16
            }
        );
        let err = StridedBatch::try_new(4, 4, 4, 2, 4, 16, 4, 16, 4, 10).unwrap_err();
        assert!(err.to_string().contains("C matrices overlap"));
    }

    #[test]
    fn gemm_batch_reports_short_buffers_as_errors() {
        let d = StridedBatch::dense(4, 4, 4, 4);
        let smm = Smm::<f32>::new();
        let a = vec![0.0f32; 256];
        let b = vec![0.0f32; 256];
        let mut c = vec![0.0f32; 20];
        let err = smm.gemm_batch(&d, 1.0, &a, &b, 0.0, &mut c).unwrap_err();
        assert_eq!(
            err,
            SmmError::BufferTooShort {
                operand: Operand::C,
                len: 20,
                need: 64
            }
        );
        // Nothing was written before the error.
        assert!(c.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn gemm_batch_ok_on_valid_input() {
        let d = StridedBatch::dense(6, 6, 6, 9);
        let a = fill(d.batch * d.stride_a, 1);
        let b = fill(d.batch * d.stride_b, 2);
        let mut c = vec![0.0f32; d.batch * d.stride_c];
        let smm = Smm::<f32>::with_threads(4);
        smm.gemm_batch(&d, 1.0, &a, &b, 0.0, &mut c).unwrap();
        let ar = MatRef::from_slice(&a, d.m, d.k, d.lda);
        let br = MatRef::from_slice(&b, d.k, d.n, d.ldb);
        let mut want = Mat::<f32>::zeros(d.m, d.n);
        gemm_naive(1.0, ar, br, 0.0, want.as_mut());
        for col in 0..d.n {
            for r in 0..d.m {
                assert!((c[col * d.ldc + r] - want[(r, col)]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn k_zero_is_a_pure_beta_scale_with_gapped_ldc() {
        // k == 0 must touch only the m x n window of each entry, even
        // with a padded leading dimension and inter-entry gaps.
        let d = StridedBatch::try_new(2, 3, 0, 2, 2, 0, 1, 3, 4, 16).unwrap();
        let smm = Smm::<f32>::new();
        let mut c = vec![2.0f32; 16 + 4 * 3];
        smm.gemm_batch(&d, 1.0, &[], &[], 0.25, &mut c).unwrap();
        for i in 0..d.batch {
            for col in 0..d.n {
                for r in 0..d.ldc {
                    let got = c[i * d.stride_c + col * d.ldc + r];
                    let want = if r < d.m { 0.5 } else { 2.0 };
                    assert_eq!(got, want, "entry {i} ({r},{col})");
                }
            }
        }
    }

    #[test]
    fn batch_of_one_takes_the_fast_path_on_a_threaded_pool() {
        // A single-entry batch must not fan out across workers and must
        // agree with both the naive oracle and plain gemm.
        let d = StridedBatch::dense(7, 5, 9, 1);
        let a = fill(d.stride_a, 21);
        let b = fill(d.stride_b, 22);
        let c0 = fill(d.stride_c, 23);
        let smm = Smm::<f32>::with_threads(4);
        let mut c_batch = c0.clone();
        smm.gemm_batch(&d, 2.0, &a, &b, 0.5, &mut c_batch).unwrap();
        let mut want = Mat::<f32>::from_fn(d.m, d.n, |r, col| c0[col * d.ldc + r]);
        gemm_naive(
            2.0,
            MatRef::from_slice(&a, d.m, d.k, d.lda),
            MatRef::from_slice(&b, d.k, d.n, d.ldb),
            0.5,
            want.as_mut(),
        );
        let mut c_gemm = c0.clone();
        smm.gemm(
            2.0,
            MatRef::from_slice(&a, d.m, d.k, d.lda),
            MatRef::from_slice(&b, d.k, d.n, d.ldb),
            0.5,
            MatMut::from_slice(&mut c_gemm, d.m, d.n, d.ldc),
        );
        for col in 0..d.n {
            for r in 0..d.m {
                let got = c_batch[col * d.ldc + r];
                assert!(
                    (got - want[(r, col)]).abs() < 1e-3,
                    "vs naive at ({r},{col}): {got} vs {}",
                    want[(r, col)]
                );
                let via_gemm = c_gemm[col * d.ldc + r];
                assert!(
                    (got - via_gemm).abs() < 1e-3,
                    "vs gemm at ({r},{col}): {got} vs {via_gemm}"
                );
            }
        }
    }

    #[test]
    fn try_new_rejects_overlap_per_operand() {
        // Each operand reports its own exact OverlappingStride variant.
        let err = StridedBatch::try_new(4, 4, 4, 2, 4, 16, 4, 11, 4, 16).unwrap_err();
        assert_eq!(
            err,
            SmmError::OverlappingStride {
                operand: Operand::B,
                stride: 11,
                min: 16
            }
        );
        let err = StridedBatch::try_new(4, 4, 4, 2, 4, 16, 4, 16, 4, 9).unwrap_err();
        assert_eq!(
            err,
            SmmError::OverlappingStride {
                operand: Operand::C,
                stride: 9,
                min: 16
            }
        );
        // Zero-width operands need no spacing: stride 0 is legal when
        // the operand itself is empty (k == 0 for A, n == 0 for B/C).
        assert!(StridedBatch::try_new(4, 0, 0, 2, 4, 0, 1, 0, 4, 0).is_ok());
    }
}
