//! `batch_compute`: one caller thread in a closed loop over a fixed
//! sequence of square, skinny and batched GEMMs on a runtime with
//! `nproc` workers. Kernels, packing, the P2C pack decision and pool
//! fan-out dominate; the per-call fixed cost is amortised.

use smm_core::{Smm, StridedBatch};
use smm_gemm::matrix::{Mat, MatMut, MatRef};
use smm_gemm::TaskPool;

use crate::util::{
    matches, now, nproc, ns, oracle, peak_rss_mib, secs_since, windows_in, Hist, Rng, Stat, Window,
    Windows,
};
use crate::Outcome;

/// Shape class of an operation; each is reported separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `gemm` at 32³, 64³ and 75×60×60.
    Square,
    /// `gemm` with one dimension of 8 (Fig. 5 shapes).
    Skinny,
    /// `gemm_batch` of small GEMMs.
    Batch,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 3] = [Class::Square, Class::Skinny, Class::Batch];

    /// Class name as used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Square => "square",
            Class::Skinny => "skinny",
            Class::Batch => "batch",
        }
    }
}

/// One operation of the fixed sequence: `batch == 1` is a `gemm` call,
/// larger is a `gemm_batch` call over `batch` dense m×n×k GEMMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Shape class.
    pub class: Class,
    /// Rows of `A`/`C`.
    pub m: usize,
    /// Columns of `B`/`C`.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
    /// GEMMs in the call.
    pub batch: usize,
}

const fn op(class: Class, m: usize, n: usize, k: usize, batch: usize) -> Op {
    Op {
        class,
        m,
        n,
        k,
        batch,
    }
}

/// The fixed operation sequence, run in this order.
pub const OPS: [Op; 9] = [
    op(Class::Square, 32, 32, 32, 1),
    op(Class::Square, 64, 64, 64, 1),
    op(Class::Square, 75, 60, 60, 1),
    op(Class::Skinny, 8, 192, 192, 1),
    op(Class::Skinny, 192, 8, 192, 1),
    op(Class::Skinny, 192, 192, 8, 1),
    op(Class::Batch, 8, 8, 8, 1024),
    op(Class::Batch, 16, 16, 16, 256),
    op(Class::Batch, 4, 32, 8, 512),
];

/// Rounds of the timed phase. Each round builds a fresh runtime with a
/// pool of its own (see [`runtime`]) and allocates its operands anew,
/// so one run samples many thread start-ups and placements: fresh
/// runtimes in one process read 4960 to 7080 calls/s from one round to
/// the next on a 2-vCPU host, and the median over the windows of all
/// rounds averages that out where one runtime would carry its own
/// figure into the run's.
pub const ROUNDS: usize = 30;
/// Length of one window of the timed phase, seconds: at about 600
/// passes per second a window holds enough passes for its p90 to have
/// ten samples beyond it.
pub const WINDOW_SECS: f64 = 0.5;
/// Set-up repetitions per round; `setup_s` is the median over all
/// rounds.
pub const SETUP_REPS: usize = 1;

impl Op {
    /// Useful flops of the call (2·m·n·k per GEMM).
    pub fn flops(&self) -> f64 {
        2.0 * (self.m * self.n * self.k * self.batch) as f64
    }

    /// The strided-batch descriptor of a batched call.
    pub fn desc(&self) -> StridedBatch {
        StridedBatch::dense(self.m, self.n, self.k, self.batch)
    }
}

/// Operands of one operation, dense and column-major, `batch` GEMMs
/// back to back.
pub struct Data {
    /// `A` entries.
    pub a: Vec<f32>,
    /// `B` entries.
    pub b: Vec<f32>,
    /// `C` entries.
    pub c: Vec<f32>,
}

/// Seeded operands for every operation of [`OPS`].
pub fn inputs(seed: u64) -> Vec<Data> {
    let mut rng = Rng::new(seed, 3);
    OPS.iter()
        .map(|o| {
            let a = rng.mat(o.m, o.k * o.batch).data().to_vec();
            let b = rng.mat(o.k, o.n * o.batch).data().to_vec();
            Data {
                a,
                b,
                c: vec![0.0; o.m * o.n * o.batch],
            }
        })
        .collect()
}

/// Run one operation through the public entry point it belongs to.
/// Returns false when the call was refused.
pub fn call(smm: &Smm<f32>, o: &Op, d: &mut Data) -> bool {
    let (m, n, k) = (o.m, o.n, o.k);
    if o.batch == 1 {
        smm.gemm(
            1.0,
            MatRef::from_slice(&d.a, m, k, m),
            MatRef::from_slice(&d.b, k, n, k),
            0.0,
            MatMut::from_slice(&mut d.c, m, n, m),
        );
        true
    } else {
        smm.gemm_batch(&o.desc(), 1.0, &d.a, &d.b, 0.0, &mut d.c)
            .is_ok()
    }
}

/// GEMMs of each operation whose output disagrees with the oracle.
pub fn mismatches(data: &[Data]) -> Vec<(usize, usize)> {
    let mut bad = Vec::new();
    for (i, (o, d)) in OPS.iter().zip(data).enumerate() {
        let (m, n, k) = (o.m, o.n, o.k);
        let wrong = (0..o.batch)
            .filter(|&e| {
                let a = Mat::from_fn(m, k, |r, c| d.a[e * m * k + c * m + r]);
                let b = Mat::from_fn(k, n, |r, c| d.b[e * k * n + c * k + r]);
                !matches(&d.c[e * m * n..(e + 1) * m * n], &oracle(&a, &b), k)
            })
            .count();
        if wrong > 0 {
            bad.push((i, wrong));
        }
    }
    bad
}

/// The runtime the workload uses: up to `nproc` threads per call on a
/// pool of `nproc` workers of its own, defaults otherwise. Each round
/// builds its own pool: on the process-wide pool, whose threads start
/// once per process, two processes of the same code read 4850 and 5550
/// calls/s on a 2-vCPU host, round after round.
pub fn runtime() -> Smm<f32> {
    Smm::<f32>::builder()
        .threads(nproc())
        .pool(TaskPool::new(nproc()))
        .build()
}

/// Build the runtime and make the first call of every operation.
fn set_up(data: &mut [Data]) -> (Smm<f32>, u64) {
    let smm = runtime();
    let mut refused = 0;
    for (o, d) in OPS.iter().zip(data.iter_mut()) {
        refused += u64::from(!call(&smm, o, d));
    }
    (smm, refused)
}

/// What a closed loop measured.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    /// Latency of each pass of the sequence, by window.
    pub windows: Windows,
    /// (flops, ns) per class over the whole loop, indexed like
    /// [`Class::ALL`].
    pub class: [(f64, u64); 3],
    /// Calls made.
    pub calls: u64,
    /// Refused calls.
    pub refused: u64,
}

impl Totals {
    /// Add the totals of another round.
    pub fn add(&mut self, other: &Totals) {
        self.windows.extend(&other.windows);
        for (a, b) in self.class.iter_mut().zip(&other.class) {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.calls += other.calls;
        self.refused += other.refused;
    }

    /// Gflop/s of one class.
    pub fn gflops(&self, c: Class) -> f64 {
        let (flops, t) = self.class[c as usize];
        if t == 0 {
            0.0
        } else {
            flops / t as f64
        }
    }
}

/// Closed loop over the sequence for `seconds`, in windows of about
/// `WINDOW_SECS`. Latency is per pass of the whole sequence; a window
/// closes after the pass that crosses its end.
pub fn closed_loop(smm: &Smm<f32>, data: &mut [Data], seconds: f64) -> Totals {
    let mut tot = Totals::default();
    let n = windows_in(seconds, WINDOW_SECS);
    let span = (seconds * 1e9 / n as f64) as u64;
    let mut lat = Hist::new();
    let mut prev = ns();
    for _ in 0..n {
        let start = prev;
        lat.clear();
        while prev < start + span {
            let pass = prev;
            for (o, d) in OPS.iter().zip(data.iter_mut()) {
                tot.refused += u64::from(!call(smm, o, d));
                let t = ns();
                let cl = &mut tot.class[o.class as usize];
                cl.0 += o.flops();
                cl.1 += t - prev;
                prev = t;
                tot.calls += 1;
            }
            lat.add(prev - pass);
        }
        tot.windows.push(&lat, (prev - start) as f64 * 1e-9);
    }
    tot
}

/// The untraced end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let mut tot = Totals::default();
    let (mut workers, mut rss) = (0, 0.0);
    for round in 0..ROUNDS {
        let mut data = inputs(seed);
        let mut smm = None;
        let mut refused = 0;
        for _ in 0..SETUP_REPS {
            drop(smm.take());
            let t = now();
            let (s, r) = set_up(&mut data);
            setup.push(secs_since(t));
            refused += r;
            smm = Some(s);
        }
        let smm = smm.expect("at least one set-up");
        workers = smm.pool().workers();
        let r = closed_loop(&smm, &mut data, seconds / ROUNDS as f64);
        let bad = mismatches(&data);
        for &(i, wrong) in &bad {
            out.line(format!(
                "MISMATCH batch_compute round {round} {:?}: {wrong} GEMMs",
                OPS[i]
            ));
        }
        // A mismatching operation was wrong on every call of the loop.
        let per_op_calls = r.calls / OPS.len() as u64;
        out.count(
            r.calls,
            refused + r.refused + bad.len() as u64 * per_op_calls,
        );
        tot.add(&r);
        if round == 0 {
            rss = peak_rss_mib();
        }
    }
    out.line(format!(
        "batch_compute: {} calls per pass, 1 caller thread, closed loop, {workers} pool \
         workers, {} passes ({} calls) in {} windows over {ROUNDS} rounds",
        OPS.len(),
        tot.windows.pooled.count(),
        tot.calls,
        tot.windows.list.len()
    ));
    for c in Class::ALL {
        out.line(format!(
            "gflops_{} {:.3} Gflop/s (n={} calls)",
            c.name(),
            tot.gflops(c),
            tot.calls / 3
        ));
    }
    let stat = Stat::Median;
    let rate = tot.windows.reduce(Window::rate, true, stat);
    let passes = tot.windows.pooled.count();
    crate::e2e(&mut out, &setup, &tot.windows, stat, rate, passes, rss);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_follow_the_seed() {
        assert_eq!(inputs(4)[0].a, inputs(4)[0].a);
        assert_ne!(inputs(4)[0].a, inputs(5)[0].a);
    }

    #[test]
    fn short_run_is_correct() {
        let mut data = inputs(1);
        let (smm, refused) = set_up(&mut data);
        assert_eq!(refused, 0);
        let tot = closed_loop(&smm, &mut data, 0.05);
        assert_eq!(tot.refused, 0);
        assert!(mismatches(&data).is_empty());
        assert!(Class::ALL.iter().all(|&c| tot.gflops(c) > 0.0));
    }
}
