//! `tiny_gemm`: one caller thread in a closed loop of `Smm::gemm` calls
//! on a seeded mix of small shapes, on a single-threaded runtime with
//! default telemetry. All plans are cached and all operands stay in
//! L1/L2 after set-up, so the fixed per-call cost dominates.

use smm_core::Smm;
use smm_gemm::matrix::Mat;

use crate::util::{
    matches, now, ns, oracle, peak_rss_mib, secs_since, windows_in, Hist, Rng, Stat, Window,
    Windows, MIX_SEED, WINDOW_SECS,
};
use crate::Outcome;

/// Distinct shapes in the mix.
pub const SHAPES: usize = 48;
/// Each of m, n and k is drawn from this inclusive range.
pub const DIMS: (usize, usize) = (2, 24);
/// Length of the call sequence the loop cycles through: every shape
/// equally often, in seeded order.
pub const SEQ_LEN: usize = SHAPES * 64;
/// Rounds of the timed phase, each on a fresh runtime (see
/// [`crate::compute::ROUNDS`]).
pub const ROUNDS: usize = 10;
/// Set-up repetitions per round; `setup_s` is the median over all
/// rounds.
pub const SETUP_REPS: usize = 4;

/// The shape mix: `SHAPES` distinct (m, n, k), drawn from `MIX_SEED`.
pub fn shapes() -> Vec<(usize, usize, usize)> {
    let mut rng = Rng::new(MIX_SEED, 1);
    let mut out = Vec::with_capacity(SHAPES);
    while out.len() < SHAPES {
        let s = (
            rng.range(DIMS.0, DIMS.1),
            rng.range(DIMS.0, DIMS.1),
            rng.range(DIMS.0, DIMS.1),
        );
        if !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// Generated inputs of the workload.
pub struct Inputs {
    /// The shape mix.
    pub shapes: Vec<(usize, usize, usize)>,
    /// `A` per shape.
    pub a: Vec<Mat<f32>>,
    /// `B` per shape.
    pub b: Vec<Mat<f32>>,
    /// Seeded order of shape indices the closed loop cycles through.
    pub seq: Vec<usize>,
}

impl Inputs {
    /// Generate the inputs for `seed`.
    pub fn new(seed: u64) -> Self {
        let shapes = shapes();
        let mut rng = Rng::new(seed, 2);
        let a = shapes.iter().map(|&(m, _, k)| rng.mat(m, k)).collect();
        let b = shapes.iter().map(|&(_, n, k)| rng.mat(k, n)).collect();
        let mut seq: Vec<usize> = (0..SEQ_LEN).map(|i| i % SHAPES).collect();
        rng.shuffle(&mut seq);
        Inputs { shapes, a, b, seq }
    }

    /// Zeroed outputs, one per shape.
    pub fn outputs(&self) -> Vec<Mat<f32>> {
        self.shapes
            .iter()
            .map(|&(m, n, _)| Mat::zeros(m, n))
            .collect()
    }

    /// Shapes whose output disagrees with the oracle.
    pub fn mismatches(&self, c: &[Mat<f32>]) -> Vec<usize> {
        (0..self.shapes.len())
            .filter(|&i| {
                !matches(
                    c[i].data(),
                    &oracle(&self.a[i], &self.b[i]),
                    self.shapes[i].2,
                )
            })
            .collect()
    }
}

/// Build the runtime and make the first call of every shape (plan
/// builds): the set-up the workload times.
pub fn set_up(inp: &Inputs, c: &mut [Mat<f32>]) -> Smm<f32> {
    let smm = Smm::<f32>::new();
    for ((a, b), c) in inp.a.iter().zip(&inp.b).zip(c.iter_mut()) {
        smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    }
    smm
}

/// Set up `SETUP_REPS` times; returns the last runtime and the set-up
/// times in seconds.
pub fn set_up_repeated(inp: &Inputs, c: &mut [Mat<f32>]) -> (Smm<f32>, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut smm = None;
    for _ in 0..SETUP_REPS {
        drop(smm.take());
        let t = now();
        smm = Some(set_up(inp, c));
        times.push(secs_since(t));
    }
    (smm.expect("at least one set-up"), times)
}

/// Closed loop of `Smm::gemm` for `seconds`, split into windows of
/// about `WINDOW_SECS`; returns the windows and per-shape call counts.
pub fn closed_loop(
    smm: &Smm<f32>,
    inp: &Inputs,
    c: &mut [Mat<f32>],
    seconds: f64,
) -> (Windows, Vec<u64>) {
    let mut calls = vec![0u64; inp.shapes.len()];
    let n = windows_in(seconds, WINDOW_SECS);
    let span = (seconds * 1e9 / n as f64) as u64;
    let (mut windows, mut lat) = (Windows::default(), Hist::new());
    let mut prev = ns();
    for _ in 0..n {
        let start = prev;
        lat.clear();
        'window: loop {
            for &i in &inp.seq {
                smm.gemm(
                    1.0,
                    inp.a[i].as_ref(),
                    inp.b[i].as_ref(),
                    0.0,
                    c[i].as_mut(),
                );
                let t = ns();
                lat.add(t - prev);
                prev = t;
                calls[i] += 1;
                if t >= start + span {
                    break 'window;
                }
            }
        }
        windows.push(&lat, (prev - start) as f64 * 1e-9);
    }
    (windows, calls)
}

/// The untraced end-to-end run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup, mut windows) = (Vec::new(), Windows::default());
    let (mut total, mut rss) = (0, 0.0);
    let mut stats = None;
    for round in 0..ROUNDS {
        let inp = Inputs::new(seed);
        let mut c = inp.outputs();
        let (smm, times) = set_up_repeated(&inp, &mut c);
        setup.extend(times);
        let (w, calls) = closed_loop(&smm, &inp, &mut c, seconds / ROUNDS as f64);
        windows.extend(&w);
        let bad = inp.mismatches(&c);
        out.count(calls.iter().sum(), bad.iter().map(|&i| calls[i]).sum());
        total += calls.iter().sum::<u64>();
        for &i in &bad {
            out.line(format!(
                "MISMATCH tiny_gemm round {round} shape {:?}",
                inp.shapes[i]
            ));
        }
        stats = Some(smm.stats());
        if round == 0 {
            rss = peak_rss_mib();
        }
    }
    let stats = stats.expect("at least one round");
    out.line(format!(
        "tiny_gemm: {SHAPES} shapes, m,n,k in [{}, {}], 1 caller thread, closed loop, \
         {total} calls in {} windows over {ROUNDS} rounds",
        DIMS.0,
        DIMS.1,
        windows.list.len()
    ));
    out.line(format!(
        "tiny_gemm: plan cache {} hits / {} misses, {} plans (last round)",
        stats.plan_hits, stats.plan_misses, stats.cached_plans
    ));
    // The slow-layout windows: see `Stat`.
    let stat = Stat::WorstDecile;
    let rate = windows.reduce(Window::rate, true, stat);
    out.line(format!("calls_per_s {rate:.1} 1/s ({stat:?} window)"));
    crate::e2e(&mut out, &setup, &windows, stat, rate, total, rss);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_sequence_follows_the_seed() {
        let s = shapes();
        assert_eq!(s.len(), SHAPES);
        assert!(s
            .iter()
            .all(|&(m, n, k)| [m, n, k].iter().all(|&d| (DIMS.0..=DIMS.1).contains(&d))));
        // Same seed, same shape sequence and operands; another seed,
        // another order over the same balanced mix.
        let (a, b, c) = (Inputs::new(5), Inputs::new(5), Inputs::new(6));
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.a[0].data(), b.a[0].data());
        assert_ne!(a.seq, c.seq);
        assert_ne!(a.a[0].data(), c.a[0].data());
        let mut sorted = c.seq.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..SEQ_LEN).map(|i| i / 64).collect::<Vec<_>>());
    }

    #[test]
    fn short_run_is_correct() {
        let inp = Inputs::new(3);
        let mut c = inp.outputs();
        let smm = set_up(&inp, &mut c);
        let (windows, calls) = closed_loop(&smm, &inp, &mut c, 0.02);
        let n: u64 = windows.list.iter().map(|w| w.count).sum();
        assert_eq!(windows.list.len(), 1);
        assert_eq!(windows.pooled.count(), n);
        assert_eq!(calls.iter().sum::<u64>(), n);
        assert!(inp.mismatches(&c).is_empty());
    }
}
