//! Shared measurement plumbing: the clock, the seeded generator, exact
//! percentiles, peak memory, and the oracle check.

use std::sync::OnceLock;
use std::time::Instant;

use smm_gemm::matrix::Mat;
use smm_gemm::naive::gemm_naive;

/// The benchmark's single clock read. Every time in the benchmark is
/// taken here, from outside the program.
pub fn now() -> Instant {
    // lint:allow(instant-now) -- benchmark harness clock: times calls into the program from outside
    Instant::now()
}

/// Nanoseconds since the first call in this process (monotonic).
pub fn ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    let base = *BASE.get_or_init(now);
    now().duration_since(base).as_nanos() as u64
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    now().duration_since(t).as_secs_f64()
}

/// SplitMix64: a small seeded generator, so the same seed always gives
/// the same inputs on every host.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated by `stream` (one stream per
    /// independent input sequence).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential variate with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Shuffle `v` in place (Fisher-Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// A `rows × cols` matrix of small exactly representable values
    /// (multiples of 1/8 in [-1.125, 1.125]), like the repo's oracle
    /// tests use.
    pub fn mat(&mut self, rows: usize, cols: usize) -> Mat<f32> {
        Mat::from_fn(rows, cols, |_, _| (self.below(19) as f32 - 9.0) * 0.125)
    }
}

/// Seed of the shape mixes. A mix is part of a workload's definition:
/// it is drawn once from this fixed seed, so every run seed does the
/// same work, and the run seed draws the operands, the call order and
/// the arrival times.
pub const MIX_SEED: u64 = 0x51_2021;

/// The oracle tolerance of the repo's cross-strategy tests: the
/// accumulation-order difference allowed grows with `k`.
pub fn tolerance(k: usize) -> f64 {
    1e-4 * (k as f64 + 10.0)
}

/// `C = A·B` by the repo's naive oracle.
pub fn oracle(a: &Mat<f32>, b: &Mat<f32>) -> Mat<f32> {
    let mut c = Mat::zeros(a.rows(), b.cols());
    gemm_naive(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut());
    c
}

/// Does the column-major `got` (dense, `m × n`) match `want` within
/// the oracle tolerance for depth `k`?
pub fn matches(got: &[f32], want: &Mat<f32>, k: usize) -> bool {
    let tol = tolerance(k);
    got.len() == want.rows() * want.cols()
        && got
            .iter()
            .zip(want.data())
            .all(|(g, w)| (*g as f64 - *w as f64).abs() <= tol)
}

/// Nearest-rank index (0-based) of percentile `p` in `n` sorted
/// samples: the smallest sample with at least `p`% of all samples at
/// or below it.
///
/// Percentiles are resolved to 0.001% in integer arithmetic, so
/// p99.9 of 1000 samples is exactly the 999th.
pub fn rank_index(p: f64, n: u64) -> u64 {
    assert!(n > 0 && p > 0.0 && p <= 100.0);
    let milli = (p * 1000.0).round() as u128;
    let rank = (milli * n as u128).div_ceil(100_000) as u64;
    rank.clamp(1, n) - 1
}

/// Percentiles a tail report may use, lowest first.
pub const TAIL_PERCENTILES: [f64; 5] = [90.0, 99.0, 99.9, 99.99, 99.999];

/// Samples strictly beyond percentile `p` in `n` samples.
pub fn beyond(p: f64, n: u64) -> u64 {
    n - 1 - rank_index(p, n)
}

/// The highest percentile with at least ten samples beyond it, if any.
pub fn supported_tail(n: u64) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && beyond(p, n) >= 10)
}

/// Exact percentiles over nanosecond samples. Small sets are kept raw;
/// past `RAW_LIMIT` samples the histogram switches to one counter per
/// nanosecond below `DENSE_NS` plus raw values above it, so selection
/// stays exact at the clock's resolution without storing every sample.
#[derive(Debug, Clone, Default)]
pub struct Hist {
    dense: Vec<u32>,
    sparse: Vec<u64>,
    count: u64,
}

/// Counters cover 0..32.8 µs (128 KiB), where tiny calls land; slower
/// samples stay raw. A set switches to counters at the size where raw
/// storage would reach that of the counters, so a window's memory does
/// not depend on how fast the host ran.
const DENSE_NS: usize = 1 << 15;
const RAW_LIMIT: usize = 1 << 14;

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Hist::default()
    }

    /// Record one sample.
    pub fn add(&mut self, v: u64) {
        self.count += 1;
        if self.dense.is_empty() {
            self.sparse.push(v);
            if self.sparse.len() > RAW_LIMIT {
                self.densify();
            }
        } else if (v as usize) < DENSE_NS {
            self.dense[v as usize] += 1;
        } else {
            self.sparse.push(v);
        }
    }

    /// Move the raw samples below `DENSE_NS` into counters.
    fn densify(&mut self) {
        self.dense = vec![0; DENSE_NS];
        let dense = &mut self.dense;
        self.sparse.retain(|&v| {
            let small = (v as usize) < DENSE_NS;
            if small {
                dense[v as usize] += 1;
            }
            !small
        });
    }

    /// Add every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        if !other.dense.is_empty() && self.dense.is_empty() {
            self.densify();
        }
        if self.dense.is_empty() {
            self.sparse.extend_from_slice(&other.sparse);
            if self.sparse.len() > RAW_LIMIT {
                self.densify();
            }
        } else {
            for (v, &c) in other.dense.iter().enumerate() {
                self.dense[v] += c;
            }
            for &v in &other.sparse {
                match self.dense.get_mut(v as usize) {
                    Some(c) => *c += 1,
                    None => self.sparse.push(v),
                }
            }
        }
        self.count += other.count;
    }

    /// Drop every sample, keeping the allocation.
    pub fn clear(&mut self) {
        self.dense.fill(0);
        self.sparse.clear();
        self.count = 0;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact nearest-rank percentile `p` (0 when empty).
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let mut left = rank_index(p, self.count);
        for (v, &c) in self.dense.iter().enumerate() {
            if left < c as u64 {
                return v as u64;
            }
            left -= c as u64;
        }
        let mut sparse = self.sparse.clone();
        sparse.sort_unstable();
        sparse[left as usize]
    }
}

/// Length of one window of a closed loop's timed phase, seconds.
/// End-to-end metrics reduce the windows' figures by a [`Stat`].
pub const WINDOW_SECS: f64 = 0.2;

/// Number of `width`-second windows in `seconds` (at least one).
pub fn windows_in(seconds: f64, width: f64) -> usize {
    ((seconds / width).round() as usize).max(1)
}

/// Summary of one timed window: its exact latency percentiles and rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Operations completed in the window.
    pub count: u64,
    /// Length of the window, seconds.
    pub secs: f64,
    /// Median latency, ns.
    pub p50: u64,
    /// 90th-percentile latency, ns.
    pub p90: u64,
    /// 99th-percentile latency, ns.
    pub p99: u64,
}

impl Window {
    /// Operations completed per second.
    pub fn rate(&self) -> f64 {
        self.count as f64 / self.secs
    }
}

/// How a run's windows reduce to one figure.
///
/// The `tiny_gemm` loop runs at one of two speeds depending on where a
/// fresh runtime's memory lands (about 215 000 and 250 000 to 330 000
/// calls/s on a 2-vCPU host), and some rounds of nearly every run get
/// the slower one, so its worst-decile window reads the same from run
/// to run while its median window jumps with the share of fast rounds.
/// A loop that also runs pool workers, or a server, has heavy-tailed
/// slow windows of its own, which the median steps over. Both figures
/// are printed; each workload reports the one that repeated better on
/// the same runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// The median window.
    Median,
    /// The worst-decile window (nearest rank).
    WorstDecile,
}

/// A run's windows, with all their samples pooled.
#[derive(Debug, Clone, Default)]
pub struct Windows {
    /// Per-window summaries, in order.
    pub list: Vec<Window>,
    /// Every sample of every window.
    pub pooled: Hist,
}

impl Windows {
    /// Close a window whose latencies are `lat`.
    pub fn push(&mut self, lat: &Hist, secs: f64) {
        self.list.push(Window {
            count: lat.count(),
            secs,
            p50: lat.percentile(50.0),
            p90: lat.percentile(90.0),
            p99: lat.percentile(99.0),
        });
        self.pooled.merge(lat);
    }

    /// Append the windows of another round.
    pub fn extend(&mut self, other: &Windows) {
        self.list.extend_from_slice(&other.list);
        self.pooled.merge(&other.pooled);
    }

    /// Median over windows of `f`.
    pub fn median(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.list.iter().map(f).collect::<Vec<_>>())
    }

    /// `f` over windows reduced by `stat`; `higher_is_better` says which
    /// end is the worst.
    pub fn reduce(&self, f: impl Fn(&Window) -> f64, higher_is_better: bool, stat: Stat) -> f64 {
        let mut v: Vec<f64> = self.list.iter().map(f).collect();
        match stat {
            Stat::Median => median(&v),
            Stat::WorstDecile => {
                v.sort_by(|a, b| a.total_cmp(b));
                let p = if higher_is_better { 10.0 } else { 90.0 };
                v[rank_index(p, v.len() as u64) as usize]
            }
        }
    }
}

/// Median of `values` (the mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Median wall time in nanoseconds per call of `f`, over `reps`
/// samples of `iters` calls each.
pub fn time_per_call(reps: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = now();
            for _ in 0..iters {
                f();
            }
            now().duration_since(t).as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker threads the host offers (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
        // Definition: the smallest sample with at least p% of all
        // samples at or below it (p in thousandths of a percent).
        let milli = (p * 1000.0).round() as u64;
        let n = sorted.len() as u64;
        let i = (0..n).find(|i| (i + 1) * 100_000 >= milli * n).unwrap();
        sorted[i as usize]
    }

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut rng = Rng::new(7, 0);
        for n in [1usize, 2, 3, 10, 99, 100, 101, 1000, 12345, 70_000] {
            let raw: Vec<u64> = (0..n)
                .map(|i| {
                    // Mix dense (< 2^17 ns) and sparse (above) samples.
                    if i % 7 == 0 {
                        200_000 + rng.below(1_000_000) as u64
                    } else {
                        rng.below(100_000) as u64
                    }
                })
                .collect();
            let mut h = Hist::new();
            raw.iter().for_each(|&v| h.add(v));
            let mut sorted = raw.clone();
            sorted.sort_unstable();
            // The same samples split in two and merged, raw into dense
            // and dense into raw.
            let (x, y) = raw.split_at(n / 3);
            let (mut hx, mut hy) = (Hist::new(), Hist::new());
            x.iter().for_each(|&v| hx.add(v));
            y.iter().for_each(|&v| hy.add(v));
            let mut yx = hy.clone();
            yx.merge(&hx);
            hx.merge(&hy);
            for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
                let want = nearest_rank(&sorted, p);
                assert_eq!(h.percentile(p), want, "n={n} p={p}");
                assert_eq!(hx.percentile(p), want, "merged n={n} p={p}");
                assert_eq!(yx.percentile(p), want, "merged n={n} p={p}");
            }
            assert_eq!(h.count(), n as u64);
        }
    }

    #[test]
    fn percentile_picks_a_real_sample() {
        let mut h = Hist::new();
        for v in [10u64, 20] {
            h.add(v);
        }
        let mut g = Hist::new();
        for v in [30u64, 1 << 20] {
            g.add(v);
        }
        h.merge(&g);
        assert_eq!(h.count(), 4);
        assert_eq!(h.percentile(50.0), 20);
        assert_eq!(h.percentile(50.1), 30);
        assert_eq!(h.percentile(100.0), 1 << 20);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is the 990th: exactly ten lie beyond it.
        assert_eq!(beyond(99.0, 1000), 10);
        assert_eq!(supported_tail(1000), Some(99.0));
        // One sample fewer leaves only nine beyond p99: fall back to p90.
        assert_eq!(beyond(99.0, 999), 9);
        assert_eq!(supported_tail(999), Some(90.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(1_000_000), Some(99.999));
        // p90 of 100 samples has exactly ten beyond it; of 99, nine.
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn same_seed_same_stream_different_seed_differs() {
        let a: Vec<u64> = {
            let mut r = Rng::new(1, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::new(1, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Rng::new(2, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn worst_decile_takes_the_slow_end() {
        let mut w = Windows::default();
        for i in 1..=10u64 {
            let mut h = Hist::new();
            (0..i).for_each(|_| h.add(i * 100));
            w.push(&h, 1.0);
        }
        // Rates 1..=10 per second: the worst decile is the slowest.
        assert_eq!(w.reduce(Window::rate, true, Stat::WorstDecile), 1.0);
        // Latencies 100..=1000 ns: the worst decile is the 9th of ten.
        let p50 = |w: &Window| w.p50 as f64;
        assert_eq!(w.reduce(p50, false, Stat::WorstDecile), 900.0);
        assert_eq!(w.reduce(p50, false, Stat::Median), 550.0);
        assert_eq!(w.pooled.count(), 55);
    }

    #[test]
    fn rounds_pool_their_windows_and_samples() {
        let round = |v: u64| {
            let mut w = Windows::default();
            let mut h = Hist::new();
            (0..100).for_each(|i| h.add(v + i));
            w.push(&h, 0.5);
            w
        };
        let mut all = Windows::default();
        all.extend(&round(1000));
        all.extend(&round(2000));
        assert_eq!(all.list.len(), 2);
        assert_eq!(all.pooled.count(), 200);
        assert_eq!(all.list[1].p90, 2089);
        assert_eq!(all.pooled.percentile(50.0), 1099);
        assert_eq!(all.reduce(Window::rate, true, Stat::Median), 200.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
