//! The repository's benchmark: three workloads against the public API
//! of the SMM crates, with every output checked against the naive
//! oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tiny_gemm|batch_compute|serve_tcp> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the named workload untraced and reports the
//! end-to-end metrics ([`E2E`]). `--trace 1` runs the per-layer ledger
//! ([`PER_LAYER`]): the host roofline probe, one probe per layer, and a
//! traced replay of every workload, with the named workload's tracing
//! overhead. The last line of standard output is one JSON object;
//! the lines before it are the human-readable report. The process exits
//! non-zero when any output disagrees with the oracle.

mod compute;
mod host;
mod ledger;
mod serve;
mod spans;
mod tiny;
mod util;

use std::fmt::Write as _;

/// End-to-end metrics, reported by every workload's untraced run.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_us", "us"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by every traced run.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("host.fma_w128_gflops", "Gflop/s"),
    ("host.fma_w256_gflops", "Gflop/s"),
    ("host.fma_w512_gflops", "Gflop/s"),
    ("host.fma_peak_gflops", "Gflop/s"),
    ("host.copy_gbs", "GB/s"),
    ("kernels.ukernel_16x4_gflops", "Gflop/s"),
    ("kernels.ukernel_12x4_gflops", "Gflop/s"),
    ("kernels.ukernel_8x12_gflops", "Gflop/s"),
    ("kernels.ukernel_8x8_gflops", "Gflop/s"),
    ("kernels.ukernel_8x4_gflops", "Gflop/s"),
    ("kernels.ukernel_4x8_gflops", "Gflop/s"),
    ("kernels.ukernel_4x4_gflops", "Gflop/s"),
    ("kernels.peak_frac", "ratio"),
    ("pack.a_gbs", "GB/s"),
    ("pack.b_gbs", "GB/s"),
    ("pack.copy_frac", "ratio"),
    ("pool.fanout_us", "us"),
    ("arena.hit_ratio", "ratio"),
    ("plan.lookup_ns", "ns"),
    ("plan.build_us", "us"),
    ("plan.cache_hit_ratio", "ratio"),
    ("plan.ref_vs_best_square", "ratio"),
    ("plan.ref_vs_best_skinny", "ratio"),
    ("plan.ref_vs_best_batch", "ratio"),
    ("exec.execute_ns", "ns"),
    ("exec.walk_overhead_ns", "ns"),
    ("telemetry.call_overhead_ns", "ns"),
    ("batch.entry_ns", "ns"),
    ("serve.submit_us", "us"),
    ("serve.inproc_latency_p50_us", "us"),
    ("serve.coalescing_factor", "ratio"),
    ("wire.encode_ns", "ns"),
    ("wire.decode_ns", "ns"),
    ("tcp.front_end_us", "us"),
    ("harness.send_lag_p99_us", "us"),
    ("harness.timer_overhead_ns", "ns"),
    ("harness.trace_overhead_frac", "ratio"),
    ("tieout.tiny_gemm_gap", "ratio"),
    ("tieout.batch_compute_gap", "ratio"),
    ("compute.gflops_square", "Gflop/s"),
    ("compute.gflops_skinny", "Gflop/s"),
    ("compute.gflops_batch", "Gflop/s"),
];

/// The workloads, by the names `BENCHMARK.json` and later changes use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop tiny `Smm::gemm` calls on one thread.
    TinyGemm,
    /// Closed-loop square, skinny and batched GEMMs on `nproc` workers.
    BatchCompute,
    /// Open-loop Poisson requests over loopback TCP.
    ServeTcp,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::TinyGemm,
        Workload::BatchCompute,
        Workload::ServeTcp,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TinyGemm => "tiny_gemm",
            Workload::BatchCompute => "batch_compute",
            Workload::ServeTcp => "serve_tcp",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measurement time in seconds.
    pub seconds: f64,
    /// Run the traced per-layer ledger instead of the end-to-end run.
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <tiny_gemm|batch_compute|serve_tcp> \
                     --seed <u64> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (0 when it is a single measurement).
    pub samples: u64,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (calls, batch calls or requests).
    pub attempted: u64,
    /// Oracle mismatches, rejections, timeouts and missing or duplicate
    /// replies.
    pub failed: u64,
    /// Reported metrics, in order.
    pub metrics: Vec<Metric>,
    /// Report lines printed before the metrics.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Add a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    /// Add a report line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Add counts from a sub-run.
    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Print the report and the final JSON line; the metrics must be
    /// exactly `expected`, in order.
    fn emit(&self, expected: &[(&str, &str)]) -> bool {
        let names: Vec<&str> = self.metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names, want,
            "reported metrics differ from the declared list"
        );
        for l in &self.lines {
            println!("{l}");
        }
        let mut json = String::new();
        for (m, (_, unit)) in self.metrics.iter().zip(expected) {
            let samples = if m.samples > 0 {
                format!("  (n={})", m.samples)
            } else {
                String::new()
            };
            println!("metric {:<32} {:>14.4} {unit}{samples}", m.name, m.value);
            // JSON has no NaN or infinity; a non-finite value is a bug
            // in the benchmark, so fail the run rather than hide it.
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            if !json.is_empty() {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.name, m.value
            );
        }
        let correct = self.failed == 0 && self.attempted > 0;
        println!(
            "fail_ratio {:.6} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

/// Report the end-to-end metrics of an untraced run: median set-up
/// time, each window's exact latency percentiles reduced over the
/// windows by `stat`, the operation rate, and peak memory `rss_mib`.
pub fn e2e(
    out: &mut Outcome,
    setup: &[f64],
    windows: &util::Windows,
    stat: util::Stat,
    ops_per_s: f64,
    ops: u64,
    rss_mib: f64,
) {
    let n = windows.pooled.count();
    let least = windows.list.iter().map(|w| w.count).min().unwrap_or(0);
    let window_tail = util::supported_tail(least).unwrap_or(0.0);
    if window_tail < 90.0 {
        out.line(format!(
            "WARNING: a window has {least} latency samples, fewer than 10 beyond p90"
        ));
    }
    if let Some(p) = util::supported_tail(n) {
        out.line(format!(
            "latency over all {} windows pooled: p50 {:.3} us, p{p} {:.3} us (n={n})",
            windows.list.len(),
            windows.pooled.percentile(50.0) as f64 / 1e3,
            windows.pooled.percentile(p) as f64 / 1e3
        ));
    }
    let p50 = |w: &util::Window| w.p50 as f64 / 1e3;
    let p90: fn(&util::Window) -> f64 = |w| w.p90 as f64 / 1e3;
    let p99: fn(&util::Window) -> f64 = |w| w.p99 as f64 / 1e3;
    for s in [util::Stat::Median, util::Stat::WorstDecile] {
        out.line(format!(
            "{s:?} of {} windows of {:.3} s: p50 {:.3} us, p90 {:.3} us, p99 {:.3} us, \
             rate {:.1} 1/s{}",
            windows.list.len(),
            windows.list.first().map_or(0.0, |w| w.secs),
            windows.reduce(p50, false, s),
            windows.reduce(p90, false, s),
            windows.reduce(p99, false, s),
            windows.reduce(util::Window::rate, true, s),
            if s == stat { "  <- reported" } else { "" }
        ));
    }
    // The tails are printed, not bounded: on a shared host they move
    // with the host's preemptions (see NOTES.md, "Statistics").
    for (name, p, f) in [("latency_p90_us", 90.0, p90), ("latency_p99_us", 99.0, p99)] {
        if window_tail >= p {
            out.line(format!(
                "{name} {:.3} us (n={n}, {stat:?} window)",
                windows.reduce(f, false, stat)
            ));
        } else if util::supported_tail(n).is_some_and(|t| t >= p) {
            out.line(format!(
                "{name} {:.3} us (n={n}, all windows pooled: a window has too few samples)",
                windows.pooled.percentile(p) as f64 / 1e3
            ));
        }
    }
    out.metric("setup_s", util::median(setup), setup.len() as u64);
    out.metric("latency_p50_us", windows.reduce(p50, false, stat), n);
    out.metric("ops_per_s", ops_per_s, ops);
    out.metric("peak_rss_mib", rss_mib, 0);
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let correct = if args.trace {
        ledger::run(&args).emit(&PER_LAYER)
    } else {
        let out = match args.workload {
            Workload::TinyGemm => tiny::run(args.seed, args.seconds),
            Workload::BatchCompute => compute::run(args.seed, args.seconds),
            Workload::ServeTcp => serve::run(args.seed, args.seconds),
        };
        out.emit(&E2E)
    };
    if !correct {
        eprintln!("perfbench: output verification failed");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_tcp --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeTcp);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload tiny_gemm --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload tiny_gemm --seconds 1").is_err());
    }

    /// The names in `BENCHMARK.json` and the names this program reports
    /// must be the same lists. `serve_tcp` runs and reports the same
    /// metrics but is not in `BENCHMARK.json`: its figures move with
    /// host contention by more than any bound (NOTES.md, "Statistics").
    #[test]
    fn benchmark_json_declares_what_is_reported() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let names: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').unwrap()])
            .collect();
        let mut want: Vec<&str> = Workload::ALL
            .iter()
            .filter(|&&w| w != Workload::ServeTcp)
            .map(|w| w.name())
            .collect();
        want.extend(E2E.iter().map(|(n, _)| *n));
        want.extend(PER_LAYER.iter().map(|(n, _)| *n));
        assert_eq!(names, want);
        for (name, unit) in E2E.iter().chain(PER_LAYER.iter()) {
            let at = text.find(&format!("\"name\": \"{name}\"")).unwrap();
            let rest = &text[at..];
            let line = &rest[..rest.find('}').unwrap()];
            assert!(
                line.contains(&format!("\"unit\": \"{unit}\"")),
                "{name}: {line}"
            );
        }
    }
}
