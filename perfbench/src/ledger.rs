//! The per-layer ledger: the traced run.
//!
//! Every layer is measured from outside, by timing calls into its
//! public functions and reading its public stats, and set against the
//! host roofline probed in the same run. Then each workload is replayed
//! with a span around every call into a layer, and the layers' self
//! times are tied out against the end-to-end time of the same calls.
//! End-to-end metrics never come from this run.

use std::collections::BTreeMap;
use std::hint::black_box;

use smm_core::plan::KERNEL_CANDIDATES;
use smm_core::{execute_in, CompiledPlan, CompiledScratch, PlanConfig, Smm, SmmPlan};
use smm_gemm::matrix::{Mat, MatMut, MatRef};
use smm_gemm::pack::{pack_a, pack_b};
use smm_gemm::pool::TaskPool;
use smm_gemm::strategy::all_strategies;
use smm_kernels::Kernel;
use smm_serve::wire::{decode_payload, encode_request};
use smm_serve::Server;

use crate::compute::{self, Class, Data, OPS};
use crate::serve::{self, Fail, Mix, Names, RungWindow};
use crate::spans::Spans;
use crate::tiny::{self, Inputs};
use crate::util::{matches, median, nproc, ns, oracle, Hist, Rng};
use crate::{Args, Outcome, Workload};

/// Depth of the micro-kernel probe (the Table I setting).
const KC: usize = 64;
/// Side of the square block the pack probe packs.
const PACK: usize = 64;
/// Shares of the run's seconds given to the traced replays.
const TINY_SHARE: f64 = 0.1;
const BATCH_SHARE: f64 = 0.15;
const SERVE_SHARE: f64 = 0.15;
/// A tie-out gap above this is reported as a finding.
const GAP_FINDING: f64 = 0.15;

/// Median ns per call of `f` over five samples, with the iteration
/// count calibrated so a sample takes about 1 ms.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let t = ns();
    f();
    let once = (ns() - t).max(1);
    let iters = (1_000_000 / once).clamp(1, 1_000_000) as usize;
    crate::util::time_per_call(5, iters, f)
}

/// Median ns per call of `a` and of `b`, sampled alternately so drift
/// on a shared host affects both alike.
fn paired(mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..7 {
        ta.push(ns_per_call(&mut a));
        tb.push(ns_per_call(&mut b));
    }
    (median(&ta), median(&tb))
}

/// Collects the per-layer metrics by name until they are emitted in the
/// declared order.
#[derive(Default)]
struct Ledger {
    values: BTreeMap<&'static str, (f64, u64)>,
}

impl Ledger {
    fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        self.values.insert(name, (value, samples));
    }
}

/// Run the ledger; `args.workload` selects whose tracing overhead is
/// reported as `harness.trace_overhead_frac`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut led = Ledger::default();
    let s = args.seconds;

    let host = crate::host::probe();
    for (bits, isa, g) in &host.fma {
        out.line(format!(
            "host: {bits}-bit {isa} FMA {g:.2} Gflop/s (one core)"
        ));
    }
    out.line(format!(
        "host: copy {:.2} GB/s at {} KiB (the pack probe's block)",
        host.copy_gbs,
        crate::host::COPY_BYTES / 1024
    ));
    led.set("host.fma_w128_gflops", host.at(128), 0);
    led.set("host.fma_w256_gflops", host.at(256), 0);
    led.set("host.fma_w512_gflops", host.at(512), 0);
    led.set("host.fma_peak_gflops", host.peak_gflops, 0);
    led.set("host.copy_gbs", host.copy_gbs, 0);

    kernels(&mut out, &mut led, host.peak_gflops);
    pack(&mut out, &mut led, host.copy_gbs);
    let fanout = ns_per_call(|| {
        let tasks: Vec<_> = (0..nproc()).map(|_| || black_box(())).collect();
        TaskPool::global().run_scoped(tasks);
    });
    led.set("pool.fanout_us", fanout / 1e3, 0);
    plan_build(&mut led);
    ref_vs_best(&mut out, &mut led, args.seed);
    wire(&mut led, args.seed);
    let timer = ns_per_call(|| {
        black_box(ns());
    });
    led.set("harness.timer_overhead_ns", timer, 0);

    let tiny_overhead = tiny_ledger(&mut out, &mut led, args.seed, s);
    let batch_overhead = batch_ledger(&mut out, &mut led, args.seed, s);
    let serve_overhead = serve_ledger(&mut out, &mut led, args.seed, s);
    let overhead = match args.workload {
        Workload::TinyGemm => tiny_overhead,
        Workload::BatchCompute => batch_overhead,
        Workload::ServeTcp => serve_overhead,
    };
    led.set("harness.trace_overhead_frac", overhead, 0);
    out.line(format!(
        "trace overhead: tiny_gemm {tiny_overhead:+.4}, batch_compute {batch_overhead:+.4}, \
         serve_tcp {serve_overhead:+.4} (traced / untraced - 1)"
    ));

    for (name, _) in crate::PER_LAYER {
        let (v, n) = led
            .values
            .get(name)
            .copied()
            .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
        out.metric(name, v, n);
    }
    out
}

/// Micro-kernel Gflop/s at kc = 64 for every tile the planner can pick,
/// and the best picked tile against the host peak.
fn kernels(out: &mut Outcome, led: &mut Ledger, peak: f64) {
    // Tiles the planner picks on the three workloads' shapes.
    let mut shapes: Vec<(usize, usize, usize)> = tiny::shapes();
    shapes.extend(OPS.iter().map(|o| (o.m, o.n, o.k)));
    shapes.extend(Mix::new(0).shapes);
    let cfg = PlanConfig {
        max_threads: nproc(),
        ..PlanConfig::default()
    };
    let mut picked: Vec<(usize, usize)> = shapes
        .iter()
        .map(|&(m, n, k)| {
            let p = SmmPlan::build(m, n, k, &cfg);
            (p.kernel.mr, p.kernel.nr)
        })
        .collect();
    picked.sort_unstable();
    picked.dedup();
    out.line(format!(
        "kernels picked by the planner on these workloads: {picked:?}"
    ));

    let mut best_picked = 0.0f64;
    for &(mr, nr) in KERNEL_CANDIDATES {
        let a: Vec<f32> = (0..mr * KC).map(|i| (i % 13) as f32 * 0.25).collect();
        let b: Vec<f32> = (0..nr * KC).map(|i| (i % 7) as f32 * 0.5).collect();
        let mut c = vec![0.0f32; mr * nr];
        let k = Kernel::<f32>::for_shape(mr, nr);
        let t = ns_per_call(|| k.run(KC, 1.0, black_box(&a), black_box(&b), &mut c, mr));
        let g = (2 * mr * nr * KC) as f64 / t;
        if picked.contains(&(mr, nr)) {
            best_picked = best_picked.max(g);
        }
        let want = format!("kernels.ukernel_{mr}x{nr}_gflops");
        let name = crate::PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| *n == want)
            .expect("every planner candidate tile is a declared metric");
        led.set(name, g, 0);
    }
    led.set("kernels.peak_frac", best_picked / peak, 0);
}

/// Packing bandwidth on a 64×64 block with the tile the planner picks
/// at 64³, against copy bandwidth at the same size.
fn pack(out: &mut Outcome, led: &mut Ledger, copy: f64) {
    let kernel = SmmPlan::build(PACK, PACK, PACK, &PlanConfig::default()).kernel;
    let src = Rng::new(1, 9).mat(PACK, PACK);
    let mut buf = Vec::new();
    let bytes = (PACK * PACK * 4) as f64;
    let a = ns_per_call(|| pack_a(src.as_ref(), 0, 0, PACK, PACK, kernel.mr, &mut buf));
    let b = ns_per_call(|| pack_b(src.as_ref(), 0, 0, PACK, PACK, kernel.nr, &mut buf));
    out.line(format!(
        "pack: {PACK}x{PACK} f32 block, mr {} nr {}: A {:.2} GB/s, B {:.2} GB/s",
        kernel.mr,
        kernel.nr,
        bytes / a,
        bytes / b
    ));
    led.set("pack.a_gbs", bytes / a, 0);
    led.set("pack.b_gbs", bytes / b, 0);
    led.set("pack.copy_frac", 0.5 * (bytes / a + bytes / b) / copy, 0);
}

/// Mean plan build time over every shape of the three workloads, under
/// each workload's configuration.
fn plan_build(led: &mut Ledger) {
    let wide = PlanConfig {
        max_threads: nproc(),
        ..PlanConfig::default()
    };
    let mut cases: Vec<((usize, usize, usize), PlanConfig)> = tiny::shapes()
        .into_iter()
        .map(|s| (s, PlanConfig::default()))
        .collect();
    cases.extend(OPS.iter().map(|o| ((o.m, o.n, o.k), wide.clone())));
    cases.extend(Mix::new(0).shapes.into_iter().map(|s| (s, wide.clone())));
    let t = ns_per_call(|| {
        for ((m, n, k), cfg) in &cases {
            black_box(SmmPlan::build(*m, *n, *k, cfg));
        }
    });
    led.set(
        "plan.build_us",
        t / cases.len() as f64 / 1e3,
        cases.len() as u64,
    );
}

/// SMM-Ref Gflop/s over the best of the four library strategies, per
/// `batch_compute` class (batched shapes compared one GEMM at a time on
/// one thread).
fn ref_vs_best(out: &mut Outcome, led: &mut Ledger, seed: u64) {
    let strategies = all_strategies::<f32>();
    let threaded = compute::runtime();
    let single = Smm::<f32>::new();
    let mut rng = Rng::new(seed, 11);
    for class in Class::ALL {
        let ops: Vec<_> = OPS.iter().filter(|o| o.class == class).collect();
        let threads = if class == Class::Batch { 1 } else { nproc() };
        let smm = if class == Class::Batch {
            &single
        } else {
            &threaded
        };
        // (flops, ns) for SMM-Ref then each strategy.
        let mut totals = vec![(0.0f64, 0.0f64); strategies.len() + 1];
        for o in &ops {
            let (a, b) = (rng.mat(o.m, o.k), rng.mat(o.k, o.n));
            let mut c = Mat::zeros(o.m, o.n);
            let flops = 2.0 * (o.m * o.n * o.k) as f64;
            let t = ns_per_call(|| smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut()));
            totals[0].0 += flops;
            totals[0].1 += t;
            for (i, st) in strategies.iter().enumerate() {
                let th = if st.supports_threads() { threads } else { 1 };
                let t = ns_per_call(|| st.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c.as_mut(), th));
                totals[i + 1].0 += flops;
                totals[i + 1].1 += t;
            }
        }
        let rate = |(f, t): (f64, f64)| f / t;
        let (best_i, best) = totals[1..]
            .iter()
            .map(|&x| rate(x))
            .enumerate()
            .fold((0, 0.0), |acc, (i, g)| if g > acc.1 { (i, g) } else { acc });
        out.line(format!(
            "plan: {} class SMM-Ref {:.2} Gflop/s, best strategy {} {:.2} Gflop/s",
            class.name(),
            rate(totals[0]),
            strategies[best_i].name(),
            best
        ));
        let name = match class {
            Class::Square => "plan.ref_vs_best_square",
            Class::Skinny => "plan.ref_vs_best_skinny",
            Class::Batch => "plan.ref_vs_best_batch",
        };
        led.set(name, rate(totals[0]) / best, 0);
    }
}

/// Wire codec cost per request over the serve mix.
fn wire(led: &mut Ledger, seed: u64) {
    let mix = Mix::new(seed);
    let n = mix.requests.len() as f64;
    let enc = ns_per_call(|| {
        for r in &mix.requests {
            black_box(encode_request(r));
        }
    });
    let dec = ns_per_call(|| {
        for p in &mix.payloads {
            black_box(decode_payload(p).is_ok());
        }
    });
    led.set("wire.encode_ns", enc / n, mix.requests.len() as u64);
    led.set("wire.decode_ns", dec / n, mix.requests.len() as u64);
}

/// The three ways the traced replay runs one round of a workload.
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// The workload's own public calls, untraced: the end-to-end time.
    Calls,
    /// The same work through each layer's public call, untraced.
    Layers,
    /// The same, with a span around every layer call.
    Traced,
}

/// Run rounds of the three phases, interleaved so drift on a shared
/// host affects all three alike, for about `secs` but at most
/// `max_rounds` rounds (which bounds the spans kept in memory); returns
/// the mean ns per round of each phase and the number of rounds.
fn interleaved(secs: f64, max_rounds: u64, mut round: impl FnMut(Phase, u64)) -> ([f64; 3], u64) {
    let mut total = [0u64; 3];
    let end = ns() + (secs * 1e9) as u64;
    let mut rounds = 0;
    while rounds == 0 || (ns() < end && rounds < max_rounds) {
        for (i, phase) in [Phase::Calls, Phase::Layers, Phase::Traced]
            .into_iter()
            .enumerate()
        {
            let t = ns();
            round(phase, rounds);
            total[i] += ns() - t;
        }
        rounds += 1;
    }
    (total.map(|t| t as f64 / rounds as f64), rounds)
}

/// Print the tie-out of one workload: per-layer self time per operation
/// next to the end-to-end time per operation; returns the gap.
fn tie_out(
    out: &mut Outcome,
    workload: &str,
    spans: &Spans,
    ops: u64,
    layers: &[&str],
    e2e_ns: f64,
) -> f64 {
    let selfs = spans.self_times();
    let mut sum = 0.0;
    out.line(format!(
        "tie-out {workload}: end-to-end {e2e_ns:.1} ns per op (untraced public calls)"
    ));
    for (name, (total, count)) in &selfs {
        let per_op = *total as f64 / ops as f64;
        let layer = layers.contains(name);
        if layer {
            sum += per_op;
        }
        out.line(format!(
            "  {name:<22} self {per_op:>12.1} ns/op {:>6.1}%  ({count} spans){}",
            100.0 * per_op / e2e_ns,
            if layer { "" } else { "  [harness]" }
        ));
    }
    let gap = 1.0 - sum / e2e_ns;
    out.line(format!(
        "  layers sum to {sum:.1} ns/op: gap {:.1}%{}",
        100.0 * gap,
        if gap.abs() > GAP_FINDING {
            " -- FINDING: more than 15% of the end-to-end time is not in any layer's self time"
        } else {
            ""
        }
    ));
    gap
}

/// One pass of the tiny sequence through the layers' public calls:
/// cached plan lookup, then plan execution on the runtime's pool.
fn tiny_decomposed(smm: &Smm<f32>, inp: &Inputs, c: &mut [Mat<f32>], spans: &mut Spans, op0: u64) {
    for (j, &i) in inp.seq.iter().enumerate() {
        let (m, n, k) = inp.shapes[i];
        let op = op0 + j as u64;
        let root = spans.begin(op, "tiny_gemm.op", None);
        let o = spans.begin(op, "plan.lookup", root);
        let plan = smm.plan(m, n, k);
        spans.end(o);
        let o = spans.begin(op, "exec.execute", root);
        execute_in(
            smm.pool(),
            &plan,
            1.0,
            inp.a[i].as_ref(),
            inp.b[i].as_ref(),
            0.0,
            c[i].as_mut(),
        );
        spans.end(o);
        spans.end(root);
    }
}

/// Traced replay of `tiny_gemm` plus the plan, exec and telemetry rows;
/// returns the tracing overhead.
fn tiny_ledger(out: &mut Outcome, led: &mut Ledger, seed: u64, s: f64) -> f64 {
    let inp = Inputs::new(seed);
    let mut c = inp.outputs();
    let smm = tiny::set_up(&inp, &mut c);
    let mut spans = Spans::new(true);
    let mut off = Spans::new(false);
    let ([e2e, untraced, traced], rounds) =
        interleaved(TINY_SHARE * s, 16, |phase, round| match phase {
            Phase::Calls => {
                for &i in &inp.seq {
                    smm.gemm(
                        1.0,
                        inp.a[i].as_ref(),
                        inp.b[i].as_ref(),
                        0.0,
                        c[i].as_mut(),
                    );
                }
            }
            Phase::Layers => tiny_decomposed(&smm, &inp, &mut c, &mut off, 0),
            Phase::Traced => {
                tiny_decomposed(&smm, &inp, &mut c, &mut spans, round * inp.seq.len() as u64)
            }
        });
    let per_round = inp.seq.len() as f64;
    let (e2e, untraced, traced) = (e2e / per_round, untraced / per_round, traced / per_round);
    let calls = rounds * inp.seq.len() as u64;
    let bad = inp.mismatches(&c).len() as u64;
    out.count(3 * calls, bad * 3 * calls / inp.shapes.len() as u64);
    let gap = tie_out(
        out,
        "tiny_gemm",
        &spans,
        calls,
        &["plan.lookup", "exec.execute"],
        e2e,
    );
    led.set("tieout.tiny_gemm_gap", gap, calls);
    write_spans(out, &spans, "tiny_gemm");

    let st = smm.stats();
    led.set(
        "plan.cache_hit_ratio",
        st.plan_hits as f64 / (st.plan_hits + st.plan_misses).max(1) as f64,
        st.plan_hits + st.plan_misses,
    );
    let lookup = ns_per_call(|| {
        for &(m, n, k) in &inp.shapes {
            black_box(smm.plan(m, n, k));
        }
    }) / inp.shapes.len() as f64;
    led.set("plan.lookup_ns", lookup, inp.shapes.len() as u64);

    // exec: prebuilt plans, plan walker against the compiled schedule.
    let plans: Vec<_> = inp
        .shapes
        .iter()
        .map(|&(m, n, k)| smm.plan(m, n, k))
        .collect();
    let compiled: Vec<_> = plans
        .iter()
        .map(|p| CompiledPlan::compile(p, p.m, p.k, p.m))
        .collect();
    let mut scratch = CompiledScratch::new();
    let mut cc = inp.outputs();
    let (walk, comp) = paired(
        || {
            for (i, p) in plans.iter().enumerate() {
                let (a, b) = (inp.a[i].as_ref(), inp.b[i].as_ref());
                execute_in(smm.pool(), p, 1.0, a, b, 0.0, c[i].as_mut());
            }
        },
        || {
            for (i, p) in compiled.iter().enumerate() {
                let (a, b) = (inp.a[i].data(), inp.b[i].data());
                p.execute(1.0, a, b, 0.0, cc[i].data_mut(), &mut scratch);
            }
        },
    );
    let (walk, comp) = (walk / plans.len() as f64, comp / plans.len() as f64);
    let bad = inp.mismatches(&c).len() + inp.mismatches(&cc).len();
    out.count(2 * plans.len() as u64, bad as u64);
    led.set("exec.execute_ns", walk, plans.len() as u64);
    led.set("exec.walk_overhead_ns", walk - comp, plans.len() as u64);
    out.line(format!(
        "exec: tiny mix mean {walk:.1} ns per execute, {comp:.1} ns per CompiledPlan::execute; \
         Smm::gemm {e2e:.1} ns per call"
    ));

    // telemetry: one 8³ gemm with telemetry on (the default) and off.
    let quiet = Smm::<f32>::builder().telemetry(false).build();
    let (a, b) = (Rng::new(seed, 12).mat(8, 8), Rng::new(seed, 13).mat(8, 8));
    let mut c8 = Mat::zeros(8, 8);
    let mut c8q = Mat::zeros(8, 8);
    let (on, offs) = paired(
        || smm.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c8.as_mut()),
        || quiet.gemm(1.0, a.as_ref(), b.as_ref(), 0.0, c8q.as_mut()),
    );
    out.line(format!(
        "telemetry: 8^3 gemm {on:.1} ns with telemetry, {offs:.1} ns without"
    ));
    led.set("telemetry.call_overhead_ns", on - offs, 0);
    let want = oracle(&a, &b);
    let bad = [&c8, &c8q]
        .iter()
        .filter(|c| !matches(c.data(), &want, 8))
        .count();
    out.count(2, bad as u64);
    traced / untraced - 1.0
}

/// One pass of the `batch_compute` sequence through the layers' public
/// calls: plan lookup and execution for each `gemm`, the `gemm_batch`
/// call itself for each batch.
fn batch_decomposed(smm: &Smm<f32>, data: &mut [Data], spans: &mut Spans, op0: u64) {
    for (j, (o, d)) in OPS.iter().zip(data.iter_mut()).enumerate() {
        let op = op0 + j as u64;
        let root = spans.begin(op, "batch_compute.op", None);
        if o.batch == 1 {
            let s = spans.begin(op, "plan.lookup", root);
            let plan = smm.plan(o.m, o.n, o.k);
            spans.end(s);
            let s = spans.begin(op, "exec.execute", root);
            execute_in(
                smm.pool(),
                &plan,
                1.0,
                MatRef::from_slice(&d.a, o.m, o.k, o.m),
                MatRef::from_slice(&d.b, o.k, o.n, o.k),
                0.0,
                MatMut::from_slice(&mut d.c, o.m, o.n, o.m),
            );
            spans.end(s);
        } else {
            let s = spans.begin(op, "batch.gemm_batch", root);
            let ok = smm
                .gemm_batch(&o.desc(), 1.0, &d.a, &d.b, 0.0, &mut d.c)
                .is_ok();
            spans.end(s);
            assert!(ok, "gemm_batch refused a valid batch");
        }
        spans.end(root);
    }
}

/// Traced replay of `batch_compute` plus the arena, batch and class
/// rows; returns the tracing overhead.
fn batch_ledger(out: &mut Outcome, led: &mut Ledger, seed: u64, s: f64) -> f64 {
    let mut data = compute::inputs(seed);
    let smm = compute::runtime();
    OPS.iter().zip(data.iter_mut()).for_each(|(o, d)| {
        compute::call(&smm, o, d);
    });
    smm_gemm::arena::reset_stats();
    let mut class = [(0.0f64, 0u64); 3];
    let mut refused = 0;
    let mut spans = Spans::new(true);
    let mut off = Spans::new(false);
    let ([e2e, untraced, traced], rounds) =
        interleaved(BATCH_SHARE * s, 1000, |phase, round| match phase {
            Phase::Calls => {
                for (o, d) in OPS.iter().zip(data.iter_mut()) {
                    let t = ns();
                    refused += u64::from(!compute::call(&smm, o, d));
                    let cl = &mut class[o.class as usize];
                    cl.0 += o.flops();
                    cl.1 += ns() - t;
                }
            }
            Phase::Layers => batch_decomposed(&smm, &mut data, &mut off, 0),
            Phase::Traced => {
                batch_decomposed(&smm, &mut data, &mut spans, round * OPS.len() as u64)
            }
        });
    let per_round = OPS.len() as f64;
    let (e2e, untraced, traced) = (e2e / per_round, untraced / per_round, traced / per_round);
    let ops = rounds * OPS.len() as u64;
    for c in Class::ALL {
        let name = match c {
            Class::Square => "compute.gflops_square",
            Class::Skinny => "compute.gflops_skinny",
            Class::Batch => "compute.gflops_batch",
        };
        let (flops, t) = class[c as usize];
        led.set(name, flops / t.max(1) as f64, rounds * 3);
    }
    let arena = smm.stats_report().arena;
    led.set(
        "arena.hit_ratio",
        arena.hit_rate(),
        arena.hits + arena.misses,
    );
    let bad = compute::mismatches(&data).len() as u64;
    out.count(3 * ops, refused + bad * 3 * rounds);
    let gap = tie_out(
        out,
        "batch_compute",
        &spans,
        ops,
        &["plan.lookup", "exec.execute", "batch.gemm_batch"],
        e2e,
    );
    led.set("tieout.batch_compute_gap", gap, ops);
    write_spans(out, &spans, "batch_compute");

    let batch_ops: Vec<_> = OPS
        .iter()
        .zip(data.iter_mut())
        .filter(|(o, _)| o.batch > 1)
        .collect();
    let entries: usize = batch_ops.iter().map(|(o, _)| o.batch).sum();
    let mut total = 0.0;
    for (o, d) in batch_ops {
        total += ns_per_call(|| {
            compute::call(&smm, o, d);
        });
    }
    led.set("batch.entry_ns", total / entries as f64, entries as u64);
    traced / untraced - 1.0
}

/// Span names of the in-process replay.
const INPROC_NAMES: Names = Names {
    root: "serve.inproc_request",
    send: "serve.submit",
    wait: "serve.ticket_wait",
    decode: None,
};

/// Median over windows of the windows' p50, in µs.
fn p50_us(wins: &[RungWindow]) -> f64 {
    serve::RungOutcome::from_windows(0.0, wins).p50_us
}

/// The lowest rung over TCP untraced and traced, and the same schedule
/// through the in-process `Client`; returns the tracing overhead.
fn serve_ledger(out: &mut Outcome, led: &mut Ledger, seed: u64, s: f64) -> f64 {
    let mix = Mix::new(seed);
    let (rate, width, _) = serve::RUNGS[0];
    let secs = SERVE_SHARE * s;
    let windows = crate::util::windows_in(secs, width);
    let sched = serve::schedule(seed, 0, rate, secs);

    let (tcp, mut conn, warm_failed) = serve::set_up(&mix);
    out.count(serve::warm_requests(&mix), warm_failed);
    let mut off = Spans::new(false);
    let pace = (secs, windows, serve::Pace::Open);
    let plain = serve::tcp_rung(&mut conn, &mix, &sched, pace, &mut off);
    let before = tcp.stats();
    let mut spans = Spans::new(true);
    let traced = serve::tcp_rung(&mut conn, &mix, &sched, pace, &mut spans);
    let after = tcp.stats();
    let extra = serve::close_and_count_extra(conn);
    tcp.shutdown();
    let inproc = inproc_rung(out, &mix, &sched, secs, windows, &mut spans);
    for w in [&plain, &traced, &inproc] {
        out.count(
            w.iter().map(|w| w.sent).sum(),
            w.iter().map(|w| w.failed).sum(),
        );
    }
    out.count(0, extra);

    let tcp_p50 = p50_us(&plain);
    let inproc_p50 = p50_us(&inproc);
    let mut lag = Hist::new();
    plain.iter().for_each(|w| lag.merge(&w.lag));
    let completed = after.completed - before.completed;
    let batches = (after.batches - before.batches).max(1);
    led.set(
        "serve.coalescing_factor",
        completed as f64 / batches as f64,
        batches,
    );
    led.set(
        "serve.inproc_latency_p50_us",
        inproc_p50,
        inproc.iter().map(|w| w.answered).sum(),
    );
    led.set("tcp.front_end_us", tcp_p50 - inproc_p50, 0);
    led.set(
        "harness.send_lag_p99_us",
        lag.percentile(99.0) as f64 / 1e3,
        lag.count(),
    );
    let selfs = spans.self_times();
    let submit = selfs.get("serve.submit").copied().unwrap_or((0, 1));
    led.set(
        "serve.submit_us",
        submit.0 as f64 / submit.1.max(1) as f64 / 1e3,
        submit.1,
    );
    out.line(format!(
        "serve split at {rate} rps: TCP p50 {tcp_p50:.1} us = in-process p50 {inproc_p50:.1} us \
         + front end {:.1} us; coalescing {:.2} requests per batch",
        tcp_p50 - inproc_p50,
        completed as f64 / batches as f64
    ));
    for (name, (total, count)) in &selfs {
        out.line(format!(
            "  {name:<22} self {:>10.1} us/request ({count} spans)",
            *total as f64 / (*count).max(1) as f64 / 1e3
        ));
    }
    write_spans(out, &spans, "serve_tcp");
    p50_us(&traced) / tcp_p50 - 1.0
}

/// The schedule through an in-process server's `Client`.
fn inproc_rung(
    out: &mut Outcome,
    mix: &Mix,
    sched: &[(u64, usize)],
    secs: f64,
    windows: usize,
    spans: &mut Spans,
) -> Vec<RungWindow> {
    let server = Server::<f32>::builder().build();
    let client = server.client();
    // The same warm-up as over TCP: full groups of the hot shapes.
    let mut warm = 0;
    for s in 0..mix.shapes.len() {
        let idx = |j: usize| s * serve::VARIANTS + j % serve::VARIANTS;
        let tickets: Vec<_> = (0..serve::warm_burst(s))
            .map(|j| (idx(j), client.submit(mix.requests[idx(j)].clone())))
            .collect();
        for (i, t) in tickets {
            let ok = t
                .ok()
                .and_then(|t| t.wait().ok())
                .is_some_and(|c| mix.check(i, &c));
            warm += u64::from(!ok);
        }
    }
    out.count(serve::warm_requests(mix), warm);
    let wins = serve::open_loop(
        sched,
        secs,
        windows,
        serve::Pace::Open,
        |idx| client.submit(mix.requests[idx].clone()).ok(),
        |ticket| {
            ticket
                .wait()
                .map(|c| (c, ns()))
                .map_err(|e| Fail::Reply(e.to_string()))
        },
        |idx, c| mix.check(idx, c),
        INPROC_NAMES,
        spans,
    );
    server.shutdown();
    wins
}

/// Write a workload's spans under the benchmark's `out/` directory (one
/// file per workload, replaced by the next traced run).
fn write_spans(out: &mut Outcome, spans: &Spans, workload: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans_{workload}.tsv"));
    match spans.write_tsv(&path) {
        Ok(()) => out.line(format!(
            "spans: {} written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => out.line(format!("spans: could not write {}: {e}", path.display())),
    }
}
