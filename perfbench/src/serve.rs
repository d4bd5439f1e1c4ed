//! `serve_tcp`: a `Server` with `ServeConfig::default()` behind
//! `TcpServer` on loopback, driven in the same process by an open-loop
//! generator with seeded Poisson arrivals at a fixed ladder of offered
//! rates. Every request is timed from when it was due to be sent, so a
//! stall delays the requests due after it.
//!
//! The generator is two threads on one connection: a sender that
//! writes each request frame at its due time, and a receiver that reads
//! the replies (the front end answers one connection in request order).

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use smm_gemm::matrix::Mat;
use smm_serve::wire::{
    decode_payload, encode_request, read_frame, write_frame, FrameRead, WireMsg,
};
use smm_serve::{GemmRequest, ServeConfig, ServeStats, Server, TcpServer};

use crate::spans::Spans;
use crate::util::{
    matches, median, now, ns, oracle, peak_rss_mib, secs_since, windows_in, Hist, Rng, Stat,
    Windows, MIX_SEED,
};
use crate::Outcome;

/// The three hot shapes (m, n, k).
pub const HOT: [(usize, usize, usize); 3] = [(8, 8, 8), (16, 16, 16), (4, 32, 8)];
/// Share of requests that use a hot shape.
pub const HOT_SHARE: f64 = 0.8;
/// Distinct tail shapes, each of m, n, k drawn from `TAIL_DIMS`.
pub const TAIL: usize = 32;
/// Inclusive range of tail-shape dimensions.
pub const TAIL_DIMS: (usize, usize) = (2, 24);
/// Operand sets per shape.
pub const VARIANTS: usize = 4;
/// The ladder: offered rate (requests per second), window length in
/// seconds, and share of the run, lowest rate first. Each rung is one
/// unbroken open-loop stream whose requests are accounted in short
/// windows by due time; a window's p99 is exact over its own samples
/// (at least 1200 of them on the lowest rung), and the rung's figures
/// are medians over windows, so a millisecond-scale stall of a shared
/// host spoils one window, not the rung. The lowest rung's windows give
/// the latency metrics.
pub const RUNGS: [(f64, f64, f64); 3] = [
    (8000.0, 0.15, 0.3),
    (16000.0, 0.25, 0.2),
    (32000.0, 0.25, 0.2),
];
/// Share of the run and window length of the saturation phase, after
/// the ladder: the generator keeps `MAX_INFLIGHT` requests in flight, so
/// the answered rate is the rate the server sustains. Unlike the highest
/// passing rung, it does not jump by a whole rung when the host's speed
/// drifts.
pub const SATURATION: (f64, f64) = (0.3, 0.25);
/// A window passes only if its p99 latency stays within this limit.
pub const P99_LIMIT_US: f64 = 5000.0;
/// ... and the generator's median lateness stays within this one (a
/// generator falling behind its schedule is a growing backlog).
pub const LAG_LIMIT_US: f64 = 1000.0;
/// Requests in flight at which the generator holds its next send until
/// a reply arrives (the wait counts as lateness). With at most one
/// coalesced group (64) executing, fewer than the server's default queue
/// capacity (256) are then queued, so the server never has to refuse.
pub const MAX_INFLIGHT: u64 = 192;
/// Lateness at which the generator gives up on a rung as overloaded.
pub const ABORT_LAG: Duration = Duration::from_millis(200);
/// A reply not read within this is counted as a timeout.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Rounds of a run, each on a fresh server and connection running the
/// whole ladder and the saturation phase (see [`crate::compute::ROUNDS`]).
pub const ROUNDS: usize = 10;
/// Set-up repetitions per round; `setup_s` is the median over all
/// rounds.
pub const SETUP_REPS: usize = 2;

/// The tail shapes: `TAIL` distinct shapes, none of them hot, drawn
/// from `MIX_SEED`.
pub fn tail_shapes() -> Vec<(usize, usize, usize)> {
    let mut rng = Rng::new(MIX_SEED, 4);
    let mut out = Vec::with_capacity(TAIL);
    while out.len() < TAIL {
        let s = (
            rng.range(TAIL_DIMS.0, TAIL_DIMS.1),
            rng.range(TAIL_DIMS.0, TAIL_DIMS.1),
            rng.range(TAIL_DIMS.0, TAIL_DIMS.1),
        );
        if !HOT.contains(&s) && !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// The request mix: shapes (hot first), `VARIANTS` operand sets each,
/// pre-encoded request payloads and the oracle's answers.
pub struct Mix {
    /// Hot shapes then tail shapes.
    pub shapes: Vec<(usize, usize, usize)>,
    /// Request `s * VARIANTS + v` is shape `s` with operand set `v`.
    pub requests: Vec<GemmRequest<f32>>,
    /// Wire payload of each request.
    pub payloads: Vec<Vec<u8>>,
    /// Oracle result of each request.
    pub expected: Vec<Mat<f32>>,
}

impl Mix {
    /// Generate the mix for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut shapes = HOT.to_vec();
        shapes.extend(tail_shapes());
        let mut rng = Rng::new(seed, 5);
        let (mut requests, mut expected) = (Vec::new(), Vec::new());
        for &(m, n, k) in &shapes {
            for _ in 0..VARIANTS {
                let (a, b) = (rng.mat(m, k), rng.mat(k, n));
                expected.push(oracle(&a, &b));
                requests.push(GemmRequest::new(
                    m,
                    n,
                    k,
                    a.data().to_vec(),
                    b.data().to_vec(),
                ));
            }
        }
        let payloads = requests.iter().map(encode_request).collect();
        Mix {
            shapes,
            requests,
            payloads,
            expected,
        }
    }

    /// Does `c` answer request `idx`?
    pub fn check(&self, idx: usize, c: &[f32]) -> bool {
        matches(c, &self.expected[idx], self.requests[idx].k)
    }
}

/// Seeded Poisson arrivals of one rung: (offset ns from the rung start,
/// request index); `stream` tells rungs apart. Hot shapes get
/// `HOT_SHARE` of the requests.
pub fn schedule(seed: u64, stream: u64, rate: f64, seconds: f64) -> Vec<(u64, usize)> {
    let mut rng = Rng::new(seed, 100 + stream);
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        t += rng.exp(1.0 / rate);
        if t >= seconds {
            return out;
        }
        let shape = if rng.unit() < HOT_SHARE {
            rng.below(HOT.len())
        } else {
            HOT.len() + rng.below(TAIL)
        };
        out.push(((t * 1e9) as u64, shape * VARIANTS + rng.below(VARIANTS)));
    }
}

/// Why a reply could not be used.
#[derive(Debug)]
pub enum Fail {
    /// A typed error reply; the connection is still in step.
    Reply(String),
    /// No usable reply (timeout, disconnect, garbage): stop reading.
    Broken(String),
}

/// Span names of one transport: the send call, the wait for the reply,
/// and the reply decode (if the transport has one).
#[derive(Debug, Clone, Copy)]
pub struct Names {
    /// Root span of one request.
    pub root: &'static str,
    /// Span around the send call.
    pub send: &'static str,
    /// From the end of the send to the reply being available.
    pub wait: &'static str,
    /// Span around decoding the reply.
    pub decode: Option<&'static str>,
}

/// The TCP transport's span names.
pub const TCP_NAMES: Names = Names {
    root: "serve.request",
    send: "tcp.write_frame",
    wait: "tcp.await_reply",
    decode: Some("wire.decode"),
};

/// What one window of a rung measured (requests counted by due time).
#[derive(Debug, Clone, Default)]
pub struct RungWindow {
    /// Length of the window, seconds.
    pub seconds: f64,
    /// Requests sent.
    pub sent: u64,
    /// Requests answered correctly.
    pub answered: u64,
    /// Mismatches, error replies, refused sends, timeouts, missing replies.
    pub failed: u64,
    /// The generator fell `ABORT_LAG` behind in or before this window
    /// and ended the rung.
    pub overloaded: bool,
    /// Latency from due time to reply, correct replies only.
    pub lat: Hist,
    /// Lateness of each send behind its due time.
    pub lag: Hist,
    /// Why the first failed request of the window failed.
    pub error: Option<String>,
}

impl RungWindow {
    /// Every request answered, p99 within the limit, and no growing
    /// backlog (the generator kept to its schedule).
    pub fn passes(&self) -> bool {
        self.failed == 0
            && !self.overloaded
            && self.lat.percentile(99.0) as f64 / 1e3 <= P99_LIMIT_US
            && self.lag.percentile(50.0) as f64 / 1e3 <= LAG_LIMIT_US
    }
}

/// The facts the rung rule looks at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungOutcome {
    /// Offered rate.
    pub rate: f64,
    /// Correct replies per second (median over windows).
    pub achieved: f64,
    /// Median latency from due time (median over windows).
    pub p50_us: f64,
    /// p99 latency from due time (median over windows).
    pub p99_us: f64,
    /// Median generator lateness (median over windows).
    pub lag_p50_us: f64,
    /// Failed operations, all windows.
    pub failed: u64,
    /// Windows accounted.
    pub windows: usize,
    /// Windows that passed.
    pub passed: usize,
}

impl RungOutcome {
    /// Summarise the windows of the rung at `rate` (medians over the
    /// windows that answered anything).
    pub fn from_windows(rate: f64, windows: &[RungWindow]) -> RungOutcome {
        let med = |f: &dyn Fn(&RungWindow) -> f64| {
            let v: Vec<f64> = windows.iter().filter(|w| w.answered > 0).map(f).collect();
            if v.is_empty() {
                0.0
            } else {
                median(&v)
            }
        };
        RungOutcome {
            rate,
            achieved: med(&|t| t.answered as f64 / t.seconds),
            p50_us: med(&|t| t.lat.percentile(50.0) as f64 / 1e3),
            p99_us: med(&|t| t.lat.percentile(99.0) as f64 / 1e3),
            lag_p50_us: med(&|t| t.lag.percentile(50.0) as f64 / 1e3),
            failed: windows.iter().map(|t| t.failed).sum(),
            windows: windows.len(),
            passed: windows.iter().filter(|t| t.passes()).count(),
        }
    }

    /// No request failed and most windows passed.
    pub fn passes(&self) -> bool {
        self.failed == 0 && 2 * self.passed > self.windows
    }
}

/// The rung `max_rate_rps` reports: the highest rung such that it and
/// every rung below it pass.
pub fn max_rate(rungs: &[RungOutcome]) -> Option<RungOutcome> {
    rungs.iter().take_while(|r| r.passes()).last().copied()
}

/// One request on its way from the sender to the receiver.
struct Sent<T> {
    idx: usize,
    off: u64,
    due: u64,
    send_start: u64,
    send_end: u64,
    /// `None` when the send was refused.
    token: Option<T>,
}

/// How the generator paces its sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pace {
    /// Open loop: each request at its scheduled due time.
    Open,
    /// Saturation: the next request as soon as fewer than
    /// `MAX_INFLIGHT` are in flight, cycling through the schedule's
    /// requests; each is due when it is sent.
    Saturate,
}

/// Drive one rung for `seconds`, accounted in `windows` equal windows
/// by due time: `send` issues request `idx` (returning a token for the
/// receiver, or `None` if refused) and `recv` turns the next token into
/// the reply (with the time it became available). The load runs without
/// pause across windows; windows only split the accounting. Spans go to
/// `spans` when it records.
#[allow(clippy::too_many_arguments)]
pub fn open_loop<T: Send>(
    sched: &[(u64, usize)],
    seconds: f64,
    windows: usize,
    pace: Pace,
    mut send: impl FnMut(usize) -> Option<T> + Send,
    mut recv: impl FnMut(T) -> Result<(Vec<f32>, u64), Fail>,
    check: impl Fn(usize, &[f32]) -> bool,
    names: Names,
    spans: &mut Spans,
) -> Vec<RungWindow> {
    // Replies seen so far; Relaxed: a progress count the sender reads to
    // bound the backlog, publishing no other data.
    let replies = AtomicU64::new(0);
    // Set by the receiver when the connection broke; Relaxed: a stop
    // request that publishes no data (the scope join synchronizes).
    let give_up = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Sent<T>>();
    let width = ((seconds * 1e9 / windows as f64) as u64).max(1);
    let slot = |off: u64| ((off / width) as usize).min(windows - 1);
    let mut out: Vec<RungWindow> = (0..windows)
        .map(|_| RungWindow {
            seconds: seconds / windows as f64,
            ..RungWindow::default()
        })
        .collect();
    let abort = std::thread::scope(|s| {
        let (replies, give_up) = (&replies, &give_up);
        let sender = s.spawn(move || {
            // Start a little ahead so the first due time is not late
            // because of thread start-up.
            let base = ns() + 1_000_000;
            let end = base + (seconds * 1e9) as u64;
            let requests: Box<dyn Iterator<Item = &(u64, usize)>> = match pace {
                Pace::Open => Box::new(sched.iter()),
                Pace::Saturate => Box::new(sched.iter().cycle()),
            };
            for (sent, &(off, idx)) in requests.enumerate() {
                let due = base + off;
                let t = ns();
                if pace == Pace::Open && due > t {
                    std::thread::sleep(Duration::from_nanos(due - t));
                }
                while sent as u64 - replies.load(Ordering::Relaxed) >= MAX_INFLIGHT {
                    if pace == Pace::Open && ns().saturating_sub(due) > ABORT_LAG.as_nanos() as u64
                    {
                        return Some(off);
                    }
                    std::thread::sleep(Duration::from_micros(50));
                }
                if give_up.load(Ordering::Relaxed) {
                    return None;
                }
                let send_start = ns();
                let (due, off) = match pace {
                    Pace::Open => (due, off),
                    Pace::Saturate if send_start >= end => return None,
                    Pace::Saturate => (send_start, send_start - base),
                };
                let token = send(idx);
                let send_end = ns();
                let rec = Sent {
                    idx,
                    off,
                    due,
                    send_start,
                    send_end,
                    token,
                };
                if tx.send(rec).is_err() {
                    return None;
                }
            }
            None
        });
        let mut broken = false;
        let mut received = 0;
        for (op, rec) in rx.iter().enumerate() {
            received += 1;
            let w = &mut out[slot(rec.off)];
            w.sent += 1;
            let token = match rec.token {
                Some(t) if !broken => t,
                // Refused, or sent after the connection broke: never
                // answered. A refused send (a write that failed or
                // timed out) ends the rung, so a dead server cannot hold
                // the generator for the rest of its schedule.
                _ => {
                    replies.fetch_add(1, Ordering::Relaxed);
                    w.error
                        .get_or_insert_with(|| "send refused or connection lost".into());
                    broken = true;
                    give_up.store(true, Ordering::Relaxed);
                    continue;
                }
            };
            let reply = recv(token);
            let end = ns();
            replies.fetch_add(1, Ordering::Relaxed);
            let (c, avail) = match reply {
                Ok(r) => r,
                Err(Fail::Reply(e)) => {
                    w.error.get_or_insert(e);
                    continue;
                }
                Err(Fail::Broken(e)) => {
                    w.error.get_or_insert(e);
                    broken = true;
                    give_up.store(true, Ordering::Relaxed);
                    continue;
                }
            };
            if !check(rec.idx, &c) {
                w.error.get_or_insert_with(|| {
                    format!("request {} disagrees with the oracle", rec.idx)
                });
                continue;
            }
            w.answered += 1;
            w.lat.add(end - rec.due);
            w.lag.add(rec.send_start.saturating_sub(rec.due));
            let op = op as u64;
            let root = spans.record(op, names.root, None, rec.due, end);
            spans.record(op, "harness.send_lag", root, rec.due, rec.send_start);
            spans.record(op, names.send, root, rec.send_start, rec.send_end);
            spans.record(op, names.wait, root, rec.send_end, avail);
            if let Some(d) = names.decode {
                spans.record(op, d, root, avail, end);
            }
        }
        let abort = sender.join().expect("generator sender thread panicked");
        if broken && pace == Pace::Open {
            // Requests the generator never sent after the break are
            // lost too.
            for &(off, _) in &sched[received..] {
                out[slot(off)].sent += 1;
            }
        }
        abort
    });
    // Everything sent but not answered correctly failed: mismatches,
    // error replies, refused sends, timeouts and missing replies.
    for w in &mut out {
        w.failed = w.sent - w.answered;
    }
    // Windows the generator could not keep up with are overloaded.
    if let Some(off) = abort {
        out[slot(off)..]
            .iter_mut()
            .for_each(|w| w.overloaded = true);
    }
    out
}

/// One client connection: a write half for the sender and a read half
/// (with the reply timeout) for the receiver.
pub struct Conn {
    /// Write half.
    pub w: TcpStream,
    /// Read half.
    pub r: TcpStream,
}

impl Conn {
    /// Connect to `server`.
    pub fn open(server: &TcpServer) -> std::io::Result<Conn> {
        let w = TcpStream::connect(server.local_addr())?;
        w.set_nodelay(true)?;
        w.set_write_timeout(Some(REPLY_TIMEOUT))?;
        let r = w.try_clone()?;
        r.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn { w, r })
    }
}

/// Read and decode the next reply frame.
pub fn read_reply(r: &mut TcpStream) -> Result<(Vec<f32>, u64), Fail> {
    match read_frame(r) {
        Ok(FrameRead::Frame(p)) => {
            let avail = ns();
            match decode_payload(&p) {
                Ok(WireMsg::ReplyOk { c, .. }) => Ok((c, avail)),
                Ok(WireMsg::ReplyErr { code, msg, .. }) => {
                    Err(Fail::Reply(format!("error reply {code}: {msg}")))
                }
                Ok(other) => Err(Fail::Broken(format!("unexpected frame {other:?}"))),
                Err(e) => Err(Fail::Broken(e)),
            }
        }
        Ok(other) => Err(Fail::Broken(format!("{other:?}"))),
        Err(e) => Err(Fail::Broken(e.to_string())),
    }
}

/// Run one rung over TCP.
pub fn tcp_rung(
    conn: &mut Conn,
    mix: &Mix,
    sched: &[(u64, usize)],
    (seconds, windows, pace): (f64, usize, Pace),
    spans: &mut Spans,
) -> Vec<RungWindow> {
    let (w, r) = (&mut conn.w, &mut conn.r);
    open_loop(
        sched,
        seconds,
        windows,
        pace,
        |idx| write_frame(w, &mix.payloads[idx]).ok(),
        |()| read_reply(r),
        |idx, c| mix.check(idx, c),
        TCP_NAMES,
        spans,
    )
}

/// Requests per shape in the warm-up: a full coalesced group for each
/// hot shape, one per operand set for each tail shape.
pub fn warm_burst(shape: usize) -> usize {
    if shape < HOT.len() {
        ServeConfig::default().max_batch
    } else {
        VARIANTS
    }
}

/// Requests the warm-up sends.
pub fn warm_requests(mix: &Mix) -> u64 {
    (0..mix.shapes.len()).map(|s| warm_burst(s) as u64).sum()
}

/// Build the server, bind it, connect, and send every shape a burst
/// (plan builds, full-size coalesced groups): the set-up the workload
/// times. Returns the number of warm-up requests that failed.
pub fn set_up(mix: &Mix) -> (TcpServer, Conn, u64) {
    let server = Server::<f32>::builder().build();
    let tcp = TcpServer::bind(server, "127.0.0.1:0").expect("bind loopback server");
    let mut conn = Conn::open(&tcp).expect("connect to loopback server");
    let mut failed = 0;
    for s in 0..mix.shapes.len() {
        let idx = |j: usize| s * VARIANTS + j % VARIANTS;
        let burst = warm_burst(s);
        let sent = (0..burst)
            .take_while(|&j| write_frame(&mut conn.w, &mix.payloads[idx(j)]).is_ok())
            .count();
        let ok = (0..sent)
            .filter(|&j| matches!(read_reply(&mut conn.r), Ok((c, _)) if mix.check(idx(j), &c)))
            .count();
        failed += (burst - ok) as u64;
    }
    (tcp, conn, failed)
}

/// The ladder for a run of `seconds`: (offered rate, windows, rung
/// seconds).
pub fn ladder(seconds: f64) -> Vec<(f64, usize, f64)> {
    RUNGS
        .iter()
        .map(|&(rate, width, share)| (rate, windows_in(seconds * share, width), seconds * share))
        .collect()
}

/// Close the connection and count replies nobody asked for (duplicates).
pub fn close_and_count_extra(conn: Conn) -> u64 {
    let Conn { w, mut r } = conn;
    let _ = w.shutdown(std::net::Shutdown::Write);
    let _ = r.set_read_timeout(Some(Duration::from_millis(200)));
    let mut extra = 0;
    while let Ok(FrameRead::Frame(_)) = read_frame(&mut r) {
        extra += 1;
    }
    extra
}

/// The untraced end-to-end run: `ROUNDS` rounds, each on a fresh
/// server and connection, each running the whole ladder and the
/// saturation phase; every rung's windows are pooled over the rounds.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mix = Mix::new(seed);
    let round_secs = seconds / ROUNDS as f64;
    let mut setup = Vec::new();
    let mut warm_failed = 0;
    let mut extra = 0;
    let mut stats = ServeStats::default();
    let mut spans = Spans::new(false);
    // Windows of each rung, then of the saturation phase, over all rounds.
    let mut phases: Vec<Vec<RungWindow>> = vec![Vec::new(); RUNGS.len() + 1];
    let mut rss = 0.0;
    for round in 0..ROUNDS {
        let mut live: Option<(TcpServer, Conn)> = None;
        for _ in 0..SETUP_REPS {
            if let Some((tcp, conn)) = live.take() {
                warm_failed += close_and_count_extra(conn);
                tcp.shutdown();
            }
            let t = now();
            let (tcp, conn, f) = set_up(&mix);
            setup.push(secs_since(t));
            warm_failed += f;
            live = Some((tcp, conn));
        }
        let (tcp, mut conn) = live.expect("at least one set-up");
        let stream = |i: usize| (round * (RUNGS.len() + 1) + i) as u64;
        for (i, (rate, windows, secs)) in ladder(round_secs).into_iter().enumerate() {
            let sched = schedule(seed, stream(i), rate, secs);
            let pace = (secs, windows, Pace::Open);
            phases[i].extend(tcp_rung(&mut conn, &mix, &sched, pace, &mut spans));
        }
        let (share, width) = SATURATION;
        let secs = round_secs * share;
        let cycle = schedule(seed, stream(RUNGS.len()), 8000.0, 1.0);
        let pace = (secs, windows_in(secs, width), Pace::Saturate);
        phases[RUNGS.len()].extend(tcp_rung(&mut conn, &mix, &cycle, pace, &mut spans));
        extra += close_and_count_extra(conn);
        let s = tcp.shutdown();
        stats.completed += s.completed;
        stats.batches += s.batches;
        stats.rejected_queue_full += s.rejected_queue_full;
        stats.rejected_shutdown += s.rejected_shutdown;
        stats.expired += s.expired;
        if round == 0 {
            rss = peak_rss_mib();
        }
    }

    let mut out = Outcome::default();
    let mut rungs = Vec::new();
    for (&(rate, _, share), wins) in RUNGS.iter().zip(&phases) {
        let o = RungOutcome::from_windows(rate, wins);
        out.line(format!(
            "rung {rate:>6.0} rps for {:.2} s, {}/{} windows passed: sent {:>6} failed {} \
             overloaded {}; medians p50 {:>8.1} us p99 {:>8.1} us lag p50 {:>6.1} us -> {}",
            seconds * share,
            o.passed,
            o.windows,
            wins.iter().map(|t| t.sent).sum::<u64>(),
            o.failed,
            wins.iter().filter(|t| t.overloaded).count(),
            o.p50_us,
            o.p99_us,
            o.lag_p50_us,
            if o.passes() { "pass" } else { "FAIL" }
        ));
        if let Some(e) = wins.iter().find_map(|w| w.error.as_ref()) {
            out.line(format!("rung {rate:.0} rps: first failure: {e}"));
        }
        rungs.push(o);
    }
    let saturated = RungOutcome::from_windows(f64::INFINITY, &phases[RUNGS.len()]);
    out.line(format!(
        "saturation for {:.2} s with {MAX_INFLIGHT} in flight: {:.1} answered/s \
         (median window), p50 {:.1} us, failed {}",
        seconds * SATURATION.0,
        saturated.achieved,
        saturated.p50_us,
        saturated.failed
    ));
    let best = max_rate(&rungs);
    let all = || phases.iter().flatten();
    out.count(
        warm_requests(&mix) * (SETUP_REPS * ROUNDS) as u64 + all().map(|t| t.sent).sum::<u64>(),
        warm_failed + all().map(|t| t.failed).sum::<u64>() + extra,
    );
    out.line(format!(
        "serve_tcp: {} hot + {TAIL} tail shapes, open loop Poisson, 1 connection, 2 generator \
         threads, {ROUNDS} rounds on fresh servers; p99 limit {P99_LIMIT_US} us, median lag \
         limit {LAG_LIMIT_US} us",
        HOT.len()
    ));
    out.line(format!(
        "serve stats: completed {} batches {} coalescing {:.2} rejected {} expired {}; \
         extra replies {extra}",
        stats.completed,
        stats.batches,
        stats.coalescing_factor(),
        stats.rejected_queue_full + stats.rejected_shutdown,
        stats.expired
    ));
    out.line(format!(
        "max_rate_rps {:.1} 1/s (offered {} rps{}; the highest rung that passes with every \
         rung below it)",
        best.map_or(0.0, |b| b.achieved),
        best.map_or(0.0, |b| b.rate),
        if best.is_some_and(|b| b.rate == RUNGS[RUNGS.len() - 1].0) {
            ", top rung: the ladder saturated"
        } else {
            ""
        }
    ));
    let mut low = Windows::default();
    phases[0].iter().for_each(|w| low.push(&w.lat, w.seconds));
    let answered = all().map(|t| t.answered).sum();
    crate::e2e(
        &mut out,
        &setup,
        &low,
        Stat::Median,
        saturated.achieved,
        answered,
        rss,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rung(rate: f64, passed: usize, windows: usize) -> RungOutcome {
        RungOutcome {
            rate,
            achieved: rate,
            p50_us: 500.0,
            p99_us: 1000.0,
            lag_p50_us: 50.0,
            failed: 0,
            windows,
            passed,
        }
    }

    #[test]
    fn max_rate_is_the_top_of_the_passing_prefix() {
        let mut rungs = vec![
            rung(1000.0, 3, 3),
            rung(2000.0, 2, 3),
            rung(3000.0, 1, 3),
            rung(4000.0, 3, 3),
        ];
        // The third rung fails; a later pass does not count.
        assert_eq!(max_rate(&rungs).unwrap().rate, 2000.0);
        // A failed request fails the rung however many windows passed.
        rungs[1].failed = 1;
        assert_eq!(max_rate(&rungs).unwrap().rate, 1000.0);
        // Nothing passes when the lowest rung fails.
        rungs[0].passed = 1;
        assert_eq!(max_rate(&rungs), None);
        // Half is not most.
        assert!(!rung(1.0, 2, 4).passes());
        assert!(rung(1.0, 3, 4).passes());
    }

    /// A window whose 100 replies all took `lat_us`, sent `lag_us` late.
    fn window(lat_us: u64, lag_us: u64) -> RungWindow {
        let mut t = RungWindow {
            seconds: 1.0,
            sent: 100,
            answered: 100,
            ..RungWindow::default()
        };
        (0..100).for_each(|_| t.lat.add(lat_us * 1000));
        t.lag.add(lag_us * 1000);
        t
    }

    #[test]
    fn a_window_passes_on_p99_lag_and_answers() {
        let limit = P99_LIMIT_US as u64;
        assert!(window(limit, 10).passes());
        assert!(!window(limit + 1, 10).passes());
        // A generator falling behind is a growing backlog.
        assert!(!window(1000, LAG_LIMIT_US as u64 + 1).passes());
        let mut t = window(1000, 10);
        t.overloaded = true;
        assert!(!t.passes());
        let mut t = window(1000, 10);
        t.failed = 1;
        assert!(!t.passes());
    }

    #[test]
    fn one_stalled_window_does_not_fail_a_rung_two_do() {
        let ok = || window(1000, 10);
        let stalled = || window(50_000, 10);
        let one = RungOutcome::from_windows(8000.0, &[ok(), stalled(), ok()]);
        assert!(one.passes());
        assert_eq!(one.p99_us, 1000.0);
        let two = RungOutcome::from_windows(8000.0, &[stalled(), ok(), stalled()]);
        assert!(two.p99_us == 50_000.0 && !two.passes());
        // A single failed request fails the rung.
        let mut bad = ok();
        bad.failed = 1;
        assert!(!RungOutcome::from_windows(8000.0, &[ok(), bad, ok()]).passes());
    }

    #[test]
    fn schedule_and_mix_follow_the_seed() {
        assert_eq!(schedule(9, 0, 2000.0, 0.5), schedule(9, 0, 2000.0, 0.5));
        assert_ne!(schedule(9, 0, 2000.0, 0.5), schedule(10, 0, 2000.0, 0.5));
        assert_eq!(Mix::new(9).payloads, Mix::new(9).payloads);
        assert_ne!(Mix::new(9).payloads, Mix::new(10).payloads);
        assert_eq!(Mix::new(9).shapes.len(), HOT.len() + TAIL);
        let s = schedule(9, 0, 2000.0, 2.0);
        // About rate × seconds arrivals, about 80% of them hot.
        assert!((3600..4400).contains(&s.len()), "{}", s.len());
        let hot = s.iter().filter(|(_, i)| i / VARIANTS < HOT.len()).count();
        let share = hot as f64 / s.len() as f64;
        assert!((0.76..0.84).contains(&share), "{share}");
        assert!(s.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// A stalled responder must raise the latency of the requests due
    /// during the stall, even though they were sent on time: latency
    /// runs from the due time, not from when the reply was awaited.
    #[test]
    fn stall_raises_latency_of_later_requests() {
        // 40 requests 1 ms apart, accounted in 4 windows of 10 ms.
        let sched: Vec<(u64, usize)> = (0..40).map(|i| (i * 1_000_000, i as usize)).collect();
        let stall = Duration::from_millis(30);
        let (tx, rx) = mpsc::channel::<usize>();
        let mut seen = 0;
        let mut spans = Spans::new(true);
        let w = open_loop(
            &sched,
            0.04,
            4,
            Pace::Open,
            |idx| {
                tx.send(idx).unwrap();
                Some(idx)
            },
            |idx| {
                let got = rx.recv().unwrap();
                assert_eq!(got, idx);
                seen += 1;
                // The responder stalls once, on the 10th request.
                if seen == 10 {
                    std::thread::sleep(stall);
                }
                Ok((vec![idx as f32], ns()))
            },
            |idx, c| c == [idx as f32],
            TCP_NAMES,
            &mut spans,
        );
        assert!(w
            .iter()
            .all(|w| (w.sent, w.answered, w.failed) == (10, 10, 0)));
        // Requests 10..=19 were due inside the 30 ms stall and were sent
        // on time, yet every one of them waited: latency runs from the
        // due time, so the second window's median exceeds 10 ms.
        assert!(
            w[1].lat.percentile(50.0) > 10_000_000,
            "{}",
            w[1].lat.percentile(50.0)
        );
        assert!(w[1].lag.percentile(100.0) < 5_000_000);
        // One root span per request with four children.
        assert_eq!(spans.len(), 40 * 5);
    }

    #[test]
    fn missing_replies_count_as_failures() {
        let sched: Vec<(u64, usize)> = (0..5).map(|i| (i * 100_000, 0)).collect();
        let mut n = 0;
        let w = open_loop(
            &sched,
            1.0,
            1,
            Pace::Open,
            |_| Some(()),
            |()| {
                n += 1;
                match n {
                    1 => Ok((vec![1.0], ns())),
                    2 => Ok((vec![2.0], ns())),
                    3 => Err(Fail::Reply("queue full".into())),
                    _ => Err(Fail::Broken("timeout".into())),
                }
            },
            |_, c| c == [1.0],
            TCP_NAMES,
            &mut Spans::new(false),
        );
        // One good reply; a wrong one, an error reply and two lost.
        assert_eq!((w[0].sent, w[0].answered, w[0].failed), (5, 1, 4));
        assert!(!RungOutcome::from_windows(1.0, &w).passes());
    }

    #[test]
    fn loopback_rung_is_correct() {
        let mix = Mix::new(2);
        let (tcp, mut conn, warm_failed) = set_up(&mix);
        assert_eq!(warm_failed, 0);
        let sched = schedule(2, 0, 2000.0, 0.2);
        let w = tcp_rung(
            &mut conn,
            &mix,
            &sched,
            (0.2, 2, Pace::Open),
            &mut Spans::new(false),
        );
        assert_eq!(w.iter().map(|w| w.failed).sum::<u64>(), 0);
        assert_eq!(
            w.iter().map(|w| w.answered).sum::<u64>(),
            sched.len() as u64
        );
        // Saturation keeps the connection busy for its whole length.
        let w = tcp_rung(
            &mut conn,
            &mix,
            &sched,
            (0.2, 2, Pace::Saturate),
            &mut Spans::new(false),
        );
        assert_eq!(w.iter().map(|w| w.failed).sum::<u64>(), 0);
        assert!(w
            .iter()
            .all(|w| w.answered > 0 && w.lag.percentile(100.0) == 0));
        assert_eq!(close_and_count_extra(conn), 0);
        tcp.shutdown();
    }
}
