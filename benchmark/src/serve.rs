//! `serve-open`: an open loop against an in-process `tpserve` with a
//! persistent result store.
//!
//! Hits arrive as a seeded Poisson stream and repeat a fixed key set
//! that set-up warmed, so the server answers them synchronously from
//! its response cache. Misses arrive as a steady, evenly spaced stream
//! with a seeded phase and carry fresh trace seeds, so each one is
//! simulated and written to the `ResultStore`; their rate keeps the
//! worker a third busy, so the queue does not grow.
//!
//! One generator thread writes every request on one connection when it
//! falls due, and polls queued tickets at a fixed cadence; it never
//! waits for an answer, so a slow server cannot slow the arrivals. A
//! reader thread timestamps the answers. Latency is measured from each
//! request's due time.
//!
//! The arrivals are cut into equal segments, and each segment is served
//! by a freshly set-up server, so the set-ups (`setup_s`, `sweep_s`)
//! spread evenly over the run. The host's speed changes by up to 1.8x
//! in phases of seconds: set-ups spread over the run average over the
//! phases, where set-ups at its two ends would sample two of them.
//!
//! The server runs one worker fewer than the host has cores (at least
//! one), leaving a core to its event loop and to the load generator,
//! which share the machine with it. With every core simulating, the
//! hit p99 measured how often the scheduler made the event loop wait,
//! and moved by 45% between runs; with Poisson misses, the miss p90
//! measured how often two misses collided, and moved by a third. The
//! generator sleeps until the next due time: when it spun through the
//! last 300 µs instead, it took the event loop's core often enough to
//! double the hit p99 in some runs.

use crate::layers::{self, Spans, TimedJob};
use crate::metrics::{median, tail, Metrics};
use crate::sweep::seeded;
use crate::{attribution, Outcome};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tpharness::wire::{fnv1a, Value};
use tpharness::{derive_seed, run_single, Experiment, L1Kind, L2Kind, SweepJob, TemporalKind};
use tpserve::{Client, Server, ServerConfig};
use tptrace::rng::SmallRng;
use tptrace::{workloads, Scale, Workload};

/// The fixed key set the hit stream repeats (trace seeds come from the
/// benchmark seed): cheap-to-warm workloads under each temporal kind.
/// Warming all of them takes about a second.
const HIT_KEYS: [(&str, TemporalKind); 16] = [
    ("spec17.gcc", TemporalKind::None),
    ("spec17.gcc", TemporalKind::Triangel),
    ("spec17.gcc", TemporalKind::Streamline),
    ("spec06.sphinx3", TemporalKind::None),
    ("spec06.sphinx3", TemporalKind::Triangel),
    ("spec06.sphinx3", TemporalKind::Streamline),
    ("spec06.mcf", TemporalKind::None),
    ("spec06.mcf", TemporalKind::Triangel),
    ("spec06.mcf", TemporalKind::Streamline),
    ("spec06.xalancbmk", TemporalKind::None),
    ("spec06.xalancbmk", TemporalKind::Triangel),
    ("spec17.mcf", TemporalKind::None),
    ("spec17.mcf", TemporalKind::Triangel),
    ("spec17.xalancbmk", TemporalKind::None),
    ("spec06.soplex", TemporalKind::None),
    ("gap.sssp", TemporalKind::None),
];
/// Hit arrivals per second.
const HIT_RATE: f64 = 200.0;
/// Fresh-seed misses simulate this workload under stride+IPCP+Streamline,
/// so the regular L2 prefetcher is measured on this workload too. One
/// takes about 90 ms of a worker on a 2-core Xeon at test scale, trace
/// generation and the store write included.
const MISS_WORKLOAD: &str = "spec17.gcc";
/// Miss arrivals per second: about a third of one worker's capacity.
const MISS_RATE: f64 = 3.5;
/// How often queued tickets are polled.
const POLL_CADENCE: Duration = Duration::from_millis(2);
/// Segments of the open loop per run, each behind a server set-up of its
/// own; `setup_s` is the median of the set-ups and `sweep_s` the mean of
/// their warm-up sweeps.
const SEGMENTS: usize = 8;
/// A miss not done this long after it was due counts as expired.
const MISS_DEADLINE_MS: u64 = 20_000;
/// The run is invalid when the generator's p99 lag exceeds this.
const MAX_GEN_LAG_MS: f64 = 50.0;
/// Served reports of each stream checked against a direct run.
const VERIFY_PER_STREAM: usize = 2;

/// One request: a seeded workload under stride plus an L2 and a temporal
/// prefetcher (or none).
#[derive(Clone)]
struct Key {
    workload: Workload,
    l2: L2Kind,
    temporal: TemporalKind,
}

impl Key {
    fn experiment(&self) -> Experiment {
        Experiment::new(Scale::Test)
            .l1(L1Kind::Stride)
            .l2(self.l2)
            .temporal(self.temporal)
    }

    fn payload(&self, deadline_ms: Option<u64>) -> Value {
        let s = |v: &str| Value::Str(v.to_string());
        let mut fields = vec![
            ("workload", s(self.workload.name)),
            ("scale", s("test")),
            ("l1", s("stride")),
            ("l2", s(self.l2.name())),
            ("temporal", s(self.temporal.name())),
            ("seed", Value::u64(self.workload.seed)),
            ("audit", Value::Bool(true)),
        ];
        if let Some(ms) = deadline_ms {
            fields.push(("deadline_ms", Value::u64(ms)));
        }
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Hit(usize),
    Miss(usize),
}

struct Arrival {
    due: Duration,
    kind: Kind,
}

/// The workload's inputs, all drawn from the seed.
struct Plan {
    hit_keys: Vec<Key>,
    miss_keys: Vec<Key>,
    arrivals: Vec<Arrival>,
}

/// Arrival times of a Poisson process of `rate` over `window` seconds,
/// conditioned on its expected count: that many uniform times, sorted.
/// Fixing the count keeps the offered load equal across seeds.
fn poisson(rng: &mut SmallRng, rate: f64, window: f64) -> Vec<Duration> {
    let n = (rate * window).round() as usize;
    let mut out: Vec<Duration> = (0..n)
        .map(|_| Duration::from_secs_f64(rng.gen_f64() * window))
        .collect();
    out.sort();
    out
}

/// Evenly spaced arrivals at `rate` over `window` seconds, starting
/// at a seeded phase within the first interval.
fn steady(rng: &mut SmallRng, rate: f64, window: f64) -> Vec<Duration> {
    let n = (rate * window).round() as usize;
    let phase = rng.gen_f64() / rate;
    (0..n)
        .map(|i| Duration::from_secs_f64(phase + i as f64 / rate))
        .collect()
}

fn plan(seed: u64, window: f64) -> Plan {
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, "serve-open"));
    let key = |name: &str, l2, temporal, stream: String| Key {
        workload: seeded(
            &workloads::by_name(name).expect("benchmark keys name registered workloads"),
            derive_seed(seed, &stream),
        ),
        l2,
        temporal,
    };
    let hit_keys: Vec<Key> = HIT_KEYS
        .iter()
        .enumerate()
        .map(|(i, &(name, temporal))| key(name, L2Kind::None, temporal, format!("hit{i}")))
        .collect();

    let mut arrivals: Vec<Arrival> = poisson(&mut rng, HIT_RATE, window)
        .into_iter()
        .map(|due| Arrival {
            due,
            kind: Kind::Hit(rng.gen_range(0..HIT_KEYS.len())),
        })
        .collect();
    let miss_due = steady(&mut rng, MISS_RATE, window);
    let miss_keys: Vec<Key> = (0..miss_due.len())
        .map(|i| {
            key(
                MISS_WORKLOAD,
                L2Kind::Ipcp,
                TemporalKind::Streamline,
                format!("miss{i}"),
            )
        })
        .collect();
    arrivals.extend(miss_due.into_iter().enumerate().map(|(i, due)| Arrival {
        due,
        kind: Kind::Miss(i),
    }));
    arrivals.sort_by_key(|a| a.due);
    Plan {
        hit_keys,
        miss_keys,
        arrivals,
    }
}

fn status(v: &Value) -> &str {
    v.get("status").and_then(Value::as_str).unwrap_or("")
}

/// Digest of a `done` response's report, in its canonical encoding.
fn report_digest(resp: &Value) -> Option<u64> {
    Some(fnv1a(resp.get("report")?.encode().as_bytes()))
}

/// A server running on a thread of this process.
struct Running {
    addr: String,
    thread: JoinHandle<std::io::Result<()>>,
    dir: PathBuf,
}

/// Starts a server with an empty store in `dir`, listening on a Unix
/// socket there. (Over TCP, every `Client` round trip would also pay
/// Nagle's algorithm against delayed ACKs: `Client::request` writes the
/// line and its newline separately and the sockets leave `TCP_NODELAY`
/// off, which adds up to 40 ms per request on Linux.)
fn start(workers: usize, dir: PathBuf) -> Result<Running, String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cfg = ServerConfig {
        workers,
        store_dir: Some(dir.join("store")),
        ..ServerConfig::default()
    };
    let spec = format!("unix:{}", dir.join("sock").display());
    let server = Server::bind(&spec, cfg).map_err(|e| format!("bind {spec}: {e}"))?;
    let addr = server.addr().to_string();
    let thread = std::thread::spawn(move || server.run_until(&AtomicBool::new(false)));
    Ok(Running { addr, thread, dir })
}

/// Drains and stops the server, waits for its thread, removes its files.
fn stop(running: Running, client: Client) -> Result<(), String> {
    let mut client = client;
    let ack = client.shutdown().map_err(|e| format!("shutdown: {e}"));
    drop(client);
    let joined = running.thread.join();
    let _ = std::fs::remove_dir_all(&running.dir);
    ack?;
    match joined {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(format!("server loop: {e}")),
        Err(_) => Err("server thread panicked".into()),
    }
}

/// Returns the heap's freed pages to the kernel, as the exit of a
/// server process would.
fn release_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only releases free heap pages.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Submits every hit key (pipelined) and polls until all are done.
/// Returns each key's report digest.
fn warm(client: &mut Client, keys: &[Key]) -> Result<Vec<u64>, String> {
    let payloads: Vec<Value> = keys.iter().map(|k| k.payload(None)).collect();
    let io = |e: std::io::Error| format!("warm-up: {e}");
    let acks = client.pipeline(&payloads).map_err(io)?;
    let mut out = Vec::with_capacity(keys.len());
    for ack in acks {
        let mut resp = ack;
        while matches!(status(&resp), "queued" | "running") {
            std::thread::sleep(POLL_CADENCE);
            let ticket = resp
                .get("ticket")
                .and_then(Value::as_u64)
                .ok_or("no ticket")?;
            resp = client.poll(ticket).map_err(io)?;
        }
        if status(&resp) != "done" {
            return Err(format!("warm-up request ended {}", resp.encode()));
        }
        out.push(report_digest(&resp).ok_or("done without a report")?);
    }
    Ok(out)
}

/// What one response line answers.
enum Expect {
    Submit { arrival: usize, sent: Instant },
    Poll { ticket: u64 },
}

/// A queued miss being polled.
struct Pending {
    miss: usize,
    due: Instant,
    sent: Instant,
    seen_running: Option<Instant>,
    poll_in_flight: bool,
}

/// What the open loop observed.
#[derive(Default)]
struct Window {
    hit_us: Vec<f64>,
    miss_ms: Vec<f64>,
    ack_us: Vec<f64>,
    lag_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    /// Gaps between consecutive poll rounds while tickets were queued.
    poll_gap_ms: Vec<f64>,
    polls: u64,
    hits: u64,
    attempted: u64,
    failed: u64,
    /// Served miss reports kept for the direct-run check.
    served_misses: Vec<(usize, u64)>,
    problems: Vec<String>,
}

impl Window {
    /// Adds another segment's observations to these.
    fn absorb(&mut self, o: Window) {
        self.hit_us.extend(o.hit_us);
        self.miss_ms.extend(o.miss_ms);
        self.ack_us.extend(o.ack_us);
        self.lag_ms.extend(o.lag_ms);
        self.queue_wait_ms.extend(o.queue_wait_ms);
        self.poll_gap_ms.extend(o.poll_gap_ms);
        self.polls += o.polls;
        self.hits += o.hits;
        self.attempted += o.attempted;
        self.failed += o.failed;
        let room = VERIFY_PER_STREAM.saturating_sub(self.served_misses.len());
        self.served_misses
            .extend(o.served_misses.into_iter().take(room));
        self.problems.extend(o.problems);
    }
}

/// State the generator and the response reader share.
#[derive(Default)]
struct Shared {
    /// Requests written and not yet answered, in order: the server
    /// answers each connection's requests in request order.
    expect: VecDeque<Expect>,
    pending: HashMap<u64, Pending>,
    w: Window,
    closed: bool,
}

/// The arrivals one server serves, and when they fall due.
struct Segment {
    arrivals: std::ops::Range<usize>,
    /// When the segment's clock started.
    start: Instant,
    /// Where the segment starts in the plan's window.
    base: Duration,
}

impl Segment {
    /// When arrival `i` falls due.
    fn due(&self, plan: &Plan, i: usize) -> Instant {
        self.start + plan.arrivals[i].due.saturating_sub(self.base)
    }
}

/// Cuts the plan's window into `n` equal segments, returning each one's
/// arrivals and start within the window.
fn segments(plan: &Plan, window: f64, n: usize) -> Vec<(std::ops::Range<usize>, Duration)> {
    let mut from = 0;
    (1..=n)
        .map(|k| {
            let base = Duration::from_secs_f64(window * (k - 1) as f64 / n as f64);
            let to = if k == n {
                plan.arrivals.len()
            } else {
                let cut = Duration::from_secs_f64(window * k as f64 / n as f64);
                plan.arrivals.partition_point(|a| a.due < cut)
            };
            let seg = (from..to, base);
            from = to;
            seg
        })
        .collect()
}

/// Handles one response line, read at `at`.
fn on_response(s: &mut Shared, plan: &Plan, warm: &[u64], seg: &Segment, line: &str, at: Instant) {
    let Some(expect) = s.expect.pop_front() else {
        s.w.problems
            .push(format!("unexpected response {line:.120}"));
        return;
    };
    let resp = match tpharness::wire::parse(line) {
        Ok(v) => v,
        Err(e) => {
            s.w.failed += 1;
            s.w.problems.push(format!("unparseable response: {e}"));
            return;
        }
    };
    match expect {
        Expect::Submit { arrival, sent } => {
            let due = seg.due(plan, arrival);
            s.w.ack_us.push((at - sent).as_secs_f64() * 1e6);
            match (plan.arrivals[arrival].kind, status(&resp)) {
                (Kind::Hit(k), "done") => {
                    s.w.hits += 1;
                    s.w.hit_us.push((at - due).as_secs_f64() * 1e6);
                    if report_digest(&resp) != Some(warm[k]) {
                        s.w.failed += 1;
                        s.w.problems
                            .push(format!("hit key {k}: served report changed"));
                    }
                }
                (Kind::Miss(miss), "queued") => match resp.get("ticket").and_then(Value::as_u64) {
                    Some(ticket) => {
                        let p = Pending {
                            miss,
                            due,
                            sent,
                            seen_running: None,
                            poll_in_flight: false,
                        };
                        s.pending.insert(ticket, p);
                    }
                    None => {
                        s.w.failed += 1;
                        s.w.problems.push("queued response without a ticket".into());
                    }
                },
                // Refused, errored, or a hit that had to queue.
                _ => s.w.failed += 1,
            }
        }
        Expect::Poll { ticket } => {
            s.w.polls += 1;
            let Some(p) = s.pending.get_mut(&ticket) else {
                s.w.problems
                    .push(format!("poll answer for unknown ticket {ticket}"));
                return;
            };
            p.poll_in_flight = false;
            match status(&resp) {
                "queued" => {}
                "running" => {
                    p.seen_running.get_or_insert(at);
                }
                "done" => {
                    let p = s.pending.remove(&ticket).expect("present");
                    let started = p.seen_running.unwrap_or(at);
                    s.w.queue_wait_ms
                        .push((started - p.sent).as_secs_f64() * 1e3);
                    s.w.miss_ms.push((at - p.due).as_secs_f64() * 1e3);
                    if s.w.served_misses.len() < VERIFY_PER_STREAM {
                        if let Some(d) = report_digest(&resp) {
                            s.w.served_misses.push((p.miss, d));
                        }
                    }
                }
                // deadline-exceeded, failed (audit) or error.
                _ => {
                    s.pending.remove(&ticket);
                    s.w.failed += 1;
                }
            }
        }
    }
}

/// Reads response lines until the connection closes.
fn read_responses(
    stream: UnixStream,
    shared: &Mutex<Shared>,
    plan: &Plan,
    warm: &[u64],
    seg: &Segment,
) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader.read_line(&mut line);
        let at = Instant::now();
        let mut s = shared.lock().expect("open-loop state lock");
        match read {
            Ok(n) if n > 0 && line.ends_with('\n') => {
                on_response(&mut s, plan, warm, seg, line.trim_end(), at)
            }
            _ => {
                s.closed = true;
                return;
            }
        }
    }
}

/// Drives the arrivals over a connection of its own: one generator
/// thread writes each request when it falls due and polls queued
/// tickets at the cadence, never waiting for an answer; a reader thread
/// takes the answers as they come. (`Client` is request/response, so
/// it would turn this into a closed loop.)
fn open_loop(
    addr: &str,
    plan: &Plan,
    arrivals: std::ops::Range<usize>,
    base: Duration,
    warm: &[u64],
) -> Result<Window, String> {
    let path = addr
        .strip_prefix("unix:")
        .ok_or("open loop needs a unix socket")?;
    let io = |e: std::io::Error| format!("open loop: {e}");
    let mut stream = UnixStream::connect(path).map_err(io)?;
    let lines: Vec<String> = plan.arrivals[arrivals.clone()]
        .iter()
        .map(|a| {
            let payload = match a.kind {
                Kind::Hit(k) => plan.hit_keys[k].payload(None),
                Kind::Miss(m) => plan.miss_keys[m].payload(Some(MISS_DEADLINE_MS)),
            };
            format!("SUBMIT {}\n", payload.encode())
        })
        .collect();
    let shared = Mutex::new(Shared::default());
    let attempted = arrivals.len() as u64;
    let seg = Segment {
        arrivals,
        start: Instant::now(),
        base,
    };
    let reader = stream.try_clone().map_err(io)?;

    let sent = std::thread::scope(|scope| -> Result<(), String> {
        scope.spawn(|| read_responses(reader, &shared, plan, warm, &seg));
        let result = generate(&mut stream, &shared, plan, &lines, &seg);
        // Unblocks the reader whether or not generation succeeded.
        let _ = stream.shutdown(std::net::Shutdown::Both);
        result
    });
    let mut s = shared
        .into_inner()
        .map_err(|_| "open-loop state poisoned")?;
    sent?;
    // Never reached a terminal state: expired.
    s.w.failed += s.pending.len() as u64;
    s.w.attempted = attempted;
    Ok(s.w)
}

/// The generator: writes the segment's requests at their due times
/// (`lines` holds them in order) and polls at the cadence until every
/// miss is answered or has expired.
fn generate(
    stream: &mut UnixStream,
    shared: &Mutex<Shared>,
    plan: &Plan,
    lines: &[String],
    seg: &Segment,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("open loop: {e}");
    let lock = || {
        shared
            .lock()
            .map_err(|_| "open-loop state poisoned".to_string())
    };
    let last = seg.arrivals.end;
    let end = if seg.arrivals.is_empty() {
        seg.start
    } else {
        seg.due(plan, last - 1)
    };
    let mut next = seg.arrivals.start;
    let mut next_poll = seg.start;
    let mut last_round: Option<Instant> = None;
    let mut out = String::new();
    loop {
        let now = Instant::now();
        out.clear();
        let from = next;
        while next < last && seg.due(plan, next) <= now {
            next += 1;
        }
        let mut s = lock()?;
        for i in from..next {
            s.expect.push_back(Expect::Submit {
                arrival: i,
                sent: now,
            });
            let due = seg.due(plan, i);
            s.w.lag_ms
                .push(now.saturating_duration_since(due).as_secs_f64() * 1e3);
            out.push_str(&lines[i - seg.arrivals.start]);
        }
        if !s.pending.is_empty() && now >= next_poll {
            if let Some(prev) = last_round {
                s.w.poll_gap_ms.push((now - prev).as_secs_f64() * 1e3);
            }
            last_round = Some(now);
            let Shared {
                expect, pending, ..
            } = &mut *s;
            for (&ticket, p) in pending.iter_mut().filter(|(_, p)| !p.poll_in_flight) {
                p.poll_in_flight = true;
                expect.push_back(Expect::Poll { ticket });
                out.push_str(&format!("POLL {ticket}\n"));
            }
            next_poll += POLL_CADENCE;
            if next_poll < now {
                next_poll = now + POLL_CADENCE;
            }
        } else if s.pending.is_empty() {
            last_round = None;
        }
        let done = next == last && s.pending.is_empty() && s.expect.is_empty();
        let closed = s.closed;
        let polling = !s.pending.is_empty();
        drop(s);
        if !out.is_empty() {
            stream.write_all(out.as_bytes()).map_err(io)?;
        }
        if done {
            return Ok(());
        }
        if closed {
            return Err("server closed the open-loop connection".into());
        }
        if now > end + Duration::from_millis(MISS_DEADLINE_MS) {
            return Ok(());
        }
        // With no ticket to poll, the poll clock is stale and must not
        // set the wake-up: the generator would spin on a core the
        // server's worker and event loop need.
        let mut wake = if polling {
            next_poll
        } else {
            now + POLL_CADENCE
        };
        if next < last {
            wake = wake.min(seg.due(plan, next));
        }
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
}

fn stat(stats: &Value, path: &[&str]) -> f64 {
    let mut v = stats;
    for p in path {
        match v.get(p) {
            Some(x) => v = x,
            None => return 0.0,
        }
    }
    v.as_u64().map_or(0.0, |n| n as f64)
}

/// Runs `serve-open` for `seconds` and fills `out`.
pub fn run(seed: u64, seconds: f64, trace: bool, workers: usize, out: &mut Outcome) {
    if let Err(e) = run_inner(seed, seconds, trace, workers, out) {
        out.problems.push(e);
    }
}

fn run_inner(
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
    out: &mut Outcome,
) -> Result<(), String> {
    let plan = plan(seed, seconds);
    let workers = workers.saturating_sub(1).max(1);
    let scratch = PathBuf::from(format!(".bench_tmp/serve-{}", std::process::id()));
    let pool = tptrace::pool::global();
    let pool_before = pool.stats();

    // Each segment: start a fresh server, warm the hit keys (the
    // set-up), serve the segment's arrivals, read STATS, stop. The
    // emptied pool makes every set-up generate its traces; the trim
    // keeps earlier servers' freed pages out of `peak_rss_mb`.
    let mut setup_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut w = Window::default();
    let mut hit_p50_us = Vec::new();
    let mut miss_p50_ms = Vec::new();
    let mut stats = Vec::new();
    let mut first: Option<Vec<u64>> = None;
    for (i, (arrivals, base)) in segments(&plan, seconds, SEGMENTS).into_iter().enumerate() {
        pool.clear();
        release_freed_memory();
        let t = Instant::now();
        let running = start(workers, scratch.join(format!("server{i}")))?;
        let mut client = Client::connect(&running.addr).map_err(|e| format!("connect: {e}"))?;
        let tw = Instant::now();
        let digests = warm(&mut client, &plan.hit_keys)?;
        warm_s.push(tw.elapsed().as_secs_f64());
        setup_s.push(t.elapsed().as_secs_f64());
        out.attempted += plan.hit_keys.len() as u64;
        let warm = first.get_or_insert_with(|| digests.clone());
        if digests != *warm {
            out.problems
                .push("warm-up reports differ between set-ups".into());
        }

        let seg = open_loop(&running.addr, &plan, arrivals, base, warm)?;
        hit_p50_us.extend(median(&seg.hit_us));
        miss_p50_ms.extend(median(&seg.miss_ms));
        w.absorb(seg);
        let st = client.stats().map_err(|e| format!("stats: {e}"))?;
        stats.push(st.get("stats").cloned().unwrap_or(Value::Null));
        stop(running, client)?;
    }
    let _ = std::fs::remove_dir_all(&scratch);
    pool.clear();
    release_freed_memory();
    let warm = first.expect("at least one segment");
    out.problems.append(&mut w.problems);
    out.attempted += w.attempted;
    out.failed += w.failed;

    let lag_p99 = tail(&w.lag_ms, 99.0).map_or(0.0, |t| t.value);
    if lag_p99 > MAX_GEN_LAG_MS {
        out.problems.push(format!(
            "run invalid: generator fell behind (p99 lag {lag_p99:.1} ms > {MAX_GEN_LAG_MS} ms)"
        ));
    }

    // Served reports must equal direct runs, for a sample of each stream.
    let mut checks: Vec<(Key, u64)> = (0..VERIFY_PER_STREAM.min(plan.hit_keys.len()))
        .map(|k| (plan.hit_keys[k].clone(), warm[k]))
        .collect();
    checks.extend(
        w.served_misses
            .iter()
            .map(|&(m, d)| (plan.miss_keys[m].clone(), d)),
    );
    let spans = Spans::default();
    let root = spans.id();
    let root_start = Instant::now();
    let mut direct_s = Vec::new();
    let mut timed: Vec<TimedJob> = Vec::new();
    for (key, served) in &checks {
        let t = Instant::now();
        let report = run_single(&key.workload, &key.experiment());
        direct_s.push(t.elapsed().as_secs_f64());
        out.attempted += 1;
        if layers::digest(&report) != *served {
            out.failed += 1;
            out.problems.push(format!(
                "served report for {} seed {} differs from a direct run",
                key.workload.name, key.workload.seed
            ));
        }
        if trace {
            let job = SweepJob::single(key.workload.clone(), key.experiment());
            let tj = layers::run_timed(&job, &spans, root);
            if tj.digest != *served || !tj.report.audit.passed() {
                out.problems
                    .push(format!("traced run of {} disagrees", key.workload.name));
            }
            timed.push(tj);
        }
    }
    spans.record(root, None, "serve-open", root_start, Instant::now(), 0);

    let m: &mut Metrics = &mut out.metrics;
    if !trace {
        m.put_median("setup_s", &setup_s, "s");
        m.put_mean("sweep_s", &warm_s, "s");
        // The medians of the segments, averaged, weigh the host's speed
        // phases by the time the run spent in each; the median of the
        // pooled samples jumps to whichever phase held more of them.
        m.put_mean_of_medians("hit_p50_us", &hit_p50_us, w.hit_us.len(), "us");
        m.put_tail("hit_p99_us", &w.hit_us, 99.0, "us");
        m.put_mean_of_medians("miss_p50_ms", &miss_p50_ms, w.miss_ms.len(), "ms");
        m.put_tail("miss_p90_ms", &w.miss_ms, 90.0, "ms");
        return Ok(());
    }

    let traced_s: Vec<f64> = timed.iter().map(|j| j.job_ns as f64 / 1e9).collect();
    let overhead = traced_s.iter().sum::<f64>() / direct_s.iter().sum::<f64>().max(1e-9);
    m.put_noted(
        "trace_overhead_pct",
        (overhead - 1.0) * 100.0,
        "%",
        format!(
            "wrapped vs plain direct runs of {} served keys",
            timed.len()
        ),
    );
    let after = pool.stats();
    m.put(
        "tptrace.pool_hits",
        (after.hits - pool_before.hits) as f64,
        "count",
    );
    m.put(
        "tptrace.pool_generations",
        (after.generations - pool_before.generations) as f64,
        "count",
    );
    m.put(
        "tptrace.resident_mb",
        after.resident_bytes as f64 / (1 << 20) as f64,
        "MiB",
    );
    attribution::emit(&[timed], &spans.snapshot(), m);

    m.put_median("tpserve.submit_ack_us.p50", &w.ack_us, "us");
    m.put_tail("tpserve.submit_ack_us.p99", &w.ack_us, 99.0, "us");
    m.put_median("tpserve.queue_wait_ms", &w.queue_wait_ms, "ms");
    // Each segment's server reports its own STATS: counters add up,
    // service-time medians are averaged.
    let summed = |path: &[&str]| stats.iter().map(|st| stat(st, path)).sum::<f64>();
    let averaged = |path: &[&str]| summed(path) / stats.len().max(1) as f64;
    m.put(
        "tpserve.service_ms",
        averaged(&["service_time_us", "simulated", "p50"]) / 1e3,
        "ms",
    );
    m.put(
        "tpserve.hit_service_us",
        averaged(&["service_time_us", "hit", "p50"]),
        "us",
    );
    for counter in ["cache_hits", "simulations", "store_hits", "rejected"] {
        m.put(format!("tpserve.{counter}"), summed(&[counter]), "count");
    }
    m.put(
        "tpserve.hit_share",
        w.hits as f64 / w.attempted.max(1) as f64,
        "ratio",
    );
    m.put_tail("tpserve.gen_lag_ms", &w.lag_ms, 99.0, "ms");
    m.put(
        "tpserve.polls_per_miss",
        w.polls as f64 / w.miss_ms.len().max(1) as f64,
        "1/miss",
    );
    m.put_median("tpserve.poll_cadence_ms", &w.poll_gap_ms, "ms");
    out.spans = Some(spans);
    Ok(())
}
