//! The sweep workloads, `irregular-1c` and `regular-4c`, run through
//! `SweepRunner` on a fresh runner per repetition.

use crate::attribution;
use crate::layers::{self, Spans, TimedJob};
use crate::metrics::{median, Metrics};
use crate::Outcome;
use std::time::{Duration, Instant};
use tpharness::{derive_seed, Experiment, L1Kind, L2Kind, SweepJob, SweepRunner, TemporalKind};
use tptrace::{workloads, Mix, MixGenerator, Scale, Workload};

/// Trace scale of every sweep job.
const SCALE: Scale = Scale::Test;

/// Cores per `regular-4c` mix.
const CORES: usize = 4;

/// `regular-4c` mixes. Two keep a repetition (the sweep and the per-job
/// pass) near 8 s on a 2-core host, so a 30 s run holds several and
/// averages over the host's speed phases; with all 7 cyclic windows a
/// repetition took 25 s and a run's one sweep moved by a third between
/// seeds.
const MIXES: usize = 7;

/// Set-ups before the timed phase, besides the one that leads each
/// repetition; `setup_s` is the median of all of them.
const SETUPS: usize = 5;

/// A sweep workload: its jobs and the distinct traces they replay.
pub struct Sweep {
    /// Jobs in submission order.
    pub jobs: Vec<SweepJob>,
    /// Every distinct seeded workload the jobs replay.
    pub traces: Vec<Workload>,
}

/// `w` reseeded from the benchmark seed.
pub fn seeded(w: &Workload, seed: u64) -> Workload {
    w.with_seed(derive_seed(seed, w.name))
}

fn stride() -> Experiment {
    Experiment::new(SCALE).l1(L1Kind::Stride)
}

/// Every irregular workload, single-core, under the Fig 9 configs.
pub fn irregular_1c(seed: u64) -> Sweep {
    let traces: Vec<Workload> = workloads::irregular_subset()
        .iter()
        .map(|w| seeded(w, seed))
        .collect();
    let configs = [
        stride(),
        stride().temporal(TemporalKind::Triangel),
        stride().temporal(TemporalKind::Streamline),
    ];
    let jobs = traces
        .iter()
        .flat_map(|w| {
            configs
                .iter()
                .map(|e| SweepJob::single(w.clone(), e.clone()))
        })
        .collect();
    Sweep { jobs, traces }
}

/// Seeded 4-core mixes of the 7 regular workloads, under stride,
/// stride+IPCP and stride+IPCP+Streamline. The two mixes take the
/// workloads of a seeded order of the pool four at a time, wrapping
/// round, so each runs once and the first of the order twice: with 4
/// freely drawn mixes, the sweep's cost depended on which workloads a
/// seed favoured and moved by 30% between seeds.
pub fn regular_4c(seed: u64) -> Sweep {
    let pool: Vec<Workload> = workloads::memory_intensive()
        .iter()
        .filter(|w| !w.irregular)
        .map(|w| seeded(w, seed))
        .collect();
    // A mix of all but one pool workload (drawn without repeats), then
    // the one left out: a seeded order of the whole pool.
    let n = pool.len();
    let mut order = MixGenerator::with_pool(seed, pool.clone())
        .mixes(n - 1, 1)
        .remove(0)
        .workloads;
    let left_out = pool.iter().find(|w| order.iter().all(|o| o.name != w.name));
    order.extend(left_out.cloned());
    let mixes: Vec<Mix> = (0..MIXES)
        .map(|index| Mix {
            index,
            workloads: (0..CORES)
                .map(|c| order[(index * CORES + c) % n].clone())
                .collect(),
        })
        .collect();
    let configs = [
        stride(),
        stride().l2(L2Kind::Ipcp),
        stride().l2(L2Kind::Ipcp).temporal(TemporalKind::Streamline),
    ];
    let jobs = mixes
        .iter()
        .flat_map(|m| configs.iter().map(|e| SweepJob::mix(m.clone(), e.clone())))
        .collect();
    Sweep {
        jobs,
        traces: order,
    }
}

/// One set-up: trace generation into an emptied `TracePool`.
struct Setup {
    secs: f64,
    gen_ns: u64,
    accesses: u64,
    pool_before: tptrace::PoolStats,
    resident_bytes: u64,
}

fn setup(traces: &[Workload], spans: Option<(&Spans, u64)>) -> Setup {
    let pool = tptrace::pool::global();
    let start = Instant::now();
    pool.clear();
    let pool_before = pool.stats();
    let mut gen_ns = 0;
    let mut accesses = 0;
    for w in traces {
        let t = Instant::now();
        let trace = w.generate_shared(SCALE);
        let done = Instant::now();
        gen_ns += (done - t).as_nanos() as u64;
        accesses += trace.len() as u64;
        if let Some((spans, parent)) = spans {
            spans.record(spans.id(), Some(parent), "tptrace.generate", t, done, 0);
        }
    }
    Setup {
        secs: start.elapsed().as_secs_f64(),
        gen_ns,
        accesses,
        pool_before,
        resident_bytes: pool.stats().resident_bytes,
    }
}

/// Samples gathered over the untraced repetitions.
#[derive(Default)]
struct Untraced {
    setup_s: Vec<f64>,
    sweep_s: Vec<f64>,
    job_ms: Vec<f64>,
    hit_us: Vec<f64>,
    /// The median lookup of each revisit of the warmed sweep.
    revisit_p50_us: Vec<f64>,
    /// Per-job report digests of the first sweep; every later report of
    /// the same job must match them.
    digests: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Untraced {
    /// Counts one operation, failed when its report's digest is not the
    /// job's digest from the first sweep.
    fn check(
        &mut self,
        job: &SweepJob,
        i: usize,
        digest: u64,
        what: &str,
        problems: &mut Vec<String>,
    ) {
        self.attempted += 1;
        if digest != self.digests[i] {
            self.failed += 1;
            problems.push(format!("{}: {what} report differs", job.key()));
        }
    }
}

/// One untraced repetition: a set-up, then the sweep as the figure
/// binaries run it, one `SweepRunner::run` batch on a fresh runner; that
/// is `sweep_s`. With `per_job`, a second pass on another fresh runner
/// times each job on its own (`miss_*`), and before each job its worker
/// looks up every job of the first, warmed runner again, as a figure
/// binary revisits cached configs (`hit_*`), so the lookups spread over
/// the whole pass, beside a simulating worker.
fn untraced_rep(
    sweep: &Sweep,
    workers: usize,
    per_job: bool,
    u: &mut Untraced,
    problems: &mut Vec<String>,
) {
    u.setup_s.push(setup(&sweep.traces, None).secs);
    let warm = SweepRunner::new().with_workers(workers);
    let start = Instant::now();
    let reports = warm.run(&sweep.jobs);
    u.sweep_s.push(start.elapsed().as_secs_f64());

    for (job, report) in sweep.jobs.iter().zip(&reports) {
        u.attempted += 1;
        if !report.audit.passed() {
            u.failed += 1;
            problems.push(format!("{}: conservation audit failed", job.key()));
        }
    }
    let digests: Vec<u64> = reports.iter().map(layers::digest).collect();
    if u.digests.is_empty() {
        u.digests = digests;
    } else if u.digests != digests {
        problems.push("report digests differ between sweeps of one seed".into());
    }
    if !per_job {
        return;
    }

    let fresh = SweepRunner::new().with_workers(workers);
    let done = fresh.map(&sweep.jobs, |_, job| {
        let hits: Vec<(f64, u64)> = sweep
            .jobs
            .iter()
            .map(|cached| {
                let t = Instant::now();
                let report = warm.run(std::slice::from_ref(cached));
                let took = t.elapsed();
                (took.as_secs_f64() * 1e6, layers::digest(&report[0]))
            })
            .collect();
        let t = Instant::now();
        let report = fresh.run_one(job.clone());
        let took = t.elapsed();
        (hits, took.as_secs_f64() * 1e3, layers::digest(&report))
    });
    for (i, (job, (hits, miss_ms, digest))) in sweep.jobs.iter().zip(done).enumerate() {
        let times: Vec<f64> = hits.iter().map(|h| h.0).collect();
        u.revisit_p50_us.extend(median(&times));
        for (j, (us, hit_digest)) in hits.into_iter().enumerate() {
            u.hit_us.push(us);
            u.check(&sweep.jobs[j], j, hit_digest, "cached", problems);
        }
        u.job_ms.push(miss_ms);
        u.check(job, i, digest, "per-job", problems);
    }
}

/// Samples gathered over the traced repetitions.
#[derive(Default)]
struct Traced {
    setups: Vec<Setup>,
    /// Per repetition: the timed jobs and the sweep's wall seconds.
    reps: Vec<(Vec<TimedJob>, f64)>,
    pool_hits: Vec<f64>,
    pool_generations: Vec<f64>,
}

fn traced_rep(sweep: &Sweep, workers: usize, spans: &Spans, root: u64, t: &mut Traced) {
    let s = setup(&sweep.traces, Some((spans, root)));
    let runner = SweepRunner::new().with_workers(workers);
    let id = spans.id();
    let start = Instant::now();
    let jobs = runner.map(&sweep.jobs, |_, job| layers::run_timed(job, spans, id));
    let end = Instant::now();
    spans.record(id, Some(root), "tpharness.sweep", start, end, 0);
    let after = tptrace::pool::global().stats();
    t.pool_hits.push((after.hits - s.pool_before.hits) as f64);
    t.pool_generations
        .push((after.generations - s.pool_before.generations) as f64);
    t.reps.push((jobs, (end - start).as_secs_f64()));
    t.setups.push(s);
}

/// How many of the workload's traces change when the seed changes, and
/// the names of those that do not.
fn seed_sensitivity(traces: &[Workload], seed: u64) -> (usize, Vec<&'static str>) {
    let fingerprint =
        |w: &Workload| tpharness::wire::fnv1a(&tptrace::io::to_bytes(&w.generate(SCALE)));
    let mut unchanged = Vec::new();
    for w in traces {
        let other = w.with_seed(derive_seed(seed.wrapping_add(1), w.name));
        if fingerprint(w) == fingerprint(&other) {
            unchanged.push(w.name);
        }
    }
    (traces.len() - unchanged.len(), unchanged)
}

/// Runs repetitions, at least one, while the next one is expected to
/// end no more than half its length after `until`.
fn repeat(until: Instant, mut rep: impl FnMut()) {
    loop {
        let start = Instant::now();
        rep();
        let now = Instant::now();
        if now + (now - start) / 2 >= until {
            return;
        }
    }
}

/// Runs a sweep workload for `seconds` and fills `out`.
pub fn run(
    name: &str,
    sweep: &Sweep,
    seed: u64,
    seconds: f64,
    trace: bool,
    workers: usize,
    out: &mut Outcome,
) {
    let mut u = Untraced {
        setup_s: (0..SETUPS)
            .map(|_| setup(&sweep.traces, None).secs)
            .collect(),
        ..Untraced::default()
    };
    let start = Instant::now();
    // A traced run spends half its time untraced, for the overhead, and
    // needs only the sweeps there.
    let untraced_for = if trace { seconds / 2.0 } else { seconds };
    repeat(start + Duration::from_secs_f64(untraced_for), || {
        untraced_rep(sweep, workers, !trace, &mut u, &mut out.problems)
    });
    out.attempted += u.attempted;
    out.failed += u.failed;
    let m: &mut Metrics = &mut out.metrics;

    if !trace {
        m.put_median("setup_s", &u.setup_s, "s");
        m.put_mean("sweep_s", &u.sweep_s, "s");
        // The host switches between speed states about 1.8x apart, for
        // far longer than one revisit, so the median of the pooled
        // lookups jumps to whichever state held more of them; the mean
        // of each revisit's median weighs the states by the time the
        // run spent in each.
        m.put_noted(
            "hit_p50_us",
            u.revisit_p50_us.iter().sum::<f64>() / u.revisit_p50_us.len().max(1) as f64,
            "us",
            format!(
                "mean of the medians of {} revisits of {} lookups",
                u.revisit_p50_us.len(),
                sweep.jobs.len()
            ),
        );
        m.put_tail("hit_p99_us", &u.hit_us, 99.0, "us");
        m.put_median("miss_p50_ms", &u.job_ms, "ms");
        m.put_tail("miss_p90_ms", &u.job_ms, 90.0, "ms");
        return;
    }

    let spans = Spans::default();
    let root = spans.id();
    let root_start = Instant::now();
    let mut t = Traced::default();
    repeat(start + Duration::from_secs_f64(seconds), || {
        traced_rep(sweep, workers, &spans, root, &mut t)
    });
    spans.record(root, None, name, root_start, Instant::now(), 0);

    for (jobs, _) in &t.reps {
        let digests: Vec<u64> = jobs.iter().map(|j| j.digest).collect();
        if digests != u.digests {
            out.problems
                .push("traced report digests differ from the untraced run".into());
        }
        for j in jobs {
            out.attempted += 1;
            if !j.report.audit.passed() {
                out.failed += 1;
                out.problems.push(format!(
                    "{}: traced run failed the conservation audit",
                    j.config
                ));
            }
        }
    }

    let traced_sweep: Vec<f64> = t.reps.iter().map(|r| r.1).collect();
    let overhead = median(&traced_sweep).unwrap_or(0.0) / median(&u.sweep_s).unwrap_or(1.0);
    m.put_noted(
        "trace_overhead_pct",
        (overhead - 1.0) * 100.0,
        "%",
        format!(
            "median traced sweep over {} untraced, {} traced repetitions",
            u.sweep_s.len(),
            t.reps.len()
        ),
    );

    let gen_ms: Vec<f64> = t.setups.iter().map(|s| s.gen_ns as f64 / 1e6).collect();
    let gen_ns_per_access: Vec<f64> = t
        .setups
        .iter()
        .map(|s| s.gen_ns as f64 / s.accesses.max(1) as f64)
        .collect();
    let resident: Vec<f64> = t
        .setups
        .iter()
        .map(|s| s.resident_bytes as f64 / (1 << 20) as f64)
        .collect();
    m.put_median("tptrace.gen_ms", &gen_ms, "ms");
    m.put_median("tptrace.gen_ns_per_access", &gen_ns_per_access, "ns");
    m.put_median("tptrace.pool_hits", &t.pool_hits, "count");
    m.put_median("tptrace.pool_generations", &t.pool_generations, "count");
    m.put_median("tptrace.resident_mb", &resident, "MiB");
    m.put("tptrace.traces", sweep.traces.len() as f64, "count");
    let (altered, unchanged) = seed_sensitivity(&sweep.traces, seed);
    m.put_noted(
        "tptrace.seed_altered_traces",
        altered as f64,
        "count",
        if unchanged.is_empty() {
            String::new()
        } else {
            format!("seed-blind: {}", unchanged.join(","))
        },
    );

    let log = spans.snapshot();
    let reps: Vec<Vec<TimedJob>> = t.reps.iter().map(|r| r.0.clone()).collect();
    attribution::emit(&reps, &log, m);
    m.put(
        "tpharness.worker_busy_share",
        attribution::busy_share(&t.reps, workers),
        "ratio",
    );
    out.spans = Some(spans);
}
