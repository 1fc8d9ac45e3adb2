//! Turns timed jobs and their spans into the per-layer metrics of the
//! simulator (`tpsim`), the prefetchers and the sweep runner.
//!
//! Every timed call also pays for its own clock reads. The benchmark
//! measures that cost on empty calls (`layers::ClockCost`) and takes it
//! out: a prefetcher's time is its summed call time minus what an empty
//! call records, and an engine run's time is its traced duration minus
//! what timing each wrapped call added, which estimates the untraced
//! run. Engine self time is the run span minus its child spans, less
//! the timing cost that falls outside the children.

use crate::layers::{self, Calls, ClockCost, Span, TimedJob};
use crate::metrics::{median, Metrics};
use tpharness::gmean;

/// Configuration labels the per-configuration metrics are emitted for.
pub const CONFIGS: [&str; 5] = [
    "baseline",
    "triangel",
    "streamline",
    "ipcp",
    "ipcp_streamline",
];

/// Temporal prefetchers the per-prefetcher metrics are emitted for.
pub const TEMPORAL: [&str; 2] = ["streamline", "triangel"];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn sum(jobs: &[&TimedJob], f: impl Fn(&TimedJob) -> f64) -> f64 {
    jobs.iter().map(|j| f(j)).sum()
}

/// Emits the `tpsim.*`, `tpprefetch.*`, `<temporal>.*` and
/// `tpharness.job_*`/`encode_us` metrics.
///
/// `reps` holds one job list per traced repetition of the same jobs:
/// host times use every repetition, simulated counts the first only
/// (they repeat exactly). `spans` is the log the jobs were recorded in.
pub fn emit(reps: &[Vec<TimedJob>], spans: &[Span], m: &mut Metrics) {
    let clock: ClockCost = layers::clock_cost();
    m.put("trace.clock_ns_per_span", clock.span_ns, "ns");
    m.put("trace.clock_ns_per_call", clock.call_ns, "ns");
    let all: Vec<&TimedJob> = reps.iter().flatten().collect();
    let first: Vec<&TimedJob> = reps.first().map(|r| r.iter().collect()).unwrap_or_default();
    let inside = |c: Calls| (c.ns as f64 - c.n as f64 * clock.span_ns).max(0.0);
    let wrapped = |j: &TimedJob| (j.calls.l1.n + j.calls.l2.n + j.calls.temporal().n) as f64;
    let run = |j: &TimedJob| (j.run_ns as f64 - wrapped(j) * clock.call_ns).max(0.0);
    let accesses = |jobs: &[&TimedJob]| sum(jobs, |j| j.calls.l1.n as f64);
    let total_accesses = accesses(&all);

    // --- tpsim: host time ---------------------------------------------
    let new_ms: Vec<f64> = all.iter().map(|j| j.new_ns as f64 / 1e6).collect();
    m.put_median("tpsim.new_ms", &new_ms, "ms");
    for cfg in CONFIGS {
        let jobs: Vec<&TimedJob> = all.iter().copied().filter(|j| j.config == cfg).collect();
        m.put(
            format!("tpsim.run_ns_per_access.{cfg}"),
            ratio(sum(&jobs, run), accesses(&jobs)),
            "ns",
        );
    }
    let outside_ns = sum(&all, wrapped) * (clock.call_ns - clock.span_ns);
    let self_ns = layers::self_ns(spans, "tpsim.engine_run") as f64 - outside_ns;
    m.put(
        "tpsim.self_ns_per_access",
        ratio(self_ns.max(0.0), total_accesses),
        "ns",
    );

    // --- tpsim: simulated counts (identity guard) ---------------------
    let cores = || first.iter().flat_map(|j| j.report.cores.iter());
    let instructions: u64 = cores().map(|c| c.instructions).sum();
    let per_kilo = |misses: u64| ratio(misses as f64 * 1000.0, instructions as f64);
    m.put(
        "tpsim.l1d_mpki",
        per_kilo(cores().map(|c| c.l1d.misses).sum()),
        "mpki",
    );
    m.put(
        "tpsim.l2_mpki",
        per_kilo(cores().map(|c| c.l2.misses).sum()),
        "mpki",
    );
    let count = |f: fn(&TimedJob) -> u64| sum(&first, |j| f(j) as f64);
    m.put("tpsim.llc_misses", count(|j| j.report.llc.misses), "count");
    m.put("tpsim.dram_reads", count(|j| j.report.dram.reads), "count");
    m.put(
        "tpsim.dram_writes",
        count(|j| j.report.dram.writes),
        "count",
    );
    m.put(
        "tpsim.dram_row_hit_rate",
        ratio(
            count(|j| j.report.dram.row_hits),
            count(|j| j.report.dram.total()),
        ),
        "ratio",
    );
    for cfg in CONFIGS {
        let ipcs: Vec<f64> = first
            .iter()
            .filter(|j| j.config == cfg)
            .map(|j| j.report.ipc_gmean())
            .collect();
        m.put(format!("tpsim.ipc_gmean.{cfg}"), gmean(&ipcs), "ipc");
    }

    // --- temporal prefetchers -----------------------------------------
    for p in TEMPORAL {
        let jobs: Vec<&TimedJob> = all.iter().copied().filter(|j| j.temporal == p).collect();
        let acc = accesses(&jobs);
        let calls = |f: fn(&TimedJob) -> u64| sum(&jobs, |j| f(j) as f64);
        let t_ns = sum(&jobs, |j| inside(j.calls.temporal()));
        let on_event = calls(|j| j.calls.on_event.n);
        m.put(
            format!("{p}.ns_per_call"),
            ratio(t_ns, calls(|j| j.calls.temporal().n)),
            "ns",
        );
        m.put(
            format!("{p}.calls_per_access.on_event"),
            ratio(on_event, acc),
            "1/access",
        );
        m.put(
            format!("{p}.calls_per_access.on_feedback"),
            ratio(calls(|j| j.calls.on_feedback.n), acc),
            "1/access",
        );
        m.put(
            format!("{p}.calls_per_access.observe_llc"),
            ratio(calls(|j| j.calls.observe_llc.n), acc),
            "1/access",
        );
        m.put(format!("{p}.share"), ratio(t_ns, sum(&jobs, run)), "ratio");
        m.put(
            format!("{p}.meta_blocks_per_event"),
            ratio(calls(|j| j.calls.meta_blocks), on_event),
            "blocks/event",
        );
        let pcores: Vec<_> = first
            .iter()
            .filter(|j| j.temporal == p)
            .flat_map(|j| j.report.cores.iter())
            .collect();
        let csum =
            |f: fn(&tpsim::CoreReport) -> u64| pcores.iter().map(|c| f(c)).sum::<u64>() as f64;
        let useful = csum(|c| c.l2_useful_by_origin[2]);
        m.put(
            format!("{p}.coverage"),
            ratio(useful, useful + csum(|c| c.l2.misses)),
            "ratio",
        );
        m.put(
            format!("{p}.accuracy"),
            ratio(useful, useful + csum(|c| c.l2_useless_by_origin[2])),
            "ratio",
        );
        let dropped = csum(|c| c.temporal_pf_dropped);
        m.put(
            format!("{p}.pf_dropped_share"),
            ratio(dropped, dropped + csum(|c| c.temporal_pf_issued)),
            "ratio",
        );
    }

    // --- regular prefetchers ------------------------------------------
    for (level, pick) in [
        ("l1", (|j: &TimedJob| j.calls.l1) as fn(&TimedJob) -> Calls),
        ("l2", |j: &TimedJob| j.calls.l2),
    ] {
        let jobs: Vec<&TimedJob> = all.iter().copied().filter(|j| pick(j).n > 0).collect();
        let ns = sum(&jobs, |j| inside(pick(j)));
        let n = sum(&jobs, |j| pick(j).n as f64);
        m.put(
            format!("tpprefetch.{level}.ns_per_call"),
            ratio(ns, n),
            "ns",
        );
        m.put(
            format!("tpprefetch.{level}.calls_per_access"),
            ratio(n, accesses(&jobs)),
            "1/access",
        );
        m.put(
            format!("tpprefetch.{level}.share"),
            ratio(ns, sum(&jobs, run)),
            "ratio",
        );
    }
    let l2_cores: Vec<_> = first
        .iter()
        .filter(|j| j.calls.l2.n > 0)
        .flat_map(|j| j.report.cores.iter())
        .collect();
    let useful: u64 = l2_cores.iter().map(|c| c.l2_useful_by_origin[1]).sum();
    let useless: u64 = l2_cores.iter().map(|c| c.l2_useless_by_origin[1]).sum();
    m.put(
        "tpprefetch.l2.accuracy",
        ratio(useful as f64, (useful + useless) as f64),
        "ratio",
    );

    // --- tpharness: per-job host time ---------------------------------
    let job_s: Vec<f64> = all.iter().map(|j| j.job_ns as f64 / 1e9).collect();
    m.put_median("tpharness.job_s_p50", &job_s, "s");
    m.put(
        "tpharness.job_s_max",
        job_s.iter().copied().fold(0.0, f64::max),
        "s",
    );
    let encode_us: Vec<f64> = all.iter().map(|j| j.encode_ns as f64 / 1e3).collect();
    m.put_median("tpharness.encode_us", &encode_us, "us");
}

/// Median over traced sweeps of the share of worker time kept busy:
/// summed job seconds over (wall seconds x workers).
pub fn busy_share(reps: &[(Vec<TimedJob>, f64)], workers: usize) -> f64 {
    let shares: Vec<f64> = reps
        .iter()
        .map(|(jobs, wall)| {
            let busy: f64 = jobs.iter().map(|j| j.job_ns as f64 / 1e9).sum();
            ratio(busy, wall * workers as f64)
        })
        .collect();
    median(&shares).unwrap_or(0.0)
}
