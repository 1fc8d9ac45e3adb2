//! Layer timing from outside the program: delegating prefetcher
//! wrappers, a timed engine run per sweep job, and an in-memory span log.
//!
//! The wrappers implement the public prefetcher traits by forwarding
//! every call to the real prefetcher and timing it. They change nothing
//! the simulator sees, which the benchmark checks: a wrapped job's
//! report digest must equal the unwrapped one.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tpharness::wire::{encode_sim_report, fnv1a};
use tpharness::{Experiment, SweepJob};
use tpsim::{
    AccessPrefetcher, CorePlan, Engine, MetaCtx, PartitionSpec, SimReport, SystemConfig,
    TemporalEvent, TemporalPrefetcher, TemporalStats,
};
use tptrace::record::{Line, Pc};
use tptrace::Workload;

/// Calls of one kind and the host time they took.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Calls {
    /// Number of calls.
    pub n: u64,
    /// Host nanoseconds inside the calls.
    pub ns: u64,
}

impl Calls {
    fn record(&mut self, start: Instant) {
        self.n += 1;
        self.ns += start.elapsed().as_nanos() as u64;
    }

    fn merge(&mut self, other: Calls) {
        self.n += other.n;
        self.ns += other.ns;
    }
}

/// What the wrappers saw during one job, summed over its cores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobCalls {
    /// L1D prefetcher `on_access`: one call per simulated access.
    pub l1: Calls,
    /// Regular L2 prefetcher `on_access`.
    pub l2: Calls,
    /// Temporal `on_event`.
    pub on_event: Calls,
    /// Temporal `on_feedback`.
    pub on_feedback: Calls,
    /// Temporal `observe_llc`.
    pub observe_llc: Calls,
    /// `MetaCtx` block reads plus writes charged by `on_event`.
    pub meta_blocks: u64,
}

impl JobCalls {
    fn merge(&mut self, o: &JobCalls) {
        self.l1.merge(o.l1);
        self.l2.merge(o.l2);
        self.on_event.merge(o.on_event);
        self.on_feedback.merge(o.on_feedback);
        self.observe_llc.merge(o.observe_llc);
        self.meta_blocks += o.meta_blocks;
    }

    /// Host time inside the temporal prefetcher.
    pub fn temporal(&self) -> Calls {
        let mut c = self.on_event;
        c.merge(self.on_feedback);
        c.merge(self.observe_llc);
        c
    }
}

/// Where wrappers deliver their counts when the engine drops them.
type Sink = Arc<Mutex<JobCalls>>;

/// Counts are kept in the wrapper (no shared writes per call) and
/// merged into the job's sink when the engine drops its plans.
fn flush(sink: &Sink, seen: &JobCalls) {
    // A poisoned sink means another wrapper panicked mid-merge; the
    // benchmark is failing anyway, and `Drop` must not panic.
    if let Ok(mut total) = sink.lock() {
        total.merge(seen);
    }
}

#[derive(Clone, Copy)]
enum Level {
    L1,
    L2,
}

/// A regular prefetcher whose `on_access` calls are timed.
pub struct TimedAccess {
    inner: Box<dyn AccessPrefetcher>,
    level: Level,
    seen: JobCalls,
    sink: Sink,
}

impl AccessPrefetcher for TimedAccess {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(&mut self, pc: Pc, line: Line, hit: bool, out: &mut Vec<Line>) {
        let t = Instant::now();
        self.inner.on_access(pc, line, hit, out);
        match self.level {
            Level::L1 => self.seen.l1.record(t),
            Level::L2 => self.seen.l2.record(t),
        }
    }
}

impl Drop for TimedAccess {
    fn drop(&mut self) {
        flush(&self.sink, &self.seen);
    }
}

/// A temporal prefetcher whose training and feedback calls are timed.
pub struct TimedTemporal {
    inner: Box<dyn TemporalPrefetcher>,
    seen: JobCalls,
    sink: Sink,
}

impl TemporalPrefetcher for TimedTemporal {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_event(&mut self, ctx: &mut MetaCtx, ev: TemporalEvent, out: &mut Vec<Line>) {
        let t = Instant::now();
        self.inner.on_event(ctx, ev, out);
        self.seen.on_event.record(t);
        self.seen.meta_blocks += u64::from(ctx.reads() + ctx.writes());
    }

    fn on_feedback(&mut self, line: Line, useful: bool) {
        let t = Instant::now();
        self.inner.on_feedback(line, useful);
        self.seen.on_feedback.record(t);
    }

    fn observe_llc(&mut self, line: Line) {
        let t = Instant::now();
        self.inner.observe_llc(line);
        self.seen.observe_llc.record(t);
    }

    fn partition(&self) -> PartitionSpec {
        self.inner.partition()
    }

    fn stats(&self) -> TemporalStats {
        self.inner.stats()
    }
}

impl Drop for TimedTemporal {
    fn drop(&mut self) {
        flush(&self.sink, &self.seen);
    }
}

/// The core plan `Experiment` builds for `w`, with every prefetcher
/// wrapped.
fn timed_plan(w: &Workload, exp: &Experiment, sink: &Sink) -> CorePlan {
    let mut plan = CorePlan::bare(w.generate_shared(exp.scale));
    let access = |inner, level| -> Box<dyn AccessPrefetcher> {
        Box::new(TimedAccess {
            inner,
            level,
            seen: JobCalls::default(),
            sink: Arc::clone(sink),
        })
    };
    if let Some(p) = exp.l1.build() {
        plan = plan.with_l1(access(p, Level::L1));
    }
    if let Some(p) = exp.l2.build() {
        plan = plan.with_l2(access(p, Level::L2));
    }
    if let Some(inner) = exp.temporal.build() {
        plan = plan.with_temporal(Box::new(TimedTemporal {
            inner,
            seen: JobCalls::default(),
            sink: Arc::clone(sink),
        }));
    }
    plan
}

/// The configuration label metrics are keyed by: the regular L2 and
/// temporal prefetcher names joined by `_`, or `baseline` for neither.
/// Every benchmark configuration carries the stride L1 prefetcher.
pub fn config_label(exp: &Experiment) -> String {
    let parts: Vec<&str> = [exp.l2.name(), exp.temporal.name()]
        .into_iter()
        .filter(|n| *n != "none")
        .collect();
    if parts.is_empty() {
        "baseline".into()
    } else {
        parts.join("_")
    }
}

/// A digest of a report's canonical encoding.
pub fn digest(report: &SimReport) -> u64 {
    fnv1a(encode_sim_report(report).as_bytes())
}

/// One job run through the wrapped engine.
#[derive(Clone, Debug)]
pub struct TimedJob {
    /// Configuration label (see [`config_label`]).
    pub config: String,
    /// Temporal prefetcher name, or `none`.
    pub temporal: &'static str,
    /// The report.
    pub report: SimReport,
    /// Digest of the report's canonical encoding.
    pub digest: u64,
    /// Prefetcher calls seen by the wrappers.
    pub calls: JobCalls,
    /// Host ns in `Engine::new`.
    pub new_ns: u64,
    /// Host ns in `Engine::run`.
    pub run_ns: u64,
    /// Host ns of the whole job.
    pub job_ns: u64,
    /// Host ns in `wire::encode_sim_report`.
    pub encode_ns: u64,
}

/// Runs `job` as `SweepRunner` would, but with wrapped prefetchers and
/// `Engine::new`/`Engine::run` timed, recording spans under `parent`.
pub fn run_timed(job: &SweepJob, spans: &Spans, parent: u64) -> TimedJob {
    let start = Instant::now();
    let job_id = spans.id();
    let (workloads, exp): (Vec<&Workload>, &Experiment) = match job {
        SweepJob::Single { workload, exp } => (vec![workload], exp),
        SweepJob::Mix { mix, exp } => (mix.workloads.iter().collect(), exp),
    };
    let sink = Sink::default();
    let plans = workloads
        .iter()
        .map(|w| timed_plan(w, exp, &sink))
        .collect();
    let system =
        SystemConfig::with_cores(workloads.len()).with_bandwidth_factor(exp.bandwidth_factor);

    let t_new = Instant::now();
    let engine = Engine::new(system, plans).warmup_fraction(exp.warmup);
    let t_run = Instant::now();
    spans.record(
        spans.id(),
        Some(job_id),
        "tpsim.engine_new",
        t_new,
        t_run,
        0,
    );
    let report = engine.run();
    let t_ran = Instant::now();
    let run_id = spans.id();
    spans.record(run_id, Some(job_id), "tpsim.engine_run", t_run, t_ran, 0);

    // The engine dropped its plans, so every wrapper has flushed.
    let calls = *sink.lock().expect("wrappers flush without panicking");
    let temporal = exp.temporal.name();
    for (name, c) in [
        ("tpprefetch.l1", calls.l1),
        ("tpprefetch.l2", calls.l2),
        (temporal, calls.temporal()),
    ] {
        if c.n > 0 {
            spans.aggregate(run_id, name, t_run, c);
        }
    }

    let t_enc = Instant::now();
    let encoded = encode_sim_report(&report);
    let encode_ns = t_enc.elapsed().as_nanos() as u64;
    let end = Instant::now();
    spans.record(job_id, Some(parent), "tpharness.job", start, end, 0);
    TimedJob {
        config: config_label(exp),
        temporal,
        digest: fnv1a(encoded.as_bytes()),
        report,
        calls,
        new_ns: (t_run - t_new).as_nanos() as u64,
        run_ns: (t_ran - t_run).as_nanos() as u64,
        job_ns: (end - start).as_nanos() as u64,
        encode_ns,
    }
}

/// One recorded span. Aggregate spans (`calls > 0`) stand for many
/// per-access calls summed into one interval that starts with their
/// parent; their duration is the summed call time.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id, unique within the log.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Layer-qualified name.
    pub name: String,
    /// Start, ns since the log was created.
    pub start_ns: u64,
    /// End, ns since the log was created.
    pub end_ns: u64,
    /// Calls summed into an aggregate span; 0 for a plain span.
    pub calls: u64,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span log, written out once at the end of a run.
pub struct Spans {
    origin: Instant,
    next: AtomicU64,
    log: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            log: Mutex::new(Vec::new()),
        }
    }
}

impl Spans {
    /// Reserves a span id, so children can name a parent that has not
    /// ended yet.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn offset(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span under a reserved id.
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &str,
        start: Instant,
        end: Instant,
        calls: u64,
    ) {
        let span = Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.offset(start),
            end_ns: self.offset(end),
            calls,
        };
        self.log.lock().expect("span log lock").push(span);
    }

    /// Records summed per-access calls as one aggregate child span.
    pub fn aggregate(&self, parent: u64, name: &str, start: Instant, c: Calls) {
        let start_ns = self.offset(start);
        let span = Span {
            id: self.id(),
            parent: Some(parent),
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + c.ns,
            calls: c.n,
        };
        self.log.lock().expect("span log lock").push(span);
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.log.lock().expect("span log lock").clone()
    }

    /// Writes the log as one JSON object per line.
    ///
    /// # Errors
    /// I/O errors creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.snapshot() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}",
                s.id, parent, s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

/// Summed self time of every span named `name`: its duration minus the
/// durations of its children.
pub fn self_ns(spans: &[Span], name: &str) -> u64 {
    let mut child_ns = std::collections::HashMap::<u64, u64>::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.ns();
        }
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            s.ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .sum()
}

/// What timing a call costs by itself, measured on empty calls.
#[derive(Clone, Copy, Debug)]
pub struct ClockCost {
    /// The duration an empty timed call records.
    pub span_ns: f64,
    /// The host time timing one call adds to its caller.
    pub call_ns: f64,
}

/// Measures [`ClockCost`]: medians over batches of empty timed calls.
pub fn clock_cost() -> ClockCost {
    let (span, call): (Vec<f64>, Vec<f64>) = (0..31)
        .map(|_| {
            let mut c = Calls::default();
            let t = Instant::now();
            for _ in 0..1000 {
                c.record(Instant::now());
            }
            let took = t.elapsed();
            let c = std::hint::black_box(c);
            (c.ns as f64 / 1000.0, took.as_nanos() as f64 / 1000.0)
        })
        .unzip();
    ClockCost {
        span_ns: crate::metrics::median(&span).unwrap_or(0.0),
        call_ns: crate::metrics::median(&call).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpharness::{run_mix, run_single, L1Kind, L2Kind, TemporalKind};
    use tptrace::{workloads, MixGenerator, Scale};

    fn exp(l2: L2Kind, t: TemporalKind) -> Experiment {
        Experiment::new(Scale::Test)
            .l1(L1Kind::Stride)
            .l2(l2)
            .temporal(t)
    }

    #[test]
    fn wrapped_single_core_runs_equal_unwrapped_runs() {
        let w = workloads::by_name("spec06.omnetpp").unwrap().with_seed(7);
        let spans = Spans::default();
        for t in [
            TemporalKind::None,
            TemporalKind::Triangel,
            TemporalKind::Streamline,
        ] {
            let e = exp(L2Kind::None, t);
            let timed = run_timed(&SweepJob::single(w.clone(), e.clone()), &spans, 0);
            assert_eq!(
                encode_sim_report(&timed.report),
                encode_sim_report(&run_single(&w, &e)),
                "wrapping changed the {} report",
                t.name()
            );
            assert!(timed.report.audit.passed());
            // The L1 wrapper sees exactly one call per simulated access.
            assert!(timed.calls.l1.n as usize >= w.generate_shared(Scale::Test).len());
            assert_eq!(timed.calls.on_event.n > 0, t.name() != "none");
        }
    }

    #[test]
    fn wrapped_mix_runs_equal_unwrapped_runs() {
        let mix = &MixGenerator::new(3).mixes(2, 1)[0];
        let e = exp(L2Kind::Ipcp, TemporalKind::Streamline);
        let spans = Spans::default();
        let timed = run_timed(&SweepJob::mix(mix.clone(), e.clone()), &spans, 0);
        assert_eq!(timed.digest, digest(&run_mix(mix, &e)));
        assert!(timed.calls.l2.n > 0 && timed.calls.on_event.n > 0);
        assert_eq!(timed.config, "ipcp_streamline");
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = Spans::default();
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_nanos(1000);
        let root = spans.id();
        spans.record(root, None, "outer", t0, t1, 0);
        spans.aggregate(root, "inner", t0, Calls { n: 5, ns: 300 });
        spans.aggregate(root, "inner", t0, Calls { n: 5, ns: 200 });
        let log = spans.snapshot();
        assert_eq!(self_ns(&log, "outer"), 500);
        assert_eq!(self_ns(&log, "inner"), 500);
    }

    #[test]
    fn config_labels_name_the_layers_in_play() {
        assert_eq!(
            config_label(&exp(L2Kind::None, TemporalKind::None)),
            "baseline"
        );
        assert_eq!(config_label(&exp(L2Kind::Ipcp, TemporalKind::None)), "ipcp");
        assert_eq!(
            config_label(&exp(L2Kind::None, TemporalKind::Triangel)),
            "triangel"
        );
    }
}
