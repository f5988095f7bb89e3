//! The load generator: one rep of a workload against a fresh service.
//!
//! The generator is the calling (main) thread and nothing else.  A service
//! rep has a closed phase (a fixed job count with a fixed number
//! outstanding, read from the service's own `completed + failed`
//! counters) and an open phase (seeded Poisson arrivals, each job timed
//! from its *due* time).  A restart rep fills a write-ahead log with
//! admitted jobs and times `WalStorage::open` + `Service::start` until
//! every recovered job is terminal.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridwfs_serve::{
    recover, JobId, JobRecord, MemStorage, Service, ServiceConfig, Storage, Submission,
    SubmitError, WalStorage,
};
use gridwfs_storage::CountersSnapshot;

use crate::calib;
use crate::oracle::{self, Expected};
use crate::spans::{SpanLog, TimedStorage};
use crate::sysinfo::cpu_seconds;
use crate::util::Rng;
use crate::workload::{
    Sizes, Workload, MAX_IN_FLIGHT, OPEN_GRACE_S, OPEN_PARTS, OUTSTANDING, QUEUE_CAPACITY,
    SEGMENTS, WARMUP_SHARE,
};

/// Generator nap while the window is full or the service is finishing.
/// Long enough that the generator's own wake-ups are a negligible share
/// of a core (the sandbox gives service and generator one core between
/// them), short enough that the window of 128 never runs dry.
const POLL: Duration = Duration::from_micros(500);
/// A closed phase that has not settled after this long is abandoned and
/// its unsettled jobs count as failed.
const CLOSED_TIMEOUT: Duration = Duration::from_secs(90);
/// `QueueFull` retries per submission before it counts as refused.
const SUBMIT_RETRIES: u32 = 2000;
/// Problems listed by name; the rest are only counted.
const PROBLEMS_LISTED: usize = 20;

/// One timed stretch of the closed phase, between two reference slices.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Items settled in the stretch.
    pub jobs: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// [`calib::speed`] of the slices either side: times the stretch's
    /// times to get them at reference speed.
    pub speed: f64,
}

/// Everything one rep hands to the report.
#[derive(Debug, Default)]
pub struct RepOutcome {
    /// At reference speed, like every end-to-end time.
    pub setup_s: f64,
    /// The closed phase, stretch by stretch (restart: one stretch).
    pub segments: Vec<Segment>,
    /// Items settled in the timed closed phase (restart: recovered jobs),
    /// and its wall and CPU time as measured: the segments' sums.
    pub closed_jobs: usize,
    pub closed_wall_s: f64,
    pub closed_cpu_s: f64,
    /// Time in system of every closed-phase job, ms.
    pub closed_sojourn_ms: Vec<f64>,
    /// Due time → terminal of every open-phase job, ms (restart: restart
    /// begin → terminal of every recovered job), at reference speed.
    pub latency_ms: Vec<f64>,
    /// How late the generator made each open-phase submission, ms.
    pub late_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub run_wall_us: Vec<f64>,
    pub commit_wait_ms: Vec<f64>,
    pub submit_rejects: u64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub start_s: f64,
    pub drain_s: f64,
    pub service: ServiceCounts,
    pub storage: CountersSnapshot,
    pub apply_errors: u64,
}

/// The service counters the per-layer metrics are derived from.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServiceCounts {
    pub recovered: u64,
    pub task_retries: u64,
    pub steered_retries: u64,
    pub items_dead_lettered: u64,
    pub presumed_dead: u64,
    pub false_suspicions: u64,
    pub zombie_completions: u64,
}

impl RepOutcome {
    fn problem(&mut self, text: String) {
        self.failed += 1;
        if self.problems.len() < PROBLEMS_LISTED {
            self.problems.push(text);
        }
    }

    fn segment(&mut self, segment: Segment) {
        self.closed_jobs += segment.jobs;
        self.closed_wall_s += segment.wall_s;
        self.closed_cpu_s += segment.cpu_s;
        self.segments.push(segment);
    }
}

/// What a rep needs to know; the same for every rep of a run.
pub struct RepPlan<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: Sizes,
    pub workers: usize,
    /// Reference outcome per pool entry.
    pub expected: &'a [Expected],
    /// `Some` for the traced rep.
    pub spans: Option<Arc<SpanLog>>,
    /// `benchmark/target/state`.
    pub state_root: &'a Path,
}

/// `benchmark/target/state/<workload>-<pid>-rep<k>/`, created fresh.
fn fresh_state_dir(plan: &RepPlan, rep: usize) -> PathBuf {
    let dir = plan.state_root.join(format!(
        "{}-{}-rep{rep}",
        plan.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)
        .unwrap_or_else(|e| panic!("cannot create state dir {}: {e}", dir.display()));
    dir
}

fn span<T>(
    log: &Option<Arc<SpanLog>>,
    name: &'static str,
    f: impl FnOnce() -> T,
    tag: impl FnOnce(&T) -> (u64, u64),
) -> T {
    match log {
        Some(log) => log.record(name, f, tag),
        None => f(),
    }
}

/// Wraps the backend in the timing decorator for the traced rep.
fn decorate(
    backend: Arc<dyn Storage>,
    log: &Option<Arc<SpanLog>>,
) -> (Arc<dyn Storage>, Option<Arc<TimedStorage>>) {
    match log {
        Some(log) => {
            let timed = Arc::new(TimedStorage::new(backend, log.clone()));
            (timed.clone(), Some(timed))
        }
        None => (backend, None),
    }
}

fn terminal_count(svc: &Service) -> u64 {
    let c = &svc.metrics().counters;
    c.completed.load(Ordering::Relaxed) + c.failed.load(Ordering::Relaxed)
}

fn service_counts(svc: &Service) -> ServiceCounts {
    let c = &svc.metrics().counters;
    let get = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::Relaxed);
    ServiceCounts {
        recovered: get(&c.recovered),
        task_retries: get(&c.task_retries),
        steered_retries: get(&c.steered_retries),
        items_dead_lettered: get(&c.items_dead_lettered),
        presumed_dead: get(&c.tasks_presumed_dead),
        false_suspicions: get(&c.false_suspicions),
        zombie_completions: get(&c.zombie_completions),
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Warmup,
    Closed,
    /// The open phase's part with this index.
    Open(usize),
}

/// One admitted job as the generator knows it.
struct Admitted {
    id: JobId,
    pool_index: usize,
    phase: Phase,
    /// Open phase: seconds between the due time and the submit call.
    late_s: f64,
}

struct Generator<'a> {
    svc: &'a Service,
    pool: &'a [Submission],
    spans: &'a Option<Arc<SpanLog>>,
    cursor: usize,
    admitted: Vec<Admitted>,
    rejects: u64,
    refused: u64,
}

impl Generator<'_> {
    /// Submits the next pool entry, retrying `QueueFull` a bounded number
    /// of times.  False when the submission was refused for good.
    fn submit(&mut self, phase: Phase, late_s: f64) -> bool {
        let pool_index = self.cursor % self.pool.len();
        self.cursor += 1;
        for _ in 0..SUBMIT_RETRIES {
            let sub = self.pool[pool_index].clone();
            let result = span(
                self.spans,
                "serve.submit",
                || self.svc.submit(sub),
                |r| (r.as_ref().map_or(0, |id| id.0), 0),
            );
            match result {
                Ok(id) => {
                    self.admitted.push(Admitted {
                        id,
                        pool_index,
                        phase,
                        late_s,
                    });
                    return true;
                }
                Err(SubmitError::QueueFull) => {
                    self.rejects += 1;
                    std::thread::sleep(POLL);
                }
                Err(_) => break,
            }
        }
        self.refused += 1;
        false
    }

    /// Closed loop: `n` jobs with [`OUTSTANDING`] in the system, then
    /// wait for the last to settle.  Returns the jobs settled.
    fn closed(&mut self, phase: Phase, n: usize) -> usize {
        let base = terminal_count(self.svc);
        let started = Instant::now();
        let mut submitted = 0u64;
        let mut refused = 0u64;
        while ((submitted + refused) as usize) < n {
            let settled = terminal_count(self.svc) - base;
            if submitted - settled < OUTSTANDING as u64 {
                if self.submit(phase, 0.0) {
                    submitted += 1;
                } else {
                    refused += 1;
                }
            } else {
                std::thread::sleep(POLL);
            }
        }
        while terminal_count(self.svc) - base < submitted && started.elapsed() < CLOSED_TIMEOUT {
            std::thread::sleep(POLL);
        }
        (terminal_count(self.svc) - base) as usize
    }

    /// Open loop: one submission at each due time, whatever the service
    /// is doing; then wait out the grace period for the stragglers.
    fn open(&mut self, part: usize, arrivals_s: &[f64]) {
        let base = terminal_count(self.svc);
        let begin = Instant::now();
        let mut submitted = 0u64;
        for &due_s in arrivals_s {
            let due = begin + Duration::from_secs_f64(due_s);
            wait_until(due);
            let late_s = Instant::now().saturating_duration_since(due).as_secs_f64();
            if self.submit(Phase::Open(part), late_s) {
                submitted += 1;
            }
        }
        let last_due = arrivals_s.last().copied().unwrap_or(0.0);
        let deadline = begin + Duration::from_secs_f64(last_due + OPEN_GRACE_S);
        while terminal_count(self.svc) - base < submitted && Instant::now() < deadline {
            std::thread::sleep(POLL);
        }
    }
}

/// Sleeps until `due`.  No spinning: where generator and service share a
/// core, a spinning generator takes from the service the time it is
/// measuring.  The wake-up overshoot is reported as lateness and counted
/// in each job's latency.
fn wait_until(due: Instant) {
    let left = due.saturating_duration_since(Instant::now());
    if !left.is_zero() {
        std::thread::sleep(left);
    }
}

/// Seeded Poisson arrival times in `[0, length_s)`.
fn poisson_arrivals(seed: u64, rate_per_s: f64, length_s: f64) -> Vec<f64> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    if rate_per_s <= 0.0 {
        return out;
    }
    let mut t = rng.exponential(1.0 / rate_per_s);
    while t < length_s {
        out.push(t);
        t += rng.exponential(1.0 / rate_per_s);
    }
    out
}

fn service_config(plan: &RepPlan, storage: Arc<dyn Storage>, dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: plan.workers,
        max_in_flight: MAX_IN_FLIGHT,
        queue_capacity: QUEUE_CAPACITY,
        storage: Some(storage),
        trace_dir: plan.workload.journals().then(|| dir.join("journals")),
        ..ServiceConfig::default()
    }
}

/// Stage times of one terminal record.
fn stages(out: &mut RepOutcome, r: &JobRecord) {
    if let (Some(started), Some(finished), Some(run_wall)) =
        (r.started_at, r.finished_at, r.run_wall)
    {
        out.queue_wait_ms.push((started - r.enqueued_at) * 1e3);
        out.run_wall_us.push(run_wall * 1e6);
        out.commit_wait_ms
            .push((finished - started - run_wall).max(0.0) * 1e3);
    }
}

/// Checks the backend holds exactly one result record per admitted id.
fn check_results(out: &mut RepOutcome, storage: &dyn Storage, ids: impl Iterator<Item = JobId>) {
    let names: HashSet<String> = match storage.list() {
        Ok(names) => names.into_iter().collect(),
        Err(e) => {
            out.problem(format!("storage list failed: {e}"));
            return;
        }
    };
    let mut admitted = 0usize;
    for id in ids {
        admitted += 1;
        if !names.contains(&recover::result_name(id)) {
            out.problem(format!("{id}: no result record in the backend"));
        }
    }
    let results = names.iter().filter(|n| n.ends_with(".result")).count();
    if results != admitted {
        out.problem(format!(
            "backend holds {results} result records for {admitted} admitted jobs"
        ));
    }
}

/// One closed + open rep against a fresh service and fresh storage.
pub fn service_rep(plan: &RepPlan, rep: usize) -> RepOutcome {
    let mut out = RepOutcome::default();
    let sizes = plan.sizes;

    // ---- set-up (reported as setup_s): corpus, storage, service, warm-up
    let setup_ref = calib::slice();
    let setup_began = Instant::now();
    let pool = plan.workload.corpus(plan.seed, sizes.pool);
    let dir = fresh_state_dir(plan, rep);
    let backend: Arc<dyn Storage> = if plan.workload.uses_wal() {
        Arc::new(WalStorage::open(dir.join("wal")).expect("open write-ahead log"))
    } else {
        Arc::new(MemStorage::new())
    };
    let (storage, timed) = decorate(backend.clone(), &plan.spans);
    let start_began = Instant::now();
    let svc = span(
        &plan.spans,
        "serve.start",
        || Service::start(service_config(plan, storage.clone(), &dir)).expect("service starts"),
        |_| (0, 0),
    );
    out.start_s = start_began.elapsed().as_secs_f64();
    let mut gen = Generator {
        svc: &svc,
        pool: &pool,
        spans: &plan.spans,
        cursor: rep * sizes.closed_jobs,
        admitted: Vec::new(),
        rejects: 0,
        refused: 0,
    };
    let warmup = (sizes.closed_jobs as f64 * WARMUP_SHARE).ceil() as usize;
    gen.closed(Phase::Warmup, warmup);
    out.setup_s = setup_began.elapsed().as_secs_f64();

    // ---- closed phase: a reference slice either side of every stretch
    let mut before = calib::slice();
    out.setup_s *= calib::speed(setup_ref, before);
    let per_segment = sizes.closed_jobs.div_ceil(SEGMENTS);
    for _ in 0..SEGMENTS {
        let cpu_began = cpu_seconds();
        let began = Instant::now();
        let jobs = span(
            &plan.spans,
            "bench.closed",
            || gen.closed(Phase::Closed, per_segment),
            |_| (0, 0),
        );
        let wall_s = began.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu_began;
        let after = calib::slice();
        out.segment(Segment {
            jobs,
            wall_s,
            cpu_s,
            speed: calib::speed(before, after),
        });
        before = after;
    }

    // ---- open phase, in parts for the same reason
    let mut open_speed = Vec::with_capacity(OPEN_PARTS);
    for part in 0..OPEN_PARTS {
        let arrivals = poisson_arrivals(
            plan.seed ^ ((rep * OPEN_PARTS + part) as u64 + 1).wrapping_mul(0xA5A5_1234_5EED),
            sizes.open_rate_per_s,
            sizes.open_s / OPEN_PARTS as f64,
        );
        span(
            &plan.spans,
            "bench.open",
            || gen.open(part, &arrivals),
            |_| (0, 0),
        );
        let after = calib::slice();
        open_speed.push(calib::speed(before, after));
        before = after;
    }

    let Generator {
        admitted,
        rejects,
        refused,
        ..
    } = gen;
    out.submit_rejects = rejects;
    out.service = service_counts(&svc);
    let drain_began = Instant::now();
    let records = span(&plan.spans, "serve.drain", || svc.drain(), |_| (0, 0));
    out.drain_s = drain_began.elapsed().as_secs_f64();

    // ---- oracle
    out.attempted = admitted.len() as u64 + refused;
    for _ in 0..refused {
        out.problem("submission refused after bounded retry".into());
    }
    let by_id: HashMap<u64, &JobRecord> = records.iter().map(|r| (r.id.0, r)).collect();
    for job in &admitted {
        let Some(r) = by_id.get(&job.id.0) else {
            out.problem(format!("{}: no record after drain", job.id));
            continue;
        };
        if !r.state.is_terminal() {
            out.problem(format!("{}: never settled ({})", job.id, r.state.as_str()));
            continue;
        }
        if let Some(why) = oracle::mismatch(r, &plan.expected[job.pool_index]) {
            out.problem(format!("{} ({}): {why}", job.id, r.name));
            continue;
        }
        let sojourn_ms = r.latency().unwrap_or(0.0) * 1e3;
        match job.phase {
            Phase::Warmup => {}
            Phase::Closed => {
                out.closed_sojourn_ms.push(sojourn_ms);
                stages(&mut out, r);
            }
            Phase::Open(part) => {
                out.latency_ms
                    .push((job.late_s * 1e3 + sojourn_ms) * open_speed[part]);
                out.late_ms.push(job.late_s * 1e3);
                stages(&mut out, r);
            }
        }
    }
    // The oracle reads the backend itself, not through the decorator.
    drop(storage);
    check_results(&mut out, backend.as_ref(), admitted.iter().map(|j| j.id));
    out.storage = backend.counters();
    out.apply_errors = timed.map_or(0, |t| t.apply_errors());
    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// One restart rep: fill a write-ahead log with admitted jobs that never
/// started, then time the restart until every one is terminal.
pub fn restart_rep(plan: &RepPlan, rep: usize) -> RepOutcome {
    let mut out = RepOutcome::default();
    let n = plan.sizes.closed_jobs;

    // ---- set-up (reported as setup_s): corpus and the fill.  Each job
    // is one admission batch, exactly what `Service::submit` commits.
    let setup_ref = calib::slice();
    let setup_began = Instant::now();
    let pool = plan.workload.corpus(plan.seed, plan.sizes.pool);
    let dir = fresh_state_dir(plan, rep);
    let wal_dir = dir.join("wal");
    {
        let fill = WalStorage::open(&wal_dir).expect("open write-ahead log for the fill");
        for i in 0..n {
            let ops =
                recover::write_submission_ops(JobId(i as u64 + 1), &pool[i % pool.len()], None);
            let errors = fill.apply(ops);
            assert!(errors.is_empty(), "fill failed: {errors:?}");
        }
    }
    out.setup_s = setup_began.elapsed().as_secs_f64();
    let before = calib::slice();
    out.setup_s *= calib::speed(setup_ref, before);

    // ---- timed: replay, scan, re-admission, and the recovered jobs' runs
    let cpu_began = cpu_seconds();
    let began = Instant::now();
    let (svc, backend, timed, clock_offset_s) = span(
        &plan.spans,
        "bench.closed",
        || {
            let backend: Arc<dyn Storage> = Arc::new(span(
                &plan.spans,
                "storage.open",
                || WalStorage::open(&wal_dir).expect("reopen write-ahead log"),
                |_| (0, 0),
            ));
            let (storage, timed) = decorate(backend.clone(), &plan.spans);
            // The service clock starts inside `Service::start`, before the scan.
            let clock_offset_s = began.elapsed().as_secs_f64();
            let svc = span(
                &plan.spans,
                "serve.start",
                || Service::start(service_config(plan, storage, &dir)).expect("service restarts"),
                |_| (0, 0),
            );
            out.start_s = began.elapsed().as_secs_f64();
            while (terminal_count(&svc) as usize) < n && began.elapsed() < CLOSED_TIMEOUT {
                std::thread::sleep(POLL);
            }
            (svc, backend, timed, clock_offset_s)
        },
        |_| (0, 0),
    );
    let wall_s = began.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu_began;
    let speed = calib::speed(before, calib::slice());
    out.segment(Segment {
        jobs: terminal_count(&svc) as usize,
        wall_s,
        cpu_s,
        speed,
    });

    out.service = service_counts(&svc);
    let drain_began = Instant::now();
    let records = span(&plan.spans, "serve.drain", || svc.drain(), |_| (0, 0));
    out.drain_s = drain_began.elapsed().as_secs_f64();

    // ---- oracle
    out.attempted = n as u64;
    if out.service.recovered != n as u64 {
        out.problem(format!(
            "service recovered {} jobs of {n} filled",
            out.service.recovered
        ));
    }
    let by_id: HashMap<u64, &JobRecord> = records.iter().map(|r| (r.id.0, r)).collect();
    for i in 0..n {
        let id = JobId(i as u64 + 1);
        let Some(r) = by_id.get(&id.0) else {
            out.problem(format!("{id}: filled but not recovered"));
            continue;
        };
        if !r.state.is_terminal() || !r.recovered {
            out.problem(format!(
                "{id}: state {} recovered {}",
                r.state.as_str(),
                r.recovered
            ));
            continue;
        }
        if let Some(why) = oracle::mismatch(r, &plan.expected[i % pool.len()]) {
            out.problem(format!("{id} ({}): {why}", r.name));
            continue;
        }
        let finished_ms = (clock_offset_s + r.finished_at.unwrap_or(0.0)) * 1e3;
        out.latency_ms.push(finished_ms * speed);
        out.closed_sojourn_ms.push(finished_ms);
        stages(&mut out, r);
    }
    check_results(&mut out, backend.as_ref(), (1..=n as u64).map(JobId));
    out.storage = backend.counters();
    out.apply_errors = timed.map_or(0, |t| t.apply_errors());
    drop(backend);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

pub fn run_rep(plan: &RepPlan, rep: usize) -> RepOutcome {
    match plan.workload {
        Workload::RestartWal => restart_rep(plan, rep),
        _ => service_rep(plan, rep),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_arrivals_are_seeded_sorted_and_near_rate() {
        let a = poisson_arrivals(3, 1000.0, 2.0);
        assert_eq!(a, poisson_arrivals(3, 1000.0, 2.0));
        assert_ne!(a, poisson_arrivals(4, 1000.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|t| (0.0..2.0).contains(t)));
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
        assert!(poisson_arrivals(3, 0.0, 2.0).is_empty());
    }
}
