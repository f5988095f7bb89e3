//! The service metrics registry.
//!
//! Counters are monotonic over the service's lifetime; gauges are sampled
//! at snapshot time; the latency histogram is a fixed-memory log-bucketed
//! sketch ([`LatencyHisto`]): lock-free to record into from every
//! scheduler thread at once, a few KiB however many jobs pass through,
//! exact count/mean/min/max, and percentiles within one bucket's
//! resolution (±3.5%).  The old `Mutex<Vec<f64>>` kept every sample —
//! unbounded memory and a lock on the settle path, both of which the
//! 100k-job loadgen runs straight into.
//!
//! [`Metrics::snapshot_json`] renders the whole registry as a JSON
//! document — the machine-readable face of the service (`gridwfs serve
//! --metrics`, the load generator, the CI smoke job).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gridwfs_chaos::relock;
use gridwfs_trace::{TaskOutcome, TraceEvent, TraceKind, TraceSink};

use crate::json::{json_number, json_string};

/// Monotonic event counters.
#[derive(Debug, Default)]
pub struct Counters {
    /// Submissions accepted into the queue (includes re-admissions).
    pub submitted: AtomicU64,
    /// Submissions rejected at the door (queue full / shutting down).
    pub rejected: AtomicU64,
    /// Jobs that reached `Done`.
    pub completed: AtomicU64,
    /// Jobs that reached `Failed` (including deadline expiry).
    pub failed: AtomicU64,
    /// Jobs that reached `Cancelled`.
    pub cancelled: AtomicU64,
    /// `Failed` jobs whose failure was deadline expiry.
    pub deadline_exceeded: AtomicU64,
    /// Jobs re-admitted from a state directory at service start.
    pub recovered: AtomicU64,
    /// Task-level retries scheduled by any engine (derived from the
    /// trace stream by [`TraceMetricsSink`]).
    pub task_retries: AtomicU64,
    /// Task attempts presumed dead by heartbeat loss (derived from the
    /// trace stream by [`TraceMetricsSink`]).
    pub tasks_presumed_dead: AtomicU64,
    /// Presumed-dead attempts that later produced post-mortem evidence —
    /// a zombie completion or a late heartbeat — proving the suspicion
    /// false.  Counted once per attempt (derived from the trace stream by
    /// [`TraceMetricsSink`]).
    pub false_suspicions: AtomicU64,
    /// Completion-class messages (`Done` / `Exception`) that arrived from
    /// attempts already presumed dead and were discarded by fencing
    /// (derived from the trace stream by [`TraceMetricsSink`]).
    pub zombie_completions: AtomicU64,
    /// `foreach` items settled to a terminal state other than the
    /// dead-letter queue (derived from the trace stream by
    /// [`TraceMetricsSink`]).
    pub items_settled: AtomicU64,
    /// `foreach` items parked in a job's dead-letter queue after
    /// exhausting their recovery budget (derived from the trace stream
    /// by [`TraceMetricsSink`]).
    pub items_dead_lettered: AtomicU64,
    /// Previously dead-lettered items re-run after a `dlq retry`
    /// (derived from the trace stream by [`TraceMetricsSink`]).
    pub items_reprocessed: AtomicU64,
    /// Workflow closures that panicked inside a worker (the worker
    /// survived; the job settled as `Failed`).
    pub jobs_panicked: AtomicU64,
    /// Corrupt state-dir entries moved aside by recovery scans.
    pub quarantined: AtomicU64,
    /// Successful lease heartbeat renewals by this replica (federated
    /// serve only; counted by the lease heartbeat, never journalled).
    pub leases_renewed: AtomicU64,
    /// Expired peer leases this replica claimed, driving the orphaned job
    /// through the recovery path (counted where the claim commits).
    pub takeovers: AtomicU64,
    /// Storage batches rejected by lease fencing — a zombie owner tried
    /// to write a job it no longer leases (counted where the fence
    /// conflict is handled).
    pub fenced_writes: AtomicU64,
    /// Expired leases observed by the takeover scanner before claiming
    /// (counted by the scanner).
    pub lease_expirations: AtomicU64,
    /// Live attempts pre-emptively moved off a suspected host by the
    /// resilient scheduler (derived from the trace stream by
    /// [`TraceMetricsSink`]).
    pub rereplications: AtomicU64,
    /// Retry placements the scorer routed away from the oblivious cycling
    /// choice (derived from the trace stream by [`TraceMetricsSink`]).
    pub steered_retries: AtomicU64,
    /// Per-host checkpoint-interval adaptations journalled by the
    /// resilient scheduler (derived from the trace stream).
    pub adaptive_ckpt_updates: AtomicU64,
    /// Group commits of scheduler state batches (settlements, checkpoints,
    /// ledgers): `(completed + failed) / state_commits` is jobs per fsync
    /// on the settle side.  Admission commits are not counted here — the
    /// backend's `group_commits` has both.
    pub state_commits: AtomicU64,
    /// Records those commits carried; over `state_commits`, the batch size.
    pub records_committed: AtomicU64,
    /// Engine checkpoints encoded and staged by the scheduler: at most one
    /// per slice in which the engine checkpointed, none for a run whose
    /// settle purged its checkpoint.
    pub checkpoints_staged: AtomicU64,
}

/// The registry: counters + the running-jobs gauge + the latency and
/// commit-lag sketches.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Event counters.
    pub counters: Counters,
    /// Jobs currently held by a worker (gauge).
    pub running: AtomicU64,
    latency: LatencyHisto,
    /// First staging of a scheduler state batch → its `apply` returned:
    /// how long a settlement waits to become durable.
    commit_lag: LatencyHisto,
}

/// Smallest resolvable latency; everything at or below lands in bucket 0.
const HISTO_FLOOR: f64 = 1e-4;
/// Geometric bucket width: each bucket's upper edge is 7% above the last,
/// bounding the percentile error at half a bucket (±3.5%).
const HISTO_GROWTH: f64 = 1.07;
/// Covers `(HISTO_FLOOR, HISTO_FLOOR * GROWTH^273]` ≈ 1e-4 s .. 1.1e4 s;
/// the top bucket absorbs anything larger.
const HISTO_BUCKETS: usize = 274;

/// Lock-free log-bucketed latency histogram.
///
/// Writes are one relaxed `fetch_add` per sample plus CAS loops for the
/// float accumulators — no lock on the settle path, and the footprint is
/// `HISTO_BUCKETS` words no matter how many samples arrive.  Count, mean,
/// min, and max are exact; percentiles are read from the bucket midpoints
/// (geometric), clamped into `[min, max]` so a one-sample histogram
/// reports that sample, not its bucket's midpoint.
#[derive(Debug)]
pub struct LatencyHisto {
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// `f64` bit patterns maintained by CAS — plain atomic adds would
    /// need `AtomicF64`, which std does not have.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for LatencyHisto {
    fn default() -> Self {
        LatencyHisto {
            counts: (0..HISTO_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }
}

fn bucket_index(v: f64) -> usize {
    if v <= HISTO_FLOOR {
        return 0;
    }
    let i = ((v / HISTO_FLOOR).ln() / HISTO_GROWTH.ln()).floor() as usize + 1;
    i.min(HISTO_BUCKETS - 1)
}

/// Representative value reported for bucket `i`: its geometric midpoint.
fn bucket_mid(i: usize) -> f64 {
    if i == 0 {
        HISTO_FLOOR
    } else {
        HISTO_FLOOR * HISTO_GROWTH.powf(i as f64 - 0.5)
    }
}

/// CAS-update a float cell with `op` (add, min, max).
fn update_f64(cell: &AtomicU64, op: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = op(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl LatencyHisto {
    fn observe(&self, v: f64) {
        self.counts[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        update_f64(&self.sum_bits, |s| s + v);
        update_f64(&self.min_bits, |m| m.min(v));
        update_f64(&self.max_bits, |m| m.max(v));
    }

    /// Nearest-rank percentile walk over the buckets.  A racing `observe`
    /// can make the rank run past the bucket counts; the walk then falls
    /// back to `max`, which is where the freshest sample class lives.
    fn value_at_rank(&self, rank: u64, min: f64, max: f64) -> f64 {
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c.load(Ordering::Relaxed);
            if cum > rank {
                return bucket_mid(i).clamp(min, max);
            }
        }
        max
    }

    fn summary(&self) -> LatencySummary {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return LatencySummary {
                count: 0,
                mean: 0.0,
                min: 0.0,
                p50: 0.0,
                p90: 0.0,
                p99: 0.0,
                max: 0.0,
            };
        }
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        let rank = |q: f64| ((count - 1) as f64 * q).round() as u64;
        LatencySummary {
            count: count as usize,
            mean: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)) / count as f64,
            min,
            p50: self.value_at_rank(rank(0.50), min, max),
            p90: self.value_at_rank(rank(0.90), min, max),
            p99: self.value_at_rank(rank(0.99), min, max),
            max,
        }
    }
}

/// Summary of the latency samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Smallest sample.
    pub min: f64,
    /// Medians and tails.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Largest sample.
    pub max: f64,
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl Metrics {
    /// A zeroed registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Bumps a counter by one.
    pub(crate) fn incr(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one admission-to-terminal latency sample (seconds).
    /// Lock-free; safe to call from every scheduler thread at once.
    pub fn observe_latency(&self, seconds: f64) {
        self.latency.observe(seconds);
    }

    /// Summarises the latency histogram so far: exact count/mean/min/max,
    /// percentiles within one bucket's resolution.
    pub fn latency_summary(&self) -> LatencySummary {
        self.latency.summary()
    }

    /// Records one group commit of a scheduler state batch: `records`
    /// staged writes became durable `lag` seconds after the first of them
    /// was staged.
    pub(crate) fn observe_commit(&self, records: u64, lag: f64) {
        Metrics::incr(&self.counters.state_commits);
        self.counters
            .records_committed
            .fetch_add(records, Ordering::Relaxed);
        self.commit_lag.observe(lag);
    }

    /// Summarises the commit-lag histogram (seconds; same sketch as
    /// [`Metrics::latency_summary`]).
    pub fn commit_lag_summary(&self) -> LatencySummary {
        self.commit_lag.summary()
    }

    /// Renders the registry as JSON.  `queue_depth` is sampled by the
    /// caller (the queue lives next to the registry, not inside it).
    pub fn snapshot_json(&self, queue_depth: usize) -> String {
        self.snapshot_json_with_storage(queue_depth, None)
    }

    /// Renders the registry as JSON with an optional `storage` section —
    /// the backend label, the [`gridwfs_storage::Storage::counters`]
    /// snapshot the service samples at the same instant as the gauges, and
    /// the scheduler's own view of its group commits (`state_commits`,
    /// `records_committed`, `checkpoints_staged`, `commit_lag_seconds`).
    /// Schema 1 is the storage-less document; schema 2 adds the section.
    pub fn snapshot_json_with_storage(
        &self,
        queue_depth: usize,
        storage: Option<(&'static str, gridwfs_storage::CountersSnapshot)>,
    ) -> String {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let l = self.latency_summary();
        let mut out = String::from("{\n");
        let schema = if storage.is_some() { 2 } else { 1 };
        out.push_str(&format!("  \"schema\": {schema},\n"));
        out.push_str("  \"counters\": {\n");
        let counters = [
            ("submitted", get(&c.submitted)),
            ("rejected", get(&c.rejected)),
            ("completed", get(&c.completed)),
            ("failed", get(&c.failed)),
            ("cancelled", get(&c.cancelled)),
            ("deadline_exceeded", get(&c.deadline_exceeded)),
            ("recovered", get(&c.recovered)),
            ("task_retries", get(&c.task_retries)),
            ("tasks_presumed_dead", get(&c.tasks_presumed_dead)),
            ("false_suspicions", get(&c.false_suspicions)),
            ("zombie_completions", get(&c.zombie_completions)),
            ("items_settled", get(&c.items_settled)),
            ("items_dead_lettered", get(&c.items_dead_lettered)),
            ("items_reprocessed", get(&c.items_reprocessed)),
            ("jobs_panicked", get(&c.jobs_panicked)),
            ("quarantined", get(&c.quarantined)),
            ("leases_renewed", get(&c.leases_renewed)),
            ("takeovers", get(&c.takeovers)),
            ("fenced_writes", get(&c.fenced_writes)),
            ("lease_expirations", get(&c.lease_expirations)),
            ("rereplications", get(&c.rereplications)),
            ("steered_retries", get(&c.steered_retries)),
            ("adaptive_ckpt_updates", get(&c.adaptive_ckpt_updates)),
        ];
        for (i, (name, v)) in counters.iter().enumerate() {
            let comma = if i + 1 < counters.len() { "," } else { "" };
            out.push_str(&format!("    {}: {v}{comma}\n", json_string(name)));
        }
        out.push_str("  },\n");
        out.push_str("  \"gauges\": {\n");
        out.push_str(&format!("    \"queue_depth\": {queue_depth},\n"));
        out.push_str(&format!(
            "    \"running\": {}\n",
            self.running.load(Ordering::Relaxed)
        ));
        out.push_str("  },\n");
        if let Some((backend, s)) = storage {
            out.push_str("  \"storage\": {\n");
            out.push_str(&format!("    \"backend\": {},\n", json_string(backend)));
            let fields = [
                ("wal_appends", s.wal_appends),
                ("group_commits", s.group_commits),
                ("compactions", s.compactions),
                ("bytes_logged", s.bytes_logged),
                ("recovery_replayed_records", s.recovery_replayed_records),
                ("state_commits", get(&c.state_commits)),
                ("records_committed", get(&c.records_committed)),
                ("checkpoints_staged", get(&c.checkpoints_staged)),
            ];
            for (name, v) in fields {
                out.push_str(&format!("    {}: {v},\n", json_string(name)));
            }
            out.push_str("    \"commit_lag_seconds\": ");
            push_summary(&mut out, "    ", &self.commit_lag_summary());
            out.push_str("\n  },\n");
        }
        out.push_str("  \"latency_seconds\": ");
        push_summary(&mut out, "  ", &l);
        out.push_str("\n}\n");
        out
    }
}

/// Renders a histogram summary as a JSON object whose closing brace sits
/// at `indent`.
fn push_summary(out: &mut String, indent: &str, l: &LatencySummary) {
    out.push_str(&format!("{{\n{indent}  \"count\": {},\n", l.count));
    for (name, v) in [
        ("mean", l.mean),
        ("min", l.min),
        ("p50", l.p50),
        ("p90", l.p90),
        ("p99", l.p99),
    ] {
        out.push_str(&format!(
            "{indent}  {}: {},\n",
            json_string(name),
            json_number(v)
        ));
    }
    out.push_str(&format!(
        "{indent}  \"max\": {}\n{indent}}}",
        json_number(l.max)
    ));
}

/// A [`TraceSink`] that turns the engines' flight-recorder stream into
/// service counters: retries scheduled and heartbeat presumptions are
/// recovery activity the per-job records do not surface, and counting
/// them here keeps the registry consistent with the journals by
/// construction — both are views of the same event stream.
pub struct TraceMetricsSink {
    metrics: Arc<Metrics>,
    /// Presumed-dead attempts already counted as false suspicions — a
    /// zombie sends many post-mortem messages (late heartbeats, then a
    /// completion) but proves the suspicion false only once.  Sinks are
    /// created per job, so attempt ids cannot collide across engines.
    refuted: Mutex<std::collections::HashSet<u64>>,
}

impl TraceMetricsSink {
    /// A sink bumping counters in `metrics`.
    pub fn new(metrics: Arc<Metrics>) -> Self {
        TraceMetricsSink {
            metrics,
            refuted: Mutex::new(std::collections::HashSet::new()),
        }
    }

    fn false_suspicion(&self, task: u64) {
        if relock(&self.refuted).insert(task) {
            Metrics::incr(&self.metrics.counters.false_suspicions);
        }
    }
}

impl TraceSink for TraceMetricsSink {
    fn record(&self, event: &TraceEvent) {
        match &event.kind {
            TraceKind::RetryScheduled { .. } => {
                Metrics::incr(&self.metrics.counters.task_retries);
            }
            TraceKind::TaskSettled {
                outcome: TaskOutcome::Crashed,
                reason,
                ..
            } if reason == "heartbeat-loss" => {
                Metrics::incr(&self.metrics.counters.tasks_presumed_dead);
            }
            TraceKind::ZombieCompletion { task, .. } => {
                Metrics::incr(&self.metrics.counters.zombie_completions);
                self.false_suspicion(*task);
            }
            TraceKind::LateHeartbeat { task, .. } => {
                self.false_suspicion(*task);
            }
            TraceKind::ItemSettled { .. } => {
                Metrics::incr(&self.metrics.counters.items_settled);
            }
            TraceKind::ItemDeadLettered { .. } => {
                Metrics::incr(&self.metrics.counters.items_dead_lettered);
            }
            TraceKind::ItemReprocessed { .. } => {
                Metrics::incr(&self.metrics.counters.items_reprocessed);
            }
            TraceKind::Rereplicate { .. } => {
                Metrics::incr(&self.metrics.counters.rereplications);
            }
            TraceKind::PlacementScored {
                steered: true,
                attempt,
                ..
            } if *attempt > 1 => {
                Metrics::incr(&self.metrics.counters.steered_retries);
            }
            TraceKind::CkptIntervalAdapted { .. } => {
                Metrics::incr(&self.metrics.counters.adaptive_ckpt_updates);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(|v| v as f64).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 51.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn snapshot_contains_all_sections() {
        let m = Metrics::new();
        Metrics::incr(&m.counters.submitted);
        Metrics::incr(&m.counters.submitted);
        Metrics::incr(&m.counters.completed);
        m.observe_latency(0.5);
        m.observe_latency(1.5);
        let json = m.snapshot_json(3);
        assert!(json.contains("\"submitted\": 2"), "{json}");
        assert!(json.contains("\"completed\": 1"), "{json}");
        assert!(json.contains("\"queue_depth\": 3"), "{json}");
        assert!(json.contains("\"count\": 2"), "{json}");
        assert!(json.contains("\"mean\": 1"), "{json}");
        // Well-formedness without a JSON parser: balanced braces, no
        // trailing comma before a closer.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert!(!json.contains(",\n  }"), "{json}");
        assert!(!json.contains(",\n}"), "{json}");
    }

    #[test]
    fn snapshot_with_storage_adds_section_and_bumps_schema() {
        let m = Metrics::new();
        let counters = gridwfs_storage::CountersSnapshot {
            wal_appends: 12,
            group_commits: 3,
            compactions: 1,
            bytes_logged: 4096,
            recovery_replayed_records: 7,
        };
        m.observe_commit(5, 0.002);
        m.observe_commit(3, 0.004);
        let json = m.snapshot_json_with_storage(0, Some(("wal", counters)));
        assert!(json.contains("\"schema\": 2"), "{json}");
        assert!(json.contains("\"state_commits\": 2"), "{json}");
        assert!(json.contains("\"records_committed\": 8"), "{json}");
        let lag = &json[json.find("\"commit_lag_seconds\": {").expect("lag section")..];
        assert!(lag.contains("\"count\": 2"), "{json}");
        assert!(lag.contains("\"max\": 0.004"), "{json}");
        assert_eq!(m.commit_lag_summary().min, 0.002);
        assert!(json.contains("\"backend\": \"wal\""), "{json}");
        assert!(json.contains("\"wal_appends\": 12"), "{json}");
        assert!(json.contains("\"group_commits\": 3"), "{json}");
        assert!(json.contains("\"recovery_replayed_records\": 7"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",\n  }"), "{json}");
        // The storage-less snapshot keeps the original schema.
        let plain = m.snapshot_json(0);
        assert!(plain.contains("\"schema\": 1"));
        assert!(!plain.contains("commit_lag_seconds"), "{plain}");
    }

    #[test]
    fn trace_sink_derives_recovery_counters() {
        let metrics = Arc::new(Metrics::new());
        let sink = TraceMetricsSink::new(metrics.clone());
        let ev = |kind| TraceEvent { at: 1.0, kind };
        sink.record(&ev(TraceKind::RetryScheduled {
            activity: "a".into(),
            slot: 0,
            attempt: 2,
            fire_at: 5.0,
        }));
        sink.record(&ev(TraceKind::TaskSettled {
            activity: "a".into(),
            task: 1,
            outcome: TaskOutcome::Crashed,
            reason: "heartbeat-loss".into(),
        }));
        // A crash that was *reported* (not presumed) must not count.
        sink.record(&ev(TraceKind::TaskSettled {
            activity: "a".into(),
            task: 2,
            outcome: TaskOutcome::Crashed,
            reason: "done-without-task-end".into(),
        }));
        sink.record(&ev(TraceKind::EngineCheckpoint { ok: true }));
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!(get(&metrics.counters.task_retries), 1);
        assert_eq!(get(&metrics.counters.tasks_presumed_dead), 1);
        let json = metrics.snapshot_json(0);
        assert!(json.contains("\"task_retries\": 1"), "{json}");
        assert!(json.contains("\"tasks_presumed_dead\": 1"), "{json}");
    }

    #[test]
    fn trace_sink_derives_foreach_item_counters() {
        let metrics = Arc::new(Metrics::new());
        let sink = TraceMetricsSink::new(metrics.clone());
        let ev = |kind| TraceEvent { at: 1.0, kind };
        for (item, outcome) in [(0, "done"), (1, "skipped"), (2, "cancelled")] {
            sink.record(&ev(TraceKind::ItemSettled {
                activity: "map".into(),
                item,
                outcome: outcome.into(),
                attempts: 1,
            }));
        }
        sink.record(&ev(TraceKind::ItemDeadLettered {
            activity: "map".into(),
            item: 3,
            attempts: 2,
            reason: "crash".into(),
        }));
        sink.record(&ev(TraceKind::ItemReprocessed {
            activity: "map".into(),
            item: 3,
        }));
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!(get(&metrics.counters.items_settled), 3);
        assert_eq!(get(&metrics.counters.items_dead_lettered), 1);
        assert_eq!(get(&metrics.counters.items_reprocessed), 1);
        let json = metrics.snapshot_json(0);
        assert!(json.contains("\"items_settled\": 3"), "{json}");
        assert!(json.contains("\"items_dead_lettered\": 1"), "{json}");
        assert!(json.contains("\"items_reprocessed\": 1"), "{json}");
    }

    #[test]
    fn trace_sink_derives_resilient_scheduling_counters() {
        let metrics = Arc::new(Metrics::new());
        let sink = TraceMetricsSink::new(metrics.clone());
        let ev = |kind| TraceEvent { at: 1.0, kind };
        sink.record(&ev(TraceKind::Rereplicate {
            activity: "a".into(),
            slot: 0,
            from: "h1".into(),
            to: "h2".into(),
            phi: 5.0,
        }));
        // A steered retry counts; an initial placement (attempt 1) and an
        // unsteered retry do not.
        sink.record(&ev(TraceKind::PlacementScored {
            activity: "a".into(),
            slot: 0,
            attempt: 2,
            host: "h2".into(),
            score: 0.5,
            steered: true,
        }));
        sink.record(&ev(TraceKind::PlacementScored {
            activity: "a".into(),
            slot: 0,
            attempt: 1,
            host: "h1".into(),
            score: 0.0,
            steered: true,
        }));
        sink.record(&ev(TraceKind::PlacementScored {
            activity: "a".into(),
            slot: 0,
            attempt: 3,
            host: "h1".into(),
            score: 0.0,
            steered: false,
        }));
        sink.record(&ev(TraceKind::CkptIntervalAdapted {
            host: "h2".into(),
            interval: 6.3,
            mttf: 20.0,
        }));
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!(get(&metrics.counters.rereplications), 1);
        assert_eq!(get(&metrics.counters.steered_retries), 1);
        assert_eq!(get(&metrics.counters.adaptive_ckpt_updates), 1);
        let json = metrics.snapshot_json(0);
        assert!(json.contains("\"rereplications\": 1"), "{json}");
        assert!(json.contains("\"steered_retries\": 1"), "{json}");
        assert!(json.contains("\"adaptive_ckpt_updates\": 1"), "{json}");
    }

    #[test]
    fn false_suspicions_dedupe_per_attempt_but_zombies_count_each() {
        let metrics = Arc::new(Metrics::new());
        let sink = TraceMetricsSink::new(metrics.clone());
        let ev = |kind| TraceEvent { at: 1.0, kind };
        // Attempt 7 sends three late heartbeats then its zombie Done; it
        // refuted its suspicion exactly once.
        for seq in 0..3 {
            sink.record(&ev(TraceKind::LateHeartbeat {
                activity: "a".into(),
                task: 7,
                seq,
            }));
        }
        sink.record(&ev(TraceKind::ZombieCompletion {
            activity: "a".into(),
            task: 7,
            body: "done".into(),
        }));
        // Attempt 9's only evidence is a zombie completion.
        sink.record(&ev(TraceKind::ZombieCompletion {
            activity: "b".into(),
            task: 9,
            body: "exception".into(),
        }));
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!(get(&metrics.counters.false_suspicions), 2);
        assert_eq!(get(&metrics.counters.zombie_completions), 2);
        let json = metrics.snapshot_json(0);
        assert!(json.contains("\"false_suspicions\": 2"), "{json}");
        assert!(json.contains("\"zombie_completions\": 2"), "{json}");
    }

    #[test]
    fn latency_summary_of_empty_registry_is_zero() {
        let m = Metrics::new();
        let l = m.latency_summary();
        assert_eq!(l.count, 0);
        assert_eq!(l.max, 0.0);
    }

    #[test]
    fn histogram_percentiles_track_exact_within_bucket_resolution() {
        let m = Metrics::new();
        // Deterministic spread over four decades (0.5ms .. ~5s), the range
        // real admission-to-terminal latencies live in.
        let mut samples: Vec<f64> = Vec::new();
        let mut z = 1u64;
        for _ in 0..10_000 {
            z = gridwfs_chaos::splitmix64(z);
            let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
            samples.push(5e-4 * 10f64.powf(4.0 * frac));
        }
        for &v in &samples {
            m.observe_latency(v);
        }
        samples.sort_by(f64::total_cmp);
        let l = m.latency_summary();
        assert_eq!(l.count, 10_000);
        assert_eq!(l.min, samples[0], "min is exact");
        assert_eq!(l.max, samples[samples.len() - 1], "max is exact");
        let exact_mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((l.mean / exact_mean - 1.0).abs() < 1e-9, "mean is exact");
        for (got, q) in [(l.p50, 0.50), (l.p90, 0.90), (l.p99, 0.99)] {
            let want = percentile(&samples, q);
            let rel = (got / want - 1.0).abs();
            assert!(
                rel < 0.07,
                "p{} off by {:.1}% (histogram {got}, exact {want})",
                (q * 100.0) as u32,
                rel * 100.0
            );
        }
    }

    #[test]
    fn histogram_memory_is_fixed_and_extremes_clamp() {
        let m = Metrics::new();
        // A million samples is far past any Vec-backed design's comfort
        // zone; the histogram stays at HISTO_BUCKETS words regardless.
        for i in 0..1_000_000u64 {
            m.observe_latency((i % 1000) as f64 * 1e-3);
        }
        m.observe_latency(0.0); // below the floor bucket
        m.observe_latency(1e9); // beyond the top bucket
        let l = m.latency_summary();
        assert_eq!(l.count, 1_000_002);
        assert_eq!(l.min, 0.0);
        assert_eq!(l.max, 1e9);
        assert!(l.p50 > 0.0 && l.p50 <= l.max);
        assert!(l.p99 >= l.p50 && l.p99 <= l.max);
    }

    #[test]
    fn histogram_is_lock_free_across_threads() {
        let m = Arc::new(Metrics::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        m.observe_latency((t * 1000 + i) as f64 * 1e-4);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let l = m.latency_summary();
        assert_eq!(l.count, 4000, "no sample lost to a race");
        assert_eq!(l.min, 0.0);
        assert!(m.snapshot_json(0).contains("\"count\": 4000"));
    }

    #[test]
    fn one_sample_summary_reports_the_sample_not_the_bucket() {
        let m = Metrics::new();
        m.observe_latency(0.0123);
        let l = m.latency_summary();
        assert_eq!(l.min, 0.0123);
        assert_eq!(l.max, 0.0123);
        // The midpoint of 0.0123's bucket is not 0.0123, but clamping to
        // [min, max] collapses every percentile onto the only sample.
        assert_eq!(l.p50, 0.0123);
        assert_eq!(l.p99, 0.0123);
    }
}
