//! Federated serve: lease-owned job shards with replica takeover.
//!
//! A federated fleet is M in-process services sharing one storage
//! backend.  Each admitted job is *owned* by exactly one replica through
//! an expiring lease record (`job-<id>.lease`: owner id, fencing epoch,
//! expiry) committed in the same group commit as the admission batch.
//! Ownership is the whole protocol:
//!
//! * **Renewal** — a heartbeat thread re-stamps every owned lease's
//!   expiry in one group commit per tick (the fencing line — owner +
//!   epoch — never changes on renewal, so staged preconditions stay
//!   valid across renewals).
//! * **Fencing** — every state batch a replica flushes for a job is
//!   prefixed with [`Op::Check`] on the job's lease carrying the owner's
//!   fencing line.  The storage backend evaluates the precondition
//!   atomically with the commit: a paused old owner that wakes up after
//!   losing its lease has the *whole* batch rejected — it can never
//!   double-settle a job a peer already owns.  This is the PR-5 zombie
//!   epoch discipline, moved down into the storage layer.
//! * **Takeover** — a slower sweep on the same heartbeat thread (once
//!   per TTL, not every renewal tick: the sweep is O(records) while
//!   renewal must land within the TTL, so renewal never queues behind
//!   it) scans for unfinished jobs whose lease has expired (or is
//!   missing/corrupt) and claims them by compare-and-swap: `Check` the
//!   old fencing line (or `CheckAbsent`), `Put` a fresh lease with the
//!   epoch bumped.  Exactly one racing replica wins; the winner drives
//!   the orphan through the ordinary crash-recovery path — checkpoint
//!   resume, elapsed-ledger deadline budget, incarnation-tagged journal
//!   append.  A claim the winner then cannot admit locally is walked
//!   back (lease deleted under its own fence) so any replica's next
//!   sweep retries it, rather than this one renewing a job it will
//!   never run.
//!
//! ## Clock assumptions
//!
//! Lease expiry compares a wall-clock deadline stamped by the owner
//! against the observer's wall clock, so the protocol assumes fleet
//! clocks agree to well within one TTL: configure `lease_ttl` ≫ the
//! expected cross-replica skew (and NTP step size).  Skew or a forward
//! clock step larger than that margin can expire a *live* owner's lease
//! early.  Safety still holds — the epoch-bumped CAS fences the old
//! owner's writes, so the job settles exactly once — but the fleet pays
//! for it with a duplicated execution and a `write_fenced`/cancel on the
//! deposed owner.  A clock before the unix epoch reads as 0 and would
//! make every lease look permanently expired; don't run a fleet there.
//!
//! Lease traffic never reaches the per-job journals except for the two
//! deterministic events (`lease_takeover`, `write_fenced`, both at
//! t=0.0 with job + epoch only): renewals and expiry observations are
//! wall-clock-paced and land in the service ring and the counters, so
//! paired chaos runs still produce byte-identical journals.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, SystemTime};

use gridwfs_chaos::relock;
use gridwfs_storage::{is_fence_conflict, Op};
use gridwfs_trace::{JsonlSink, TraceEvent, TraceKind, TraceSink};

use crate::job::{JobId, JobRecord, JobState};
use crate::metrics::Metrics;
use crate::recover::{self, Lease};
use crate::service::Shared;

/// Wall-clock seconds since the unix epoch: the one clock every replica
/// of a fleet (and every restart of a replica) shares.
pub(crate) fn now_unix() -> f64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// Per-replica federation state: which jobs this replica owns (and at
/// which fencing epoch), plus the heartbeat thread's shutdown latch.
pub(crate) struct Federation {
    /// This replica's stable identity (the lease owner string).
    pub(crate) replica: String,
    /// Lease validity window; renewals run every `ttl / 4`.
    pub(crate) ttl: f64,
    /// Jobs this replica currently owns → the fencing epoch its lease
    /// carries.  The source of truth is storage; this mirror is what
    /// lets a flush stage its `Check` ops without re-reading leases.
    owned: Mutex<HashMap<u64, u64>>,
    /// Serializes this replica's lease-affecting commits (flushes,
    /// renewals, claims) so `owned` never disagrees with storage about
    /// the replica's *own* actions — a fence conflict therefore always
    /// means a peer interfered, which is exactly when fencing events
    /// should fire.
    commit: Mutex<()>,
    /// Test/maintenance hook: a paused federation stops renewing and
    /// scanning, so its leases expire on schedule (the zombie drill).
    paused: AtomicBool,
    stop: Mutex<bool>,
    wake: Condvar,
}

impl Federation {
    pub(crate) fn new(replica: String, ttl: Duration) -> Federation {
        Federation {
            replica,
            ttl: ttl.as_secs_f64().max(0.05),
            owned: Mutex::new(HashMap::new()),
            commit: Mutex::new(()),
            paused: AtomicBool::new(false),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    /// A fresh lease payload owned by this replica at `epoch`.
    pub(crate) fn lease_payload(&self, epoch: u64) -> Vec<u8> {
        Lease {
            owner: self.replica.clone(),
            epoch,
            expires_at: now_unix() + self.ttl,
        }
        .payload()
    }

    /// The stable fencing line guarded batches check for.
    fn fence(&self, epoch: u64) -> Vec<u8> {
        Lease::fence_prefix(&self.replica, epoch)
    }

    pub(crate) fn adopt(&self, job: u64, epoch: u64) {
        relock(&self.owned).insert(job, epoch);
    }

    pub(crate) fn disown(&self, job: u64) {
        relock(&self.owned).remove(&job);
    }

    pub(crate) fn owns(&self, job: u64) -> bool {
        relock(&self.owned).contains_key(&job)
    }

    pub(crate) fn set_paused(&self, paused: bool) {
        self.paused.store(paused, Ordering::Relaxed);
    }

    pub(crate) fn request_stop(&self) {
        *relock(&self.stop) = true;
        self.wake.notify_all();
    }

    /// Sleeps the heartbeat interval; true once shutdown was requested.
    fn wait_tick(&self, tick: Duration) -> bool {
        let mut stop = relock(&self.stop);
        if !*stop {
            let (guard, _) = self
                .wake
                .wait_timeout(stop, tick)
                .unwrap_or_else(|e| e.into_inner());
            stop = guard;
        }
        *stop
    }
}

/// Appends a deterministic lease event (takeover / fenced write) to the
/// job's journal, if the service keeps journals.  Always at t=0.0: these
/// mark incarnation boundaries, not engine time.
fn journal_event(shared: &Shared, id: JobId, kind: TraceKind) {
    let Some(dir) = &shared.cfg.trace_dir else {
        return;
    };
    if let Ok(sink) = JsonlSink::append(recover::trace_path(dir, id)) {
        sink.record(&TraceEvent { at: 0.0, kind });
        sink.flush();
    }
}

/// The job has been fenced: a peer holds (or replaced) its lease.  Drop
/// local claims to it — journal the fenced write, bump the counter, stop
/// any running engine, and settle the local record without touching
/// storage (the new owner's records are authoritative).
fn note_fenced(shared: &Shared, fed: &Federation, job: u64, epoch: u64) {
    fed.disown(job);
    Metrics::incr(&shared.metrics.counters.fenced_writes);
    let kind = TraceKind::WriteFenced { job, epoch };
    journal_event(shared, JobId(job), kind.clone());
    shared.trace(kind);
    let mut shard = shared.table.shard(job);
    if let Some(rec) = shard.jobs.get_mut(&job) {
        match rec.state {
            JobState::Queued => {
                rec.cancel_requested = true;
                rec.state = JobState::Cancelled;
                rec.finished_at = Some(shared.now());
                rec.detail = Some("lease lost: job taken over by a peer replica".into());
            }
            JobState::Running => {
                // Abort the engine through the ordinary cancel path; its
                // terminal write will be dropped (no longer owned).
                rec.cancel_requested = true;
                if let Some(stop) = shard.stops.get(&job) {
                    stop.store(true, Ordering::Relaxed);
                }
            }
            _ => {}
        }
    }
}

/// The federated replacement for the scheduler's plain group commit:
/// every staged write is grouped by job and prefixed with a `Check` on
/// the job's lease, so the whole window commits if and only if this
/// replica still owns everything it is writing.  On a fence conflict the
/// batch is split per job and retried, so one lost lease never vetoes
/// the other jobs' progress.
pub(crate) fn flush_fenced(shared: &Shared, fed: &Federation, ops: Vec<Op>) {
    let Some(st) = &shared.storage else {
        return;
    };
    let _commit = relock(&fed.commit);
    // Group by job, preserving staging order inside each group.
    let mut jobs: Vec<(u64, Vec<Op>)> = Vec::new();
    for (job, ops) in recover::group_by_job(ops) {
        match job {
            Some(job) => jobs.push((job, ops)),
            None => {
                for (name, e) in st.apply(ops) {
                    eprintln!("gridwfs-serve: batched state write failed for {name}: {e}");
                }
            }
        }
    }
    // Fast path: one guarded batch for the whole window.
    let epochs: Vec<Option<u64>> = {
        let owned = relock(&fed.owned);
        jobs.iter()
            .map(|(job, _)| owned.get(job).copied())
            .collect()
    };
    // Jobs with no owned epoch were already fenced: their writes are void.
    let mut guarded: Vec<(u64, u64, Vec<Op>)> = Vec::new();
    for ((job, ops), epoch) in jobs.into_iter().zip(epochs) {
        if let Some(epoch) = epoch {
            guarded.push((job, epoch, ops));
        }
    }
    if guarded.is_empty() {
        return;
    }
    let settled: Vec<u64> = guarded
        .iter()
        .filter(|(job, _, ops)| {
            ops.iter()
                .any(|op| matches!(op, Op::Del(n) if *n == recover::lease_name(JobId(*job))))
        })
        .map(|(job, _, _)| *job)
        .collect();
    let combined: Vec<Op> = guarded
        .iter()
        .flat_map(|(job, epoch, ops)| {
            std::iter::once(Op::Check(
                recover::lease_name(JobId(*job)),
                fed.fence(*epoch),
            ))
            .chain(ops.iter().cloned())
        })
        .collect();
    let errors = st.apply(combined);
    if errors.is_empty() {
        for job in settled {
            fed.disown(job);
        }
        return;
    }
    if !errors.iter().any(|(_, e)| is_fence_conflict(e)) {
        // Preconditions held; these are ordinary storage errors.
        for (name, e) in errors {
            eprintln!("gridwfs-serve: batched state write failed for {name}: {e}");
        }
        for job in settled {
            fed.disown(job);
        }
        return;
    }
    // Some job's lease is gone (a fence conflict rejects the whole
    // combined batch before any mutation).  Retry one job at a time so
    // only the fenced jobs lose their writes.
    for (job, epoch, ops) in guarded {
        let mut batch = vec![Op::Check(recover::lease_name(JobId(job)), fed.fence(epoch))];
        batch.extend(ops);
        let errors = st.apply(batch);
        if errors.iter().any(|(_, e)| is_fence_conflict(e)) {
            note_fenced(shared, fed, job, epoch);
            continue;
        }
        for (name, e) in errors {
            eprintln!("gridwfs-serve: batched state write failed for {name}: {e}");
        }
        if settled.contains(&job) {
            fed.disown(job);
        }
    }
}

/// A fenced direct terminal write (cancel-while-queued and friends):
/// result marker, purge and lease removal in one guarded commit.
pub(crate) fn write_result_fenced(
    shared: &Shared,
    fed: &Federation,
    id: JobId,
    state: &str,
    detail: &str,
) {
    let Some(st) = &shared.storage else {
        return;
    };
    let _commit = relock(&fed.commit);
    let Some(epoch) = relock(&fed.owned).get(&id.0).copied() else {
        return;
    };
    let mut ops = vec![Op::Check(recover::lease_name(id), fed.fence(epoch))];
    ops.extend(recover::terminal_ops(id, state, detail));
    ops.push(Op::Del(recover::lease_name(id)));
    let errors = st.apply(ops);
    if errors.iter().any(|(_, e)| is_fence_conflict(e)) {
        note_fenced(shared, fed, id.0, epoch);
        return;
    }
    for (name, e) in errors {
        eprintln!("gridwfs-serve: terminal write failed for {name}: {e}");
    }
    fed.disown(id.0);
}

/// Renews every owned lease in one group commit.  A renewal keeps the
/// fencing line (owner + epoch) and only pushes the expiry out, so the
/// `Check` each job's in-flight batches carry stays valid.
fn renew_leases(shared: &Shared, fed: &Federation) {
    let Some(st) = &shared.storage else {
        return;
    };
    let _commit = relock(&fed.commit);
    let snapshot: Vec<(u64, u64)> = relock(&fed.owned)
        .iter()
        .map(|(&job, &epoch)| (job, epoch))
        .collect();
    if snapshot.is_empty() {
        return;
    }
    let ops: Vec<Op> = snapshot
        .iter()
        .flat_map(|&(job, epoch)| {
            let name = recover::lease_name(JobId(job));
            [
                Op::Check(name.clone(), fed.fence(epoch)),
                Op::Put(name, fed.lease_payload(epoch)),
            ]
        })
        .collect();
    let renew_ok = |n: usize| {
        for _ in 0..n {
            Metrics::incr(&shared.metrics.counters.leases_renewed);
        }
    };
    let errors = st.apply(ops);
    if errors.is_empty() {
        renew_ok(snapshot.len());
        return;
    }
    if !errors.iter().any(|(_, e)| is_fence_conflict(e)) {
        return; // storage trouble; the next tick retries
    }
    // At least one lease was claimed by a peer: renew the rest one at a
    // time and fence the losses.
    for (job, epoch) in snapshot {
        let name = recover::lease_name(JobId(job));
        let errors = st.apply(vec![
            Op::Check(name.clone(), fed.fence(epoch)),
            Op::Put(name, fed.lease_payload(epoch)),
        ]);
        if errors.iter().any(|(_, e)| is_fence_conflict(e)) {
            note_fenced(shared, fed, job, epoch);
        } else if errors.is_empty() {
            renew_ok(1);
        }
    }
}

/// Walks back a lease this replica minted but cannot serve: disown the
/// job and delete the lease, guarded by its own fence so only *our*
/// lease is ever removed.  The job is then immediately claimable by any
/// replica's next sweep, instead of this replica renewing a lease for a
/// job it will never run.
fn release_claim(shared: &Shared, fed: &Federation, id: JobId, epoch: u64) {
    fed.disown(id.0);
    let Some(st) = &shared.storage else {
        return;
    };
    let _commit = relock(&fed.commit);
    let name = recover::lease_name(id);
    let _ = st.apply(vec![
        Op::Check(name.clone(), fed.fence(epoch)),
        Op::Del(name),
    ]);
}

/// Tries to claim `id`'s lease with `claim` ops (a CAS: check the old
/// fencing line or absence, put the new lease).  True if this replica
/// won the race.
fn try_claim(
    shared: &Shared,
    fed: &Federation,
    id: JobId,
    prior: Option<&Lease>,
    epoch: u64,
) -> bool {
    let Some(st) = &shared.storage else {
        return false;
    };
    {
        let _commit = relock(&fed.commit);
        let name = recover::lease_name(id);
        let precondition = match prior {
            Some(l) => Op::Check(name.clone(), Lease::fence_prefix(&l.owner, l.epoch)),
            None => Op::CheckAbsent(name.clone()),
        };
        let errors = st.apply(vec![precondition, Op::Put(name, fed.lease_payload(epoch))]);
        if !errors.is_empty() {
            return false; // a peer won, or storage trouble — either way, skip
        }
    }
    // The old owner may have settled the job between our scan and the
    // claim on a backend snapshot where the lease was already gone
    // (CheckAbsent path).  A terminal job must stay terminal: release
    // the lease we just minted and walk away.
    if st.exists(&recover::result_name(id)) {
        release_claim(shared, fed, id, epoch);
        return false;
    }
    fed.adopt(id.0, epoch);
    true
}

/// Admits a claimed orphan into the local table and queue, riding the
/// same re-admission path a restart recovery uses.
fn admit_takeover(
    shared: &Arc<Shared>,
    id: JobId,
    epoch: u64,
    takeover: bool,
) -> Result<(), String> {
    let Some(st) = &shared.storage else {
        return Ok(());
    };
    let sub = recover::load_job(st.as_ref(), id)?;
    // Journal the takeover *before* the job becomes poppable: once it is
    // pushed, a worker may immediately append the next incarnation's
    // `job_start` header, and the journal's event order must not depend
    // on that race.
    if takeover {
        Metrics::incr(&shared.metrics.counters.takeovers);
        let kind = TraceKind::LeaseTakeover { job: id.0, epoch };
        journal_event(shared, id, kind.clone());
        shared.trace(kind);
    }
    let mut record = JobRecord::new(id, sub.name.clone(), shared.now(), true);
    record.recovered = true;
    {
        let mut shard = shared.table.shard(id.0);
        shard.jobs.insert(id.0, record);
        shard.subs.insert(id.0, sub);
    }
    if shared.queue.force_push(id).is_err() {
        // Undo the table insert: a job that can never be popped must not
        // linger as a phantom `Queued` record.
        let mut shard = shared.table.shard(id.0);
        shard.jobs.remove(&id.0);
        shard.subs.remove(&id.0);
        return Err("queue closed during takeover".to_string());
    }
    Metrics::incr(&shared.metrics.counters.recovered);
    Metrics::incr(&shared.metrics.counters.submitted);
    shared.trace(TraceKind::JobRecovered { job: id.0 });
    Ok(())
}

/// One takeover sweep: find unfinished jobs this replica does not own,
/// and claim the ones whose lease is expired, missing, or corrupt.
fn scan_for_takeovers(shared: &Arc<Shared>, fed: &Federation) {
    let Some(st) = &shared.storage else {
        return;
    };
    let Ok(names) = st.list() else {
        return;
    };
    let mut metas: Vec<u64> = Vec::new();
    let mut results: HashSet<u64> = HashSet::new();
    for name in &names {
        if let Some(job) = recover::record_job(name) {
            if name.ends_with(".meta") {
                metas.push(job);
            } else if name.ends_with(".result") {
                results.insert(job);
            }
        }
    }
    metas.sort_unstable();
    let now = now_unix();
    for job in metas {
        if results.contains(&job) || fed.owns(job) {
            continue;
        }
        let id = JobId(job);
        let (prior, epoch) = match recover::read_lease(st.as_ref(), id) {
            Ok(Some(lease)) => {
                if !lease.expired(now) {
                    continue; // a peer is live and owns it
                }
                Metrics::incr(&shared.metrics.counters.lease_expirations);
                shared.trace(TraceKind::LeaseExpired {
                    job,
                    epoch: lease.epoch,
                });
                let epoch = lease.epoch + 1;
                (Some(lease), epoch)
            }
            // A torn admission left a job with no lease at all: first
            // claimer owns it at epoch 1.
            Ok(None) => (None, 1),
            Err(why) => {
                // A corrupt lease must not wedge the fleet.  Move it
                // aside and mint epoch 1: the zombie's staged prefix
                // checks can never match a freshly minted lease.
                recover::quarantine_record(st.as_ref(), &recover::lease_name(id), &why);
                Metrics::incr(&shared.metrics.counters.quarantined);
                (None, 1)
            }
        };
        if try_claim(shared, fed, id, prior.as_ref(), epoch) {
            if let Err(e) = admit_takeover(shared, id, epoch, true) {
                // We hold a lease for a job we could not admit (e.g. a
                // transient read fault loading its records).  Holding on
                // would renew that lease forever while the job never
                // runs anywhere: walk the claim back so the next sweep —
                // ours or a peer's — retries the takeover.
                eprintln!("gridwfs-serve: takeover of {id} failed: {e}");
                release_claim(shared, fed, id, epoch);
            }
        }
    }
}

/// Renewal ticks between takeover sweeps: renewals run every `ttl / 4`,
/// the sweep once per TTL.  Renewal is a group commit over this
/// replica's own leases and *must* land within the TTL; the sweep is
/// `st.list()` plus a lease read per unfinished job — O(total records)
/// — and merely bounds takeover latency (an orphan waits at most one
/// extra sweep period on top of its lease expiry), so it runs on the
/// slower cadence and never starves renewal at large job counts.
const TICKS_PER_SCAN: u32 = 4;

/// The federation heartbeat: renew owned leases every tick and sweep
/// for expired peers every [`TICKS_PER_SCAN`] ticks until shutdown.
/// One thread per live replica.
pub(crate) fn heartbeat_loop(shared: Arc<Shared>) {
    let Some(fed) = shared.federate.clone() else {
        return;
    };
    let tick = Duration::from_secs_f64((fed.ttl / 4.0).max(0.01));
    let mut ticks = 0u32;
    loop {
        if fed.wait_tick(tick) {
            return;
        }
        if fed.paused.load(Ordering::Relaxed) {
            continue;
        }
        renew_leases(&shared, &fed);
        ticks = ticks.wrapping_add(1);
        // A draining replica keeps renewing what it already runs but
        // stops adopting orphans — they are the surviving fleet's work.
        if ticks.is_multiple_of(TICKS_PER_SCAN) && shared.accepting.load(Ordering::Relaxed) {
            scan_for_takeovers(&shared, &fed);
        }
    }
}

/// Federated restart admission: re-admit scanned jobs under the lease
/// discipline instead of unconditionally.  Our own jobs are reclaimed at
/// a bumped epoch (fencing any batch our previous incarnation left in
/// flight); expired peers are taken over; live peers are skipped.
pub(crate) fn admit_scanned(shared: &Arc<Shared>, scanned: recover::Scan) -> Result<(), String> {
    let fed = shared.federate.clone().expect("federated admission");
    let now = now_unix();
    for (id, _sub) in scanned.jobs {
        let (prior, epoch, takeover) = match scanned.leases.get(&id.0) {
            None => (None, 1, false),
            Some(lease) if lease.owner == fed.replica => {
                (Some(lease.clone()), lease.epoch + 1, false)
            }
            Some(lease) if lease.expired(now) => {
                Metrics::incr(&shared.metrics.counters.lease_expirations);
                shared.trace(TraceKind::LeaseExpired {
                    job: id.0,
                    epoch: lease.epoch,
                });
                (Some(lease.clone()), lease.epoch + 1, true)
            }
            Some(_) => continue, // a live peer owns it
        };
        if try_claim(shared, &fed, id, prior.as_ref(), epoch) {
            if let Err(e) = admit_takeover(shared, id, epoch, takeover) {
                // Startup is about to fail: release the claim so the job
                // is immediately up for grabs instead of waiting out a
                // lease nobody will renew.
                release_claim(shared, &fed, id, epoch);
                return Err(e);
            }
        }
    }
    Ok(())
}
