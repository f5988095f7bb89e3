//! The cooperative work-stealing scheduler.
//!
//! The old worker loop parked an OS thread inside `Engine::run()` for the
//! whole life of a job — a paced workflow spent most of that time asleep
//! between notifications, and throughput was hard-capped at one job per
//! worker thread.  This scheduler multiplexes many paused engines over
//! the same pool instead, built on `Engine::step()`:
//!
//! * each worker owns a **run queue** of runnable engine instances and
//!   steps them in slices of [`SLICE_STEPS`] engine turns, so one huge
//!   virtual workflow cannot monopolise a thread;
//! * an engine that reports `Idle { wake_at }` moves to the worker's
//!   **timer heap** keyed by the wall instant its executor clock says to
//!   re-poll; it costs nothing until it is due;
//! * an idle worker **steals** half of a sibling's run queue (the classic
//!   deque split) before parking, so load imbalance self-corrects;
//! * a worker below its in-flight cap parks on the admission queue —
//!   bounded by its next timer so wakes never slip — and otherwise
//!   sleeps until the next timer;
//! * terminal markers, elapsed ledgers, and engine checkpoints are
//!   staged on a per-worker [`StateBatch`] and group-committed once per
//!   **commit window** through [`gridwfs_storage::Storage::apply`]: one
//!   durability point (one WAL fsync) amortised over every settlement of
//!   the window instead of one per settlement.
//!
//! ## The commit window
//!
//! A virtual-time job finishes inside one slice, so "nothing runnable"
//! comes round after every job; committing there is one fsync per job.
//! Instead, a worker that holds staged writes and has room under
//! `max_in_flight` first waits on the admission queue for what is left of
//! [`COMMIT_WINDOW`] (counted from the first staging of the batch, and
//! never past its next timer wake).  An arrival is picked up and run, and
//! its settlement joins the batch.  The batch is committed when
//!
//! * that wait times out with nothing admitted,
//! * its oldest staged write is a window old — checked after every slice,
//!   so a steady trickle of arrivals cannot postpone durability,
//! * it holds [`BATCH_MAX`] writes,
//! * the worker is at capacity (or draining after close) and has nothing
//!   runnable, or
//! * the worker exits (queue closed and drained, or hard abort).
//!
//! **Durability bound:** a staged write reaches `apply` within
//! `COMMIT_WINDOW` plus one slice of its staging.  A job's record turns
//! terminal in the table (and `wait_all_terminal` sees it) when its run
//! settles, *before* its marker is durable; the marker, its dead-letter
//! record and the purge of its workflow, checkpoint and elapsed ledger
//! commit together, at most a window later (a run that parked
//! dead-lettered items commits its last checkpoint instead of the purge;
//! see `crate::recover`).  A checkpoint is encoded at the end of a slice
//! in which the engine took one, not at each of the engine's checkpoints,
//! and not at all when that slice's settle staged the purge: a virtual
//! job that finishes inside one slice never encodes a checkpoint.  A crash
//! inside the window therefore loses markers that were staged but not
//! committed, and their purges with them: those jobs still have their
//! admission records, so the next incarnation re-admits them and re-runs
//! each from its last *committed* checkpoint (from scratch for a job that
//! started and finished inside the lost window).  Every job still ends
//! with exactly one result record.
//!
//! A committed checkpoint is the instance at the end of a slice, in-flight
//! attempts written as `pending` (as an aborting engine writes them), not
//! the instance at the slice's last settlement: a restart resubmits those
//! attempts and never an activity the document records as done.
//!
//! A run's staged checkpoint never sits in one worker's batch while the
//! run is where another worker can steal it: [`requeue`] moves it out of
//! the batch and onto the [`Run`], and whoever slices the run next stages
//! it again before anything newer.  So the checkpoints of one job are
//! committed in the order they were written, whichever workers ran it,
//! and none lands after the purge that deletes it.
//!
//! Concurrency is opt-in: [`crate::ServiceConfig::max_in_flight`]
//! defaults to 1, which reproduces the old one-job-per-worker admission
//! behaviour exactly (stealing still lets an idle worker pick up a
//! sibling's runnable backlog).  The loadgen headline runs with
//! `max_in_flight` in the tens.
//!
//! Every engine slice and every engine build runs under `catch_unwind`:
//! a panicking workflow settles as `Failed` and the scheduler thread
//! survives (see [`crate::worker::note_panic`]).

use std::collections::{BinaryHeap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use grid_wfs::engine::{Report, StepOutcome};
use gridwfs_chaos::relock;
use gridwfs_storage::Op;
use gridwfs_trace::JsonlSink;

use crate::job::{JobId, JobState};
use crate::metrics::Metrics;
use crate::queue::Pop;
use crate::service::Shared;
use crate::worker::{self, AnyEngine};

/// Engine turns per slice before a runnable engine yields the thread.
pub(crate) const SLICE_STEPS: usize = 256;

/// Re-poll period for an engine that is waiting on in-flight work with no
/// deadline of its own (`Idle { wake_at: None }`).
const IDLE_TICK: Duration = Duration::from_millis(1);

/// Admission-queue park bound; also the steal re-check period for a
/// worker at capacity.
const POLL: Duration = Duration::from_millis(25);

/// Staged state-dir writes that force a group commit mid-window.
const BATCH_MAX: usize = 256;

/// How long a worker holding staged writes waits for further settlements
/// to join them before it commits (see the module docs).  The durability
/// lag of a settlement is at most this plus one slice.  2 ms is about ten
/// WAL fsyncs on the bench host: EXPERIMENTS.md "What a group commit
/// groups" has the 1 / 2 / 4 ms rows this value was picked from.
pub const COMMIT_WINDOW: Duration = Duration::from_millis(2);

/// One paused (or runnable) engine instance and its per-job plumbing.
pub(crate) struct Run {
    pub(crate) id: JobId,
    pub(crate) engine: AnyEngine,
    pub(crate) journal: Option<Arc<JsonlSink>>,
    /// The record the run's checkpoints commit to, and the dirty flag its
    /// [`grid_wfs::CheckpointSink`] sets at every checkpoint the engine
    /// takes.  After a slice that set it, the worker encodes the instance
    /// once, as it stands at the end of the slice (in-flight attempts
    /// written as `pending`), and stages that document on its
    /// [`StateBatch`]; a run whose settle staged its purge, or whose slice
    /// panicked, encodes nothing.
    pub(crate) checkpoint: Option<(String, worker::CheckpointCell)>,
    /// A checkpoint that was staged but not yet committed when the run
    /// last became stealable, with the age of the batch it left (see
    /// [`requeue`]).  The next slicer stages it before anything newer.
    pub(crate) carried: Option<(Instant, Vec<u8>)>,
    /// Pickup instant; `run_wall` on the record is pickup-to-settle.
    pub(crate) started: Instant,
}

/// A run waiting for its wall-clock wake time, in a worker's timer heap.
struct Sleeper {
    wake: Instant,
    /// Tie-break so same-instant sleepers wake in insertion order.
    seq: u64,
    run: Run,
}

impl PartialEq for Sleeper {
    fn eq(&self, other: &Self) -> bool {
        self.wake == other.wake && self.seq == other.seq
    }
}
impl Eq for Sleeper {}
impl PartialOrd for Sleeper {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Sleeper {
    // Reversed: BinaryHeap is a max-heap, we want the earliest wake on top.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .wake
            .cmp(&self.wake)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Per-worker staged state writes, group-committed once per commit window
/// (module docs).  `stage` replaces any pending write to the same record,
/// so a batch holds at most one (the latest) version of each record — same
/// end state a sequence of synchronous single-record puts leaves.
///
/// Nothing staged here is durable, and nothing here is visible through
/// the storage backend, until [`StateBatch::flush`] returns.
#[derive(Default)]
pub(crate) struct StateBatch {
    /// `Some(data)` stages a put, `None` stages a delete; either way the
    /// latest staging for a record name wins.
    writes: Vec<(String, Option<Vec<u8>>)>,
    /// When the oldest write still staged was staged: the start of the
    /// commit window.  `Some` exactly while `writes` is non-empty.
    since: Option<Instant>,
}

impl StateBatch {
    pub(crate) fn stage(&mut self, name: String, data: Vec<u8>) {
        self.entry(name, Some(data));
    }

    /// Stages a delete so record removal rides the same group commit as
    /// the window's puts (backends apply dels before puts, but a batch
    /// never holds both ops for one name — latest staging wins).
    pub(crate) fn stage_del(&mut self, name: String) {
        self.entry(name, None);
    }

    fn entry(&mut self, name: String, data: Option<Vec<u8>>) {
        self.since.get_or_insert_with(Instant::now);
        if let Some(slot) = self.writes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = data;
        } else {
            self.writes.push((name, data));
        }
    }

    /// Takes the staged put of `name` back out, with the batch's age: the
    /// write has waited at most that long, so whoever stages it again
    /// ([`StateBatch::restage`]) keeps its durability bound.
    fn unstage(&mut self, name: &str) -> Option<(Instant, Vec<u8>)> {
        let since = self.since?;
        let at = self
            .writes
            .iter()
            .position(|(n, data)| n == name && data.is_some())?;
        let (_, data) = self.writes.remove(at);
        if self.writes.is_empty() {
            self.since = None;
        }
        Some((since, data?))
    }

    /// Stages a write that has been waiting since `since` in another batch.
    fn restage(&mut self, name: String, data: Vec<u8>, since: Instant) {
        self.since = Some(self.since.map_or(since, |mine| mine.min(since)));
        self.entry(name, Some(data));
    }

    /// True if the batch stages the delete of `name`.
    fn deletes(&self, name: &str) -> bool {
        self.writes
            .iter()
            .any(|(n, data)| n == name && data.is_none())
    }

    /// What is left of the commit window; `None` with nothing staged.
    fn window_left(&self) -> Option<Duration> {
        self.since
            .map(|since| COMMIT_WINDOW.saturating_sub(since.elapsed()))
    }

    /// True once the batch must commit whatever else is going on: it is
    /// full, or its oldest write is a window old.
    fn due(&self) -> bool {
        self.writes.len() >= BATCH_MAX || self.window_left().is_some_and(|left| left.is_zero())
    }

    /// Group commit: every staged record lands crash-atomically with one
    /// durability point for the whole batch ([`Storage::apply`]).
    ///
    /// A batch lands whole or not at all, so one job's failed write would
    /// cost every job of the window its writes.  A failed batch is
    /// therefore retried once per job: the other jobs commit, and a job
    /// whose own write fails again keeps its previous records (a restart
    /// re-runs it from its last committed checkpoint).  A batch that
    /// landed but reported a side error (a failed WAL compaction) is
    /// written again unchanged: nothing else writes these records while
    /// their runs cannot be stolen.
    ///
    /// [`Storage::apply`]: gridwfs_storage::Storage::apply
    fn flush(&mut self, shared: &Shared) {
        let Some(since) = self.since.take() else {
            return;
        };
        let Some(st) = &shared.storage else {
            self.writes.clear();
            return;
        };
        let records = self.writes.len() as u64;
        let ops: Vec<Op> = self
            .writes
            .drain(..)
            .map(|(name, data)| match data {
                Some(data) => Op::Put(name, data),
                None => Op::Del(name),
            })
            .collect();
        if let Some(fed) = &shared.federate {
            // Federated: every job's writes are fenced on its lease
            // epoch; a batch from a replica that lost a lease is
            // rejected at the storage layer, never double-settling.
            crate::federate::flush_fenced(shared, fed, ops);
        } else if !st.apply(ops.clone()).is_empty() {
            for (_, ops) in crate::recover::group_by_job(ops) {
                for (name, e) in st.apply(ops) {
                    eprintln!("gridwfs-serve: batched state write failed for {name}: {e}");
                }
            }
        }
        shared
            .metrics
            .observe_commit(records, since.elapsed().as_secs_f64());
    }
}

/// One worker's stealable state.  The timer heap is deliberately *not*
/// here: sleeping runs wake on their owner, only runnable ones migrate.
#[derive(Default)]
struct WorkerSlot {
    runnable: Mutex<VecDeque<Run>>,
    /// Runs this worker currently owns: its run queue, its timer heap,
    /// and the one being stepped.  Admission control compares this to
    /// `max_in_flight`; stealing transfers the count with the run.
    in_flight: AtomicUsize,
}

/// The shared scheduler state: one slot per worker.
pub(crate) struct SchedState {
    slots: Vec<WorkerSlot>,
}

impl SchedState {
    pub(crate) fn new(workers: usize) -> SchedState {
        SchedState {
            slots: (0..workers.max(1)).map(|_| WorkerSlot::default()).collect(),
        }
    }

    fn push_runnable(&self, me: usize, run: Run) {
        relock(&self.slots[me].runnable).push_back(run);
    }

    fn pop_runnable(&self, me: usize) -> Option<Run> {
        relock(&self.slots[me].runnable).pop_front()
    }

    fn in_flight(&self, me: usize) -> usize {
        self.slots[me].in_flight.load(Ordering::Relaxed)
    }

    fn inc_in_flight(&self, me: usize) {
        self.slots[me].in_flight.fetch_add(1, Ordering::Relaxed);
    }

    fn dec_in_flight(&self, me: usize) {
        self.slots[me].in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Steals half of the first sibling run queue that has work (from the
    /// back — owners pop the front).  `try_lock` only: a busy victim is a
    /// reason to try the next one, not to wait.  Never holds two locks.
    fn steal_into(&self, me: usize) {
        let n = self.slots.len();
        if n <= 1 {
            return;
        }
        for step in 1..n {
            let victim = (me + step) % n;
            let mut moved: VecDeque<Run> = VecDeque::new();
            {
                let Ok(mut deque) = self.slots[victim].runnable.try_lock() else {
                    continue;
                };
                let take = deque.len().div_ceil(2);
                for _ in 0..take {
                    if let Some(run) = deque.pop_back() {
                        moved.push_front(run);
                    }
                }
            }
            if moved.is_empty() {
                continue;
            }
            self.slots[victim]
                .in_flight
                .fetch_sub(moved.len(), Ordering::Relaxed);
            self.slots[me]
                .in_flight
                .fetch_add(moved.len(), Ordering::Relaxed);
            relock(&self.slots[me].runnable).extend(moved);
            return;
        }
    }
}

/// What one scheduler slice of a run produced.
enum Slice {
    /// Slice budget exhausted with work remaining: back of the run queue.
    Yield,
    /// Nothing deliverable until (about) this instant: timer heap.
    Sleep(Instant),
    /// The run is over: settle it with its report.
    Done(Box<Report>),
    /// The workflow panicked mid-slice: settle it as `Failed`.
    Panicked(String),
}

/// Steps `run` for at most [`SLICE_STEPS`] engine turns.
fn step_slice(shared: &Shared, run: &mut Run) -> Slice {
    enum Inner {
        Yield,
        Idle(Option<f64>),
        Finished(Box<Report>),
    }
    let caught = catch_unwind(AssertUnwindSafe(|| {
        for _ in 0..SLICE_STEPS {
            match run.engine.step() {
                StepOutcome::Progressed => {}
                StepOutcome::Idle { wake_at } => return Inner::Idle(wake_at),
                StepOutcome::Finished(report) => return Inner::Finished(report),
            }
        }
        Inner::Yield
    }));
    match caught {
        Ok(Inner::Yield) => Slice::Yield,
        Ok(Inner::Finished(report)) => Slice::Done(report),
        Ok(Inner::Idle(wake_at)) => {
            let wake = match wake_at {
                // `wake_at` is on the executor clock; `Idle` guarantees it
                // is in the future, but clamp anyway — a negative duration
                // would panic.
                Some(t) => {
                    let rel = (t - run.engine.now()).max(0.0);
                    Instant::now() + Duration::from_secs_f64(rel)
                }
                None => Instant::now() + IDLE_TICK,
            };
            Slice::Sleep(wake)
        }
        Err(payload) => {
            let msg = worker::panic_message(payload);
            worker::note_panic(shared, run.id, run.journal.as_ref(), &msg);
            Slice::Panicked(format!("workflow panicked: {msg}"))
        }
    }
}

/// Claims a popped job: the Queued→Running transition, stop-flag
/// registration, journal header, and engine construction.  Returns `None`
/// when there is nothing to run — the job was cancelled while queued, or
/// its engine could not be built (in which case it settles as `Failed`
/// right here).
fn pickup(shared: &Arc<Shared>, id: JobId, batch: &mut StateBatch) -> Option<Run> {
    let stop = Arc::new(AtomicBool::new(false));
    let (sub, recovered) = {
        let mut shard = shared.table.shard(id.0);
        // The table holds a submission only while its job is queued:
        // nothing reads it once a worker has it.
        let sub = shard.subs.remove(&id.0)?;
        let rec = shard.jobs.get_mut(&id.0)?;
        if rec.state != JobState::Queued {
            return None; // cancelled while queued
        }
        rec.state = JobState::Running;
        rec.started_at = Some(shared.now());
        let recovered = rec.recovered;
        // Register the stop flag in the same critical section as the
        // state change: any cancel() that observes `Running` is then
        // guaranteed to find the flag (it takes the same shard lock).
        shard.stops.insert(id.0, stop.clone());
        (sub, recovered)
    };
    shared.metrics.running.fetch_add(1, Ordering::Relaxed);
    let journal = worker::open_journal(shared, id, &sub);
    let started = Instant::now();
    let built = catch_unwind(AssertUnwindSafe(|| {
        worker::build_engine(shared, id, &sub, recovered, stop, journal.clone())
    }));
    let failure = match built {
        Ok(Ok((engine, checkpoint))) => {
            return Some(Run {
                id,
                engine,
                journal,
                checkpoint,
                carried: None,
                started,
            });
        }
        Ok(Err(msg)) => msg,
        Err(payload) => {
            let msg = worker::panic_message(payload);
            worker::note_panic(shared, id, journal.as_ref(), &msg);
            format!("workflow panicked: {msg}")
        }
    };
    shared.table.shard(id.0).stops.remove(&id.0);
    shared.metrics.running.fetch_sub(1, Ordering::Relaxed);
    worker::settle(
        shared,
        id,
        Err(failure),
        started.elapsed().as_secs_f64(),
        journal,
        batch,
    );
    None
}

/// Settles a finished run and releases its bookkeeping.
fn finish_run(
    shared: &Shared,
    run: &mut Run,
    result: Result<Report, String>,
    batch: &mut StateBatch,
) {
    let run_wall = run.started.elapsed().as_secs_f64();
    shared.table.shard(run.id.0).stops.remove(&run.id.0);
    shared.metrics.running.fetch_sub(1, Ordering::Relaxed);
    worker::settle(shared, run.id, result, run_wall, run.journal.take(), batch);
}

/// Encodes the run's checkpoint and stages it, if the engine checkpointed
/// during the slice: one encode per slice, of the instance as it stands at
/// the slice's end.  A run whose settle staged the purge of its checkpoint
/// has nothing left to restart, so nothing is encoded for it.
fn stage_checkpoint(shared: &Shared, run: &Run, batch: &mut StateBatch) {
    let Some((name, dirty)) = &run.checkpoint else {
        return;
    };
    if !dirty.swap(false, Ordering::Relaxed) || batch.deletes(name) {
        return;
    }
    batch.stage(name.clone(), run.engine.checkpoint_xml().into_bytes());
    Metrics::incr(&shared.metrics.counters.checkpoints_staged);
}

/// How long to park given the next timer expiry.
fn park_time(next_wake: Option<Instant>) -> Duration {
    match next_wake {
        Some(w) => w.saturating_duration_since(Instant::now()).min(POLL),
        None => POLL,
    }
}

/// Puts `run` on worker `me`'s run queue, where a sibling may steal it.
/// A checkpoint of the run that is staged in `batch` but not committed
/// leaves with the run: were it to stay, the thief could stage and commit
/// a newer checkpoint (or the result marker) first, and this worker's
/// later commit would write the older one back over it.
fn requeue(sched: &SchedState, me: usize, batch: &mut StateBatch, mut run: Run) {
    if let Some((name, _)) = &run.checkpoint {
        if let Some(carried) = batch.unstage(name) {
            run.carried = Some(carried);
        }
    }
    sched.push_runnable(me, run);
}

/// Steps `run` for one slice on behalf of worker `me` and files it where
/// the outcome says: back on the run queue, on the timer heap, or settled.
fn run_slice(
    shared: &Shared,
    me: usize,
    mut run: Run,
    batch: &mut StateBatch,
    sleepers: &mut BinaryHeap<Sleeper>,
    seq: &mut u64,
) {
    // What the last slicer left uncommitted goes in first, so the newer
    // checkpoint staged below replaces it instead of racing it.
    if let (Some((name, _)), Some((since, xml))) = (&run.checkpoint, run.carried.take()) {
        batch.restage(name.clone(), xml, since);
    }
    let yielded = match step_slice(shared, &mut run) {
        Slice::Yield => {
            stage_checkpoint(shared, &run, batch);
            Some(run)
        }
        Slice::Sleep(wake) => {
            stage_checkpoint(shared, &run, batch);
            *seq += 1;
            sleepers.push(Sleeper {
                wake,
                seq: *seq,
                run,
            });
            None
        }
        Slice::Done(report) => {
            // Settle first: the checkpoint is encoded only if the settle
            // kept it (parked dead letters, a shutdown stop).
            finish_run(shared, &mut run, Ok(*report), batch);
            stage_checkpoint(shared, &run, batch);
            shared.sched.dec_in_flight(me);
            None
        }
        Slice::Panicked(msg) => {
            // The instance may be mid-mutation: encode nothing, so the
            // checkpoint of an earlier slice stands.
            finish_run(shared, &mut run, Err(msg), batch);
            shared.sched.dec_in_flight(me);
            None
        }
    };
    // Full, or a window old: commit now, however busy the worker is —
    // and before a yielded run takes its checkpoint away again.
    if batch.due() {
        batch.flush(shared);
    }
    if let Some(run) = yielded {
        requeue(&shared.sched, me, batch, run);
    }
}

/// The scheduler loop for worker `me`.  Exits once the admission queue is
/// closed and drained and every run this worker owns has settled.
pub(crate) fn worker_loop(shared: Arc<Shared>, me: usize) {
    let cap = shared.cfg.max_in_flight.max(1);
    let sched = &shared.sched;
    let mut sleepers: BinaryHeap<Sleeper> = BinaryHeap::new();
    let mut seq: u64 = 0;
    let mut batch = StateBatch::default();
    let mut closed = false;
    loop {
        // Timers first: move every due sleeper back to the run queue.
        let now = Instant::now();
        while sleepers.peek().is_some_and(|s| s.wake <= now) {
            let sleeper = sleepers.pop().expect("peeked");
            requeue(sched, me, &mut batch, sleeper.run);
        }
        // Step one slice of runnable work — own queue first, then steal.
        let next = sched.pop_runnable(me).or_else(|| {
            sched.steal_into(me);
            sched.pop_runnable(me)
        });
        if let Some(run) = next {
            run_slice(&shared, me, run, &mut batch, &mut sleepers, &mut seq);
            continue;
        }
        // Nothing runnable: a tick boundary.  A worker with room admits
        // before it commits: while the commit window is open it waits on
        // the admission queue for what is left of it, so the settlement
        // of whatever arrives joins the batch.  Anyone else commits now.
        let admitting = !closed && sched.in_flight(me) < cap;
        let window = batch
            .window_left()
            .filter(|left| admitting && !left.is_zero());
        if window.is_none() {
            batch.flush(&shared);
        }
        if closed && sched.in_flight(me) == 0 {
            return;
        }
        let park = park_time(sleepers.peek().map(|s| s.wake));
        if admitting {
            let wait = window.map_or(park, |left| left.min(park));
            match shared.queue.pop_timeout(wait) {
                Pop::Closed => closed = true,
                Pop::Empty => {}
                Pop::Item(id) => {
                    if shared.aborting.load(Ordering::Relaxed) {
                        // Hard shutdown: leave the job `Queued`; its
                        // meta record survives for the next incarnation's
                        // recovery scan.
                        continue;
                    }
                    if let Some(run) = pickup(&shared, id, &mut batch) {
                        sched.inc_in_flight(me);
                        requeue(sched, me, &mut batch, run);
                    }
                }
            }
        } else if !park.is_zero() {
            // At capacity, or draining after close: sleep until the next
            // timer (or a poll tick, to re-check for stealable work).
            std::thread::sleep(park);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobRecord, Submission};
    use crate::recover;
    use crate::{GridSpec, MemStorage, ProfileSpec, Service, ServiceConfig, Storage};
    use grid_wfs::{checkpoint, Engine, Instance, NodeStatus};
    use gridwfs_storage::CountersSnapshot;
    use gridwfs_trace::TraceKind;
    use gridwfs_wpdl::builder::WorkflowBuilder;
    use std::collections::HashSet;
    use std::io;
    use std::path::PathBuf;

    /// Records every checkpoint document in the order it was committed.
    struct CheckpointLog {
        inner: MemStorage,
        committed: Mutex<Vec<(String, String)>>,
    }

    impl Storage for CheckpointLog {
        fn read(&self, name: &str) -> io::Result<Vec<u8>> {
            self.inner.read(name)
        }
        fn exists(&self, name: &str) -> bool {
            self.inner.exists(name)
        }
        fn list(&self) -> io::Result<Vec<String>> {
            self.inner.list()
        }
        fn apply(&self, ops: Vec<Op>) -> Vec<(String, io::Error)> {
            for op in &ops {
                if let Op::Put(name, data) = op {
                    if name.ends_with(".ckpt.xml") {
                        let doc = String::from_utf8(data.clone()).expect("checkpoints are text");
                        relock(&self.committed).push((name.clone(), doc));
                    }
                }
            }
            self.inner.apply(ops)
        }
        fn counters(&self) -> CountersSnapshot {
            self.inner.counters()
        }
        fn compact(&self) -> io::Result<()> {
            self.inner.compact()
        }
        fn backend_name(&self) -> &'static str {
            self.inner.backend_name()
        }
    }

    /// A virtual chain long enough to outlast several slices.
    fn long_chain(activities: usize) -> Submission {
        let mut b = WorkflowBuilder::new("long").program("p", 1.0, &["local"]);
        for i in 0..activities {
            b.activity(format!("a{i}"), "p");
        }
        for i in 1..activities {
            b = b.edge(&format!("a{}", i - 1), &format!("a{i}"));
        }
        Submission {
            name: "long".into(),
            workflow_xml: b.to_xml().expect("test workflow serialises"),
            grid: GridSpec::virtual_grid().with_host("local", 1.0),
            seed: 7,
            deadline: None,
        }
    }

    /// A fan-out whose items all but surely exhaust their attempts, so the
    /// run parks dead letters and keeps its checkpoint for `dlq retry`.
    fn dead_lettering() -> Submission {
        Submission {
            name: "mapred".into(),
            workflow_xml: "<Workflow name='m'>\
                   <Exception name='flaky' fatal='false'/>\
                   <Activity name='map' interval='1'><Implement>m</Implement>\
                     <Foreach max_parallel='2' max_attempts='2' on_item_failure='dlq'>\
                       <Item>north</Item><Item>east</Item><Item>south</Item><Item>west</Item>\
                     </Foreach>\
                   </Activity>\
                   <Program name='m' duration='3'><Option hostname='h1'/></Program>\
                 </Workflow>"
                .into(),
            grid: GridSpec::virtual_grid()
                .with_host("h1", 1.0)
                .with_profile(ProfileSpec {
                    program: "m".into(),
                    checkpoint_period: Some(1.0),
                    soft_crash_mttf: None,
                    exception: Some(("flaky".into(), 1, 0.95)),
                }),
            seed: 100,
            deadline: None,
        }
    }

    /// A service on `storage` whose workers this test plays itself.
    fn played(storage: Arc<dyn Storage>, trace_dir: Option<PathBuf>) -> (Service, Arc<Shared>) {
        let mut service = Service::start(ServiceConfig {
            workers: 2,
            max_in_flight: 4,
            storage: Some(storage),
            trace_dir,
            ..ServiceConfig::default()
        })
        .unwrap();
        let shared = service.retire_workers();
        (service, shared)
    }

    /// Queues `sub` as job `id` in the table, as an admission would.
    fn admit(shared: &Shared, id: JobId, sub: Submission) {
        let mut shard = shared.table.shard(id.0);
        shard
            .jobs
            .insert(id.0, JobRecord::new(id, sub.name.clone(), 0.0, false));
        shard.subs.insert(id.0, sub);
    }

    /// Picks job `id` up on worker 0 and slices it until it leaves the run
    /// queue, calling `before` with the slice's index ahead of each slice.
    /// Returns how many checkpoints each slice staged.
    fn staged_per_slice(
        shared: &Arc<Shared>,
        id: JobId,
        batch: &mut StateBatch,
        mut before: impl FnMut(usize),
    ) -> Vec<u64> {
        let staged = || {
            shared
                .metrics
                .counters
                .checkpoints_staged
                .load(Ordering::Relaxed)
        };
        let (mut sleepers, mut seq) = (BinaryHeap::new(), 0);
        let run = pickup(shared, id, batch).expect("engine builds");
        shared.sched.inc_in_flight(0);
        requeue(&shared.sched, 0, batch, run);
        let mut per_slice = Vec::new();
        while let Some(run) = shared.sched.pop_runnable(0) {
            before(per_slice.len());
            let was = staged();
            run_slice(shared, 0, run, batch, &mut sleepers, &mut seq);
            per_slice.push(staged() - was);
        }
        assert!(sleepers.is_empty(), "virtual jobs never sleep");
        per_slice
    }

    /// The engine checkpoints at every settlement, but the scheduler
    /// encodes at most one document per slice, and none for a run whose
    /// settle purges its checkpoint.  Runs that keep their checkpoint —
    /// parked dead letters, a shutdown stop — encode their final one.
    #[test]
    fn a_checkpoint_is_encoded_once_per_slice_and_never_for_a_purged_run() {
        let trace_dir = std::env::temp_dir().join(format!(
            "gridwfs-sched-cadence-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&trace_dir).ok();
        std::fs::create_dir_all(&trace_dir).unwrap();
        let storage = Arc::new(MemStorage::new());
        let (service, shared) = played(storage.clone(), Some(trace_dir.clone()));
        let mut batch = StateBatch::default();
        let state = |id: JobId| shared.table.shard(id.0).jobs[&id.0].state;

        // A three-task chain settles inside its first slice: three
        // checkpoints journalled, none encoded.
        let chain = JobId(1);
        admit(&shared, chain, long_chain(3));
        assert_eq!(staged_per_slice(&shared, chain, &mut batch, |_| {}), [0]);
        assert_eq!(state(chain), JobState::Done);
        let journal = std::fs::read_to_string(recover::trace_path(&trace_dir, chain)).unwrap();
        assert_eq!(journal.matches("\"kind\":\"engine_checkpoint\"").count(), 3);

        // A job longer than a slice: one encode per slice it yields, none
        // for the slice it settles in.
        let long = JobId(2);
        admit(&shared, long, long_chain(300));
        let per_slice = staged_per_slice(&shared, long, &mut batch, |_| {});
        assert!(per_slice.len() > 1, "300 activities outlast a slice");
        let (last, yielded) = per_slice.split_last().unwrap();
        assert!(yielded.iter().all(|&n| n == 1), "{per_slice:?}");
        assert_eq!(*last, 0);
        assert_eq!(state(long), JobState::Done);

        // Parked dead letters keep the checkpoint for `dlq retry`.
        let parked = JobId(3);
        admit(&shared, parked, dead_lettering());
        let per_slice = staged_per_slice(&shared, parked, &mut batch, |_| {});
        assert_eq!(per_slice.last(), Some(&1), "{per_slice:?}");

        // A service shutdown after one slice: the aborted instance is
        // encoded for the next incarnation.
        let stopped = JobId(4);
        admit(&shared, stopped, long_chain(300));
        let per_slice = staged_per_slice(&shared, stopped, &mut batch, |slice| {
            if slice == 1 {
                shared.table.stop_all();
            }
        });
        assert_eq!(per_slice, [1, 1]);
        assert_eq!(state(stopped), JobState::Queued);

        // A client cancel before the first slice: nothing encoded.
        let cancelled = JobId(5);
        admit(&shared, cancelled, long_chain(300));
        let per_slice = staged_per_slice(&shared, cancelled, &mut batch, |slice| {
            if slice == 0 {
                assert!(service.cancel(cancelled));
            }
        });
        assert_eq!(per_slice, [0]);
        assert_eq!(state(cancelled), JobState::Cancelled);

        batch.flush(&shared);
        let kept = |id: JobId| storage.exists(&recover::checkpoint_name(id));
        assert!(storage.exists(&recover::dlq_name(parked)));
        assert!(kept(parked) && kept(stopped));
        assert!(!kept(chain) && !kept(long) && !kept(cancelled));
        std::fs::remove_dir_all(&trace_dir).ok();
    }

    /// Worker 0 slices a job once and yields it with a checkpoint staged;
    /// worker 1 steals the run, commits after every slice, finishes it and
    /// commits first; worker 0 commits last.  The job's committed
    /// checkpoints must never go backwards (a crash resumes from the last
    /// one), and none may land after the settle's purge: a stale put from
    /// worker 0 would resurrect a finished job's checkpoint.
    ///
    /// Each committed document is the instance at the end of a slice, and
    /// each must be a valid resume point: it re-encodes to itself, and a
    /// restart from it settles as the uninterrupted run did without
    /// resubmitting an activity the document records as done.
    #[test]
    fn a_stolen_runs_checkpoints_commit_in_the_order_they_were_written() {
        let log = Arc::new(CheckpointLog {
            inner: MemStorage::new(),
            committed: Mutex::new(Vec::new()),
        });
        let (_service, shared) = played(log.clone(), None);
        let sched = &shared.sched;
        let id = JobId(1);
        let sub = long_chain(300);
        admit(&shared, id, sub.clone());
        let (mut batch0, mut batch1) = (StateBatch::default(), StateBatch::default());
        let (mut sleepers, mut seq) = (BinaryHeap::new(), 0);

        let run = pickup(&shared, id, &mut batch0).expect("engine builds");
        sched.inc_in_flight(0);
        requeue(sched, 0, &mut batch0, run);
        let run = sched.pop_runnable(0).expect("just queued");
        run_slice(&shared, 0, run, &mut batch0, &mut sleepers, &mut seq);
        assert!(
            log.committed.lock().unwrap().is_empty(),
            "nothing was due: the first slice's checkpoint is still staged"
        );

        sched.steal_into(1);
        while let Some(run) = sched.pop_runnable(1) {
            run_slice(&shared, 1, run, &mut batch1, &mut sleepers, &mut seq);
            batch1.flush(&shared);
        }
        assert!(sleepers.is_empty(), "virtual jobs never sleep");
        assert_eq!(
            shared.table.shard(id.0).jobs[&id.0].state,
            JobState::Done,
            "worker 1 finished the job"
        );
        batch0.flush(&shared);

        let progress = |doc: &str| doc.matches("status='done'").count();
        let committed = log.committed.lock().unwrap();
        assert!(
            !committed.is_empty(),
            "worker 1 committed the checkpoints of its unfinished slices"
        );
        let mut last = 0;
        for (name, doc) in committed.iter() {
            assert_eq!(*name, crate::recover::checkpoint_name(id));
            assert!(
                progress(doc) >= last,
                "a checkpoint with {} activities done was committed over one with {last}",
                progress(doc)
            );
            last = progress(doc);
        }
        assert!(last < 300, "the final checkpoint is purged, never written");
        for name in crate::recover::purge_names(id) {
            assert!(!log.exists(&name), "{name} outlived the settle");
        }
        assert!(log.exists(&crate::recover::result_name(id)));

        let engine = |instance| {
            Engine::from_instance(instance, sub.grid.build_sim(sub.seed))
                .with_config(sub.grid.engine_config())
        };
        let workflow = gridwfs_wpdl::parse::from_str(&sub.workflow_xml).unwrap();
        let validated = gridwfs_wpdl::validate::validate(workflow).unwrap();
        let uninterrupted = engine(Instance::new(validated)).run();
        assert!(uninterrupted.is_success());
        for (_, doc) in committed.iter() {
            let instance = checkpoint::from_xml(doc).expect("a committed checkpoint decodes");
            assert_eq!(checkpoint::to_xml(&instance), *doc, "re-encodes to itself");
            let done: HashSet<String> = instance
                .statuses()
                .filter(|(_, status)| **status == NodeStatus::Done)
                .map(|(name, _)| name.to_string())
                .collect();
            let resumed = engine(instance).run();
            assert_eq!(resumed.outcome, uninterrupted.outcome);
            for event in &resumed.trace {
                if let TraceKind::TaskSubmitted { activity, .. } = &event.kind {
                    assert!(!done.contains(activity), "{activity} was done");
                }
            }
        }
    }

    #[test]
    fn an_unstaged_write_keeps_its_age() {
        let mut from = StateBatch::default();
        from.stage("job-1.ckpt.xml".into(), b"v1".to_vec());
        from.stage_del("job-1.dlq".into());
        let began = from.since.expect("staging opens the window");
        assert!(from.unstage("job-1.dlq").is_none(), "only puts travel");
        let (since, data) = from.unstage("job-1.ckpt.xml").expect("staged above");
        assert_eq!((since, data.as_slice()), (began, &b"v1"[..]));
        assert_eq!(from.writes.len(), 1);
        assert!(from.unstage("job-1.ckpt.xml").is_none());

        std::thread::sleep(Duration::from_millis(1));
        let mut to = StateBatch::default();
        to.stage("job-2.result".into(), b"done".to_vec());
        to.restage("job-1.ckpt.xml".into(), data, since);
        assert_eq!(to.since, Some(began), "the older write sets the window");
        to.stage("job-1.ckpt.xml".into(), b"v2".to_vec());
        assert_eq!(
            to.writes.len(),
            2,
            "the newer checkpoint replaces the carried one"
        );

        // Emptying a batch closes its window.
        let mut lone = StateBatch::default();
        lone.stage("job-3.ckpt.xml".into(), b"v1".to_vec());
        assert!(lone.unstage("job-3.ckpt.xml").is_some());
        assert!(lone.since.is_none() && lone.window_left().is_none() && !lone.due());
    }
}
