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
//!   scheduler tick through [`gridwfs_storage::Storage::apply`]: one
//!   durability point (one WAL fsync) amortised over the whole tick
//!   instead of one per settlement.
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

/// Staged state-dir writes that force a group commit mid-tick.
const BATCH_MAX: usize = 256;

/// One paused (or runnable) engine instance and its per-job plumbing.
pub(crate) struct Run {
    pub(crate) id: JobId,
    pub(crate) engine: AnyEngine,
    pub(crate) journal: Option<Arc<JsonlSink>>,
    /// Latest checkpoint XML the engine staged via its
    /// [`grid_wfs::CheckpointSink`] and the record it commits to.  The
    /// engine serialises a checkpoint at *every* settlement and each one
    /// overwrites the cell; the worker drains the cell into its
    /// [`StateBatch`] after every slice.  What is coalesced is the storage
    /// write — only the newest checkpoint of a slice is staged — not the
    /// serialisation.
    pub(crate) checkpoint: Option<(String, worker::CheckpointCell)>,
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

/// Per-worker staged state writes, group-committed per tick.  `stage`
/// replaces any pending write to the same record, so a batch holds at
/// most one (the latest) version of each record — same end state a
/// sequence of synchronous single-record puts leaves.
#[derive(Default)]
pub(crate) struct StateBatch {
    /// `Some(data)` stages a put, `None` stages a delete; either way the
    /// latest staging for a record name wins.
    writes: Vec<(String, Option<Vec<u8>>)>,
}

impl StateBatch {
    pub(crate) fn stage(&mut self, name: String, data: Vec<u8>) {
        self.entry(name, Some(data));
    }

    /// Stages a delete so record removal rides the same group commit as
    /// the tick's puts (backends apply dels before puts, but a batch
    /// never holds both ops for one name — latest staging wins).
    pub(crate) fn stage_del(&mut self, name: String) {
        self.entry(name, None);
    }

    fn entry(&mut self, name: String, data: Option<Vec<u8>>) {
        if let Some(slot) = self.writes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = data;
        } else {
            self.writes.push((name, data));
        }
    }

    fn len(&self) -> usize {
        self.writes.len()
    }

    /// Group commit: every staged record lands crash-atomically with one
    /// durability point for the whole batch ([`Storage::apply`]).
    ///
    /// [`Storage::apply`]: gridwfs_storage::Storage::apply
    fn flush(&mut self, shared: &Shared) {
        if self.writes.is_empty() {
            return;
        }
        let Some(st) = &shared.storage else {
            self.writes.clear();
            return;
        };
        if let Some(fed) = &shared.federate {
            // Federated: every job's writes are fenced on its lease
            // epoch; a batch from a replica that lost a lease is
            // rejected at the storage layer, never double-settling.
            crate::federate::flush_fenced(shared, fed, std::mem::take(&mut self.writes));
            return;
        }
        let ops = self
            .writes
            .drain(..)
            .map(|(name, data)| match data {
                Some(data) => Op::Put(name, data),
                None => Op::Del(name),
            })
            .collect();
        for (name, e) in st.apply(ops) {
            eprintln!("gridwfs-serve: batched state write failed for {name}: {e}");
        }
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
    /// The run is over (report, failure, or panic): settle it.
    Done(Result<Report, String>),
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
        Ok(Inner::Finished(report)) => Slice::Done(Ok(*report)),
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
            Slice::Done(Err(format!("workflow panicked: {msg}")))
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
    let sub = {
        let mut shard = shared.table.shard(id.0);
        let sub = shard.subs.get(&id.0).cloned()?;
        let rec = shard.jobs.get_mut(&id.0)?;
        if rec.state != JobState::Queued {
            return None; // cancelled while queued
        }
        rec.state = JobState::Running;
        rec.started_at = Some(shared.now());
        // Register the stop flag in the same critical section as the
        // state change: any cancel() that observes `Running` is then
        // guaranteed to find the flag (it takes the same shard lock).
        shard.stops.insert(id.0, stop.clone());
        sub
    };
    shared.metrics.running.fetch_add(1, Ordering::Relaxed);
    let journal = worker::open_journal(shared, id, &sub);
    let started = Instant::now();
    let built = catch_unwind(AssertUnwindSafe(|| {
        worker::build_engine(shared, id, &sub, stop, journal.clone())
    }));
    let failure = match built {
        Ok(Ok((engine, checkpoint))) => {
            return Some(Run {
                id,
                engine,
                journal,
                checkpoint,
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
fn finish_run(shared: &Shared, run: Run, result: Result<Report, String>, batch: &mut StateBatch) {
    let run_wall = run.started.elapsed().as_secs_f64();
    shared.table.shard(run.id.0).stops.remove(&run.id.0);
    shared.metrics.running.fetch_sub(1, Ordering::Relaxed);
    worker::settle(shared, run.id, result, run_wall, run.journal, batch);
}

/// How long to park given the next timer expiry.
fn park_time(next_wake: Option<Instant>) -> Duration {
    match next_wake {
        Some(w) => w.saturating_duration_since(Instant::now()).min(POLL),
        None => POLL,
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
            sched.push_runnable(me, sleeper.run);
        }
        // Step one slice of runnable work — own queue first, then steal.
        let next = sched.pop_runnable(me).or_else(|| {
            sched.steal_into(me);
            sched.pop_runnable(me)
        });
        if let Some(mut run) = next {
            let slice = step_slice(&shared, &mut run);
            // Drain the engine's staged checkpoint (if any) into the
            // batch: at most the newest checkpoint per record per slice
            // reaches storage (the engine serialised every one of them).
            if let Some((name, cell)) = &run.checkpoint {
                if let Some(xml) = relock(cell).take() {
                    batch.stage(name.clone(), xml);
                }
            }
            match slice {
                Slice::Yield => sched.push_runnable(me, run),
                Slice::Sleep(wake) => {
                    seq += 1;
                    sleepers.push(Sleeper { wake, seq, run });
                }
                Slice::Done(result) => {
                    finish_run(&shared, run, result, &mut batch);
                    sched.dec_in_flight(me);
                }
            }
            if batch.len() >= BATCH_MAX {
                batch.flush(&shared);
            }
            continue;
        }
        // Nothing runnable: a tick boundary.  Group-commit staged state,
        // then either admit new work or sleep until the next timer.
        batch.flush(&shared);
        if closed && sched.in_flight(me) == 0 {
            return;
        }
        let next_wake = sleepers.peek().map(|s| s.wake);
        if !closed && sched.in_flight(me) < cap {
            match shared.queue.pop_timeout(park_time(next_wake)) {
                Pop::Closed => closed = true,
                Pop::Empty => {}
                Pop::Item(id) => {
                    if shared.aborting.load(Ordering::Relaxed) {
                        // Hard shutdown: leave the job `Queued`; its
                        // manifest survives for the next incarnation's
                        // recovery scan.
                        continue;
                    }
                    if let Some(run) = pickup(&shared, id, &mut batch) {
                        sched.inc_in_flight(me);
                        sched.push_runnable(me, run);
                    }
                }
            }
        } else {
            // At capacity, or draining after close: sleep until the next
            // timer (or a poll tick, to re-check for stealable work).
            let nap = park_time(next_wake);
            if !nap.is_zero() {
                std::thread::sleep(nap);
            }
        }
    }
}
