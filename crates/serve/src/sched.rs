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
//! see `crate::recover`).  The purge replaces the run's final checkpoint
//! in the batch, so a virtual job that finishes inside one slice never
//! writes a checkpoint at all.  A crash inside the window therefore loses
//! markers that were staged but not committed, and their purges with
//! them: those jobs still have their admission records, so the next
//! incarnation re-admits them and re-runs each from its last *committed*
//! checkpoint (from scratch for a job that started and finished inside
//! the lost window).  Every job still ends with exactly one result
//! record.
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
    /// Latest checkpoint XML the engine staged via its
    /// [`grid_wfs::CheckpointSink`] and the record it commits to.  The
    /// engine serialises a checkpoint at *every* settlement and each one
    /// overwrites the cell; the worker drains the cell into its
    /// [`StateBatch`] after every slice.  What is coalesced is the storage
    /// write — only the newest checkpoint of a slice is staged — not the
    /// serialisation.
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
    let slice = step_slice(shared, &mut run);
    // Drain the engine's staged checkpoint (if any) into the batch: at
    // most the newest checkpoint per record per slice reaches storage
    // (the engine serialised every one of them).
    if let Some((name, cell)) = &run.checkpoint {
        if let Some(xml) = relock(cell).take() {
            batch.stage(name.clone(), xml);
        }
    }
    let yielded = match slice {
        Slice::Yield => Some(run),
        Slice::Sleep(wake) => {
            *seq += 1;
            sleepers.push(Sleeper {
                wake,
                seq: *seq,
                run,
            });
            None
        }
        Slice::Done(result) => {
            finish_run(shared, run, result, batch);
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
    use crate::{GridSpec, MemStorage, Service, ServiceConfig, Storage};
    use gridwfs_storage::CountersSnapshot;
    use gridwfs_wpdl::builder::WorkflowBuilder;
    use std::io;

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

    /// Worker 0 slices a job once and yields it with a checkpoint staged;
    /// worker 1 steals the run, commits after every slice, finishes it and
    /// commits first; worker 0 commits last.  The job's committed
    /// checkpoints must never go backwards (a crash resumes from the last
    /// one), and none may land after the settle's purge: a stale put from
    /// worker 0 would resurrect a finished job's checkpoint.
    #[test]
    fn a_stolen_runs_checkpoints_commit_in_the_order_they_were_written() {
        let log = Arc::new(CheckpointLog {
            inner: MemStorage::new(),
            committed: Mutex::new(Vec::new()),
        });
        let mut service = Service::start(ServiceConfig {
            workers: 2,
            max_in_flight: 4,
            storage: Some(log.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        // This test plays both workers itself.
        let shared = service.retire_workers();
        let sched = &shared.sched;
        let id = JobId(1);
        {
            let sub = long_chain(300);
            let mut shard = shared.table.shard(id.0);
            shard
                .jobs
                .insert(id.0, JobRecord::new(id, sub.name.clone(), 0.0, false));
            shard.subs.insert(id.0, sub);
        }
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
