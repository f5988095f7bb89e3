//! The commit window (`gridwfs_serve::COMMIT_WINDOW`): a worker that holds
//! staged settlements admits before it commits, so one group commit covers
//! every job of the window.  Four properties:
//!
//! * **grouping** — back-to-back jobs share commits (one commit per job
//!   before the window existed);
//! * **bound** — a settlement is durable within a window of its record
//!   turning terminal, and neither a steady trickle of arrivals nor a run
//!   of many slices can postpone a commit past the window;
//! * **crash inside the window** — markers staged but not committed are
//!   lost with the process; exactly those jobs are re-admitted, every job
//!   still ends with one result record, and a dead-letter record is never
//!   durable without its marker;
//! * **timers** — a paced job asleep on the timer heap is not held up by
//!   a worker that spends its idle time waiting in the window.

use std::collections::BTreeSet;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridwfs_serve::{
    recover, CountersSnapshot, GridSpec, JobId, MemStorage, Op, ProfileSpec, Service,
    ServiceConfig, Storage, Submission, WalStorage, COMMIT_WINDOW,
};
use gridwfs_wpdl::builder::WorkflowBuilder;

/// Slack the timing assertions allow on top of the window: generous, so
/// a loaded CI host does not flake, and still far below what a missing
/// bound produces.
const SLACK: u32 = 10;

fn tmpdir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gridwfs-window-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Sees every batch before it commits; `false` drops the batch.
type Gate = Box<dyn Fn(&[Op]) -> bool + Send + Sync>;

/// A storage decorator with a [`Gate`] in front of `apply`.  A dropped
/// batch reports an error per op: the process "died" and nothing more
/// reaches the backend.
struct Tap {
    inner: Arc<dyn Storage>,
    gate: Gate,
}

impl Storage for Tap {
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
        if (self.gate)(&ops) {
            return self.inner.apply(ops);
        }
        ops.iter()
            .map(|op| {
                (
                    op.reported_name().to_string(),
                    io::Error::other("crashed: batch never reached the backend"),
                )
            })
            .collect()
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

fn carries_result(ops: &[Op]) -> bool {
    ops.iter()
        .any(|op| matches!(op, Op::Put(name, _) if name.ends_with(".result")))
}

fn chain(name: &str, grid: GridSpec, seed: u64) -> Submission {
    let mut b = WorkflowBuilder::new(name).program("p", 1.0, &["local"]);
    b.activity("stage_in", "p");
    b.activity("compute", "p");
    b.activity("stage_out", "p");
    Submission {
        name: name.into(),
        workflow_xml: b
            .edge("stage_in", "compute")
            .edge("compute", "stage_out")
            .to_xml()
            .expect("test workflow serialises"),
        grid,
        seed,
        deadline: None,
    }
}

fn virtual_chain(i: u64) -> Submission {
    chain(
        &format!("chain-{i}"),
        GridSpec::virtual_grid().with_host("local", 1.0),
        i,
    )
}

/// A fan-out whose items all but surely exhaust their attempts: every
/// settled job carries a dead-letter record beside its marker.
fn dead_lettering(i: u64) -> Submission {
    Submission {
        name: format!("mapred-{i}"),
        workflow_xml: "<Workflow name='m'>\
               <Exception name='flaky' fatal='false'/>\
               <Activity name='map' interval='1'><Implement>m</Implement>\
                 <Foreach max_parallel='2' max_attempts='2' on_item_failure='dlq'>\
                   <Item>north</Item><Item>east</Item><Item>south</Item><Item>west</Item>\
                 </Foreach>\
               </Activity>\
               <Activity name='reduce'><Implement>r</Implement></Activity>\
               <Transition from='map' to='reduce'/>\
               <Program name='m' duration='3'><Option hostname='h1'/></Program>\
               <Program name='r' duration='2'><Option hostname='h1'/></Program>\
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
        seed: 100 + i,
        deadline: None,
    }
}

// ---------------------------------------------------------------------------
// (a) grouping
// ---------------------------------------------------------------------------

/// 64 jobs submitted back to back to one worker over `MemStorage`
/// (admission is then faster than a run, so the queue is never empty
/// while the burst lasts): how many commits carried a result marker.
fn marker_commits(max_in_flight: usize) -> usize {
    const JOBS: u64 = 64;
    let commits = Arc::new(AtomicUsize::new(0));
    let seen = commits.clone();
    let service = Service::start(ServiceConfig {
        workers: 1,
        max_in_flight,
        queue_capacity: 2 * JOBS as usize,
        storage: Some(Arc::new(Tap {
            inner: Arc::new(MemStorage::new()),
            gate: Box::new(move |ops| {
                if carries_result(ops) {
                    seen.fetch_add(1, Ordering::Relaxed);
                }
                true
            }),
        })),
        ..ServiceConfig::default()
    })
    .unwrap();
    for i in 0..JOBS {
        service.submit(virtual_chain(i)).unwrap();
    }
    assert!(service.wait_all_terminal(Duration::from_secs(60)));
    let records = service.drain();
    assert_eq!(records.len(), JOBS as usize);
    commits.load(Ordering::Relaxed)
}

#[test]
fn back_to_back_jobs_share_their_commits() {
    for max_in_flight in [1, 64] {
        let commits = marker_commits(max_in_flight);
        assert!(
            (1..=32).contains(&commits),
            "max_in_flight {max_in_flight}: 64 back-to-back jobs took {commits} commits \
             carrying a result marker; the window should cover several jobs each"
        );
    }
}

// ---------------------------------------------------------------------------
// (b) the durability bound
// ---------------------------------------------------------------------------

#[test]
fn an_idle_service_commits_a_lone_job_within_the_window() {
    let dir = tmpdir("lone");
    let st = Arc::new(WalStorage::open(&dir).unwrap());
    let service = Service::start(ServiceConfig {
        workers: 1,
        storage: Some(st.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    // One admission is one durable commit: the yardstick for what an
    // fsync costs on this host.
    let began = Instant::now();
    let id = service.submit(virtual_chain(1)).unwrap();
    let fsync = began.elapsed();

    let deadline = Instant::now() + Duration::from_secs(30);
    while !service.status(id).unwrap().state.is_terminal() {
        assert!(Instant::now() < deadline, "job never settled");
        std::thread::yield_now();
    }
    // Nothing else arrives: the wait for company times out and the
    // marker commits, at most a window after the record turned terminal.
    let terminal = Instant::now();
    let marker = recover::result_name(id);
    while !st.exists(&marker) {
        assert!(Instant::now() < deadline, "marker never committed");
        std::thread::yield_now();
    }
    let lag = terminal.elapsed();
    let bound = COMMIT_WINDOW * SLACK + fsync * 2;
    assert!(
        lag <= bound,
        "marker durable {lag:?} after the record turned terminal (bound {bound:?})"
    );
    drop(service.drain());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_steady_trickle_cannot_postpone_a_commit() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        max_in_flight: 4,
        queue_capacity: 256,
        storage: Some(Arc::new(MemStorage::new())),
        ..ServiceConfig::default()
    })
    .unwrap();
    // An arrival every half window for 50 windows: the worker's wait for
    // company never times out, so only the age of the batch can end it.
    for i in 0..100 {
        service.submit(virtual_chain(i)).unwrap();
        std::thread::sleep(COMMIT_WINDOW / 2);
    }
    assert!(service.wait_all_terminal(Duration::from_secs(60)));
    std::thread::sleep(COMMIT_WINDOW * SLACK);
    let lag = service.metrics().commit_lag_summary();
    let commits = service
        .metrics()
        .counters
        .state_commits
        .load(Ordering::Relaxed);
    assert_eq!(lag.count as u64, commits, "one lag sample per commit");
    assert!(commits >= 1);
    // Window + one slice + the apply itself, with slack.  Without the age
    // check the first commit waits for BATCH_MAX writes: some 85 jobs.
    let bound = (COMMIT_WINDOW * SLACK).as_secs_f64();
    assert!(
        lag.max <= bound,
        "a batch waited {:.1} ms to commit (bound {:.1} ms) over {commits} commits",
        lag.max * 1e3,
        bound * 1e3
    );
    drop(service.drain());
}

#[test]
fn a_long_run_commits_its_checkpoints_as_it_goes() {
    // One job of many slices and nothing else (a loop of 1500 one-task
    // iterations, a checkpoint each): the worker always has something
    // runnable, so it never reaches a tick boundary.  Only the check after
    // every slice stands between the first checkpoint and a commit at the
    // very end of the run.
    let mut b = WorkflowBuilder::new("long").program("p", 1.0, &["local"]);
    b.activity("a", "p");
    let service = Service::start(ServiceConfig {
        workers: 1,
        storage: Some(Arc::new(MemStorage::new())),
        ..ServiceConfig::default()
    })
    .unwrap();
    let id = service
        .submit(Submission {
            name: "long".into(),
            workflow_xml: b
                .do_while("a", "runs('a') < 1500")
                .to_xml()
                .expect("test workflow serialises"),
            grid: GridSpec::virtual_grid().with_host("local", 1.0),
            seed: 3,
            deadline: None,
        })
        .unwrap();
    assert!(service.wait_all_terminal(Duration::from_secs(120)));
    let run_wall = service.status(id).unwrap().run_wall.expect("settled");
    std::thread::sleep(COMMIT_WINDOW * SLACK);
    let lag = service.metrics().commit_lag_summary();
    if run_wall < (COMMIT_WINDOW * 8).as_secs_f64() {
        return; // a host this fast leaves no room between the window and the run
    }
    assert!(lag.count >= 3, "{} commits", lag.count);
    assert!(
        lag.max <= run_wall / 2.0,
        "a checkpoint waited {:.1} ms to commit in a run of {:.1} ms",
        lag.max * 1e3,
        run_wall * 1e3
    );
    drop(service.drain());
}

// ---------------------------------------------------------------------------
// (c) a crash inside the window
// ---------------------------------------------------------------------------

#[test]
fn a_crash_inside_the_window_reruns_exactly_the_uncommitted_jobs() {
    let dir = tmpdir("crash");
    let wal = Arc::new(WalStorage::open(&dir).unwrap());
    // The process dies as the second batch of markers is about to commit:
    // those markers were staged, their records had turned terminal, and
    // nothing of them (or of anything later) reaches the log.
    let dead = Arc::new(AtomicBool::new(false));
    let marker_batches = AtomicUsize::new(0);
    let gate = {
        let dead = dead.clone();
        move |ops: &[Op]| {
            if carries_result(ops) && marker_batches.fetch_add(1, Ordering::Relaxed) == 1 {
                dead.store(true, Ordering::Relaxed);
            }
            !dead.load(Ordering::Relaxed)
        }
    };
    let service = Service::start(ServiceConfig {
        workers: 1,
        max_in_flight: 8,
        queue_capacity: 512,
        storage: Some(Arc::new(Tap {
            inner: wal.clone(),
            gate: Box::new(gate),
        })),
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut admitted: Vec<JobId> = Vec::new();
    for i in 0..400 {
        if dead.load(Ordering::Relaxed) {
            break;
        }
        match service.submit(dead_lettering(i)) {
            Ok(id) => admitted.push(id),
            Err(_) => break, // died under this admission: never admitted
        }
    }
    // No more arrivals: the window times out and the second batch "commits".
    let deadline = Instant::now() + Duration::from_secs(30);
    while !dead.load(Ordering::Relaxed) {
        assert!(
            Instant::now() < deadline,
            "the crash point was never reached"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(service.wait_all_terminal(Duration::from_secs(60)));
    let before = service.shutdown_now();
    assert!(before.iter().all(|r| r.state.is_terminal()));
    drop(wal);

    // What the disk holds: markers of the first batch only, and never a
    // dead-letter record without its marker.
    let disk = Arc::new(WalStorage::open(&dir).unwrap());
    let committed: BTreeSet<u64> = admitted
        .iter()
        .filter(|id| disk.exists(&recover::result_name(**id)))
        .map(|id| id.0)
        .collect();
    let lost: BTreeSet<u64> = admitted
        .iter()
        .map(|id| id.0)
        .filter(|id| !committed.contains(id))
        .collect();
    assert!(
        !committed.is_empty(),
        "the first batch of markers committed"
    );
    assert!(!lost.is_empty(), "the crash took staged markers with it");
    for id in &admitted {
        let has_marker = committed.contains(&id.0);
        assert_eq!(
            disk.exists(&recover::dlq_name(*id)),
            has_marker,
            "{id}: the dead-letter record and the marker commit together"
        );
        if has_marker {
            assert!(!recover::read_dlq(disk.as_ref(), *id).unwrap().is_empty());
        }
    }

    // The next incarnation re-admits exactly the lost jobs and settles them.
    let service = Service::start(ServiceConfig {
        workers: 1,
        storage: Some(disk.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    let readmitted: BTreeSet<u64> = service.jobs().iter().map(|r| r.id.0).collect();
    assert_eq!(readmitted, lost);
    assert!(service.wait_all_terminal(Duration::from_secs(60)));
    drop(service.drain());
    let names = disk.list().unwrap();
    let markers = names.iter().filter(|n| n.ends_with(".result")).count();
    assert_eq!(
        markers,
        admitted.len(),
        "one result record per admitted job"
    );
    for id in &admitted {
        assert!(disk.exists(&recover::result_name(*id)), "{id} lost");
        assert!(!recover::read_dlq(disk.as_ref(), *id).unwrap().is_empty());
    }
    drop(disk);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// (d) timers
// ---------------------------------------------------------------------------

#[test]
fn a_paced_job_wakes_on_time_while_the_worker_waits_in_the_window() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        max_in_flight: 8,
        queue_capacity: 256,
        storage: Some(Arc::new(MemStorage::new())),
        ..ServiceConfig::default()
    })
    .unwrap();
    // Three 20 ms tasks: the job spends nearly all of its life asleep on
    // the worker's timer heap.
    let paced = |seed| {
        chain(
            "paced",
            GridSpec::paced_grid(0.02).with_host("local", 1.0),
            seed,
        )
    };
    let run_wall = |id: JobId| service.status(id).unwrap().run_wall.expect("settled");

    let alone = service.submit(paced(1)).unwrap();
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    let alone = run_wall(alone);

    // The same job while virtual jobs keep the worker's batch non-empty,
    // so every idle moment of the worker is a wait inside the window.
    let busy = service.submit(paced(2)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut i = 0;
    while !service.status(busy).unwrap().state.is_terminal() {
        assert!(Instant::now() < deadline, "paced job starved");
        service.submit(virtual_chain(i)).unwrap();
        i += 1;
        std::thread::sleep(COMMIT_WINDOW / 2);
    }
    let busy = run_wall(busy);
    let bound = 2.0 * alone + (COMMIT_WINDOW * SLACK).as_secs_f64();
    assert!(
        busy <= bound,
        "paced job took {busy:.3}s beside a trickle of arrivals, {alone:.3}s alone"
    );
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    drop(service.drain());
}
