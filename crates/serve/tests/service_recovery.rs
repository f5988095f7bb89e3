//! The crash-recovery round trip: submit → checkpoint → hard kill →
//! restart → the job resumes from its engine checkpoint and completes
//! without redoing finished work.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridwfs_serve::{
    recover, GridSpec, JobId, JobState, Service, ServiceConfig, Storage, Submission, TraceKind,
    WalStorage,
};
use gridwfs_wpdl::builder::WorkflowBuilder;

fn tmpdir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gridwfs-recovery-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn chain3_xml() -> String {
    let mut b = WorkflowBuilder::new("recoverable").program("p", 1.0, &["local"]);
    b.activity("a", "p");
    b.activity("b", "p");
    b.activity("c", "p");
    b.edge("a", "b")
        .edge("b", "c")
        .to_xml()
        .expect("test workflow serialises")
}

/// One service incarnation over the WAL in `dir`, re-opened from disk.
/// The returned handle is the *same* `WalStorage` the service commits
/// through (a live log has one owner), so a test can watch records land
/// while the job runs; every restart replays the log from the files alone.
fn start(dir: &Path) -> (Service, Arc<WalStorage>) {
    let st = Arc::new(WalStorage::open(dir).unwrap());
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        storage: Some(st.clone()),
        ..ServiceConfig::default()
    })
    .unwrap();
    (service, st)
}

/// Blocks until the job's checkpoint records a settled activity.
fn wait_first_settlement(st: &WalStorage, id: JobId) {
    let ckpt = recover::checkpoint_name(id);
    let deadline = Instant::now() + Duration::from_secs(20);
    while !st
        .read_to_string(&ckpt)
        .is_ok_and(|t| t.contains("status='done'"))
    {
        assert!(Instant::now() < deadline, "first settlement never landed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn checkpoint_kill_restart_resumes_from_checkpoint() {
    let dir = tmpdir("roundtrip");
    let (service, st) = start(&dir);
    // Paced 0.25: three ~250ms tasks, so the kill lands mid-workflow.
    let id = service
        .submit(Submission {
            name: "recoverable".into(),
            workflow_xml: chain3_xml(),
            grid: GridSpec::paced_grid(0.25).with_host("local", 1.0),
            seed: 7,
            deadline: None,
        })
        .unwrap();

    // Wait for the engine checkpoint to record activity `a` as done, then
    // pull the plug while `b` is still in flight.
    wait_first_settlement(&st, id);
    let records = service.shutdown_now();
    assert_eq!(records.len(), 1);
    assert_eq!(
        records[0].state,
        JobState::Queued,
        "aborted job is parked for the next incarnation, not failed"
    );
    drop(st);

    // Restart over the same directory: the checkpoint survived the kill,
    // the job is re-admitted and runs to completion from it.
    let (service, st) = start(&dir);
    assert!(st.exists(&recover::checkpoint_name(id)));
    use std::sync::atomic::Ordering;
    assert_eq!(
        service.metrics().counters.recovered.load(Ordering::Relaxed),
        1
    );
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    let rec = service.status(id).unwrap();
    assert_eq!(rec.state, JobState::Done, "{:?}", rec.detail);
    assert!(rec.recovered);
    // The fresh run of this chain submits 3 tasks; the resumed run must
    // have skipped the checkpointed `a`.
    assert!(
        rec.task_submissions < 3,
        "resumed run redid finished work ({} submissions)",
        rec.task_submissions
    );
    drop(service);
    drop(st);

    // Third incarnation: the terminal result is on disk, nothing to do.
    let (service, _) = start(&dir);
    assert!(service.jobs().is_empty());
    assert!(service.status(JobId(id.0)).is_none());
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

/// A settle batch whose result write fails is rejected whole, purge
/// included: the job keeps its workflow and checkpoint, and a clean
/// restart re-runs it to exactly one result.
#[test]
fn a_failed_settle_batch_keeps_the_job_restartable() {
    use grid_wfs::{checkpoint, Instance};
    use gridwfs_serve::{FaultPlan, MemStorage};
    use gridwfs_wpdl::{parse, validate::validate};

    let dir = tmpdir("failed-settle");
    let mem = Arc::new(MemStorage::new());
    for wal in [true, false] {
        let open = || -> Arc<dyn Storage> {
            if wal {
                Arc::new(WalStorage::open(&dir).unwrap())
            } else {
                mem.clone()
            }
        };
        let config = |storage, chaos| ServiceConfig {
            workers: 1,
            storage: Some(storage),
            chaos,
            ..ServiceConfig::default()
        };
        // An earlier incarnation admitted the job and checkpointed it.
        let id = JobId(1);
        let sub = Submission {
            name: "unsettled".into(),
            workflow_xml: chain3_xml(),
            grid: GridSpec::virtual_grid().with_host("local", 1.0),
            seed: 5,
            deadline: None,
        };
        let st = open();
        recover::write_submission(st.as_ref(), id, &sub).unwrap();
        let workflow = validate(parse::from_str(&sub.workflow_xml).unwrap()).unwrap();
        let ckpt = checkpoint::to_xml(&Instance::new(workflow));
        st.put(&recover::checkpoint_name(id), ckpt.as_bytes())
            .unwrap();

        // Every put faults, so the settle batch cannot land.
        let chaos = FaultPlan::parse("seed=1,write=1.0").unwrap();
        let service = Service::start(config(st.clone(), Some(chaos))).unwrap();
        assert!(service.wait_all_terminal(Duration::from_secs(30)));
        assert_eq!(service.status(id).unwrap().state, JobState::Done);
        drop(service.drain());
        for name in [
            recover::meta_name(id),
            recover::workflow_name(id),
            recover::checkpoint_name(id),
        ] {
            assert!(st.exists(&name), "(wal={wal}) rejected settle lost {name}");
        }
        assert!(!st.exists(&recover::result_name(id)));
        drop(st);

        let st = open();
        let service = Service::start(config(st.clone(), None)).unwrap();
        assert!(service.wait_all_terminal(Duration::from_secs(30)));
        let rec = service.status(id).unwrap();
        assert!(rec.recovered, "(wal={wal}) the job was re-admitted");
        assert_eq!(rec.state, JobState::Done, "{:?}", rec.detail);
        drop(service.drain());
        let mut names = st.list().unwrap();
        names.sort();
        assert_eq!(names, [recover::meta_name(id), recover::result_name(id)]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restart_never_reuses_terminal_job_ids() {
    let dir = tmpdir("idreuse");
    let (service, _) = start(&dir);
    let first = service
        .submit(Submission {
            name: "first".into(),
            workflow_xml: chain3_xml(),
            grid: GridSpec::virtual_grid().with_host("local", 1.0),
            seed: 1,
            deadline: None,
        })
        .unwrap();
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    assert_eq!(service.status(first).unwrap().state, JobState::Done);
    service.drain();

    // The terminal job left its meta and result marker behind; a fresh
    // submission in the next incarnation must get a fresh id, or it would
    // inherit the finished job's result.
    let (service, _) = start(&dir);
    assert!(service.jobs().is_empty(), "terminal job not re-admitted");
    let second = service
        .submit(Submission {
            name: "second".into(),
            workflow_xml: chain3_xml(),
            grid: GridSpec::virtual_grid().with_host("local", 1.0),
            seed: 2,
            deadline: None,
        })
        .unwrap();
    assert!(
        second.0 > first.0,
        "id {second:?} reused over terminal {first:?}"
    );
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    let rec = service.status(second).unwrap();
    assert_eq!(rec.state, JobState::Done, "{:?}", rec.detail);
    assert_eq!(rec.name, "second");
    assert_eq!(
        rec.task_submissions, 3,
        "ran from scratch, not a stale ckpt"
    );
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn control_characters_in_labels_do_not_poison_the_state_dir() {
    let dir = tmpdir("evil-label");
    let (service, _) = start(&dir);
    let label = "evil\nhost h9 1.0";
    let id = service
        .submit(Submission {
            name: label.into(),
            workflow_xml: chain3_xml(),
            grid: GridSpec::virtual_grid().with_host("local", 1.0),
            seed: 3,
            deadline: None,
        })
        .unwrap();
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    assert_eq!(service.status(id).unwrap().state, JobState::Done);
    service.drain();
    // The restart must not choke on the persisted label.
    let (service, _) = start(&dir);
    assert!(service.jobs().is_empty());
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deadline_budget_carries_across_restarts() {
    let dir = tmpdir("deadline-budget");
    let (service, st) = start(&dir);
    let id = service
        .submit(Submission {
            name: "budgeted".into(),
            workflow_xml: chain3_xml(),
            grid: GridSpec::paced_grid(0.25).with_host("local", 1.0),
            seed: 7,
            deadline: Some(600.0),
        })
        .unwrap();
    // Let the first task settle, then pull the plug mid-workflow.
    wait_first_settlement(&st, id);
    service.shutdown_now();
    assert!(
        recover::read_elapsed(st.as_ref(), id) > 0.0,
        "aborted incarnation banked its consumed executor time"
    );

    // Simulate a job that has already burned through its whole budget:
    // the next incarnation must fail the deadline instead of granting a
    // fresh one.
    recover::write_elapsed(st.as_ref(), id, 1e6).unwrap();
    drop(st);
    let (service, _) = start(&dir);
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    let rec = service.status(id).unwrap();
    assert_eq!(rec.state, JobState::Failed, "{:?}", rec.detail);
    assert_eq!(rec.detail.as_deref(), Some("deadline exceeded"));
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queued_jobs_survive_a_kill_without_checkpoints() {
    let dir = tmpdir("queued");
    let (service, st) = start(&dir);
    // Occupy the single worker, then queue a second job behind it.
    let blocker = service
        .submit(Submission {
            name: "blocker".into(),
            workflow_xml: chain3_xml(),
            grid: GridSpec::paced_grid(0.25).with_host("local", 1.0),
            seed: 1,
            deadline: None,
        })
        .unwrap();
    let parked = service
        .submit(Submission {
            name: "parked".into(),
            workflow_xml: chain3_xml(),
            grid: GridSpec::virtual_grid().with_host("local", 1.0),
            seed: 2,
            deadline: None,
        })
        .unwrap();
    // Kill while `parked` has never run: no checkpoint, only manifests.
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.status(blocker).unwrap().state == JobState::Queued {
        assert!(Instant::now() < deadline, "blocker never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    service.shutdown_now();
    assert!(!st.exists(&recover::checkpoint_name(parked)));
    drop(st);

    let (service, _) = start(&dir);
    use std::sync::atomic::Ordering;
    assert_eq!(
        service.metrics().counters.recovered.load(Ordering::Relaxed),
        2
    );
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    assert_eq!(service.status(blocker).unwrap().state, JobState::Done);
    assert_eq!(service.status(parked).unwrap().state, JobState::Done);
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_rollback_burns_the_id_instead_of_resurrecting_the_job() {
    use std::io;
    use std::sync::atomic::{AtomicBool, Ordering};

    use gridwfs_serve::{CountersSnapshot, MemStorage, Op, SubmitError};

    /// [`MemStorage`] that can be armed to bounce any all-`Del` batch —
    /// the shape of a rollback whose cleanup commit fails while the
    /// staged admission records stay durable.  (Admission's own staging
    /// batch mixes `Del`s with `Put`s, so it passes through untouched.)
    struct DelFail {
        inner: MemStorage,
        arm: AtomicBool,
    }
    impl Storage for DelFail {
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
            if self.arm.load(Ordering::Relaxed) && ops.iter().all(|op| matches!(op, Op::Del(_))) {
                return ops
                    .iter()
                    .map(|op| {
                        (
                            op.reported_name().to_string(),
                            io::Error::other("injected commit failure"),
                        )
                    })
                    .collect();
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

    let st = Arc::new(DelFail {
        inner: MemStorage::new(),
        arm: AtomicBool::new(false),
    });
    let config = |queue_capacity| ServiceConfig {
        workers: 1,
        queue_capacity,
        storage: Some(st.clone() as Arc<dyn Storage>),
        ..ServiceConfig::default()
    };
    let sub = |name: &str, seed, paced| Submission {
        name: name.into(),
        workflow_xml: chain3_xml(),
        grid: if paced {
            GridSpec::paced_grid(0.25).with_host("local", 1.0)
        } else {
            GridSpec::virtual_grid().with_host("local", 1.0)
        },
        seed,
        deadline: None,
    };

    // One busy worker and a 1-deep queue: the third admission is staged
    // to storage, bounces off the full queue, and rolls back — with its
    // cleanup deletes armed to fail.
    let service = Service::start(config(1)).unwrap();
    let blocker = service.submit(sub("blocker", 1, true)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while service.status(blocker).unwrap().state == JobState::Queued {
        assert!(Instant::now() < deadline, "blocker never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    let queued = service.submit(sub("queued", 2, false)).unwrap();
    st.arm.store(true, Ordering::Relaxed);
    match service.submit(sub("bounced", 3, false)) {
        Err(SubmitError::QueueFull) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    st.arm.store(false, Ordering::Relaxed);
    assert!(
        service.trace_events().iter().any(|e| matches!(&e.kind,
            TraceKind::JobRejected { name, reason } if name == "bounced" && reason == "queue-full")),
        "the bounced admission is journalled as a queue-full rejection"
    );

    // The staged records could not be cleared, so the slot must hold a
    // terminal tombstone and the id must be burned, not recycled.
    let burned = JobId(queued.0 + 1);
    assert!(
        st.exists(&recover::meta_name(burned)),
        "premise: staged meta survived the failed rollback"
    );
    assert_eq!(
        recover::read_result(st.as_ref(), burned),
        Ok(Some((JobState::Failed, "rolled-back".into())))
    );
    service.shutdown_now();

    // Restart over the same storage: the interrupted jobs are re-admitted,
    // the rolled-back admission is terminal — never resurrected — and a
    // fresh submission gets a fresh id past the burned one.
    let service = Service::start(config(8)).unwrap();
    assert_eq!(
        service.jobs().len(),
        2,
        "only the genuinely admitted jobs recover"
    );
    assert!(
        service.status(burned).is_none(),
        "rolled-back admission resurrected"
    );
    let fresh = service.submit(sub("fresh", 4, false)).unwrap();
    assert_eq!(fresh.0, burned.0 + 1, "burned id handed out again");
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    assert_eq!(service.status(queued).unwrap().state, JobState::Done);
    assert_eq!(service.status(fresh).unwrap().state, JobState::Done);
    assert_eq!(service.status(fresh).unwrap().name, "fresh");
    drop(service);
}
