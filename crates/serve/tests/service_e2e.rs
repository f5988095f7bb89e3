//! End-to-end service tests: admission control, backpressure, deadlines,
//! cancellation, and per-job fault isolation.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use grid_wfs::{Engine, TraceKind};
use gridwfs_serve::{
    recover, Backend, GridSpec, JobId, JobState, LinkSpec, MemStorage, Service, ServiceConfig,
    Storage, Submission, SubmitError, WalStorage,
};
use gridwfs_wpdl::builder::WorkflowBuilder;

fn chain_xml(name: &str, n: usize, duration: f64, host: &str) -> String {
    let mut b = WorkflowBuilder::new(name).program("p", duration, &[host]);
    for i in 0..n {
        b.activity(format!("t{i}"), "p");
    }
    for i in 1..n {
        b = b.edge(&format!("t{}", i - 1), &format!("t{i}"));
    }
    b.to_xml().expect("test workflow serialises")
}

fn submission(name: &str, grid: GridSpec, seed: u64, xml: String) -> Submission {
    Submission {
        name: name.into(),
        workflow_xml: xml,
        grid,
        seed,
        deadline: None,
    }
}

fn tmpdir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gridwfs-serve-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn batch_completes_and_backpressure_is_loud() {
    // One slow worker, a 2-deep queue, six paced jobs: some submissions
    // must bounce with QueueFull, and with retries everything still lands.
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    let grid = GridSpec::paced_grid(0.08).with_host("local", 1.0);
    let mut retries = 0u64;
    let mut ids = Vec::new();
    for i in 0..6 {
        let sub = submission(
            &format!("wf{i}"),
            grid.clone(),
            i,
            chain_xml("wf", 1, 1.0, "local"),
        );
        loop {
            match service.submit(sub.clone()) {
                Ok(id) => {
                    ids.push(id);
                    break;
                }
                Err(SubmitError::QueueFull) => {
                    retries += 1;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("unexpected submit error: {e}"),
            }
        }
    }
    assert!(retries > 0, "queue of 2 never filled across 6 fast submits");
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    for id in ids {
        let rec = service.status(id).unwrap();
        assert_eq!(rec.state, JobState::Done, "{id}: {:?}", rec.detail);
    }
    let c = &service.metrics().counters;
    use std::sync::atomic::Ordering;
    assert_eq!(c.submitted.load(Ordering::Relaxed), 6);
    assert_eq!(c.completed.load(Ordering::Relaxed), 6);
    assert_eq!(c.rejected.load(Ordering::Relaxed), retries);
    assert_eq!(service.queue_depth(), 0);
    let snapshot = service.metrics_json();
    assert!(snapshot.contains("\"completed\": 6"), "{snapshot}");
    let records = service.drain();
    assert_eq!(records.len(), 6);
}

#[test]
fn deadline_expiry_fails_the_job() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    })
    .unwrap();
    let grid = GridSpec::virtual_grid().with_host("h1", 1.0);
    // Three 50-unit tasks against a 60-unit budget: the engine must give
    // up mid-chain on the executor clock.
    let mut sub = submission("late", grid.clone(), 3, chain_xml("late", 3, 50.0, "h1"));
    sub.deadline = Some(60.0);
    let late = service.submit(sub).unwrap();
    let ok = service
        .submit(submission("ok", grid, 4, chain_xml("ok", 3, 50.0, "h1")))
        .unwrap();
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    let rec = service.status(late).unwrap();
    assert_eq!(rec.state, JobState::Failed);
    assert_eq!(rec.detail.as_deref(), Some("deadline exceeded"));
    assert_eq!(service.status(ok).unwrap().state, JobState::Done);
    use std::sync::atomic::Ordering;
    let c = &service.metrics().counters;
    assert_eq!(c.deadline_exceeded.load(Ordering::Relaxed), 1);
    assert_eq!(c.failed.load(Ordering::Relaxed), 1);
    assert_eq!(c.completed.load(Ordering::Relaxed), 1);
}

#[test]
fn cancel_queued_and_running_jobs() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        ..ServiceConfig::default()
    })
    .unwrap();
    let grid = GridSpec::paced_grid(0.5).with_host("local", 1.0);
    // ~1.5s of paced work keeps the single worker busy...
    let running = service
        .submit(submission(
            "running",
            grid.clone(),
            1,
            chain_xml("running", 3, 1.0, "local"),
        ))
        .unwrap();
    // ... so this one is still queued when we cancel it.
    let queued = service
        .submit(submission(
            "queued",
            grid,
            2,
            chain_xml("queued", 1, 1.0, "local"),
        ))
        .unwrap();
    assert!(service.cancel(queued), "queued job accepts cancellation");
    assert_eq!(service.status(queued).unwrap().state, JobState::Cancelled);

    // Wait until the long job is actually running, then cancel it too.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while service.status(running).unwrap().state == JobState::Queued {
        assert!(std::time::Instant::now() < deadline, "never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(service.cancel(running), "running job accepts cancellation");
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    let rec = service.status(running).unwrap();
    assert_eq!(rec.state, JobState::Cancelled, "{:?}", rec.detail);
    assert!(
        !service.cancel(running),
        "terminal jobs refuse cancellation"
    );
    use std::sync::atomic::Ordering;
    assert_eq!(
        service.metrics().counters.cancelled.load(Ordering::Relaxed),
        2
    );
}

#[test]
fn per_job_isolation_of_failures() {
    let service = Service::start(ServiceConfig {
        workers: 2,
        queue_capacity: 8,
        ..ServiceConfig::default()
    })
    .unwrap();
    let grid = GridSpec::virtual_grid().with_host("h1", 1.0);
    // An unparsable document, a workflow bound to a host the Grid lacks,
    // and a healthy job, side by side.
    let garbage = service
        .submit(submission(
            "garbage",
            grid.clone(),
            1,
            "<Workflow name='broken'".into(),
        ))
        .unwrap();
    let unplaceable = service
        .submit(submission(
            "unplaceable",
            grid.clone(),
            2,
            chain_xml("unplaceable", 1, 5.0, "ghost-host"),
        ))
        .unwrap();
    let healthy = service
        .submit(submission(
            "healthy",
            grid,
            3,
            chain_xml("healthy", 2, 5.0, "h1"),
        ))
        .unwrap();
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    assert_eq!(service.status(garbage).unwrap().state, JobState::Failed);
    assert_eq!(service.status(unplaceable).unwrap().state, JobState::Failed);
    let rec = service.status(healthy).unwrap();
    assert_eq!(rec.state, JobState::Done, "{:?}", rec.detail);
    assert_eq!(rec.makespan, Some(10.0), "virtual chain of two 5s");
}

#[test]
fn rejects_after_drain_and_reports_unknown_jobs() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        ..ServiceConfig::default()
    })
    .unwrap();
    assert!(service.status(gridwfs_serve::JobId(99)).is_none());
    assert!(!service.cancel(gridwfs_serve::JobId(99)));
    let grid = GridSpec::virtual_grid().with_host("h1", 1.0);
    let sub = submission("x", grid, 1, chain_xml("x", 1, 1.0, "h1"));
    let records = service.drain();
    assert!(records.is_empty());
    // With a state directory, a completed job leaves a result marker and
    // submissions are journalled.
    let dir = tmpdir("drained");
    let wal = || Some(Arc::new(WalStorage::open(&dir).unwrap()) as Arc<dyn Storage>);
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        storage: wal(),
        ..ServiceConfig::default()
    })
    .unwrap();
    let id = service.submit(sub.clone()).unwrap();
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    assert_eq!(service.status(id).unwrap().state, JobState::Done);
    let records = service.drain();
    assert_eq!(records.len(), 1);
    // The drained handle is gone; submitting to a *new* service over the
    // same directory re-admits nothing (the job is terminal on disk).
    let service = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        storage: wal(),
        ..ServiceConfig::default()
    })
    .unwrap();
    assert!(
        service.jobs().is_empty(),
        "terminal jobs are not re-admitted"
    );
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

/// A settled job leaves the hot set: after `drain`, storage holds exactly
/// `meta` + `result` per job, except that a fan-out that parked items
/// also keeps the workflow, checkpoint and dead-letter record `dlq retry`
/// needs.  The WAL replays the same set from disk, and a restart
/// re-admits nothing and mints an id above every existing one.
#[test]
fn terminal_jobs_keep_only_meta_and_result() {
    let (flaky, _) = GridSpec::from_json(include_str!("../../../workflows/grid.flaky.json"))
        .expect("shipped grid parses");
    let mapreduce = include_str!("../../../workflows/mapreduce.xml");
    for backend in [Backend::Wal, Backend::Memory] {
        let dir = tmpdir(&format!("footprint-{}", backend.as_str()));
        let mem = Arc::new(MemStorage::new());
        let open = || -> Arc<dyn Storage> {
            match backend {
                Backend::Wal => Arc::new(WalStorage::open(&dir).unwrap()),
                Backend::Memory => mem.clone(),
            }
        };
        let config = |storage| ServiceConfig {
            workers: 2,
            max_in_flight: 4,
            queue_capacity: 64,
            storage: Some(storage),
            ..ServiceConfig::default()
        };
        let st = open();
        let service = Service::start(config(st.clone())).unwrap();
        let grid = GridSpec::virtual_grid().with_host("h1", 1.0);
        let mut chains = Vec::new();
        for i in 0..6 {
            let sub = submission("chain", grid.clone(), i, chain_xml("c", 3, 1.0, "h1"));
            chains.push(service.submit(sub).unwrap());
        }
        let mut fanouts = Vec::new();
        for seed in 1..=4 {
            let sub = submission("mapreduce", flaky.clone(), seed, mapreduce.into());
            fanouts.push(service.submit(sub).unwrap());
        }
        assert!(service.wait_all_terminal(Duration::from_secs(30)));
        for rec in service.drain() {
            assert_eq!(rec.state, JobState::Done, "{:?}", rec.detail);
        }

        let mut expected = BTreeSet::new();
        for &id in chains.iter().chain(&fanouts) {
            expected.insert(recover::meta_name(id));
            expected.insert(recover::result_name(id));
        }
        let mut parked = 0;
        for &id in &fanouts {
            if !recover::read_dlq(st.as_ref(), id).unwrap().is_empty() {
                parked += 1;
                expected.insert(recover::workflow_name(id));
                expected.insert(recover::checkpoint_name(id));
                expected.insert(recover::dlq_name(id));
            }
        }
        assert!(parked > 0, "({backend}) no mapreduce seed parked an item");
        let held: BTreeSet<String> = st.list().unwrap().into_iter().collect();
        assert_eq!(held, expected, "({backend}) records after drain");
        drop(st);

        let st = open();
        let replayed: BTreeSet<String> = st.list().unwrap().into_iter().collect();
        assert_eq!(replayed, expected, "({backend}) records after reopen");
        let service = Service::start(config(st)).unwrap();
        assert!(service.jobs().is_empty(), "({backend}) re-admitted a job");
        let newest = fanouts.iter().chain(&chains).map(|id| id.0).max().unwrap();
        let fresh: JobId = service
            .submit(submission("fresh", grid, 9, chain_xml("c", 1, 1.0, "h1")))
            .unwrap();
        assert!(fresh.0 > newest, "({backend}) id {fresh} reused");
        drop(service.drain());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn metrics_snapshot_surfaces_storage_counters() {
    // ISSUE satellite: the WAL's counters show up in the service metrics
    // snapshot, and a restart over the same log reports replayed records.
    let dir = tmpdir("storage-counters");
    let config = || ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        storage: Some(Arc::new(WalStorage::open(&dir).unwrap())),
        ..ServiceConfig::default()
    };
    let service = Service::start(config()).unwrap();
    let grid = GridSpec::virtual_grid().with_host("h1", 1.0);
    for i in 0..3 {
        service
            .submit(submission(
                &format!("wal{i}"),
                grid.clone(),
                i,
                chain_xml("wal", 2, 1.0, "h1"),
            ))
            .unwrap();
    }
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    let snapshot = service.metrics_json();
    assert!(snapshot.contains("\"schema\": 2"), "{snapshot}");
    assert!(snapshot.contains("\"backend\": \"wal\""), "{snapshot}");
    let field = |name: &str| -> u64 {
        let tail = &snapshot[snapshot
            .find(&format!("\"{name}\": "))
            .unwrap_or_else(|| panic!("{name} missing: {snapshot}"))
            + name.len()
            + 4..];
        tail.split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(field("wal_appends") > 0, "{snapshot}");
    assert!(field("group_commits") > 0, "{snapshot}");
    assert!(field("bytes_logged") > 0, "{snapshot}");
    assert_eq!(field("recovery_replayed_records"), 0, "{snapshot}");
    drop(service.drain());

    // Restart: the same log replays the journalled records.
    let service = Service::start(config()).unwrap();
    let snapshot = service.metrics_json();
    assert!(snapshot.contains("\"backend\": \"wal\""), "{snapshot}");
    let tail = &snapshot[snapshot.find("\"recovery_replayed_records\": ").unwrap() + 29..];
    let replayed: u64 = tail
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(replayed > 0, "restart saw no replayed records: {snapshot}");
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

/// A jittered link lets a job manager's `Done` overtake the task's
/// `Task End`, which the crash rule would read as a crash.  The service's
/// engines buffer notifications for the link's delay + jitter bound, so a
/// seed on which an unbuffered engine misclassifies still settles in one
/// attempt.
#[test]
fn jittered_link_does_not_read_a_success_as_a_crash() {
    let grid = GridSpec::virtual_grid()
        .with_host("h", 1.0)
        .with_link_spec(LinkSpec {
            delay: 0.0,
            drop_p: 0.0,
            jitter: 2.0,
            dup_p: 0.0,
        });
    let workflow = || {
        let mut b = WorkflowBuilder::new("jitter").program("p", 5.0, &["h"]);
        b.activity("a", "p").retry(3, 0.5).heartbeat(0.0, 3.0);
        b
    };
    // The seed scan of the engine-level reorder test, on this grid.
    let seed = (0..200u64)
        .find(|&seed| {
            let report = Engine::new(workflow().build().unwrap(), grid.build_sim(seed)).run();
            report.trace.iter().any(|e| {
                matches!(&e.kind, TraceKind::TaskSettled { reason, .. }
                    if reason == "done-without-task-end")
            })
        })
        .expect("200 seeds at U[0,2) jitter must reorder at least once");
    let service = Service::start(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    })
    .unwrap();
    let xml = workflow().to_xml().unwrap();
    let id = service
        .submit(submission("jitter", grid, seed, xml))
        .unwrap();
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    let rec = service.status(id).unwrap();
    assert_eq!(rec.state, JobState::Done, "{:?}", rec.detail);
    assert_eq!(rec.task_submissions, 1, "seed {seed}: a spurious retry");
}

#[test]
fn grid_names_with_whitespace_survive_a_restart() {
    use std::sync::atomic::Ordering;
    let start = |storage: &Arc<MemStorage>| {
        Service::start(ServiceConfig {
            workers: 1,
            storage: Some(storage.clone()),
            ..ServiceConfig::default()
        })
        .unwrap()
    };
    // The meta record stores the Grid as JSON, so a host name with a
    // space in it reads back after a restart.  Two paced tasks keep the
    // job unfinished when the first incarnation dies.
    let storage = Arc::new(MemStorage::new());
    let spaced = GridSpec::paced_grid(0.25).with_host("h one", 1.0);
    let service = start(&storage);
    let xml = chain_xml("spaced", 2, 1.0, "h one");
    let id = service
        .submit(submission("spaced", spaced.clone(), 1, xml))
        .expect("a spaced host name admits");
    service.shutdown_now();
    let stored = recover::load_job(storage.as_ref(), id).unwrap();
    assert_eq!(stored.grid, spaced);
    let service = start(&storage);
    let recovered = service.metrics().counters.recovered.load(Ordering::Relaxed);
    assert_eq!(recovered, 1);
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    let rec = service.status(id).unwrap();
    assert_eq!(rec.state, JobState::Done, "{:?}", rec.detail);
    drop(service);

    // A Grid the record cannot carry is still refused before storage.
    let storage = Arc::new(MemStorage::new());
    let service = start(&storage);
    let good = GridSpec::virtual_grid().with_host("h1", 1.0);
    let cases = [
        (GridSpec::virtual_grid(), "grid config declares no hosts"),
        (
            good.clone().with_host("h2", f64::NAN),
            "host h2: speed NaN must be finite",
        ),
        (
            good.clone()
                .with_unreliable_host("h2", 1.0, f64::INFINITY, 1.0),
            "host h2: mttf inf must be finite",
        ),
    ];
    for (grid, want) in cases {
        let xml = chain_xml("bad", 1, 1.0, "h1");
        match service.submit(submission("bad", grid, 1, xml)) {
            Err(SubmitError::Io(e)) => assert_eq!(e, want),
            other => panic!("{want}: {other:?}"),
        }
        assert!(storage.list().unwrap().is_empty(), "{want}: nothing stored");
    }
    let refused = service.metrics().counters.rejected.load(Ordering::Relaxed);
    assert_eq!(refused, 3, "every refusal counted");
}
