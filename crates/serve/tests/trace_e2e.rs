//! Flight-recorder end-to-end: per-job journals are byte-identical no
//! matter how many workers race over the queue, and a recovered job's
//! later incarnations append to the same journal under a fresh
//! incarnation tag instead of overwriting history.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridwfs_serve::{
    recover, GridSpec, JobId, JobState, Service, ServiceConfig, Storage, Submission, WalStorage,
};
use gridwfs_wpdl::builder::WorkflowBuilder;

fn tmpdir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gridwfs-trace-e2e-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A two-stage workflow whose first stage retries on an unreliable host —
/// enough structure for the journal to carry real recovery events.
fn retry_chain_xml(name: &str) -> String {
    let mut b = WorkflowBuilder::new(name).program("p", 10.0, &["shaky"]);
    b.activity("first", "p").retry(3, 2.0);
    b.activity("second", "p");
    b.edge("first", "second")
        .to_xml()
        .expect("test workflow serialises")
}

fn unreliable_grid() -> GridSpec {
    GridSpec::virtual_grid().with_unreliable_host("shaky", 1.0, 15.0, 1.0)
}

fn run_batch(trace_dir: &Path, workers: usize) -> Vec<String> {
    let service = Service::start(ServiceConfig {
        workers,
        queue_capacity: 16,
        trace_dir: Some(trace_dir.to_path_buf()),
        ..ServiceConfig::default()
    })
    .unwrap();
    let mut ids = Vec::new();
    for i in 0..4u64 {
        ids.push(
            service
                .submit(Submission {
                    name: format!("wf-{i}"),
                    workflow_xml: retry_chain_xml(&format!("wf-{i}")),
                    grid: unreliable_grid(),
                    seed: 100 + i,
                    deadline: None,
                })
                .unwrap(),
        );
    }
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    service.drain();
    ids.iter()
        .map(|id| std::fs::read_to_string(recover::trace_path(trace_dir, *id)).unwrap())
        .collect()
}

#[test]
fn journals_are_byte_identical_across_worker_counts() {
    let d1 = tmpdir("w1");
    let d4 = tmpdir("w4");
    let solo = run_batch(&d1, 1);
    let pool = run_batch(&d4, 4);
    assert_eq!(solo.len(), pool.len());
    for (i, (a, b)) in solo.iter().zip(&pool).enumerate() {
        assert_eq!(
            a,
            b,
            "job {} journal differs between 1 and 4 workers",
            i + 1
        );
        assert!(a.contains("\"kind\":\"job_admit\""), "{a}");
        assert!(a.contains("\"kind\":\"job_start\""), "{a}");
        assert!(a.contains("\"kind\":\"task_submit\""), "{a}");
        assert!(a.contains("\"kind\":\"job_settle\""), "{a}");
    }
    // The unreliable host makes at least one of the four seeds retry, so
    // the batch as a whole proves engine events reach the journals.
    assert!(
        solo.iter()
            .any(|j| j.contains("\"kind\":\"retry_scheduled\"")),
        "no seed retried — weaken the host or change seeds"
    );
    std::fs::remove_dir_all(&d1).ok();
    std::fs::remove_dir_all(&d4).ok();
}

#[test]
fn recovered_incarnation_appends_to_the_journal() {
    let state = tmpdir("state");
    let traces = tmpdir("traces");
    let config = |st: Arc<WalStorage>| ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        storage: Some(st),
        trace_dir: Some(traces.clone()),
        ..ServiceConfig::default()
    };
    // The first incarnation shares its WAL handle with the test, which
    // polls the checkpoint record to time its kill.
    let st = Arc::new(WalStorage::open(&state).unwrap());
    let service = Service::start(config(st.clone())).unwrap();
    // Paced 0.25: three ~250ms stages, so the kill lands mid-workflow.
    let mut b = WorkflowBuilder::new("slow").program("p", 1.0, &["local"]);
    b.activity("a", "p");
    b.activity("b", "p");
    b.activity("c", "p");
    let xml = b.edge("a", "b").edge("b", "c").to_xml().unwrap();
    let id = service
        .submit(Submission {
            name: "slow".into(),
            workflow_xml: xml,
            grid: GridSpec::paced_grid(0.25).with_host("local", 1.0),
            seed: 7,
            deadline: None,
        })
        .unwrap();
    assert_eq!(id, JobId(1));
    // Wait until the first stage settles, then pull the plug.
    let ckpt = recover::checkpoint_name(id);
    let deadline = Instant::now() + Duration::from_secs(20);
    while !st
        .read_to_string(&ckpt)
        .is_ok_and(|t| t.contains("status='done'"))
    {
        assert!(Instant::now() < deadline, "first settlement never landed");
        std::thread::sleep(Duration::from_millis(5));
    }
    service.shutdown_now();
    drop(st);
    let journal = std::fs::read_to_string(recover::trace_path(&traces, id)).unwrap();
    assert!(journal.contains("\"incarnation\":0"), "{journal}");
    assert!(
        journal.contains("\"kind\":\"job_abort\"")
            && journal.contains("\"reason\":\"service-shutdown\""),
        "{journal}"
    );
    assert!(!journal.contains("\"kind\":\"job_settle\""), "{journal}");

    // Second incarnation, from the log on disk: recovery re-admits, the
    // journal grows.
    let service = Service::start(config(Arc::new(WalStorage::open(&state).unwrap()))).unwrap();
    assert!(service.wait_all_terminal(Duration::from_secs(30)));
    assert!(service
        .trace_events()
        .iter()
        .any(|e| matches!(e.kind, gridwfs_serve::TraceKind::JobRecovered { job: 1 })));
    let records = service.drain();
    assert_eq!(records[0].state, JobState::Done);
    let journal = std::fs::read_to_string(recover::trace_path(&traces, id)).unwrap();
    let first_start = journal.find("\"incarnation\":0").unwrap();
    let second_start = journal.find("\"incarnation\":1").unwrap();
    assert!(
        first_start < second_start,
        "incarnations appear in order: {journal}"
    );
    assert!(
        journal.contains("\"kind\":\"job_settle\"") && journal.contains("\"state\":\"done\""),
        "{journal}"
    );
    std::fs::remove_dir_all(&state).ok();
    std::fs::remove_dir_all(&traces).ok();
}
