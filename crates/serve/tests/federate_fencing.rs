//! Federated-serve fencing drills (ISSUE: robustness tentpole).
//!
//! The zombie-owner race, on every storage backend: replica A owns a
//! running job and is paused past its lease TTL; replica B observes the
//! expiry, claims the lease with the epoch bumped, re-runs the job, and
//! settles it.  When the zombie resumes and tries to write, its batch
//! carries a `Check` on the *old* fencing line, so the storage layer
//! rejects it atomically — the job reaches exactly one terminal state in
//! storage no matter how late the zombie wakes.
//!
//! Plus the kill-9 half of takeover: a replica is hard-killed mid-run
//! and the peer drives the orphan through the ordinary recovery path —
//! checkpoint resume, elapsed-ledger deadline budget, incarnation-tagged
//! journal append.

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridwfs_serve::{
    recover, GridSpec, JobId, JobState, MemStorage, Op, Service, ServiceConfig, Storage,
    Submission, SubmitError, TraceKind, WalStorage,
};
use gridwfs_wpdl::builder::WorkflowBuilder;

fn tmpdir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gridwfs-federate-{label}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn chain3_xml() -> String {
    let mut b = WorkflowBuilder::new("federated").program("p", 1.0, &["local"]);
    b.activity("a", "p");
    b.activity("b", "p");
    b.activity("c", "p");
    b.edge("a", "b")
        .edge("b", "c")
        .to_xml()
        .expect("test workflow serialises")
}

fn paced_sub(name: &str, scale: f64) -> Submission {
    Submission {
        name: name.into(),
        workflow_xml: chain3_xml(),
        grid: GridSpec::paced_grid(scale).with_host("local", 1.0),
        seed: 7,
        deadline: Some(600.0),
    }
}

/// One replica of an in-process fleet sharing `storage`.
fn replica(
    k: usize,
    fleet: usize,
    storage: Arc<dyn Storage>,
    trace: &Path,
    ttl: Duration,
) -> Service {
    Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        storage: Some(storage),
        trace_dir: Some(trace.to_path_buf()),
        replica_id: Some(format!("r{k}")),
        replica_index: k,
        fleet_size: fleet,
        lease_ttl: ttl,
        ..ServiceConfig::default()
    })
    .unwrap()
}

fn backends(root: &Path) -> Vec<(&'static str, Arc<dyn Storage>)> {
    vec![
        (
            "wal",
            Arc::new(WalStorage::open(root.join("wal")).unwrap()) as Arc<dyn Storage>,
        ),
        ("mem", Arc::new(MemStorage::new())),
    ]
}

/// Polls `cond` until true or panics after `secs`.
fn wait_for(secs: u64, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn zombie_owner_is_fenced_on_every_backend() {
    let root = tmpdir("zombie");
    for (bt, st) in backends(&root) {
        let trace = root.join(format!("trace-{bt}"));
        let ttl = Duration::from_millis(400);
        let a = replica(0, 2, st.clone(), &trace, ttl);
        let b = replica(1, 2, st.clone(), &trace, ttl);

        // ~1.2s of paced work on A: long enough that B's takeover lands
        // while A still believes it owns the job.
        let id = a.submit(paced_sub(&format!("zombie-{bt}"), 0.4)).unwrap();

        // Let A renew at least once, then freeze its federation: no more
        // renewals, no scanning — the lease expires on schedule while
        // A's worker keeps running the engine (the zombie).
        let ac = a.metrics();
        wait_for(10, "a renewal", || {
            ac.counters.leases_renewed.load(Ordering::Relaxed) >= 1
        });
        a.pause_federation(true);

        // B observes the expiry and claims the job at epoch 2.
        let bc = b.metrics();
        wait_for(20, "takeover by b", || {
            bc.counters.takeovers.load(Ordering::Relaxed) == 1
        });
        assert!(bc.counters.lease_expirations.load(Ordering::Relaxed) >= 1);
        assert!(
            b.trace_events().iter().any(|e| matches!(e.kind,
                TraceKind::LeaseExpired { job, epoch: 1 } if job == id.0)),
            "({bt}) b's ring journals the expiry it observed"
        );

        // The zombie's next flush for the job — checkpoint or terminal
        // settle — is rejected at the storage batch and journalled.
        wait_for(20, "zombie fenced", || {
            ac.counters.fenced_writes.load(Ordering::Relaxed) >= 1
        });

        assert!(a.wait_all_terminal(Duration::from_secs(20)), "a ({bt})");
        assert!(b.wait_all_terminal(Duration::from_secs(20)), "b ({bt})");
        assert_eq!(b.status(id).unwrap().state, JobState::Done, "({bt})");
        let json = b.metrics_json();
        for needle in [
            "\"takeovers\": 1",
            "\"lease_expirations\"",
            "\"leases_renewed\"",
            "\"fenced_writes\": 0",
        ] {
            assert!(
                json.contains(needle),
                "({bt}) metrics missing {needle}: {json}"
            );
        }
        drop(a.drain());
        drop(b.drain());

        // Exactly one terminal state in storage, owned by nobody.
        let result = recover::read_result(st.as_ref(), id).unwrap();
        assert!(
            matches!(result, Some((JobState::Done, _))),
            "({bt}) result is the taker's: {result:?}"
        );
        assert!(
            !st.exists(&recover::lease_name(id)),
            "({bt}) lease released on settle"
        );

        // The journal tells the whole story: one takeover, at least one
        // fenced zombie write, and the taker's incarnation header.
        let journal = std::fs::read_to_string(recover::trace_path(&trace, JobId(id.0))).unwrap();
        assert_eq!(
            journal.matches("\"kind\":\"lease_takeover\"").count(),
            1,
            "({bt})\n{journal}"
        );
        assert!(
            journal.contains("\"kind\":\"write_fenced\""),
            "({bt})\n{journal}"
        );
        assert!(
            journal.contains("\"epoch\":2"),
            "({bt}) takeover bumped the epoch\n{journal}"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn killed_replica_job_resumes_from_checkpoint_on_the_peer() {
    let root = tmpdir("kill9");
    let st: Arc<dyn Storage> = Arc::new(WalStorage::open(root.join("wal")).unwrap());
    let trace = root.join("trace");
    let ttl = Duration::from_millis(300);
    let a = replica(0, 2, st.clone(), &trace, ttl);
    let b = replica(1, 2, st.clone(), &trace, ttl);

    let id = a.submit(paced_sub("kill9", 0.25)).unwrap();

    // Wait until the first task's settlement is in the persisted engine
    // checkpoint, then hard-kill A: the engine aborts, the elapsed ledger
    // banks the consumed budget, the checkpoint and the lease stay put.
    wait_for(20, "first checkpointed settlement", || {
        st.read_to_string(&recover::checkpoint_name(id))
            .map(|t| t.contains("status='done'"))
            .unwrap_or(false)
    });
    a.shutdown_now();
    assert!(
        recover::read_elapsed(st.as_ref(), id) > 0.0,
        "aborted incarnation banked its consumed executor time"
    );
    assert!(
        st.exists(&recover::lease_name(id)),
        "lease survives the kill"
    );

    // B claims after expiry and drives the job through the ordinary
    // recovery path: checkpoint resume, remaining deadline, incarnation 1.
    let bc = b.metrics();
    wait_for(20, "takeover by b", || {
        bc.counters.takeovers.load(Ordering::Relaxed) == 1
    });
    assert!(b.wait_all_terminal(Duration::from_secs(30)));
    let rec = b.status(id).unwrap();
    assert_eq!(rec.state, JobState::Done, "{:?}", rec.detail);
    assert!(rec.recovered, "the taker re-admitted it as recovered work");
    drop(b.drain());

    let result = recover::read_result(st.as_ref(), id).unwrap();
    assert!(matches!(result, Some((JobState::Done, _))), "{result:?}");
    let journal = std::fs::read_to_string(recover::trace_path(&trace, JobId(id.0))).unwrap();
    assert_eq!(journal.matches("\"kind\":\"lease_takeover\"").count(), 1);
    assert!(
        journal.contains("\"incarnation\":1"),
        "takeover appended an incarnation-tagged segment:\n{journal}"
    );
    std::fs::remove_dir_all(&root).ok();
}

/// A federated restart of the *same* replica reclaims its own jobs with
/// the epoch bumped — its previous incarnation's in-flight batches are
/// fenced, its queued work is not handed to peers that lost the race.
#[test]
fn restarted_replica_reclaims_its_own_leases() {
    let root = tmpdir("reclaim");
    let st: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let trace = root.join("trace");
    let ttl = Duration::from_millis(300);
    let a = replica(0, 1, st.clone(), &trace, ttl);
    let id = a.submit(paced_sub("reclaim", 0.25)).unwrap();
    wait_for(20, "first checkpointed settlement", || {
        st.read_to_string(&recover::checkpoint_name(id))
            .map(|t| t.contains("status='done'"))
            .unwrap_or(false)
    });
    a.shutdown_now();
    let lease = recover::read_lease(st.as_ref(), id).unwrap().unwrap();
    assert_eq!((lease.owner.as_str(), lease.epoch), ("r0", 1));

    let a = replica(0, 1, st.clone(), &trace, ttl);
    let lease = recover::read_lease(st.as_ref(), id).unwrap().unwrap();
    assert_eq!(
        (lease.owner.as_str(), lease.epoch),
        ("r0", 2),
        "restart reclaims at a bumped epoch"
    );
    assert!(a.wait_all_terminal(Duration::from_secs(30)));
    assert_eq!(a.status(id).unwrap().state, JobState::Done);
    assert_eq!(
        a.metrics().counters.takeovers.load(Ordering::Relaxed),
        0,
        "reclaiming your own lease is not a takeover"
    );
    drop(a.drain());
    assert!(!st.exists(&recover::lease_name(id)));
    std::fs::remove_dir_all(&root).ok();
}

/// A claim the winner cannot admit locally must be walked back, not
/// renewed forever: plant a torn job (meta but no workflow) under an
/// expired ghost lease, watch the sweeper claim it, fail `load_job`, and
/// release the lease — then restore the workflow record and watch the
/// next sweep retry the takeover to completion.
#[test]
fn unservable_claim_is_released_and_retried() {
    let root = tmpdir("release");
    let st: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let trace = root.join("trace");
    let a = replica(0, 1, st.clone(), &trace, Duration::from_millis(400));

    // One atomic batch: a full submission minus its workflow record,
    // owned by a departed replica whose lease expired long ago.
    let id = JobId(7);
    let sub = paced_sub("release", 0.05);
    let ghost = recover::Lease {
        owner: "ghost".into(),
        epoch: 1,
        expires_at: 0.0,
    };
    let mut ops = recover::write_submission_ops(id, &sub, Some(ghost.payload()));
    ops.retain(|op| !matches!(op, Op::Put(n, _) if *n == recover::workflow_name(id)));
    assert!(st.apply(ops).is_empty());

    // The sweeper sees the expiry and claims the orphan, but admission
    // fails (no workflow record), so the fresh lease must come back off.
    let ac = a.metrics();
    wait_for(20, "ghost lease expiry observed", || {
        ac.counters.lease_expirations.load(Ordering::Relaxed) >= 1
    });
    wait_for(20, "failed claim walked back", || {
        !st.exists(&recover::lease_name(id))
    });
    assert_eq!(
        ac.counters.takeovers.load(Ordering::Relaxed),
        0,
        "a claim that never admitted is not a takeover"
    );

    // Heal the job; the next sweep retries the takeover and runs it.
    st.put(&recover::workflow_name(id), sub.workflow_xml.as_bytes())
        .unwrap();
    wait_for(20, "takeover retried after heal", || {
        ac.counters.takeovers.load(Ordering::Relaxed) == 1
    });
    assert!(a.wait_all_terminal(Duration::from_secs(20)));
    assert_eq!(a.status(id).unwrap().state, JobState::Done);
    drop(a.drain());
    let result = recover::read_result(st.as_ref(), id).unwrap();
    assert!(matches!(result, Some((JobState::Done, _))), "{result:?}");
    assert!(!st.exists(&recover::lease_name(id)));
    std::fs::remove_dir_all(&root).ok();
}

/// Two replicas misconfigured with the same id stride (neither sets a
/// distinct `replica_index`) mint colliding job ids over shared storage.
/// The admission guard must reject the second submission instead of
/// silently overwriting the peer's live job — and the rejecting replica
/// keeps serving: its next mint lands on a free id.
#[test]
fn colliding_admission_is_rejected_not_overwritten() {
    let root = tmpdir("collide");
    let st: Arc<dyn Storage> = Arc::new(MemStorage::new());
    let trace = root.join("trace");
    // Both claim index 0 of a fleet of 1 — the misconfiguration the
    // guard exists for.  Long ttl keeps takeover out of the picture.
    let a = replica(0, 1, st.clone(), &trace, Duration::from_secs(5));
    let b = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 64,
        storage: Some(st.clone()),
        trace_dir: Some(trace.to_path_buf()),
        replica_id: Some("imposter".into()),
        replica_index: 0,
        fleet_size: 1,
        lease_ttl: Duration::from_secs(5),
        ..ServiceConfig::default()
    })
    .unwrap();

    let id = a.submit(paced_sub("collide-a", 0.05)).unwrap();
    assert_eq!(id.0, 1);
    match b.submit(paced_sub("collide-b", 0.05)) {
        Err(SubmitError::Io(msg)) => {
            assert!(msg.contains("already in use"), "{msg}");
            assert!(msg.contains("--replica-index"), "{msg}");
        }
        other => panic!("collision admitted: {other:?}"),
    }
    assert!(b.status(id).is_none(), "no phantom record for the loser");

    // The burned id is not recycled: b's next submission mints id 2 and
    // runs normally alongside a's job 1.
    let id2 = b.submit(paced_sub("collide-b2", 0.05)).unwrap();
    assert_eq!(id2.0, 2);
    assert!(a.wait_all_terminal(Duration::from_secs(20)));
    assert!(b.wait_all_terminal(Duration::from_secs(20)));
    assert_eq!(a.status(id).unwrap().state, JobState::Done);
    assert_eq!(b.status(id2).unwrap().state, JobState::Done);
    drop(a.drain());
    drop(b.drain());

    // Job 1's records are a's throughout: the collision never touched them.
    let meta = st.read_to_string(&recover::meta_name(id)).unwrap();
    assert!(meta.contains("collide-a"), "{meta}");
    let result = recover::read_result(st.as_ref(), id).unwrap();
    assert!(matches!(result, Some((JobState::Done, _))), "{result:?}");
    std::fs::remove_dir_all(&root).ok();
}
