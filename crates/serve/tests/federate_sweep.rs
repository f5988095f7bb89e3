//! The federated replica-kill sweep (ISSUE: robustness tentpole).
//!
//! For every (seed, backend) combination, run a 3-replica fleet over one
//! shared storage backend, submit a load round-robin, and chaos-kill a
//! seed-chosen subset of replicas (replica 0 is always spared so the
//! fleet stays live).  A killed replica models a box that wedged right
//! after accepting work: its admissions — and their epoch-1 leases —
//! land in storage, but no worker ever runs them and no heartbeat ever
//! renews, so the leases expire and the survivors take the jobs over.
//!
//! Fleet-wide invariants, on the WAL and memory:
//!
//! 1. **Exactly one terminal state** — every admitted job ends with
//!    exactly one `.result` record and exactly one `job_settled` journal
//!    event; no job is lost, none is double-settled.
//! 2. **Takeover accounting** — the fleet's `takeovers` counter equals
//!    the number of jobs the killed replicas admitted, and nothing is
//!    ever fenced (the dead own nothing worth contesting).
//! 3. **Determinism** — paired runs of the same combo admit the same
//!    ids and produce byte-identical per-job journals, across backends
//!    too: lease traffic is wall-clock-paced, so it is kept out of the
//!    journals except for the deterministic `lease_takeover` record.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridwfs_serve::{
    recover, FaultPlan, GridSpec, JobId, MemStorage, Service, ServiceConfig, Storage, Submission,
    WalStorage,
};

const REPLICAS: usize = 3;
const JOBS: u64 = 12;
const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;
const KILL_SPEC: &str = "replica_kill=0.45,panic=0.2";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gridwfs-federate-sweep-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn submission(i: u64) -> Submission {
    Submission {
        name: format!("fleet-{i}"),
        workflow_xml: format!(
            "<Workflow name='w{i}'>\
               <Activity name='a'><Implement>p</Implement></Activity>\
               <Program name='p' duration='{}'><Option hostname='h1'/></Program>\
             </Workflow>",
            3 + i
        ),
        grid: GridSpec::virtual_grid().with_host("h1", 1.0),
        seed: 100 + i,
        deadline: None,
    }
}

fn backend_storage(kind: &str, root: &Path) -> Arc<dyn Storage> {
    match kind {
        "wal" => Arc::new(WalStorage::open(root.join("state")).unwrap()),
        "mem" => Arc::new(MemStorage::new()),
        other => panic!("unknown backend {other}"),
    }
}

struct Outcome {
    admitted: Vec<u64>,
    /// Per-job journal bytes, keyed by job id.
    journals: BTreeMap<u64, Vec<u8>>,
    /// Per-job result record, keyed by job id.
    results: BTreeMap<u64, String>,
}

/// One fleet run: 3 replicas over one backend, seed-chosen kills.
fn run_fleet(base: &Path, seed: u64, backend: &str) -> Outcome {
    let st = backend_storage(backend, base);
    let trace = base.join("trace");
    let ttl = Duration::from_millis(500);
    let spec = format!("seed={seed},{KILL_SPEC}");
    let plan = FaultPlan::parse(&spec).unwrap();
    // Replica 0 is exempt from the kill decision (its plan simply has no
    // replica-kill probability) so the fleet always has a survivor; the
    // engine-level fault stream is identical either way.
    let spared = FaultPlan::parse(&format!("seed={seed},panic=0.2")).unwrap();
    let fleet: Vec<Service> = (0..REPLICAS)
        .map(|k| {
            Service::start(ServiceConfig {
                workers: 2,
                queue_capacity: 64,
                storage: Some(st.clone()),
                trace_dir: Some(trace.clone()),
                chaos: Some(if k == 0 { spared.clone() } else { plan.clone() }),
                replica_id: Some(format!("r{k}")),
                replica_index: k,
                fleet_size: REPLICAS,
                lease_ttl: ttl,
                ..ServiceConfig::default()
            })
            .unwrap_or_else(|e| panic!("replica {k} start ({spec}, {backend}): {e}"))
        })
        .collect();

    // Round-robin the load across the whole fleet, dead replicas
    // included: their admissions are the orphans the sweep is about.
    let mut admitted = Vec::new();
    let mut orphans = 0u64;
    for i in 0..JOBS {
        let k = (i as usize) % REPLICAS;
        let id = fleet[k]
            .submit(submission(i))
            .unwrap_or_else(|e| panic!("submit {i} to r{k} ({spec}, {backend}): {e}"));
        admitted.push(id.0);
        if k > 0 && plan.replica_killed(&format!("r{k}")) {
            orphans += 1;
        }
    }

    // Fleet-wide completion: every admitted job has a result record in
    // the *shared* storage, whoever ended up running it.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let done = admitted
            .iter()
            .all(|&id| st.exists(&recover::result_name(JobId(id))));
        if done {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "fleet never settled all jobs ({spec}, {backend})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let takeovers: u64 = fleet
        .iter()
        .map(|s| s.metrics().counters.takeovers.load(Ordering::Relaxed))
        .sum();
    assert_eq!(
        takeovers, orphans,
        "every orphaned job taken over exactly once ({spec}, {backend})"
    );
    let fenced: u64 = fleet
        .iter()
        .map(|s| s.metrics().counters.fenced_writes.load(Ordering::Relaxed))
        .sum();
    assert_eq!(
        fenced, 0,
        "dead-from-start replicas never contest a write ({spec}, {backend})"
    );
    for svc in fleet {
        drop(svc.drain());
    }

    let mut journals = BTreeMap::new();
    let mut results = BTreeMap::new();
    for &id in &admitted {
        let jid = JobId(id);
        assert!(
            !st.exists(&recover::lease_name(jid)),
            "job {id}: lease released with its settle ({spec}, {backend})"
        );
        let result = st.read_to_string(&recover::result_name(jid)).unwrap();
        results.insert(id, result);
        let bytes = std::fs::read(recover::trace_path(&trace, jid)).unwrap();
        let text = String::from_utf8_lossy(&bytes);
        assert_eq!(
            text.matches("\"kind\":\"job_settle\"").count(),
            1,
            "job {id}: exactly one terminal settlement ({spec}, {backend}):\n{text}"
        );
        journals.insert(id, bytes);
    }
    Outcome {
        admitted,
        journals,
        results,
    }
}

fn sweep(backend: &str) {
    common::quiet_expected_panics();
    for seed in SEEDS {
        let a = run_fleet(&tmpdir(&format!("{backend}-{seed}-a")), seed, backend);
        let b = run_fleet(&tmpdir(&format!("{backend}-{seed}-b")), seed, backend);
        assert_eq!(
            a.admitted, b.admitted,
            "admission schedule diverged (seed {seed}, {backend})"
        );
        assert_eq!(
            a.results, b.results,
            "terminal records diverged (seed {seed}, {backend})"
        );
        for (&id, bytes_a) in &a.journals {
            let bytes_b = &b.journals[&id];
            assert_eq!(
                bytes_a,
                bytes_b,
                "journal for job {id} not byte-identical across paired runs (seed {seed}, {backend}):\n--- a ---\n{}\n--- b ---\n{}",
                String::from_utf8_lossy(bytes_a),
                String::from_utf8_lossy(bytes_b)
            );
        }
    }
}

mod common;

#[test]
fn replica_kill_sweep_wal() {
    sweep("wal");
}

#[test]
fn replica_kill_sweep_memory() {
    sweep("mem");
}
