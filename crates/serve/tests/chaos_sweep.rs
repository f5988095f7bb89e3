//! The headline chaos sweep (ISSUE: robustness tentpole).
//!
//! For every (fault plan, seed) combination — 4 plans × 8 seeds = 32
//! combos — run a 2-worker service against a seeded [`FaultPlan`], then
//! restart the same storage with chaos off, and assert the three service
//! invariants **on every storage backend** (WAL, memory):
//!
//! 1. **No deadlock** — `wait_all_terminal` returns within its budget in
//!    both phases, under injected panics, stalls, and storage faults.
//! 2. **No admitted job lost** — every submission that returned `Ok` is,
//!    after the restart, terminal in storage, terminal in memory, or
//!    explicitly quarantined (corrupt-by-injection, moved aside and
//!    counted); nothing silently vanishes.
//! 3. **Determinism** — running the identical combo in a fresh temp
//!    directory admits the same jobs and produces byte-identical per-job
//!    flight journals, because every fault decision is a pure function of
//!    (plan seed, record name, op, sequence) and never of wall time, path,
//!    or backend file layout.
//!
//! Fault injection sits at the [`Storage`] record level (`ChaosStorage`),
//! so the exact same decision stream hits the WAL and the in-memory table.
//!
//! The sweep is parameterized over the *workflow shape* as well: plain
//! chains and `<Foreach>` fan-outs with per-item retry and a dead-letter
//! queue.  For fan-outs a fourth invariant applies — **per-item
//! accounting**: the journal of a done job settles every instantiated
//! item exactly once (settled + dead-lettered == instantiated; nothing
//! lost, nothing double-settled) and the persisted `.dlq` record names
//! exactly the journal's dead-lettered items.  A done job that parked
//! nothing keeps no workflow, checkpoint or elapsed record; a parked one
//! keeps a checkpoint that agrees with the journal.  The accounting is
//! asserted strictly when the plan injects no storage faults, and is
//! compared for equality across runs *and across backends* always (the
//! record-level fault stream is backend-agnostic, so even what chaos
//! leaves behind must match).

mod common;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use grid_wfs::ItemState;
use gridwfs_serve::{
    recover, Backend, FaultPlan, GridSpec, JobId, JobState, MemStorage, ProfileSpec, SchedulerSpec,
    Service, ServiceConfig, Storage, Submission, SubmitError, WalStorage,
};

const JOBS: u64 = 5;
const SEEDS: std::ops::RangeInclusive<u64> = 1..=8;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gridwfs-chaos-sweep-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn submission(i: u64) -> Submission {
    Submission {
        name: format!("sweep-{i}"),
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

/// A MapReduce-shaped job: a fan-out over four items whose program
/// raises a recoverable exception probabilistically (seed-driven), with
/// one retry before the item parks in the dead-letter queue, then a
/// reduce step.  Parked items do not fail the job.
fn submission_foreach(i: u64) -> Submission {
    Submission {
        name: format!("mapred-{i}"),
        workflow_xml: format!(
            "<Workflow name='m{i}'>\
               <Exception name='flaky' fatal='false'/>\
               <Activity name='map' interval='1'><Implement>m</Implement>\
                 <Foreach max_parallel='2' max_attempts='2' on_item_failure='dlq'>\
                   <Item>north</Item><Item>east</Item><Item>south</Item><Item>west</Item>\
                 </Foreach>\
               </Activity>\
               <Activity name='reduce'><Implement>r</Implement></Activity>\
               <Transition from='map' to='reduce'/>\
               <Program name='m' duration='{}'><Option hostname='h1'/></Program>\
               <Program name='r' duration='2'><Option hostname='h1'/></Program>\
             </Workflow>",
            3 + i
        ),
        grid: GridSpec::virtual_grid()
            .with_host("h1", 1.0)
            .with_profile(ProfileSpec {
                program: "m".into(),
                checkpoint_period: Some(1.0),
                soft_crash_mttf: None,
                exception: Some(("flaky".into(), 1, 0.3)),
            }),
        seed: 100 + i,
        deadline: None,
    }
}

/// A resilient-scheduler job: three options where the first host dies
/// almost immediately, so the scorer must steer the retries.  Used by the
/// targeted-panic sweep below to prove the resilient path keeps every
/// chaos invariant — paired-run and cross-backend byte-identical
/// journals included.
fn submission_resilient(i: u64) -> Submission {
    Submission {
        name: format!("steer-{i}"),
        workflow_xml: format!(
            "<Workflow name='s{i}'>\
               <Activity name='a' max_tries='4' interval='1'><Implement>p</Implement></Activity>\
               <Program name='p' duration='{}'>\
                 <Option hostname='doomed.host'/>\
                 <Option hostname='ok1'/>\
                 <Option hostname='ok2'/>\
               </Program>\
             </Workflow>",
            3 + i
        ),
        grid: GridSpec::virtual_grid()
            .with_unreliable_host("doomed.host", 1.0, 0.001, 1e6)
            .with_host("ok1", 1.0)
            .with_host("ok2", 1.0)
            .with_scheduler(SchedulerSpec::Resilient),
        seed: 100 + i,
        deadline: None,
    }
}

/// Everything a combo run produces that the invariants inspect.
struct Outcome {
    admitted: Vec<u64>,
    /// Per-job journal bytes after BOTH phases, keyed by job id.
    journals: BTreeMap<u64, Vec<u8>>,
    /// Per-job accounting lines derived from the journal's item events,
    /// the `.dlq` record and which purgeable records the job kept.
    accounting: BTreeMap<u64, Vec<String>>,
}

/// One field of a journal line (`"key":value`), unquoted.  The sweep's
/// activity names and outcomes carry no escapes.
fn journal_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[at..];
    match rest.strip_prefix('"') {
        Some(quoted) => quoted.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

/// Derives the per-item accounting of one job after phase 2.  A done job
/// keeps its checkpoint only if it parked items, so the item states come
/// from its journal: the last `item_settle` / `item_dlq` event of every
/// item `foreach_start` instantiated.  With `strict` (no storage faults
/// were injected) the strong invariants are asserted outright: every item
/// settled exactly once — settled + dead-lettered == instantiated — and
/// the `.dlq` record lists exactly the journal's dead-lettered items.  A
/// job with nothing parked kept none of its workflow, checkpoint and
/// elapsed records; a parked job kept its checkpoint, which agrees with
/// the journal.  Without `strict`, whatever chaos left behind is rendered
/// to lines so runs and backends can be compared for equality.
fn item_accounting(
    st: &dyn Storage,
    journal: &str,
    id: JobId,
    strict: bool,
    ctx: &str,
) -> Vec<String> {
    let mut out = Vec::new();
    let done = matches!(recover::read_result(st, id), Ok(Some((JobState::Done, _))));
    if !done {
        // Legitimately failed (e.g. a chaos-injected workflow panic keyed
        // by the job seed, which recurs identically every incarnation):
        // the per-item invariants apply to completed fan-outs only.
        out.push("not-done".into());
        return out;
    }
    let mut fanouts: BTreeMap<String, usize> = BTreeMap::new();
    let mut events: BTreeMap<(String, usize), Vec<String>> = BTreeMap::new();
    for line in journal.lines() {
        let kind = journal_field(line, "kind");
        let activity = journal_field(line, "activity")
            .unwrap_or_default()
            .to_string();
        let number = |key| journal_field(line, key).and_then(|n| n.parse().ok());
        match kind {
            Some("foreach_start") => {
                fanouts.insert(activity, number("items").expect("fan-out size"));
            }
            Some("item_settle" | "item_dlq") => {
                let outcome = match kind {
                    Some("item_dlq") => "dlq",
                    _ => journal_field(line, "outcome").unwrap_or("?"),
                };
                let attempts = journal_field(line, "attempts").unwrap_or("?");
                events
                    .entry((activity, number("item").expect("item index")))
                    .or_default()
                    .push(format!("{outcome} attempts={attempts}"));
            }
            _ => {}
        }
    }
    let mut parked = Vec::new();
    for (activity, &items) in &fanouts {
        for idx in 0..items {
            let settled = events
                .get(&(activity.clone(), idx))
                .map(Vec::as_slice)
                .unwrap_or_default();
            if strict {
                assert_eq!(
                    settled.len(),
                    1,
                    "{ctx}: {id}: item {activity}[{idx}] settled {settled:?} in a done job"
                );
            }
            let last = settled.last().map_or("unsettled", String::as_str);
            if last.starts_with("dlq ") {
                parked.push(idx);
            }
            out.push(format!("{activity}[{idx}] {last}"));
        }
    }
    let dlq_record: Vec<usize> = recover::read_dlq(st, id)
        .map(|entries| entries.iter().map(|e| e.index).collect())
        .unwrap_or_default();
    let kept: Vec<String> = recover::purge_names(id)
        .into_iter()
        .filter(|name| st.exists(name))
        .collect();
    if strict {
        assert_eq!(
            dlq_record, parked,
            "{ctx}: {id}: .dlq record disagrees with the journal"
        );
        if parked.is_empty() {
            assert!(
                kept.is_empty(),
                "{ctx}: {id}: a done job with nothing parked kept {kept:?}"
            );
        } else {
            let ckpt = st
                .read_to_string(&recover::checkpoint_name(id))
                .unwrap_or_else(|e| panic!("{ctx}: {id}: parked job without a checkpoint: {e}"));
            let instance = grid_wfs::checkpoint::from_xml(&ckpt)
                .unwrap_or_else(|e| panic!("{ctx}: {id}: parked job with a torn checkpoint: {e}"));
            let mut ckpt_dlq = Vec::new();
            for (name, items) in instance.items_iter() {
                for (idx, p) in items.iter().enumerate() {
                    assert!(
                        p.state.is_terminal(),
                        "{ctx}: {id}: item {name}[{idx}] left {:?} in a done job",
                        p.state
                    );
                    if p.state == ItemState::DeadLettered {
                        ckpt_dlq.push(idx);
                    }
                }
            }
            assert_eq!(
                ckpt_dlq, parked,
                "{ctx}: {id}: the kept checkpoint disagrees with the journal"
            );
        }
    }
    out.push(format!("dlq-record {dlq_record:?}"));
    out.push(format!("kept {kept:?}"));
    out
}

fn config(trace: &Path, chaos: Option<FaultPlan>, storage: Arc<dyn Storage>) -> ServiceConfig {
    ServiceConfig {
        workers: 2,
        queue_capacity: 64,
        trace_dir: Some(trace.to_path_buf()),
        chaos,
        storage: Some(storage),
        ..ServiceConfig::default()
    }
}

/// Phase 1 (chaos on) + phase 2 (restart, chaos off) in `base`.
fn run_combo(base: &Path, spec: &str, backend: Backend, submit: fn(u64) -> Submission) -> Outcome {
    let state = base.join("state");
    let trace = base.join("trace");
    let plan = FaultPlan::parse(spec).unwrap_or_else(|e| panic!("bad spec '{spec}': {e}"));
    let strict = !plan.has_fs_faults();
    // The memory backend has no disk to restart from: both phases (and
    // the final inspection) share one table, which is exactly how a caller
    // embeds the service without a disk.  The WAL is reopened from disk.
    let mem = Arc::new(MemStorage::new());
    let storage = || -> Arc<dyn Storage> {
        match backend {
            Backend::Memory => mem.clone(),
            Backend::Wal => Arc::new(WalStorage::open(&state).unwrap()),
        }
    };

    // Phase 1: chaos on.
    let svc = Service::start(config(&trace, Some(plan), storage()))
        .unwrap_or_else(|e| panic!("phase-1 start ({spec}, {backend:?}): {e}"));
    let mut admitted = Vec::new();
    for i in 0..JOBS {
        match svc.submit(submit(i)) {
            Ok(id) => admitted.push(id.0),
            // An injected fault while persisting the submission: loudly
            // rejected, nothing of the job remains — not "admitted".
            Err(SubmitError::Io(_)) => {}
            Err(e) => panic!("unexpected submit error ({spec}, {backend:?}): {e}"),
        }
    }
    assert!(
        svc.wait_all_terminal(Duration::from_secs(60)),
        "phase-1 deadlock under chaos ({spec}, {backend:?})"
    );
    // `drain` consumes the service, so the backend (and a WAL's append
    // handle) is released before the restart opens the same storage.
    drop(svc.drain());

    // Phase 2: restart the same storage with chaos off; recovery must
    // re-admit every unfinished job and run it to a terminal state.
    let svc = Service::start(config(&trace, None, storage()))
        .unwrap_or_else(|e| panic!("phase-2 start ({spec}, {backend:?}): {e}"));
    assert!(
        svc.wait_all_terminal(Duration::from_secs(60)),
        "phase-2 deadlock after restart ({spec}, {backend:?})"
    );
    let records = svc.drain();

    // Invariant 2: every admitted job is accounted for.  Inspect through
    // the trait so the check is layout-agnostic (the WAL has no per-job
    // files to stat).
    let st = storage();
    for &id in &admitted {
        let jid = JobId(id);
        let terminal_in_storage = st.exists(&recover::result_name(jid));
        let terminal_in_memory = records.iter().any(|r| r.id == jid && r.state.is_terminal());
        let quarantined = st.exists(&format!("{}.quarantined", recover::meta_name(jid)));
        assert!(
            terminal_in_storage || terminal_in_memory || quarantined,
            "job {id} lost ({spec}, {backend:?}): admitted but neither terminal nor quarantined"
        );
    }

    let mut journals = BTreeMap::new();
    let mut accounting = BTreeMap::new();
    for &id in &admitted {
        let bytes = std::fs::read(recover::trace_path(&trace, JobId(id))).unwrap_or_default();
        let ctx = format!("({spec}, {backend:?})");
        let journal = String::from_utf8_lossy(&bytes);
        let items = item_accounting(st.as_ref(), &journal, JobId(id), strict, &ctx);
        accounting.insert(id, items);
        journals.insert(id, bytes);
    }
    Outcome {
        admitted,
        journals,
        accounting,
    }
}

/// Runs each seeded variant of `template` twice in fresh directories, on
/// every backend, and asserts the two runs are indistinguishable.  The
/// admission schedule must also agree **across** backends: the fault
/// stream is keyed by record name, not by what the backend does with it.
fn sweep(tag: &str, template: &str, submit: fn(u64) -> Submission) {
    common::quiet_expected_panics();
    for seed in SEEDS {
        let spec = format!("seed={seed},{template}");
        let mut admitted_by_backend: Vec<Vec<u64>> = Vec::new();
        let mut accounting_by_backend: Vec<BTreeMap<u64, Vec<String>>> = Vec::new();
        for backend in [Backend::Wal, Backend::Memory] {
            let bt = backend.as_str();
            let a = run_combo(
                &tmpdir(&format!("{tag}-{seed}-{bt}-a")),
                &spec,
                backend,
                submit,
            );
            let b = run_combo(
                &tmpdir(&format!("{tag}-{seed}-{bt}-b")),
                &spec,
                backend,
                submit,
            );
            assert_eq!(
                a.admitted, b.admitted,
                "admission schedule diverged ({spec}, {backend:?})"
            );
            for (&id, bytes_a) in &a.journals {
                let bytes_b = &b.journals[&id];
                assert_eq!(
                    bytes_a,
                    bytes_b,
                    "journal for job {id} not byte-identical across runs ({spec}, {backend:?}):\n--- a ---\n{}\n--- b ---\n{}",
                    String::from_utf8_lossy(bytes_a),
                    String::from_utf8_lossy(bytes_b)
                );
            }
            assert_eq!(
                a.accounting, b.accounting,
                "item accounting diverged across runs ({spec}, {backend:?})"
            );
            admitted_by_backend.push(a.admitted);
            accounting_by_backend.push(a.accounting);
        }
        for pair in admitted_by_backend.windows(2) {
            assert_eq!(
                pair[0], pair[1],
                "admission schedule diverged across backends ({spec})"
            );
        }
        // The record-level fault stream is backend-agnostic, so per-item
        // accounting — including what chaos dead-lettered — must be
        // seed-identical on the WAL and memory.
        for pair in accounting_by_backend.windows(2) {
            assert_eq!(
                pair[0], pair[1],
                "item accounting diverged across backends ({spec})"
            );
        }
    }
}

#[test]
fn sweep_workflow_panics() {
    sweep("panic", "panic=0.3", submission);
}

#[test]
fn sweep_state_dir_write_and_rename_faults() {
    sweep("wr", "write=0.25,rename=0.25", submission);
}

#[test]
fn sweep_torn_writes_and_read_faults() {
    sweep("torn", "torn=0.4,read=0.2", submission);
}

#[test]
fn sweep_everything_at_once() {
    sweep(
        "all",
        "panic=0.15,stall=0.4,stall_ms=5,write=0.15,torn=0.2,rename=0.15,read=0.1",
        submission,
    );
}

/// The resilient scheduler under targeted chaos: job seed 101 always
/// panics in phase 1 (`panic_seed`), and every job's first option is a
/// host that dies at once, so retries must migrate off it.  The full
/// sweep invariants apply — no deadlock, nothing lost (each job settles
/// exactly once), and the steered journals are byte-identical across
/// paired runs and backends: evidence-driven placement stays as
/// deterministic as oblivious cycling.
#[test]
fn sweep_resilient_steering_under_targeted_panics() {
    sweep(
        "steer",
        "panic_seed=101,stall=0.2,stall_ms=3",
        submission_resilient,
    );
}

/// Worker-count invariance for the resilient scheduler: the scorer's
/// evidence is engine-local and journal-fed, so however many workers run
/// the batch, each job's steered flight journal is byte-identical.
#[test]
fn resilient_journals_are_worker_count_invariant() {
    let mut baseline: Option<BTreeMap<u64, Vec<u8>>> = None;
    for workers in [1, 2, 4] {
        let base = tmpdir(&format!("steer-workers-{workers}"));
        let trace = base.join("trace");
        let svc = Service::start(ServiceConfig {
            workers,
            queue_capacity: 64,
            trace_dir: Some(trace.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut admitted = Vec::new();
        for i in 0..JOBS {
            admitted.push(svc.submit(submission_resilient(i)).unwrap().0);
        }
        assert!(svc.wait_all_terminal(Duration::from_secs(60)));
        drop(svc.drain());
        let mut journals = BTreeMap::new();
        for &id in &admitted {
            journals.insert(
                id,
                std::fs::read(recover::trace_path(&trace, JobId(id))).unwrap(),
            );
        }
        match &baseline {
            None => baseline = Some(journals),
            Some(j0) => {
                for (&id, bytes) in &journals {
                    assert_eq!(
                        bytes, &j0[&id],
                        "steered journal for job {id} depends on worker count ({workers} workers)"
                    );
                }
            }
        }
    }
}

/// Fan-outs under engine-level chaos only (panics + stalls, no storage
/// faults): every group commit lands, so the strong per-item invariants
/// are asserted outright in [`item_accounting`] — every job done, every
/// item exactly one terminal state, `.dlq` record == checkpoint.
#[test]
fn sweep_foreach_items_survive_panics_and_restart() {
    sweep(
        "fe-panic",
        "panic=0.3,stall=0.3,stall_ms=3",
        submission_foreach,
    );
}

/// Fan-outs under storage chaos (torn writes, failed writes/renames,
/// read faults) plus panics: the sweep's generic invariants hold and the
/// per-item accounting — including what chaos left dead-lettered — is
/// byte-identical across runs and backends per seed.
#[test]
fn sweep_foreach_fanout_under_storage_chaos() {
    sweep(
        "fe-all",
        "panic=0.15,write=0.15,torn=0.2,rename=0.15,read=0.1",
        submission_foreach,
    );
}

/// Worker-count invariance for fan-outs: however many workers race the
/// fan-out, the journals and the final per-item accounting are
/// byte-identical — scheduling is not allowed to leak into outcomes.
#[test]
fn foreach_accounting_is_worker_count_invariant() {
    // (result bytes, journal lines) per job, from the first worker count.
    type Baseline = (BTreeMap<u64, Vec<u8>>, BTreeMap<u64, Vec<String>>);
    let mut baseline: Option<Baseline> = None;
    for workers in [1, 2, 4] {
        let base = tmpdir(&format!("fe-workers-{workers}"));
        let state = base.join("state");
        let trace = base.join("trace");
        let svc = Service::start(ServiceConfig {
            workers,
            queue_capacity: 64,
            storage: Some(Arc::new(WalStorage::open(&state).unwrap())),
            trace_dir: Some(trace.clone()),
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut admitted = Vec::new();
        for i in 0..JOBS {
            admitted.push(svc.submit(submission_foreach(i)).unwrap().0);
        }
        assert!(svc.wait_all_terminal(Duration::from_secs(60)));
        drop(svc.drain());
        let st = WalStorage::open(&state).unwrap();
        let mut journals = BTreeMap::new();
        let mut accounting = BTreeMap::new();
        for &id in &admitted {
            let journal = std::fs::read_to_string(recover::trace_path(&trace, JobId(id))).unwrap();
            let ctx = format!("(workers={workers})");
            accounting.insert(id, item_accounting(&st, &journal, JobId(id), true, &ctx));
            journals.insert(id, journal.into_bytes());
        }
        match &baseline {
            None => baseline = Some((journals, accounting)),
            Some((j0, a0)) => {
                for (&id, bytes) in &journals {
                    assert_eq!(
                        bytes,
                        &j0[&id],
                        "journal for job {id} depends on worker count ({workers} workers):\n{}",
                        String::from_utf8_lossy(bytes)
                    );
                }
                assert_eq!(
                    &accounting, a0,
                    "item accounting depends on worker count ({workers} workers)"
                );
            }
        }
    }
}
