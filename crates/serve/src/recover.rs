//! State persistence and crash recovery over the [`Storage`] trait.
//!
//! An admitted job leaves a handful of named records in the service's
//! storage backend.  Every structured one is a JSON document, written
//! with the journals' escaper and read by the strict reader that parses
//! `--grid` files ([`crate::json`]):
//!
//! * `job-<id>.wf.xml`   — the submitted WPDL document;
//! * `job-<id>.meta`     — `{"name":…,"seed":…,"deadline":…,"paced":…,
//!   "grid":{…}}` ([`meta_payload`]): the label, seed, deadline and pacing
//!   scale (the last two absent when unset), and the Grid as the document
//!   a `--grid` file holds ([`GridSpec::to_json`](crate::GridSpec::to_json));
//! * `job-<id>.ckpt.xml` — the engine checkpoint, rewritten after every
//!   task settlement while the job runs;
//! * `job-<id>.result`   — `{"state":…,"detail":…}`, the terminal marker,
//!   written exactly once and read only by [`read_result`].
//!
//! A restarted service re-admits every job that has a meta record but no
//! result marker.  If a checkpoint exists the worker resumes the engine
//! from it ([`grid_wfs::checkpoint::from_xml`]) instead of starting the
//! workflow from scratch — the paper's §7 engine fault tolerance, lifted
//! to the service level.
//!
//! Two more per-job records:
//!
//! * `job-<id>.elapsed` — a bare JSON number: executor-clock seconds the
//!   job has already consumed in earlier incarnations, so a resumed job's
//!   deadline is the *remaining* budget, not a fresh one.  It is updated
//!   whenever an aborted engine is requeued; time spent in an incarnation
//!   that died without a clean abort (kill -9) is forfeited from the
//!   ledger.
//! * `job-<id>.dlq` — `[{"activity":…,"index":…,"item":…,"attempts":…,
//!   "reason":…}]`, the `foreach` items the job's last run parked
//!   ([`dlq_name`]).
//!
//! Where the records live is the backend's business: frames in a
//! group-committed log under [`gridwfs_storage::WalStorage`], plain map
//! entries under [`gridwfs_storage::MemStorage`].  Every mutation goes
//! through [`Storage::apply`], whose batch is one crash-atomic group
//! commit — it lands whole or not at all, so a crash at any point leaves
//! either the old or the new version of each record, never a torn one.
//!
//! Corrupt entries are quarantined (meta renamed to
//! `job-<id>.meta.quarantined`, warning on stderr) rather than failing
//! the whole startup: one bad job must not take the service down.  A
//! meta record that does not parse, or whose Grid fails
//! [`GridSpec::validate`](crate::GridSpec::validate), is corrupt —
//! including every meta record a service older than the JSON records
//! wrote.
//!
//! Federated fleets add one more record: `job-<id>.lease` —
//! `{"owner":…,"epoch":N,"expires":T}`, which replica owns the job until
//! wall-clock second `T` ([`Lease`]).  The lease is minted in the
//! admission batch, renewed on the owner's heartbeat, CAS-claimed with a
//! bumped epoch by a takeover scanner once expired, and deleted in the
//! same group commit as the terminal result.  See `crate::federate`.
//!
//! ## Record lifecycle
//!
//! Admission writes `wf.xml` and `meta` in one batch that also deletes
//! whatever an earlier job left at the id.  While the job runs, its
//! checkpoint is rewritten, and an aborted incarnation banks `elapsed`.
//! The batch that writes the result marker also deletes the records in
//! [`purge_names`]: `wf.xml`, `ckpt.xml` and `elapsed`.  A terminal job
//! has nothing left to restart, so it keeps only `meta` and `result`, and
//! the marker and the purge land together or not at all.  Two kinds of
//! terminal job keep all three records:
//!
//! * a run that parked dead-lettered items keeps them for
//!   `gridwfs dlq retry`, which resets that checkpoint; the re-admitted
//!   job then reads `wf.xml` again;
//! * a job that settled without an engine report (its engine could not
//!   be built, or it panicked) keeps them as post-mortem evidence.
//!
//! Ids still never repeat.  `meta` and `result` survive the purge, and id
//! allocation scans **every** `job-<id>.*` record ([`max_job_id`]),
//! terminal or not, so a restarted service never hands out the id of a
//! finished job.

use std::fs;
use std::path::{Path, PathBuf};

use grid_wfs::DlqEntry;
use gridwfs_storage::{Op, Storage};

use crate::gridspec::{spec_from_json, ExecMode};
use crate::job::{JobId, JobState, Submission};
use crate::json::{self, json_number, json_string, opt, req, Value};

/// Record name of the persisted workflow document.
pub fn workflow_name(id: JobId) -> String {
    format!("{id}.wf.xml")
}

/// Record name of the job metadata.
pub fn meta_name(id: JobId) -> String {
    format!("{id}.meta")
}

/// Record name of the engine checkpoint.
pub fn checkpoint_name(id: JobId) -> String {
    format!("{id}.ckpt.xml")
}

/// Record name of the terminal marker.
pub fn result_name(id: JobId) -> String {
    format!("{id}.result")
}

/// Record name of the consumed-deadline ledger.
pub fn elapsed_name(id: JobId) -> String {
    format!("{id}.elapsed")
}

/// Record name of the job's dead-letter queue: the `foreach` items that
/// exhausted their recovery budget in the job's last completed run.
/// Written at settle alongside the result marker, cleared once a
/// `dlq retry` flips the items back to pending.  The checkpoint remains
/// the source of truth for item *states*; this record is the listing the
/// CLI serves without parsing checkpoints.
pub fn dlq_name(id: JobId) -> String {
    format!("{id}.dlq")
}

/// Record name of the job's ownership lease (federated fleets only).
pub fn lease_name(id: JobId) -> String {
    format!("{id}.lease")
}

/// The records a settled job no longer needs — its workflow, checkpoint
/// and elapsed ledger — deleted by the batch that writes its result
/// marker (module docs, "Record lifecycle").
pub fn purge_names(id: JobId) -> [String; 3] {
    [workflow_name(id), checkpoint_name(id), elapsed_name(id)]
}

/// The terminal write of a job with nothing left to restart: the result
/// marker plus the deletes of [`purge_names`], as one batch.
pub fn terminal_ops(id: JobId, state: JobState, detail: &str) -> Vec<Op> {
    let mut ops: Vec<Op> = purge_names(id).into_iter().map(Op::Del).collect();
    ops.push(Op::Put(result_name(id), result_payload(state, detail)));
    ops
}

/// Job id of a state record name (`job-<id>.<kind>`), if it is one.
pub(crate) fn record_job(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("job-")?;
    rest.split('.').next()?.parse().ok()
}

/// Splits a batch into one batch per job ([`record_job`] of each op's
/// name; `None` collects the rest), keeping the op order inside each.
pub(crate) fn group_by_job(ops: Vec<Op>) -> Vec<(Option<u64>, Vec<Op>)> {
    let mut groups: Vec<(Option<u64>, Vec<Op>)> = Vec::new();
    for op in ops {
        let job = record_job(op.reported_name());
        match groups.iter_mut().find(|(j, _)| *j == job) {
            Some((_, group)) => group.push(op),
            None => groups.push((job, vec![op])),
        }
    }
    groups
}

/// Path of the per-job flight-recorder journal (under the service's
/// *trace* directory, which is a plain directory regardless of the state
/// backend).
pub fn trace_path(dir: &Path, id: JobId) -> PathBuf {
    dir.join(format!("{id}.trace.jsonl"))
}

/// Top-level `kind` tag of one journal line, if the line is a well-formed
/// trace event.  The wire format pins `at` (a bare number) first and
/// `kind` second (see `gridwfs_trace`), so the tag sits before any
/// escapable string value in the line — a `"kind":"job_start"` byte
/// sequence buried inside a *value* (an adversarial job label, a line
/// appended by foreign tooling) never reaches this parse.
fn journal_line_kind(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("{\"at\":")?;
    let rest = rest[rest.find(',')?..].strip_prefix(",\"kind\":\"")?;
    Some(&rest[..rest.find('"')?])
}

/// 0-based incarnation number the next `job_start` event in `path` gets:
/// the count of lines whose **top-level** `kind` is `job_start`.  A
/// missing or unreadable journal counts as a fresh one.  (Trace journals
/// live outside the state backend and are append-only diagnostics, so
/// they stay on plain `std::fs`.)
pub fn count_incarnations(path: &Path) -> u32 {
    fs::read_to_string(path)
        .map(|text| {
            text.lines()
                .filter(|line| journal_line_kind(line) == Some("job_start"))
                .count() as u32
        })
        .unwrap_or(0)
}

/// Executor-clock seconds this job consumed in earlier incarnations
/// (0.0 when no ledger exists or it cannot be read/parsed — forfeiting
/// the ledger only widens the deadline budget, never loses the job).
pub fn read_elapsed(st: &dyn Storage, id: JobId) -> f64 {
    st.read_to_string(&elapsed_name(id))
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Serialized form of the consumed-deadline ledger — one source of truth
/// for the synchronous writer and the scheduler's group-commit batches.
pub fn elapsed_payload(secs: f64) -> Vec<u8> {
    format!("{secs}\n").into_bytes()
}

/// Records the total executor-clock seconds consumed so far.
pub fn write_elapsed(st: &dyn Storage, id: JobId, secs: f64) -> std::io::Result<()> {
    st.put(&elapsed_name(id), &elapsed_payload(secs))
}

/// Serialized form of the meta record (module docs): the submission
/// without its workflow document.
pub fn meta_payload(sub: &Submission) -> Vec<u8> {
    let mut out = String::new();
    json::object(&mut out, |m| {
        m.str("name", &sub.name);
        m.uint("seed", sub.seed);
        m.num("deadline", sub.deadline);
        if let ExecMode::Paced { scale } = sub.grid.mode {
            m.num("paced", scale);
        }
        m.object("grid", |m| sub.grid.write_json(m));
    });
    out.into_bytes()
}

/// Parses [`meta_payload`] back into the submission of `workflow_xml`; a
/// Grid that fails [`GridSpec::validate`](crate::GridSpec::validate) is
/// an error.
fn parse_meta(text: &str, workflow_xml: String) -> Result<Submission, String> {
    let doc = json::parse(text)?;
    doc.as_object("meta")?;
    let grid = doc.get("grid").ok_or("missing field 'grid'")?;
    let (mut grid, _) = spec_from_json(grid).map_err(|e| format!("grid: {e}"))?;
    if let Some(scale) = opt(&doc, "", "paced", Value::as_f64)? {
        grid.mode = ExecMode::Paced { scale };
    }
    grid.validate()?;
    Ok(Submission {
        name: req(&doc, "", "name", Value::as_str)?.to_string(),
        workflow_xml,
        grid,
        seed: req(&doc, "", "seed", Value::as_u64)?,
        deadline: opt(&doc, "", "deadline", Value::as_f64)?,
    })
}

/// The ops [`write_submission`] commits, exposed so a federated service
/// can mint the job's lease inside the *same* admission batch.  `lease`
/// of `Some(bytes)` puts `job-<id>.lease`; `None` clears any stale lease
/// at the id (a reassigned id must not inherit one).
pub fn write_submission_ops(id: JobId, sub: &Submission, lease: Option<Vec<u8>>) -> Vec<Op> {
    let mut ops = vec![
        Op::Del(checkpoint_name(id)),
        Op::Del(result_name(id)),
        Op::Del(elapsed_name(id)),
        Op::Del(dlq_name(id)),
    ];
    match lease {
        Some(bytes) => ops.push(Op::Put(lease_name(id), bytes)),
        None => ops.push(Op::Del(lease_name(id))),
    }
    ops.push(Op::Put(
        workflow_name(id),
        sub.workflow_xml.clone().into_bytes(),
    ));
    ops.push(Op::Put(meta_name(id), meta_payload(sub)));
    ops
}

/// Persists an admitted submission (workflow + meta) as **one** group
/// commit.  Any leftover checkpoint, result marker, elapsed ledger, or
/// lease at this id is cleared in the same batch: a freshly assigned id
/// must never inherit another job's state, and admission costs a single
/// durability point, not five.
pub fn write_submission(st: &dyn Storage, id: JobId, sub: &Submission) -> std::io::Result<()> {
    let mut errors = st.apply(write_submission_ops(id, sub, None));
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.swap_remove(0).1)
    }
}

/// Removes the persisted submission (rejected push rollback).  Deleting a
/// record that does not exist is a no-op on every backend, so any reported
/// error is real — and the caller must treat it as such: a rollback that
/// cannot clear its staged records must not recycle the job id, or the
/// next restart's scan resurrects the rolled-back job under an id the
/// service has since handed to someone else.
pub fn remove_submission(st: &dyn Storage, id: JobId) -> std::io::Result<()> {
    let mut errors = st.apply(vec![
        Op::Del(workflow_name(id)),
        Op::Del(meta_name(id)),
        Op::Del(checkpoint_name(id)),
        Op::Del(result_name(id)),
        Op::Del(elapsed_name(id)),
        Op::Del(dlq_name(id)),
        Op::Del(lease_name(id)),
    ]);
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.swap_remove(0).1)
    }
}

/// Serialized form of the terminal marker — one source of truth for the
/// synchronous writer and the scheduler's group-commit batches.
pub fn result_payload(state: JobState, detail: &str) -> Vec<u8> {
    let mut out = String::new();
    json::object(&mut out, |m| {
        m.str("state", state.as_str());
        m.str("detail", detail);
    });
    out.into_bytes()
}

fn parse_result(text: &str) -> Result<(JobState, String), String> {
    let doc = json::parse(text)?;
    doc.as_object("result")?;
    let state = req(&doc, "", "state", Value::as_str)?;
    let state = [JobState::Done, JobState::Failed, JobState::Cancelled]
        .into_iter()
        .find(|s| s.as_str() == state)
        .ok_or_else(|| format!("state: '{state}' is not a terminal state"))?;
    Ok((state, req(&doc, "", "detail", Value::as_str)?.to_string()))
}

/// Reads a job's terminal marker: its state and detail, `Ok(None)` while
/// the job has none.
pub fn read_result(st: &dyn Storage, id: JobId) -> Result<Option<(JobState, String)>, String> {
    read_record(st, &result_name(id), parse_result)
}

/// Writes the terminal marker.
pub fn write_result(
    st: &dyn Storage,
    id: JobId,
    state: JobState,
    detail: &str,
) -> std::io::Result<()> {
    st.put(&result_name(id), &result_payload(state, detail))
}

/// Reads record `name` with `parse`; `Ok(None)` when it is absent.  An
/// unreadable or unparsable record is an error naming it.
fn read_record<T>(
    st: &dyn Storage,
    name: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
) -> Result<Option<T>, String> {
    match st.read_to_string(name) {
        Ok(text) => parse(&text).map(Some).map_err(|e| format!("{name}: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("{name}: {e}")),
    }
}

/// Serialized form of the dead-letter record (module docs).
pub fn dlq_payload(entries: &[DlqEntry]) -> Vec<u8> {
    let mut out = String::new();
    json::array(&mut out, entries, |m, e| {
        m.str("activity", &e.activity);
        m.uint("index", e.index as u64);
        m.str("item", &e.item);
        m.uint("attempts", u64::from(e.attempts));
        m.str("reason", &e.reason);
    });
    out.into_bytes()
}

/// Parses [`dlq_payload`].  Unknown keys are ignored (forward
/// compatibility).
pub fn parse_dlq(text: &str) -> Result<Vec<DlqEntry>, String> {
    let doc = json::parse(text)?;
    let entry = |(i, e): (usize, &Value)| {
        let path = format!("[{i}]");
        e.as_object(&path)?;
        let text = |key| req(e, &path, key, Value::as_str).map(String::from);
        Ok(DlqEntry {
            activity: text("activity")?,
            index: req(e, &path, "index", Value::as_uint)?,
            item: text("item")?,
            attempts: req(e, &path, "attempts", Value::as_uint)?,
            reason: text("reason")?,
        })
    };
    doc.as_array("dlq")?.iter().enumerate().map(entry).collect()
}

/// Reads and parses a job's dead-letter record; an absent record is an
/// empty queue.
pub fn read_dlq(st: &dyn Storage, id: JobId) -> Result<Vec<DlqEntry>, String> {
    read_record(st, &dlq_name(id), parse_dlq).map(Option::unwrap_or_default)
}

/// One job's ownership lease (federated fleets).
///
/// The record is `{"owner":…,"epoch":N,"expires":T}`.  Everything up to
/// the comma after the epoch is the *fencing prefix*, stable for as long
/// as the same replica holds the same epoch; only the expiry after it is
/// rewritten on every heartbeat renewal.  That is what lets every guarded
/// batch carry `Op::Check(lease, fencing-prefix)` without re-reading the
/// lease after each renewal.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    /// Replica id of the owner.
    pub owner: String,
    /// Fencing epoch, bumped by every ownership transfer.
    pub epoch: u64,
    /// Wall-clock (unix seconds) deadline after which any replica may
    /// claim the job.
    pub expires_at: f64,
}

impl Lease {
    /// The byte prefix a fenced batch checks: `{"owner":"r1","epoch":3,`.
    /// The closing comma keeps epoch 3 from prefix-matching epoch 31.
    pub fn fence_prefix(owner: &str, epoch: u64) -> Vec<u8> {
        format!("{{\"owner\":{},\"epoch\":{epoch},", json_string(owner)).into_bytes()
    }

    /// Serialized record form.
    pub fn payload(&self) -> Vec<u8> {
        let mut out = Self::fence_prefix(&self.owner, self.epoch);
        out.extend_from_slice(format!("\"expires\":{}}}", json_number(self.expires_at)).as_bytes());
        out
    }

    /// Parses [`Lease::payload`].
    pub fn parse(text: &str) -> Result<Lease, String> {
        let doc = json::parse(text)?;
        doc.as_object("lease")?;
        Ok(Lease {
            owner: req(&doc, "", "owner", Value::as_str)?.to_string(),
            epoch: req(&doc, "", "epoch", Value::as_u64)?,
            expires_at: req(&doc, "", "expires", Value::as_f64)?,
        })
    }

    /// Has this lease expired at wall-clock `now` (unix seconds)?
    pub fn expired(&self, now: f64) -> bool {
        now >= self.expires_at
    }
}

/// Reads and parses a job's lease.  `Ok(None)` when absent; corrupt
/// records are an error so the caller can quarantine them.
pub fn read_lease(st: &dyn Storage, id: JobId) -> Result<Option<Lease>, String> {
    read_record(st, &lease_name(id), Lease::parse)
}

/// Largest job id any `job-<id>.*` record mentions (0 when there is
/// none).  Unlike [`scan`] this counts terminal and quarantined jobs:
/// id allocation must never hand out an id whose checkpoint or result
/// marker is durable.
pub fn max_job_id(st: &dyn Storage) -> Result<u64, String> {
    let mut max = 0u64;
    let names = st.list().map_err(|e| format!("storage list: {e}"))?;
    for name in names {
        if let Some(rest) = name.strip_prefix("job-") {
            let digits: &str = &rest[..rest.find('.').unwrap_or(rest.len())];
            if let Ok(id) = digits.parse::<u64>() {
                max = max.max(id);
            }
        }
    }
    Ok(max)
}

/// What a storage scan found.
#[derive(Debug)]
pub struct Scan {
    /// Jobs to re-admit, ascending by id.
    pub jobs: Vec<(JobId, Submission)>,
    /// Valid leases found, by job id (terminal jobs excluded).  A
    /// federated service consults these to decide which scanned jobs it
    /// may claim; single-replica services ignore them.
    pub leases: std::collections::HashMap<u64, Lease>,
    /// Corrupt entries moved aside during this scan.
    pub quarantined: u64,
}

/// Moves a corrupt record aside (`<name>.quarantined`) so later scans
/// skip it, keeping it around for post-mortem.  If the rename fails the
/// record is named in the warning.
pub(crate) fn quarantine_record(st: &dyn Storage, name: &str, why: &str) {
    let aside = format!("{name}.quarantined");
    eprintln!("gridwfs-serve: quarantining {name}: {why}");
    if let Err(e) = st.rename(name, &aside) {
        eprintln!("gridwfs-serve: cannot move {name} aside to {aside}: {e}");
    }
}

/// Quarantines a job's meta record; the scan skips the job for this
/// incarnation (workflow/checkpoint records stay for post-mortem).
fn quarantine(st: &dyn Storage, id: JobId, why: &str) {
    quarantine_record(st, &meta_name(id), why);
}

/// Scans storage for jobs to re-admit: every `job-<id>.meta` without a
/// matching `job-<id>.result`, ascending by id.  Entries that cannot be
/// read or parsed — including corrupt `job-<id>.lease` records — are
/// quarantined with a stderr warning — one corrupt job must not keep the
/// whole service from starting.
pub fn scan(st: &dyn Storage) -> Result<Scan, String> {
    let mut ids: Vec<u64> = Vec::new();
    let mut lease_ids: Vec<u64> = Vec::new();
    let names = st.list().map_err(|e| format!("storage list: {e}"))?;
    for name in names {
        if let Some(id) = name
            .strip_prefix("job-")
            .and_then(|r| r.strip_suffix(".meta"))
        {
            match id.parse() {
                Ok(id) => ids.push(id),
                Err(_) => eprintln!("gridwfs-serve: ignoring bad job id in '{name}'"),
            }
        } else if let Some(id) = name
            .strip_prefix("job-")
            .and_then(|r| r.strip_suffix(".lease"))
        {
            if let Ok(id) = id.parse() {
                lease_ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    let mut out = Scan {
        jobs: Vec::new(),
        leases: std::collections::HashMap::new(),
        quarantined: 0,
    };
    for raw in lease_ids {
        let id = JobId(raw);
        match read_lease(st, id) {
            Ok(Some(lease)) => {
                out.leases.insert(raw, lease);
            }
            Ok(None) => {}
            Err(why) => {
                // A torn or garbled lease must not wedge recovery: move it
                // aside and let ownership be re-established from scratch
                // (the fencing epoch restarts, but so did the owner — any
                // zombie holding the old epoch fails its prefix check
                // against a freshly minted lease anyway).
                quarantine_record(st, &lease_name(id), &why);
                out.quarantined += 1;
            }
        }
    }
    for raw in ids {
        let id = JobId(raw);
        if st.exists(&result_name(id)) {
            continue; // terminal before the restart
        }
        match load_job(st, id) {
            Ok(sub) => out.jobs.push((id, sub)),
            Err(e) => {
                quarantine(st, id, &e);
                out.quarantined += 1;
            }
        }
    }
    Ok(out)
}

/// Reads and parses one job's submission (meta + workflow) from storage —
/// the per-job half of [`scan`], also used by the federated takeover
/// scanner to re-admit a claimed job.
pub fn load_job(st: &dyn Storage, id: JobId) -> Result<Submission, String> {
    let meta = st
        .read_to_string(&meta_name(id))
        .map_err(|e| format!("meta unreadable: {e}"))?;
    let wf = st
        .read_to_string(&workflow_name(id))
        .map_err(|e| format!("workflow unreadable: {e}"))?;
    parse_meta(&meta, wf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gridspec::GridSpec;
    use gridwfs_storage::{MemStorage, WalStorage};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gridwfs-serve-recover-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Every backend must satisfy the recovery invariants.
    fn backends(root: &Path) -> Vec<Arc<dyn Storage>> {
        vec![
            Arc::new(WalStorage::open(root.join("wal")).unwrap()),
            Arc::new(MemStorage::new()),
        ]
    }

    fn sub(name: &str) -> Submission {
        Submission {
            name: name.into(),
            workflow_xml: "<Workflow name='w'/>".into(),
            grid: GridSpec::virtual_grid().with_host("h1", 1.0),
            seed: 9,
            deadline: Some(100.0),
        }
    }

    #[test]
    fn submission_round_trips_on_every_backend() {
        let root = tmpdir("roundtrip");
        for st in backends(&root) {
            write_submission(st.as_ref(), JobId(3), &sub("alpha beta")).unwrap();
            let scanned = scan(st.as_ref()).unwrap();
            assert_eq!(scanned.quarantined, 0);
            assert_eq!(scanned.jobs.len(), 1);
            let (id, got) = &scanned.jobs[0];
            assert_eq!(*id, JobId(3));
            assert_eq!(got.name, "alpha beta", "labels keep their spaces");
            assert_eq!(got.seed, 9);
            assert_eq!(got.deadline, Some(100.0));
            assert_eq!(got.grid, sub("x").grid);
            assert_eq!(got.workflow_xml, sub("x").workflow_xml);
            // A paced job without a deadline keeps both facts.
            let paced = Submission {
                grid: GridSpec::paced_grid(0.25).with_host("h one", 2.0),
                deadline: None,
                ..sub("paced")
            };
            write_submission(st.as_ref(), JobId(4), &paced).unwrap();
            let got = load_job(st.as_ref(), JobId(4)).unwrap();
            assert_eq!((got.grid, got.deadline), (paced.grid, None));
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn terminal_jobs_are_not_rescanned() {
        let root = tmpdir("terminal");
        for st in backends(&root) {
            write_submission(st.as_ref(), JobId(1), &sub("a")).unwrap();
            write_submission(st.as_ref(), JobId(2), &sub("b")).unwrap();
            write_result(st.as_ref(), JobId(1), JobState::Done, "Success").unwrap();
            let scanned = scan(st.as_ref()).unwrap();
            assert_eq!(scanned.jobs.len(), 1);
            assert_eq!(scanned.jobs[0].0, JobId(2));
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn dlq_record_round_trips_on_every_backend() {
        let entries = vec![
            grid_wfs::DlqEntry {
                activity: "map".into(),
                index: 2,
                item: "shard two\nwith a newline".into(),
                attempts: 3,
                reason: "exception:transient".into(),
            },
            grid_wfs::DlqEntry {
                activity: "map".into(),
                index: 5,
                item: "shard five".into(),
                attempts: 1,
                reason: "heartbeat-loss".into(),
            },
        ];
        let root = tmpdir("dlq");
        for st in backends(&root) {
            // Absent record reads as an empty queue.
            assert_eq!(read_dlq(st.as_ref(), JobId(4)).unwrap(), vec![]);
            st.put(&dlq_name(JobId(4)), &dlq_payload(&entries)).unwrap();
            assert_eq!(read_dlq(st.as_ref(), JobId(4)).unwrap(), entries);
            // Admitting a fresh submission under the id clears the stale
            // record in the same commit.
            write_submission(st.as_ref(), JobId(4), &sub("fresh")).unwrap();
            assert_eq!(read_dlq(st.as_ref(), JobId(4)).unwrap(), vec![]);
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn dlq_parser_rejects_garbage() {
        let entry = |rest: &str| {
            format!(r#"[{{"activity":"m","index":0,"item":"x","reason":"r",{rest}}}]"#)
        };
        for (bad, why) in [
            ("{}".to_string(), "dlq: expected an array, found an object"),
            ("[1]".to_string(), "[0]: expected an object, found a number"),
            (
                entry(r#""attempts":"many""#),
                "[0].attempts: expected an unsigned integer",
            ),
            (
                entry(r#""attempts":4294967296"#),
                "[0].attempts: 4294967296 too large",
            ),
            (entry(r#""future":1"#), "missing field '[0].attempts'"),
            (
                "entry 0\nattempts 2\n".to_string(),
                "line 1 column 1: expected a value",
            ),
        ] {
            let e = parse_dlq(&bad).unwrap_err();
            assert!(e.contains(why), "{bad}: {e}");
        }
        // Unknown keys are ignored for forward compatibility.
        let got = parse_dlq(&entry(r#""attempts":2,"future":[true]"#)).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].attempts, 2);
    }

    #[test]
    fn result_record_round_trips_and_rejects_garbage() {
        let st = MemStorage::new();
        assert_eq!(read_result(&st, JobId(1)), Ok(None));
        let detail = "Failed(\"a\")\nsecond line \\ done";
        write_result(&st, JobId(1), JobState::Failed, detail).unwrap();
        assert_eq!(
            read_result(&st, JobId(1)),
            Ok(Some((JobState::Failed, detail.to_string())))
        );
        for (bad, why) in [
            (
                r#"{"state":"running","detail":""}"#,
                "'running' is not a terminal state",
            ),
            (r#"{"state":"done"}"#, "missing field 'detail'"),
            ("state done\ndetail Success\n", "expected a value"),
        ] {
            st.put(&result_name(JobId(2)), bad.as_bytes()).unwrap();
            let e = read_result(&st, JobId(2)).unwrap_err();
            assert!(e.starts_with("job-2.result: ") && e.contains(why), "{e}");
        }
    }

    #[test]
    fn removed_submission_disappears() {
        let root = tmpdir("remove");
        for st in backends(&root) {
            write_submission(st.as_ref(), JobId(7), &sub("a")).unwrap();
            remove_submission(st.as_ref(), JobId(7)).unwrap();
            assert!(scan(st.as_ref()).unwrap().jobs.is_empty());
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn labels_with_newlines_cannot_inject_meta_lines() {
        let root = tmpdir("newline");
        let label = "evil\nhost h9 1.0\r\",\"grid\":{\"hosts\":[{\"hostname\":\"h9\"}]},\"x\":\"";
        for st in backends(&root) {
            write_submission(st.as_ref(), JobId(1), &sub(label)).unwrap();
            let scanned = scan(st.as_ref()).unwrap();
            assert_eq!(scanned.jobs.len(), 1);
            assert_eq!(scanned.jobs[0].1.name, label, "label round-trips verbatim");
            assert_eq!(scanned.jobs[0].1.grid, sub("x").grid, "no host injected");
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn labels_with_backslashes_round_trip() {
        let root = tmpdir("backslash");
        let label = "a\\nb \\ trailing\\";
        for st in backends(&root) {
            write_submission(st.as_ref(), JobId(1), &sub(label)).unwrap();
            assert_eq!(scan(st.as_ref()).unwrap().jobs[0].1.name, label);
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_meta_is_quarantined_not_fatal() {
        let root = tmpdir("quarantine");
        for st in backends(&root) {
            write_submission(st.as_ref(), JobId(1), &sub("good")).unwrap();
            // Garbage, a line-format record from before the JSON records,
            // and a Grid `GridSpec::validate` refuses.
            for (id, bad) in [
                (2, "frobnicate\n"),
                (
                    3,
                    "name a\nseed 1\ndeadline -\nmode virtual\nhost h1 1 - 0\n",
                ),
                (4, r#"{"name":"a","seed":1,"grid":{"hosts":[]}}"#),
            ] {
                st.put(&meta_name(JobId(id)), bad.as_bytes()).unwrap();
                st.put(&workflow_name(JobId(id)), b"<Workflow name='w'/>")
                    .unwrap();
            }
            let scanned = scan(st.as_ref()).unwrap();
            assert_eq!(scanned.jobs.len(), 1, "the good job still recovers");
            assert_eq!(scanned.jobs[0].0, JobId(1));
            assert_eq!(scanned.quarantined, 3);
            for id in 2..=4 {
                assert!(!st.exists(&meta_name(JobId(id))), "bad meta moved aside");
                assert!(st.exists(&format!("job-{id}.meta.quarantined")));
            }
            // Later scans stay clean and the ids stay burned.
            let again = scan(st.as_ref()).unwrap();
            assert_eq!(again.jobs.len(), 1);
            assert_eq!(again.quarantined, 0);
            assert_eq!(max_job_id(st.as_ref()).unwrap(), 4);
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn max_job_id_counts_terminal_jobs() {
        let root = tmpdir("maxid");
        for st in backends(&root) {
            assert_eq!(max_job_id(st.as_ref()).unwrap(), 0);
            write_submission(st.as_ref(), JobId(3), &sub("a")).unwrap();
            write_result(st.as_ref(), JobId(3), JobState::Done, "Success").unwrap();
            write_submission(st.as_ref(), JobId(2), &sub("b")).unwrap();
            // Job 3 is terminal — scan skips it — but its id stays burned.
            assert_eq!(scan(st.as_ref()).unwrap().jobs.len(), 1);
            assert_eq!(max_job_id(st.as_ref()).unwrap(), 3);
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn reassigned_id_does_not_inherit_stale_state() {
        let root = tmpdir("stale");
        for st in backends(&root) {
            write_result(st.as_ref(), JobId(4), JobState::Done, "Success").unwrap();
            st.put(&checkpoint_name(JobId(4)), b"<EngineCheckpoint/>")
                .unwrap();
            write_elapsed(st.as_ref(), JobId(4), 9.0).unwrap();
            write_submission(st.as_ref(), JobId(4), &sub("fresh")).unwrap();
            assert!(!st.exists(&result_name(JobId(4))));
            assert!(!st.exists(&checkpoint_name(JobId(4))));
            assert_eq!(read_elapsed(st.as_ref(), JobId(4)), 0.0);
            assert_eq!(scan(st.as_ref()).unwrap().jobs.len(), 1);
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn incarnation_count_reads_the_top_level_kind_only() {
        let dir = tmpdir("incarnations");
        let path = dir.join("job-1.trace.jsonl");
        // Two genuine incarnations, plus three lines that only *contain*
        // the job_start needle: an event whose string value embeds it
        // verbatim (foreign tooling appends to these journals — nothing
        // guarantees escaped quotes), a line where `kind` is not the
        // second field, and a truncated torn write.  Substring counting
        // reports 5 and the resumed incarnation numbering diverges from
        // the journal forever after.
        let journal = concat!(
            "{\"at\":0,\"kind\":\"job_start\",\"job\":1,\"incarnation\":0}\n",
            "{\"at\":1,\"kind\":\"node_state\",\"activity\":\"a \\\"kind\\\":\\\"job_start\\\" b\",\"state\":\"running\"}\n",
            "{\"at\":2,\"kind\":\"node_state\",\"activity\":\"raw \"kind\":\"job_start\" bytes\",\"state\":\"done\"}\n",
            "{\"at\":3,\"nested\":{\"kind\":\"job_start\"},\"kind\":\"custom\"}\n",
            "{\"at\":4,\"kind\":\"job_start\",\"job\":1,\"incarnation\":1}\n",
            "{\"at\":5,\"kind\":\"job_sta", // torn tail, no newline
        );
        fs::write(&path, journal).unwrap();
        assert_eq!(count_incarnations(&path), 2);
        assert_eq!(count_incarnations(&dir.join("missing.jsonl")), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lease_record_round_trips_on_every_backend() {
        let root = tmpdir("lease");
        let lease = Lease {
            owner: "replica a\\with \n oddities".into(),
            epoch: 7,
            expires_at: 1234.5,
        };
        for st in backends(&root) {
            assert_eq!(read_lease(st.as_ref(), JobId(3)).unwrap(), None);
            st.put(&lease_name(JobId(3)), &lease.payload()).unwrap();
            assert_eq!(
                read_lease(st.as_ref(), JobId(3)).unwrap(),
                Some(lease.clone())
            );
            // The payload starts with the fencing line a guarded batch
            // checks — stable across renewals of the same epoch.
            assert!(lease
                .payload()
                .starts_with(&Lease::fence_prefix(&lease.owner, 7)));
            assert!(!lease
                .payload()
                .starts_with(&Lease::fence_prefix(&lease.owner, 8)));
            // Scan surfaces it; a fresh admission under the id clears it.
            write_submission(st.as_ref(), JobId(3), &sub("fresh")).unwrap();
            assert_eq!(read_lease(st.as_ref(), JobId(3)).unwrap(), None);
            remove_submission(st.as_ref(), JobId(3)).unwrap();
        }
        assert!(lease.expired(1234.5));
        assert!(!lease.expired(1234.4));
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn scan_returns_valid_leases_for_live_jobs() {
        let root = tmpdir("lease-scan");
        let lease = Lease {
            owner: "r1".into(),
            epoch: 2,
            expires_at: 50.0,
        };
        for st in backends(&root) {
            write_submission(st.as_ref(), JobId(1), &sub("a")).unwrap();
            st.put(&lease_name(JobId(1)), &lease.payload()).unwrap();
            let scanned = scan(st.as_ref()).unwrap();
            assert_eq!(scanned.jobs.len(), 1);
            assert_eq!(scanned.leases.get(&1), Some(&lease));
            assert_eq!(scanned.quarantined, 0);
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn corrupt_lease_is_quarantined_not_fatal() {
        let root = tmpdir("lease-corrupt");
        for st in backends(&root) {
            write_submission(st.as_ref(), JobId(1), &sub("good")).unwrap();
            st.put(&lease_name(JobId(1)), br#"{"owner":"r1","ep"#)
                .unwrap();
            let scanned = scan(st.as_ref()).unwrap();
            assert_eq!(scanned.jobs.len(), 1, "the job itself still recovers");
            assert_eq!(scanned.quarantined, 1);
            assert!(scanned.leases.is_empty());
            assert!(!st.exists(&lease_name(JobId(1))), "bad lease moved aside");
            assert!(st.exists("job-1.lease.quarantined"));
            // Later scans stay clean.
            assert_eq!(scan(st.as_ref()).unwrap().quarantined, 0);
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn lease_parser_rejects_garbage() {
        for (bad, why) in [
            ("", "unexpected end of input"),
            (r#"{"owner":"r1","expires":1}"#, "missing field 'epoch'"),
            (
                r#"{"owner":"r1","epoch":-1,"expires":1}"#,
                "epoch: expected an unsigned integer",
            ),
            (r#"{"owner":"r1","epoch":1}"#, "missing field 'expires'"),
            (
                r#"{"owner":"r1","epoch":1,"expires":"soon"}"#,
                "expires: expected a number",
            ),
            ("owner r1 epoch 1\nexpires 1\n", "expected a value"),
        ] {
            let e = Lease::parse(bad).unwrap_err();
            assert!(e.contains(why), "{bad:?}: {e}");
        }
        // An owner containing the literal "epoch" or quotes round-trips.
        let tricky = Lease {
            owner: r#"r","epoch":9,"#.into(),
            epoch: 3,
            expires_at: 1.0,
        };
        let text = String::from_utf8(tricky.payload()).unwrap();
        assert_eq!(Lease::parse(&text).unwrap(), tricky);
        // The fencing prefix ends at the comma after the epoch, so epoch 3
        // never prefix-matches epoch 31.
        assert_eq!(Lease::fence_prefix("r1", 3), br#"{"owner":"r1","epoch":3,"#);
        let later = Lease {
            owner: "r1".into(),
            epoch: 31,
            expires_at: 9.0,
        };
        assert!(!later.payload().starts_with(&Lease::fence_prefix("r1", 3)));
    }

    #[test]
    fn max_job_id_counts_lease_records() {
        // A lease can be the *only* record a job id has left behind
        // mid-takeover (admission batch torn after the lease landed on a
        // faulting backend).  Takeover must never re-mint a live job's id.
        let root = tmpdir("lease-maxid");
        for st in backends(&root) {
            st.put(
                &lease_name(JobId(7)),
                &Lease {
                    owner: "r1".into(),
                    epoch: 1,
                    expires_at: 5.0,
                }
                .payload(),
            )
            .unwrap();
            assert_eq!(max_job_id(st.as_ref()).unwrap(), 7);
            assert!(
                scan(st.as_ref()).unwrap().jobs.is_empty(),
                "no meta, no job"
            );
        }
        fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn elapsed_ledger_round_trips_and_clears() {
        let root = tmpdir("elapsed");
        for st in backends(&root) {
            assert_eq!(read_elapsed(st.as_ref(), JobId(5)), 0.0);
            write_elapsed(st.as_ref(), JobId(5), 12.5).unwrap();
            assert_eq!(read_elapsed(st.as_ref(), JobId(5)), 12.5);
            remove_submission(st.as_ref(), JobId(5)).unwrap();
            assert_eq!(read_elapsed(st.as_ref(), JobId(5)), 0.0);
        }
        fs::remove_dir_all(&root).ok();
    }
}
