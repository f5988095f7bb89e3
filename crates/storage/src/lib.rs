//! Pluggable state backends for the Grid-WFS service.
//!
//! The service persists one flat namespace of small records per state dir —
//! `job-3.meta`, `job-3.ckpt.xml`, `job-3.result`, … — and every mutation
//! must be crash-atomic: after kill-9 at any instant, recovery sees either
//! the old record or the new one, never a torn one (the invariant the
//! torn-write suite pins).  The [`Storage`] trait over *named records* is
//! the one seam the service talks to, with two backends behind it:
//!
//! * [`WalStorage`] — the durable backend.  A single append-only
//!   write-ahead log with length+CRC32-framed record batches.  One
//!   [`Storage::apply`] batch is one frame and **one fsync** (group
//!   commit): it lands whole or not at all.  The log compacts periodically
//!   by atomically rewriting itself as a single snapshot frame.  Recovery
//!   replays the log; a torn or corrupt tail is quarantined to
//!   `wal.quarantined` and trimmed, never fatal.
//! * [`MemStorage`] — a mutex-guarded map: volatile, the floor tests and
//!   benches measure against.
//!
//! Fault injection sits *behind the trait*: [`ChaosStorage`] wraps either
//! backend and injects seed-driven write/torn/rename/read faults keyed by
//! **record name** and a per-`(name, op)` sequence number.  Keying at the
//! record level (not the backing file) is what lets the chaos sweep run
//! identically against both backends: the WAL funnels every record through
//! one file whose op interleaving across worker threads is
//! nondeterministic, so file-level injection would break
//! seed-replayability there.  It also means the WAL's own file I/O sits
//! *below* the fault plane — a "torn write" tears one record's payload
//! (surfacing at parse time) rather than corrupting the log suffix for
//! every job after it.  An injected write or rename failure rejects its
//! whole batch, exactly as a failed WAL append does.
//!
//! Ordering contract: [`Storage::apply`] executes deletes and renames in
//! op order, and commits all puts of the batch together at the end.
//! Callers must not delete or rename a name they put in the same batch.
//!
//! Batches may carry preconditions: [`Op::Check`] (record exists and its
//! bytes start with the given prefix — the *fencing token*) and
//! [`Op::CheckAbsent`] (record does not exist).  Checks are evaluated
//! atomically with the commit, before any mutation; if any check fails the
//! whole batch is rejected and nothing lands.  A failed check reports a
//! [`fence_conflict`] error under the checked name — the primitive the
//! federated serve layer builds lease-epoch fencing and lease CAS claims
//! on.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gridwfs_chaos::{relock, FaultPlan, FsFaultKind};

mod mem;
mod wal;

pub use mem::MemStorage;
pub use wal::{WalStorage, WAL_FILE, WAL_QUARANTINE};

// ---------------------------------------------------------------------------
// Ops and the Storage trait
// ---------------------------------------------------------------------------

/// One record mutation inside a group-committed batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Create or replace the record `name` with `data`.
    Put(String, Vec<u8>),
    /// Remove the record `name` (absent records are not an error).
    Del(String),
    /// Rename the record `from` to `to`, replacing any existing `to`.
    Rename(String, String),
    /// Precondition: the record exists and its bytes start with the given
    /// prefix.  An empty prefix only requires existence.  Evaluated
    /// atomically with the commit; a failed check rejects the whole batch
    /// with a [`fence_conflict`] error and nothing lands.
    Check(String, Vec<u8>),
    /// Precondition: the record does not exist.  Same rejection semantics
    /// as [`Op::Check`].
    CheckAbsent(String),
}

impl Op {
    /// The name an error for this op is reported under: the record it
    /// creates or affects (`to` for renames).
    pub fn reported_name(&self) -> &str {
        match self {
            Op::Put(name, _) | Op::Del(name) | Op::Check(name, _) | Op::CheckAbsent(name) => name,
            Op::Rename(_, to) => to,
        }
    }
}

/// The error a failed [`Op::Check`]/[`Op::CheckAbsent`] rejects its batch
/// with.  `PermissionDenied` with a recognizable prefix so callers can
/// tell a fence conflict (expected under contention) from real I/O loss.
pub fn fence_conflict(name: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::PermissionDenied,
        format!("fenced: precondition failed for {name}"),
    )
}

/// Is this error a batch rejection from a failed [`Op::Check`]?
pub fn is_fence_conflict(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::PermissionDenied && e.to_string().starts_with("fenced:")
}

/// Evaluate a batch's preconditions against `current` (lookup of a
/// record's present bytes: `Ok(None)` means definitively absent, `Err`
/// means the record's presence could not be established).  Returns one
/// [`fence_conflict`] per failed check and the lookup error itself for
/// unreadable records; any failure means the batch must not commit —
/// in particular, a record that exists but cannot be read must *reject*
/// the batch, never pass for absent and let a [`Op::CheckAbsent`] guard
/// overwrite it.  Backends call this inside their commit-side critical
/// section so the check and the mutation are atomic.
pub(crate) fn eval_checks<F>(ops: &[Op], mut current: F) -> Vec<(String, io::Error)>
where
    F: FnMut(&str) -> io::Result<Option<Vec<u8>>>,
{
    let mut errors = Vec::new();
    for op in ops {
        match op {
            Op::Check(name, prefix) => match current(name) {
                Ok(Some(bytes)) if bytes.starts_with(prefix) => {}
                Ok(_) => errors.push((name.clone(), fence_conflict(name))),
                Err(e) => errors.push((name.clone(), e)),
            },
            Op::CheckAbsent(name) => match current(name) {
                Ok(None) => {}
                Ok(Some(_)) => errors.push((name.clone(), fence_conflict(name))),
                Err(e) => errors.push((name.clone(), e)),
            },
            _ => {}
        }
    }
    errors
}

/// Drop the precondition ops from a batch, leaving only the mutations.
pub(crate) fn strip_checks(ops: Vec<Op>) -> Vec<Op> {
    ops.into_iter()
        .filter(|op| !matches!(op, Op::Check(..) | Op::CheckAbsent(..)))
        .collect()
}

/// A flat namespace of named records with batched, crash-atomic mutation.
///
/// All methods take record *names* (`job-3.meta`), never paths: where the
/// bytes live is the backend's business.  Implementations are internally
/// synchronized; the service shares one `Arc<dyn Storage>` across workers.
pub trait Storage: Send + Sync {
    /// Read a record's bytes.  `ErrorKind::NotFound` if absent.
    fn read(&self, name: &str) -> io::Result<Vec<u8>>;

    /// Does the record exist?
    fn exists(&self, name: &str) -> bool;

    /// All record names, in unspecified order.
    fn list(&self) -> io::Result<Vec<String>>;

    /// Apply a batch of mutations as one group commit — one durability
    /// point for the whole batch.  Returns per-op failures keyed by
    /// [`Op::reported_name`]; an empty vec means every op landed.
    ///
    /// [`Op::Check`]/[`Op::CheckAbsent`] preconditions are evaluated
    /// atomically with the commit: if any fails, the batch is rejected as
    /// a whole (one [`fence_conflict`] error per failed check, no
    /// mutation applied).
    fn apply(&self, ops: Vec<Op>) -> Vec<(String, io::Error)>;

    /// Snapshot of the backend's activity counters.
    fn counters(&self) -> CountersSnapshot;

    /// Force a compaction now.  No-op for backends without a log.
    fn compact(&self) -> io::Result<()>;

    /// Human label for metrics and bench output (`"wal"`, `"memory"`).
    fn backend_name(&self) -> &'static str;

    // --- convenience wrappers over `apply` -------------------------------

    /// Read a record as UTF-8 text (`ErrorKind::InvalidData` otherwise).
    fn read_to_string(&self, name: &str) -> io::Result<String> {
        String::from_utf8(self.read(name)?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Single-record durable write (a one-op group commit).
    fn put(&self, name: &str, data: &[u8]) -> io::Result<()> {
        take_first_error(self.apply(vec![Op::Put(name.to_string(), data.to_vec())]))
    }

    /// Single-record removal.
    fn del(&self, name: &str) -> io::Result<()> {
        take_first_error(self.apply(vec![Op::Del(name.to_string())]))
    }

    /// Single-record rename.
    fn rename(&self, from: &str, to: &str) -> io::Result<()> {
        take_first_error(self.apply(vec![Op::Rename(from.to_string(), to.to_string())]))
    }
}

fn take_first_error(mut errors: Vec<(String, io::Error)>) -> io::Result<()> {
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.swap_remove(0).1)
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Lock-free activity counters every backend carries.  Backends without a
/// log leave the `wal_*` counters at zero but still count group commits.
#[derive(Debug, Default)]
pub struct StorageCounters {
    /// Ops appended to the WAL (records logged).
    pub wal_appends: AtomicU64,
    /// Group commits: one durability point covering a whole batch.
    pub group_commits: AtomicU64,
    /// Log compactions (snapshot + truncate).
    pub compactions: AtomicU64,
    /// Bytes appended to the WAL (frames, not compaction rewrites).
    pub bytes_logged: AtomicU64,
    /// Ops replayed from the log during recovery.
    pub recovery_replayed_records: AtomicU64,
}

impl StorageCounters {
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            wal_appends: self.wal_appends.load(Ordering::Relaxed),
            group_commits: self.group_commits.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            bytes_logged: self.bytes_logged.load(Ordering::Relaxed),
            recovery_replayed_records: self.recovery_replayed_records.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn add(&self, counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

/// Point-in-time copy of [`StorageCounters`], for metrics snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    pub wal_appends: u64,
    pub group_commits: u64,
    pub compactions: u64,
    pub bytes_logged: u64,
    pub recovery_replayed_records: u64,
}

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// Which backend a state dir is opened with (`--backend wal|memory`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Group-committed write-ahead log (the durable default).
    #[default]
    Wal,
    /// In-memory table: no durability, for tests and bench baselines.
    Memory,
}

impl Backend {
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s {
            "wal" => Ok(Backend::Wal),
            "memory" | "mem" => Ok(Backend::Memory),
            other => Err(format!(
                "unknown storage backend {other:?} (expected wal or memory)"
            )),
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Wal => "wal",
            Backend::Memory => "memory",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// ---------------------------------------------------------------------------
// ChaosStorage: record-level fault injection
// ---------------------------------------------------------------------------

/// Wraps any backend and injects plan-driven faults at the record level:
/// the `n`-th op of a kind on a record name faults iff
/// `FaultPlan::op_faults(kind, name, n)`.  Decisions never depend on the
/// backend, the state-dir path, or thread interleaving on *other* records,
/// so a fault plan replays identically against the WAL and memory
/// backends.
pub struct ChaosStorage {
    inner: Arc<dyn Storage>,
    plan: FaultPlan,
    seq: Mutex<HashMap<(String, &'static str), u64>>,
}

impl ChaosStorage {
    pub fn new(inner: Arc<dyn Storage>, plan: FaultPlan) -> Self {
        ChaosStorage {
            inner,
            plan,
            seq: Mutex::new(HashMap::new()),
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Can the plan fire `kind` on `name` at all?  Sequence counters only
    /// advance for kinds it can.
    fn armed(&self, name: &str, kind: FsFaultKind) -> bool {
        // Lease records are exempt from record-level injection: lease
        // traffic is wall-clock-paced (heartbeat renewals, takeover
        // scans), so faulting it would make the per-(name, op) sequence —
        // and thus every later decision on the record — depend on real
        // time, breaking seed-replayability.  Replica failure is injected
        // with the plan's `replica_kill` knob instead.
        if name.ends_with(".lease") {
            return false;
        }
        let p = match kind {
            FsFaultKind::Write => self.plan.write_p,
            FsFaultKind::Torn => self.plan.torn_p,
            FsFaultKind::Rename => self.plan.rename_p,
            FsFaultKind::Read => self.plan.read_p,
        };
        p > 0.0
    }

    /// Take the next sequence number for `(name, op)` and decide whether
    /// this op faults.
    fn fault(&self, name: &str, kind: FsFaultKind) -> bool {
        if !self.armed(name, kind) {
            return false;
        }
        let n = {
            let mut seq = relock(&self.seq);
            let c = seq.entry((name.to_string(), kind.op_name())).or_insert(0);
            let n = *c;
            *c += 1;
            n
        };
        self.plan.op_faults(kind, name, n)
    }

    fn injected(what: &str, name: &str) -> io::Error {
        io::Error::other(format!("chaos: injected {what} failure ({name})"))
    }
}

impl Storage for ChaosStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        if self.fault(name, FsFaultKind::Read) {
            return Err(Self::injected("read", name));
        }
        self.inner.read(name)
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    /// Every op's fault decision is drawn before anything is applied, so
    /// the decisions stay a pure function of (name, op, seq) wherever in
    /// the batch a fault fires.  A failed write or rename rejects the
    /// whole batch, as the [`Storage::apply`] contract promises: nothing
    /// lands and every op reports the failure.  A rejected batch never ran,
    /// so only the draws that fired are spent; a retry of the other ops
    /// draws the same decisions again.  Torn puts claim success, so they
    /// commit with the batch.
    fn apply(&self, ops: Vec<Op>) -> Vec<(String, io::Error)> {
        let mut seq = relock(&self.seq);
        // (counter key, fired) per draw, in op order.
        let mut draws: Vec<((String, &'static str), bool)> = Vec::new();
        let mut draw = |name: &str, kind: FsFaultKind| {
            if !self.armed(name, kind) {
                return false;
            }
            let key = (name.to_string(), kind.op_name());
            let earlier = draws.iter().filter(|(k, _)| *k == key).count() as u64;
            let n = seq.get(&key).copied().unwrap_or(0) + earlier;
            let fired = self.plan.op_faults(kind, name, n);
            draws.push((key, fired));
            fired
        };
        let mut failure: Option<String> = None;
        let mut kept = Vec::with_capacity(ops.len());
        for op in ops {
            match op {
                Op::Put(name, data) => {
                    if draw(&name, FsFaultKind::Write) {
                        failure.get_or_insert_with(|| Self::injected("write", &name).to_string());
                        kept.push(Op::Put(name, data));
                    } else if draw(&name, FsFaultKind::Torn) && !data.is_empty() {
                        // Short write that *claims* success — the torn
                        // record surfaces later, at parse time.
                        let half = data.len() / 2;
                        kept.push(Op::Put(name, data[..half].to_vec()));
                    } else {
                        kept.push(Op::Put(name, data));
                    }
                }
                Op::Rename(from, to) => {
                    if draw(&to, FsFaultKind::Rename) {
                        failure.get_or_insert_with(|| Self::injected("rename", &to).to_string());
                    }
                    kept.push(Op::Rename(from, to));
                }
                // Deletes and preconditions pass through unfaulted; the
                // inner backend evaluates preconditions atomically with
                // the commit.
                op => kept.push(op),
            }
        }
        for (key, fired) in draws {
            if fired || failure.is_none() {
                *seq.entry(key).or_insert(0) += 1;
            }
        }
        drop(seq);
        match failure {
            None => self.inner.apply(kept),
            Some(why) => strip_checks(kept)
                .iter()
                .map(|op| {
                    let name = op.reported_name().to_string();
                    (name, io::Error::other(format!("batch rejected: {why}")))
                })
                .collect(),
        }
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

impl fmt::Debug for ChaosStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChaosStorage")
            .field("backend", &self.inner.backend_name())
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn backends(dir: &std::path::Path) -> Vec<Arc<dyn Storage>> {
        vec![
            Arc::new(MemStorage::new()),
            Arc::new(WalStorage::open(dir.join("wal")).unwrap()),
        ]
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gridwfs-storage-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_on_every_backend() {
        let dir = tmpdir("roundtrip");
        for st in backends(&dir) {
            st.put("job-1.meta", b"name=a").unwrap();
            st.put("job-2.meta", b"name=b").unwrap();
            assert_eq!(st.read_to_string("job-1.meta").unwrap(), "name=a");
            assert!(st.exists("job-2.meta"));
            assert!(!st.exists("job-3.meta"));
            assert_eq!(
                st.read("job-3.meta").unwrap_err().kind(),
                io::ErrorKind::NotFound
            );

            st.rename("job-1.meta", "job-1.meta.quarantined").unwrap();
            assert!(!st.exists("job-1.meta"));
            assert_eq!(
                st.read_to_string("job-1.meta.quarantined").unwrap(),
                "name=a"
            );

            st.del("job-2.meta").unwrap();
            assert!(!st.exists("job-2.meta"));
            // Deleting an absent record is not an error.
            st.del("job-2.meta").unwrap();

            let mut names = st.list().unwrap();
            names.sort();
            assert_eq!(names, vec!["job-1.meta.quarantined".to_string()]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batched_apply_is_ordered_and_counted() {
        let dir = tmpdir("batch");
        for st in backends(&dir) {
            let errors = st.apply(vec![
                Op::Put("job-7.wf.xml".into(), b"<Workflow/>".to_vec()),
                Op::Put("job-7.meta".into(), b"meta".to_vec()),
            ]);
            assert!(errors.is_empty(), "{errors:?}");
            // Del-then-put of the same name in one batch: the put wins on
            // every backend (deletes run before the batch's puts).
            let errors = st.apply(vec![
                Op::Del("job-7.meta".into()),
                Op::Put("job-7.meta".into(), b"meta2".to_vec()),
            ]);
            assert!(errors.is_empty(), "{errors:?}");
            assert_eq!(st.read_to_string("job-7.meta").unwrap(), "meta2");
            let c = st.counters();
            assert!(c.group_commits >= 2, "{c:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_decisions_identical_across_backends() {
        let dir = tmpdir("chaos-eq");
        let plan = FaultPlan::parse("seed=11,write=0.3,torn=0.3,rename=0.3,read=0.3").unwrap();
        let mut logs: Vec<Vec<String>> = Vec::new();
        for st in backends(&dir) {
            let chaos = ChaosStorage::new(st, plan.clone());
            let mut log = Vec::new();
            for i in 0..40u32 {
                let name = format!("job-{}.meta", i % 5);
                let errors = chaos.apply(vec![Op::Put(name.clone(), vec![b'x'; 16])]);
                log.push(format!("put {name} {}", errors.len()));
                let read = chaos.read(&name).map(|b| b.len()).map_err(|e| e.kind());
                log.push(format!("read {name} {read:?}"));
                let q = format!("{name}.q");
                let errors = chaos.apply(vec![Op::Rename(name.clone(), q)]);
                log.push(format!("rename {name} {}", errors.len()));
            }
            logs.push(log);
        }
        assert_eq!(logs[0], logs[1], "mem vs wal fault streams differ");
        // Chaos actually fired somewhere, or this test checks nothing.
        assert!(logs[0].iter().any(|l| l.ends_with(" 1")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_torn_put_truncates_payload() {
        // With torn=1 every non-empty put is halved; the storage still
        // reports success.
        let plan = FaultPlan::parse("seed=3,torn=1.0").unwrap();
        let st = ChaosStorage::new(Arc::new(MemStorage::new()), plan);
        st.put("job-1.meta", b"0123456789").unwrap();
        assert_eq!(st.read("job-1.meta").unwrap(), b"01234");
    }

    #[test]
    fn chaos_write_fault_rejects_the_whole_batch() {
        // write=1.0 faults every put: the delete riding the same batch
        // must not land either, and every op reports the rejection.
        let plan = FaultPlan::parse("seed=3,write=1.0").unwrap();
        let inner = Arc::new(MemStorage::new());
        inner.put("job-1.wf.xml", b"<Workflow/>").unwrap();
        let st = ChaosStorage::new(inner.clone(), plan);
        let errors = st.apply(vec![
            Op::Del("job-1.wf.xml".into()),
            Op::Put("job-1.result".into(), b"state done\n".to_vec()),
        ]);
        let names: Vec<&str> = errors.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["job-1.wf.xml", "job-1.result"], "{errors:?}");
        assert!(inner.exists("job-1.wf.xml"), "a rejected batch deleted");
        assert!(!inner.exists("job-1.result"));
    }

    #[test]
    fn a_rejected_batch_spends_only_the_draws_that_fired() {
        let plan = FaultPlan::parse("seed=9,write=0.5").unwrap();
        let first_draw = |i: u32| plan.op_faults(FsFaultKind::Write, &format!("job-{i}.result"), 0);
        let faulty = (0..64).find(|&i| first_draw(i)).expect("p=0.5 fires");
        let clean = (0..64).find(|&i| !first_draw(i)).expect("p=0.5 spares");
        let (faulty, clean) = (
            format!("job-{faulty}.result"),
            format!("job-{clean}.result"),
        );
        let st = ChaosStorage::new(Arc::new(MemStorage::new()), plan.clone());
        let put = |name: &str| Op::Put(name.to_string(), b"state done\n".to_vec());
        assert_eq!(st.apply(vec![put(&clean), put(&faulty)]).len(), 2);
        // The clean put never ran: on its own it draws the same decision.
        assert!(st.apply(vec![put(&clean)]).is_empty());
        assert!(st.exists(&clean));
        // The faulted put spent its draw: a retry draws the next one.
        let retried = st.apply(vec![put(&faulty)]).is_empty();
        assert_eq!(retried, !plan.op_faults(FsFaultKind::Write, &faulty, 1));
    }

    #[test]
    fn checks_gate_the_whole_batch_on_every_backend() {
        let dir = tmpdir("checks");
        for st in backends(&dir) {
            st.put("job-1.lease", b"owner a epoch 1\nexpires 10\n")
                .unwrap();
            // Prefix matches: the guarded write lands.
            let errors = st.apply(vec![
                Op::Check("job-1.lease".into(), b"owner a epoch 1\n".to_vec()),
                Op::Put("job-1.result".into(), b"state done\n".to_vec()),
            ]);
            assert!(errors.is_empty(), "{errors:?}");
            assert!(st.exists("job-1.result"));

            // Stale prefix: batch rejected as a whole, nothing lands.
            let errors = st.apply(vec![
                Op::Check("job-1.lease".into(), b"owner b epoch 2\n".to_vec()),
                Op::Put("job-1.result".into(), b"state failed\n".to_vec()),
                Op::Del("job-1.lease".into()),
            ]);
            assert_eq!(errors.len(), 1, "{errors:?}");
            assert!(is_fence_conflict(&errors[0].1), "{:?}", errors[0].1);
            assert_eq!(st.read_to_string("job-1.result").unwrap(), "state done\n");
            assert!(st.exists("job-1.lease"), "rejected batch must not delete");

            // CAS claim: succeeds once, the loser is fenced.
            let claim = |owner: &str| {
                st.apply(vec![
                    Op::Check("job-1.lease".into(), b"owner a epoch 1\n".to_vec()),
                    Op::Put(
                        "job-1.lease".into(),
                        format!("owner {owner} epoch 2\nexpires 20\n").into_bytes(),
                    ),
                ])
            };
            assert!(claim("b").is_empty());
            let errors = claim("c");
            assert_eq!(errors.len(), 1);
            assert!(is_fence_conflict(&errors[0].1));
            assert!(st
                .read_to_string("job-1.lease")
                .unwrap()
                .starts_with("owner b epoch 2\n"));

            // CheckAbsent: first writer wins.
            let mint = |owner: &str| {
                st.apply(vec![
                    Op::CheckAbsent("job-2.lease".into()),
                    Op::Put(
                        "job-2.lease".into(),
                        format!("owner {owner} epoch 1\nexpires 5\n").into_bytes(),
                    ),
                ])
            };
            assert!(mint("a").is_empty());
            let errors = mint("b");
            assert_eq!(errors.len(), 1);
            assert!(is_fence_conflict(&errors[0].1));

            // A check-only batch that passes is a no-op, not an error.
            assert!(st
                .apply(vec![Op::Check("job-2.lease".into(), b"owner a".to_vec())])
                .is_empty());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checks_see_non_utf8_records_on_every_backend() {
        // A record whose bytes are not valid UTF-8 is still *present*:
        // `Op::Check` against it must evaluate the prefix (not fence on a
        // failed text read), and `Op::CheckAbsent` must fence instead of
        // letting the batch overwrite it.
        let dir = tmpdir("checks-binary");
        for st in backends(&dir) {
            let blob: &[u8] = &[0xff, 0xfe, b'b', b'i', b'n', 0x80];
            st.put("job-9.blob", blob).unwrap();

            let errors = st.apply(vec![
                Op::Check("job-9.blob".into(), vec![0xff, 0xfe]),
                Op::Put("job-9.ok".into(), b"guarded".to_vec()),
            ]);
            assert!(errors.is_empty(), "{}: {errors:?}", st.backend_name());
            assert!(st.exists("job-9.ok"));

            let errors = st.apply(vec![
                Op::CheckAbsent("job-9.blob".into()),
                Op::Put("job-9.blob".into(), b"clobbered".to_vec()),
            ]);
            assert_eq!(errors.len(), 1, "{}", st.backend_name());
            assert!(is_fence_conflict(&errors[0].1), "{:?}", errors[0].1);
            assert_eq!(
                st.read("job-9.blob").unwrap(),
                blob,
                "{}",
                st.backend_name()
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checks_survive_wal_reopen_without_replaying() {
        // Checks are preconditions, not state: they must not be framed
        // into the log, and guarded state must replay correctly.
        let dir = tmpdir("checks-wal");
        {
            let st = WalStorage::open(dir.join("wal")).unwrap();
            st.put("job-1.lease", b"owner a epoch 1\n").unwrap();
            assert!(st
                .apply(vec![
                    Op::Check("job-1.lease".into(), b"owner a".to_vec()),
                    Op::Put("job-1.result".into(), b"state done\n".to_vec()),
                ])
                .is_empty());
        }
        let st = WalStorage::open(dir.join("wal")).unwrap();
        assert_eq!(st.read_to_string("job-1.result").unwrap(), "state done\n");
        // 1 put + 1 guarded put (check not logged).
        assert_eq!(st.counters().recovery_replayed_records, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_exempts_lease_records_and_forwards_checks() {
        let plan = FaultPlan::parse("seed=5,write=1.0,read=1.0").unwrap();
        let st = ChaosStorage::new(Arc::new(MemStorage::new()), plan);
        // Every write and read faults — except on lease records.
        st.put("job-1.lease", b"owner a epoch 1\n").unwrap();
        assert_eq!(st.read("job-1.lease").unwrap(), b"owner a epoch 1\n");
        assert!(st.put("job-1.meta", b"meta").is_err());
        // Checks pass through to the inner backend untouched.
        let errors = st.apply(vec![Op::Check("job-1.lease".into(), b"owner b".to_vec())]);
        assert_eq!(errors.len(), 1);
        assert!(is_fence_conflict(&errors[0].1));
    }

    #[test]
    fn backend_parse_round_trips() {
        for b in [Backend::Wal, Backend::Memory] {
            assert_eq!(Backend::parse(b.as_str()).unwrap(), b);
        }
        assert_eq!(Backend::parse("mem").unwrap(), Backend::Memory);
        assert!(Backend::parse("floppy").is_err());
        assert!(Backend::parse("dir").is_err(), "per-file backend removed");
        assert_eq!(Backend::default(), Backend::Wal);
    }
}
