//! Deterministic chaos harness for the real-system seams of Grid-WFS.
//!
//! The simulated Grid (`gridwfs-sim`) has always injected *modelled* failures
//! — crashes, exceptions, heartbeat loss — inside virtual time.  This crate
//! injects faults into the **real** system around the simulation: the service
//! state directory, the worker threads, and the executor.  Everything is
//! seed-driven and replayable:
//!
//! * [`FaultPlan`] — a parsed, seeded schedule of fault probabilities
//!   (workflow panics, worker stalls, state-dir write/torn-write/rename/read
//!   errors).  Every decision is a pure hash of the plan seed and a stable
//!   key, never of wall-clock time or thread interleaving, so two runs of the
//!   same plan make identical choices.
//! * [`StateFs`] — the four filesystem calls [`write_atomic`] makes.
//!   [`RealFs`] is the production passthrough; a test scripts its own
//!   implementation to fail an exact crash point (the WAL compaction swap,
//!   an engine checkpoint save).  Record-level fault *schedules* live in
//!   `gridwfs_storage::ChaosStorage`, the one consumer of
//!   [`FaultPlan::op_faults`].
//! * [`write_atomic`] — the one crash-atomic write helper: tmp file +
//!   `sync_all` + rename + parent-dir fsync.  A fault (or crash) at any point
//!   leaves either the complete old version or the complete new version,
//!   never a torn file.
//! * [`relock`] / [`wait_timeout_relock`] — poison-tolerant lock accessors: a
//!   panicking lock holder must not take down status queries or snapshots.
//!
//! The crate is dependency-free by design (it sits below `serve` and next to
//! `trace` in the build graph, and must build in the offline stub workspace).

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

// ---------------------------------------------------------------------------
// Deterministic hashing
// ---------------------------------------------------------------------------

/// SplitMix64 finaliser: a high-quality 64-bit mixer (Steele et al.).
/// All chaos decisions reduce to one of these on a stable key.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn mix_str(mut h: u64, s: &str) -> u64 {
    for b in s.bytes() {
        h = h.wrapping_mul(0x100_0000_01B3) ^ u64::from(b);
    }
    splitmix64(h)
}

/// Map a hash to the unit interval [0, 1).
pub fn unit(h: u64) -> f64 {
    // 53 high bits -> f64 mantissa.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

/// Per-fault-kind stream salts: decisions for different fault kinds are
/// independent even when keyed by the same file or job.
const SALT_PANIC: u64 = 0x0070_616e_6963; // "panic"
const SALT_STALL: u64 = 0x0073_7461_6c6c; // "stall"
const SALT_TASK_STALL: u64 = 0x7473_7461_6c6c; // "tstall"
const SALT_WRITE: u64 = 0x0077_7269_7465; // "write"
const SALT_TORN: u64 = 0x746f_726e; // "torn"
const SALT_RENAME: u64 = 0x7265_6e61_6d65; // "rename"
const SALT_READ: u64 = 0x7265_6164; // "read"
const SALT_RKILL: u64 = 0x0072_6b69_6c6c; // "rkill"

/// A seed-driven schedule of injectable faults, replayable by seed.
///
/// Parse one from a CLI spec string (`key=value` pairs, comma-separated):
///
/// ```text
/// seed=7,panic=0.1,torn=0.2,rename=0.1
/// ```
///
/// Keys: `seed` (u64 decision seed), `panic` (P(workflow closure panics), per
/// job), `panic_seed` (repeatable: always panic the job with this submission
/// seed), `stall` (P(worker stalls before running the engine) and, in paced
/// mode, P(a task body stalls past its heartbeat interval)), `stall_ms`
/// (stall duration), `write` (P(state-dir write fails)), `torn` (P(state-dir
/// write silently truncates)), `rename` (P(rename fails — the
/// crash-between-write-and-rename point)), `read` (P(state-dir read fails)),
/// `replica_kill` (P(a federated serve replica's scheduler and lease
/// heartbeat are dead from startup — the replica admits jobs but never
/// runs or renews them, so peers must take its work over), keyed by
/// replica id).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Decision seed: same seed + same keys = same injected faults.
    pub seed: u64,
    /// Probability a job's workflow closure panics inside the worker.
    pub panic_p: f64,
    /// Submission seeds whose jobs always panic (for targeted tests).
    pub panic_seeds: Vec<u64>,
    /// Probability a worker stalls (sleeps `stall_ms`) before the engine runs;
    /// in paced mode, also the per-task probability of a heartbeat-starving
    /// stall inside the task body.
    pub stall_p: f64,
    /// How long an injected stall lasts, in milliseconds.
    pub stall_ms: u64,
    /// Probability a state-dir write fails outright.
    pub write_p: f64,
    /// Probability a state-dir write is silently torn (short write).
    pub torn_p: f64,
    /// Probability a state-dir rename fails (crash-before-rename point).
    pub rename_p: f64,
    /// Probability a state-dir read fails.
    pub read_p: f64,
    /// Probability a federated serve replica is chaos-killed: its
    /// scheduler and lease heartbeat never start, so every job it admits
    /// must be taken over by a peer.  Keyed by replica id.
    pub replica_kill_p: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            panic_p: 0.0,
            panic_seeds: Vec::new(),
            stall_p: 0.0,
            stall_ms: 50,
            write_p: 0.0,
            torn_p: 0.0,
            rename_p: 0.0,
            read_p: 0.0,
            replica_kill_p: 0.0,
        }
    }
}

impl FaultPlan {
    /// Parse a plan from the CLI spec form (`seed=7,panic=0.1`).  Unknown
    /// keys and malformed values are errors: a typo must not silently
    /// disable chaos.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for pair in spec.split(',') {
            let pair = pair.trim();
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("chaos spec: expected key=value, got {pair:?}"))?;
            plan.apply(key.trim(), value.trim())?;
        }
        Ok(plan)
    }

    fn apply(&mut self, key: &str, value: &str) -> Result<(), String> {
        fn prob(key: &str, value: &str) -> Result<f64, String> {
            let p: f64 = value
                .parse()
                .map_err(|_| format!("chaos spec: {key}={value:?} is not a number"))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("chaos spec: {key}={value} outside [0, 1]"));
            }
            Ok(p)
        }
        fn int(key: &str, value: &str) -> Result<u64, String> {
            value
                .parse()
                .map_err(|_| format!("chaos spec: {key}={value:?} is not an integer"))
        }
        match key {
            "seed" => self.seed = int(key, value)?,
            "panic" => self.panic_p = prob(key, value)?,
            "panic_seed" => self.panic_seeds.push(int(key, value)?),
            "stall" => self.stall_p = prob(key, value)?,
            "stall_ms" => self.stall_ms = int(key, value)?,
            "write" => self.write_p = prob(key, value)?,
            "torn" => self.torn_p = prob(key, value)?,
            "rename" => self.rename_p = prob(key, value)?,
            "read" => self.read_p = prob(key, value)?,
            "replica_kill" => self.replica_kill_p = prob(key, value)?,
            other => return Err(format!("chaos spec: unknown key {other:?}")),
        }
        Ok(())
    }

    /// Canonical spec-string form (round-trips through [`FaultPlan::parse`]).
    pub fn to_spec(&self) -> String {
        let mut out = format!("seed={}", self.seed);
        let mut push = |key: &str, p: f64| {
            if p > 0.0 {
                out.push_str(&format!(",{key}={p}"));
            }
        };
        push("panic", self.panic_p);
        push("stall", self.stall_p);
        push("write", self.write_p);
        push("torn", self.torn_p);
        push("rename", self.rename_p);
        push("read", self.read_p);
        push("replica_kill", self.replica_kill_p);
        if self.stall_p > 0.0 && self.stall_ms != 50 {
            out.push_str(&format!(",stall_ms={}", self.stall_ms));
        }
        for s in &self.panic_seeds {
            out.push_str(&format!(",panic_seed={s}"));
        }
        out
    }

    /// True if any state-dir filesystem fault can fire under this plan.
    pub fn has_fs_faults(&self) -> bool {
        self.write_p > 0.0 || self.torn_p > 0.0 || self.rename_p > 0.0 || self.read_p > 0.0
    }

    fn decide(&self, salt: u64, key: u64, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        p >= 1.0 || unit(splitmix64(mix(mix(self.seed, salt), key))) < p
    }

    /// Does the workflow closure of the job with this submission seed panic?
    /// Keyed by the job's own seed (not its id or path), so the decision is
    /// identical regardless of worker count or state-dir location.
    pub fn job_panics(&self, job_seed: u64) -> bool {
        self.panic_seeds.contains(&job_seed) || self.decide(SALT_PANIC, job_seed, self.panic_p)
    }

    /// Should the worker running this job stall before starting the engine?
    pub fn worker_stall(&self, job_seed: u64) -> Option<Duration> {
        self.decide(SALT_STALL, job_seed, self.stall_p)
            .then(|| Duration::from_millis(self.stall_ms))
    }

    /// Should this task attempt (paced mode) stall past its heartbeat
    /// interval inside the task body?  Keyed by (job seed, task id).
    pub fn task_stall(&self, job_seed: u64, task_id: u64) -> Option<Duration> {
        self.decide(SALT_TASK_STALL, mix(job_seed, task_id), self.stall_p)
            .then(|| Duration::from_millis(self.stall_ms))
    }

    /// Is the federated replica with this id chaos-killed?  Keyed by the
    /// replica id string, so the decision is independent of fleet size,
    /// submission order, and wall time — the property the federated chaos
    /// sweep's paired-run determinism rests on.
    pub fn replica_killed(&self, replica: &str) -> bool {
        self.decide(SALT_RKILL, mix_str(0, replica), self.replica_kill_p)
    }

    /// Deterministic per-op fault decision for a named record: the `n`-th
    /// `kind` operation on `name` faults iff this returns true.  Keyed by
    /// the record *name* (never a full path), so decisions are identical
    /// regardless of state-dir location or which backend executes the op.
    /// The storage crate's record-level chaos wrapper is the one caller, so
    /// every backend sees the same fault stream.
    pub fn op_faults(&self, kind: FsFaultKind, name: &str, n: u64) -> bool {
        let (salt, p) = match kind {
            FsFaultKind::Write => (SALT_WRITE, self.write_p),
            FsFaultKind::Torn => (SALT_TORN, self.torn_p),
            FsFaultKind::Rename => (SALT_RENAME, self.rename_p),
            FsFaultKind::Read => (SALT_READ, self.read_p),
        };
        self.decide(salt, mix(mix_str(0, name), mix(salt, n)), p)
    }
}

/// The four state-mutation fault classes a [`FaultPlan`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FsFaultKind {
    /// Write reported as failed (nothing persisted).
    Write,
    /// Short write that *claims* success — half the payload persisted.
    Torn,
    /// Rename reported as failed (source intact, target unchanged).
    Rename,
    /// Read reported as failed.
    Read,
}

impl FsFaultKind {
    /// Stable op label used to key per-`(name, op)` sequence counters.
    pub fn op_name(self) -> &'static str {
        match self {
            FsFaultKind::Write => "write",
            FsFaultKind::Torn => "torn",
            FsFaultKind::Rename => "rename",
            FsFaultKind::Read => "read",
        }
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_spec())
    }
}

// ---------------------------------------------------------------------------
// StateFs seam
// ---------------------------------------------------------------------------

/// The filesystem calls [`write_atomic`] makes — and nothing else.
///
/// Production uses [`RealFs`]; a test scripts its own implementation to
/// hit an exact crash point of the tmp-write → rename → dir-fsync sequence.
pub trait StateFs: Send + Sync {
    /// Create/truncate `path`, write `data`, and flush it to disk
    /// (`sync_all`).  Durability matters here: [`write_atomic`] relies on the
    /// tmp file being on disk before the rename makes it visible.
    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Atomically replace `to` with `from` (POSIX rename semantics).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// fsync a directory, making completed renames in it durable.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
}

/// Production [`StateFs`]: a straight passthrough to `std::fs`.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealFs;

impl StateFs for RealFs {
    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::File::create(path)?;
        f.write_all(data)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync is how POSIX makes a completed rename durable.
        // Platforms where opening a directory fails (e.g. Windows) simply
        // skip it; the rename itself is still atomic.
        match std::fs::File::open(dir) {
            Ok(d) => d.sync_all(),
            Err(_) => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Crash-atomic write
// ---------------------------------------------------------------------------

/// The tmp-file path `write_atomic` stages through: `<name>.tmp` next to the
/// target.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Crash-atomic file replacement: write `<path>.tmp` (created, written,
/// `sync_all`ed), rename it over `path`, then fsync the parent directory.
///
/// Crash-point guarantees (each verified by the crash-point test matrix):
/// * fault **during the tmp write** → `Err`, target untouched (a partial
///   `.tmp` may stay behind; the next write to the name truncates it);
/// * fault **between write and rename** (rename fails) → `Err`, target still
///   holds its previous version in full;
/// * fault **after the rename** (dir fsync fails) → `Err`, but the target
///   already holds the complete new version — the caller sees a failure and
///   may retry; the file is never a mix of old and new bytes.
pub fn write_atomic(fs: &dyn StateFs, path: &Path, data: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    fs.write_file(&tmp, data)?;
    if let Err(e) = fs.rename(&tmp, path) {
        let _ = fs.remove_file(&tmp);
        return Err(e);
    }
    if let Some(parent) = path.parent() {
        fs.sync_dir(parent)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Poison-tolerant locking
// ---------------------------------------------------------------------------

/// Lock a mutex, recovering the data if a previous holder panicked.
///
/// Poisoning exists to warn that an invariant *might* be broken mid-update.
/// Every shared structure in the service is written with single-assignment
/// updates (insert/remove/store), so the data is always structurally sound;
/// refusing service forever because one job's closure panicked would turn an
/// isolated fault into a total outage — the opposite of the paper's thesis.
pub fn relock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// `Condvar::wait_timeout` with the same poison recovery as [`relock`].
pub fn wait_timeout_relock<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, bool) {
    match cv.wait_timeout(guard, timeout) {
        Ok((g, t)) => (g, t.timed_out()),
        Err(poisoned) => {
            let (g, t) = poisoned.into_inner();
            (g, t.timed_out())
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gridwfs-chaos-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    // -- FaultPlan parsing --------------------------------------------------

    #[test]
    fn parse_spec_form() {
        let plan = FaultPlan::parse("seed=7,panic=0.25,torn=0.5,stall=0.1,stall_ms=20").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.panic_p, 0.25);
        assert_eq!(plan.torn_p, 0.5);
        assert_eq!(plan.stall_p, 0.1);
        assert_eq!(plan.stall_ms, 20);
        assert_eq!(plan.write_p, 0.0);
    }

    #[test]
    fn parse_rejects_unknown_keys_and_bad_values() {
        assert!(FaultPlan::parse("panik=0.5").is_err());
        assert!(FaultPlan::parse("panic=1.5").is_err());
        assert!(FaultPlan::parse("panic=abc").is_err());
        assert!(FaultPlan::parse("panic").is_err());
        assert!(FaultPlan::parse("{\"panic\" 0.5}").is_err());
        // The spec form is the only form: a JSON object is an error.
        let e = FaultPlan::parse("{\"seed\":7,\"panic\":0.1}").unwrap_err();
        assert!(e.contains("expected key=value"), "{e}");
    }

    #[test]
    fn parse_empty_spec_is_no_chaos() {
        let plan = FaultPlan::parse("").unwrap();
        assert_eq!(plan, FaultPlan::default());
        assert!(!plan.has_fs_faults());
        assert!(!plan.job_panics(123));
    }

    #[test]
    fn spec_roundtrip() {
        let plan =
            FaultPlan::parse("seed=3,panic=0.1,stall=0.2,stall_ms=75,torn=0.4,panic_seed=11")
                .unwrap();
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
        let plan = FaultPlan::parse("seed=5,replica_kill=0.4").unwrap();
        assert_eq!(plan.replica_kill_p, 0.4);
        assert_eq!(FaultPlan::parse(&plan.to_spec()).unwrap(), plan);
    }

    #[test]
    fn replica_kill_is_deterministic_per_replica_id() {
        let plan = FaultPlan::parse("seed=7,replica_kill=0.5").unwrap();
        let ids: Vec<String> = (0..64).map(|i| format!("r{i}")).collect();
        let a: Vec<bool> = ids.iter().map(|r| plan.replica_killed(r)).collect();
        let b: Vec<bool> = ids.iter().map(|r| plan.replica_killed(r)).collect();
        assert_eq!(a, b, "same plan, same kill set");
        let hits = a.iter().filter(|&&x| x).count();
        assert!((10..=54).contains(&hits), "p=0.5 over 64 draws: got {hits}");
        // Replica kills do not gate the fs-fault wrapping decision.
        assert!(!plan.has_fs_faults());
        assert!(!FaultPlan::default().replica_killed("r0"));
    }

    // -- Decision determinism ----------------------------------------------

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::parse("seed=1,panic=0.5").unwrap();
        let b = FaultPlan::parse("seed=2,panic=0.5").unwrap();
        let choices_a: Vec<bool> = (0..64).map(|s| a.job_panics(s)).collect();
        let choices_a2: Vec<bool> = (0..64).map(|s| a.job_panics(s)).collect();
        let choices_b: Vec<bool> = (0..64).map(|s| b.job_panics(s)).collect();
        assert_eq!(choices_a, choices_a2, "same seed, same decisions");
        assert_ne!(choices_a, choices_b, "different seed, different schedule");
        let hits = choices_a.iter().filter(|&&x| x).count();
        assert!((10..=54).contains(&hits), "p=0.5 over 64 draws: got {hits}");
    }

    #[test]
    fn panic_seed_overrides_probability() {
        let plan = FaultPlan::parse("panic_seed=42").unwrap();
        assert!(plan.job_panics(42));
        assert!(!plan.job_panics(43));
    }

    #[test]
    fn fault_streams_are_independent() {
        // A plan with every probability at 0 except one kind must only ever
        // fire that kind.
        let plan = FaultPlan::parse("seed=5,stall=1").unwrap();
        assert!(plan.worker_stall(1).is_some());
        assert!(plan.task_stall(1, 2).is_some());
        assert!(!plan.job_panics(1));
    }

    // -- RealFs + write_atomic ---------------------------------------------

    #[test]
    fn write_atomic_replaces_content() {
        let dir = tmpdir("atomic");
        let path = dir.join("f.meta");
        write_atomic(&RealFs, &path, b"one").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "one");
        write_atomic(&RealFs, &path, b"two").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "two");
        assert!(!tmp_path(&path).exists(), "tmp staging file cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- Crash-point matrix -------------------------------------------------

    /// Scripted fs: fail the N-th occurrence of one op kind, pass everything
    /// else through to RealFs.
    struct FailAt {
        op: &'static str,
        at: u64,
        count: AtomicU64,
    }

    impl FailAt {
        fn new(op: &'static str, at: u64) -> Self {
            FailAt {
                op,
                at,
                count: AtomicU64::new(0),
            }
        }

        fn trip(&self, op: &'static str) -> bool {
            op == self.op && self.count.fetch_add(1, Ordering::SeqCst) == self.at
        }
    }

    impl StateFs for FailAt {
        fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            if self.trip("write") {
                return Err(io::Error::other("scripted write failure"));
            }
            RealFs.write_file(path, data)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            if self.trip("rename") {
                return Err(io::Error::other("scripted rename failure"));
            }
            RealFs.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            RealFs.remove_file(path)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            if self.trip("sync_dir") {
                return Err(io::Error::other("scripted dir-sync failure"));
            }
            RealFs.sync_dir(dir)
        }
    }

    /// The acceptance-criteria matrix: a crash injected at every point of
    /// `write_atomic` leaves the target either all-old or all-new — never a
    /// mix, never truncated.
    #[test]
    fn write_atomic_crash_point_matrix() {
        let old = b"previous version, intact";
        let new = b"next version, also intact";
        // (op to fail, occurrence, expect Err, expect old content to survive)
        let cases: &[(&'static str, u64, bool)] = &[
            ("write", 0, true),     // crash during tmp write -> old survives
            ("rename", 0, true),    // crash between write and rename -> old survives
            ("sync_dir", 0, false), // crash after rename -> new is in place
        ];
        for &(op, at, old_survives) in cases {
            let dir = tmpdir(&format!("crash-{op}"));
            let path = dir.join("f.meta");
            write_atomic(&RealFs, &path, old).unwrap();
            let fs = FailAt::new(op, at);
            let result = write_atomic(&fs, &path, new);
            assert!(result.is_err(), "crash at {op} must surface as Err");
            let content = std::fs::read(&path).unwrap();
            let expect: &[u8] = if old_survives { old } else { new };
            assert_eq!(
                content, expect,
                "crash at {op}: file must be a complete version"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn write_atomic_torn_tmp_write_never_reaches_target() {
        // A *silently* torn tmp write followed by a crash before rename
        // leaves only the tmp file torn; the target keeps its old version.
        let dir = tmpdir("torn-tmp");
        let path = dir.join("f.meta");
        write_atomic(&RealFs, &path, b"old and complete").unwrap();
        struct TornThenCrash;
        impl StateFs for TornThenCrash {
            fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
                RealFs.write_file(path, &data[..data.len() / 2])
            }
            fn rename(&self, _from: &Path, _to: &Path) -> io::Result<()> {
                Err(io::Error::other("crash before rename"))
            }
            fn remove_file(&self, path: &Path) -> io::Result<()> {
                RealFs.remove_file(path)
            }
            fn sync_dir(&self, dir: &Path) -> io::Result<()> {
                RealFs.sync_dir(dir)
            }
        }
        assert!(write_atomic(&TornThenCrash, &path, b"new but torn").is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "old and complete");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- Poison tolerance ---------------------------------------------------

    #[test]
    fn relock_recovers_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "mutex is poisoned");
        assert_eq!(*relock(&m), 7, "relock still reads the data");
        *relock(&m) = 8;
        assert_eq!(*relock(&m), 8);
    }

    #[test]
    fn wait_timeout_relock_recovers_poisoned_pair() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let _ = std::thread::spawn(move || {
            let _g = pair2.0.lock().unwrap();
            panic!("poison the condvar mutex");
        })
        .join();
        let g = relock(&pair.0);
        let (g, timed_out) = wait_timeout_relock(&pair.1, g, Duration::from_millis(5));
        assert!(timed_out);
        assert!(!*g);
    }
}
