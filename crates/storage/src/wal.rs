//! Write-ahead-log backend: a single append-only log with group commit
//! and snapshot compaction.
//!
//! ## On-disk format
//!
//! `wal.log` is a sequence of frames, each one durable group commit:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE over payload] [payload: len bytes]
//! ```
//!
//! The payload is a run of ops — `1` put (name, data), `2` del (name),
//! `3` rename (from, to) — each string/blob prefixed by a `u32 LE`
//! length.  A compaction snapshot is not a special record: it is an
//! ordinary frame whose ops are puts of the entire live table, written
//! crash-atomically (`write_atomic`: tmp + fsync + rename + dir fsync)
//! over the log.  The "snapshot + truncated log" of the design is thus
//! literally the log's head frame.
//!
//! ## Crash model
//!
//! Appends happen with one `write_all` + one `sync_all` while holding the
//! table lock, and an append that fails without a crash is cut back out of
//! the file before the lock is released, so the log on disk is always a
//! valid prefix plus at most one torn frame from a crash mid-append.
//! Replay applies frames until the first length/checksum mismatch, moves
//! every byte from there on to `wal.quarantined`, and atomically rewrites
//! the log as the valid prefix — corruption is quarantined, never fatal,
//! and never reaches records that committed before it.  An op whose frame is torn never had its
//! commit acknowledged (the fsync didn't complete), so dropping the tail
//! loses nothing that was promised durable.
//!
//! One process owns a WAL dir at a time: `open` heals the tail and takes
//! the append handle, so concurrent opens of a *live* log are forbidden
//! (the service enforces this by construction — recovery opens the
//! backend once, before workers start).

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use gridwfs_chaos::{relock, write_atomic, RealFs, StateFs};

use crate::{CountersSnapshot, Op, Storage, StorageCounters};

/// Log file name inside the state dir.
pub const WAL_FILE: &str = "wal.log";
/// Where torn/corrupt tail bytes are moved during replay.
pub const WAL_QUARANTINE: &str = "wal.quarantined";

/// Don't bother compacting below this log size…
const COMPACT_MIN_BYTES: u64 = 256 * 1024;
/// …and only once the log is this many times the last snapshot.
const COMPACT_GROWTH: u64 = 4;

const OP_PUT: u8 = 1;
const OP_DEL: u8 = 2;
const OP_RENAME: u8 = 3;

/// Append-only write-ahead log storage (see module docs).
pub struct WalStorage {
    dir: PathBuf,
    inner: Mutex<WalInner>,
    counters: StorageCounters,
    /// Filesystem the compaction snapshot swap goes through — [`RealFs`]
    /// in production, a fault-injecting [`StateFs`] in crash tests (see
    /// [`WalStorage::open_with_fs`]).  Appends use the held [`File`]
    /// directly and are faulted at the [`Storage`] layer instead.
    fs: Arc<dyn StateFs>,
}

struct WalInner {
    table: BTreeMap<String, Vec<u8>>,
    /// Append handle; `None` once the log can no longer be appended to
    /// safely (a compaction swap landed but the path would not re-open, or a
    /// failed append could not be rolled back) — every later `apply` fails.
    file: Option<File>,
    log_bytes: u64,
    snapshot_bytes: u64,
}

impl WalStorage {
    /// Open (creating if needed) the WAL in `dir`, replaying the log and
    /// healing any torn tail.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<WalStorage> {
        Self::open_with_fs(dir, Arc::new(RealFs))
    }

    /// [`WalStorage::open`] with the compaction-swap filesystem injected —
    /// the seam crash tests use to fail `write_atomic` mid-compaction and
    /// prove the appender survives.
    pub fn open_with_fs(dir: impl Into<PathBuf>, fs: Arc<dyn StateFs>) -> io::Result<WalStorage> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let log_path = dir.join(WAL_FILE);
        let bytes = match std::fs::read(&log_path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };

        let counters = StorageCounters::default();
        let mut table = BTreeMap::new();
        let mut offset = 0usize;
        let mut replayed = 0u64;
        while let Some(frame_len) = valid_frame_at(&bytes, offset) {
            let payload = &bytes[offset + 8..offset + 8 + frame_len];
            match decode_ops(payload) {
                Some(ops) => {
                    replayed += ops.len() as u64;
                    apply_to_table(&mut table, ops);
                    offset += 8 + frame_len;
                }
                // Checksum passed but the payload doesn't decode: treat
                // it like any other corruption and cut the log here.
                None => break,
            }
        }
        counters.add(&counters.recovery_replayed_records, replayed);

        if offset < bytes.len() {
            // Torn or corrupt tail: move the bytes aside, then atomically
            // rewrite the log as its valid prefix.  Quarantine first so a
            // crash between the two steps loses no evidence.
            let mut q = OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(WAL_QUARANTINE))?;
            q.write_all(&bytes[offset..])?;
            q.sync_all()?;
            write_atomic(&RealFs, &log_path, &bytes[..offset])?;
        }

        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&log_path)?;
        Ok(WalStorage {
            dir,
            inner: Mutex::new(WalInner {
                table,
                file: Some(file),
                log_bytes: offset as u64,
                // Unknown after reopen; assuming "all snapshot" delays the
                // next compaction until the log has genuinely grown again.
                snapshot_bytes: offset as u64,
            }),
            counters,
            fs,
        })
    }

    /// The backing directory (the log lives at `dir/wal.log`).
    pub fn dir(&self) -> &PathBuf {
        &self.dir
    }

    fn compact_locked(&self, inner: &mut WalInner) -> io::Result<()> {
        let ops: Vec<Op> = inner
            .table
            .iter()
            .map(|(name, data)| Op::Put(name.clone(), data.clone()))
            .collect();
        let frame = encode_frame(&ops);
        let log_path = self.dir.join(WAL_FILE);
        // The old append handle stays in place while the snapshot swap
        // runs: compaction is an optimisation, and a failed swap must
        // leave the appender exactly as it was (the log on disk is
        // untouched until the rename inside `write_atomic` lands).
        let swap = write_atomic(self.fs.as_ref(), &log_path, &frame);
        // Re-open the *path* regardless of the swap's outcome.  After a
        // successful rename the old fd points at an unlinked inode and
        // must not be written; after a failed swap the path still names
        // the old log.  Either way the freshly opened handle appends to
        // whatever the crash model left durable at `wal.log`.
        match OpenOptions::new().append(true).open(&log_path) {
            Ok(f) => inner.file = Some(f),
            Err(reopen) => {
                if swap.is_ok() {
                    // The rename landed but the path cannot be re-opened:
                    // the old fd is the unlinked pre-snapshot inode, and
                    // appending to it would silently drop acknowledged
                    // commits.  Fail loudly instead.
                    inner.file = None;
                    return Err(reopen);
                }
                // The swap never landed, so the old log — and the handle
                // already in `inner.file` — are both still good.
                return swap;
            }
        }
        swap?;
        inner.log_bytes = frame.len() as u64;
        inner.snapshot_bytes = frame.len() as u64;
        self.counters.add(&self.counters.compactions, 1);
        Ok(())
    }
}

/// Cuts the log back to its last acknowledged frame after a failed append.
///
/// A failed `write_all`/`sync_all` can leave part of its frame in the file.
/// Left there, every later frame — acknowledged as durable — would sit
/// behind a torn one, and replay stops at the first torn frame and
/// quarantines the rest.  If the log cannot be cut back, the handle is
/// dropped so that later appends fail (`append handle lost`) instead of
/// acknowledging commits the next open would discard.
fn roll_back_append(inner: &mut WalInner) {
    let Some(f) = inner.file.as_mut() else { return };
    if f.set_len(inner.log_bytes)
        .and_then(|()| f.sync_all())
        .is_err()
    {
        inner.file = None;
    }
}

impl Storage for WalStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        relock(&self.inner)
            .table
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no record {name}")))
    }

    fn exists(&self, name: &str) -> bool {
        relock(&self.inner).table.contains_key(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(relock(&self.inner).table.keys().cloned().collect())
    }

    fn apply(&self, ops: Vec<Op>) -> Vec<(String, io::Error)> {
        if ops.is_empty() {
            return Vec::new();
        }
        let mut inner = relock(&self.inner);
        // Preconditions are evaluated against the live table under the
        // same lock as the append: check and commit are one atomic step.
        // Checks are not state, so they are never framed into the log.
        let checks = crate::eval_checks(&ops, |name| Ok(inner.table.get(name).cloned()));
        if !checks.is_empty() {
            return checks;
        }
        let ops = crate::strip_checks(ops);
        if ops.is_empty() {
            // A check-only batch that passed: nothing to commit.
            return Vec::new();
        }
        let frame = encode_frame(&ops);

        // One write + one fsync for the whole batch: the group commit.
        let committed = match inner.file.as_mut() {
            Some(f) => f.write_all(&frame).and_then(|()| f.sync_all()),
            None => Err(io::Error::other("wal: append handle lost")),
        };
        if let Err(e) = committed {
            // The batch is all-or-nothing: nothing reaches the table, and
            // every op reports the commit failure.
            roll_back_append(&mut inner);
            return ops
                .iter()
                .map(|op| {
                    (
                        op.reported_name().to_string(),
                        io::Error::new(e.kind(), format!("wal append failed: {e}")),
                    )
                })
                .collect();
        }

        self.counters
            .add(&self.counters.wal_appends, ops.len() as u64);
        self.counters.add(&self.counters.group_commits, 1);
        self.counters
            .add(&self.counters.bytes_logged, frame.len() as u64);
        inner.log_bytes += frame.len() as u64;

        let mut errors = Vec::new();
        // Mirror the shared ordering contract: deletes/renames in order,
        // puts land last.
        let mut puts = Vec::new();
        for op in ops {
            match op {
                Op::Check(..) | Op::CheckAbsent(..) => unreachable!("checks stripped above"),
                Op::Put(name, data) => puts.push((name, data)),
                Op::Del(name) => {
                    inner.table.remove(&name);
                }
                Op::Rename(from, to) => match inner.table.remove(&from) {
                    Some(v) => {
                        inner.table.insert(to, v);
                    }
                    None => errors.push((
                        to,
                        io::Error::new(io::ErrorKind::NotFound, format!("no record {from}")),
                    )),
                },
            }
        }
        for (name, data) in puts {
            inner.table.insert(name, data);
        }

        if inner.log_bytes >= COMPACT_MIN_BYTES
            && inner.log_bytes >= COMPACT_GROWTH * inner.snapshot_bytes.max(1)
        {
            if let Err(e) = self.compact_locked(&mut inner) {
                // Compaction is an optimisation; the log is still intact.
                errors.push((WAL_FILE.to_string(), e));
            }
        }
        errors
    }

    fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    fn compact(&self) -> io::Result<()> {
        let mut inner = relock(&self.inner);
        self.compact_locked(&mut inner)
    }

    fn backend_name(&self) -> &'static str {
        "wal"
    }
}

impl std::fmt::Debug for WalStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalStorage")
            .field("dir", &self.dir)
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Is there a complete, checksum-valid frame at `offset`?  Returns its
/// payload length.
fn valid_frame_at(bytes: &[u8], offset: usize) -> Option<usize> {
    let header = bytes.get(offset..offset + 8)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
    let payload = bytes.get(offset + 8..offset + 8 + len)?;
    (crc32(payload) == crc).then_some(len)
}

fn encode_frame(ops: &[Op]) -> Vec<u8> {
    let mut payload = Vec::new();
    for op in ops {
        match op {
            // Preconditions are commit-time-only; they have no frame tag.
            Op::Check(..) | Op::CheckAbsent(..) => {}
            Op::Put(name, data) => {
                payload.push(OP_PUT);
                put_blob(&mut payload, name.as_bytes());
                put_blob(&mut payload, data);
            }
            Op::Del(name) => {
                payload.push(OP_DEL);
                put_blob(&mut payload, name.as_bytes());
            }
            Op::Rename(from, to) => {
                payload.push(OP_RENAME);
                put_blob(&mut payload, from.as_bytes());
                put_blob(&mut payload, to.as_bytes());
            }
        }
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn put_blob(out: &mut Vec<u8>, blob: &[u8]) {
    out.extend_from_slice(&(blob.len() as u32).to_le_bytes());
    out.extend_from_slice(blob);
}

fn decode_ops(mut payload: &[u8]) -> Option<Vec<Op>> {
    let mut ops = Vec::new();
    while !payload.is_empty() {
        let (tag, rest) = payload.split_first()?;
        payload = rest;
        match *tag {
            OP_PUT => {
                let (name, rest) = take_blob(payload)?;
                let (data, rest) = take_blob(rest)?;
                ops.push(Op::Put(
                    String::from_utf8(name.to_vec()).ok()?,
                    data.to_vec(),
                ));
                payload = rest;
            }
            OP_DEL => {
                let (name, rest) = take_blob(payload)?;
                ops.push(Op::Del(String::from_utf8(name.to_vec()).ok()?));
                payload = rest;
            }
            OP_RENAME => {
                let (from, rest) = take_blob(payload)?;
                let (to, rest) = take_blob(rest)?;
                ops.push(Op::Rename(
                    String::from_utf8(from.to_vec()).ok()?,
                    String::from_utf8(to.to_vec()).ok()?,
                ));
                payload = rest;
            }
            _ => return None,
        }
    }
    Some(ops)
}

fn take_blob(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let len = u32::from_le_bytes(bytes.get(0..4)?.try_into().unwrap()) as usize;
    let blob = bytes.get(4..4 + len)?;
    Some((blob, &bytes[4 + len..]))
}

fn apply_to_table(table: &mut BTreeMap<String, Vec<u8>>, ops: Vec<Op>) {
    let mut puts = Vec::new();
    for op in ops {
        match op {
            // Never logged, so never replayed.
            Op::Check(..) | Op::CheckAbsent(..) => {}
            Op::Put(name, data) => puts.push((name, data)),
            Op::Del(name) => {
                table.remove(&name);
            }
            Op::Rename(from, to) => {
                if let Some(v) = table.remove(&from) {
                    table.insert(to, v);
                }
            }
        }
    }
    for (name, data) in puts {
        table.insert(name, data);
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3), table built at compile time — the crate stays
// dependency-free.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "gridwfs-storage-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn state_survives_reopen() {
        let dir = tmpdir("reopen");
        {
            let st = WalStorage::open(&dir).unwrap();
            st.put("job-1.meta", b"meta-1").unwrap();
            st.apply(vec![
                Op::Put("job-2.meta".into(), b"meta-2".to_vec()),
                Op::Put("job-2.wf.xml".into(), b"<Workflow/>".to_vec()),
            ]);
            st.rename("job-1.meta", "job-1.meta.quarantined").unwrap();
            st.del("job-2.wf.xml").unwrap();
        }
        let st = WalStorage::open(&dir).unwrap();
        let mut names = st.list().unwrap();
        names.sort();
        assert_eq!(names, ["job-1.meta.quarantined", "job-2.meta"]);
        assert_eq!(st.read_to_string("job-2.meta").unwrap(), "meta-2");
        // Replay counted every logged op: 1 put + a 2-op batch + 1 rename
        // + 1 del.
        assert_eq!(st.counters().recovery_replayed_records, 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_counters_track_batches() {
        let dir = tmpdir("counters");
        let st = WalStorage::open(&dir).unwrap();
        st.apply(vec![
            Op::Put("a".into(), vec![1]),
            Op::Put("b".into(), vec![2]),
            Op::Del("a".into()),
        ]);
        st.put("c", &[3]).unwrap();
        let c = st.counters();
        assert_eq!(c.group_commits, 2);
        assert_eq!(c.wal_appends, 4);
        assert!(c.bytes_logged > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_quarantined_not_fatal() {
        let dir = tmpdir("torn");
        {
            let st = WalStorage::open(&dir).unwrap();
            st.put("job-1.meta", b"first").unwrap();
            st.put("job-2.meta", b"second").unwrap();
        }
        let log = dir.join(WAL_FILE);
        let bytes = std::fs::read(&log).unwrap();
        // Tear the last frame three bytes short.
        std::fs::write(&log, &bytes[..bytes.len() - 3]).unwrap();

        let st = WalStorage::open(&dir).unwrap();
        assert!(st.exists("job-1.meta"));
        assert!(!st.exists("job-2.meta"), "torn record must not replay");
        // The torn bytes moved to quarantine; the log is the valid prefix.
        let first_frame = valid_frame_at(&bytes, 0).unwrap() + 8;
        let quarantined = std::fs::read(dir.join(WAL_QUARANTINE)).unwrap();
        assert_eq!(quarantined.len(), bytes.len() - 3 - first_frame);
        assert_eq!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            first_frame as u64
        );
        drop(st);
        // Healed log replays cleanly and can keep appending.
        let st = WalStorage::open(&dir).unwrap();
        st.put("job-2.meta", b"second-again").unwrap();
        drop(st);
        let st = WalStorage::open(&dir).unwrap();
        assert_eq!(st.read_to_string("job-2.meta").unwrap(), "second-again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_byte_cuts_log_at_that_frame() {
        let dir = tmpdir("corrupt");
        {
            let st = WalStorage::open(&dir).unwrap();
            st.put("job-1.meta", b"first").unwrap();
            st.put("job-2.meta", b"second").unwrap();
            st.put("job-3.meta", b"third").unwrap();
        }
        let log = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&log).unwrap();
        // Flip a payload byte inside the second frame.
        let first = valid_frame_at(&bytes, 0).unwrap() + 8;
        bytes[first + 9] ^= 0xFF;
        std::fs::write(&log, &bytes).unwrap();

        let st = WalStorage::open(&dir).unwrap();
        assert!(st.exists("job-1.meta"));
        assert!(!st.exists("job-2.meta"));
        assert!(!st.exists("job-3.meta"), "frames after corruption are tail");
        assert!(dir.join(WAL_QUARANTINE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        let dir = tmpdir("compact");
        let st = WalStorage::open(&dir).unwrap();
        // Overwrite one record many times so the log dwarfs the table.
        for i in 0..200u32 {
            st.put("job-1.ckpt.xml", format!("ckpt {i}").repeat(50).as_bytes())
                .unwrap();
        }
        st.put("job-1.meta", b"meta").unwrap();
        st.compact().unwrap();
        assert_eq!(st.counters().compactions, 1);
        let log_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(
            log_len < 10_000,
            "snapshot should be table-sized, got {log_len}"
        );
        // Appends keep working after the swap, and reopen sees everything.
        st.put("job-2.meta", b"later").unwrap();
        drop(st);
        let st = WalStorage::open(&dir).unwrap();
        assert_eq!(st.read_to_string("job-1.meta").unwrap(), "meta");
        assert_eq!(st.read_to_string("job-2.meta").unwrap(), "later");
        assert!(st
            .read_to_string("job-1.ckpt.xml")
            .unwrap()
            .starts_with("ckpt 199"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn automatic_compaction_kicks_in_on_growth() {
        let dir = tmpdir("autocompact");
        let st = WalStorage::open(&dir).unwrap();
        let big = vec![b'x'; 8 * 1024];
        for _ in 0..200 {
            st.put("job-1.ckpt.xml", &big).unwrap();
        }
        let c = st.counters();
        assert!(
            c.compactions >= 1,
            "log grew 200 snapshots, never compacted"
        );
        let log_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        assert!(log_len < 600 * 1024, "log did not shrink: {log_len}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// What a failed `write_all` leaves behind: the first bytes of a frame
    /// at the end of the log, written through the append handle itself.
    fn tear_an_append(st: &WalStorage) {
        let frame = encode_frame(&[Op::Put("job-9.meta".into(), vec![b'x'; 64])]);
        let mut inner = relock(&st.inner);
        let f = inner.file.as_mut().unwrap();
        f.write_all(&frame[..frame.len() / 2]).unwrap();
        f.sync_all().unwrap();
    }

    #[test]
    fn failed_append_is_rolled_back_so_later_commits_replay() {
        let dir = tmpdir("rollback");
        let st = WalStorage::open(&dir).unwrap();
        st.put("job-1.meta", b"before").unwrap();
        let acknowledged = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();

        tear_an_append(&st);
        assert!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len() > acknowledged);
        roll_back_append(&mut relock(&st.inner));
        assert_eq!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            acknowledged,
            "log cut back to the last acknowledged frame"
        );

        // The handle survived and appends land where the torn bytes were.
        st.put("job-2.meta", b"after").unwrap();
        st.put("job-3.meta", b"later").unwrap();
        drop(st);
        let st = WalStorage::open(&dir).unwrap();
        for (name, want) in [
            ("job-1.meta", "before"),
            ("job-2.meta", "after"),
            ("job-3.meta", "later"),
        ] {
            assert_eq!(st.read_to_string(name).unwrap(), want);
        }
        assert!(!st.exists("job-9.meta"), "the torn batch never committed");
        assert!(!dir.join(WAL_QUARANTINE).exists(), "nothing left to heal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_that_cannot_be_rolled_back_loses_the_handle() {
        let dir = tmpdir("handle-lost");
        let st = WalStorage::open(&dir).unwrap();
        st.put("job-1.meta", b"before").unwrap();
        // A read-only handle fails the append and the truncation alike.
        relock(&st.inner).file = Some(File::open(dir.join(WAL_FILE)).unwrap());

        let errors = st.apply(vec![
            Op::Put("job-2.meta".into(), b"x".to_vec()),
            Op::Del("job-1.meta".into()),
        ]);
        assert_eq!(errors.len(), 2, "every op of the batch reports");
        assert!(
            errors[0].1.to_string().contains("wal append failed"),
            "{}",
            errors[0].1
        );
        assert!(relock(&st.inner).file.is_none(), "handle dropped");
        assert!(st.exists("job-1.meta") && !st.exists("job-2.meta"));

        // Nothing is acknowledged from here on, by any path.
        let err = st.put("job-3.meta", b"y").unwrap_err();
        assert!(err.to_string().contains("append handle lost"), "{err}");
        assert!(!st.exists("job-3.meta"));
        assert_eq!(st.counters().group_commits, 1, "only the first put");
        drop(st);

        // What was acknowledged is exactly what a reopen sees.
        let st = WalStorage::open(&dir).unwrap();
        assert_eq!(st.list().unwrap(), ["job-1.meta"]);
        assert!(!dir.join(WAL_QUARANTINE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Scripted fs: fail the `at`-th call of one op, pass everything else
    /// through to [`RealFs`].
    struct FailAt {
        op: &'static str,
        at: u64,
        count: AtomicU64,
    }

    impl FailAt {
        fn check(&self, op: &'static str) -> io::Result<()> {
            if op == self.op && self.count.fetch_add(1, Ordering::SeqCst) == self.at {
                return Err(io::Error::other(format!("scripted {op} failure")));
            }
            Ok(())
        }
    }

    impl StateFs for FailAt {
        fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            self.check("write_file")?;
            RealFs.write_file(path, data)
        }
        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            self.check("rename")?;
            RealFs.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> io::Result<()> {
            RealFs.remove_file(path)
        }
        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            self.check("sync_dir")?;
            RealFs.sync_dir(dir)
        }
    }

    /// Every crash point of the compaction swap: the error surfaces, the
    /// appender keeps committing, and a fresh open reads every record from
    /// before and after the failure — whether the swap never landed (tmp
    /// write, rename) or landed without its directory fsync.
    #[test]
    fn compaction_swap_crash_point_matrix() {
        // (op to fail, did the snapshot replace the log on disk?)
        for (op, swapped) in [("write_file", false), ("rename", false), ("sync_dir", true)] {
            let dir = tmpdir(&format!("compact-{op}"));
            let fs = Arc::new(FailAt {
                op,
                at: 0,
                count: AtomicU64::new(0),
            });
            let st = WalStorage::open_with_fs(&dir, fs).unwrap();
            for i in 0..20u32 {
                st.put("job-1.ckpt.xml", format!("ckpt {i}").as_bytes())
                    .unwrap();
            }
            st.put("job-1.meta", b"meta").unwrap();
            let before = std::fs::read(dir.join(WAL_FILE)).unwrap();

            let err = st.compact().expect_err("scripted fault must surface");
            assert!(err.to_string().contains("scripted"), "{op}: {err}");
            assert_eq!(st.counters().compactions, 0, "{op}");
            let after = std::fs::read(dir.join(WAL_FILE)).unwrap();
            if swapped {
                assert!(after.len() < before.len(), "{op}: snapshot is in place");
            } else {
                assert_eq!(after, before, "{op}: log must be byte-for-byte intact");
            }
            assert!(!dir.join("wal.log.tmp").exists(), "{op}: tmp left behind");

            st.put("job-2.meta", b"after-failed-compaction")
                .unwrap_or_else(|e| panic!("{op}: appender unusable: {e}"));
            // The one-shot fault is spent: the next compaction goes through.
            st.compact().unwrap();
            st.put("job-3.meta", b"after-good-compaction").unwrap();
            drop(st);
            let st = WalStorage::open(&dir).unwrap();
            assert_eq!(st.read_to_string("job-1.ckpt.xml").unwrap(), "ckpt 19");
            assert_eq!(st.read_to_string("job-1.meta").unwrap(), "meta");
            assert_eq!(
                st.read_to_string("job-2.meta").unwrap(),
                "after-failed-compaction",
                "{op}: post-failure append must survive reopen"
            );
            assert_eq!(
                st.read_to_string("job-3.meta").unwrap(),
                "after-good-compaction"
            );
            assert!(!dir.join(WAL_QUARANTINE).exists(), "{op}: clean replay");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn empty_and_headerless_logs_replay_empty() {
        let dir = tmpdir("empty");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(WAL_FILE), b"abc").unwrap(); // < header size
        let st = WalStorage::open(&dir).unwrap();
        assert!(st.list().unwrap().is_empty());
        assert!(dir.join(WAL_QUARANTINE).exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
