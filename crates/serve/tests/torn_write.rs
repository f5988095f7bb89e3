//! Torn-write robustness (ISSUE satellite): truncate every persisted
//! state artifact at **every byte boundary** and assert recovery never
//! panics, never loses track of an id, and either recovers or quarantines
//! the entry.  Two tear shapes are swept:
//!
//! * a torn *record* — a short `Storage::put` that reported success (what
//!   `ChaosStorage`'s `torn` fault produces), planted on both backends;
//! * a torn *log* — the write-ahead log file truncated at every byte
//!   boundary and at every record boundary; replay must quarantine only
//!   the torn tail and keep every complete record.
//!
//! A torn write is a short write that *reported success* (lost page cache,
//! powered-off disk cache): the corruption only surfaces at the next read.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use grid_wfs::{checkpoint, Instance};
use gridwfs_serve::{
    recover, GridSpec, JobId, MemStorage, Service, ServiceConfig, Storage, Submission, WalStorage,
};
use gridwfs_storage::{WAL_FILE, WAL_QUARANTINE};
use gridwfs_wpdl::parse;
use gridwfs_wpdl::validate::validate;

const WF: &str = "<Workflow name='w'>\
   <Activity name='a'><Implement>p</Implement></Activity>\
   <Program name='p' duration='5'><Option hostname='h1'/></Program>\
 </Workflow>";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gridwfs-torn-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fresh instance of each backend (`tag` keeps WAL dirs apart).
fn backends(tag: &str) -> Vec<Arc<dyn Storage>> {
    vec![
        Arc::new(WalStorage::open(tmpdir(tag)).unwrap()),
        Arc::new(MemStorage::new()),
    ]
}

fn submission() -> Submission {
    Submission {
        name: "torn".into(),
        workflow_xml: WF.into(),
        grid: GridSpec::virtual_grid().with_host("h1", 1.0),
        seed: 7,
        deadline: None,
    }
}

#[test]
fn meta_truncated_at_every_byte_boundary_recovers_or_quarantines() {
    let id = JobId(7);
    let meta = recover::meta_name(id);
    for st in backends("meta") {
        let st = st.as_ref();
        recover::write_submission(st, id, &submission()).unwrap();
        let full = st.read(&meta).unwrap();
        assert!(full.len() > 10, "meta record suspiciously small");

        for len in 0..full.len() {
            recover::write_submission(st, id, &submission()).unwrap();
            st.del("job-7.meta.quarantined").unwrap();
            st.put(&meta, &full[..len]).unwrap();

            let scanned = recover::scan(st)
                .unwrap_or_else(|e| panic!("scan must not fail at len {len}: {e}"));
            assert_eq!(
                scanned.jobs.len() as u64 + scanned.quarantined,
                1,
                "len {len}: job neither recovered nor quarantined"
            );
            // Whatever happened to the meta, the id stays burned: a restarted
            // service must never hand job-7's records to a new submission.
            assert_eq!(recover::max_job_id(st).unwrap(), 7, "len {len}");

            // A second scan is clean: quarantined entries were moved aside,
            // recovered ones are still recoverable — and still burn the id.
            let again = recover::scan(st).unwrap();
            assert_eq!(again.quarantined, 0, "len {len}: quarantine not sticky");
            assert_eq!(recover::max_job_id(st).unwrap(), 7, "len {len}");
        }
    }
}

#[test]
fn checkpoint_truncated_at_every_byte_boundary_loads_gracefully() {
    let workflow = parse::from_str(WF).unwrap();
    let instance = Instance::new(validate(workflow).unwrap());
    let xml = checkpoint::to_xml(&instance);
    let bytes = xml.as_bytes();
    assert!(
        checkpoint::from_xml(&xml).is_ok(),
        "full checkpoint round-trips"
    );

    for len in 0..bytes.len() {
        let torn = String::from_utf8_lossy(&bytes[..len]);
        // Must return, never panic; a truncated checkpoint is an Err the
        // worker converts into a Failed job with the parse detail.
        let _ = checkpoint::from_xml(&torn);
    }
}

#[test]
fn torn_checkpoint_on_disk_fails_the_job_instead_of_the_service() {
    let workflow = parse::from_str(WF).unwrap();
    let instance = Instance::new(validate(workflow).unwrap());
    let xml = checkpoint::to_xml(&instance);

    // A handful of representative tear points (full sweep is covered by
    // the loader test above; here each point boots a whole service).
    for len in [0, 1, xml.len() / 2, xml.len() - 1] {
        for st in backends(&format!("ckpt-e2e-{len}")) {
            let id = JobId(3);
            recover::write_submission(st.as_ref(), id, &submission()).unwrap();
            st.put(&recover::checkpoint_name(id), &xml.as_bytes()[..len])
                .unwrap();

            let svc = Service::start(ServiceConfig {
                workers: 1,
                queue_capacity: 8,
                storage: Some(st.clone()),
                ..ServiceConfig::default()
            })
            .unwrap();
            assert!(
                svc.wait_all_terminal(std::time::Duration::from_secs(30)),
                "len {len}: recovered job never settled"
            );
            let records = svc.drain();
            let rec = records
                .iter()
                .find(|r| r.id == id)
                .expect("job re-admitted");
            assert!(
                rec.state.is_terminal(),
                "len {len}: expected terminal, got {:?}",
                rec.state
            );
        }
    }
}

#[test]
fn elapsed_ledger_truncated_at_every_byte_boundary_reads_without_panic() {
    let id = JobId(4);
    let name = recover::elapsed_name(id);
    for st in backends("elapsed") {
        let st = st.as_ref();
        recover::write_elapsed(st, id, 123.456).unwrap();
        let full = st.read(&name).unwrap();
        assert!(!full.is_empty());

        for len in 0..full.len() {
            st.put(&name, &full[..len]).unwrap();
            let v = recover::read_elapsed(st, id);
            assert!(
                v.is_finite() && v >= 0.0,
                "len {len}: read_elapsed returned {v}"
            );
        }
    }
}

#[test]
fn quarantine_leftovers_still_burn_their_ids() {
    for st in backends("leftovers") {
        let st = st.as_ref();
        st.put("job-12.meta.quarantined", b"corrupt").unwrap();
        // Not scannable work...
        let scanned = recover::scan(st).unwrap();
        assert!(scanned.jobs.is_empty());
        assert_eq!(scanned.quarantined, 0);
        // ...but its id stays out of circulation.
        assert_eq!(recover::max_job_id(st).unwrap(), 12);
    }
}

// ---------------------------------------------------------------------
// WAL tears
// ---------------------------------------------------------------------

/// Seeds a fresh WAL with `n` submissions (one commit frame each) and
/// returns the raw log bytes after the owning handle is dropped.
fn seed_wal(dir: &Path, n: u64) -> Vec<u8> {
    {
        let st = WalStorage::open(dir).unwrap();
        for i in 1..=n {
            recover::write_submission(&st, JobId(i), &submission()).unwrap();
        }
    }
    std::fs::read(dir.join(WAL_FILE)).unwrap()
}

/// Offsets of every frame boundary in a WAL image, starting at 0 and
/// ending at `bytes.len()` — decoded from the length headers alone.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut offs = vec![0usize];
    let mut off = 0usize;
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 8 + len;
        assert!(off <= bytes.len(), "frame overruns the seeded log");
        offs.push(off);
    }
    assert_eq!(*offs.last().unwrap(), bytes.len(), "trailing garbage");
    offs
}

/// Replayed job ids after planting `image` as the whole log.
fn replay_ids(dir: &Path, image: &[u8]) -> Vec<u64> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join(WAL_FILE), image).unwrap();
    let st = WalStorage::open(dir).unwrap();
    let mut ids: Vec<u64> = recover::scan(&st)
        .unwrap()
        .jobs
        .iter()
        .map(|(id, _)| id.0)
        .collect();
    ids.sort_unstable();
    ids
}

#[test]
fn wal_truncated_at_every_byte_boundary_quarantines_only_the_tail() {
    let seed = tmpdir("wal-seed");
    let full = seed_wal(&seed, 3);
    let bounds = frame_boundaries(&full);
    assert_eq!(bounds.len(), 4, "3 submissions → 3 commit frames");

    let dir = tmpdir("wal-byte");
    for len in 0..full.len() {
        // Every complete frame before the tear survives; the torn tail is
        // moved aside, byte for byte, never dropped silently.
        let valid = *bounds.iter().filter(|&&b| b <= len).max().unwrap();
        let want: Vec<u64> =
            (1..=bounds.iter().filter(|&&b| b > 0 && b <= len).count() as u64).collect();
        let got = replay_ids(&dir, &full[..len]);
        assert_eq!(got, want, "len {len}: wrong survivor set");

        let healed = std::fs::read(dir.join(WAL_FILE)).unwrap();
        assert_eq!(
            healed,
            &full[..valid],
            "len {len}: healed log not the valid prefix"
        );
        let quarantined = std::fs::read(dir.join(WAL_QUARANTINE)).unwrap_or_default();
        assert_eq!(
            quarantined,
            &full[valid..len],
            "len {len}: quarantine is not exactly the torn tail"
        );

        // Ids of replayed records are never recycled: the next id a
        // service would mint is strictly above every survivor.
        let st = WalStorage::open(&dir).unwrap();
        let max = recover::max_job_id(&st).unwrap();
        assert_eq!(max, want.last().copied().unwrap_or(0), "len {len}");
    }
}

#[test]
fn wal_truncated_after_every_record_replays_the_full_prefix() {
    let seed = tmpdir("wal-frames-seed");
    let full = seed_wal(&seed, 5);
    let bounds = frame_boundaries(&full);

    let dir = tmpdir("wal-frames");
    for (k, &b) in bounds.iter().enumerate() {
        let got = replay_ids(&dir, &full[..b]);
        let want: Vec<u64> = (1..=k as u64).collect();
        assert_eq!(got, want, "cut after frame {k}");
        assert!(
            !dir.join(WAL_QUARANTINE).exists(),
            "cut after frame {k}: clean cut must not quarantine"
        );
    }
}

#[test]
fn service_over_torn_wal_recovers_survivors_and_mints_fresh_ids() {
    let dir = tmpdir("wal-service");
    let full = seed_wal(&dir, 2);
    // Tear mid-record: a third submission's frame arrives half-written.
    let mut torn = full.clone();
    torn.extend_from_slice(&[0x17, 0x00, 0x00, 0x00, 0xde, 0xad]);
    std::fs::write(dir.join(WAL_FILE), &torn).unwrap();

    let svc = Service::start(ServiceConfig {
        workers: 1,
        queue_capacity: 8,
        storage: Some(Arc::new(WalStorage::open(&dir).unwrap())),
        ..ServiceConfig::default()
    })
    .unwrap();
    use std::sync::atomic::Ordering;
    assert_eq!(
        svc.metrics().counters.recovered.load(Ordering::Relaxed),
        2,
        "both complete records re-admitted"
    );
    let fresh = svc.submit(submission()).unwrap();
    assert!(fresh.0 > 2, "fresh id {fresh:?} collides with a survivor");
    assert!(svc.wait_all_terminal(std::time::Duration::from_secs(30)));
    for rec in svc.drain() {
        assert!(rec.state.is_terminal(), "{:?}", rec);
    }
}
