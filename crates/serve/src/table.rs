//! The sharded job table.
//!
//! The service used to keep jobs, submissions, and stop flags in three
//! global `Mutex<HashMap>`s — every submit, cancel, status query, pickup,
//! and settle serialised on one lock.  At M=200 that is invisible; at the
//! 100k-job loadgen scale the jobs lock is the hottest line in the
//! service.  This table shards the maps by `id % SHARDS` with one mutex
//! per shard, so operations on different jobs contend only when they hash
//! to the same shard (1/16th of the time), and full-table snapshots lock
//! one shard at a time instead of stopping the world.
//!
//! Invariant preserved from the single-lock design: a job's record, its
//! submission, and its stop flag live in the *same* shard, so the
//! pickup-time "Queued → Running + register stop flag" transition and the
//! cancel-time "observe Running → find stop flag" lookup are still one
//! critical section each, on the same lock.

use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex, MutexGuard};

use gridwfs_chaos::relock;

use crate::job::{JobRecord, Submission};

/// Shard count.  Power of two so `id % SHARDS` is a mask; 16 is plenty of
/// spread for the worker counts this service runs with while keeping a
/// full-table sweep (16 short lock acquisitions) cheap.
pub(crate) const SHARDS: usize = 16;

/// One shard: the slice of every per-job map whose ids hash here.
#[derive(Default)]
pub(crate) struct Shard {
    /// Job records (the public status surface).
    pub(crate) jobs: HashMap<u64, JobRecord>,
    /// Submissions of queued jobs (what a worker needs to run the job):
    /// pickup and cancel-while-queued take them out.
    pub(crate) subs: HashMap<u64, Submission>,
    /// Stop flags of currently-running engines.
    pub(crate) stops: HashMap<u64, Arc<AtomicBool>>,
}

/// All shards.  Lock discipline: never hold two shard locks at once —
/// every cross-shard operation (snapshots, stop-all) iterates one shard
/// at a time.
pub(crate) struct JobTable {
    pub(crate) shards: Vec<Mutex<Shard>>,
}

impl JobTable {
    pub(crate) fn new() -> Self {
        JobTable {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
        }
    }

    /// Locks the shard owning `id`.  Poison-tolerant: a worker that
    /// panicked mid-update cannot take the status API down with it.
    pub(crate) fn shard(&self, id: u64) -> MutexGuard<'_, Shard> {
        relock(&self.shards[(id as usize) % SHARDS])
    }

    /// Runs `f` under every shard lock in turn (one at a time).
    pub(crate) fn for_each_shard(&self, mut f: impl FnMut(&mut Shard)) {
        for shard in &self.shards {
            f(&mut relock(shard));
        }
    }

    /// Snapshot of every job record, ascending by id.
    pub(crate) fn all_jobs(&self) -> Vec<JobRecord> {
        let mut all = Vec::new();
        self.for_each_shard(|s| all.extend(s.jobs.values().cloned()));
        all.sort_by_key(|r| r.id);
        all
    }

    /// True when every known job is in a terminal state.  Shard-at-a-time:
    /// exact enough for the polling callers (a job settling concurrently
    /// is indistinguishable from it settling a microsecond later).
    pub(crate) fn all_terminal(&self) -> bool {
        self.shards
            .iter()
            .all(|shard| relock(shard).jobs.values().all(|r| r.state.is_terminal()))
    }

    /// Sets every registered stop flag (hard shutdown).
    pub(crate) fn stop_all(&self) {
        self.for_each_shard(|s| {
            for stop in s.stops.values() {
                stop.store(true, std::sync::atomic::Ordering::Relaxed);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobState};

    fn record(id: u64) -> JobRecord {
        JobRecord::new(JobId(id), format!("j{id}"), 0.0, false)
    }

    #[test]
    fn ids_route_to_stable_shards_and_snapshots_sort() {
        let table = JobTable::new();
        // Ids chosen to land in several distinct shards, inserted out of
        // order.
        for id in [33, 2, 17, 48, 5, 16] {
            table.shard(id).jobs.insert(id, record(id));
        }
        // Same id, same shard, every time.
        for id in [33, 2, 17, 48, 5, 16] {
            assert!(table.shard(id).jobs.contains_key(&id));
        }
        let all = table.all_jobs();
        let ids: Vec<u64> = all.iter().map(|r| r.id.0).collect();
        assert_eq!(ids, vec![2, 5, 16, 17, 33, 48]);
    }

    #[test]
    fn all_terminal_scans_every_shard() {
        let table = JobTable::new();
        table.shard(1).jobs.insert(1, record(1));
        table.shard(18).jobs.insert(18, record(18));
        assert!(!table.all_terminal());
        table.shard(1).jobs.get_mut(&1).unwrap().state = JobState::Done;
        assert!(!table.all_terminal(), "job 18 still queued");
        table.shard(18).jobs.get_mut(&18).unwrap().state = JobState::Failed;
        assert!(table.all_terminal());
    }

    #[test]
    fn stop_all_reaches_flags_in_every_shard() {
        use std::sync::atomic::Ordering;
        let table = JobTable::new();
        let a = Arc::new(AtomicBool::new(false));
        let b = Arc::new(AtomicBool::new(false));
        table.shard(3).stops.insert(3, a.clone());
        table.shard(19).stops.insert(19, b.clone());
        table.stop_all();
        assert!(a.load(Ordering::Relaxed));
        assert!(b.load(Ordering::Relaxed));
    }

    #[test]
    fn a_poisoned_shard_recovers() {
        crate::test_support::quiet_expected_panics();
        let table = Arc::new(JobTable::new());
        table.shard(7).jobs.insert(7, record(7));
        let t2 = table.clone();
        let _ = std::thread::spawn(move || {
            let _guard = t2.shard(7);
            panic!("chaos: poison shard 7");
        })
        .join();
        // The shard's data is still served through the recovered lock.
        assert!(table.shard(7).jobs.contains_key(&7));
        assert_eq!(table.all_jobs().len(), 1);
    }
}
