//! In-memory backend: a mutex-guarded map, for tests and bench baselines.

use std::collections::BTreeMap;
use std::io;
use std::sync::Mutex;

use gridwfs_chaos::relock;

use crate::{CountersSnapshot, Op, Storage, StorageCounters};

/// No durability at all: records live in a `BTreeMap` and die with the
/// process.  Shares the [`Storage`] contract (batched apply, ordered
/// deletes/renames, puts last) so chaos and recovery suites can run
/// against it; restart tests share one `Arc<MemStorage>` across service
/// incarnations to stand in for the surviving disk.
#[derive(Debug, Default)]
pub struct MemStorage {
    table: Mutex<BTreeMap<String, Vec<u8>>>,
    counters: StorageCounters,
}

impl MemStorage {
    pub fn new() -> Self {
        MemStorage::default()
    }
}

impl Storage for MemStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        relock(&self.table)
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no record {name}")))
    }

    fn exists(&self, name: &str) -> bool {
        relock(&self.table).contains_key(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(relock(&self.table).keys().cloned().collect())
    }

    fn apply(&self, ops: Vec<Op>) -> Vec<(String, io::Error)> {
        if ops.is_empty() {
            return Vec::new();
        }
        let mut errors = Vec::new();
        let mut table = relock(&self.table);
        // Preconditions first, under the same lock as the commit: a
        // failed check rejects the batch before anything mutates.
        let checks = crate::eval_checks(&ops, |name| Ok(table.get(name).cloned()));
        if !checks.is_empty() {
            return checks;
        }
        // Deletes and renames in order first, puts last — the shared
        // ordering contract (see the crate docs).
        let mut puts = Vec::new();
        for op in ops {
            match op {
                Op::Check(..) | Op::CheckAbsent(..) => {}
                Op::Put(name, data) => puts.push((name, data)),
                Op::Del(name) => {
                    table.remove(&name);
                }
                Op::Rename(from, to) => match table.remove(&from) {
                    Some(v) => {
                        table.insert(to, v);
                    }
                    None => errors.push((
                        to,
                        io::Error::new(io::ErrorKind::NotFound, format!("no record {from}")),
                    )),
                },
            }
        }
        for (name, data) in puts {
            table.insert(name, data);
        }
        self.counters.add(&self.counters.group_commits, 1);
        errors
    }

    fn counters(&self) -> CountersSnapshot {
        self.counters.snapshot()
    }

    fn compact(&self) -> io::Result<()> {
        Ok(())
    }

    fn backend_name(&self) -> &'static str {
        "memory"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_of_missing_record_reports_not_found() {
        let st = MemStorage::new();
        let err = st
            .rename("job-1.meta", "job-1.meta.quarantined")
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn counters_track_group_commits_only() {
        let st = MemStorage::new();
        st.put("a", b"1").unwrap();
        st.put("b", b"2").unwrap();
        let c = st.counters();
        assert_eq!(c.group_commits, 2);
        assert_eq!(c.wal_appends, 0);
        assert_eq!(c.bytes_logged, 0);
    }
}
