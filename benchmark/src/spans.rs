//! The traced run's span recorder and the timing decorator around the
//! service's storage.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer (spans inside the program are a later change): the
//! generator wraps `Service::start` / `submit` / `drain`, and
//! [`TimedStorage`] wraps every `Storage` call the service makes.  A
//! storage call made while the same thread is inside `submit` names that
//! span as its parent, which is what makes `submit`'s self time
//! computable.  Spans stay in memory until the run ends.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gridwfs_storage::{CountersSnapshot, Op, Storage};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// 0 = no enclosing span on this thread.
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Job id the span belongs to; 0 for spans that serve many jobs (a
    /// group commit) or none.
    pub job: u64,
    /// Ops in the batch for `storage.apply`; 0 elsewhere.
    pub ops: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// Innermost open span on this thread.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl SpanLog {
    pub fn new() -> Arc<SpanLog> {
        Arc::new(SpanLog {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Runs `f` inside a span.  `tag` turns the result into the span's
    /// `(job, ops)` once it is known (a job id exists only after
    /// `submit` returns it).
    pub fn record<T>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> T,
        tag: impl FnOnce(&T) -> (u64, u64),
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = CURRENT.with(|c| c.replace(id));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(parent));
        let (job, ops) = tag(&out);
        self.spans
            .lock()
            .expect("span log lock: a recording thread panicked")
            .push(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns,
                job,
                ops,
            });
        out
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log lock: a recording thread panicked")
            .clone()
    }
}

/// Writes `spans` one JSON object per line: `{name, start_ns, end_ns,
/// parent, job}` plus the span's own `id` and the batch size `ops`.
pub fn write_jsonl(spans: &[Span], path: &Path) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"job\":{},\"ops\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.job, s.ops
        )?;
    }
    out.flush()
}

/// Durations in µs of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// Self time in µs of every span called `name`: its duration minus the
/// part its direct children cover.
pub fn self_times_us(spans: &[Span], name: &str) -> Vec<f64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            s.duration_ns().saturating_sub(children) as f64 / 1e3
        })
        .collect()
}

/// Times every call the service makes into its storage backend.
pub struct TimedStorage {
    inner: Arc<dyn Storage>,
    log: Arc<SpanLog>,
    apply_errors: AtomicU64,
}

impl TimedStorage {
    pub fn new(inner: Arc<dyn Storage>, log: Arc<SpanLog>) -> TimedStorage {
        TimedStorage {
            inner,
            log,
            apply_errors: AtomicU64::new(0),
        }
    }

    pub fn apply_errors(&self) -> u64 {
        self.apply_errors.load(Ordering::Relaxed)
    }
}

impl Storage for TimedStorage {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        self.log
            .record("storage.read", || self.inner.read(name), |_| (0, 0))
    }

    fn exists(&self, name: &str) -> bool {
        self.log
            .record("storage.exists", || self.inner.exists(name), |_| (0, 0))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.log
            .record("storage.list", || self.inner.list(), |_| (0, 0))
    }

    fn apply(&self, ops: Vec<Op>) -> Vec<(String, io::Error)> {
        let n = ops.len() as u64;
        let errors = self
            .log
            .record("storage.apply", || self.inner.apply(ops), |_| (0, n));
        self.apply_errors
            .fetch_add(errors.len() as u64, Ordering::Relaxed);
        errors
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

#[cfg(test)]
mod tests {
    use super::*;
    use gridwfs_storage::MemStorage;

    #[test]
    fn nested_storage_call_is_a_child_and_self_time_excludes_it() {
        let log = SpanLog::new();
        let st = TimedStorage::new(Arc::new(MemStorage::new()), log.clone());
        log.record(
            "serve.submit",
            || {
                assert!(st
                    .apply(vec![Op::Put("a".into(), vec![1]), Op::Del("b".into())])
                    .is_empty());
                std::thread::sleep(std::time::Duration::from_millis(2));
            },
            |()| (7, 0),
        );
        assert!(st.exists("a"));
        let spans = log.snapshot();
        let apply = spans.iter().find(|s| s.name == "storage.apply").unwrap();
        let submit = spans.iter().find(|s| s.name == "serve.submit").unwrap();
        let exists = spans.iter().find(|s| s.name == "storage.exists").unwrap();
        assert_eq!(apply.parent, submit.id);
        assert_eq!(apply.ops, 2);
        assert_eq!((submit.parent, submit.job), (0, 7));
        assert_eq!(exists.parent, 0, "outside submit: a root span");
        let total = durations_us(&spans, "serve.submit")[0];
        let own = self_times_us(&spans, "serve.submit")[0];
        assert!(own <= total && own >= 2000.0);
        assert_eq!(st.apply_errors(), 0);
    }
}
