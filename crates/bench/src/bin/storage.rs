//! Storage-backend bench (`BENCH_storage.json`): WAL vs memory under the
//! full service write path.
//!
//! For each (backend, workers) case, drive `--m` three-task virtual-time
//! workflows through a fresh service whose state lives on that backend,
//! and report throughput (jobs/sec over the whole submit-to-drained wall
//! time) and the p99 admission-to-terminal settle latency.  Virtual time
//! keeps the engines nearly free, so the differences between cases are
//! storage costs: one group fsync per commit batch for the WAL, nothing
//! for memory.  The grouping is read from the service's own counters
//! (`state_commits`, `records_committed`, the `commit_lag` histogram),
//! and the binary asserts that a WAL case spends at most 1.5 group
//! commits per admission: one for the admission itself, and a settle
//! commit shared by the jobs of a commit window.
//!
//! ```text
//! cargo run --release -p gridwfs-bench --bin storage -- \
//!     --m 100000 --json BENCH_storage.json
//! ```
//!
//! The state directories are created under `--state-root` (default
//! `.bench-state` in the working directory) and removed afterwards; put
//! it on the filesystem whose durability you are measuring, not tmpfs.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use gridwfs_serve::json::{json_number, json_string};
use gridwfs_serve::{
    Backend, CountersSnapshot, GridSpec, JobState, MemStorage, Service, ServiceConfig, Storage,
    Submission, SubmitError, WalStorage, COMMIT_WINDOW,
};
use gridwfs_wpdl::builder::WorkflowBuilder;

struct Opts {
    m: usize,
    json: Option<String>,
    state_root: PathBuf,
    workers: Vec<usize>,
}

fn parse_args(args: impl Iterator<Item = String>) -> Opts {
    let mut opts = Opts {
        m: 100_000,
        json: None,
        state_root: PathBuf::from(".bench-state"),
        workers: vec![1, 4],
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--m" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    opts.m = n;
                }
            }
            "--json" => opts.json = args.next(),
            "--state-root" => {
                if let Some(p) = args.next() {
                    opts.state_root = PathBuf::from(p);
                }
            }
            "--workers" => {
                if let Some(list) = args.next() {
                    opts.workers = list
                        .split(',')
                        .map(|w| w.parse().expect("--workers takes e.g. 1,4"))
                        .collect();
                }
            }
            _ => {}
        }
    }
    opts
}

fn chain_xml(i: usize) -> String {
    let mut b = WorkflowBuilder::new(format!("st-{i}")).program("p", 1.0, &["local"]);
    b.activity("stage_in", "p");
    b.activity("compute", "p");
    b.activity("stage_out", "p");
    b.edge("stage_in", "compute")
        .edge("compute", "stage_out")
        .to_xml()
        .expect("bench workflow serialises")
}

struct CaseResult {
    backend: Backend,
    workers: usize,
    wall: f64,
    jobs_per_sec: f64,
    p99_settle: f64,
    counters: CountersSnapshot,
    /// `QueueFull` rejections: each cost an admission commit and a rollback.
    rejected: u64,
    /// The scheduler's group commits and the records they carried.
    state_commits: u64,
    records_committed: u64,
    commit_lag_p90: f64,
}

fn run_case(m: usize, backend: Backend, workers: usize, root: &Path) -> CaseResult {
    let dir = root.join(format!("{}-{workers}", backend.as_str()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("state root");
    // Built here (not via ServiceConfig::backend) so the bench keeps a
    // handle to read the counters after the service is gone.
    let storage: std::sync::Arc<dyn Storage> = match backend {
        Backend::Wal => std::sync::Arc::new(WalStorage::open(&dir).expect("wal opens")),
        Backend::Memory => std::sync::Arc::new(MemStorage::new()),
    };
    let service = Service::start(ServiceConfig {
        workers,
        queue_capacity: 1024,
        state_dir: Some(dir.clone()),
        backend,
        storage: Some(storage.clone()),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let grid = GridSpec::virtual_grid().with_host("local", 1.0);

    let started = Instant::now();
    for i in 0..m {
        let sub = Submission {
            name: format!("st-{i}"),
            workflow_xml: chain_xml(i),
            grid: grid.clone(),
            seed: 42 + i as u64,
            deadline: None,
        };
        loop {
            match service.submit(sub.clone()) {
                Ok(_) => break,
                Err(SubmitError::QueueFull) => std::thread::sleep(Duration::from_micros(200)),
                Err(e) => panic!("submission {i}: {e}"),
            }
        }
    }
    assert!(
        service.wait_all_terminal(Duration::from_secs(7200)),
        "{backend:?} x{workers}: load did not finish"
    );
    let wall = started.elapsed().as_secs_f64();
    // Records turn terminal before their markers are durable: give the
    // last window time to commit, so the counters cover every job.
    std::thread::sleep(COMMIT_WINDOW * 4);
    let metrics = service.metrics();
    let p99_settle = metrics.latency_summary().p99;
    let commit_lag_p90 = metrics.commit_lag_summary().p90;
    let count = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let rejected = count(&metrics.counters.rejected);
    let state_commits = count(&metrics.counters.state_commits);
    let records_committed = count(&metrics.counters.records_committed);
    let records = service.drain();
    let done = records.iter().filter(|r| r.state == JobState::Done).count();
    assert_eq!(done, m, "{backend:?} x{workers}: {done}/{m} completed");
    let counters = storage.counters();
    drop(storage);
    let _ = std::fs::remove_dir_all(&dir);
    if backend == Backend::Wal {
        let ceiling = 1.5 * (m as u64 + rejected) as f64;
        assert!(
            counters.group_commits as f64 <= ceiling,
            "wal x{workers}: {} group commits for {m} jobs + {rejected} rejections \
             (ceiling {ceiling}): settlements are not sharing their commits",
            counters.group_commits
        );
    }
    CaseResult {
        backend,
        workers,
        wall,
        jobs_per_sec: m as f64 / wall,
        p99_settle,
        counters,
        rejected,
        state_commits,
        records_committed,
        commit_lag_p90,
    }
}

fn main() {
    let opts = parse_args(std::env::args().skip(1));
    assert!(opts.m > 0 && !opts.workers.is_empty());
    std::fs::create_dir_all(&opts.state_root).expect("state root");

    let mut results = Vec::new();
    for backend in [Backend::Wal, Backend::Memory] {
        for &workers in &opts.workers {
            eprintln!(
                "== storage bench: {} x{workers}, m={}",
                backend.as_str(),
                opts.m
            );
            let r = run_case(opts.m, backend, workers, &opts.state_root);
            eprintln!(
                "   {:>6} x{}: {:>9.1} jobs/s  wall {:.2}s  p99 settle {:.4}s  \
                 (appends {}, commits {}, compactions {}, {} bytes logged)",
                r.backend.as_str(),
                r.workers,
                r.jobs_per_sec,
                r.wall,
                r.p99_settle,
                r.counters.wal_appends,
                r.counters.group_commits,
                r.counters.compactions,
                r.counters.bytes_logged,
            );
            eprintln!(
                "          {:.2} jobs and {:.1} records per state commit ({} commits), \
                 commit lag p90 {:.4}s, {} rejected submits",
                opts.m as f64 / r.state_commits.max(1) as f64,
                r.records_committed as f64 / r.state_commits.max(1) as f64,
                r.state_commits,
                r.commit_lag_p90,
                r.rejected,
            );
            results.push(r);
        }
    }
    let _ = std::fs::remove_dir_all(&opts.state_root);

    println!("== storage backends at m={} ==", opts.m);
    for r in &results {
        println!(
            "{:>6} x{}: {:>9.1} jobs/s, p99 settle {:.4}s",
            r.backend.as_str(),
            r.workers,
            r.jobs_per_sec,
            r.p99_settle
        );
    }

    if let Some(path) = &opts.json {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": {},\n", json_string("storage")));
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"m\": {},\n", opts.m));
        out.push_str("  \"cases\": [\n");
        for (i, r) in results.iter().enumerate() {
            let comma = if i + 1 < results.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{\"backend\": {}, \"workers\": {}, \"wall_seconds\": {}, \
                 \"jobs_per_sec\": {}, \"p99_settle_seconds\": {}, \
                 \"wal_appends\": {}, \"group_commits\": {}, \"compactions\": {}, \
                 \"bytes_logged\": {}, \"rejected\": {}, \"state_commits\": {}, \
                 \"records_committed\": {}, \"commit_lag_p90_seconds\": {}}}{comma}\n",
                json_string(r.backend.as_str()),
                r.workers,
                json_number(r.wall),
                json_number(r.jobs_per_sec),
                json_number(r.p99_settle),
                r.counters.wal_appends,
                r.counters.group_commits,
                r.counters.compactions,
                r.counters.bytes_logged,
                r.rejected,
                r.state_commits,
                r.records_committed,
                json_number(r.commit_lag_p90),
            ));
        }
        out.push_str("  ]\n}\n");
        match std::fs::write(path, out) {
            Ok(()) => eprintln!("storage bench summary written to {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}
