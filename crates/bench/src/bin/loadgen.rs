//! Load generator for the `gridwfs-serve` worker pool (`BENCH_serve.json`).
//!
//! Submits `--m` three-task paced workflows to a service with `--workers`
//! scheduler threads, each multiplexing up to `--inflight` engine
//! instances, behind a `--queue`-deep admission queue, then reports
//! throughput: total wall time vs the serial sum of per-job engine wall
//! times (the concurrency the async core delivers), submit-side
//! backpressure (every `QueueFull` rejection is counted and retried with
//! capped exponential backoff plus seeded jitter, never dropped), and the
//! admission-to-terminal latency distribution.
//!
//! ```text
//! cargo run --release -p gridwfs-bench --bin loadgen -- \
//!     --m 200 --workers 4 --queue 64 --scale 0.005 --json BENCH_serve.json
//! ```
//!
//! `--trace-dir DIR` additionally journals every job's flight record to
//! `DIR/job-<N>.trace.jsonl`.  Combined with `--virtual` (virtual-time
//! simulation instead of paced threads) the journals are byte-identical
//! across `--workers` settings; `--journal-hash` proves it without
//! shipping the journals around — an FNV-1a digest over every journal in
//! job-id order, printed and included in the JSON summary.  Paced
//! journals carry wall-clock engine times, so they are not comparable
//! run to run.
//!
//! Paced mode is what makes the concurrency observable: each task body
//! *sleeps* its scaled nominal duration on a real thread, so overlapping
//! jobs overlap in wall time even on a single-core host.
//!
//! `--chaos SPEC` runs the whole load under a seeded fault-injection plan
//! (see `gridwfs-chaos`), e.g. `--chaos seed=7,panic=0.05,torn=0.1`;
//! `--state-dir DIR` gives the chaos somewhere to bite by persisting every
//! submission, and `--backend wal|memory` picks the storage engine
//! behind it (the WAL's group commit is the durable default).  Under chaos the final accounting relaxes from "all done"
//! to "every admitted job terminal" — injected faults may fail jobs, but
//! must never lose them.
//!
//! `--replicas M` switches to federated fleet mode: M in-process services
//! share one storage backend, each owning its admissions via expiring
//! lease records (`--lease-ttl` seconds).  `--kill N` chaos-kills the
//! last N replicas from the start — their share of the round-robin load
//! is orphaned and the survivors must take it over after the leases
//! lapse.  The run asserts zero lost jobs fleet-wide and reports the
//! admission-to-terminal latency split by path (owner vs takeover).

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gridwfs_serve::json::{json_number, json_string};
use gridwfs_serve::metrics::percentile;
use gridwfs_serve::{
    recover, splitmix64, Backend, FaultPlan, GridSpec, JobState, MemStorage, Service,
    ServiceConfig, Storage, Submission, SubmitError, WalStorage, COMMIT_WINDOW,
};
use gridwfs_wpdl::builder::WorkflowBuilder;

/// First QueueFull retry waits this long (before jitter).
const BACKOFF_BASE_US: u64 = 500;
/// Backoff doubles per retry up to this cap.
const BACKOFF_CAP_US: u64 = 16_000;
/// Retry-count buckets: attempts 1..7 individually, 8+ pooled.
const RETRY_BUCKETS: usize = 8;

#[derive(Debug, Clone)]
struct LoadOptions {
    m: usize,
    workers: usize,
    inflight: usize,
    queue: usize,
    scale: f64,
    seed: u64,
    json: Option<String>,
    trace_dir: Option<std::path::PathBuf>,
    state_dir: Option<std::path::PathBuf>,
    backend: Backend,
    chaos: Option<String>,
    virtual_time: bool,
    journal_hash: bool,
    replicas: usize,
    lease_ttl: f64,
    kill: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            m: 200,
            workers: 4,
            inflight: 1,
            queue: 64,
            scale: 0.005,
            seed: 2003,
            json: None,
            trace_dir: None,
            state_dir: None,
            backend: Backend::default(),
            chaos: None,
            virtual_time: false,
            journal_hash: false,
            replicas: 1,
            lease_ttl: 2.0,
            kill: 0,
        }
    }
}

fn parse_args(args: impl Iterator<Item = String>) -> LoadOptions {
    let mut opts = LoadOptions::default();
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--m" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    opts.m = n;
                }
            }
            "--workers" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    opts.workers = n;
                }
            }
            "--inflight" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    opts.inflight = n;
                }
            }
            "--queue" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    opts.queue = n;
                }
            }
            "--scale" => {
                if let Some(s) = args.next().and_then(|v| v.parse().ok()) {
                    opts.scale = s;
                }
            }
            "--seed" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    opts.seed = n;
                }
            }
            "--json" => opts.json = args.next(),
            "--trace-dir" => opts.trace_dir = args.next().map(std::path::PathBuf::from),
            "--state-dir" => opts.state_dir = args.next().map(std::path::PathBuf::from),
            "--backend" => {
                let name = args.next().expect("--backend needs a value");
                opts.backend = Backend::parse(&name).unwrap_or_else(|e| panic!("{e}"));
            }
            "--chaos" => opts.chaos = args.next(),
            "--virtual" => opts.virtual_time = true,
            "--journal-hash" => opts.journal_hash = true,
            "--replicas" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    opts.replicas = n;
                }
            }
            "--lease-ttl" => {
                if let Some(s) = args.next().and_then(|v| v.parse().ok()) {
                    opts.lease_ttl = s;
                }
            }
            "--kill" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    opts.kill = n;
                }
            }
            _ => {}
        }
    }
    opts
}

/// Sleep before retry `attempt` (0-based) of submission `i`: exponential
/// from [`BACKOFF_BASE_US`] capped at [`BACKOFF_CAP_US`], with
/// deterministic seeded jitter in the upper half ("equal jitter") so a
/// herd of blocked submitters decorrelates instead of thundering back in
/// lockstep — while two runs with the same seed still sleep identically.
fn backoff(seed: u64, i: usize, attempt: u32) -> Duration {
    let exp = BACKOFF_BASE_US.saturating_mul(1 << attempt.min(6));
    let capped = exp.min(BACKOFF_CAP_US);
    let z = splitmix64(seed ^ ((i as u64) << 20) ^ u64::from(attempt));
    let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
    Duration::from_micros(capped / 2 + ((capped / 2) as f64 * frac) as u64)
}

/// FNV-1a digest over every `job-<id>.trace.jsonl` in `dir`, in job-id
/// order with a separator between files: two service runs produced the
/// same journals iff the hashes match.
fn journal_hash(dir: &Path) -> std::io::Result<(u64, usize)> {
    let mut ids: Vec<u64> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_prefix("job-")?
                .strip_suffix(".trace.jsonl")?
                .parse()
                .ok()
        })
        .collect();
    ids.sort_unstable();
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    };
    let count = ids.len();
    for id in ids {
        for b in std::fs::read(dir.join(format!("job-{id}.trace.jsonl")))? {
            eat(b);
        }
        eat(0x1e); // record separator: file boundaries are part of the digest
    }
    Ok((h, count))
}

/// The canonical load unit: a three-task chain, one nominal unit each.
fn chain_xml(i: usize) -> String {
    let mut b = WorkflowBuilder::new(format!("load-{i}")).program("p", 1.0, &["local"]);
    b.activity("stage_in", "p");
    b.activity("compute", "p");
    b.activity("stage_out", "p");
    b.edge("stage_in", "compute")
        .edge("compute", "stage_out")
        .to_xml()
        .expect("load workflow serialises")
}

/// The storage `--state-dir` and `--backend` select; `None` without a
/// state dir.
fn open_storage(opts: &LoadOptions) -> Option<Arc<dyn Storage>> {
    let dir = opts.state_dir.as_ref()?;
    Some(match opts.backend {
        Backend::Wal => Arc::new(WalStorage::open(dir).expect("wal state dir")),
        Backend::Memory => Arc::new(MemStorage::new()),
    })
}

/// `--replicas M`: a federated fleet of M in-process services over one
/// shared storage backend.  The last `--kill` replicas are chaos-killed
/// from the start (their admissions — and epoch-1 leases — land, but no
/// worker ever runs them), so their share of the load is orphaned and
/// the survivors must lease-take it over.  The harness drives the load
/// round-robin across the whole fleet, dead members included, and then
/// watches the *shared* storage until every admitted job has exactly one
/// terminal result record: zero lost jobs, whoever settled them.
fn fleet_main(opts: &LoadOptions) {
    assert!(
        opts.kill < opts.replicas,
        "--kill {} must leave at least one survivor of {}",
        opts.kill,
        opts.replicas
    );
    assert!(opts.lease_ttl > 0.0, "--lease-ttl must be positive");
    let st = open_storage(opts).unwrap_or_else(|| Arc::new(MemStorage::new()));
    // A probability-1 replica-kill plan: the doomed members are chosen by
    // position (the tail of the fleet), not by coin flip, so two runs of
    // the same command line orphan the same jobs.
    let kill_plan =
        FaultPlan::parse(&format!("seed={},replica_kill=1", opts.seed)).expect("kill plan parses");
    let fleet: Vec<Service> = (0..opts.replicas)
        .map(|k| {
            let killed = k >= opts.replicas - opts.kill;
            // A killed replica admits its share but never drains its
            // queue (no workers), so its queue must hold that share —
            // otherwise the round-robin submitter retries QueueFull
            // against it forever.
            let queue_capacity = if killed {
                opts.queue.max(opts.m / opts.replicas + 1)
            } else {
                opts.queue
            };
            Service::start(ServiceConfig {
                workers: opts.workers,
                max_in_flight: opts.inflight,
                queue_capacity,
                trace_dir: opts.trace_dir.clone(),
                storage: Some(st.clone()),
                chaos: killed.then(|| kill_plan.clone()),
                replica_id: Some(format!("r{k}")),
                replica_index: k,
                fleet_size: opts.replicas,
                lease_ttl: Duration::from_secs_f64(opts.lease_ttl),
                ..ServiceConfig::default()
            })
            .expect("replica starts")
        })
        .collect();
    let grid = if opts.virtual_time {
        GridSpec::virtual_grid().with_host("local", 1.0)
    } else {
        GridSpec::paced_grid(opts.scale).with_host("local", 1.0)
    };

    let started = Instant::now();
    let mut rejections = 0u64;
    // (job id, submit instant, orphaned?) per admitted submission.
    let mut admitted: Vec<(u64, Instant, bool)> = Vec::with_capacity(opts.m);
    for i in 0..opts.m {
        let k = i % opts.replicas;
        let sub = Submission {
            name: format!("load-{i}"),
            workflow_xml: chain_xml(i),
            grid: grid.clone(),
            seed: opts.seed + i as u64,
            deadline: None,
        };
        let mut attempt = 0u32;
        loop {
            match fleet[k].submit(sub.clone()) {
                Ok(id) => {
                    admitted.push((id.0, Instant::now(), k >= opts.replicas - opts.kill));
                    break;
                }
                Err(SubmitError::QueueFull) => {
                    rejections += 1;
                    std::thread::sleep(backoff(opts.seed, i, attempt));
                    attempt += 1;
                }
                Err(e) => panic!("submission {i} to r{k}: {e}"),
            }
        }
    }

    // Fleet-wide completion against the shared storage: every admitted
    // job must produce its one terminal record within the hour.
    let mut done_at: HashMap<u64, Instant> = HashMap::with_capacity(admitted.len());
    let deadline = Instant::now() + Duration::from_secs(3600);
    while done_at.len() < admitted.len() {
        for &(id, _, _) in &admitted {
            if !done_at.contains_key(&id)
                && st.exists(&recover::result_name(gridwfs_serve::JobId(id)))
            {
                done_at.insert(id, Instant::now());
            }
        }
        assert!(
            Instant::now() < deadline,
            "fleet lost jobs: {}/{} settled within an hour",
            done_at.len(),
            admitted.len()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let wall = started.elapsed().as_secs_f64();

    let counter = |f: fn(&gridwfs_serve::metrics::Counters) -> u64| -> u64 {
        fleet.iter().map(|s| f(&s.metrics().counters)).sum()
    };
    use std::sync::atomic::Ordering::Relaxed;
    let takeovers = counter(|c| c.takeovers.load(Relaxed));
    let fenced = counter(|c| c.fenced_writes.load(Relaxed));
    let renewed = counter(|c| c.leases_renewed.load(Relaxed));
    let expirations = counter(|c| c.lease_expirations.load(Relaxed));
    for svc in fleet {
        drop(svc.drain());
    }

    let mut done = 0usize;
    for &(id, _, _) in &admitted {
        let result = recover::read_result(st.as_ref(), gridwfs_serve::JobId(id))
            .expect("terminal record readable");
        if matches!(result, Some((JobState::Done, _))) {
            done += 1;
        }
        assert!(
            !st.exists(&recover::lease_name(gridwfs_serve::JobId(id))),
            "job {id}: lease released with its settle"
        );
    }
    let orphans = admitted.iter().filter(|&&(_, _, o)| o).count();
    assert!(
        takeovers >= orphans as u64,
        "every orphaned job must be taken over: {takeovers} takeovers < {orphans} orphans"
    );

    // Admission-to-terminal wall latency, split by path: jobs the killed
    // replicas orphaned (settled via lease takeover, so they eat at least
    // one TTL of detection delay) vs jobs their owner ran to completion.
    let split = |orphaned: bool| -> Vec<f64> {
        let mut v: Vec<f64> = admitted
            .iter()
            .filter(|&&(_, _, o)| o == orphaned)
            .map(|&(id, at, _)| (done_at[&id] - at).as_secs_f64())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let owned_lat = split(false);
    let takeover_lat = split(true);

    let journals = opts
        .trace_dir
        .as_deref()
        .filter(|_| opts.journal_hash)
        .map(|dir| journal_hash(dir).unwrap_or_else(|e| panic!("--journal-hash: {e}")));

    println!(
        "== loadgen fleet: {} jobs round-robin over {} replicas ({} chaos-killed), \
         lease ttl {:.3}s",
        opts.m, opts.replicas, opts.kill, opts.lease_ttl
    );
    println!(
        "   completed: {done}/{} done, {} failed, 0 lost",
        admitted.len(),
        admitted.len() - done
    );
    println!(
        "   leases: {renewed} renewed, {expirations} expired, {takeovers} takeovers \
         ({orphans} orphaned jobs), {fenced} fenced writes"
    );
    println!(
        "   latency (owner path):    p50 {:.3}s  p99 {:.3}s",
        percentile(&owned_lat, 0.50),
        percentile(&owned_lat, 0.99)
    );
    if !takeover_lat.is_empty() {
        println!(
            "   latency (takeover path): p50 {:.3}s  p99 {:.3}s",
            percentile(&takeover_lat, 0.50),
            percentile(&takeover_lat, 0.99)
        );
    }
    if let Some((hash, count)) = journals {
        println!("   journal hash: {hash:016x} over {count} journals");
    }
    println!("   wall time:  {wall:.3}s");

    if let Some(path) = &opts.json {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": {},\n", json_string("loadgen-fleet")));
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"m\": {},\n", opts.m));
        out.push_str(&format!("  \"replicas\": {},\n", opts.replicas));
        out.push_str(&format!("  \"killed\": {},\n", opts.kill));
        out.push_str(&format!(
            "  \"lease_ttl_seconds\": {},\n",
            json_number(opts.lease_ttl)
        ));
        out.push_str(&format!("  \"workers\": {},\n", opts.workers));
        out.push_str(&format!("  \"queue_capacity\": {},\n", opts.queue));
        out.push_str(&format!("  \"seed\": {},\n", opts.seed));
        out.push_str(&format!("  \"virtual\": {},\n", opts.virtual_time));
        out.push_str(&format!(
            "  \"backend\": {},\n",
            json_string(opts.backend.as_str())
        ));
        out.push_str(&format!("  \"admitted\": {},\n", admitted.len()));
        out.push_str(&format!("  \"completed\": {done},\n"));
        out.push_str(&format!("  \"failed\": {},\n", admitted.len() - done));
        out.push_str("  \"lost\": 0,\n");
        out.push_str(&format!("  \"orphaned\": {orphans},\n"));
        out.push_str(&format!("  \"takeovers\": {takeovers},\n"));
        out.push_str(&format!("  \"leases_renewed\": {renewed},\n"));
        out.push_str(&format!("  \"lease_expirations\": {expirations},\n"));
        out.push_str(&format!("  \"fenced_writes\": {fenced},\n"));
        out.push_str(&format!("  \"rejected_retried\": {rejections},\n"));
        out.push_str(&format!(
            "  \"owner_latency_seconds\": {{\"p50\": {}, \"p99\": {}}},\n",
            json_number(percentile(&owned_lat, 0.50)),
            json_number(percentile(&owned_lat, 0.99)),
        ));
        out.push_str(&format!(
            "  \"takeover_latency_seconds\": {{\"p50\": {}, \"p99\": {}}},\n",
            json_number(percentile(&takeover_lat, 0.50)),
            json_number(percentile(&takeover_lat, 0.99)),
        ));
        if let Some((hash, count)) = journals {
            out.push_str(&format!(
                "  \"journal_hash\": {},\n",
                json_string(&format!("{hash:016x}"))
            ));
            out.push_str(&format!("  \"journal_count\": {count},\n"));
        }
        out.push_str(&format!("  \"wall_seconds\": {}\n", json_number(wall)));
        out.push_str("}\n");
        match std::fs::write(path, out) {
            Ok(()) => eprintln!("fleet summary written to {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}

fn main() {
    let opts = parse_args(std::env::args().skip(1));
    assert!(
        opts.m > 0 && opts.workers > 0 && opts.inflight > 0 && opts.queue > 0 && opts.scale > 0.0
    );
    if opts.replicas > 1 {
        assert!(
            opts.chaos.is_none(),
            "fleet mode injects its own replica-kill plan; --chaos is single-service"
        );
        return fleet_main(&opts);
    }
    let chaos = opts
        .chaos
        .as_deref()
        .map(|spec| FaultPlan::parse(spec).unwrap_or_else(|e| panic!("--chaos {spec}: {e}")));
    let service = Service::start(ServiceConfig {
        workers: opts.workers,
        max_in_flight: opts.inflight,
        queue_capacity: opts.queue,
        trace_dir: opts.trace_dir.clone(),
        storage: open_storage(&opts),
        chaos: chaos.clone(),
        ..ServiceConfig::default()
    })
    .expect("service starts");
    let grid = if opts.virtual_time {
        GridSpec::virtual_grid().with_host("local", 1.0)
    } else {
        GridSpec::paced_grid(opts.scale).with_host("local", 1.0)
    };

    let started = Instant::now();
    let mut rejections = 0u64;
    let mut retry_buckets = [0u64; RETRY_BUCKETS];
    let mut faulted_submits = 0u64;
    let mut admitted = 0usize;
    for i in 0..opts.m {
        let sub = Submission {
            name: format!("load-{i}"),
            workflow_xml: chain_xml(i),
            grid: grid.clone(),
            seed: opts.seed + i as u64,
            deadline: None,
        };
        let mut attempt = 0u32;
        loop {
            match service.submit(sub.clone()) {
                Ok(_) => {
                    admitted += 1;
                    break;
                }
                Err(SubmitError::QueueFull) => {
                    rejections += 1;
                    retry_buckets[(attempt as usize).min(RETRY_BUCKETS - 1)] += 1;
                    std::thread::sleep(backoff(opts.seed, i, attempt));
                    attempt += 1;
                }
                // An injected state-dir fault rejects the submission
                // loudly; retrying would hit the same deterministic
                // fault, so the generator counts it and moves on.
                Err(SubmitError::Io(e)) if chaos.is_some() => {
                    faulted_submits += 1;
                    eprintln!("submission {i} rejected by injected fault: {e}");
                    break;
                }
                Err(e) => panic!("submission {i}: {e}"),
            }
        }
    }
    assert!(
        service.wait_all_terminal(Duration::from_secs(3600)),
        "load did not finish"
    );
    let wall = started.elapsed().as_secs_f64();
    if opts.state_dir.is_some() {
        // Records turn terminal before their markers are durable: let the
        // last commit window close so the snapshot covers every job.
        std::thread::sleep(COMMIT_WINDOW * 4);
    }
    let metrics_json = service.metrics_json();
    let summary = service.metrics().latency_summary();
    let commit_lag = service.metrics().commit_lag_summary();
    let counter = |c: &std::sync::atomic::AtomicU64| c.load(std::sync::atomic::Ordering::Relaxed);
    let panicked = counter(&service.metrics().counters.jobs_panicked);
    let state_commits = counter(&service.metrics().counters.state_commits);
    let records_committed = counter(&service.metrics().counters.records_committed);
    let records = service.drain();

    let done = records.iter().filter(|r| r.state == JobState::Done).count();
    let failed = records
        .iter()
        .filter(|r| r.state == JobState::Failed)
        .count();
    let serial: f64 = records.iter().filter_map(|r| r.run_wall).sum();
    let speedup = if wall > 0.0 { serial / wall } else { 0.0 };
    let mut run_walls: Vec<f64> = records.iter().filter_map(|r| r.run_wall).collect();
    run_walls.sort_by(f64::total_cmp);

    let journals = opts
        .trace_dir
        .as_deref()
        .filter(|_| opts.journal_hash)
        .map(|dir| journal_hash(dir).unwrap_or_else(|e| panic!("--journal-hash: {e}")));

    println!(
        "== loadgen: {} jobs on {} workers x {} in flight",
        opts.m, opts.workers, opts.inflight
    );
    println!(
        "   queue capacity: {} (rejected-then-retried submits: {rejections})",
        opts.queue
    );
    if rejections > 0 {
        let buckets: Vec<String> = retry_buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(k, n)| {
                if k + 1 == RETRY_BUCKETS {
                    format!("{}+:{n}", k + 1)
                } else {
                    format!("{}:{n}", k + 1)
                }
            })
            .collect();
        println!("   retries by attempt: {}", buckets.join("  "));
    }
    println!("   completed: {done}/{}", opts.m);
    if let Some((hash, count)) = journals {
        println!("   journal hash: {hash:016x} over {count} journals");
    }
    if let Some(plan) = &chaos {
        println!(
            "   chaos: plan '{plan}' — admitted {admitted}/{} \
             (submit faults {faulted_submits}), failed {failed}, panicked {panicked}",
            opts.m
        );
    }
    println!("   wall time:  {wall:.3}s");
    println!("   serial sum: {serial:.3}s  (speedup {speedup:.2}x)");
    println!(
        "   latency: p50 {:.3}s  p90 {:.3}s  p99 {:.3}s  max {:.3}s",
        summary.p50, summary.p90, summary.p99, summary.max
    );
    if state_commits > 0 {
        println!(
            "   state commits: {state_commits} ({:.2} jobs, {:.1} records each), \
             commit lag p50 {:.4}s  p90 {:.4}s  max {:.4}s",
            (done + failed) as f64 / state_commits as f64,
            records_committed as f64 / state_commits as f64,
            commit_lag.p50,
            commit_lag.p90,
            commit_lag.max
        );
    }
    if let Some(dir) = &opts.trace_dir {
        println!("   per-job trace journals in {}", dir.display());
    }

    if let Some(path) = &opts.json {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": {},\n", json_string("loadgen")));
        out.push_str("  \"schema\": 2,\n");
        out.push_str(&format!("  \"m\": {},\n", opts.m));
        out.push_str(&format!("  \"workers\": {},\n", opts.workers));
        out.push_str(&format!("  \"max_in_flight\": {},\n", opts.inflight));
        out.push_str(&format!("  \"queue_capacity\": {},\n", opts.queue));
        out.push_str(&format!("  \"scale\": {},\n", json_number(opts.scale)));
        out.push_str(&format!("  \"seed\": {},\n", opts.seed));
        out.push_str(&format!("  \"virtual\": {},\n", opts.virtual_time));
        if opts.state_dir.is_some() {
            out.push_str(&format!(
                "  \"backend\": {},\n",
                json_string(opts.backend.as_str())
            ));
        }
        out.push_str(&format!("  \"completed\": {done},\n"));
        out.push_str(&format!("  \"failed\": {failed},\n"));
        out.push_str(&format!("  \"admitted\": {admitted},\n"));
        out.push_str(&format!("  \"submit_faults\": {faulted_submits},\n"));
        out.push_str(&format!("  \"rejected_retried\": {rejections},\n"));
        out.push_str(&format!(
            "  \"retries_by_attempt\": [{}],\n",
            retry_buckets
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        ));
        if let Some((hash, count)) = journals {
            out.push_str(&format!(
                "  \"journal_hash\": {},\n",
                json_string(&format!("{hash:016x}"))
            ));
            out.push_str(&format!("  \"journal_count\": {count},\n"));
        }
        if let Some(plan) = &chaos {
            out.push_str(&format!("  \"chaos\": {},\n", json_string(&plan.to_spec())));
        }
        out.push_str(&format!("  \"wall_seconds\": {},\n", json_number(wall)));
        out.push_str(&format!(
            "  \"serial_sum_seconds\": {},\n",
            json_number(serial)
        ));
        out.push_str(&format!("  \"speedup\": {},\n", json_number(speedup)));
        out.push_str(&format!(
            "  \"run_wall_seconds\": {{\"p50\": {}, \"p90\": {}, \"p99\": {}}},\n",
            json_number(percentile(&run_walls, 0.50)),
            json_number(percentile(&run_walls, 0.90)),
            json_number(percentile(&run_walls, 0.99)),
        ));
        // The service's own registry snapshot, embedded verbatim.
        out.push_str("  \"metrics\": ");
        out.push_str(metrics_json.trim_end());
        out.push_str("\n}\n");
        match std::fs::write(path, out) {
            Ok(()) => eprintln!("load summary written to {path}"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
    if chaos.is_some() {
        // Under injected faults jobs may legitimately fail, but every
        // admitted job must still reach a terminal state — nothing lost.
        assert_eq!(
            done + failed,
            admitted,
            "chaos run lost jobs: {done} done + {failed} failed != {admitted} admitted"
        );
    } else {
        assert_eq!(done, opts.m, "every admitted job must complete");
        assert!(
            wall < serial || opts.workers == 1 || opts.virtual_time,
            "worker pool showed no concurrency: wall {wall:.3}s vs serial {serial:.3}s"
        );
    }
}
