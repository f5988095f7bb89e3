//! The ladder: each layer's public functions timed in isolation, on one
//! thread, over the workload's own corpus.  Its per-job costs are what
//! `serve.overhead_us_per_job` and `bench.ladder_coverage` subtract from
//! and divide by; its counts (steps, submissions, events, bytes) repeat
//! exactly for a seed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use grid_wfs::engine::{CheckpointSink, Report, StepOutcome};
use grid_wfs::{checkpoint, SpanOutcome};
use gridwfs_serve::{recover, JobId, MemStorage, Op, Storage, Submission, WalStorage};
use gridwfs_sim::event::EventQueue;
use gridwfs_sim::time::SimTime;
use gridwfs_trace::{to_jsonl, JsonlSink, TraceSink};
use gridwfs_wpdl::parse;
use gridwfs_wpdl::validate::validate;

use crate::oracle;
use crate::util::{median, Rng};
use crate::workload::Workload;

/// Pool entries the ladder walks (the pool's first ones).
const LADDER_JOBS: usize = 448;
/// Operations in the event-queue mix.
const EVENT_OPS: usize = 400_000;

/// The ladder's per-layer metrics by name: each the median of the passes.
#[derive(Debug, Clone)]
pub struct Ladder {
    /// Pool entries walked per pass.
    pub jobs: usize,
    pub values: BTreeMap<&'static str, f64>,
}

impl Ladder {
    fn get(&self, name: &str) -> f64 {
        self.values[name]
    }

    /// What the layers charge one job of `workload`, run one after the
    /// other with nothing in between.
    pub fn per_job_sum_us(&self, workload: Workload) -> f64 {
        self.get("wpdl.parse_us_per_job")
            + self.get("wpdl.validate_us_per_job")
            + self.engine_side_us()
            + self.get("serve.record_encode_us_per_job")
            + if workload.uses_wal() {
                self.get("storage.ladder_apply_us_wal")
            } else {
                self.get("storage.ladder_apply_us_mem")
            }
    }

    /// `core` + `gridsim` (the simulator runs inside `Engine::step`) +
    /// `trace` per job; the journal write is 0 where nothing journals.
    pub fn engine_side_us(&self) -> f64 {
        self.get("core.build_us_per_job")
            + self.get("core.step_us_per_job")
            + self.get("trace.journal_write_us_per_job")
    }
}

/// Walks the ladder `passes` times (a pass over the light chain corpus is
/// tens of milliseconds, too short to time once) and keeps the medians.
pub fn run(workload: Workload, pool: &[Submission], scratch: &Path, passes: usize) -> Ladder {
    let jobs = &pool[..pool.len().min(LADDER_JOBS)];
    let runs: Vec<BTreeMap<&'static str, f64>> = (0..passes.max(1))
        .map(|_| one_pass(workload, jobs, scratch))
        .collect();
    let values = runs[0]
        .keys()
        .map(|&name| {
            let per_pass: Vec<f64> = runs.iter().map(|r| r[name]).collect();
            (name, median(&per_pass))
        })
        .collect();
    Ladder {
        jobs: jobs.len(),
        values,
    }
}

/// µs per call over `n` calls since `began`.
fn per_call_us(n: usize, began: Instant) -> f64 {
    began.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64
}

fn one_pass(
    workload: Workload,
    jobs: &[Submission],
    scratch: &Path,
) -> BTreeMap<&'static str, f64> {
    let n = jobs.len();
    let per_job = |total: usize| total as f64 / n as f64;
    let mut m = BTreeMap::new();

    // ---- wpdl
    m.insert(
        "wpdl.xml_bytes_per_job",
        per_job(jobs.iter().map(|j| j.workflow_xml.len()).sum()),
    );
    let began = Instant::now();
    let workflows: Vec<_> = jobs
        .iter()
        .map(|j| parse::from_str(black_box(&j.workflow_xml)).expect("corpus parses"))
        .collect();
    m.insert("wpdl.parse_us_per_job", per_call_us(n, began));
    let began = Instant::now();
    let validated: Vec<_> = workflows
        .into_iter()
        .map(|w| validate(black_box(w)).expect("corpus validates"))
        .collect();
    m.insert("wpdl.validate_us_per_job", per_call_us(n, began));

    // ---- core: build, then step to completion.  The checkpoint mailbox
    // is the one a service worker installs when the service persists.
    let mailboxes: Vec<Arc<Mutex<Option<String>>>> =
        (0..n).map(|_| Arc::new(Mutex::new(None))).collect();
    let began = Instant::now();
    let mut engines: Vec<_> = jobs
        .iter()
        .zip(validated)
        .zip(&mailboxes)
        .map(|((job, v), cell)| {
            let cell = cell.clone();
            oracle::engine_for(job, v).with_checkpoint_sink(CheckpointSink::new(move |xml| {
                *cell.lock().expect("mailbox lock") = Some(xml);
                Ok(())
            }))
        })
        .collect();
    m.insert("core.build_us_per_job", per_call_us(n, began));
    let mut steps = 0usize;
    let began = Instant::now();
    let reports: Vec<Report> = engines
        .iter_mut()
        .map(|engine| loop {
            steps += 1;
            if let StepOutcome::Finished(report) = engine.step() {
                break *report;
            }
        })
        .collect();
    m.insert("core.step_us_per_job", per_call_us(n, began));
    drop(engines);
    m.insert("core.steps_per_job", per_job(steps));
    m.insert(
        "core.task_submissions_per_job",
        per_job(reports.iter().map(oracle::task_submissions).sum::<u64>() as usize),
    );
    let attempts: usize = reports.iter().map(|r| r.spans.len()).sum();
    let useful = reports
        .iter()
        .flat_map(|r| &r.spans)
        .filter(|s| s.outcome == SpanOutcome::Completed)
        .count();
    m.insert(
        "core.task_success_ratio",
        if attempts == 0 {
            1.0
        } else {
            useful as f64 / attempts as f64
        },
    );

    // ---- core: checkpoint codec over each job's last checkpoint
    let checkpoints: Vec<String> = mailboxes
        .iter()
        .filter_map(|cell| cell.lock().expect("mailbox lock").take())
        .collect();
    let c = checkpoints.len();
    m.insert(
        "core.ckpt_bytes",
        checkpoints.iter().map(String::len).sum::<usize>() as f64 / c.max(1) as f64,
    );
    let began = Instant::now();
    let instances: Vec<_> = checkpoints
        .iter()
        .map(|xml| checkpoint::from_xml(black_box(xml)).expect("checkpoint decodes"))
        .collect();
    m.insert("core.ckpt_decode_us", per_call_us(c, began));
    let began = Instant::now();
    for instance in &instances {
        black_box(checkpoint::to_xml(black_box(instance)));
    }
    m.insert("core.ckpt_encode_us", per_call_us(c, began));

    // ---- gridsim: schedule / cancel / pop mix on the public event queue
    m.insert("gridsim.event_ns_per_op", event_queue_mix());

    // ---- trace: only where the workload journals (0 elsewhere)
    let (mut events, mut bytes, mut encode_us, mut write_us) = (0, 0, 0.0, 0.0);
    if workload.journals() {
        events = reports.iter().map(|r| r.trace.len()).sum();
        let began = Instant::now();
        bytes = reports
            .iter()
            .map(|r| black_box(to_jsonl(black_box(&r.trace))).len())
            .sum();
        encode_us = per_call_us(n, began);
        let dir = scratch.join("ladder-journals");
        std::fs::create_dir_all(&dir).expect("create ladder journal dir");
        let began = Instant::now();
        for (i, r) in reports.iter().enumerate() {
            let sink = JsonlSink::create(dir.join(format!("job-{i}.trace.jsonl")))
                .expect("create ladder journal");
            for e in &r.trace {
                sink.record(e);
            }
            sink.flush();
        }
        write_us = per_call_us(n, began);
        let _ = std::fs::remove_dir_all(&dir);
    }
    m.insert("trace.events_per_job", per_job(events));
    m.insert("trace.bytes_per_job", per_job(bytes));
    m.insert("trace.encode_us_per_job", encode_us);
    m.insert("trace.journal_write_us_per_job", write_us);

    // ---- serve: the admission batch
    let began = Instant::now();
    let batches: Vec<Vec<Op>> = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| recover::write_submission_ops(JobId(i as u64 + 1), black_box(job), None))
        .collect();
    m.insert("serve.record_encode_us_per_job", per_call_us(n, began));
    m.insert(
        "serve.record_bytes_per_job",
        per_job(
            batches
                .iter()
                .flatten()
                .map(|op| match op {
                    Op::Put(name, data) => name.len() + data.len(),
                    other => other.reported_name().len(),
                })
                .sum(),
        ),
    );

    // ---- storage: the same batches applied to each backend
    let apply_all = |st: &dyn Storage, batches: Vec<Vec<Op>>| {
        let began = Instant::now();
        for ops in batches {
            assert!(st.apply(ops).is_empty(), "ladder apply failed");
        }
        per_call_us(n, began)
    };
    m.insert(
        "storage.ladder_apply_us_mem",
        apply_all(&MemStorage::new(), batches.clone()),
    );
    let wal_dir = scratch.join("ladder-wal");
    let _ = std::fs::remove_dir_all(&wal_dir);
    m.insert(
        "storage.ladder_apply_us_wal",
        apply_all(
            &WalStorage::open(&wal_dir).expect("open ladder write-ahead log"),
            batches,
        ),
    );
    let _ = std::fs::remove_dir_all(&wal_dir);
    m
}

/// ns per operation of a fixed seeded mix: half schedules, a tenth
/// cancels, the rest pops, over a queue a few thousand events deep.
fn event_queue_mix() -> f64 {
    let mut rng = Rng::new(0xE7E7);
    let mut queue: EventQueue<u32> = EventQueue::new();
    let mut handles = Vec::new();
    let mut now = 0.0f64;
    let began = Instant::now();
    for i in 0..EVENT_OPS {
        match rng.below(10) {
            0..=4 => {
                handles.push(queue.schedule(SimTime::new(now + rng.range(0.0, 100.0)), i as u32))
            }
            5 if !handles.is_empty() => {
                let h = handles.swap_remove(rng.below(handles.len()));
                black_box(queue.cancel(h));
            }
            _ => {
                if let Some(fired) = queue.pop() {
                    now = fired.time.as_f64();
                    black_box(fired.payload);
                }
            }
        }
    }
    began.elapsed().as_nanos() as f64 / EVENT_OPS as f64
}
