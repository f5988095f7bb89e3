//! The cost ledger: what one engine run of each shipped workflow costs, in
//! counts that do not depend on the machine.
//!
//! Every shipped workflow runs on every shipped grid at seed 11, under the
//! default configuration and under `--scheduler resilient --breaker 2`.  Each
//! engine is built the way `gridwfs run` builds it (the `--grid` spec, its
//! simulated Grid, its engine configuration plus the breaker) and driven with
//! [`Engine::step`] until it finishes.  Each row pins, exactly: the steps
//! taken, the `task_submit` events, the journal's events and bytes, and the
//! heap allocations made from parsing the workflow to the finished report
//! (calls, bytes requested, peak live bytes).
//!
//! The allocation columns are taken under the Tier-1 profile (`cargo test
//! -q`, a debug build).  An optimised build allocates differently, so under
//! it only the first four columns are compared.  A change that moves a
//! number updates its literal and names the move in its description; after
//! an intended change, replace the table with the one the failure prints.

use gridwfs::core::{BreakerConfig, Engine, StepOutcome};
use gridwfs::serve::{GridSpec, SchedulerSpec};
use gridwfs::wpdl::{from_str, validate};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

/// The system allocator, counting what the calling thread asks of it.
/// Counters are per thread because the test harness runs tests on parallel
/// threads; only the thread that reads them is measured.
struct Counting;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Records one allocation of `size` bytes (`freed` bytes released by it).
fn record(size: usize, freed: usize) {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
    release(freed as i64 - size as i64);
}

/// Moves live bytes down by `bytes` (up when negative) and raises the peak.
fn release(bytes: i64) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() - bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, so the
// caller's guarantees are the ones `System` needs; the counting touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        release(layout.size() as i64);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// This thread's allocation calls, bytes and peak live bytes since the last
/// call; live bytes start again from zero.
fn take_allocs() -> (u64, u64, i64) {
    let taken = (CALLS.get(), BYTES.get(), PEAK.get());
    CALLS.set(0);
    BYTES.set(0);
    LIVE.set(0);
    PEAK.set(0);
    taken
}

fn workflows_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("workflows")
}

/// One row's counts, in the order the table prints them.
fn ledger_row(xml: &str, spec: &GridSpec, breaker: Option<u32>) -> [u64; 7] {
    take_allocs();
    let workflow = validate(from_str(xml).expect("parses")).expect("validates");
    let mut config = spec.engine_config();
    config.breaker = breaker.map(|threshold| BreakerConfig {
        threshold,
        ..BreakerConfig::default()
    });
    let mut engine = Engine::new(workflow, spec.build_sim(11)).with_config(config);
    let mut steps = 0;
    let report = loop {
        steps += 1;
        if let StepOutcome::Finished(report) = engine.step() {
            break report;
        }
    };
    drop(engine);
    let (calls, bytes, peak) = take_allocs();
    let submits = report
        .trace
        .iter()
        .filter(|e| e.kind.tag() == "task_submit")
        .count();
    [
        steps,
        submits as u64,
        report.trace.len() as u64,
        report.trace_jsonl().len() as u64,
        calls,
        bytes,
        peak as u64,
    ]
}

/// `workflow grid mode` then steps, submits, events, journal bytes,
/// allocation calls, allocated bytes and peak live bytes.
const LEDGER: &str = "\
figure2_retry.xml grid.example.json default 33 1 4 369 261 27102 14058
figure2_retry.xml grid.example.json resilient+breaker2 33 1 6 600 287 30693 16665
figure2_retry.xml grid.flaky.json default 6 3 11 1093 223 18309 10521
figure2_retry.xml grid.flaky.json resilient+breaker2 6 3 16 1542 237 20780 12896
figure2_retry.xml grid.lossy.json default 52 1 4 367 319 62588 11970
figure2_retry.xml grid.lossy.json resilient+breaker2 52 1 5 495 337 65592 13133
figure3_replica.xml grid.example.json default 75 3 8 889 431 56637 28266
figure3_replica.xml grid.example.json resilient+breaker2 75 3 13 1500 470 62058 31661
figure3_replica.xml grid.flaky.json default 4 3 9 908 210 18078 9943
figure3_replica.xml grid.flaky.json resilient+breaker2 4 3 12 1296 228 20815 12264
figure3_replica.xml grid.lossy.json default 53 3 12 1135 378 67957 14100
figure3_replica.xml grid.lossy.json resilient+breaker2 53 3 15 1523 434 72203 16421
figure4_alternative.xml grid.example.json default 169 2 14 1266 675 108588 51170
figure4_alternative.xml grid.example.json resilient+breaker2 169 2 16 1513 701 111378 53291
figure4_alternative.xml grid.flaky.json default 3 2 12 1022 282 25820 11611
figure4_alternative.xml grid.flaky.json resilient+breaker2 3 2 14 1291 293 28084 13683
figure4_alternative.xml grid.lossy.json default 6 2 14 1226 583 106032 48623
figure4_alternative.xml grid.lossy.json resilient+breaker2 6 2 16 1497 594 108296 50695
figure5_redundancy.xml grid.example.json default 169 2 15 1274 705 110392 51258
figure5_redundancy.xml grid.example.json resilient+breaker2 169 2 17 1517 732 116510 53379
figure5_redundancy.xml grid.flaky.json default 3 2 13 1090 314 27639 12244
figure5_redundancy.xml grid.flaky.json resilient+breaker2 3 2 15 1359 325 29903 14316
figure5_redundancy.xml grid.lossy.json default 5 2 15 1243 612 106667 49256
figure5_redundancy.xml grid.lossy.json resilient+breaker2 5 2 17 1512 624 112259 52992
figure6_exception.xml grid.example.json default 17 1 9 760 346 34584 15979
figure6_exception.xml grid.example.json resilient+breaker2 17 1 10 870 367 37001 18236
figure6_exception.xml grid.flaky.json default 2 1 7 582 268 23578 10545
figure6_exception.xml grid.flaky.json resilient+breaker2 2 1 8 718 274 25469 12340
figure6_exception.xml grid.lossy.json default 3 1 7 592 275 25340 10451
figure6_exception.xml grid.lossy.json resilient+breaker2 3 1 8 728 281 27231 12246
mapreduce.xml grid.example.json default 21 17 56 5809 821 66288 31692
mapreduce.xml grid.example.json resilient+breaker2 21 17 79 7403 891 85045 43633
mapreduce.xml grid.flaky.json default 87 14 46 4331 910 64459 27983
mapreduce.xml grid.flaky.json resilient+breaker2 87 14 60 5893 954 67950 31474
mapreduce.xml grid.lossy.json default 31 17 62 6402 876 89511 31348
mapreduce.xml grid.lossy.json resilient+breaker2 31 17 95 8860 966 109314 44081
pipeline.xml grid.example.json default 294 11 57 5817 1839 184189 66048
pipeline.xml grid.example.json resilient+breaker2 313 10 55 6124 1823 180444 67718
pipeline.xml grid.flaky.json default 6 3 17 1466 689 59765 28606
pipeline.xml grid.flaky.json resilient+breaker2 6 3 22 1915 703 62262 28606
pipeline.xml grid.lossy.json default 8 3 19 1654 707 63995 28606
pipeline.xml grid.lossy.json resilient+breaker2 8 3 24 2129 721 66492 28606
recovery_demo.xml grid.example.json default 260 7 26 2864 1247 108836 37579
recovery_demo.xml grid.example.json resilient+breaker2 260 7 32 3723 1294 113196 41168
recovery_demo.xml grid.flaky.json default 10 5 21 2014 533 44773 18793
recovery_demo.xml grid.flaky.json resilient+breaker2 10 5 30 2777 555 47888 21812
recovery_demo.xml grid.lossy.json default 63 4 18 1641 785 112937 27952
recovery_demo.xml grid.lossy.json resilient+breaker2 63 4 22 2168 828 116670 30441
";

#[test]
fn shipped_runs_cost_what_the_ledger_says() {
    use std::fmt::Write;
    let mut workflows: Vec<PathBuf> = std::fs::read_dir(workflows_dir())
        .expect("workflows dir ships with the repo")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("xml"))
        .collect();
    workflows.sort();
    let mut got = String::new();
    for wf in &workflows {
        let xml = std::fs::read_to_string(wf).unwrap();
        let wf_name = wf.file_name().unwrap().to_str().unwrap();
        for grid in ["grid.example.json", "grid.flaky.json", "grid.lossy.json"] {
            let text = std::fs::read_to_string(workflows_dir().join(grid)).unwrap();
            let (mut spec, _) = GridSpec::from_json(&text).unwrap();
            for (mode, breaker) in [("default", None), ("resilient+breaker2", Some(2))] {
                if breaker.is_some() {
                    spec.scheduler = Some(SchedulerSpec::parse("resilient").unwrap());
                }
                let row = ledger_row(&xml, &spec, breaker);
                let _ = write!(got, "{wf_name} {grid} {mode}");
                for n in row {
                    let _ = write!(got, " {n}");
                }
                got.push('\n');
            }
        }
    }
    // `workflow grid mode` plus the columns this build profile pins.
    let pinned = if cfg!(debug_assertions) { 10 } else { 7 };
    let cut = |row: &str| row.split(' ').take(pinned).collect::<Vec<_>>().join(" ");
    let changed: Vec<String> = got
        .lines()
        .zip(LEDGER.lines().chain(std::iter::repeat("")))
        .filter(|(g, w)| cut(g) != cut(w))
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        changed.is_empty() && got.lines().count() == LEDGER.lines().count(),
        "{} row(s) changed:\n{}\nfull table:\n{got}",
        changed.len(),
        changed.join("\n")
    );
}
