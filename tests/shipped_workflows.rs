//! The shipped `workflows/` directory must stay runnable: every document
//! validates, every figure workflow executes to the documented outcome on
//! the example Grid, and the CLI drives all of it.

use gridwfs::cli::{cmd_dot, cmd_run, cmd_validate, RunOptions};
use gridwfs::core::LogKind;
use gridwfs::serve::{DetectorSpec, GridSpec, LinkSpec, ProfileSpec};
use std::path::{Path, PathBuf};

fn workflows_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("workflows")
}

fn all_xml() -> Vec<PathBuf> {
    let mut v: Vec<PathBuf> = std::fs::read_dir(workflows_dir())
        .expect("workflows dir ships with the repo")
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().and_then(|e| e.to_str()) == Some("xml")).then_some(p)
        })
        .collect();
    v.sort();
    v
}

#[test]
fn every_shipped_workflow_validates() {
    let files = all_xml();
    assert_eq!(
        files.len(),
        8,
        "figure2-6, the pipeline, the recovery demo, and the mapreduce fan-out"
    );
    for f in files {
        let out = cmd_validate(&f).unwrap_or_else(|e| panic!("{}: {e}", f.display()));
        assert!(out.contains("is valid"), "{}: {out}", f.display());
    }
}

#[test]
fn every_shipped_workflow_exports_dot() {
    for f in all_xml() {
        let dot = cmd_dot(&f).unwrap();
        assert!(dot.starts_with("digraph"), "{}", f.display());
    }
}

fn shipped_grid(name: &str) -> (GridSpec, u64) {
    let text = std::fs::read_to_string(workflows_dir().join(name)).unwrap();
    GridSpec::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

fn profile(
    program: &str,
    checkpoint_period: Option<f64>,
    soft_crash_mttf: Option<f64>,
    exception: Option<(&str, u32, f64)>,
) -> ProfileSpec {
    ProfileSpec {
        program: program.into(),
        checkpoint_period,
        soft_crash_mttf,
        exception: exception.map(|(name, checks, prob)| (name.into(), checks, prob)),
    }
}

/// Each shipped grid file parses to the spec it declares, and the Grid a
/// serve job stores for it is this pinned `--grid` document, which
/// [`GridSpec::from_json`] reads back to the same spec.
#[test]
fn shipped_grids_parse_to_pinned_specs_and_manifests() {
    let example = GridSpec::virtual_grid()
        .with_link(0.05, 0.0)
        .with_host("ingest.example.org", 1.0)
        .with_unreliable_host("bigmem.example.org", 2.0, 200.0, 10.0)
        .with_unreliable_host("cluster.example.org", 1.0, 500.0, 5.0)
        .with_unreliable_host("vol1.example.org", 1.5, 40.0, 60.0)
        .with_unreliable_host("vol2.example.org", 1.2, 60.0, 30.0)
        .with_unreliable_host("vol3.example.org", 0.8, 90.0, 20.0)
        .with_unreliable_host("volunteer.example.org", 1.0, 20.0, 5.0)
        .with_host("condor.example.org", 1.0)
        .with_unreliable_host("bolas.isi.edu", 1.0, 40.0, 2.0)
        .with_unreliable_host("vanuatu.isi.edu", 1.0, 60.0, 4.0)
        .with_host("jupiter.isi.edu", 1.3)
        .with_profile(profile("fast_impl", None, Some(25.0), None))
        .with_profile(profile("solver_disk", Some(10.0), None, None))
        .with_profile(profile(
            "solver_mem",
            None,
            None,
            Some(("out_of_memory", 3, 0.5)),
        ));
    let flaky = GridSpec::virtual_grid()
        .with_host("h1", 1.0)
        .with_profile(profile("mapper", None, None, Some(("bad_shard", 1, 0.45))));
    let lossy = GridSpec::virtual_grid()
        .with_link_spec(LinkSpec {
            delay: 0.05,
            drop_p: 0.15,
            jitter: 0.4,
            dup_p: 0.05,
        })
        .with_host_link(
            "bolas.isi.edu",
            LinkSpec {
                delay: 0.3,
                drop_p: 0.25,
                jitter: 0.8,
                dup_p: 0.05,
            },
        )
        .with_detector(DetectorSpec::Phi { threshold: 6.0 })
        .with_host("bolas.isi.edu", 1.0)
        .with_host("condor.example.org", 1.0);
    let stored = [
        (
            "grid.example.json",
            example,
            concat!(
                r#"{"hosts":[{"hostname":"ingest.example.org"},"#,
                r#"{"hostname":"bigmem.example.org","speed":2,"mttf":200,"downtime":10},"#,
                r#"{"hostname":"cluster.example.org","mttf":500,"downtime":5},"#,
                r#"{"hostname":"vol1.example.org","speed":1.5,"mttf":40,"downtime":60},"#,
                r#"{"hostname":"vol2.example.org","speed":1.2,"mttf":60,"downtime":30},"#,
                r#"{"hostname":"vol3.example.org","speed":0.8,"mttf":90,"downtime":20},"#,
                r#"{"hostname":"volunteer.example.org","mttf":20,"downtime":5},"#,
                r#"{"hostname":"condor.example.org"},"#,
                r#"{"hostname":"bolas.isi.edu","mttf":40,"downtime":2},"#,
                r#"{"hostname":"vanuatu.isi.edu","mttf":60,"downtime":4},"#,
                r#"{"hostname":"jupiter.isi.edu","speed":1.3}],"#,
                r#""link":{"delay":0.05},"#,
                r#""profiles":{"fast_impl":{"soft_crash_mttf":25},"#,
                r#""solver_disk":{"checkpoint_period":10},"#,
                r#""solver_mem":{"exception":{"name":"out_of_memory","checks":3,"prob":0.5}}}}"#,
            ),
        ),
        (
            "grid.flaky.json",
            flaky,
            concat!(
                r#"{"hosts":[{"hostname":"h1"}],"#,
                r#""profiles":{"mapper":{"exception":{"name":"bad_shard","checks":1,"prob":0.45}}}}"#,
            ),
        ),
        (
            "grid.lossy.json",
            lossy,
            concat!(
                r#"{"hosts":[{"hostname":"bolas.isi.edu"},{"hostname":"condor.example.org"}],"#,
                r#""link":{"delay":0.05,"drop_p":0.15,"jitter":0.4,"dup_p":0.05},"#,
                r#""host_links":{"bolas.isi.edu":{"delay":0.3,"drop_p":0.25,"jitter":0.8,"dup_p":0.05}},"#,
                r#""detector":"phi:6"}"#,
            ),
        ),
    ];
    for (name, want, json) in stored {
        let (spec, seed) = shipped_grid(name);
        assert_eq!(seed, 2003, "{name}");
        assert_eq!(spec, want, "{name}");
        assert_eq!(spec.to_json(), json, "{name}");
        assert_eq!(GridSpec::from_json(json), Ok((want, 2003)), "{name}");
    }
    // Only the lossy grid jitters, so only it buffers notifications, for
    // its slowest link's delay + jitter bound.
    assert_eq!(
        shipped_grid("grid.example.json")
            .0
            .engine_config()
            .reorder_settle,
        None
    );
    assert_eq!(
        shipped_grid("grid.lossy.json")
            .0
            .engine_config()
            .reorder_settle,
        Some(0.3 + 0.8)
    );
}

fn run_shipped(workflow: &str, seed: u64) -> gridwfs::core::Report {
    let opts = RunOptions {
        workflow: Some(workflows_dir().join(workflow)),
        grid: Some(workflows_dir().join("grid.example.json")),
        seed: Some(seed),
        ..RunOptions::default()
    };
    cmd_run(&opts).expect("setup succeeds").0
}

#[test]
fn figure2_retry_runs_on_the_example_grid() {
    // bolas.isi.edu has MTTF 40 against a 30-unit task: most seeds need at
    // least one run; the retry budget makes the workflow robust.
    let successes = (0..10)
        .filter(|&s| run_shipped("figure2_retry.xml", s).is_success())
        .count();
    assert!(
        successes >= 6,
        "retry x3 succeeds usually, got {successes}/10"
    );
}

#[test]
fn figure3_replication_submits_three() {
    let report = run_shipped("figure3_replica.xml", 1);
    assert_eq!(report.submissions_of("summation"), 3);
    assert!(report.is_success());
}

#[test]
fn figure4_and_figure5_complete_despite_crashy_fast_host() {
    // volunteer.example.org (MTTF 20) hosts a 30-unit fast task backed by
    // a reliable slow alternative: both strategies must always complete
    // when the fast task's failure mode is a *host* crash.
    for wf in ["figure4_alternative.xml", "figure5_redundancy.xml"] {
        for seed in 0..5 {
            let report = run_shipped(wf, seed);
            assert!(
                report.is_success(),
                "{wf} seed {seed}: {:?}",
                report.outcome
            );
        }
    }
}

#[test]
fn figure6_handles_injected_disk_full() {
    // The example grid subjects fast_impl to soft crashes AND host crashes
    // (neither is disk_full), which figure 6 deliberately does NOT handle —
    // most seeds fail, demonstrating the strategy's selectivity; the seeds
    // where the fast task survives to completion succeed (seed 10 is one,
    // verified by sweep; everything is seed-deterministic).
    let outcomes: Vec<bool> = (0..20)
        .map(|s| run_shipped("figure6_exception.xml", s).is_success())
        .collect();
    assert!(outcomes[10], "seed 10 completes");
    assert!(
        !outcomes.iter().all(|&b| b),
        "crash seeds are unhandled by design"
    );
}

#[test]
fn pipeline_exercises_every_construct() {
    // The pipeline must be able to succeed, and when it does the loop ran
    // refine exactly 3 times and the cleanup stage always ran.
    let mut succeeded = false;
    for seed in 0..20 {
        let report = run_shipped("pipeline.xml", seed);
        // The always-edge means cleanup runs whenever render settled at all.
        if let Some(render_status) = report.status_of("render") {
            if render_status != "skipped" && render_status != "pending" {
                assert_eq!(report.status_of("cleanup"), Some("done"), "seed {seed}");
            }
        }
        if report.is_success() {
            succeeded = true;
            assert_eq!(report.submissions_of("refine"), 3, "do-while ran thrice");
            // The solver path went through exactly one of the two solvers.
            let fast = report.status_of("solve_fast").unwrap();
            assert!(
                fast == "done" || fast.starts_with("exception:out_of_memory"),
                "seed {seed}: {fast}"
            );
            break;
        }
    }
    assert!(succeeded, "no seed in 0..20 completed the pipeline");
}

/// Pins the documented seed-2003 outcome (EXPERIMENTS.md and CI's
/// dlq-smoke job both assert it): seven shards settle, shard-06 burns
/// both attempts on `bad_shard` and parks in the dead-letter queue.
#[test]
fn mapreduce_parks_shard_06_at_the_documented_seed() {
    let opts = RunOptions {
        workflow: Some(workflows_dir().join("mapreduce.xml")),
        grid: Some(workflows_dir().join("grid.flaky.json")),
        seed: Some(2003),
        ..RunOptions::default()
    };
    let (report, _) = cmd_run(&opts).expect("setup succeeds");
    assert!(report.is_success(), "{:?}", report.outcome);
    assert_eq!(report.dlq.len(), 1, "exactly one shard parks");
    let entry = &report.dlq[0];
    assert_eq!(entry.activity, "map");
    assert_eq!(entry.item, "shard-06");
    assert_eq!(entry.index, 6);
    assert_eq!(entry.attempts, 2);
    assert_eq!(entry.reason, "exception:bad_shard");
}

/// FNV-1a (64-bit) — the digest `loadgen --journal-hash` uses.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `workflow grid seed` then the journal digest under each engine
/// configuration: default, `--scheduler resilient --breaker 2`,
/// `--detector phi:4`.
const JOURNAL_PINS: &str = "\
figure2_retry.xml grid.example.json 11 cc0835ed03d24be7 7617917e757348ae cc0835ed03d24be7
figure2_retry.xml grid.example.json 37 1c3ad3df8061d705 cdadf47f48f23e56 0ab4d1503ce5195b
figure2_retry.xml grid.example.json 2003 89a70a2aa277d501 fa31f9bbd4f092a5 fe07e70b315b8526
figure2_retry.xml grid.flaky.json 11 5f0977a5a88f87e7 670e6929d5f8d094 5f0977a5a88f87e7
figure2_retry.xml grid.flaky.json 37 5f0977a5a88f87e7 670e6929d5f8d094 5f0977a5a88f87e7
figure2_retry.xml grid.flaky.json 2003 5f0977a5a88f87e7 670e6929d5f8d094 5f0977a5a88f87e7
figure2_retry.xml grid.lossy.json 11 ee3556ddc261de69 7a6aca0fb735e7b7 ee3556ddc261de69
figure2_retry.xml grid.lossy.json 37 9187196f25447766 eec209b9b2d221b8 9187196f25447766
figure2_retry.xml grid.lossy.json 2003 276c2eee67804cc2 aeb1dde19d86ad84 fbb1c5dae260a138
figure3_replica.xml grid.example.json 11 38610fbbf4af0f63 b49ba3fc36be9c3e 38610fbbf4af0f63
figure3_replica.xml grid.example.json 37 29ac15843b28a1d6 8b2266b25651c35d 4dc33edac649e902
figure3_replica.xml grid.example.json 2003 66a155bcbb8b9a20 5f7d16f35c559193 119fc6f98281fd3c
figure3_replica.xml grid.flaky.json 11 1c3ac3bec67aaba3 b20690ae2dbb03f9 1c3ac3bec67aaba3
figure3_replica.xml grid.flaky.json 37 1c3ac3bec67aaba3 b20690ae2dbb03f9 1c3ac3bec67aaba3
figure3_replica.xml grid.flaky.json 2003 1c3ac3bec67aaba3 b20690ae2dbb03f9 1c3ac3bec67aaba3
figure3_replica.xml grid.lossy.json 11 96f9e2191a5b5edd 18dddae5e8c431bb 127b95132e2a4e21
figure3_replica.xml grid.lossy.json 37 b40a1b93ce3a4eb8 839d593b2c809d22 b40a1b93ce3a4eb8
figure3_replica.xml grid.lossy.json 2003 c609f62e7c27a783 6083968ffe1f133d c937bae482b1f25b
figure4_alternative.xml grid.example.json 11 701340741b260991 cac176fffc9f0178 d71f4503133e284b
figure4_alternative.xml grid.example.json 37 c7422332ba03d4f0 cab8570796d37141 c7422332ba03d4f0
figure4_alternative.xml grid.example.json 2003 6266e7368a0f084c ef16d686701fbbbf 6266e7368a0f084c
figure4_alternative.xml grid.flaky.json 11 190c98677d4fa2c8 d8a7359834caaec4 190c98677d4fa2c8
figure4_alternative.xml grid.flaky.json 37 190c98677d4fa2c8 d8a7359834caaec4 190c98677d4fa2c8
figure4_alternative.xml grid.flaky.json 2003 190c98677d4fa2c8 d8a7359834caaec4 190c98677d4fa2c8
figure4_alternative.xml grid.lossy.json 11 b080605c6e91a528 fd076a0df7515d32 6e6571bf2bee8ec6
figure4_alternative.xml grid.lossy.json 37 b080605c6e91a528 fd076a0df7515d32 6e6571bf2bee8ec6
figure4_alternative.xml grid.lossy.json 2003 b2a24d8acffc7492 cb326551f8d29544 4fdc1f49e0d523f5
figure5_redundancy.xml grid.example.json 11 27ac3fd739aa1c69 4a2d2992d3969c61 1ca11b42152bc377
figure5_redundancy.xml grid.example.json 37 923ff4ac44f2ca32 0c0cdddc26f55d8a 923ff4ac44f2ca32
figure5_redundancy.xml grid.example.json 2003 72668a0657b71498 936f10ff4edb8d80 72668a0657b71498
figure5_redundancy.xml grid.flaky.json 11 0c3ebc14aa4c292f 1a0718f5a7e92215 0c3ebc14aa4c292f
figure5_redundancy.xml grid.flaky.json 37 0c3ebc14aa4c292f 1a0718f5a7e92215 0c3ebc14aa4c292f
figure5_redundancy.xml grid.flaky.json 2003 0c3ebc14aa4c292f 1a0718f5a7e92215 0c3ebc14aa4c292f
figure5_redundancy.xml grid.lossy.json 11 cf296b6e6ac5afdb 8c56eb5a51bb7f81 3e82aeb92b84fb95
figure5_redundancy.xml grid.lossy.json 37 cf296b6e6ac5afdb 8c56eb5a51bb7f81 3e82aeb92b84fb95
figure5_redundancy.xml grid.lossy.json 2003 9fd8aebacaf87087 e5cbd35e228a0a41 b1e85bb8d5ea42c6
figure6_exception.xml grid.example.json 11 f82821dea6b8a33f 2ceceb7514dbff54 e326e539bb6d21a3
figure6_exception.xml grid.example.json 37 df902e34311ae738 423df3216db5cbc3 df902e34311ae738
figure6_exception.xml grid.example.json 2003 6266e7368a0f084c ef16d686701fbbbf 6266e7368a0f084c
figure6_exception.xml grid.flaky.json 11 1b2f473ee5c60a7d 6ebce34f8610e778 1b2f473ee5c60a7d
figure6_exception.xml grid.flaky.json 37 1b2f473ee5c60a7d 6ebce34f8610e778 1b2f473ee5c60a7d
figure6_exception.xml grid.flaky.json 2003 1b2f473ee5c60a7d 6ebce34f8610e778 1b2f473ee5c60a7d
figure6_exception.xml grid.lossy.json 11 a7dacf979e9d4793 70dbe0046d7d352a a7dacf979e9d4793
figure6_exception.xml grid.lossy.json 37 a7dacf979e9d4793 70dbe0046d7d352a a7dacf979e9d4793
figure6_exception.xml grid.lossy.json 2003 a7dacf979e9d4793 70dbe0046d7d352a a7dacf979e9d4793
mapreduce.xml grid.example.json 11 f23e8d6b13a85fa6 8680eb646a3d3a5c f23e8d6b13a85fa6
mapreduce.xml grid.example.json 37 f23e8d6b13a85fa6 8680eb646a3d3a5c f23e8d6b13a85fa6
mapreduce.xml grid.example.json 2003 f23e8d6b13a85fa6 8680eb646a3d3a5c f23e8d6b13a85fa6
mapreduce.xml grid.flaky.json 11 2def3f1d29ef98b5 dc94f4b1e3983132 2def3f1d29ef98b5
mapreduce.xml grid.flaky.json 37 9855891902c4badb 5d06e116b44629b9 9855891902c4badb
mapreduce.xml grid.flaky.json 2003 9a8440c134ad1d22 96212bf614c83519 9a8440c134ad1d22
mapreduce.xml grid.lossy.json 11 e9c86966e434a024 0749a6a99cba1ebb 0ec4fad856f77172
mapreduce.xml grid.lossy.json 37 0571553c584ddf78 ce62d735b062471a 6d69179f85aadf1c
mapreduce.xml grid.lossy.json 2003 bbfc07b42a27e544 b36be2d70616f2c4 37f4f1e0e6f9a38c
pipeline.xml grid.example.json 11 62a91baf83f61c63 2499f40856acbb8b 69ee5a6faa7b7ea9
pipeline.xml grid.example.json 37 7912cdf3ae8bef59 6cfec574535952ac 78bb3c6dd6af5586
pipeline.xml grid.example.json 2003 7763d8b3053ccad8 af8c89bd831895d9 5232fe78a8b14f32
pipeline.xml grid.flaky.json 11 6a21a46c3c1e8983 351f3a182af0aaed 6a21a46c3c1e8983
pipeline.xml grid.flaky.json 37 6a21a46c3c1e8983 351f3a182af0aaed 6a21a46c3c1e8983
pipeline.xml grid.flaky.json 2003 6a21a46c3c1e8983 351f3a182af0aaed 6a21a46c3c1e8983
pipeline.xml grid.lossy.json 11 dacea58852bbcf15 6865acc86e2633b7 712b4055d9abf0ef
pipeline.xml grid.lossy.json 37 dacea58852bbcf15 6865acc86e2633b7 712b4055d9abf0ef
pipeline.xml grid.lossy.json 2003 2dd1ad4f3dcda12e 9fc2c1ec781b55f3 2dd1ad4f3dcda12e
recovery_demo.xml grid.example.json 11 ced2148215336ebb 0403162dc84309e6 ced2148215336ebb
recovery_demo.xml grid.example.json 37 53a5df52106e4974 718421f5870b48a9 53a5df52106e4974
recovery_demo.xml grid.example.json 2003 13531a272a07c570 e3d6aebcdf4c1680 13531a272a07c570
recovery_demo.xml grid.flaky.json 11 55e0e2443059b0ce ad89f02d1ba22257 55e0e2443059b0ce
recovery_demo.xml grid.flaky.json 37 55e0e2443059b0ce ad89f02d1ba22257 55e0e2443059b0ce
recovery_demo.xml grid.flaky.json 2003 55e0e2443059b0ce ad89f02d1ba22257 55e0e2443059b0ce
recovery_demo.xml grid.lossy.json 11 28347b19ab36b96c 30b26834c83d63e1 7dcfb57064e9a00a
recovery_demo.xml grid.lossy.json 37 6f8f13bda3d32842 4026e5a6654a07cf 1442bb6cb7ba33ec
recovery_demo.xml grid.lossy.json 2003 0e9fbdc5b55b3ad3 5ba0a7399d8e9b6d c0b627539210cae6
";

/// Every shipped workflow × shipped grid × three seeds × three engine
/// configurations journals exactly what it did when these digests were
/// taken: a refactor of the engine must leave every journal byte-identical.
/// After an intended journal change, replace the table with the one this
/// test prints.
#[test]
fn shipped_journals_are_pinned() {
    use std::fmt::Write;
    let modes: [(Option<&str>, Option<u32>, Option<&str>); 3] = [
        (None, None, None),
        (Some("resilient"), Some(2), None),
        (None, None, Some("phi:4")),
    ];
    let mut got = String::new();
    for wf in all_xml() {
        let wf_name = wf.file_name().unwrap().to_str().unwrap();
        for grid in ["grid.example.json", "grid.flaky.json", "grid.lossy.json"] {
            for seed in [11, 37, 2003] {
                let _ = write!(got, "{wf_name} {grid} {seed}");
                for (scheduler, breaker, detector) in modes {
                    let opts = RunOptions {
                        workflow: Some(wf.clone()),
                        grid: Some(workflows_dir().join(grid)),
                        seed: Some(seed),
                        scheduler: scheduler.map(str::to_string),
                        breaker,
                        detector: detector.map(str::to_string),
                        ..RunOptions::default()
                    };
                    let (report, _) = cmd_run(&opts).expect("setup succeeds");
                    let _ = write!(got, " {:016x}", fnv1a(report.trace_jsonl().as_bytes()));
                    // The log is a view of the journal: one entry per
                    // event, and a `Submit` entry exactly per `task_submit`.
                    let logged = report.log.iter().filter(|l| l.kind == LogKind::Submit);
                    let submitted = report
                        .trace
                        .iter()
                        .filter(|e| e.kind.tag() == "task_submit");
                    assert_eq!(
                        (report.log.len(), logged.count()),
                        (report.trace.len(), submitted.count()),
                        "{wf_name} {grid} {seed}"
                    );
                }
                got.push('\n');
            }
        }
    }
    let changed: Vec<String> = got
        .lines()
        .zip(JOURNAL_PINS.lines().chain(std::iter::repeat("")))
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        changed.is_empty() && got.lines().count() == JOURNAL_PINS.lines().count(),
        "{} journal(s) changed:\n{}\nfull table:\n{got}",
        changed.len(),
        changed.join("\n")
    );
}

#[test]
fn recovery_demo_trace_shows_all_three_mechanisms() {
    let dir = std::env::temp_dir().join(format!(
        "gridwfs-recovery-demo-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_at = |seed: u64, path: &Path| {
        let opts = RunOptions {
            workflow: Some(workflows_dir().join("recovery_demo.xml")),
            grid: Some(workflows_dir().join("grid.example.json")),
            seed: Some(seed),
            trace: Some(path.to_path_buf()),
            ..RunOptions::default()
        };
        cmd_run(&opts).expect("setup succeeds");
        std::fs::read_to_string(path).unwrap()
    };
    // Failure injection is probabilistic per seed; find one seed whose
    // journal shows all three recovery mechanisms at once.  Everything is
    // seed-deterministic, so the sweep itself is stable.
    let path = dir.join("demo.jsonl");
    let found = (0..40).find_map(|seed| {
        let journal = trace_at(seed, &path);
        let retried = journal.contains("\"kind\":\"retry_scheduled\"");
        let replica_cancelled = journal.contains("\"outcome\":\"cancelled\"")
            && journal.contains("\"reason\":\"node-settled\"");
        let handled = journal.contains("\"kind\":\"handler_fired\"")
            && journal.contains("\"exception\":\"out_of_memory\"");
        (retried && replica_cancelled && handled).then_some((seed, journal))
    });
    let (seed, journal) = found.expect("some seed in 0..40 exercises retry+replica+handler");
    // The same seed must reproduce the journal byte for byte.
    let again = trace_at(seed, &dir.join("demo2.jsonl"));
    assert_eq!(journal, again, "seed {seed}: journal not deterministic");
    // Replication fans out to all three hosts before the cancels.
    assert!(journal.matches("\"activity\":\"render\"").count() >= 3);
    std::fs::remove_dir_all(&dir).ok();
}
