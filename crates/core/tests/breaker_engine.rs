//! Engine-level circuit-breaker behaviour against a scripted executor:
//! a deterministically flaky host trips its breaker after `threshold`
//! consecutive failures, placement skips it while open, and a
//! single-option program still submits (forced probes) instead of
//! deadlocking.

use std::collections::VecDeque;

use grid_wfs::{
    BreakerConfig, Engine, EngineConfig, Executor, SchedulerPolicy, SubmitRequest, TraceKind,
};
use gridwfs_detect::notify::{Envelope, Notification, TaskId};
use gridwfs_wpdl::builder::WorkflowBuilder;
use gridwfs_wpdl::validate::{validate, Validated};

const FLAKY: &str = "flaky.example.org";
const FLAKY2: &str = "flaky2.example.org";
const RELIABLE: &str = "reliable.example.org";

/// Scripted executor: every attempt on a flaky host crashes (`Done`
/// without `Task End`), every attempt on the reliable host succeeds, with
/// fixed latencies — fully deterministic, no RNG.
#[derive(Default)]
struct Scripted {
    now: f64,
    queue: VecDeque<(f64, Envelope)>,
    submissions: Vec<(u64, String)>,
}

impl Scripted {
    fn submissions_to(&self, host: &str) -> usize {
        self.submissions.iter().filter(|(_, h)| h == host).count()
    }
}

impl Executor for &mut Scripted {
    fn now(&self) -> f64 {
        self.now
    }

    fn submit(&mut self, req: SubmitRequest) {
        self.submissions.push((req.task.0, req.hostname.clone()));
        let start = self.now + 1.0;
        let end = start + 1.0;
        let host = req.hostname.clone();
        self.queue.push_back((
            start,
            Envelope::new(req.task, host.clone(), start, Notification::TaskStart),
        ));
        if req.hostname != RELIABLE {
            self.queue
                .push_back((end, Envelope::new(req.task, host, end, Notification::Done)));
        } else {
            self.queue.push_back((
                end,
                Envelope::new(req.task, host.clone(), end, Notification::TaskEnd),
            ));
            self.queue
                .push_back((end, Envelope::new(req.task, host, end, Notification::Done)));
        }
    }

    fn cancel(&mut self, _task: TaskId) {}

    fn next_notification(&mut self, deadline: Option<f64>) -> Option<(f64, Envelope)> {
        match self.queue.front() {
            Some(&(t, _)) => match deadline {
                Some(d) if d < t => {
                    self.now = d;
                    None
                }
                _ => {
                    let (t, env) = self.queue.pop_front().expect("peeked");
                    self.now = self.now.max(t);
                    Some((self.now, env))
                }
            },
            None => {
                if let Some(d) = deadline {
                    self.now = self.now.max(d);
                }
                None
            }
        }
    }

    fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

/// A chain of `n` activities, all running a two-option program whose first
/// option is the flaky host — so without breakers every activity's first
/// attempt lands on it.
fn chain(n: usize) -> Validated {
    let mut b = WorkflowBuilder::new("breaker-chain").program("p", 1.0, &[FLAKY, RELIABLE]);
    for i in 0..n {
        b.activity(format!("a{i}"), "p").retry(4, 0.5);
    }
    for i in 1..n {
        b = b.edge(&format!("a{}", i - 1), &format!("a{i}"));
    }
    validate(b.build_unchecked()).expect("valid chain")
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The FNV-1a digest of a journal, as 16 hex digits: pins the exact
/// jitter draws and `until` instants across builds, not only across runs.
fn digest(journal: &str) -> String {
    format!("{:016x}", fnv1a(journal.as_bytes()))
}

fn breaker(threshold: u32, base_delay: f64) -> BreakerConfig {
    BreakerConfig {
        threshold,
        base_delay,
        max_delay: base_delay * 2.0,
        seed: 7,
    }
}

#[test]
fn without_breaker_every_activity_burns_an_attempt_on_the_flaky_host() {
    let mut x = Scripted::default();
    let report = Engine::new(chain(6), &mut x).run();
    assert!(report.is_success());
    assert_eq!(x.submissions_to(FLAKY), 6, "first attempts all cycle to it");
    assert_eq!(x.submissions_to(RELIABLE), 6);
}

#[test]
fn breaker_opens_after_threshold_and_placement_skips_the_open_host() {
    let mut x = Scripted::default();
    let config = EngineConfig {
        breaker: Some(breaker(3, 1e6)), // backoff far beyond the run
        ..EngineConfig::default()
    };
    let report = Engine::new(chain(6), &mut x).with_config(config).run();
    assert!(report.is_success());
    assert_eq!(
        x.submissions_to(FLAKY),
        3,
        "breaker opened after 3 consecutive failures; later activities skip it"
    );
    assert_eq!(x.submissions_to(RELIABLE), 6);
    let opens: Vec<&gridwfs_trace::TraceEvent> = report
        .trace
        .iter()
        .filter(|e| matches!(&e.kind, TraceKind::BreakerOpen { host, .. } if host == FLAKY))
        .collect();
    assert_eq!(opens.len(), 1, "exactly one open transition journalled");
    assert!(
        !report
            .trace
            .iter()
            .any(|e| matches!(&e.kind, TraceKind::BreakerOpen { host, .. } if host == RELIABLE)),
        "the healthy host's breaker never opens"
    );
}

#[test]
fn breaker_trace_is_deterministic_across_runs() {
    let journals: Vec<String> = (0..2)
        .map(|_| {
            let mut x = Scripted::default();
            let config = EngineConfig {
                breaker: Some(breaker(2, 10.0)),
                ..EngineConfig::default()
            };
            Engine::new(chain(5), &mut x)
                .with_config(config)
                .run()
                .trace_jsonl()
        })
        .collect();
    assert_eq!(journals[0], journals[1]);
    assert!(journals[0].contains("\"kind\":\"breaker_open\""));
    assert_eq!(digest(&journals[0]), "e590be36cfd925a7", "journal digest");
}

#[test]
fn single_option_program_probes_instead_of_deadlocking() {
    // Only the flaky host exists: the breaker opens, but every retry still
    // submits (forced half-open probe) and the workflow terminates.
    let mut b = WorkflowBuilder::new("probe-only").program("p", 1.0, &[FLAKY]);
    b.activity("only", "p").retry(6, 0.5);
    let wf = validate(b.build_unchecked()).expect("valid");
    let mut x = Scripted::default();
    let config = EngineConfig {
        breaker: Some(breaker(2, 5.0)),
        ..EngineConfig::default()
    };
    let report = Engine::new(wf, &mut x).with_config(config).run();
    assert!(!report.is_success(), "the only host always crashes");
    assert_eq!(
        x.submissions_to(FLAKY),
        6,
        "all retries ran: open breaker degrades placement, never blocks it"
    );
    assert!(
        report
            .trace
            .iter()
            .any(|e| matches!(&e.kind, TraceKind::BreakerProbe { host } if host == FLAKY)),
        "forced submissions to an open breaker journal as probes"
    );
    assert_eq!(
        digest(&report.trace_jsonl()),
        "d94976e310f43ee4",
        "journal digest"
    );
}

#[test]
fn resilient_scoring_steers_placements_off_the_failing_host() {
    // Same chain as the oblivious baseline above, but with the scorer on:
    // one burnt attempt on the flaky host is all the evidence it needs to
    // route every later placement to the reliable host.
    let mut x = Scripted::default();
    let config = EngineConfig {
        scheduler: SchedulerPolicy::Resilient(Vec::new()),
        ..EngineConfig::default()
    };
    let report = Engine::new(chain(6), &mut x).with_config(config).run();
    assert!(report.is_success());
    assert_eq!(
        x.submissions_to(FLAKY),
        1,
        "only the zero-evidence first attempt lands on the flaky host"
    );
    assert_eq!(
        x.submissions_to(RELIABLE),
        6,
        "a0's retry plus the 5 later firsts"
    );
    assert!(
        report.trace.iter().any(|e| matches!(
            &e.kind,
            TraceKind::PlacementScored { steered: true, host, .. } if host == RELIABLE
        )),
        "steered placements are journalled"
    );
    assert_eq!(
        digest(&report.trace_jsonl()),
        "0209ae36863030d7",
        "journal digest"
    );
}

#[test]
fn resilient_scheduler_degrades_gracefully_when_every_host_is_bad() {
    // Both options always crash: after one failure each the scorer marks
    // both suspect and abstains, and the engine must fall back to
    // oblivious cycling with breaker-skip — every retry still submits
    // (forced probes once the breakers open) instead of stalling.
    let mut b = WorkflowBuilder::new("all-bad").program("p", 1.0, &[FLAKY, FLAKY2]);
    b.activity("only", "p").retry(6, 0.5);
    let wf = validate(b.build_unchecked()).expect("valid");
    let mut x = Scripted::default();
    let config = EngineConfig {
        breaker: Some(breaker(2, 1e6)), // backoff far beyond the run
        scheduler: SchedulerPolicy::Resilient(Vec::new()),
        ..EngineConfig::default()
    };
    let report = Engine::new(wf, &mut x).with_config(config).run();
    assert!(!report.is_success(), "every host always crashes");
    assert_eq!(
        x.submissions_to(FLAKY) + x.submissions_to(FLAKY2),
        6,
        "all retries ran: an abstaining scorer degrades placement, never blocks it"
    );
    assert!(
        report
            .trace
            .iter()
            .any(|e| matches!(&e.kind, TraceKind::BreakerProbe { .. })),
        "once both breakers open, fallback submissions journal as probes"
    );
    assert_eq!(report.status_of("only"), Some("failed"));
}

#[test]
fn success_on_probe_closes_the_breaker() {
    // Scripted twist: flaky crashes its first 2 attempts then recovers.
    struct Recovering {
        inner: Scripted,
        flaky_failures_left: usize,
    }
    impl Executor for &mut Recovering {
        fn now(&self) -> f64 {
            self.inner.now
        }
        fn submit(&mut self, req: SubmitRequest) {
            let crash_this = req.hostname == FLAKY && self.flaky_failures_left > 0;
            if req.hostname == FLAKY && self.flaky_failures_left > 0 {
                self.flaky_failures_left -= 1;
            }
            self.inner
                .submissions
                .push((req.task.0, req.hostname.clone()));
            let start = self.inner.now + 1.0;
            let end = start + 1.0;
            let host = req.hostname.clone();
            self.inner.queue.push_back((
                start,
                Envelope::new(req.task, host.clone(), start, Notification::TaskStart),
            ));
            if !crash_this {
                self.inner.queue.push_back((
                    end,
                    Envelope::new(req.task, host.clone(), end, Notification::TaskEnd),
                ));
            }
            self.inner
                .queue
                .push_back((end, Envelope::new(req.task, host, end, Notification::Done)));
        }
        fn cancel(&mut self, _task: TaskId) {}
        fn next_notification(&mut self, deadline: Option<f64>) -> Option<(f64, Envelope)> {
            let mut view = &mut self.inner;
            view.next_notification(deadline)
        }
        fn is_idle(&self) -> bool {
            self.inner.queue.is_empty()
        }
    }
    let mut b = WorkflowBuilder::new("recover").program("p", 1.0, &[FLAKY]);
    b.activity("only", "p").retry(8, 0.5);
    let wf = validate(b.build_unchecked()).expect("valid");
    let mut x = Recovering {
        inner: Scripted::default(),
        flaky_failures_left: 2,
    };
    let config = EngineConfig {
        breaker: Some(breaker(2, 0.1)), // short backoff: probe happens soon
        ..EngineConfig::default()
    };
    let report = Engine::new(wf, &mut x).with_config(config).run();
    assert!(report.is_success(), "host recovered, probe succeeded");
    assert!(
        report
            .trace
            .iter()
            .any(|e| matches!(&e.kind, TraceKind::BreakerClosed { host } if host == FLAKY)),
        "the successful probe closes the breaker and journals it"
    );
}
