//! Property tests for the failure detection service.

use gridwfs_detect::detector::{Detection, Detector};
use gridwfs_detect::heartbeat::HeartbeatMonitor;
use gridwfs_detect::notify::{Envelope, Notification, TaskId};
use gridwfs_detect::state::{TaskState, TaskStateMachine};
use gridwfs_detect::transport::ReorderBuffer;
use gridwfs_sim::check::{self, forall};
use gridwfs_sim::rng::Rng;

fn state(rng: &mut Rng) -> TaskState {
    [
        TaskState::Inactive,
        TaskState::Active,
        TaskState::Done,
        TaskState::Failed,
        TaskState::Exception,
    ][rng.index(5)]
}

fn notification(rng: &mut Rng) -> Notification {
    match rng.index(6) {
        0 => Notification::Heartbeat {
            seq: rng.next_u64(),
        },
        1 => Notification::TaskStart,
        2 => Notification::TaskEnd,
        3 => Notification::Exception {
            name: check::string(rng, 1..9, check::LOWER),
            detail: String::new(),
        },
        4 => Notification::Checkpoint {
            flag: check::string(rng, 1..13, "abcdefghijklmnopqrstuvwxyz0123456789:"),
        },
        _ => Notification::Done,
    }
}

/// Random transition walks: the machine never enters an illegal state,
/// history always starts Inactive and replaying it is legal.
#[test]
fn state_machine_history_is_always_legal() {
    forall(256, &[], |rng| {
        let walk = check::vec(rng, 0..20, state);
        let mut m = TaskStateMachine::new();
        for target in walk {
            let before = m.current();
            match m.transition(target) {
                Ok(()) => assert!(TaskStateMachine::is_legal(before, target)),
                Err(e) => {
                    assert_eq!(e.from, before);
                    assert_eq!(m.current(), before, "failed transition is a no-op");
                }
            }
        }
        // Replay the recorded history through a fresh machine.
        let mut replay = TaskStateMachine::new();
        for &s in m.history().iter().skip(1) {
            replay.transition(s).expect("recorded history is legal");
        }
        assert_eq!(replay.current(), m.current());
    });
}

/// Arbitrary notification sequences produce at most one terminal
/// detection, and the final state is consistent with it.
#[test]
fn detector_classification_is_single_and_consistent() {
    forall(256, &[], |rng| {
        let bodies = check::vec(rng, 0..30, notification);
        let mut det = Detector::new();
        det.register_task(TaskId(1), 0.0, 1.0, 0.0);
        let mut terminal: Option<Detection> = None;
        for (i, body) in bodies.into_iter().enumerate() {
            let t = i as f64;
            for d in det.observe(&Envelope::new(TaskId(1), "h", t, body), t) {
                if d.is_terminal() {
                    assert!(terminal.is_none(), "second terminal {d:?}");
                    terminal = Some(d);
                }
            }
        }
        let state = det.state(TaskId(1)).unwrap();
        match &terminal {
            Some(Detection::Completed { .. }) => assert_eq!(state, TaskState::Done),
            Some(Detection::Crashed { .. }) => assert_eq!(state, TaskState::Failed),
            Some(Detection::ExceptionRaised { .. }) => assert_eq!(state, TaskState::Exception),
            Some(
                Detection::CheckpointRecorded { .. }
                | Detection::Zombie { .. }
                | Detection::LateHeartbeat { .. },
            ) => unreachable!("not terminal"),
            None => assert!(!state.is_terminal()),
        }
    });
}

/// Heartbeat monitor: a task that beats at least every
/// `interval * tolerance` is never presumed dead; one that stops is
/// presumed dead exactly once.
#[test]
fn heartbeat_presumption_boundary() {
    forall(256, &[], |rng| {
        let interval = rng.range_f64(0.1, 5.0);
        let tolerance = rng.range_f64(1.0, 5.0);
        let beats = check::between(rng, 1..30);
        let stop_after = check::between(rng, 0..30);
        let mut m = HeartbeatMonitor::default();
        m.watch(TaskId(1), interval, tolerance, 0.0);
        let window = interval * tolerance;
        let mut now = 0.0;
        let mut dead_reports = 0;
        for i in 0..beats {
            now = (i + 1) as f64 * window * 0.9; // always inside the window
            if i < stop_after {
                m.beat(TaskId(1), i as u64, now);
            }
            dead_reports += m.expired(now).len();
        }
        if stop_after >= beats {
            assert_eq!(dead_reports, 0, "never silent long enough");
        }
        // Silence forever: exactly one report, ever.
        dead_reports += m.expired(now + window * 10.0).len();
        dead_reports += m.expired(now + window * 20.0).len();
        assert_eq!(dead_reports, 1, "eventual silence is detected exactly once");
    });
}

/// Reorder buffer: releases exactly the accepted messages (no loss, no
/// duplication) in send order, whatever the arrival order.
#[test]
fn reorder_buffer_is_a_permutation_sorter() {
    forall(256, &[], |rng| {
        let sent_times = check::vec(rng, 1..30, |r| r.range_f64(0.0, 100.0));
        let delay = rng.range_f64(0.0, 5.0);
        let mut buf = ReorderBuffer::new(delay);
        // Arrive in shuffled order: reverse is the worst case.
        let mut arrival = 100.0;
        for (i, &sent) in sent_times.iter().enumerate().rev() {
            arrival += 0.1;
            let accepted = buf.accept(
                Envelope::new(
                    TaskId(1),
                    "h",
                    sent,
                    Notification::Heartbeat { seq: i as u64 },
                ),
                arrival,
            );
            assert!(accepted, "distinct messages are never suppressed");
        }
        let out = buf.release(arrival + delay + 1.0);
        assert_eq!(out.len(), sent_times.len());
        for w in out.windows(2) {
            assert!(w[0].sent_at <= w[1].sent_at, "send order restored");
        }
        assert!(buf.is_empty());
    });
}
