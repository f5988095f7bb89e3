//! The simulated Grid executor.
//!
//! [`SimGrid`] stands in for the Globus deployment of the original
//! prototype: it owns a set of simulated resources (speed, Poisson
//! failures, exponential downtime — the §8.1 model), a notification link
//! (delay/loss), and per-program behaviour profiles (software crashes,
//! user-defined exceptions, checkpoint emission).  On `submit` it
//! pre-computes the attempt's fate and schedules the exact notification
//! stream a real task would have produced:
//!
//! * success — heartbeats, optional `Checkpoint`s, `Task End`, `Done`;
//! * software crash — heartbeats, then `Done` **without** `Task End`;
//! * user-defined exception — heartbeats, then `Exception`, then `Done`;
//! * **host crash** — heartbeats, then *silence* (no `Done` at all): the
//!   engine can only find out through heartbeat timeout, exactly the
//!   ambiguity the generic failure detection service exists to resolve.
//!
//! Determinism: all draws come from split RNG streams keyed by attempt id,
//! so a given seed always produces the same history regardless of
//! submission interleaving.

use std::collections::HashMap;

use gridwfs_detect::notify::{Envelope, Notification, TaskId};
use gridwfs_sim::dist::Dist;
use gridwfs_sim::net::{Delivery, LinkModel};
use gridwfs_sim::resource::{GridResource, ResourceId, ResourceSpec};
use gridwfs_sim::rng::Rng;
use gridwfs_sim::sim::Sim;
use gridwfs_sim::time::SimTime;

use crate::executor::{Executor, SubmitRequest};

/// Behavioural profile of a program's tasks (how the *application* can fail,
/// as opposed to how the *host* fails).
#[derive(Debug, Clone, Default)]
pub struct TaskProfile {
    /// Emit a `Checkpoint` notification every this many time units of
    /// progress (the task is checkpoint-enabled, §4.3).
    pub checkpoint_period: Option<f64>,
    /// Software-crash process: time-to-crash distribution (process dies ⇒
    /// `Done` without `Task End`).
    pub soft_crash: Option<Dist>,
    /// User-defined exception behaviour.
    pub exception: Option<ExceptionProfile>,
}

/// Bernoulli exception checks, the Figure 13 model: the task checks an
/// environmental condition `checks` times, evenly spaced across its nominal
/// duration, and each check independently raises the exception with
/// probability `prob`.
#[derive(Debug, Clone)]
pub struct ExceptionProfile {
    /// Exception name raised (e.g. `disk_full`).
    pub name: String,
    /// Number of evenly spaced checks.
    pub checks: u32,
    /// Per-check probability of raising.
    pub prob: f64,
}

impl TaskProfile {
    /// A well-behaved task: no crashes, no exceptions, no checkpoints.
    pub fn reliable() -> Self {
        TaskProfile::default()
    }

    /// Builder: enable checkpoint emission.
    pub fn with_checkpoints(mut self, period: f64) -> Self {
        assert!(period > 0.0, "checkpoint period must be positive");
        self.checkpoint_period = Some(period);
        self
    }

    /// Builder: add a software-crash process.
    pub fn with_soft_crash(mut self, ttf: Dist) -> Self {
        self.soft_crash = Some(ttf);
        self
    }

    /// Builder: add Bernoulli exception checks.
    pub fn with_exception(mut self, name: impl Into<String>, checks: u32, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "prob must be in [0,1]");
        assert!(checks > 0, "need at least one check");
        self.exception = Some(ExceptionProfile {
            name: name.into(),
            checks,
            prob,
        });
        self
    }
}

struct HostState {
    resource: GridResource,
    /// The host is rebooting until this time (submissions queue behind it).
    down_until: f64,
}

/// The simulated Grid.
pub struct SimGrid {
    sim: Sim<Envelope>,
    hosts: HashMap<String, HostState>,
    profiles: HashMap<String, TaskProfile>,
    link: LinkModel,
    host_links: HashMap<String, LinkModel>,
    rng: Rng,
    /// Scheduled notification events per attempt, with their *send* times
    /// — an orphan cancel arriving at the host at time `t` suppresses only
    /// messages the task would have sent after `t`.
    pending: HashMap<TaskId, Vec<(gridwfs_sim::event::EventId, f64)>>,
    /// Which host each attempt was submitted to (orphan cancels must
    /// travel that host's link).
    task_hosts: HashMap<TaskId, String>,
    submitted: u64,
}

impl SimGrid {
    /// An empty Grid with a perfect notification link.
    pub fn new(seed: u64) -> Self {
        SimGrid {
            sim: Sim::new(),
            hosts: HashMap::new(),
            profiles: HashMap::new(),
            link: LinkModel::perfect(),
            host_links: HashMap::new(),
            rng: Rng::seed_from_u64(seed),
            pending: HashMap::new(),
            task_hosts: HashMap::new(),
            submitted: 0,
        }
    }

    /// Replaces the default notification link model (used by every host
    /// without a per-host override).
    pub fn with_link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Overrides the link model for one host.
    pub fn set_host_link(&mut self, host: impl Into<String>, link: LinkModel) {
        self.host_links.insert(host.into(), link);
    }

    /// Builder form of [`SimGrid::set_host_link`].
    pub fn with_host_link(mut self, host: impl Into<String>, link: LinkModel) -> Self {
        self.set_host_link(host, link);
        self
    }

    /// Registers a host.
    pub fn add_host(&mut self, spec: ResourceSpec) {
        let id = ResourceId(self.hosts.len() as u32);
        let hostname = spec.hostname.clone();
        let resource = GridResource::new(id, spec, &self.rng);
        self.hosts.insert(
            hostname,
            HostState {
                resource,
                down_until: 0.0,
            },
        );
    }

    /// Registers the behaviour profile for a program (defaults to
    /// [`TaskProfile::reliable`] when absent).
    pub fn set_profile(&mut self, program: impl Into<String>, profile: TaskProfile) {
        self.profiles.insert(program.into(), profile);
    }

    /// True if the named host exists.
    pub fn has_host(&self, hostname: &str) -> bool {
        self.hosts.contains_key(hostname)
    }

    fn link_for(&self, host: &str) -> &LinkModel {
        self.host_links.get(host).unwrap_or(&self.link)
    }

    fn deliver(&mut self, task: TaskId, host: &str, send_at: f64, body: Notification) {
        let link = self.link_for(host).clone();
        for delay in link.offer_copies(&mut self.rng) {
            let env = Envelope::new(task, host, send_at, body.clone());
            let id = self.sim.schedule_at(SimTime::new(send_at + delay), env);
            self.pending.entry(task).or_default().push((id, send_at));
        }
    }

    /// Per-host failure priors for the resilience-aware scheduler:
    /// `(hostname, λ, D)` with λ = 1/E\[TTF\] (0 for failure-free hosts) and
    /// D = E\[downtime\].  Hostname-sorted so the result is deterministic.
    pub fn host_priors(&self) -> Vec<(String, f64, f64)> {
        let mut out: Vec<(String, f64, f64)> = self
            .hosts
            .iter()
            .map(|(name, h)| {
                let spec = &h.resource.spec;
                let lambda = if spec.ttf.is_never() {
                    0.0
                } else {
                    let mttf = spec.ttf.mean();
                    if mttf.is_finite() && mttf > 0.0 {
                        1.0 / mttf
                    } else {
                        0.0
                    }
                };
                let downtime = if spec.downtime.is_never() {
                    0.0
                } else {
                    let d = spec.downtime.mean();
                    if d.is_finite() {
                        d
                    } else {
                        0.0
                    }
                };
                (name.clone(), lambda, downtime)
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Parses the progress cookie produced by checkpoint emission.
    fn parse_flag(flag: &str) -> f64 {
        flag.strip_prefix("ckpt:")
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|p| p.is_finite() && *p >= 0.0)
            .unwrap_or(0.0)
    }
}

impl Executor for SimGrid {
    fn now(&self) -> f64 {
        self.sim.now().as_f64()
    }

    fn submit(&mut self, req: SubmitRequest) {
        self.submitted += 1;
        self.task_hosts.insert(req.task, req.hostname.clone());
        let attempt_rng_id = 0x7A5C_0000_0000 | req.task.0;
        let mut arng = self.rng.split(attempt_rng_id);
        let now = self.now();

        let Some(host) = self.hosts.get_mut(&req.hostname) else {
            // Unknown host: the submission bounces — the job manager
            // reports Done with no Task End, i.e. a crash.
            self.deliver(req.task, &req.hostname, now, Notification::Done);
            return;
        };

        // Queue behind a rebooting host.
        let start = now.max(host.down_until);
        let speed = host.resource.spec.speed;

        // Remaining nominal work after checkpoint resume.
        let prior = req
            .checkpoint_flag
            .as_deref()
            .map(Self::parse_flag)
            .unwrap_or(0.0)
            .min(req.nominal_duration);
        let remaining_nominal = req.nominal_duration - prior;
        let wall_duration = remaining_nominal / speed;
        let end = start + wall_duration;

        // Host crash: next failure of this resource after `start`.
        let host_crash = {
            let ttf = host.resource.sample_ttf();
            if ttf.is_finite() {
                Some(start + ttf)
            } else {
                None
            }
        };

        // Application behaviour.
        let profile = self.profiles.get(&req.program).cloned().unwrap_or_default();
        let soft_crash = profile
            .soft_crash
            .as_ref()
            .map(|d| start + d.sample(&mut arng) / speed);
        // Exception checks are positioned across the *nominal* duration;
        // checks already passed before the checkpoint are not re-run.
        let exception_at = profile.exception.as_ref().and_then(|e| {
            let step = req.nominal_duration / e.checks as f64;
            (1..=e.checks)
                .map(|i| i as f64 * step)
                .filter(|&at_nominal| at_nominal > prior)
                .find(|_| arng.bernoulli(e.prob))
                .map(|at_nominal| start + (at_nominal - prior) / speed)
        });

        // Earliest terminal event decides the attempt's fate.
        #[derive(Clone, Copy, PartialEq)]
        enum Fate {
            Success,
            SoftCrash,
            Exception,
            HostCrash,
        }
        let mut fate = Fate::Success;
        let mut t_term = end;
        if let Some(t) = exception_at {
            // A check that lands exactly at the finish line still raises:
            // the task checks its environment *before* it can declare
            // success (this is what makes the Figure 13 model's fifth
            // check at t = FU effective).
            if t <= t_term {
                t_term = t;
                fate = Fate::Exception;
            }
        }
        if let Some(t) = soft_crash {
            if t < t_term {
                t_term = t;
                fate = Fate::SoftCrash;
            }
        }
        if let Some(t) = host_crash {
            if t < t_term {
                t_term = t;
                fate = Fate::HostCrash;
            }
        }

        // Host bookkeeping: a host crash takes the machine down.
        if fate == Fate::HostCrash {
            let down = host.resource.sample_downtime();
            host.down_until = t_term + down;
        }

        // Emit the stream.
        let hostname = req.hostname.clone();
        self.deliver(req.task, &hostname, start, Notification::TaskStart);
        if req.heartbeat_interval > 0.0 {
            let mut seq = 0u64;
            let mut t = start + req.heartbeat_interval;
            while t < t_term {
                self.deliver(req.task, &hostname, t, Notification::Heartbeat { seq });
                seq += 1;
                t += req.heartbeat_interval;
            }
        }
        if let Some(period) = profile.checkpoint_period {
            // The scheduler's adaptive hint overrides the profile's cadence,
            // but only for tasks the profile already checkpoint-enables —
            // the hint tunes K, it cannot conjure checkpoint support.
            let period = req
                .checkpoint_hint
                .filter(|p| p.is_finite() && *p > 0.0)
                .unwrap_or(period);
            // First checkpoint lands at the next period boundary after prior.
            let mut done_nominal = ((prior / period).floor() + 1.0) * period;
            while done_nominal < req.nominal_duration {
                let t = start + (done_nominal - prior) / speed;
                if t >= t_term {
                    break;
                }
                self.deliver(
                    req.task,
                    &hostname,
                    t,
                    Notification::Checkpoint {
                        flag: format!("ckpt:{done_nominal}"),
                    },
                );
                done_nominal += period;
            }
        }
        match fate {
            Fate::Success => {
                self.deliver(req.task, &hostname, end, Notification::TaskEnd);
                self.deliver(req.task, &hostname, end, Notification::Done);
            }
            Fate::SoftCrash => {
                self.deliver(req.task, &hostname, t_term, Notification::Done);
            }
            Fate::Exception => {
                let name = profile
                    .exception
                    .as_ref()
                    .expect("exception fate implies profile")
                    .name
                    .clone();
                self.deliver(
                    req.task,
                    &hostname,
                    t_term,
                    Notification::Exception {
                        name,
                        detail: format!("raised on {hostname}"),
                    },
                );
                self.deliver(req.task, &hostname, t_term, Notification::Done);
            }
            Fate::HostCrash => {
                // Silence: the host is gone. Nothing further arrives.
            }
        }
    }

    fn cancel(&mut self, task: TaskId) {
        if let Some(ids) = self.pending.remove(&task) {
            for (id, _) in ids {
                self.sim.cancel(id);
            }
        }
    }

    fn orphan_cancel(&mut self, task: TaskId) {
        // The cancel is a message to the (possibly alive) remote task: it
        // travels the host's link like everything else.  If it gets
        // through, it arrives at `now + delay` and stops the task — which
        // suppresses only notifications the task would have *sent* after
        // that instant.  Messages already in flight still deliver, which
        // is exactly what makes zombies possible.
        let Some(host) = self.task_hosts.get(&task).cloned() else {
            return; // never submitted here: nothing to cancel
        };
        let link = self.link_for(&host).clone();
        match link.offer(&mut self.rng) {
            Delivery::Dropped => {} // cancel lost; the orphan streams on
            Delivery::After(delay) => {
                let arrival = self.now() + delay;
                if let Some(ids) = self.pending.get_mut(&task) {
                    ids.retain(|&(id, send_at)| {
                        if send_at > arrival {
                            self.sim.cancel(id);
                            false
                        } else {
                            true
                        }
                    });
                    if ids.is_empty() {
                        self.pending.remove(&task);
                    }
                }
            }
        }
    }

    fn next_notification(&mut self, deadline: Option<f64>) -> Option<(f64, Envelope)> {
        let fired = match deadline {
            Some(d) => self.sim.next_until(SimTime::new(d))?,
            None => self.sim.next()?,
        };
        // Drop the event id from the cancellation index.
        if let Some(ids) = self.pending.get_mut(&fired.payload.task) {
            ids.retain(|&(id, _)| id != fired.id);
            if ids.is_empty() {
                self.pending.remove(&fired.payload.task);
            }
        }
        Some((fired.time.as_f64(), fired.payload))
    }

    fn is_idle(&self) -> bool {
        self.sim.is_idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridwfs_detect::notify::Notification as N;

    fn grid() -> SimGrid {
        let mut g = SimGrid::new(42);
        g.add_host(ResourceSpec::reliable("good.host"));
        g.add_host(ResourceSpec::unreliable("bad.host", 5.0, 10.0));
        g.add_host(ResourceSpec::reliable("fast.host").with_speed(2.0));
        g
    }

    fn req(task: u64, host: &str, dur: f64) -> SubmitRequest {
        SubmitRequest {
            task: TaskId(task),
            activity: "a".into(),
            program: "p".into(),
            hostname: host.into(),
            service: "jobmanager".into(),
            nominal_duration: dur,
            checkpoint_flag: None,
            heartbeat_interval: 1.0,
            checkpoint_hint: None,
        }
    }

    fn drain(g: &mut SimGrid) -> Vec<(f64, Envelope)> {
        std::iter::from_fn(|| g.next_notification(None)).collect()
    }

    #[test]
    fn successful_task_stream() {
        let mut g = grid();
        g.submit(req(1, "good.host", 5.0));
        let events = drain(&mut g);
        let bodies: Vec<&N> = events.iter().map(|(_, e)| &e.body).collect();
        assert!(matches!(bodies.first(), Some(N::TaskStart)));
        assert!(matches!(bodies[bodies.len() - 2], N::TaskEnd));
        assert!(matches!(bodies[bodies.len() - 1], N::Done));
        let heartbeats = bodies
            .iter()
            .filter(|b| matches!(b, N::Heartbeat { .. }))
            .count();
        assert_eq!(heartbeats, 4, "hb at 1,2,3,4 (5.0 is the end)");
        let (t_end, _) = events.last().unwrap();
        assert_eq!(*t_end, 5.0);
    }

    #[test]
    fn speed_scales_wall_time() {
        let mut g = grid();
        g.submit(req(1, "fast.host", 10.0));
        let events = drain(&mut g);
        let (t_end, _) = events.last().unwrap();
        assert_eq!(*t_end, 5.0, "speed 2.0 halves duration");
    }

    #[test]
    fn unknown_host_bounces_as_crash() {
        let mut g = grid();
        g.submit(req(1, "ghost.host", 5.0));
        let events = drain(&mut g);
        assert_eq!(events.len(), 1);
        assert!(matches!(events[0].1.body, N::Done));
    }

    #[test]
    fn host_crash_goes_silent() {
        // MTTF 5 on a 1000-long task: crash almost surely precedes success.
        let mut g = grid();
        g.submit(req(1, "bad.host", 1000.0));
        let events = drain(&mut g);
        assert!(
            !events
                .iter()
                .any(|(_, e)| matches!(e.body, N::Done | N::TaskEnd)),
            "host crash produces neither TaskEnd nor Done"
        );
        assert!(
            events.iter().any(|(_, e)| matches!(e.body, N::TaskStart)),
            "the attempt did start before going silent"
        );
    }

    #[test]
    fn soft_crash_is_done_without_task_end() {
        let mut g = grid();
        g.set_profile(
            "p",
            TaskProfile::reliable().with_soft_crash(Dist::constant(2.5)),
        );
        g.submit(req(1, "good.host", 10.0));
        let events = drain(&mut g);
        let (t, last) = events.last().unwrap();
        assert!(matches!(last.body, N::Done));
        assert_eq!(*t, 2.5);
        assert!(!events.iter().any(|(_, e)| matches!(e.body, N::TaskEnd)));
    }

    #[test]
    fn exception_profile_raises_at_check_point() {
        let mut g = grid();
        g.set_profile(
            "p",
            TaskProfile::reliable().with_exception("disk_full", 5, 1.0),
        );
        g.submit(req(1, "good.host", 30.0));
        let events = drain(&mut g);
        let exc = events
            .iter()
            .find(|(_, e)| matches!(e.body, N::Exception { .. }))
            .expect("exception with prob 1.0");
        assert_eq!(exc.0, 6.0, "first of 5 checks across 30 units");
        match &exc.1.body {
            N::Exception { name, .. } => assert_eq!(name, "disk_full"),
            _ => unreachable!(),
        }
        // Followed by Done at the same time.
        assert!(matches!(events.last().unwrap().1.body, N::Done));
    }

    #[test]
    fn zero_prob_exception_never_raises() {
        let mut g = grid();
        g.set_profile(
            "p",
            TaskProfile::reliable().with_exception("disk_full", 5, 0.0),
        );
        g.submit(req(1, "good.host", 30.0));
        let events = drain(&mut g);
        assert!(!events
            .iter()
            .any(|(_, e)| matches!(e.body, N::Exception { .. })));
        assert!(events.iter().any(|(_, e)| matches!(e.body, N::TaskEnd)));
    }

    #[test]
    fn checkpoints_carry_progress_flags() {
        let mut g = grid();
        g.set_profile("p", TaskProfile::reliable().with_checkpoints(2.0));
        g.submit(req(1, "good.host", 10.0));
        let events = drain(&mut g);
        let flags: Vec<&str> = events
            .iter()
            .filter_map(|(_, e)| match &e.body {
                N::Checkpoint { flag } => Some(flag.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(flags, vec!["ckpt:2", "ckpt:4", "ckpt:6", "ckpt:8"]);
    }

    #[test]
    fn checkpoint_hint_overrides_the_profile_cadence() {
        let mut g = grid();
        g.set_profile("p", TaskProfile::reliable().with_checkpoints(2.0));
        let mut r = req(1, "good.host", 10.0);
        r.checkpoint_hint = Some(5.0);
        g.submit(r);
        let flags: Vec<String> = drain(&mut g)
            .iter()
            .filter_map(|(_, e)| match &e.body {
                N::Checkpoint { flag } => Some(flag.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(flags, vec!["ckpt:5"], "hint of 5 replaces the 2.0 period");
        // A hint cannot enable checkpoints on a profile without them.
        let mut g = grid();
        let mut r = req(2, "good.host", 10.0);
        r.checkpoint_hint = Some(1.0);
        g.submit(r);
        assert!(!drain(&mut g)
            .iter()
            .any(|(_, e)| matches!(e.body, N::Checkpoint { .. })));
    }

    #[test]
    fn host_priors_surface_lambda_and_downtime() {
        let g = grid();
        let priors = g.host_priors();
        let names: Vec<&str> = priors.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(
            names,
            vec!["bad.host", "fast.host", "good.host"],
            "hostname-sorted"
        );
        let bad = &priors[0];
        assert!(
            (bad.1 - 1.0 / 5.0).abs() < 1e-12,
            "λ = 1/MTTF, got {}",
            bad.1
        );
        assert!((bad.2 - 10.0).abs() < 1e-12, "D = mean downtime");
        assert_eq!((priors[1].1, priors[1].2), (0.0, 0.0), "reliable host");
    }

    #[test]
    fn checkpoint_flag_resumes_remaining_work() {
        let mut g = grid();
        let mut r = req(1, "good.host", 10.0);
        r.checkpoint_flag = Some("ckpt:6".into());
        g.submit(r);
        let events = drain(&mut g);
        let (t_end, last) = events.last().unwrap();
        assert!(matches!(last.body, N::Done));
        assert_eq!(*t_end, 4.0, "only the remaining 4 units run");
    }

    #[test]
    fn malformed_flag_restarts_from_zero() {
        let mut g = grid();
        let mut r = req(1, "good.host", 10.0);
        r.checkpoint_flag = Some("garbage".into());
        g.submit(r);
        let events = drain(&mut g);
        assert_eq!(events.last().unwrap().0, 10.0);
    }

    #[test]
    fn cancel_suppresses_future_events() {
        let mut g = grid();
        g.submit(req(1, "good.host", 5.0));
        g.submit(req(2, "good.host", 5.0));
        g.cancel(TaskId(1));
        let events = drain(&mut g);
        assert!(events.iter().all(|(_, e)| e.task == TaskId(2)));
        assert!(!events.is_empty());
    }

    #[test]
    fn deadline_limits_delivery() {
        let mut g = grid();
        g.submit(req(1, "good.host", 5.0));
        // TaskStart at 0 arrives within deadline 0.5.
        assert!(g.next_notification(Some(0.5)).is_some());
        // Next heartbeat is at 1.0 — not within 0.5.
        assert!(g.next_notification(Some(0.5)).is_none());
        assert_eq!(g.now(), 0.5);
        assert!(!g.is_idle());
    }

    #[test]
    fn submissions_queue_behind_downtime() {
        let mut g = SimGrid::new(7);
        // MTTF tiny, downtime long: first submit crashes the host.
        g.add_host(ResourceSpec::unreliable("h", 0.5, 50.0));
        g.submit(req(1, "h", 100.0));
        let _ = drain(&mut g);
        let crash_downtime_end = {
            // Second submission must start no earlier than down_until.
            g.submit(req(2, "h", 0.1));
            let events = drain(&mut g);
            events.first().map(|(t, _)| *t).unwrap_or(0.0)
        };
        assert!(crash_downtime_end > 0.0, "start delayed past reboot");
    }

    #[test]
    fn lossy_link_drops_messages() {
        let mut g = SimGrid::new(11).with_link(LinkModel::lossy(0.0, 1.0));
        g.add_host(ResourceSpec::reliable("h"));
        g.submit(req(1, "h", 5.0));
        assert!(g.is_idle(), "everything dropped at the link");
    }

    #[test]
    fn orphan_cancel_lets_in_flight_messages_deliver() {
        // Every message on h travels 3 time units.  The orphan cancel sent
        // at t=3 reaches the host at t=6: it suppresses only what the task
        // would have sent after 6, while everything already in flight (and
        // everything sent before the cancel landed) still arrives.
        let mut g = SimGrid::new(3).with_host_link("h", LinkModel::lossy(3.0, 0.0));
        g.add_host(ResourceSpec::reliable("h"));
        g.submit(req(1, "h", 20.0));
        let (t, first) = g.next_notification(None).expect("TaskStart in flight");
        assert_eq!(t, 3.0, "TaskStart sent at 0 arrives at 3");
        assert!(matches!(first.body, N::TaskStart));
        g.orphan_cancel(TaskId(1));
        let rest = drain(&mut g);
        assert!(!rest.is_empty(), "in-flight messages still deliver");
        assert!(
            rest.iter().all(|(_, e)| e.sent_at <= 6.0),
            "nothing sent after the cancel arrived at t=6 gets out"
        );
        assert!(
            !rest
                .iter()
                .any(|(_, e)| matches!(e.body, N::Done | N::TaskEnd)),
            "the orphan never completes once the cancel lands"
        );
    }

    #[test]
    fn orphan_cancel_for_unknown_task_is_noop() {
        let mut g = grid();
        g.submit(req(1, "good.host", 5.0));
        g.orphan_cancel(TaskId(99));
        let events = drain(&mut g);
        assert!(matches!(events.last().unwrap().1.body, N::Done));
    }

    #[test]
    fn per_host_link_override_applies_only_to_that_host() {
        let mut g = SimGrid::new(9).with_host_link("slow", LinkModel::lossy(5.0, 0.0));
        g.add_host(ResourceSpec::reliable("slow"));
        g.add_host(ResourceSpec::reliable("clean"));
        g.submit(req(1, "slow", 2.0));
        g.submit(req(2, "clean", 2.0));
        for (t, e) in drain(&mut g) {
            if e.task == TaskId(1) {
                assert_eq!(t, e.sent_at + 5.0, "slow host's link delays by 5");
            } else {
                assert_eq!(t, e.sent_at, "clean host keeps the default link");
            }
        }
    }

    #[test]
    fn duplicating_link_doubles_every_message() {
        let baseline = {
            let mut g = SimGrid::new(4);
            g.add_host(ResourceSpec::reliable("h"));
            g.submit(req(1, "h", 5.0));
            drain(&mut g).len()
        };
        let mut g = SimGrid::new(4).with_link(LinkModel::lossy(0.0, 0.0).with_duplicates(1.0));
        g.add_host(ResourceSpec::reliable("h"));
        g.submit(req(1, "h", 5.0));
        assert_eq!(drain(&mut g).len(), baseline * 2);
    }

    #[test]
    fn lossy_deterministic_with_orphan_cancel() {
        let run = |seed| {
            let mut g = SimGrid::new(seed)
                .with_link(LinkModel::jittered(0.2, 0.5, 0.3).with_duplicates(0.1));
            g.add_host(ResourceSpec::reliable("h"));
            g.submit(req(1, "h", 10.0));
            g.submit(req(2, "h", 10.0));
            let first = g.next_notification(None);
            g.orphan_cancel(TaskId(1));
            let mut out = vec![first.map(|(t, e)| (t, e.task, format!("{:?}", e.body)))];
            out.extend(
                drain(&mut g)
                    .into_iter()
                    .map(|(t, e)| Some((t, e.task, format!("{:?}", e.body)))),
            );
            out
        };
        assert_eq!(run(13), run(13));
        assert_ne!(run(13), run(14));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut g = SimGrid::new(seed);
            g.add_host(ResourceSpec::unreliable("h", 10.0, 2.0));
            g.set_profile(
                "p",
                TaskProfile::reliable().with_soft_crash(Dist::exponential_mean(8.0)),
            );
            for i in 0..5 {
                g.submit(req(i, "h", 20.0));
            }
            drain(&mut g)
                .into_iter()
                .map(|(t, e)| (t, e.task, format!("{:?}", e.body)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
