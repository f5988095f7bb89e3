//! A data description of the Grid a job runs on.
//!
//! The service must be able to rebuild a job's executor after a restart,
//! so the Grid is described as plain data (hosts, link, behaviour
//! profiles) rather than a live [`SimGrid`] value.  It is also the one
//! grid model of the CLI: a `--grid` JSON file parses straight into it
//! ([`GridSpec::from_json`]), a job's stored meta record holds the same
//! document ([`GridSpec::to_json`]), and every engine on it —
//! `gridwfs run`'s or a serve worker's — starts from
//! [`GridSpec::engine_config`].
//!
//! Two execution modes:
//!
//! * [`ExecMode::Virtual`] — a discrete-event [`SimGrid`]: virtual time,
//!   failure injection, runs as fast as the CPU allows.  One engine run is
//!   nearly instant regardless of the workflow's simulated makespan.
//! * [`ExecMode::Paced`] — a [`ThreadExecutor`] whose program bodies sleep
//!   `nominal_duration × scale` wall seconds (heartbeating as they go).
//!   This models Grid jobs with real latency, so worker-pool concurrency
//!   is observable in wall-clock time — the mode the load generator uses
//!   to demonstrate throughput.

use std::collections::BTreeMap;
use std::fmt;

use grid_wfs::engine::EngineConfig;
use grid_wfs::sim_executor::TaskProfile;
use grid_wfs::{DetectorPolicy, PhiConfig, SimGrid, TaskResult, ThreadExecutor};
use gridwfs_sim::dist::Dist;
use gridwfs_sim::net::LinkModel;
use gridwfs_sim::resource::ResourceSpec;
use gridwfs_wpdl::ast::Workflow;

use crate::json::{self, child, opt, req, Members, Value};

/// How jobs on this Grid execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecMode {
    /// Discrete-event simulation in virtual time.
    Virtual,
    /// Real threads sleeping `nominal_duration × scale` wall seconds.
    Paced {
        /// Wall seconds per nominal time unit.
        scale: f64,
    },
}

/// One simulated host.
#[derive(Debug, Clone, PartialEq)]
pub struct HostSpec {
    /// Hostname matched against WPDL `<Option hostname=..>`.
    pub hostname: String,
    /// Relative speed.
    pub speed: f64,
    /// Mean time to failure; `None` = failure-free.
    pub mttf: Option<f64>,
    /// Mean downtime after a crash.
    pub downtime: f64,
}

/// Notification link behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Base delivery delay.
    pub delay: f64,
    /// Per-message drop probability.
    pub drop_p: f64,
    /// Uniform extra delay in `[0, jitter)` on top of the base delay.
    pub jitter: f64,
    /// Per-message duplication probability.
    pub dup_p: f64,
}

impl LinkSpec {
    /// A constant-delay, possibly lossy link (no jitter, no duplicates).
    pub fn constant(delay: f64, drop_p: f64) -> Self {
        LinkSpec {
            delay,
            drop_p,
            jitter: 0.0,
            dup_p: 0.0,
        }
    }

    /// Instantiates the simulated link.
    pub fn to_model(&self) -> LinkModel {
        LinkModel::jittered(self.delay, self.jitter, self.drop_p).with_duplicates(self.dup_p)
    }

    /// Writes the link's non-zero fields (the reader defaults a missing
    /// one to zero).
    fn write_json(&self, m: &mut Members<'_>) {
        m.num("delay", non_default(self.delay, 0.0));
        m.num("drop_p", non_default(self.drop_p, 0.0));
        m.num("jitter", non_default(self.jitter, 0.0));
        m.num("dup_p", non_default(self.dup_p, 0.0));
    }

    /// Rejects a link the simulator cannot run; `what` names it in the
    /// error (`link`, `host_links.<host>`).
    fn check(&self, what: &str) -> Result<(), String> {
        if !(self.delay.is_finite() && self.delay >= 0.0) {
            return Err(format!(
                "{what} delay {} must be finite and >= 0",
                self.delay
            ));
        }
        if !(0.0..=1.0).contains(&self.drop_p) {
            return Err(format!("{what} drop_p {} outside [0,1]", self.drop_p));
        }
        if !(self.jitter.is_finite() && self.jitter >= 0.0) {
            return Err(format!(
                "{what} jitter {} must be finite and >= 0",
                self.jitter
            ));
        }
        if !(0.0..=1.0).contains(&self.dup_p) {
            return Err(format!("{what} dup_p {} outside [0,1]", self.dup_p));
        }
        Ok(())
    }
}

/// Crash-presumption policy for every engine run on this Grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorSpec {
    /// Classic fixed timeout; `tolerance` overrides every activity's
    /// declared heartbeat tolerance when set.
    Timeout {
        /// Tolerance override (multiples of the heartbeat interval).
        tolerance: Option<f64>,
    },
    /// Adaptive φ-accrual suspicion at this threshold.
    Phi {
        /// Presumption threshold (suspicion level φ).
        threshold: f64,
    },
}

impl DetectorSpec {
    /// Parses `phi:<threshold>` or `timeout[:<tolerance>]` (the grid
    /// file's `detector` and `gridwfs run --detector`).
    pub fn parse(spec: &str) -> Result<DetectorSpec, String> {
        let (kind, arg) = match spec.split_once(':') {
            Some((k, a)) => (k, Some(a)),
            None => (spec, None),
        };
        let spec = match kind {
            "phi" => {
                let raw = arg.ok_or("detector 'phi' needs a threshold, e.g. phi:8")?;
                let threshold = raw
                    .parse()
                    .map_err(|_| format!("bad phi threshold '{raw}'"))?;
                DetectorSpec::Phi { threshold }
            }
            "timeout" => {
                let tolerance = match arg {
                    None => None,
                    Some(raw) => Some(
                        raw.parse()
                            .map_err(|_| format!("bad timeout tolerance '{raw}'"))?,
                    ),
                };
                DetectorSpec::Timeout { tolerance }
            }
            other => {
                return Err(format!(
                    "unknown detector '{other}' (use phi:<threshold> or timeout[:<tolerance>])"
                ))
            }
        };
        spec.check()?;
        Ok(spec)
    }

    /// Rejects a threshold or tolerance the engine cannot use.
    fn check(&self) -> Result<(), String> {
        match *self {
            DetectorSpec::Phi { threshold } if !(threshold.is_finite() && threshold > 0.0) => {
                Err(format!("phi threshold {threshold} must be finite and > 0"))
            }
            DetectorSpec::Timeout { tolerance: Some(v) } if !(v.is_finite() && v >= 1.0) => {
                Err(format!("timeout tolerance {v} must be >= 1"))
            }
            _ => Ok(()),
        }
    }

    /// The engine-side policy this spec describes.
    pub fn to_policy(&self) -> DetectorPolicy {
        match self {
            DetectorSpec::Timeout { tolerance } => DetectorPolicy::FixedTimeout {
                tolerance: *tolerance,
            },
            DetectorSpec::Phi { threshold } => {
                DetectorPolicy::PhiAccrual(PhiConfig::with_threshold(*threshold))
            }
        }
    }
}

/// The inverse of [`DetectorSpec::parse`]: `phi:6`, `timeout`, `timeout:3`.
impl fmt::Display for DetectorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorSpec::Phi { threshold } => write!(f, "phi:{threshold}"),
            DetectorSpec::Timeout { tolerance: None } => f.write_str("timeout"),
            DetectorSpec::Timeout { tolerance: Some(t) } => write!(f, "timeout:{t}"),
        }
    }
}

/// Placement policy for every engine run on this Grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerSpec {
    /// Blind option cycling plus breaker-skip (the default engine).
    Oblivious,
    /// Evidence-scored placement: φ levels, breaker state, windowed
    /// failure rates, and λ/D priors derived from the declared hosts.
    Resilient,
}

impl SchedulerSpec {
    /// Parses `oblivious` or `resilient` (the grid file's `scheduler` and
    /// `gridwfs run --scheduler`).
    pub fn parse(spec: &str) -> Result<SchedulerSpec, String> {
        match spec {
            "oblivious" => Ok(SchedulerSpec::Oblivious),
            "resilient" => Ok(SchedulerSpec::Resilient),
            other => Err(format!(
                "unknown scheduler '{other}' (use oblivious or resilient)"
            )),
        }
    }

    /// The engine-side policy this spec describes, with per-host failure
    /// priors (λ = 1/MTTF, D = downtime) taken from `hosts`.
    pub fn to_policy(&self, hosts: &[HostSpec]) -> grid_wfs::SchedulerPolicy {
        match self {
            SchedulerSpec::Oblivious => grid_wfs::SchedulerPolicy::Oblivious,
            SchedulerSpec::Resilient => {
                let priors = hosts
                    .iter()
                    .filter_map(|h| {
                        h.mttf.map(|mttf| grid_wfs::HostPrior {
                            host: h.hostname.clone(),
                            lambda: 1.0 / mttf,
                            downtime: h.downtime,
                        })
                    })
                    .collect();
                grid_wfs::SchedulerPolicy::Resilient(grid_wfs::ScorerConfig {
                    priors,
                    ..grid_wfs::ScorerConfig::default()
                })
            }
        }
    }
}

/// The inverse of [`SchedulerSpec::parse`].
impl fmt::Display for SchedulerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SchedulerSpec::Oblivious => "oblivious",
            SchedulerSpec::Resilient => "resilient",
        })
    }
}

/// Behaviour profile of one program's tasks (virtual mode only).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSpec {
    /// Program name the profile applies to.
    pub program: String,
    /// Emit a checkpoint every this many nominal time units.
    pub checkpoint_period: Option<f64>,
    /// Software-crash MTTF (exponential).
    pub soft_crash_mttf: Option<f64>,
    /// Exception injection: (name, checks, per-check probability).
    pub exception: Option<(String, u32, f64)>,
}

/// The full Grid description.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Execution mode.
    pub mode: ExecMode,
    /// Hosts available to workflows.
    pub hosts: Vec<HostSpec>,
    /// Link model (default: perfect).
    pub link: Option<LinkSpec>,
    /// Per-host link overrides (hosts not listed use `link`).
    pub host_links: Vec<(String, LinkSpec)>,
    /// Crash-presumption policy (default: each activity's declared fixed
    /// timeout).
    pub detector: Option<DetectorSpec>,
    /// Placement policy (default: oblivious cycling).
    pub scheduler: Option<SchedulerSpec>,
    /// Per-program behaviour profiles.
    pub profiles: Vec<ProfileSpec>,
}

impl GridSpec {
    /// An empty virtual-time Grid.
    pub fn virtual_grid() -> Self {
        GridSpec {
            mode: ExecMode::Virtual,
            hosts: Vec::new(),
            link: None,
            host_links: Vec::new(),
            detector: None,
            scheduler: None,
            profiles: Vec::new(),
        }
    }

    /// An empty paced Grid (`scale` wall seconds per nominal unit).
    pub fn paced_grid(scale: f64) -> Self {
        assert!(scale > 0.0, "pacing scale must be positive");
        GridSpec {
            mode: ExecMode::Paced { scale },
            ..GridSpec::virtual_grid()
        }
    }

    /// Builder: add a failure-free host.
    pub fn with_host(mut self, hostname: &str, speed: f64) -> Self {
        self.hosts.push(HostSpec {
            hostname: hostname.into(),
            speed,
            mttf: None,
            downtime: 0.0,
        });
        self
    }

    /// Builder: add an unreliable host.
    pub fn with_unreliable_host(
        mut self,
        hostname: &str,
        speed: f64,
        mttf: f64,
        downtime: f64,
    ) -> Self {
        self.hosts.push(HostSpec {
            hostname: hostname.into(),
            speed,
            mttf: Some(mttf),
            downtime,
        });
        self
    }

    /// Builder: set the notification link model.
    pub fn with_link(mut self, delay: f64, drop_p: f64) -> Self {
        self.link = Some(LinkSpec::constant(delay, drop_p));
        self
    }

    /// Builder: set the full notification link model (jitter, duplicates).
    pub fn with_link_spec(mut self, link: LinkSpec) -> Self {
        self.link = Some(link);
        self
    }

    /// Builder: override the link model for one host.
    pub fn with_host_link(mut self, hostname: &str, link: LinkSpec) -> Self {
        self.host_links.push((hostname.into(), link));
        self
    }

    /// Builder: set the crash-presumption policy.
    pub fn with_detector(mut self, detector: DetectorSpec) -> Self {
        self.detector = Some(detector);
        self
    }

    /// The engine-side crash-presumption policy for jobs on this Grid.
    pub fn detector_policy(&self) -> DetectorPolicy {
        self.detector.map(|d| d.to_policy()).unwrap_or_default()
    }

    /// Builder: set the placement policy.
    pub fn with_scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.scheduler = Some(scheduler);
        self
    }

    /// The engine-side placement policy for jobs on this Grid (priors
    /// derived from the declared hosts' MTTF/downtime).
    pub fn scheduler_policy(&self) -> grid_wfs::SchedulerPolicy {
        self.scheduler
            .map(|s| s.to_policy(&self.hosts))
            .unwrap_or_default()
    }

    /// Builder: attach a behaviour profile.
    pub fn with_profile(mut self, profile: ProfileSpec) -> Self {
        self.profiles.push(profile);
        self
    }

    /// The engine configuration every job on this Grid starts from: its
    /// detector and placement policies, and — on a virtual Grid with a
    /// jittering link — a reorder buffer.  Jitter lets a job manager's
    /// `Done` overtake the task's `Task End`, which the §4.1 crash rule
    /// would read as a crash; the buffer holds each notification for the
    /// transport's maximum delivery delay (the largest `delay + jitter`
    /// over all links) and releases them in send order.  Jitter-free and
    /// paced Grids deliver immediately, as the prototype did.
    pub fn engine_config(&self) -> EngineConfig {
        let links = || {
            self.link
                .iter()
                .chain(self.host_links.iter().map(|(_, link)| link))
        };
        let jittered = self.mode == ExecMode::Virtual && links().any(|l| l.jitter > 0.0);
        EngineConfig {
            detector: self.detector_policy(),
            scheduler: self.scheduler_policy(),
            reorder_settle: jittered
                .then(|| links().map(|l| l.delay + l.jitter).fold(0.0, f64::max)),
            ..EngineConfig::default()
        }
    }

    /// Rejects a Grid the simulator cannot run or a job record cannot
    /// store: no hosts, a host with a non-positive speed or MTTF, a link
    /// outside its ranges, a detector [`DetectorSpec::parse`] would
    /// refuse, a non-positive pacing scale, or any non-finite number
    /// (JSON cannot carry one).
    pub fn validate(&self) -> Result<(), String> {
        let infinite = |v: Option<f64>| v.filter(|v| !v.is_finite());
        if self.hosts.is_empty() {
            return Err("grid config declares no hosts".into());
        }
        if let ExecMode::Paced { scale } = self.mode {
            if !(scale.is_finite() && scale > 0.0) {
                return Err(format!("pacing scale {scale} must be finite and > 0"));
            }
        }
        for h in &self.hosts {
            if h.speed <= 0.0 {
                return Err(format!("host {}: speed must be positive", h.hostname));
            }
            if let Some(bad) = h.mttf.filter(|&m| m <= 0.0) {
                return Err(format!("host {}: mttf {bad} must be positive", h.hostname));
            }
            for (field, v) in [
                ("speed", Some(h.speed)),
                ("mttf", h.mttf),
                ("downtime", Some(h.downtime)),
            ] {
                if let Some(v) = infinite(v) {
                    return Err(format!("host {}: {field} {v} must be finite", h.hostname));
                }
            }
        }
        if let Some(link) = &self.link {
            link.check("link")?;
        }
        for (host, link) in &self.host_links {
            link.check(&format!("host_links.{host}"))?;
        }
        if let Some(detector) = &self.detector {
            detector.check()?;
        }
        for p in &self.profiles {
            let prob = p.exception.as_ref().map(|e| e.2);
            for (field, v) in [
                ("checkpoint_period", p.checkpoint_period),
                ("soft_crash_mttf", p.soft_crash_mttf),
                ("exception.prob", prob),
            ] {
                if let Some(v) = infinite(v) {
                    return Err(format!("profiles.{}.{field} {v} must be finite", p.program));
                }
            }
        }
        Ok(())
    }

    /// The spec as a `--grid` file (format: the README's "The grid
    /// file"), the form a job's meta record stores it in.  Every value
    /// the reader would default anyway is left out (`speed` 1,
    /// `downtime` 0, zero link fields, absent options), and so is the
    /// execution mode, which the meta record keeps beside the Grid.
    /// [`GridSpec::from_json`] reads it back; `host_links` and
    /// `profiles` are objects keyed by name, so they come back sorted.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |m| self.write_json(m));
        out
    }

    /// Writes the members of [`GridSpec::to_json`]'s object.
    pub(crate) fn write_json(&self, m: &mut Members<'_>) {
        m.array("hosts", &self.hosts, |m, h| {
            m.str("hostname", &h.hostname);
            m.num("speed", non_default(h.speed, 1.0));
            m.num("mttf", h.mttf);
            m.num("downtime", non_default(h.downtime, 0.0));
        });
        if let Some(link) = &self.link {
            m.object("link", |m| link.write_json(m));
        }
        if !self.host_links.is_empty() {
            m.object("host_links", |m| {
                for (host, link) in &self.host_links {
                    m.object(host, |m| link.write_json(m));
                }
            });
        }
        if let Some(detector) = &self.detector {
            m.str("detector", &detector.to_string());
        }
        if let Some(scheduler) = &self.scheduler {
            m.str("scheduler", &scheduler.to_string());
        }
        if !self.profiles.is_empty() {
            m.object("profiles", |m| {
                for p in &self.profiles {
                    m.object(&p.program, |m| {
                        m.num("checkpoint_period", p.checkpoint_period);
                        m.num("soft_crash_mttf", p.soft_crash_mttf);
                        if let Some((name, checks, prob)) = &p.exception {
                            m.object("exception", |m| {
                                m.str("name", name);
                                m.uint("checks", u64::from(*checks));
                                m.num("prob", *prob);
                            });
                        }
                    });
                }
            });
        }
    }

    /// Parses a `--grid` JSON file (format: the README's "The grid file")
    /// into a validated virtual-time spec plus the file's RNG `seed`
    /// (default 2003, the paper's year).  Only `hosts` and each host's
    /// `hostname` are required; `speed` defaults to 1, `downtime` and
    /// every link field to 0, `null` reads as absent, unknown keys are
    /// ignored, and `host_links` and `profiles` come out sorted by key.
    pub fn from_json(text: &str) -> Result<(GridSpec, u64), String> {
        let doc = json::parse(text).map_err(|e| format!("grid config: {e}"))?;
        let (spec, seed) = spec_from_json(&doc).map_err(|e| format!("grid config: {e}"))?;
        spec.validate()?;
        Ok((spec, seed))
    }

    /// Instantiates the virtual-time simulated Grid.
    pub fn build_sim(&self, seed: u64) -> SimGrid {
        let mut grid = SimGrid::new(seed);
        if let Some(link) = &self.link {
            grid = grid.with_link(link.to_model());
        }
        for (host, link) in &self.host_links {
            grid.set_host_link(host.clone(), link.to_model());
        }
        for h in &self.hosts {
            let spec = match h.mttf {
                Some(mttf) => ResourceSpec::unreliable(&h.hostname, mttf, h.downtime),
                None => ResourceSpec::reliable(&h.hostname),
            }
            .with_speed(h.speed);
            grid.add_host(spec);
        }
        for p in &self.profiles {
            let mut profile = TaskProfile::reliable();
            if let Some(period) = p.checkpoint_period {
                profile = profile.with_checkpoints(period);
            }
            if let Some(mttf) = p.soft_crash_mttf {
                profile = profile.with_soft_crash(Dist::exponential_mean(mttf));
            }
            if let Some((name, checks, prob)) = &p.exception {
                profile = profile.with_exception(name.clone(), *checks, *prob);
            }
            grid.set_profile(&p.program, profile);
        }
        grid
    }

    /// Instantiates the paced thread executor for `workflow`: every
    /// program becomes a closure that sleeps its scaled nominal duration
    /// (divided by the fastest declared host speed), heartbeating along
    /// the way and returning early when cancelled.
    pub fn build_paced(&self, workflow: &Workflow, scale: f64) -> ThreadExecutor {
        let speedup = self
            .hosts
            .iter()
            .map(|h| h.speed)
            .fold(1.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        let mut executor = ThreadExecutor::new();
        for program in &workflow.programs {
            let wall = (program.nominal_duration / speedup * scale).max(0.001);
            executor.register(program.name.clone(), move |ctx| {
                let hb = (wall / 4.0).clamp(0.002, 0.05);
                ctx.work_for(wall, hb);
                TaskResult::Success
            });
        }
        executor
    }
}

fn link_from_json(v: &Value, path: &str) -> Result<LinkSpec, String> {
    v.as_object(path)?;
    let num = |key| opt(v, path, key, Value::as_f64).map(|x| x.unwrap_or(0.0));
    Ok(LinkSpec {
        delay: num("delay")?,
        drop_p: num("drop_p")?,
        jitter: num("jitter")?,
        dup_p: num("dup_p")?,
    })
}

/// `v`, or `None` when it is the value the reader defaults to anyway.
fn non_default(v: f64, default: f64) -> Option<f64> {
    (v != default).then_some(v)
}

/// Reads a parsed `--grid` document: the spec (virtual-time, not yet
/// validated) and the file's `seed`.
pub(crate) fn spec_from_json(doc: &Value) -> Result<(GridSpec, u64), String> {
    doc.as_object("document")?;
    let seed = opt(doc, "", "seed", Value::as_u64)?.unwrap_or(2003);
    let mut spec = GridSpec::virtual_grid();
    for (i, h) in req(doc, "", "hosts", Value::as_array)?.iter().enumerate() {
        let path = format!("hosts[{i}]");
        h.as_object(&path)?;
        spec.hosts.push(HostSpec {
            hostname: req(h, &path, "hostname", Value::as_str)?.to_string(),
            speed: opt(h, &path, "speed", Value::as_f64)?.unwrap_or(1.0),
            mttf: opt(h, &path, "mttf", Value::as_f64)?,
            downtime: opt(h, &path, "downtime", Value::as_f64)?.unwrap_or(0.0),
        });
    }
    spec.link = opt(doc, "", "link", link_from_json)?;
    // Objects come out sorted by key: host links and profiles keep a
    // stable order whatever order the file lists them in.
    let no_members = BTreeMap::new();
    let host_links = opt(doc, "", "host_links", Value::as_object)?;
    for (host, link) in host_links.unwrap_or(&no_members) {
        let link = link_from_json(link, &child("host_links", host))?;
        spec.host_links.push((host.clone(), link));
    }
    if let Some(d) = opt(doc, "", "detector", Value::as_str)? {
        spec.detector = Some(DetectorSpec::parse(d)?);
    }
    if let Some(s) = opt(doc, "", "scheduler", Value::as_str)? {
        spec.scheduler = Some(SchedulerSpec::parse(s)?);
    }
    for (program, p) in opt(doc, "", "profiles", Value::as_object)?.unwrap_or(&no_members) {
        let path = child("profiles", program);
        p.as_object(&path)?;
        let exception = |e: &Value, path: &str| -> Result<_, String> {
            e.as_object(path)?;
            Ok((
                req(e, path, "name", Value::as_str)?.to_string(),
                req(e, path, "checks", Value::as_uint::<u32>)?,
                req(e, path, "prob", Value::as_f64)?,
            ))
        };
        spec.profiles.push(ProfileSpec {
            program: program.clone(),
            checkpoint_period: opt(p, &path, "checkpoint_period", Value::as_f64)?,
            soft_crash_mttf: opt(p, &path, "soft_crash_mttf", Value::as_f64)?,
            exception: opt(p, &path, "exception", exception)?,
        });
    }
    Ok((spec, seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GridSpec {
        GridSpec::paced_grid(0.01)
            .with_host("fast.example.org", 2.0)
            .with_unreliable_host("flaky.example.org", 1.0, 80.0, 4.0)
            .with_link(0.5, 0.01)
            .with_profile(ProfileSpec {
                program: "solver".into(),
                checkpoint_period: Some(10.0),
                soft_crash_mttf: None,
                exception: Some(("disk_full".into(), 4, 0.05)),
            })
    }

    /// `to_json` and back: equal, with defaults left out of the text.
    fn round_trip(spec: &GridSpec) -> String {
        let text = spec.to_json();
        let (back, _) = GridSpec::from_json(&text).unwrap();
        assert_eq!(&back, spec, "{text}");
        text
    }

    /// The Grid a meta record stores (its manifest) reads back equal.
    #[test]
    fn manifest_round_trips() {
        // The execution mode lives beside the Grid in the meta record.
        let text = round_trip(&GridSpec {
            mode: ExecMode::Virtual,
            ..sample()
        });
        assert_eq!(
            text,
            r#"{"hosts":[{"hostname":"fast.example.org","speed":2},"#.to_owned()
                + r#"{"hostname":"flaky.example.org","mttf":80,"downtime":4}],"#
                + r#""link":{"delay":0.5,"drop_p":0.01},"#
                + r#""profiles":{"solver":{"checkpoint_period":10,"#
                + r#""exception":{"name":"disk_full","checks":4,"prob":0.05}}}}"#
        );
        // A perfect link is still a link.
        let perfect = GridSpec::virtual_grid()
            .with_host("h", 1.0)
            .with_link(0.0, 0.0);
        assert_eq!(
            round_trip(&perfect),
            r#"{"hosts":[{"hostname":"h"}],"link":{}}"#
        );
    }

    /// Lossy links, per-host links and both detectors survive the round trip.
    #[test]
    fn manifest_round_trips_lossy_extensions() {
        let lossy = GridSpec::virtual_grid()
            .with_host("h one", 1.0)
            .with_host("h2", 1.0)
            .with_link_spec(LinkSpec {
                delay: 0.2,
                drop_p: 0.1,
                jitter: 0.5,
                dup_p: 0.05,
            })
            .with_host_link("h one", LinkSpec::constant(3.0, 0.25))
            .with_host_link("h2", LinkSpec::constant(0.0, 0.0))
            .with_detector(DetectorSpec::Phi { threshold: 8.0 });
        let text = round_trip(&lossy);
        assert!(text.contains(r#""host_links":{"h one":{"delay":3,"drop_p":0.25},"h2":{}}"#));
        for detector in [
            DetectorSpec::Timeout { tolerance: None },
            DetectorSpec::Timeout {
                tolerance: Some(2.5),
            },
        ] {
            round_trip(
                &GridSpec::virtual_grid()
                    .with_host("h", 1.0)
                    .with_detector(detector),
            );
        }
    }

    #[test]
    fn validate_refuses_what_a_record_cannot_store() {
        let ok = GridSpec::virtual_grid().with_host("h", 1.0);
        let profile = |checkpoint_period, prob| ProfileSpec {
            program: "p".into(),
            checkpoint_period,
            soft_crash_mttf: None,
            exception: Some(("e".into(), 1, prob)),
        };
        for (grid, want) in [
            (GridSpec::virtual_grid(), "grid config declares no hosts"),
            (
                ok.clone().with_host("inf", f64::INFINITY),
                "host inf: speed inf must be finite",
            ),
            (
                ok.clone().with_unreliable_host("u", 1.0, f64::NAN, 1.0),
                "host u: mttf NaN must be finite",
            ),
            (
                ok.clone()
                    .with_unreliable_host("u", 1.0, 5.0, f64::INFINITY),
                "host u: downtime inf must be finite",
            ),
            (
                ok.clone().with_profile(profile(Some(f64::NAN), 0.5)),
                "profiles.p.checkpoint_period NaN must be finite",
            ),
            (
                ok.clone().with_profile(profile(None, f64::INFINITY)),
                "profiles.p.exception.prob inf must be finite",
            ),
            (
                ok.clone()
                    .with_detector(DetectorSpec::Phi { threshold: 0.0 }),
                "phi threshold 0 must be finite and > 0",
            ),
            (
                ok.clone().with_detector(DetectorSpec::Timeout {
                    tolerance: Some(f64::INFINITY),
                }),
                "timeout tolerance inf must be >= 1",
            ),
            (
                GridSpec {
                    mode: ExecMode::Paced { scale: f64::NAN },
                    ..ok.clone()
                },
                "pacing scale NaN must be finite and > 0",
            ),
        ] {
            assert_eq!(grid.validate(), Err(want.to_string()));
        }
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn detector_policies_map_to_engine_policies() {
        use grid_wfs::DetectorPolicy;
        assert_eq!(
            GridSpec::virtual_grid().detector_policy(),
            DetectorPolicy::default()
        );
        let phi = GridSpec::virtual_grid()
            .with_detector(DetectorSpec::Phi { threshold: 5.0 })
            .detector_policy();
        match phi {
            DetectorPolicy::PhiAccrual(cfg) => assert_eq!(cfg.threshold, 5.0),
            other => panic!("expected phi policy, got {other:?}"),
        }
    }

    #[test]
    fn scheduler_directive_round_trips_and_maps_to_policy() {
        use grid_wfs::SchedulerPolicy;
        // Unset: no stored key, and the default (oblivious) engine policy.
        let unset = GridSpec::virtual_grid();
        assert!(!unset.to_json().contains("scheduler"));
        assert!(matches!(
            unset.scheduler_policy(),
            SchedulerPolicy::Oblivious
        ));
        for spec in [SchedulerSpec::Oblivious, SchedulerSpec::Resilient] {
            let grid = GridSpec::virtual_grid()
                .with_host("ok.example.org", 1.0)
                .with_unreliable_host("flaky.example.org", 1.0, 50.0, 4.0)
                .with_scheduler(spec);
            round_trip(&grid);
        }
        let resilient = GridSpec::virtual_grid()
            .with_host("ok.example.org", 1.0)
            .with_unreliable_host("flaky.example.org", 1.0, 50.0, 4.0)
            .with_scheduler(SchedulerSpec::Resilient);
        match resilient.scheduler_policy() {
            SchedulerPolicy::Resilient(cfg) => {
                // Only the unreliable host carries a prior, with λ = 1/MTTF.
                assert_eq!(cfg.priors.len(), 1);
                assert_eq!(cfg.priors[0].host, "flaky.example.org");
                assert!((cfg.priors[0].lambda - 0.02).abs() < 1e-12);
                assert_eq!(cfg.priors[0].downtime, 4.0);
            }
            other => panic!("expected resilient policy, got {other:?}"),
        }
    }

    #[test]
    fn grid_json_parses_with_defaults_and_sorted_maps() {
        let (spec, seed) = GridSpec::from_json(
            r#"{"seed": 7, "comment": [1, {}],
                "hosts": [{"hostname": "h2", "speed": 2, "mttf": 50, "downtime": 3},
                          {"hostname": "h1", "mttf": null, "rack": 4}],
                "link": {"jitter": 0.5},
                "host_links": {"h2": {"delay": 2}, "h1": {"delay": 1, "drop_p": 0.1}},
                "detector": "phi:6", "scheduler": "resilient",
                "profiles": {"z": {"soft_crash_mttf": 9},
                             "a": {"exception": {"name": "oom", "checks": 3, "prob": 0.5}}}}"#,
        )
        .unwrap();
        assert_eq!(seed, 7);
        let profile = |program: &str, soft_crash_mttf, exception| ProfileSpec {
            program: program.into(),
            checkpoint_period: None,
            soft_crash_mttf,
            exception,
        };
        // Hosts keep file order; host links and profiles come out sorted.
        let want = GridSpec::virtual_grid()
            .with_unreliable_host("h2", 2.0, 50.0, 3.0)
            .with_host("h1", 1.0)
            .with_link_spec(LinkSpec {
                jitter: 0.5,
                ..LinkSpec::constant(0.0, 0.0)
            })
            .with_host_link("h1", LinkSpec::constant(1.0, 0.1))
            .with_host_link("h2", LinkSpec::constant(2.0, 0.0))
            .with_detector(DetectorSpec::Phi { threshold: 6.0 })
            .with_scheduler(SchedulerSpec::Resilient)
            .with_profile(profile("a", None, Some(("oom".into(), 3, 0.5))))
            .with_profile(profile("z", Some(9.0), None));
        assert_eq!(spec, want);
        // Seed 2003 by default; seeds above 2^53 stay exact.
        let seed = |json: &str| GridSpec::from_json(json).unwrap().1;
        assert_eq!(seed(r#"{"hosts": [{"hostname": "h"}]}"#), 2003);
        let big = r#"{"seed": 9007199254740993, "hosts": [{"hostname": "h"}]}"#;
        assert_eq!(seed(big), 9_007_199_254_740_993);
    }

    #[test]
    fn grid_json_errors_name_the_problem() {
        let e = |json: &str| GridSpec::from_json(json).unwrap_err();
        assert!(e("{").starts_with("grid config: line 1 column 2:"));
        let h = |rest: &str| e(&format!(r#"{{"hosts": [{{"hostname": "h"}}], {rest}}}"#));
        for (got, want) in [
            (e(r#"{"hosts": []}"#), "grid config declares no hosts"),
            (
                e(r#"{"hosts": [{"hostname": "h", "speed": 0.0}]}"#),
                "host h: speed must be positive",
            ),
            (
                e(r#"{"hosts": [{"hostname": "h", "mttf": -2}]}"#),
                "host h: mttf -2 must be positive",
            ),
            (h(r#""link": {"drop_p": 2.0}"#), "link drop_p 2 outside [0,1]"),
            (h(r#""link": {"delay": -1}"#), "link delay -1 must be finite and >= 0"),
            (h(r#""link": {"jitter": -1}"#), "link jitter -1 must be finite and >= 0"),
            (h(r#""link": {"dup_p": 2.0}"#), "link dup_p 2 outside [0,1]"),
            (
                h(r#""host_links": {"h": {"drop_p": -0.5}}"#),
                "host_links.h drop_p -0.5 outside [0,1]",
            ),
            (
                h(r#""detector": "voodoo""#),
                "grid config: unknown detector 'voodoo' (use phi:<threshold> or timeout[:<tolerance>])",
            ),
            (
                h(r#""scheduler": "voodoo""#),
                "grid config: unknown scheduler 'voodoo' (use oblivious or resilient)",
            ),
            // Shape errors name the field path.
            (e("{}"), "grid config: missing field 'hosts'"),
            (e("[]"), "grid config: document: expected an object, found an array"),
            (
                e(r#"{"hosts": [{"speed": 2}]}"#),
                "grid config: missing field 'hosts[0].hostname'",
            ),
            (
                e(r#"{"hosts": [{"hostname": "h", "speed": "fast"}]}"#),
                "grid config: hosts[0].speed: expected a number, found a string",
            ),
            (
                h(r#""seed": 1.5"#),
                "grid config: seed: expected an unsigned integer, found 1.5",
            ),
            (
                h(r#""profiles": {"p": {"exception": {"name": "x", "checks": -1, "prob": 0.1}}}"#),
                "grid config: profiles.p.exception.checks: expected an unsigned integer, found -1",
            ),
            (
                h(r#""host_links": []"#),
                "grid config: host_links: expected an object, found an array",
            ),
        ] {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn detector_specs_parse_and_validate() {
        assert_eq!(
            DetectorSpec::parse("phi:8").unwrap(),
            DetectorSpec::Phi { threshold: 8.0 }
        );
        assert_eq!(
            DetectorSpec::parse("timeout").unwrap(),
            DetectorSpec::Timeout { tolerance: None }
        );
        assert_eq!(
            DetectorSpec::parse("timeout:4.5").unwrap(),
            DetectorSpec::Timeout {
                tolerance: Some(4.5)
            }
        );
        assert!(DetectorSpec::parse("phi").is_err(), "phi needs a threshold");
        assert!(DetectorSpec::parse("phi:-1").is_err());
        assert!(DetectorSpec::parse("phi:soon").is_err());
        assert!(DetectorSpec::parse("timeout:0.5").is_err(), "tolerance < 1");
        assert!(DetectorSpec::parse("voodoo:3").is_err());
        // Display is the inverse of parse.
        for text in ["phi:6", "phi:0.5", "timeout", "timeout:3"] {
            assert_eq!(DetectorSpec::parse(text).unwrap().to_string(), text);
        }
    }

    #[test]
    fn scheduler_specs_parse_and_validate() {
        assert_eq!(
            SchedulerSpec::parse("oblivious").unwrap(),
            SchedulerSpec::Oblivious
        );
        assert_eq!(
            SchedulerSpec::parse("resilient").unwrap(),
            SchedulerSpec::Resilient
        );
        assert!(SchedulerSpec::parse("voodoo").is_err());
        for text in ["oblivious", "resilient"] {
            assert_eq!(SchedulerSpec::parse(text).unwrap().to_string(), text);
        }
        assert!(SchedulerSpec::parse("").is_err());
    }

    #[test]
    fn engine_config_buffers_exactly_the_jittered_virtual_grids() {
        let settle = |grid: &GridSpec| grid.engine_config().reorder_settle;
        let jittery = |delay, jitter| LinkSpec {
            jitter,
            ..LinkSpec::constant(delay, 0.0)
        };
        let grid = GridSpec::virtual_grid().with_host("h1", 1.0);
        // No link, or links without jitter: deliver immediately.
        assert_eq!(settle(&grid), None);
        let steady = grid.clone().with_link(0.5, 0.1);
        assert_eq!(
            settle(&steady.with_host_link("h1", jittery(3.0, 0.0))),
            None
        );
        // Any jittering link, default or per-host: hold for the largest
        // delay + jitter over all links.
        let mixed = grid
            .clone()
            .with_link_spec(jittery(0.05, 0.4))
            .with_host_link("h1", jittery(0.3, 0.8))
            .with_host_link("h2", jittery(0.2, 0.0));
        assert_eq!(settle(&mixed), Some(0.3 + 0.8));
        assert_eq!(
            settle(&grid.with_host_link("h2", jittery(0.0, 2.0))),
            Some(2.0)
        );
        // Paced grids run on the wall clock: no buffer.
        let paced = GridSpec {
            mode: ExecMode::Paced { scale: 0.01 },
            ..mixed.clone()
        };
        assert_eq!(settle(&paced), None);
        // The policies ride along.
        let config = mixed
            .with_detector(DetectorSpec::Phi { threshold: 5.0 })
            .with_scheduler(SchedulerSpec::Resilient)
            .engine_config();
        assert!(matches!(config.detector, DetectorPolicy::PhiAccrual(_)));
        assert!(matches!(
            config.scheduler,
            grid_wfs::SchedulerPolicy::Resilient(_)
        ));
    }

    #[test]
    fn build_sim_has_declared_hosts() {
        let grid = sample().build_sim(7);
        assert!(grid.has_host("fast.example.org"));
        assert!(grid.has_host("flaky.example.org"));
        assert!(!grid.has_host("ghost"));
    }
}
