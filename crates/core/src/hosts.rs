//! Host health: one record per host, read by two optional policies.
//!
//! The paper's recovery ladder sees hosts only through the options a
//! program lists, but a host that just failed three tasks in a row will
//! very likely fail the fourth.  The engine keeps what each settled attempt
//! says about its host in one `HostTable` and uses it to avoid, rank and
//! pace hosts (the runtime resilience signals of WRATH):
//!
//! * **breaker** (`EngineConfig::breaker`): `threshold` consecutive
//!   failures open a host for a decorrelated-jitter backoff
//!   (`min(max_delay, uniform(base_delay, 3 · prev_delay))`, AWS-style)
//!   from a seeded SplitMix64 stream; the next submission is a half-open
//!   probe, which closes the breaker on success and re-opens it on failure.
//! * **scorer** (`SchedulerPolicy::Resilient`): lower = healthier,
//!
//!   ```text
//!   score(h) = W_RATE · windowed failure rate + W_PHI · max live φ
//!            + W_JITTER · max live jitter + W_HALFOPEN · [half-open]
//!            + W_PRIOR · λ(h) · (duration + D(h))
//!   ```
//!
//!   with the live terms read from the engine's open attempts.  Zero
//!   evidence reproduces oblivious placement exactly.  The scorer also
//!   paces checkpoints by Young's √(2·C·MTTF) over the observed MTTF.
//!
//! Placement degrades, it never deadlocks: when every candidate is open,
//! excluded or suspect, the engine falls back to plain option cycling.  A
//! table with neither policy records nothing.

use std::collections::BTreeMap;

use gridwfs_chaos::{splitmix64, unit};
use gridwfs_trace::TraceKind;
use gridwfs_wpdl::ast::Program;

/// Outcomes remembered per host for the windowed failure rate.
pub const WINDOW: u32 = 16;
/// Weight of the windowed failure rate.
pub const W_RATE: f64 = 8.0;
/// Weight of the live φ level (per unit φ).
pub const W_PHI: f64 = 1.0;
/// Weight of the heartbeat jitter (per second of σ).
pub const W_JITTER: f64 = 0.5;
/// Weight of the λ·(duration + D) prior term.
pub const W_PRIOR: f64 = 4.0;
/// Additive penalty while a host's breaker is half-open: the probe exists
/// to test the host, not to receive fresh work.
pub const W_HALFOPEN: f64 = 2.0;
/// Scores at or above this mark a host *suspect*: skipped when any
/// non-suspect candidate exists, forcing the fallback when none does.
pub const SUSPECT_SCORE: f64 = 6.0;
/// Live φ level at which a replica is pre-emptively re-replicated off its
/// host.  Must sit above the cold-window ramp's healthy ceiling
/// (`threshold / tolerance` per heartbeat interval of silence, ≈2.7 at the
/// detector's defaults) or warm-up jitter evacuates perfectly healthy
/// attempts.
pub const REREPLICATE_PHI: f64 = 4.0;
/// Pre-emptive moves allowed per slot per attempt (a budget, so a flapping
/// φ cannot thrash a replica between hosts forever).
pub const MAX_REREPLICATIONS: u32 = 1;
/// Checkpoint cost C in Young's interval √(2·C·MTTF), in task seconds.
pub const CKPT_COST: f64 = 1.0;

/// Which placement policy the engine runs.  `Oblivious` (the default) is
/// option cycling plus breaker-skip, as before the scorer existed.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum SchedulerPolicy {
    /// Blind option cycling (`tries % n`), skipping open breakers.
    #[default]
    Oblivious,
    /// Evidence-driven placement by the host table's scorer, with these
    /// simulator-derived per-host failure priors.
    Resilient(Vec<HostPrior>),
}

/// A simulator-derived failure prior for one host: exponential failure
/// rate λ (1/MTTF) and mean downtime D.  Hosts without a prior score as
/// failure-free until live evidence says otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct HostPrior {
    /// Hostname the prior describes.
    pub host: String,
    /// Failure rate λ = 1 / MTTF (0 for failure-free hosts).
    pub lambda: f64,
    /// Mean downtime after a crash, in executor seconds.
    pub downtime: f64,
}

/// Tuning for the per-host circuit breaker.  Off by default: the engine
/// only runs the breaker policy when `EngineConfig::breaker` is `Some`.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerConfig {
    /// Consecutive failures on one host that open its breaker.
    pub threshold: u32,
    /// Backoff floor in executor seconds (first open waits at least this).
    pub base_delay: f64,
    /// Backoff ceiling in executor seconds.
    pub max_delay: f64,
    /// Seed for the decorrelated-jitter stream (deterministic per run).
    pub seed: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            threshold: 3,
            base_delay: 1.0,
            max_delay: 60.0,
            seed: 2003,
        }
    }
}

/// The outcome of a scored placement decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// Index into the program's options.
    pub index: usize,
    /// The chosen candidate's score.
    pub score: f64,
    /// True when the choice differs from the oblivious cycling base.
    pub steered: bool,
}

/// A host's breaker; `Open` holds the executor time its backoff ends.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
enum State {
    #[default]
    Closed,
    Open(f64),
    HalfOpen,
}

/// Everything the engine knows about one host.
#[derive(Debug, Default)]
struct HostRecord {
    // Breaker: failures since the last success, the state (`Closed` unless
    // the breaker opened it), and the last backoff drawn since the breaker
    // last closed, the base of the next (`None`: the floor).
    consecutive: u32,
    state: State,
    prev_delay: Option<f64>,
    // Scorer: the last `len` (at most `WINDOW`) outcomes as a shift
    // register (bit 0 the newest, set = failure), and the failure count,
    // last failure time and online mean inter-failure gap (observed MTTF).
    outcomes: u32,
    len: u32,
    failures: u64,
    last_failure_at: f64,
    mean_gap: f64,
    /// The simulator prior (λ, D), if the Grid gave one.
    prior: Option<(f64, f64)>,
    /// The checkpoint interval last journalled for the host.
    ckpt_interval: Option<f64>,
}

impl HostRecord {
    /// Is the breaker open (still inside its backoff) at `now`?
    fn blocked(&self, now: f64) -> bool {
        matches!(self.state, State::Open(until) if now < until)
    }

    /// Feeds one outcome to the windowed rate and, for a failure, to the
    /// inter-failure MTTF estimate.
    fn observe(&mut self, failed: bool, now: f64) {
        self.outcomes = ((self.outcomes << 1) | u32::from(failed)) & ((1 << WINDOW) - 1);
        self.len = (self.len + 1).min(WINDOW);
        if !failed {
            return;
        }
        if self.failures > 0 {
            let gap = (now - self.last_failure_at).max(0.0);
            self.mean_gap += (gap - self.mean_gap) / self.failures as f64;
        }
        self.failures += 1;
        self.last_failure_at = now;
    }

    /// Windowed failure rate in `[0, 1]` (0 when unobserved).
    fn failure_rate(&self) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.outcomes.count_ones() as f64 / self.len as f64
    }

    /// Observed MTTF: the mean inter-failure gap, else the prior's 1/λ,
    /// else `None` for a host with no failure evidence at all.
    fn mttf(&self) -> Option<f64> {
        if self.failures >= 2 && self.mean_gap > 0.0 {
            return Some(self.mean_gap);
        }
        match self.prior {
            Some((lambda, _)) if lambda > 0.0 => Some(1.0 / lambda),
            _ => None,
        }
    }
}

/// The score of one candidate host (see the module docs): pure arithmetic,
/// no RNG, no clock reads.  `rec` is `None` for a host never seen.
fn score(rec: Option<&HostRecord>, duration: f64, phi: f64, jitter: f64) -> f64 {
    let rate = rec.map_or(0.0, HostRecord::failure_rate);
    let mut s = W_RATE * rate + W_PHI * phi.max(0.0) + W_JITTER * jitter.max(0.0);
    if let Some(r) = rec {
        if r.state == State::HalfOpen {
            s += W_HALFOPEN;
        }
        if let Some((lambda, downtime)) = r.prior {
            s += W_PRIOR * lambda * (duration.max(0.0) + downtime);
        }
    }
    s
}

/// The breaker policy: its tuning and its jitter stream.
#[derive(Debug)]
struct Breaker {
    cfg: BreakerConfig,
    rng: u64,
}

impl Breaker {
    /// Decorrelated jitter (AWS): uniform between the floor and three times
    /// the previous delay, capped.
    fn jitter_delay(&mut self, prev: f64) -> f64 {
        let lo = self.cfg.base_delay;
        let hi = (prev * 3.0).max(lo);
        let u = unit(splitmix64(self.rng));
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        (lo + u * (hi - lo)).min(self.cfg.max_delay)
    }

    fn failure(&mut self, host: &str, rec: &mut HostRecord, now: f64) -> Option<TraceKind> {
        // Draw the jitter unconditionally: the stream depends only on the
        // failure sequence, not on which failures cause transitions.
        let delay = self.jitter_delay(rec.prev_delay.unwrap_or(self.cfg.base_delay));
        rec.consecutive = rec.consecutive.saturating_add(1);
        let opens = match rec.state {
            State::Closed => rec.consecutive >= self.cfg.threshold.max(1),
            State::HalfOpen => true, // failed probe re-opens immediately
            State::Open(_) => false,
        };
        if !opens {
            return None;
        }
        rec.prev_delay = Some(delay);
        let until = now + delay;
        rec.state = State::Open(until);
        let host = host.to_string();
        Some(TraceKind::BreakerOpen { host, until })
    }

    fn success(&self, host: &str, rec: &mut HostRecord) -> Option<TraceKind> {
        rec.consecutive = 0;
        if rec.state == State::Closed {
            return None;
        }
        rec.state = State::Closed;
        rec.prev_delay = None;
        let host = host.to_string();
        Some(TraceKind::BreakerClosed { host })
    }
}

/// The engine's one record per host, with the breaker and the scorer as
/// optional policies over it.
#[derive(Debug, Default)]
pub(crate) struct HostTable {
    breaker: Option<Breaker>,
    scoring: bool,
    hosts: BTreeMap<String, HostRecord>,
}

impl HostTable {
    /// A table running the breaker when `breaker` is `Some` and the scorer
    /// under `SchedulerPolicy::Resilient`, whose priors it records.
    pub fn new(breaker: Option<BreakerConfig>, scheduler: &SchedulerPolicy) -> Self {
        let mut table = HostTable {
            breaker: breaker.map(|cfg| Breaker { rng: cfg.seed, cfg }),
            ..HostTable::default()
        };
        if let SchedulerPolicy::Resilient(priors) = scheduler {
            table.scoring = true;
            for p in priors {
                table.hosts.entry(p.host.clone()).or_default().prior = Some((p.lambda, p.downtime));
            }
        }
        table
    }

    /// Does the breaker policy run?
    pub fn breaker_on(&self) -> bool {
        self.breaker.is_some()
    }

    /// Does the scorer policy run?
    pub fn scorer_on(&self) -> bool {
        self.scoring
    }

    /// Records a settled attempt on `host` (a success, a crash or a presumed
    /// death); returns the breaker transition it caused, to journal.
    pub fn record(&mut self, host: &str, ok: bool, now: f64) -> Option<TraceKind> {
        if !self.scoring && self.breaker.is_none() {
            return None;
        }
        if !self.hosts.contains_key(host) {
            self.hosts.insert(host.to_string(), HostRecord::default());
        }
        let rec = self.hosts.get_mut(host).expect("inserted above");
        if self.scoring {
            rec.observe(!ok, now);
        }
        match self.breaker.as_mut() {
            Some(b) if ok => b.success(host, rec),
            Some(b) => b.failure(host, rec, now),
            None => None,
        }
    }

    /// Is `host`'s breaker open (still inside its backoff) at `now`?
    pub fn is_blocked(&self, host: &str, now: f64) -> bool {
        self.breaker.is_some() && self.hosts.get(host).is_some_and(|r| r.blocked(now))
    }

    /// The engine submits to `host`: if its breaker is open (backoff over,
    /// or forced), this is the half-open probe, and `true` says so.
    pub fn on_submit(&mut self, host: &str) -> bool {
        if self.breaker.is_none() {
            return false;
        }
        match self.hosts.get_mut(host) {
            Some(r) if matches!(r.state, State::Open(_)) => r.state = State::HalfOpen,
            _ => return false,
        }
        true
    }

    /// The scorer's pick among `program`'s options, visited in cycling order
    /// from `base`; `signal` gives a host's live `(φ, jitter)`.  Hosts in
    /// `exclude`, open hosts and hosts scoring [`SUSPECT_SCORE`] or more are
    /// skipped.  `None` when the scorer is off or skips every candidate.
    pub fn choose(
        &self,
        program: &Program,
        base: usize,
        now: f64,
        exclude: &[&str],
        signal: impl Fn(&str) -> (f64, f64),
    ) -> Option<Placement> {
        let n = program.options.len();
        if !self.scoring || n == 0 {
            return None;
        }
        let base = base % n;
        let mut best: Option<Placement> = None;
        for k in 0..n {
            let i = (base + k) % n;
            let host = program.options[i].hostname.as_str();
            let rec = self.hosts.get(host);
            if exclude.contains(&host) || rec.is_some_and(|r| r.blocked(now)) {
                continue;
            }
            let (phi, jitter) = signal(host);
            let score = score(rec, program.nominal_duration, phi, jitter);
            if score >= SUSPECT_SCORE {
                continue;
            }
            // Strict less-than keeps the first (cycling-order) candidate
            // on ties — the zero-evidence path is the oblivious path.
            if best.as_ref().is_none_or(|b| score < b.score) {
                best = Some(Placement {
                    index: i,
                    score,
                    steered: i != base,
                });
            }
        }
        best
    }

    /// Young's checkpoint interval √(2·C·MTTF) for `host` under the
    /// scorer, the MTTF behind it, and whether it changed since the last
    /// call; `None` without the scorer or any failure evidence or prior.
    /// Clamped below by C, so a dying host cannot demand checkpoints more
    /// often than they cost to take.
    pub fn checkpoint_hint(&mut self, host: &str) -> Option<(f64, f64, bool)> {
        if !self.scoring {
            return None;
        }
        let rec = self.hosts.get_mut(host)?;
        let mttf = rec.mttf()?;
        let interval = (2.0 * CKPT_COST * mttf).sqrt().max(CKPT_COST);
        let changed = rec.ckpt_interval != Some(interval);
        rec.ckpt_interval = Some(interval);
        Some((interval, mttf, changed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            threshold: 3,
            base_delay: 1.0,
            max_delay: 10.0,
            seed: 42,
        }
    }

    fn breakers(cfg: BreakerConfig) -> HostTable {
        HostTable::new(Some(cfg), &SchedulerPolicy::Oblivious)
    }

    fn scorer(priors: Vec<HostPrior>) -> HostTable {
        HostTable::new(None, &SchedulerPolicy::Resilient(priors))
    }

    fn prior(host: &str, lambda: f64, downtime: f64) -> HostPrior {
        HostPrior {
            host: host.into(),
            lambda,
            downtime,
        }
    }

    fn program(hosts: &[&str]) -> Program {
        let mut p = Program::new("p", 0.0, hosts[0]);
        for h in &hosts[1..] {
            p = p.option(*h);
        }
        p
    }

    fn quiet(_: &str) -> (f64, f64) {
        (0.0, 0.0)
    }

    fn choose(t: &HostTable, hosts: &[&str], base: usize, duration: f64) -> Option<Placement> {
        let p = Program {
            nominal_duration: duration,
            ..program(hosts)
        };
        t.choose(&p, base, 0.0, &[], quiet)
    }

    fn rate(t: &HostTable, host: &str) -> f64 {
        t.hosts.get(host).map_or(0.0, HostRecord::failure_rate)
    }

    fn mttf(t: &HostTable, host: &str) -> Option<f64> {
        t.hosts.get(host).and_then(HostRecord::mttf)
    }

    // ----------------------------------------------------------- breaker ---

    #[test]
    fn config_defaults_are_sane() {
        let c = BreakerConfig::default();
        assert_eq!(c.threshold, 3);
        assert!(c.base_delay > 0.0 && c.base_delay < c.max_delay);
    }

    #[test]
    fn a_table_without_policies_records_nothing() {
        let mut t = HostTable::new(None, &SchedulerPolicy::Oblivious);
        assert!(t.record("h", false, 0.0).is_none());
        assert!(!t.on_submit("h"));
        assert!(t.hosts.is_empty());
    }

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let mut br = breakers(cfg());
        assert!(br.record("h", false, 0.0).is_none());
        assert!(br.record("h", false, 1.0).is_none());
        let ev = br.record("h", false, 2.0).expect("third failure opens");
        match ev {
            TraceKind::BreakerOpen { ref host, until } => {
                assert_eq!(host, "h");
                assert!(until > 2.0 && until <= 2.0 + 10.0, "until={until}");
            }
            other => panic!("expected BreakerOpen, got {other:?}"),
        }
        assert!(br.is_blocked("h", 2.5));
    }

    #[test]
    fn success_resets_the_consecutive_count() {
        let mut br = breakers(cfg());
        br.record("h", false, 0.0);
        br.record("h", false, 1.0);
        assert!(br.record("h", true, 1.5).is_none(), "closed stays closed");
        assert!(br.record("h", false, 2.0).is_none());
        assert!(br.record("h", false, 3.0).is_none());
        assert!(br.record("h", false, 4.0).is_some(), "count restarted");
    }

    #[test]
    fn probe_success_closes_probe_failure_reopens_longer() {
        let mut br = breakers(cfg());
        for t in 0..3 {
            br.record("h", false, t as f64);
        }
        let first_until = match br.hosts["h"].state {
            State::Open(until) => until,
            s => panic!("expected open, got {s:?}"),
        };
        // Backoff elapsed: submission becomes a probe.
        assert!(br.on_submit("h"));
        assert!(!br.is_blocked("h", first_until + 0.1));
        // Failed probe re-opens without needing `threshold` new failures.
        let ev = br.record("h", false, first_until + 0.2);
        assert!(matches!(ev, Some(TraceKind::BreakerOpen { .. })));
        // Successful probe closes.
        assert!(br.on_submit("h"));
        let ev = br.record("h", true, 1e9);
        assert!(matches!(ev, Some(TraceKind::BreakerClosed { .. })));
        assert!(!br.is_blocked("h", 1e9));
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_bounded() {
        let runs: Vec<Vec<f64>> = (0..2)
            .map(|_| {
                let mut br = breakers(cfg());
                let mut untils = Vec::new();
                let mut now = 0.0;
                for i in 0..40 {
                    if let Some(TraceKind::BreakerOpen { until, .. }) = br.record("h", false, now) {
                        untils.push(until);
                        // Probe at expiry, fail again: drives prev_delay up.
                        now = until;
                        br.on_submit("h");
                    }
                    now += 0.1 * (i as f64);
                }
                untils
            })
            .collect();
        assert_eq!(runs[0], runs[1], "same seed, same jitter schedule");
        assert!(!runs[0].is_empty());
        let mut br = breakers(BreakerConfig { seed: 7, ..cfg() });
        for t in 0..3 {
            br.record("h", false, t as f64);
        }
        let b = br.breaker.as_mut().expect("breaker policy");
        let mut prev = 1.0;
        for _ in 0..50 {
            let d = b.jitter_delay(prev);
            assert!((1.0..=10.0).contains(&d), "delay {d} out of bounds");
            prev = d;
        }
    }

    #[test]
    fn hosts_are_independent() {
        let mut br = breakers(cfg());
        for t in 0..3 {
            br.record("flaky", false, t as f64);
        }
        assert!(br.is_blocked("flaky", 2.1));
        assert!(!br.is_blocked("healthy", 2.1));
        assert!(br.record("healthy", false, 2.2).is_none());
    }

    // ------------------------------------------------------------ scorer ---

    #[test]
    fn default_policy_is_oblivious() {
        assert_eq!(SchedulerPolicy::default(), SchedulerPolicy::Oblivious);
    }

    #[test]
    fn zero_evidence_reproduces_the_oblivious_choice() {
        let s = scorer(Vec::new());
        for base in 0..5 {
            let p = choose(&s, &["a", "b", "c"], base, 10.0).unwrap();
            assert_eq!(p.index, base % 3, "tie keeps the cycling base");
            assert!(!p.steered);
            assert_eq!(p.score, 0.0);
        }
    }

    #[test]
    fn failure_rate_steers_away_from_the_flaky_host() {
        let mut s = scorer(Vec::new());
        for t in 0..4 {
            s.record("a", false, t as f64);
        }
        let p = choose(&s, &["a", "b"], 0, 10.0).unwrap();
        assert_eq!(p.index, 1, "retries route away from the failing host");
        assert!(p.steered);
        assert!(rate(&s, "a") > 0.99);
        assert_eq!(rate(&s, "b"), 0.0);
    }

    #[test]
    fn successes_age_failures_out_of_the_window() {
        let mut s = scorer(Vec::new());
        for t in 0..WINDOW {
            s.record("a", false, t as f64);
        }
        assert_eq!(rate(&s, "a"), 1.0);
        for _ in 0..WINDOW {
            s.record("a", true, 20.0);
        }
        assert_eq!(rate(&s, "a"), 0.0, "window fully refreshed");
    }

    #[test]
    fn live_phi_and_jitter_raise_the_score() {
        let healthy = score(None, 10.0, 0.0, 0.0);
        let phi = score(None, 10.0, 3.0, 0.0);
        let jitter = score(None, 10.0, 0.0, 2.0);
        let probing = HostRecord {
            state: State::HalfOpen,
            ..HostRecord::default()
        };
        let half_open = score(Some(&probing), 10.0, 0.0, 0.0);
        assert_eq!(healthy, 0.0);
        assert!(phi > healthy && jitter > healthy && half_open > healthy);
    }

    #[test]
    fn prior_prefers_the_reliable_host_for_long_tasks() {
        let s = scorer(vec![
            prior("flaky", 1.0 / 30.0, 5.0),
            prior("solid", 0.0, 0.0),
        ]);
        let p = choose(&s, &["flaky", "solid"], 0, 100.0).unwrap();
        assert_eq!(p.index, 1, "long task avoids the high-λ host");
        // A free task has nothing to lose: expected-loss prior scales
        // with duration, so the short-task penalty is smaller.
        let flaky = s.hosts.get("flaky");
        assert!(score(flaky, 1.0, 0.0, 0.0) < score(flaky, 100.0, 0.0, 0.0));
    }

    #[test]
    fn blocked_and_suspect_hosts_are_skipped_until_none_remain() {
        let mut s = scorer(Vec::new());
        for t in 0..8 {
            s.record("bad", false, t as f64); // rate 1.0 ⇒ score 8 ≥ 6
        }
        s.hosts.entry("x".into()).or_default().state = State::Open(1e9);
        // One healthy candidate left: it wins.
        let p = choose(&s, &["bad", "x", "ok"], 0, 1.0).unwrap();
        assert_eq!(p.index, 2);
        // Everyone bad: the scorer abstains (graceful degradation).
        assert!(choose(&s, &["bad", "x"], 0, 1.0).is_none());
        let none = Program {
            options: Vec::new(),
            ..program(&["a"])
        };
        assert!(s.choose(&none, 0, 0.0, &[], quiet).is_none());
    }

    #[test]
    fn replica_exclusion_decorrelates_placement() {
        let s = scorer(Vec::new());
        let p = program(&["a", "b", "c"]);
        let got = s.choose(&p, 0, 0.0, &["a"], quiet).unwrap();
        assert_eq!(got.index, 1, "sibling's host excluded, next-best wins");
        assert!(s.choose(&p, 0, 0.0, &["a", "b", "c"], quiet).is_none());
    }

    #[test]
    fn observed_mttf_prefers_evidence_over_prior() {
        let mut s = scorer(vec![prior("h", 1.0 / 100.0, 1.0)]);
        assert_eq!(mttf(&s, "h"), Some(100.0), "prior before evidence");
        assert_eq!(mttf(&s, "unknown"), None);
        s.record("h", false, 10.0);
        assert_eq!(mttf(&s, "h"), Some(100.0), "one failure: no gap yet");
        s.record("h", false, 40.0);
        s.record("h", false, 60.0);
        let mttf = mttf(&s, "h").unwrap();
        assert!(
            (mttf - 25.0).abs() < 1e-9,
            "mean gap of 30 and 20, got {mttf}"
        );
    }

    #[test]
    fn checkpoint_interval_follows_youngs_approximation() {
        let mut s = scorer(vec![prior("h", 1.0 / 50.0, 1.0)]);
        let (k, _, changed) = s.checkpoint_hint("h").unwrap();
        assert!((k - 10.0).abs() < 1e-9, "√(2·1·50) = 10, got {k}");
        assert!(changed, "the first interval is news");
        assert!(
            !s.checkpoint_hint("h").unwrap().2,
            "an unchanged one is not"
        );
        assert_eq!(s.checkpoint_hint("unknown"), None);
        // Shrinking observed MTTF shrinks the interval, floored at C.
        s.record("h", false, 0.0);
        s.record("h", false, 0.5);
        let (k2, _, _) = s.checkpoint_hint("h").unwrap();
        assert!(k2 < k && k2 >= 1.0, "got {k2}");
    }

    #[test]
    fn scoring_is_deterministic() {
        let build = || {
            let mut s = scorer(Vec::new());
            s.record("a", false, 1.0);
            s.record("a", true, 1.5);
            s.record("b", false, 2.0);
            let p = Program {
                nominal_duration: 7.0,
                ..program(&["a", "b", "c"])
            };
            let signal = |h: &str| match h {
                "a" => (0.5, 0.0),
                "c" => (0.0, 0.25),
                _ => (0.0, 0.0),
            };
            (0..6)
                .map(|base| s.choose(&p, base, 0.0, &[], signal))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
