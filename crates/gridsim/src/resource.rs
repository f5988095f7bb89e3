//! Simulated Grid resources.
//!
//! A Grid resource (a host reachable through a GRAM-like job manager in the
//! original system) is modelled by the §8.1 parameters: a time-to-failure
//! distribution (Poisson arrivals ⇒ exponential TTF with rate λ = 1/MTTF), a
//! downtime distribution (exponential with mean D), and a relative speed that
//! scales task durations — the paper's motivation is *heterogeneous*
//! execution environments, from reliable Condor pools to donated desktop
//! cycles, and speed/MTTF are the two axes that heterogeneity shows up on.

use crate::dist::Dist;
use crate::rng::Rng;
use crate::time::SimDuration;

/// Stable identifier of a resource within a simulated Grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub u32);

impl std::fmt::Display for ResourceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "res#{}", self.0)
    }
}

/// Declarative description of a Grid resource — what a WPDL
/// `<Option hostname=.../>` line ultimately resolves to.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceSpec {
    /// DNS-ish name, e.g. `bolas.isi.edu` from the paper's Figure 2.
    pub hostname: String,
    /// Job-manager service name (the paper uses `jobmanager`).
    pub service: String,
    /// Relative speed: a task with nominal duration F takes F/speed here.
    pub speed: f64,
    /// Time-to-failure distribution.  `Dist::exponential_mean(MTTF)` is the
    /// paper's model; `exponential_mean(0)` / rate 0 means failure-free.
    pub ttf: Dist,
    /// Downtime distribution following a crash (mean D in the paper).
    pub downtime: Dist,
    /// Free disk space in abstract units (drives disk-full exceptions).
    pub disk: f64,
}

impl ResourceSpec {
    /// A reliable unit-speed resource that never fails.
    pub fn reliable(hostname: impl Into<String>) -> Self {
        ResourceSpec {
            hostname: hostname.into(),
            service: "jobmanager".to_string(),
            speed: 1.0,
            ttf: Dist::exponential_mean(0.0),
            downtime: Dist::constant(0.0),
            disk: f64::MAX,
        }
    }

    /// A unit-speed resource with exponential failures (mean `mttf`) and
    /// exponential downtime (mean `down`), the exact §8.1 model.
    pub fn unreliable(hostname: impl Into<String>, mttf: f64, down: f64) -> Self {
        ResourceSpec {
            hostname: hostname.into(),
            service: "jobmanager".to_string(),
            speed: 1.0,
            ttf: Dist::exponential_mean(mttf),
            downtime: if down <= 0.0 {
                Dist::constant(0.0)
            } else {
                Dist::exponential_mean(down)
            },
            disk: f64::MAX,
        }
    }

    /// Builder-style speed override.
    pub fn with_speed(mut self, speed: f64) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be > 0");
        self.speed = speed;
        self
    }

    /// Builder-style disk-capacity override.
    pub fn with_disk(mut self, disk: f64) -> Self {
        assert!(disk >= 0.0, "disk must be >= 0");
        self.disk = disk;
        self
    }

    /// Builder-style TTF override (e.g. a Weibull ablation model).
    pub fn with_ttf(mut self, ttf: Dist) -> Self {
        self.ttf = ttf;
        self
    }

    /// Wall-clock duration of a task with nominal work `nominal` on this
    /// resource (failure-free).
    pub fn scaled_duration(&self, nominal: f64) -> SimDuration {
        SimDuration::new(nominal / self.speed)
    }

    /// True if this resource never crashes.
    pub fn is_failure_free(&self) -> bool {
        self.ttf.is_never()
    }
}

/// A resource instantiated inside a simulation, with its own RNG stream so
/// its failure sequence is independent of everything else in the run.
#[derive(Debug, Clone)]
pub struct GridResource {
    /// Identifier within the simulated Grid.
    pub id: ResourceId,
    /// The declarative spec this instance was built from.
    pub spec: ResourceSpec,
    rng: Rng,
}

/// One up/down cycle of a resource: it stays up for `up` (then crashes) and
/// remains down for `down` before rebooting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpDown {
    /// Uptime preceding the crash.
    pub up: f64,
    /// Downtime following the crash.
    pub down: f64,
}

impl GridResource {
    /// Instantiates a resource with an independent RNG stream derived from
    /// `grid_rng` and the resource id.
    pub fn new(id: ResourceId, spec: ResourceSpec, grid_rng: &Rng) -> Self {
        GridResource {
            id,
            spec,
            rng: grid_rng.split(0x5E50_0000 | id.0 as u64),
        }
    }

    /// Samples the time until the *next* crash (possibly `INFINITY` for a
    /// failure-free resource).
    pub fn sample_ttf(&mut self) -> f64 {
        self.spec.ttf.sample(&mut self.rng)
    }

    /// Samples the downtime that follows a crash.
    pub fn sample_downtime(&mut self) -> f64 {
        self.spec.downtime.sample(&mut self.rng)
    }

    /// Samples the next full up/down cycle.
    ///
    /// # Panics
    /// Panics if the resource is failure-free (there is no next cycle).
    pub fn sample_cycle(&mut self) -> UpDown {
        let up = self.sample_ttf();
        assert!(
            up.is_finite(),
            "sample_cycle on failure-free resource {}",
            self.spec.hostname
        );
        let down = self.sample_downtime();
        UpDown { up, down }
    }

    /// Direct access to the resource's RNG stream (used by executors that
    /// need per-resource draws beyond failures, e.g. exception injection).
    pub fn rng_mut(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_resource_never_fails() {
        let spec = ResourceSpec::reliable("bolas.isi.edu");
        assert!(spec.is_failure_free());
        let mut res = GridResource::new(ResourceId(1), spec, &Rng::seed_from_u64(1));
        assert!(res.sample_ttf().is_infinite());
    }

    #[test]
    fn unreliable_ttf_matches_mttf() {
        let spec = ResourceSpec::unreliable("vanuatu.isi.edu", 20.0, 5.0);
        let mut res = GridResource::new(ResourceId(2), spec, &Rng::seed_from_u64(2));
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| res.sample_ttf()).sum::<f64>() / n as f64;
        assert!((mean - 20.0).abs() < 0.4, "mean {mean}");
    }

    #[test]
    fn downtime_mean_matches() {
        let spec = ResourceSpec::unreliable("jupiter.isi.edu", 20.0, 5.0);
        let mut res = GridResource::new(ResourceId(3), spec, &Rng::seed_from_u64(3));
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| res.sample_downtime()).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn zero_downtime_collapses_to_constant() {
        let spec = ResourceSpec::unreliable("x", 20.0, 0.0);
        let mut res = GridResource::new(ResourceId(4), spec, &Rng::seed_from_u64(4));
        assert_eq!(res.sample_downtime(), 0.0);
    }

    #[test]
    fn speed_scales_duration() {
        let spec = ResourceSpec::reliable("fast").with_speed(2.0);
        assert_eq!(spec.scaled_duration(30.0), SimDuration::new(15.0));
    }

    #[test]
    #[should_panic(expected = "speed must be > 0")]
    fn zero_speed_rejected() {
        let _ = ResourceSpec::reliable("x").with_speed(0.0);
    }

    #[test]
    fn cycles_are_deterministic_per_seed() {
        let spec = ResourceSpec::unreliable("h", 10.0, 2.0);
        let mk = |seed| {
            let mut r = GridResource::new(ResourceId(7), spec.clone(), &Rng::seed_from_u64(seed));
            (0..5).map(|_| r.sample_cycle()).collect::<Vec<_>>()
        };
        assert_eq!(mk(42), mk(42));
        assert_ne!(mk(42), mk(43));
    }

    #[test]
    fn distinct_resources_have_independent_streams() {
        let grid_rng = Rng::seed_from_u64(9);
        let spec = ResourceSpec::unreliable("h", 10.0, 2.0);
        let mut a = GridResource::new(ResourceId(1), spec.clone(), &grid_rng);
        let mut b = GridResource::new(ResourceId(2), spec, &grid_rng);
        let xs: Vec<f64> = (0..8).map(|_| a.sample_ttf()).collect();
        let ys: Vec<f64> = (0..8).map(|_| b.sample_ttf()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    #[should_panic(expected = "sample_cycle on failure-free")]
    fn cycle_on_reliable_panics() {
        let mut res = GridResource::new(
            ResourceId(5),
            ResourceSpec::reliable("r"),
            &Rng::seed_from_u64(5),
        );
        res.sample_cycle();
    }

    #[test]
    fn with_ttf_swaps_model() {
        let spec = ResourceSpec::unreliable("h", 10.0, 0.0).with_ttf(Dist::weibull(0.7, 10.0));
        assert!(matches!(spec.ttf, Dist::Weibull { .. }));
        assert!(!spec.is_failure_free());
    }

    #[test]
    fn disk_override() {
        let spec = ResourceSpec::reliable("h").with_disk(100.0);
        assert_eq!(spec.disk, 100.0);
    }
}
