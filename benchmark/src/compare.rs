//! `gwbench compare A.json B.json`: do two sets of runs agree?
//!
//! One row per workload × end-to-end metric: both medians, the relative
//! change (positive = B worse), the bound, and a verdict.  `unresolved`
//! means the per-rep spread on either side is wider than the bound *and*
//! the two sides' reps interleave, so the sets neither agree nor differ.

use crate::metrics::{Better, MetricDef, END_TO_END};
use crate::util::{quartiles, Json};
use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of one row.
#[derive(Debug, Clone, PartialEq)]
pub struct Side {
    pub median: f64,
    pub reps: Vec<f64>,
}

impl Side {
    /// Distance between the quartiles of the reps as a share of the
    /// median; 0 for a single measurement.
    fn spread(&self) -> f64 {
        match quartiles(&self.reps) {
            Some((q1, q3)) if self.median != 0.0 => (q3 - q1) / self.median.abs(),
            _ => 0.0,
        }
    }

    fn range(&self) -> (f64, f64) {
        if self.reps.is_empty() {
            return (self.median, self.median);
        }
        let lo = self.reps.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = self.reps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    }
}

/// How much worse `b` is than `a`, as a share of `a`.
pub fn worse_by(def: &MetricDef, a: &Side, b: &Side) -> f64 {
    if a.median == 0.0 {
        return 0.0;
    }
    match def.better {
        Better::Lower => (b.median - a.median) / a.median,
        Better::Higher => (a.median - b.median) / a.median,
    }
}

pub fn verdict(def: &MetricDef, a: &Side, b: &Side) -> Verdict {
    let (a_lo, a_hi) = a.range();
    let (b_lo, b_hi) = b.range();
    let interleave = a_lo <= b_hi && b_lo <= a_hi;
    if a.spread().max(b.spread()) > def.bound && interleave {
        Verdict::Unresolved
    } else if worse_by(def, a, b) > def.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// The untraced document of `workload` in a set file.
fn run_of(set: &Json, workload: Workload) -> Option<&Json> {
    set.get("runs")?.as_array()?.iter().find(|run| {
        run.get("workload").and_then(Json::as_str) == Some(workload.name())
            && run.get("traced").and_then(Json::as_bool) == Some(false)
    })
}

fn side_of(run: &Json, metric: &str) -> Option<Side> {
    let m = run.get("metrics")?.get(metric)?;
    Some(Side {
        median: m.get("value")?.as_f64()?,
        reps: m
            .get("reps")?
            .as_array()?
            .iter()
            .filter_map(Json::as_f64)
            .collect(),
    })
}

fn failed_share(run: &Json) -> String {
    let get = |k: &str| run.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    format!("{}/{}", get("failed"), get("attempted"))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Prints the comparison; the process exit code (0 agree, 1 regressed,
/// 2 not comparable).
pub fn compare(path_a: &str, path_b: &str) -> i32 {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for e in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("gwbench compare: {e}");
            }
            return 2;
        }
    };
    for key in ["smoke", "seconds"] {
        if a.get(key) != b.get(key) {
            eprintln!(
                "gwbench compare: the sets differ in '{key}' ({:?} vs {:?}); a smoke run is \
                 never compared against a full run",
                a.get(key),
                b.get(key)
            );
            return 2;
        }
    }
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    let (mut regressed, mut unresolved, mut missing) = (0, 0, 0);
    for w in Workload::ALL {
        // A workload BENCHMARK.json does not list is reported, not judged.
        let gated = Workload::GATED.contains(&w);
        let (Some(run_a), Some(run_b)) = (run_of(&a, w), run_of(&b, w)) else {
            println!("{:<13} missing from one of the sets", w.name());
            missing += 1;
            continue;
        };
        for def in &END_TO_END {
            let (Some(sa), Some(sb)) = (side_of(run_a, def.name), side_of(run_b, def.name)) else {
                println!(
                    "{:<13} {:<18} missing from one of the sets",
                    w.name(),
                    def.name
                );
                missing += 1;
                continue;
            };
            let v = verdict(def, &sa, &sb);
            match v {
                Verdict::Regressed if gated => regressed += 1,
                Verdict::Unresolved if gated => unresolved += 1,
                _ => {}
            }
            println!(
                "{:<13} {:<18} {:>14.4} {:>14.4} {:>+8.2}% {:>6.0}%  {}{}",
                w.name(),
                def.name,
                sa.median,
                sb.median,
                worse_by(def, &sa, &sb) * 100.0,
                def.bound * 100.0,
                v.as_str(),
                if gated { "" } else { " (not gated)" }
            );
        }
        println!(
            "{:<13} failed/attempted   A {}   B {}",
            w.name(),
            failed_share(run_a),
            failed_share(run_b)
        );
    }
    println!("regressed {regressed}, unresolved {unresolved}, missing {missing} (change: positive = B worse)");
    if missing > 0 {
        2
    } else if regressed > 0 {
        1
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(reps: &[f64]) -> Side {
        Side {
            median: crate::util::median(reps),
            reps: reps.to_vec(),
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let def = |better| MetricDef {
            name: "m",
            unit: "u",
            better,
            bound: 0.10,
        };
        let (thr, lat) = (&def(Better::Higher), &def(Better::Lower));
        let steady = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        // Within the bound either way.
        assert_eq!(
            verdict(thr, &steady, &side(&[95.0, 96.0, 94.0, 95.5, 94.5])),
            Verdict::Ok
        );
        assert_eq!(
            verdict(lat, &steady, &side(&[105.0, 106.0, 104.0, 105.5, 104.5])),
            Verdict::Ok
        );
        // Beyond it in the worse direction only.
        let low = side(&[80.0, 81.0, 79.0, 80.5, 79.5]);
        assert_eq!(verdict(thr, &steady, &low), Verdict::Regressed);
        assert_eq!(verdict(lat, &steady, &low), Verdict::Ok);
        assert!((worse_by(thr, &steady, &low) - 0.20).abs() < 1e-9);
        // A wide, interleaving side resolves nothing...
        let noisy = side(&[70.0, 130.0, 100.0, 85.0, 115.0]);
        assert_eq!(verdict(thr, &steady, &noisy), Verdict::Unresolved);
        // ...but a wide side wholly on one side of the other does.
        let wide_low = side(&[40.0, 70.0, 55.0, 45.0, 65.0]);
        assert_eq!(verdict(thr, &steady, &wide_low), Verdict::Regressed);
        assert_eq!(verdict(lat, &steady, &wide_low), Verdict::Ok);
        // A single measurement has no spread.
        let one = Side {
            median: 50.0,
            reps: vec![],
        };
        assert_eq!(verdict(lat, &one, &one), Verdict::Ok);
    }
}
