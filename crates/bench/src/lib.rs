//! Shared plumbing for the figure-regenerator binaries.
//!
//! Every binary accepts `--runs N` (default 100 000, the paper's count),
//! `--threads N` (default: all cores; results are bit-identical for any
//! value — see `gridwfs_eval::parallel`), `--csv` (emit CSV instead of the
//! aligned table), and `--json PATH` (write a machine-readable summary:
//! wall time, samples/sec, thread count, per-figure point values), so
//! `cargo run --release -p gridwfs-bench --bin fig10 -- --runs 100000`
//! regenerates the corresponding paper figure's data and
//! `... --bin all_figures -- --json BENCH_eval.json` records a perf
//! trajectory point for the whole evaluation.

use std::time::Instant;

use gridwfs_eval::parallel::McPlan;
use gridwfs_eval::sweep::{render_csv, render_table, Series};
use gridwfs_serve::json::{json_number, json_string};

/// Parsed common CLI options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// Monte-Carlo runs per data point.
    pub runs: usize,
    /// Emit CSV instead of a table.
    pub csv: bool,
    /// Worker threads for the Monte-Carlo fan-out (never changes results).
    pub threads: usize,
    /// Where to write the machine-readable run summary, if anywhere.
    pub json: Option<String>,
}

impl Options {
    /// The Monte-Carlo execution plan these options describe.
    pub fn plan(&self) -> McPlan {
        McPlan::threaded(self.runs, self.threads)
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Parses `--runs N`, `--threads N`, `--csv` and `--json PATH` from an
/// argument iterator.
pub fn parse_options(args: impl Iterator<Item = String>) -> Options {
    let mut opts = Options {
        runs: 100_000,
        csv: false,
        threads: default_threads(),
        json: None,
    };
    let mut args = args.peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--runs" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    opts.runs = n;
                }
            }
            "--threads" => {
                if let Some(n) = args.next().and_then(|v| v.parse().ok()) {
                    opts.threads = n;
                }
            }
            "--json" => opts.json = args.next(),
            "--csv" => opts.csv = true,
            _ => {}
        }
    }
    opts
}

/// Parses options from the process arguments.
pub fn options() -> Options {
    parse_options(std::env::args().skip(1))
}

/// Prints one figure: a header block and the series data.
pub fn print_figure(
    id: &str,
    title: &str,
    params: &str,
    x_label: &str,
    series: &[Series],
    opts: &Options,
) {
    if opts.csv {
        print!("{}", render_csv(x_label, series));
        return;
    }
    println!("== {id}: {title}");
    println!("   parameters: {params}");
    println!("   runs/point: {}", opts.runs);
    println!();
    print!("{}", render_table(x_label, series));
    println!();
}

// ------------------------------------------------------- perf trajectory ---

/// A machine-readable record of one bench run, written by `--json` so
/// future changes can track the speedup curve (`BENCH_eval.json`).
/// Serialisation is hand-rolled: the report is a flat, fully-known shape.
#[derive(Debug)]
pub struct Report {
    bench: String,
    runs: usize,
    threads: usize,
    samples: u64,
    figures: Vec<(String, String, Vec<Series>)>,
    notes: Vec<(String, String)>,
    started: Instant,
}

impl Report {
    /// Starts the wall-time clock for a bench run.
    pub fn new(bench: &str, opts: &Options) -> Report {
        Report {
            bench: bench.into(),
            runs: opts.runs,
            threads: opts.threads,
            samples: 0,
            figures: Vec::new(),
            notes: Vec::new(),
            started: Instant::now(),
        }
    }

    /// Records a figure's point values.  `sim_series` is how many of the
    /// series were Monte-Carlo simulated (for the samples/sec tally);
    /// closed-form series cost no samples.
    pub fn add_figure(&mut self, id: &str, x_label: &str, series: &[Series], sim_series: usize) {
        let points: usize = series.first().map(|s| s.points.len()).unwrap_or(0);
        self.samples += (sim_series * points * self.runs) as u64;
        self.figures
            .push((id.into(), x_label.into(), series.to_vec()));
    }

    /// Adds `n` simulated samples that are not part of a recorded figure.
    pub fn add_samples(&mut self, n: u64) {
        self.samples += n;
    }

    /// Attaches a free-form key/value note (e.g. a rendered table).
    pub fn add_note(&mut self, key: &str, value: &str) {
        self.notes.push((key.into(), value.into()));
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let wall = self.started.elapsed().as_secs_f64();
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": {},\n", json_string(&self.bench)));
        out.push_str("  \"schema\": 1,\n");
        out.push_str(&format!("  \"runs\": {},\n", self.runs));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"wall_seconds\": {},\n", json_number(wall)));
        out.push_str(&format!("  \"samples\": {},\n", self.samples));
        out.push_str(&format!(
            "  \"samples_per_sec\": {},\n",
            json_number(if wall > 0.0 {
                self.samples as f64 / wall
            } else {
                0.0
            })
        ));
        for (key, value) in &self.notes {
            out.push_str(&format!(
                "  {}: {},\n",
                json_string(key),
                json_string(value)
            ));
        }
        out.push_str("  \"figures\": [");
        for (fi, (id, x_label, series)) in self.figures.iter().enumerate() {
            if fi > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            out.push_str(&format!("\"id\": {}, ", json_string(id)));
            out.push_str(&format!("\"x_label\": {}, ", json_string(x_label)));
            out.push_str("\"series\": [");
            for (si, s) in series.iter().enumerate() {
                if si > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!(
                    "\n      {{\"label\": {}, \"points\": [",
                    json_string(&s.label)
                ));
                for (pi, &(x, y)) in s.points.iter().enumerate() {
                    if pi > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("[{}, {}]", json_number(x), json_number(y)));
                }
                out.push_str("]}");
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the JSON summary if `--json PATH` was given.  Call last —
    /// the wall time is measured here.
    pub fn save(&self, opts: &Options) {
        if let Some(path) = &opts.json {
            match std::fs::write(path, self.to_json()) {
                Ok(()) => eprintln!("perf summary written to {path}"),
                Err(e) => eprintln!("cannot write {path}: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> std::vec::IntoIter<String> {
        s.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn defaults() {
        let o = parse_options(args(&[]));
        assert_eq!(o.runs, 100_000);
        assert!(!o.csv);
        assert!(o.threads >= 1);
        assert_eq!(o.json, None);
    }

    #[test]
    fn parses_runs_and_csv() {
        let o = parse_options(args(&["--runs", "5000", "--csv"]));
        assert_eq!(o.runs, 5000);
        assert!(o.csv);
    }

    #[test]
    fn parses_threads_and_json() {
        let o = parse_options(args(&["--threads", "8", "--json", "out.json"]));
        assert_eq!(o.threads, 8);
        assert_eq!(o.json.as_deref(), Some("out.json"));
        assert_eq!(o.plan(), McPlan::threaded(100_000, 8));
    }

    #[test]
    fn ignores_unknown_and_bad_values() {
        let o = parse_options(args(&["--weird", "--runs", "abc"]));
        assert_eq!(o.runs, 100_000);
    }

    #[test]
    fn report_json_shape() {
        let opts = parse_options(args(&["--runs", "100", "--threads", "2"]));
        let mut r = Report::new("test_bench", &opts);
        let series = vec![Series {
            label: "a \"quoted\" λ-label".into(),
            points: vec![(1.0, 2.5), (2.0, f64::INFINITY)],
        }];
        r.add_figure("fig", "x", &series, 1);
        r.add_samples(42);
        r.add_note("note", "line1\nline2");
        let j = r.to_json();
        assert!(j.contains("\"bench\": \"test_bench\""));
        assert!(j.contains("\"runs\": 100"));
        assert!(j.contains("\"threads\": 2"));
        assert!(j.contains("\"samples\": 242"), "100*1*2 points + 42: {j}");
        assert!(j.contains("[2, null]"), "infinity becomes null: {j}");
        assert!(j.contains("a \\\"quoted\\\" λ-label"));
        assert!(j.contains("line1\\nline2"));
        // Balanced braces/brackets (cheap well-formedness check).
        let count = |ch: char| j.chars().filter(|&c| c == ch).count();
        assert_eq!(count('{'), count('}'));
        assert_eq!(count('['), count(']'));
    }

    #[test]
    fn report_without_figures_is_valid() {
        let opts = parse_options(args(&[]));
        let r = Report::new("empty", &opts);
        let j = r.to_json();
        assert!(j.contains("\"figures\": [\n  ]"));
        assert!(j.ends_with("}\n"));
    }
}
