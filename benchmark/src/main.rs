//! `gwbench`: one benchmark for the Grid-WFS service stack.
//!
//! ```text
//! gwbench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (BENCHMARK.json's command)
//! gwbench run --seed <n> [--traced] [--smoke] [--only <name>] [--out <set.json>]
//! gwbench compare <A.json> <B.json>
//! ```
//!
//! See README.md in this directory for the workloads, the metrics, and how
//! they interact.

mod calib;
mod compare;
mod corpus;
mod ladder;
mod load;
mod metrics;
mod oracle;
mod run;
mod spans;
mod sysinfo;
mod util;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use run::{results_dir, run_workload, RunArgs};
use util::{json_string, Json};
use workload::{Workload, CANONICAL_SECONDS};

const USAGE: &str = "usage:
  gwbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <file>]
  gwbench run --seed <n> [--traced] [--smoke] [--only <name>] [--out <set.json>]
  gwbench compare <A.json> <B.json>
workloads: chain_mem, chain_wal, recovery_mix, restart_wal";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => Ok(compare::compare(a, b)),
            _ => Err("compare takes exactly two set files".to_string()),
        },
        Some("run") => Options::parse(&args[1..]).and_then(run_set),
        Some(_) => Options::parse(&args).and_then(run_one),
        None => Err("no arguments".to_string()),
    };
    match outcome {
        Ok(code) => ExitCode::from(code as u8),
        Err(e) => {
            eprintln!("gwbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[derive(Debug, Default, PartialEq)]
struct Options {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<u64>,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .map(String::as_str)
            };
            let number = |v: &str| {
                v.parse::<u64>()
                    .map_err(|_| format!("{flag}: '{v}' is not a whole number"))
            };
            match flag.as_str() {
                "--workload" | "--only" => o.workload = Some(Workload::parse(value()?)?),
                "--seed" => o.seed = Some(number(value()?)?),
                "--seconds" => {
                    let seconds = number(value()?)?;
                    if !(1..=60).contains(&seconds) {
                        return Err("--seconds must be between 1 and 60".into());
                    }
                    o.seconds = Some(seconds);
                }
                "--trace" => {
                    o.traced = match value()? {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                    }
                }
                "--traced" => o.traced = true,
                "--smoke" => o.smoke = true,
                "--out" => o.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        Ok(o)
    }

    fn seed(&self) -> Result<u64, String> {
        self.seed.ok_or_else(|| "--seed is required".to_string())
    }
}

/// One workload in this process: the form BENCHMARK.json's command takes.
/// The last line of standard output is the result object.
fn run_one(o: Options) -> Result<i32, String> {
    let result = run_workload(&RunArgs {
        workload: o.workload.ok_or("--workload is required")?,
        seed: o.seed()?,
        seconds: o.seconds.ok_or("--seconds is required")?,
        traced: o.traced,
        smoke: o.smoke,
        out: o.out,
    });
    println!("{}", result.result_line);
    Ok(if result.correct { 0 } else { 1 })
}

/// Every workload (or `--only` one), each in a process of its own so that
/// `peak_rss_mb` is the workload's and not the set's; the children's
/// documents are gathered into one set file for `compare`.
fn run_set(o: Options) -> Result<i32, String> {
    let seed = o.seed()?;
    // A smoke run is every workload and the traced run at 1/30 size.
    let seconds = if o.smoke {
        1
    } else {
        o.seconds.unwrap_or(CANONICAL_SECONDS)
    };
    let modes: &[bool] = if o.smoke { &[false, true] } else { &[o.traced] };
    let workloads: Vec<Workload> = o.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in workloads {
        for &traced in modes {
            let doc_path = results_dir().join(format!(
                "{}{}.json",
                w.name(),
                if traced { ".traced" } else { "" }
            ));
            let _ = std::fs::remove_file(&doc_path);
            let mut child = Command::new(&exe);
            child
                .args(["--workload", w.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&doc_path);
            if o.smoke {
                child.arg("--smoke");
            }
            let status = child
                .status()
                .map_err(|e| format!("cannot start {}: {e}", w.name()))?;
            all_correct &= status.success();
            let text = std::fs::read_to_string(&doc_path)
                .map_err(|e| format!("{} left no document: {e}", w.name()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", doc_path.display()))?;
            runs.push(text.trim_end().replace('\n', "\n    "));
        }
    }
    let set = format!(
        "{{\n  \"schema\": \"gwbench-set-1\",\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \
         \"smoke\": {},\n  \"commit\": {},\n  \"runs\": [\n    {}\n  ]\n}}\n",
        o.smoke,
        json_string(&sysinfo::commit()),
        runs.join(",\n    ")
    );
    let out = o.out.unwrap_or_else(|| {
        results_dir().join(format!(
            "set-seed{seed}{}.json",
            if o.smoke {
                "-smoke"
            } else if o.traced {
                "-traced"
            } else {
                ""
            }
        ))
    });
    std::fs::write(&out, set).map_err(|e| format!("{}: {e}", out.display()))?;
    println!(
        "set: {} ({})",
        out.display(),
        if all_correct {
            "all correct"
        } else {
            "NOT all correct"
        }
    );
    Ok(if all_correct { 0 } else { 1 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_form_and_rejects_nonsense() {
        let o = parse(&[
            "--workload",
            "chain_wal",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload, Some(Workload::ChainWal));
        assert_eq!((o.seed, o.seconds, o.traced), (Some(7), Some(20), true));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seconds", "61"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
        assert!(parse(&[]).unwrap().seed().is_err());
    }
}
