//! What the benchmark reads about the process and the machine, all from
//! `/proc` so that no dependency is needed for `getrusage`.

use std::path::Path;

/// Kernel clock ticks per second.  `utime`/`stime` in `/proc/self/stat`
/// are in these; Linux has fixed the user-visible value at 100 on every
/// architecture Rust targets.
const CLK_TCK: f64 = 100.0;

/// CPU seconds the process's live threads have run so far.
///
/// Summed from the nanosecond run-time field of every
/// `/proc/self/task/<tid>/schedstat`; a thread that has exited drops out
/// of the sum, so only a difference taken while no thread exits is
/// meaningful — true of a timed phase, whose threads (generator and
/// service workers) all outlive it.  Falls back to the 10 ms ticks of
/// `/proc/self/stat` on a kernel without scheduler statistics.
pub fn cpu_seconds() -> f64 {
    let from_tasks = std::fs::read_dir("/proc/self/task").ok().and_then(|tasks| {
        let mut ns = 0u64;
        for task in tasks.flatten() {
            // A thread may exit between the listing and the read.
            let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else {
                continue;
            };
            ns += stat.split_whitespace().next()?.parse::<u64>().ok()?;
        }
        (ns > 0).then_some(ns as f64 / 1e9)
    });
    from_tasks.unwrap_or_else(cpu_seconds_from_ticks)
}

fn cpu_seconds_from_ticks() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; the fixed fields start
    // after its closing parenthesis.  utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after.split_whitespace().skip(11);
    let mut tick = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick() + tick()) / CLK_TCK
}

/// Peak resident set size of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

// From the C library std already links.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confines the calling thread, and every thread it starts from here on,
/// to the first `n` CPUs it may run on; returns the CPUs it kept (empty if
/// the kernel refused, and then nothing changed).
///
/// With the generator on one virtual CPU and the worker on another, which
/// of them the host runs when decides how fast a job goes: the same code
/// ran at 32 or at 54 µs a job from one half second to the next, and for
/// whole runs at a time.  Sharing the worker's CPU costs nothing (the
/// generator sleeps between submissions, and the sandbox's two virtual
/// CPUs are one core's worth of the host anyway) and took that spread from
/// 15 % to 4 %.
pub fn confine_to_cpus(n: usize) -> Vec<usize> {
    const WORDS: usize = 16;
    let mut allowed = [0u64; WORDS];
    // SAFETY: the mask is WORDS * 8 writable bytes, as the size says; pid 0
    // is the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    let kept: Vec<usize> = (0..WORDS * 64)
        .filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .take(n)
        .collect();
    let mut mask = [0u64; WORDS];
    for cpu in &kept {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: as above, read-only.
    if unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) } != 0 {
        return Vec::new();
    }
    kept
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <opts>"
        let Some((head, tail)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount_point) = head.split_whitespace().nth(4) else {
            continue;
        };
        let Some(fstype) = tail.split_whitespace().next() else {
            continue;
        };
        if path.starts_with(mount_point)
            && best
                .as_ref()
                .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// Short commit hash of the checkout, or `unknown` outside a git clone.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        // Not compared with an earlier reading: the other tests' threads
        // exit meanwhile and take their time out of the sum.
        assert!(cpu_seconds() > 0.0);
        assert!(cpu_seconds_from_ticks() >= 0.0);
        assert!(peak_rss_mb() > 0.5);
        assert!(nproc() >= 1);
        assert_ne!(fs_type(Path::new("/proc")), "unknown");
    }

    #[test]
    fn confining_narrows_what_a_new_thread_may_run_on() {
        // On a thread of its own, so the other tests keep their CPUs.
        std::thread::spawn(|| {
            assert_eq!(confine_to_cpus(1).len(), 1);
            assert_eq!(std::thread::spawn(nproc).join().unwrap(), 1);
        })
        .join()
        .unwrap();
    }
}
