//! What the benchmark reads from the host: process CPU time, peak
//! resident memory, and the envelope every result carries so numbers
//! from different machines are never compared silently.

use crate::json::Value;
use std::path::Path;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system, every thread) this process has consumed,
/// ns. `/proc/self/stat` carries the same figure in 10 ms ticks, too
/// coarse for sub-second windows; the clock has ns resolution.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) and the call writes nothing
    // else; a failing call leaves it zeroed.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// File-system type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mountinfo`) — `fsync` cost decides
/// `drain_durable`.
pub fn fs_type_of(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // `<id> <parent> <maj:min> <root> <mount point> ... - <fstype> ...`
        let mut halves = line.splitn(2, " - ");
        let (Some(left), Some(right)) = (halves.next(), halves.next()) else {
            continue;
        };
        let Some(mount_point) = left.split(' ').nth(4) else {
            continue;
        };
        let Some(fstype) = right.split(' ').next() else {
            continue;
        };
        if dir.starts_with(mount_point)
            && best.as_ref().is_none_or(|(n, _)| mount_point.len() >= *n)
        {
            best = Some((mount_point.len(), fstype.to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

/// The host envelope: core count, CPU model, governor, kernel, store
/// file system, toolchain and revision (the last two handed in by
/// `run.sh` through the environment), and the seed of the run.
pub fn envelope(store_dir: &Path, seed: u64) -> Value {
    let env_or_unknown = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".to_string());
    Value::obj(vec![
        (
            "nproc",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Value::Str(cpu_model())),
        (
            "governor",
            Value::Str(
                read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
                    .unwrap_or_else(|| "unreadable".to_string()),
            ),
        ),
        (
            "kernel",
            Value::Str(
                read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        ("store_fs", Value::Str(fs_type_of(store_dir))),
        ("rustc", Value::Str(env_or_unknown("BENCH_RUSTC"))),
        ("git_rev", Value::Str(env_or_unknown("BENCH_GIT_REV"))),
        ("seed", Value::Num(seed as f64)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_advances_with_work() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_ns() > before);
    }

    #[test]
    fn peak_rss_and_envelope_are_populated() {
        assert!(peak_rss_mb() > 0.0);
        let env = envelope(Path::new("."), 7);
        assert!(env.get("nproc").unwrap().as_f64().unwrap() >= 1.0);
        assert_eq!(env.get("seed").unwrap().as_f64(), Some(7.0));
        assert_ne!(env.get("store_fs").unwrap().as_str(), Some(""));
    }
}
