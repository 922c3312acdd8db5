//! Readers for `/proc`: CPU time, memory, and the host fingerprint.

use std::fs;

/// `/proc/[pid]/stat` counts CPU time in USER_HZ ticks, which Linux
/// fixes at 100 per second on every architecture it exports to user
/// space.
const USER_HZ: f64 = 100.0;

/// CPU time the calling thread has spent on a CPU, in ns (first field
/// of `/proc/thread-self/schedstat`); 0 where the file is missing.
pub fn thread_cpu_ns() -> u64 {
    fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// User plus system CPU time of the whole process, in ms, from
/// `/proc/self/stat` (10 ms resolution).
pub fn process_cpu_ms() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else { return 0.0 };
    // The command name (field 2) may hold spaces; fields after its
    // closing parenthesis are space-separated, starting at field 3.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else { return 0.0 };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    // utime and stime are fields 14 and 15, i.e. indices 11 and 12 here.
    (tick(11) + tick(12)) / USER_HZ * 1e3
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The host and build a result was measured on.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// Commit the benchmark was built from, or `unknown` outside git.
    pub git_rev: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
}

impl Provenance {
    /// Reads the fingerprint of this host and build.
    pub fn collect() -> Self {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(|| "unknown".to_string(), |(_, v)| v.trim().to_string());
        let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
        Provenance {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            kernel,
            git_rev: env!("PERFBENCH_GIT_REV").to_string(),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
        }
    }
}
