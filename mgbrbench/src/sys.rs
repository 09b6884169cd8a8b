//! Process readings from `/proc` and order statistics over raw samples.

use std::time::Instant;

/// Kernel clock ticks per second for the `/proc/self/stat` CPU times.
/// Linux reports `USER_HZ`, which is 100 on every mainstream
/// architecture; std offers no `sysconf` to ask.
const USER_HZ: f64 = 100.0;

/// User and system CPU seconds this process has used so far.
pub fn cpu_times() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) / USER_HZ, tick(12) / USER_HZ)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

/// CPU use over a stretch of wall time: user + system seconds and wall
/// seconds, read before and after.
pub struct CpuMeter {
    wall: Instant,
    user: f64,
    sys: f64,
}

impl CpuMeter {
    pub fn start() -> Self {
        let (user, sys) = cpu_times();
        Self {
            wall: Instant::now(),
            user,
            sys,
        }
    }

    /// `(user_s, sys_s, wall_s)` since [`CpuMeter::start`].
    pub fn stop(&self) -> (f64, f64, f64) {
        let (user, sys) = cpu_times();
        (
            user - self.user,
            sys - self.sys,
            self.wall.elapsed().as_secs_f64(),
        )
    }
}

/// The `q`-quantile of `samples` (0 ≤ q ≤ 1) by linear interpolation
/// between order statistics; 0 for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Median seconds per call of `f`, over at least `min_calls` calls and
/// at least `min_s` seconds.
pub fn median_call_s(min_calls: usize, min_s: f64, mut f: impl FnMut()) -> f64 {
    let mut t = Vec::with_capacity(min_calls);
    let start = Instant::now();
    while t.len() < min_calls || start.elapsed().as_secs_f64() < min_s {
        let t0 = Instant::now();
        f();
        t.push(t0.elapsed().as_secs_f64());
    }
    median(&t)
}
