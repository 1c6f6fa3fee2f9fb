//! Host-side measurements of this process, read from `/proc`.

use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat`'s `utime`/`stime`
/// (`sysconf(_SC_CLK_TCK)`, 100 on every mainstream Linux target).
const CLK_TCK: f64 = 100.0;

/// CPU seconds (user + system) this process has used so far, exited
/// threads included.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick count") as f64 };
    (ticks(11) + ticks(12)) / CLK_TCK
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb as f64 / 1024.0
}

/// Wall and CPU time at one boundary of a measured phase.
#[derive(Clone, Copy)]
pub struct Mark {
    wall: Instant,
    cpu: f64,
}

impl Mark {
    /// Reads both clocks now.
    pub fn now() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_s(),
        }
    }

    /// `(wall seconds, CPU seconds)` elapsed since `self`.
    pub fn since(&self, end: &Mark) -> (f64, f64) {
        (
            end.wall.duration_since(self.wall).as_secs_f64(),
            end.cpu - self.cpu,
        )
    }
}

/// Equal slices a timed phase is cut into; host-time rates are the
/// median over slices, so a transient host stall moves one slice only.
pub const SLICES: usize = 10;

/// The slice of a `secs`-long phase begun at `start` that `at` falls in
/// (the last slice also takes anything past the deadline).
pub fn slice_of(start: Instant, at: Instant, secs: f64) -> usize {
    let f = at.saturating_duration_since(start).as_secs_f64() / secs;
    ((f * SLICES as f64) as usize).min(SLICES - 1)
}

/// Reads `SLICES + 1` marks, `start` and one at the end of each slice
/// of a `secs`-long phase, sleeping in between.
pub fn slice_marks(start: Instant, secs: f64) -> Vec<Mark> {
    let mut marks = vec![Mark::now()];
    for k in 1..=SLICES {
        let due = start + std::time::Duration::from_secs_f64(secs * k as f64 / SLICES as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        marks.push(Mark::now());
    }
    marks
}

/// Host rates of a sliced phase: the median over slices of committed
/// transactions per wall second, and of CPU µs per committed
/// transaction.
pub fn sliced_rates(committed: &[u64], marks: &[Mark]) -> (f64, f64) {
    let mut tps = Vec::new();
    let mut cpu = Vec::new();
    for (k, w) in marks.windows(2).enumerate() {
        let (wall_s, cpu_s) = w[0].since(&w[1]);
        let n = committed.get(k).copied().unwrap_or(0).max(1) as f64;
        tps.push(n / wall_s);
        cpu.push(cpu_s * 1e6 / n);
    }
    (median(&tps), median(&cpu))
}

/// The median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
