//! Host diagnostics recorded with every run and never gated: they let a
//! reader tell host drift (steal, a slower reference loop) from a code
//! change. Also the yardstick that streamed frame times are scaled by.

use std::time::{Duration, Instant};

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The parsed `EUPHRATES_THREADS` setting, 0 when unset or invalid.
pub fn euphrates_threads() -> usize {
    std::env::var("EUPHRATES_THREADS")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    proc_status_kib("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn proc_status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// User plus system CPU time of this process so far, the figure
/// `getrusage(RUSAGE_SELF)` reports, read from `/proc/self/stat` at
/// clock-tick (10 ms) resolution.
pub fn cpu_time() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Duration::from_millis((ticks(11) + ticks(12)) * 10)
}

/// Aggregate `/proc/stat` CPU counters: `(steal, total)` jiffies.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let values: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user.
    let total = values.iter().take(8).sum();
    Some((values.get(7).copied().unwrap_or(0), total))
}

/// Time of a fixed single-thread integer loop, the host-speed yardstick.
pub fn reference_loop_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..20_000_000u64 {
        x ^= i;
        x = x.rotate_left(17).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Host state sampled at the start of a run; [`HostProbe::finish`] adds
/// the steal fraction over the run.
pub struct HostProbe {
    jiffies: Option<(u64, u64)>,
    ref_loop_ms: f64,
}

/// The recorded host diagnostics of one run.
#[derive(Debug, Clone, Copy)]
pub struct HostReport {
    pub nproc: usize,
    pub euphrates_threads: usize,
    pub steal_frac: f64,
    pub ref_loop_ms: f64,
}

impl HostProbe {
    /// Samples the counters and times the reference loop (median of 3).
    pub fn start() -> Self {
        let mut loops = [
            reference_loop_ms(),
            reference_loop_ms(),
            reference_loop_ms(),
        ];
        loops.sort_by(f64::total_cmp);
        HostProbe {
            jiffies: cpu_jiffies(),
            ref_loop_ms: loops[1],
        }
    }

    /// The diagnostics over the run so far.
    pub fn finish(&self) -> HostReport {
        let steal_frac = match (self.jiffies, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => 0.0,
        };
        HostReport {
            nproc: nproc(),
            euphrates_threads: euphrates_threads(),
            steal_frac,
            ref_loop_ms: self.ref_loop_ms,
        }
    }
}

/// Yardstick time of the nominal host, the speed every scaled frame time
/// is reported at.
pub const NOMINAL_YARDSTICK_MS: f64 = 2.0;

/// A fixed kernel timed right before each streamed frame, so that the
/// frame's time can be scaled to the nominal host speed: a dependent
/// multiply chain, then a 3-tap separable blur over a VGA `f32` plane.
///
/// Interference from other tenants of a shared host comes and goes in
/// stretches of milliseconds to minutes, so the kernel, timed a few
/// milliseconds before the frame, sees the host state the frame sees.
/// The blur slows under interference about as much as the pipeline's
/// frames do; the chain, which barely slows, damps it.
pub struct Yardstick {
    plane: Vec<f32>,
    scratch: Vec<f32>,
}

impl Default for Yardstick {
    fn default() -> Self {
        Yardstick {
            plane: vec![1.0; 640 * 480],
            scratch: vec![0.0; 640 * 480],
        }
    }
}

impl Yardstick {
    /// Runs the kernel once and returns its time in milliseconds.
    pub fn time_ms(&mut self) -> f64 {
        let (w, h) = (640usize, 480usize);
        let t0 = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..230_000u64 {
            x ^= i;
            x = x.rotate_left(17).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        std::hint::black_box(x);
        let (a, b) = (&mut self.plane, &mut self.scratch);
        for y in 0..h {
            let r = &a[y * w..(y + 1) * w];
            let o = &mut b[y * w..(y + 1) * w];
            for x in 1..w - 1 {
                o[x] = 0.25 * r[x - 1] + 0.5 * r[x] + 0.25 * r[x + 1];
            }
        }
        for y in 1..h - 1 {
            for x in 0..w {
                a[y * w + x] = 0.25 * b[(y - 1) * w + x]
                    + 0.5 * b[y * w + x]
                    + 0.25 * b[(y + 1) * w + x]
                    + 1.0;
            }
        }
        std::hint::black_box(&a);
        t0.elapsed().as_secs_f64() * 1e3
    }
}
