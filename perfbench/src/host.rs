//! Host diagnostics, reported beside the compared metrics and never
//! inside them: they identify a run taken while the host was slow.

use std::hint::black_box;
use std::time::Instant;

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// CPU steal ticks summed over all CPUs (`/proc/stat`, the `cpu` line's
/// eighth value), or `None` where the file is unavailable.
pub fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_steal(&stat)
}

fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Std-only calibration kernel, independent of the code under test:
/// a gather sweep over a pseudo-random CSR-like index array and a
/// dependent arithmetic loop. Returns `(gather_ms, arith_ms)`.
pub fn calibrate() -> (f64, f64) {
    const N: usize = 1 << 21;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let idx: Vec<u32> = (0..N).map(|_| (next() % N as u64) as u32).collect();
    let vals: Vec<f64> = (0..N).map(|i| (i % 97) as f64).collect();
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..4 {
        for &i in black_box(&idx) {
            acc += vals[i as usize];
        }
    }
    black_box(acc);
    let gather_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = Instant::now();
    let mut h = black_box(1.0f64);
    for i in 0..20_000_000u64 {
        h = h * 1.000_000_1 + (i & 7) as f64 * 1e-9;
    }
    black_box(h);
    (gather_ms, t.elapsed().as_secs_f64() * 1e3)
}

/// Diagnostics taken at one point of the run.
#[derive(Clone, Copy, Debug)]
pub struct Probe {
    pub steal: Option<u64>,
    pub gather_ms: f64,
    pub arith_ms: f64,
}

impl Probe {
    pub fn take() -> Self {
        let (gather_ms, arith_ms) = calibrate();
        Probe {
            steal: steal_ticks(),
            gather_ms,
            arith_ms,
        }
    }
}

/// The host line printed with every run.
pub fn report(start: &Probe, end: &Probe) -> String {
    let steal = match (start.steal, end.steal) {
        (Some(a), Some(b)) => b.saturating_sub(a).to_string(),
        _ => "n/a".into(),
    };
    format!(
        "host: nproc={} steal_ticks={steal} calib_gather_ms={:.2}/{:.2} calib_arith_ms={:.2}/{:.2} \
         (start/end of run)",
        nproc(),
        start.gather_ms,
        end.gather_ms,
        start.arith_ms,
        end.arith_ms
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_cpu_value() {
        let stat = "cpu  10 1 5 900 3 0 2 77 0 0\ncpu0 5 0 2 450 1 0 1 40 0 0\n";
        assert_eq!(parse_steal(stat), Some(77));
        assert_eq!(parse_steal("intr 5\n"), None);
    }
}
