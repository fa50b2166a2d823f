//! The run's environment: core count, CPU model, and how much CPU the
//! machine took from the run (steal time and CPU pressure), so a
//! disturbed run can be told apart from a regression.

use std::time::Instant;

/// A point-in-time reading of the machine's CPU accounting.
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    at: Instant,
    /// Jiffies across every CPU (all `/proc/stat` `cpu` fields).
    total: u64,
    /// Steal jiffies (`/proc/stat` `cpu` field 8).
    steal: u64,
    /// `/proc/pressure/cpu` "some" total stall, µs (`None` without PSI).
    pressure_us: Option<u64>,
}

impl CpuSample {
    /// Reads `/proc/stat` and `/proc/pressure/cpu` now.
    pub fn now() -> CpuSample {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .find(|l| l.starts_with("cpu "))
            .map(|l| {
                l.split_whitespace()
                    .skip(1)
                    .filter_map(|f| f.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        let pressure_us = std::fs::read_to_string("/proc/pressure/cpu")
            .ok()
            .and_then(|text| {
                let some = text.lines().find(|l| l.starts_with("some"))?;
                some.split_whitespace()
                    .find_map(|kv| kv.strip_prefix("total="))?
                    .parse()
                    .ok()
            });
        CpuSample {
            at: Instant::now(),
            total: fields.iter().take(8).sum(),
            steal: fields.get(7).copied().unwrap_or(0),
            pressure_us,
        }
    }
}

/// The environment line a run prints beside its result.
#[derive(Debug, Clone)]
pub struct Environment {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `/proc/cpuinfo` model name.
    pub cpu_model: String,
    /// Steal time over the run, % of all CPU time.
    pub steal_pct: f64,
    /// Share (%) of the run's wall clock in which some task waited for
    /// a CPU (`/proc/pressure/cpu`), or -1 without PSI.
    pub cpu_pressure_pct: f64,
}

impl Environment {
    /// The environment between two samples.
    pub fn between(start: CpuSample, end: CpuSample) -> Environment {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        let total = end.total.saturating_sub(start.total).max(1);
        let wall_us = end.at.duration_since(start.at).as_micros().max(1) as f64;
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            steal_pct: 100.0 * end.steal.saturating_sub(start.steal) as f64 / total as f64,
            cpu_pressure_pct: match (start.pressure_us, end.pressure_us) {
                (Some(a), Some(b)) => 100.0 * b.saturating_sub(a) as f64 / wall_us,
                _ => -1.0,
            },
        }
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
