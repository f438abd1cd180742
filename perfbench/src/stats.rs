//! Order statistics and host readings shared by every workload.

use std::time::Instant;

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (nearest-rank p50).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Nearest-rank percentile of integer samples, for results that must
/// repeat exactly.
pub fn percentile_u64(values: &[u64], q: f64) -> u64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// process), in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .expect("/proc/<pid>/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .expect("VmHWM line present");
    kb / 1024.0
}

/// Host CPU counters from `/proc/stat`: (steal ticks, total ticks).
fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    let steal = fields.get(7).copied().unwrap_or(0);
    (steal, fields.iter().sum())
}

/// Host contention over a run: steal share of all CPU ticks and the
/// one-minute load average. A diagnostic printed beside the figures,
/// never a metric.
pub struct HostProbe {
    start: (u64, u64),
}

impl HostProbe {
    pub fn start() -> Self {
        HostProbe { start: cpu_ticks() }
    }

    /// `(steal %, load average)` since `start`.
    pub fn finish(&self) -> (f64, f64) {
        let (steal, total) = cpu_ticks();
        let d_total = total.saturating_sub(self.start.1).max(1);
        let steal_pct = 100.0 * steal.saturating_sub(self.start.0) as f64 / d_total as f64;
        let load = std::fs::read_to_string("/proc/loadavg")
            .ok()
            .and_then(|s| s.split_whitespace().next().and_then(|x| x.parse().ok()))
            .unwrap_or(0.0);
        (steal_pct, load)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[3.0], 0.99), 3.0);
        assert_eq!(percentile_u64(&[5, 1, 3], 0.5), 3);
    }
}
