//! Sample statistics and process probes shared by every workload.

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample set;
/// `NaN` when the set is empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of an unsorted sample set.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Mean of the samples left after dropping the lowest and the highest
/// `trim` share (rounded down) of them; `NaN` when the set is empty.
pub fn trimmed_mean(samples: &[f64], trim: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    let cut = (v.len() as f64 * trim) as usize;
    let kept = &v[cut..v.len() - cut];
    if kept.is_empty() {
        return f64::NAN;
    }
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// CPU time the hypervisor stole from this machine and total CPU time so
/// far, in clock ticks, from the `cpu` line of `/proc/stat`; zeros where
/// it is unreadable.
pub fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let Some(line) = stat.lines().next().filter(|l| l.starts_with("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal
    let ticks: Vec<u64> =
        line.split_whitespace().skip(1).take(8).filter_map(|t| t.parse().ok()).collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of CPU time stolen between two [`host_cpu_ticks`] readings.
pub fn steal_between((stolen0, total0): (u64, u64), (stolen1, total1): (u64, u64)) -> f64 {
    stolen1.saturating_sub(stolen0) as f64 / total1.saturating_sub(total0).max(1) as f64
}

/// Times `reps` calls of `f` one by one and returns the median call time
/// in nanoseconds.
pub fn median_call_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = std::time::Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert!(median(&[]).is_nan());
        let mut spiky: Vec<f64> = vec![10.0; 18];
        spiky.extend([0.0, 1000.0]);
        assert_eq!(trimmed_mean(&spiky, 0.25), 10.0);
        assert!(trimmed_mean(&[], 0.1).is_nan());
        let (stolen, total) = host_cpu_ticks();
        assert!(stolen <= total && total > 0);
    }
}
