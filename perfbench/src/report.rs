//! Percentiles, the metric list a run reports, and its JSON line.

/// A percentile is reported only when at least this many samples lie
/// beyond it on each side, so it is never one unlucky sample: a median
/// needs 21 samples, a p99 1000.
pub const SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, or an error when
/// fewer than [`SAMPLES_BEYOND`] samples lie below or above it.
pub fn percentile(sorted: &[u64], q: f64) -> Result<f64, String> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n == 0 || rank <= SAMPLES_BEYOND || n - rank < SAMPLES_BEYOND {
        return Err(format!(
            "p{:.0} needs {} samples beyond it on each side; the run holds {n} samples",
            q * 100.0,
            SAMPLES_BEYOND
        ));
    }
    Ok(sorted[rank - 1] as f64)
}

/// Median of unsorted values.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Return the allocator's free memory to the system, so that an
/// instance's peak does not carry what an earlier one left cached.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free memory.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Peak resident set in MB within `probe`'s window, or the process's
/// peak where the high-water mark cannot be reset; 0 where the platform
/// has no probe.
pub fn peak_rss_mb(probe: &obs::rss::PeakProbe) -> f64 {
    let bytes = probe.peak_bytes().or_else(obs::rss::peak_bytes);
    bytes.unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run's outputs or invariants were found wrong.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Record a failed check; the run then reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `{:?}` prints the shortest string that reads back as the same
        // f64, so no measured digit is lost.
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 0.5).unwrap(), 500.0);
        assert_eq!(percentile(&v, 0.99).unwrap(), 990.0);
        assert!(percentile(&v[..999], 0.99).is_err());
        assert_eq!(percentile(&v[..21], 0.5).unwrap(), 11.0);
        assert!(percentile(&v[..20], 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("setup_s", 0.5, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
