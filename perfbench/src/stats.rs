//! The benchmark's own arithmetic: exact percentiles over recorded
//! samples, per-commit ratios, process CPU and peak memory from procfs,
//! and the flat JSON object each run prints.

use std::collections::BTreeMap;

/// Exact percentile of `samples` (nearest rank, `p` in `[0, 100]`);
/// `None` when empty.
pub fn percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    Some(samples[rank.min(n) - 1])
}

/// `num / commits`, with zero commits reading as zero (a run that
/// committed nothing has no per-commit cost to report).
pub fn per_commit(num: f64, commits: u64) -> f64 {
    if commits == 0 {
        0.0
    } else {
        num / commits as f64
    }
}

/// `part / whole`, zero when `whole` is zero.
pub fn frac(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Median of `values` (mean of the middle pair for even lengths).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// User + system CPU of this process in microseconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s).
pub fn process_cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).map_or(0, |ticks| ticks * 10_000)
}

/// utime + stime ticks from one `/proc/<pid>/stat` line. The command
/// name (field 2) may hold spaces, so fields are counted after its `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): utime is field 14, stime 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// CPU time of the calling thread in ns (first field of
/// `/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kib(&status).map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// The `VmHWM:` line of `/proc/<pid>/status`, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// An ordered name → number map printed as one JSON object.
#[derive(Default)]
pub struct Record {
    fields: BTreeMap<String, f64>,
}

impl Record {
    pub fn set(&mut self, name: &str, value: f64) {
        self.fields.insert(name.to_string(), value);
    }

    #[cfg(test)]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.fields.get(name).copied()
    }

    /// Fold `other` in, overwriting equal names.
    pub fn extend(&mut self, other: Record) {
        self.fields.extend(other.fields);
    }

    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\": {v}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), Some(50));
        assert_eq!(percentile(&mut v, 99.0), Some(99));
        assert_eq!(percentile(&mut v, 100.0), Some(100));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
        let mut one = vec![7];
        assert_eq!(percentile(&mut one, 99.0), Some(7));
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn p99_of_small_samples_is_the_maximum() {
        // Fewer than 100 samples: nothing lies beyond the p99 rank.
        let mut v = vec![5, 1, 9, 3];
        assert_eq!(percentile(&mut v, 99.0), Some(9));
    }

    #[test]
    fn per_commit_ratios() {
        assert_eq!(per_commit(1500.0, 3), 500.0);
        assert_eq!(per_commit(1500.0, 0), 0.0);
        assert_eq!(frac(1.0, 4.0), 0.25);
        assert_eq!(frac(1.0, 0.0), 0.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut []), 0.0);
    }

    #[test]
    fn cpu_ticks_parse_past_a_spaced_command_name() {
        let line = "4242 (fgl perf) R 1 2 3 4 5 6 7 8 9 10 250 31 0 0 20 0 9 0 77";
        assert_eq!(parse_cpu_ticks(line), Some(281));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t  2048 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(2048));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn record_prints_flat_json() {
        let mut r = Record::default();
        r.set("b", 2.5);
        r.set("a", 1.0);
        r.set("nan", f64::NAN);
        assert_eq!(r.to_json(), "{\"a\": 1, \"b\": 2.5, \"nan\": 0}");
    }
}
