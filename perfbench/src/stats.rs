//! Order statistics, process memory, and the result line.

use std::fmt::Write as _;

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples (the mean of the middle two for an even
/// count); 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean; 0 for an empty slice.
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set size of this process in MiB (`VmHWM`, since the last
/// `reset_peak_rss`), or 0 when `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    /// glibc: returns free heap pages to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time used so far by all threads of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Resets the peak that `peak_rss_mb` reads to the current resident set,
/// after handing memory the process has freed back to the kernel, so the
/// peak then covers only what runs afterwards.
pub fn reset_peak_rss() -> Result<(), String> {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free heap memory; it takes no
    // pointers and is thread-safe.
    unsafe {
        malloc_trim(0);
    }
    // "5" resets VmHWM (see proc(5), /proc/pid/clear_refs).
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting peak RSS: /proc/self/clear_refs: {e}"))
}

/// CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A named metric with its unit, in reporting order.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The `{"name":{"value":v,"unit":u},...}` object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push('}');
        s
    }
}

/// A finite JSON number with every digit `f64` carries (non-finite → 0).
pub fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
/// Whether a metric name uses only `[A-Za-z0-9_.-]` and starts with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn json_numbers_keep_their_digits() {
        assert_eq!(json_num(3.0), "3");
        assert_eq!(json_num(0.123456789), "0.123456789");
        assert_eq!(json_num(f64::NAN), "0");
    }

    #[test]
    fn name_rule() {
        assert!(valid_name("opt.mem2reg.useful_ratio"));
        assert!(valid_name("op_ms_p50"));
        assert!(!valid_name("serve.hits.{hot}"));
        assert!(!valid_name(".x"));
    }
}
