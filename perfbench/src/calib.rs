//! Host-speed calibration.
//!
//! A shared cloud host (measured: a 2-vCPU Xeon KVM guest) drifts in speed
//! by ±15–20% over tens of seconds (other tenants on the same cores), more than
//! any change worth measuring. The drift is common-mode: a fixed,
//! std-only kernel timed between slices of the workload slows down with
//! it (correlation ≈ 0.9 with Phoenix translation time, measured over
//! 2-minute runs), while the ratio of the two stays within ~3%.
//!
//! So each run alternates 0.5-s slices of workload with a short
//! calibration, and every reported time is scaled by the slice's speed
//! factor `CAL_REF_NS / measured ns per kernel unit` — i.e. reported as it
//! would read on a host where one unit takes `CAL_REF_NS`. The raw
//! (unscaled) figures are printed in the detail line.
//!
//! The program under test must not be able to move the kernel. So the
//! kernel runs in a child process (`perfbench --calibrate`), which shares
//! no heap or allocator state with the program, and only while this
//! process — the translator, the daemon, the pool workers — uses no CPU:
//! its CPU time is checked to stay flat before and during the child's run,
//! and a calibration during which it did not is thrown away and retried.
//! If the process never goes idle, the run fails.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::stats::{host_cpus, median, process_cpu_ns};

/// Nominal nanoseconds per kernel unit: roughly what a 2-vCPU Xeon KVM
/// guest takes at its usual speed, so scaled times there read close to
/// raw ones.
pub const CAL_REF_NS: f64 = 750_000.0;

/// Kernel units each calibration thread runs per measurement.
const UNITS: usize = 20;

/// Window over which this process must use no CPU before a calibration.
const IDLE_WINDOW: Duration = Duration::from_millis(10);

/// Share of a window's wall time this process may spend on CPU and still
/// count as idle (reading and waiting on the child costs a little).
const IDLE_SHARE: f64 = 0.05;

/// Calibration attempts before giving up on an idle process.
const ATTEMPTS: usize = 100;

/// Attempts thrown away so far because this process was not idle.
static DISCARDED: AtomicU64 = AtomicU64::new(0);

/// Calibration attempts this run threw away because the process was busy.
pub fn discarded() -> u64 {
    DISCARDED.load(Ordering::Relaxed)
}

/// One kernel unit: pseudo-random inserts and lookups in a `BTreeMap`
/// plus a sort — the pointer-chasing, allocation and branch mix a
/// compiler pipeline has.
fn unit() -> u64 {
    let mut map = BTreeMap::new();
    let mut s = 0x1234_5678_u64;
    let mut v = Vec::with_capacity(4096);
    for i in 0..4096u64 {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(s >> 40, i);
        v.push(s);
    }
    v.sort_unstable();
    let mut acc = 0u64;
    for x in &v {
        if let Some(y) = map.get(&(x >> 40)) {
            acc = acc.wrapping_add(*y);
        }
    }
    std::hint::black_box(acc)
}

/// The child's side (`perfbench --calibrate`): the median time of a kernel
/// unit in ns, over one thread per CPU (the workloads use both, and the
/// slowdown can differ between them). The median keeps a unit that was
/// preempted from counting.
pub fn kernel_ns() -> f64 {
    let cpus = host_cpus().clamp(1, 2);
    let units: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..cpus)
            .map(|_| {
                s.spawn(|| {
                    (0..UNITS)
                        .map(|_| {
                            let t0 = Instant::now();
                            unit();
                            t0.elapsed().as_nanos() as f64
                        })
                        .collect::<Vec<f64>>()
                })
            })
            .collect();
        hs.into_iter()
            .flat_map(|h| h.join().expect("calibration thread"))
            .collect()
    });
    median(&units)
}

/// Runs the kernel in a child process and waits for it.
fn child_kernel_ns() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("calibration: {e}"))?;
    let out = Command::new(exe)
        .arg("--calibrate")
        .output()
        .map_err(|e| format!("calibration: {e}"))?;
    if !out.status.success() {
        return Err(format!("calibration child exited with {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("calibration child output: {e}"))
}

/// Whether this process used at most `IDLE_SHARE` of the wall time since
/// `(cpu0, t0)` on CPU.
fn stayed_idle(cpu0: u64, t0: Instant) -> bool {
    let used = process_cpu_ns().saturating_sub(cpu0) as f64;
    used <= IDLE_SHARE * t0.elapsed().as_nanos() as f64
}

/// Measures the host's current speed factor, `CAL_REF_NS` ÷ the kernel's
/// time per unit, while this process is idle.
pub fn speed() -> Result<f64, String> {
    for _ in 0..ATTEMPTS {
        let (cpu0, t0) = (process_cpu_ns(), Instant::now());
        std::thread::sleep(IDLE_WINDOW);
        if stayed_idle(cpu0, t0) {
            let (cpu0, t0) = (process_cpu_ns(), Instant::now());
            let ns = child_kernel_ns()?;
            if stayed_idle(cpu0, t0) {
                return Ok(CAL_REF_NS / ns);
            }
        }
        DISCARDED.fetch_add(1, Ordering::Relaxed);
    }
    Err(format!(
        "calibration: the process kept using CPU between slices ({ATTEMPTS} attempts)"
    ))
}

/// Speed factor of each of `cals.len() - 1` intervals, where `cals[k]`
/// and `cals[k + 1]` were measured just before and after interval `k`:
/// the median of the measurements at most two intervals away from its
/// ends (up to six), so one or two disturbed calibrations do not skew a
/// slice.
pub fn factors(cals: &[f64]) -> Vec<f64> {
    let n = cals.len().saturating_sub(1);
    (0..n)
        .map(|k| median(&cals[k.saturating_sub(2)..=(k + 3).min(n)]))
        .collect()
}

/// Workload slices scaled by their speed factors.
#[derive(Debug, Default)]
pub struct Scaled {
    /// Latencies scaled by their slice's speed factor, in ms.
    pub lat_ms: Vec<f64>,
    /// Workload time scaled the same way, in seconds (calibration
    /// excluded).
    pub wall_s: f64,
    /// Unscaled latencies and workload time.
    pub raw_lat_ms: Vec<f64>,
    pub raw_wall_s: f64,
    /// Speed factor of each slice.
    pub speeds: Vec<f64>,
    /// The calibrations the factors came from.
    pub cals: Vec<f64>,
}

impl Scaled {
    /// Scales `slices` (latencies in ms, wall time in s) by the factors of
    /// the calibrations around them (`cals.len() == slices.len() + 1`).
    pub fn new(slices: Vec<(Vec<f64>, f64)>, cals: &[f64]) -> Scaled {
        let mut sc = Scaled::default();
        for ((lat, wall), speed) in slices.into_iter().zip(factors(cals)) {
            sc.lat_ms.extend(lat.iter().map(|l| l * speed));
            sc.raw_lat_ms.extend(lat);
            sc.wall_s += wall * speed;
            sc.raw_wall_s += wall;
            sc.speeds.push(speed);
        }
        sc.cals = cals.to_vec();
        sc
    }

    pub fn mean_speed(&self) -> f64 {
        self.speeds.iter().sum::<f64>() / self.speeds.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disturbed_calibrations_do_not_skew_a_slice() {
        let f = factors(&[1.0, 1.0, 1.0, 0.3, 0.4, 1.0, 1.0, 1.0]);
        assert_eq!(f, vec![1.0; 7]);
        assert_eq!(factors(&[1.0, 2.0]), vec![1.5]);
        assert!(factors(&[1.0]).is_empty());
    }

    #[test]
    fn a_busy_process_is_not_idle() {
        let (cpu0, t0) = (process_cpu_ns(), Instant::now());
        let mut x = 0u64;
        while t0.elapsed() < Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(!stayed_idle(cpu0, t0));
    }
}
