//! Peak resident memory of the timed loop.
//!
//! `VmHWM` is reset at the start of each window through
//! `/proc/self/clear_refs` and read at its end. A workload's `peak_rss_mb` is
//! the median window peak, so one unlucky allocation interleaving of the two
//! engine threads does not decide the run. Windows are passes on `adl-nested`
//! and equal slices of the loop elsewhere.

use std::time::{Duration, Instant};

/// Windows per timed loop when windows are time slices.
const WINDOWS: u32 = 6;

/// Peak resident set size (`VmHWM`) since the last reset, MiB.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Resets `VmHWM` to the current resident size. Where the kernel refuses,
/// `VmHWM` stays the process-wide peak, which only makes windows read high.
fn reset_peak() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// Peaks of consecutive windows.
pub struct PeakWindows(Vec<f64>);

impl PeakWindows {
    /// Opens the first window.
    pub fn start() -> PeakWindows {
        reset_peak();
        PeakWindows(Vec::new())
    }

    /// Closes the current window and opens the next.
    pub fn close(&mut self) {
        self.0.push(vm_hwm_mb());
        reset_peak();
    }

    pub fn median_mb(&self) -> f64 {
        crate::stats::median(&self.0).unwrap_or(f64::NAN)
    }

    pub fn describe(&self) -> String {
        let peaks: Vec<String> = self.0.iter().map(|p| format!("{p:.1}")).collect();
        format!("window peak RSS MiB: {}", peaks.join(" "))
    }
}

/// Closes a window every `seconds / WINDOWS` from `t0` until the deadline.
pub fn sample_until(t0: Instant, seconds: f64) -> PeakWindows {
    let mut w = PeakWindows::start();
    for k in 1..=WINDOWS {
        let end = t0 + Duration::from_secs_f64(seconds * f64::from(k) / f64::from(WINDOWS));
        let now = Instant::now();
        if end > now {
            std::thread::sleep(end - now);
        }
        w.close();
    }
    w
}
