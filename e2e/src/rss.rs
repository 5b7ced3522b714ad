//! Peak resident memory, per stretch of the measured part.
//!
//! One `VmHWM` for the whole process is the single unluckiest moment of
//! three set-ups and every repetition: whether a worker thread returned
//! its buffers before the next repetition allocated decides it, and it
//! swings by more than a tenth between identical runs. Linux resets the
//! high-water mark on request, so the peak is read and reset at
//! repetition starts and the metric is the median of those peaks — still
//! a peak within an operation, but of a typical one.

use std::time::{Duration, Instant};

/// Peak resident set of this process since the last reset, MB.
fn peak_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is in /proc/self/status");
    kb / 1024.0
}

/// Resets the high-water mark to the current resident set. `false` where
/// the kernel or a sandbox refuses; the process-wide peak is used then.
fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Stretches shorter than this are merged into the next, so a workload of
/// millisecond jobs does not spend its time in `/proc`.
const MIN_STRETCH: Duration = Duration::from_millis(50);

pub struct Windows {
    since: Instant,
    resettable: bool,
    peaks_mb: Vec<f64>,
}

impl Windows {
    pub fn start() -> Self {
        Windows {
            resettable: reset_peak(),
            since: Instant::now(),
            peaks_mb: Vec::new(),
        }
    }

    /// Called at each repetition start: closes the current stretch if it
    /// is long enough.
    pub fn tick(&mut self) {
        if self.since.elapsed() >= MIN_STRETCH {
            self.close();
        }
    }

    fn close(&mut self) {
        self.peaks_mb.push(peak_mb());
        self.resettable &= reset_peak();
        self.since = Instant::now();
    }

    /// Closes the last stretch and returns every stretch's peak, or the
    /// one process-wide peak when resets are unavailable.
    pub fn finish(mut self) -> Vec<f64> {
        self.close();
        if self.resettable {
            self.peaks_mb
        } else {
            vec![peak_mb()]
        }
    }
}
