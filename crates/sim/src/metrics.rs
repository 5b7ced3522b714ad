//! Simulation metrics helpers.

use crate::time::SimTime;

/// Accumulates busy intervals of a resource to compute utilization over a
/// window — used for the GPU core utilization the paper measures with
//  `nvidia-smi` (Fig. 7(g)).
///
/// Intervals may be recorded out of order; overlapping intervals are merged
/// when utilization is computed, so concurrent kernels on different streams
/// don't double-count.
#[derive(Debug, Clone, Default)]
pub struct BusyTracker {
    intervals: Vec<(f64, f64)>,
}

impl BusyTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a busy interval `[start, end]`.
    pub fn record(&mut self, start: SimTime, end: SimTime) {
        let (s, e) = (start.as_secs(), end.as_secs());
        if e > s {
            self.intervals.push((s, e));
        }
    }

    /// Total busy seconds after merging overlaps.
    pub fn busy_secs(&self) -> f64 {
        let mut iv = self.intervals.clone();
        iv.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("times are never NaN"));
        let mut total = 0.0;
        let mut cur: Option<(f64, f64)> = None;
        for (s, e) in iv {
            match cur {
                Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    cur = Some((s, e));
                    let _ = cs;
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
    }

    /// Utilization over `[window_start, window_end]`: merged busy time
    /// clipped to the window, divided by the window length. Returns 0 for an
    /// empty window.
    pub fn utilization(&self, window_start: SimTime, window_end: SimTime) -> f64 {
        let (ws, we) = (window_start.as_secs(), window_end.as_secs());
        if we <= ws {
            return 0.0;
        }
        let clipped = BusyTracker {
            intervals: self
                .intervals
                .iter()
                .filter_map(|&(s, e)| {
                    let cs = s.max(ws);
                    let ce = e.min(we);
                    (ce > cs).then_some((cs, ce))
                })
                .collect(),
        };
        clipped.busy_secs() / (we - ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn disjoint_intervals_sum() {
        let mut b = BusyTracker::new();
        b.record(t(0.0), t(1.0));
        b.record(t(2.0), t(4.0));
        assert_eq!(b.busy_secs(), 3.0);
    }

    #[test]
    fn overlapping_intervals_merge() {
        let mut b = BusyTracker::new();
        b.record(t(0.0), t(2.0));
        b.record(t(1.0), t(3.0));
        b.record(t(2.5), t(2.75));
        assert_eq!(b.busy_secs(), 3.0);
    }

    #[test]
    fn out_of_order_recording() {
        let mut b = BusyTracker::new();
        b.record(t(5.0), t(6.0));
        b.record(t(0.0), t(1.0));
        assert_eq!(b.busy_secs(), 2.0);
    }

    #[test]
    fn utilization_clips_to_window() {
        let mut b = BusyTracker::new();
        b.record(t(0.0), t(4.0));
        assert!((b.utilization(t(2.0), t(6.0)) - 0.5).abs() < 1e-12);
        assert_eq!(b.utilization(t(10.0), t(12.0)), 0.0);
        assert_eq!(b.utilization(t(3.0), t(3.0)), 0.0);
    }

    #[test]
    fn zero_length_intervals_ignored() {
        let mut b = BusyTracker::new();
        b.record(t(1.0), t(1.0));
        assert_eq!(b.busy_secs(), 0.0);
    }
}
