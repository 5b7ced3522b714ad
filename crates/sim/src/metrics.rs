//! Simulation metrics helpers.

use crate::time::SimTime;

/// Accumulates busy intervals of a resource — the busy time behind the GPU
/// core utilization the paper measures with `nvidia-smi` (Fig. 7(g)).
///
/// Intervals may be recorded out of order; overlapping intervals are merged
/// when busy time is computed, so concurrent kernels on different streams
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
                }
                None => cur = Some((s, e)),
            }
        }
        if let Some((cs, ce)) = cur {
            total += ce - cs;
        }
        total
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
    fn zero_length_intervals_ignored() {
        let mut b = BusyTracker::new();
        b.record(t(1.0), t(1.0));
        assert_eq!(b.busy_secs(), 0.0);
    }
}
