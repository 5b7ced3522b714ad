//! Contended resources with virtual-time timelines.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A fixed-rate FIFO server: requests are served one at a time, in request
/// order, at `rate` units/second.
///
/// Models resources whose service is effectively serialized: a node's NIC
/// (bytes/s), the PCI-E H2D copy engine ("H2D copies of these streams cannot
/// overlap with each other", §4.3), a saturated GPU SM array (flop/s), or a
/// disk (bytes/s).
#[derive(Debug, Clone)]
pub struct FifoServer {
    rate: f64,
    free_at: SimTime,
    busy: f64,
    served: f64,
}

impl FifoServer {
    /// Creates a server with the given service rate (units/second).
    ///
    /// # Panics
    /// Panics on a non-positive or non-finite rate (configuration bug).
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "invalid server rate {rate}");
        FifoServer {
            rate,
            free_at: SimTime::ZERO,
            busy: 0.0,
            served: 0.0,
        }
    }

    /// Requests service of `amount` units, becoming ready at `ready`.
    /// Returns `(start, done)` times.
    pub fn request(&mut self, ready: SimTime, amount: f64) -> (SimTime, SimTime) {
        debug_assert!(amount >= 0.0, "negative service amount");
        if amount == 0.0 {
            // Zero work neither waits for the queue nor occupies it.
            return (ready, ready);
        }
        let start = ready.max(self.free_at);
        let duration = amount / self.rate;
        let done = start + duration;
        self.free_at = done;
        self.busy += duration;
        self.served += amount;
        (start, done)
    }

    /// Time at which the server next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total busy seconds accumulated.
    pub fn busy_secs(&self) -> f64 {
        self.busy
    }

    /// Total units served.
    pub fn total_served(&self) -> f64 {
        self.served
    }

    /// Service rate in units/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

/// `k` identical parallel servers; each request occupies one server for a
/// caller-computed duration.
///
/// Models Spark's `Tc` concurrent task slots per node and CUDA's concurrent
/// stream limit. Requests are admitted greedily onto the earliest-free slot.
#[derive(Debug, Clone)]
pub struct SlotPool {
    free_times: BinaryHeap<Reverse<OrderedTime>>,
    slots: usize,
}

/// `f64` wrapper giving `SimTime` a total order inside the heap. Virtual
/// times are never NaN (checked at construction), so the order is total.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrderedTime(f64);

impl Eq for OrderedTime {}
impl PartialOrd for OrderedTime {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedTime {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("sim times are never NaN")
    }
}

impl SlotPool {
    /// Creates a pool of `slots` parallel servers, all free at time zero.
    ///
    /// # Panics
    /// Panics when `slots == 0` (configuration bug).
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "slot pool needs at least one slot");
        let mut free_times = BinaryHeap::with_capacity(slots);
        for _ in 0..slots {
            free_times.push(Reverse(OrderedTime(0.0)));
        }
        SlotPool { free_times, slots }
    }

    /// Acquires a slot for `duration` seconds, not before `ready`.
    /// Returns `(start, done)`.
    pub fn acquire(&mut self, ready: SimTime, duration: f64) -> (SimTime, SimTime) {
        debug_assert!(duration >= 0.0);
        let Reverse(OrderedTime(earliest)) = self
            .free_times
            .pop()
            .expect("pool always has `slots` entries");
        let start = ready.max(SimTime::from_secs(earliest));
        let done = start + duration;
        self.free_times.push(Reverse(OrderedTime(done.as_secs())));
        (start, done)
    }

    /// Two-phase acquisition for callers that only learn the occupancy
    /// duration *after* seeing the start time (e.g. a task whose network
    /// fetches depend on when its slot frees up): pops the earliest-free
    /// slot and returns the start time. The caller **must** pair this with
    /// [`SlotPool::release`] or the slot is lost.
    pub fn acquire_at(&mut self, ready: SimTime) -> SimTime {
        let Reverse(OrderedTime(earliest)) = self
            .free_times
            .pop()
            .expect("pool always has `slots` entries");
        ready.max(SimTime::from_secs(earliest))
    }

    /// Returns a slot taken with [`SlotPool::acquire_at`], free from `done`.
    pub fn release(&mut self, done: SimTime) {
        assert!(
            self.free_times.len() < self.slots,
            "release without matching acquire_at"
        );
        self.free_times.push(Reverse(OrderedTime(done.as_secs())));
    }

    /// Earliest time any slot becomes free (for placement decisions).
    pub fn earliest_free(&self) -> SimTime {
        let Reverse(OrderedTime(t)) = self
            .free_times
            .peek()
            .expect("pool always has `slots` entries");
        SimTime::from_secs(*t)
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.slots
    }
}

/// Error raised when a [`Gauge`] allocation exceeds capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeError {
    /// Requested additional amount.
    pub requested: u64,
    /// Level before the failed allocation.
    pub in_use: u64,
    /// Capacity limit.
    pub capacity: u64,
}

impl std::fmt::Display for GaugeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "allocation of {} exceeds capacity {} (in use: {})",
            self.requested, self.capacity, self.in_use
        )
    }
}

impl std::error::Error for GaugeError {}

/// A capacity counter.
///
/// Models bounded memories: a task's heap budget θt, GPU device memory θg,
/// or cluster disk. Exceeding the capacity is reported as an error so the
/// caller can surface the paper's O.O.M./E.D.C. failure annotations.
#[derive(Debug, Clone)]
pub struct Gauge {
    capacity: u64,
    in_use: u64,
}

impl Gauge {
    /// Creates a gauge with `capacity` units (bytes, typically).
    pub fn new(capacity: u64) -> Self {
        Gauge {
            capacity,
            in_use: 0,
        }
    }

    /// Allocates `amount` units.
    ///
    /// # Errors
    /// Returns [`GaugeError`] when the allocation would exceed capacity;
    /// the gauge is left unchanged.
    pub fn alloc(&mut self, amount: u64) -> Result<(), GaugeError> {
        let new = self.in_use.saturating_add(amount);
        if new > self.capacity {
            return Err(GaugeError {
                requested: amount,
                in_use: self.in_use,
                capacity: self.capacity,
            });
        }
        self.in_use = new;
        Ok(())
    }

    /// Releases `amount` units (saturates at zero).
    pub fn free(&mut self, amount: u64) {
        self.in_use = self.in_use.saturating_sub(amount);
    }

    /// Currently allocated units.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Capacity limit.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Remaining headroom.
    pub fn available(&self) -> u64 {
        self.capacity - self.in_use
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_server_serializes_requests() {
        let mut nic = FifoServer::new(100.0); // 100 B/s
        let (s1, d1) = nic.request(SimTime::ZERO, 200.0);
        assert_eq!(s1.as_secs(), 0.0);
        assert_eq!(d1.as_secs(), 2.0);
        // Second request ready at t=1 must wait until t=2.
        let (s2, d2) = nic.request(SimTime::from_secs(1.0), 100.0);
        assert_eq!(s2.as_secs(), 2.0);
        assert_eq!(d2.as_secs(), 3.0);
        assert_eq!(nic.busy_secs(), 3.0);
        assert_eq!(nic.total_served(), 300.0);
    }

    #[test]
    fn fifo_server_idle_gap() {
        let mut s = FifoServer::new(10.0);
        s.request(SimTime::ZERO, 10.0); // done at 1.0
        let (start, done) = s.request(SimTime::from_secs(5.0), 10.0);
        assert_eq!(start.as_secs(), 5.0);
        assert_eq!(done.as_secs(), 6.0);
        assert_eq!(s.busy_secs(), 2.0); // gaps don't count as busy
    }

    #[test]
    #[should_panic(expected = "invalid server rate")]
    fn zero_rate_rejected() {
        let _ = FifoServer::new(0.0);
    }

    #[test]
    fn slot_pool_runs_k_in_parallel() {
        let mut pool = SlotPool::new(2);
        let (_, d1) = pool.acquire(SimTime::ZERO, 10.0);
        let (_, d2) = pool.acquire(SimTime::ZERO, 10.0);
        assert_eq!(d1.as_secs(), 10.0);
        assert_eq!(d2.as_secs(), 10.0);
        // Third task waits for a slot.
        let (s3, d3) = pool.acquire(SimTime::ZERO, 5.0);
        assert_eq!(s3.as_secs(), 10.0);
        assert_eq!(d3.as_secs(), 15.0);
    }

    #[test]
    fn slot_pool_wave_scheduling_matches_spark() {
        // 10 equal tasks over 3 slots => ceil(10/3) = 4 waves.
        let mut pool = SlotPool::new(3);
        let mut last = SimTime::ZERO;
        for _ in 0..10 {
            let (_, done) = pool.acquire(SimTime::ZERO, 1.0);
            last = last.max(done);
        }
        assert_eq!(last.as_secs(), 4.0);
    }

    #[test]
    fn slot_pool_respects_ready_time() {
        let mut pool = SlotPool::new(1);
        let (s, _) = pool.acquire(SimTime::from_secs(7.0), 1.0);
        assert_eq!(s.as_secs(), 7.0);
    }

    #[test]
    fn two_phase_acquire_release() {
        let mut pool = SlotPool::new(1);
        let start = pool.acquire_at(SimTime::ZERO);
        assert_eq!(start.as_secs(), 0.0);
        pool.release(SimTime::from_secs(3.0));
        let start2 = pool.acquire_at(SimTime::from_secs(1.0));
        assert_eq!(start2.as_secs(), 3.0);
        pool.release(SimTime::from_secs(4.0));
    }

    #[test]
    #[should_panic(expected = "release without matching acquire_at")]
    fn unbalanced_release_panics() {
        let mut pool = SlotPool::new(1);
        pool.release(SimTime::ZERO);
    }

    #[test]
    fn gauge_tracks_peak_and_rejects_overflow() {
        let mut g = Gauge::new(100);
        g.alloc(60).unwrap();
        g.alloc(40).unwrap();
        assert_eq!(g.available(), 0);
        let err = g.alloc(1).unwrap_err();
        assert_eq!(err.in_use, 100);
        assert_eq!(err.capacity, 100);
        // Failed alloc leaves state unchanged.
        assert_eq!(g.in_use(), 100);
        g.free(70);
        assert_eq!(g.in_use(), 30);
        g.alloc(50).unwrap();
    }

    #[test]
    fn gauge_free_saturates() {
        let mut g = Gauge::new(10);
        g.alloc(5).unwrap();
        g.free(100);
        assert_eq!(g.in_use(), 0);
    }

    #[test]
    fn gauge_error_display() {
        let e = GaugeError {
            requested: 5,
            in_use: 8,
            capacity: 10,
        };
        assert!(e.to_string().contains("exceeds capacity 10"));
    }
}
