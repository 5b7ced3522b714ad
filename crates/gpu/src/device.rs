//! The simulated device: copy engines, kernel engine, memory, utilization.

use crate::config::GpuConfig;
use distme_sim::{FifoServer, Gauge, SimTime};

/// A simulated GPU shared by every task on a node (via MPS, §4.1).
///
/// Three contended engines, each a virtual-time FIFO server:
/// * the H2D copy engine (one direction of the PCI-E bus),
/// * the D2H copy engine (the opposite direction),
/// * the kernel engine (the SM array, serving FLOPs at the device rate —
///   concurrent kernels from different streams/tasks time-share it).
#[derive(Debug, Clone)]
pub struct GpuDevice {
    cfg: GpuConfig,
    h2d: FifoServer,
    d2h: FifoServer,
    /// Serves kernel *durations* (rate 1.0 s/s) so dense and sparse kernels
    /// with different throughputs share one engine.
    kernel_engine: FifoServer,
    mem: Gauge,
    kernels_launched: u64,
}

impl GpuDevice {
    /// Creates a device from a validated configuration.
    pub fn new(cfg: GpuConfig) -> Self {
        cfg.assert_valid();
        GpuDevice {
            cfg,
            h2d: FifoServer::new(cfg.h2d_bytes_per_sec),
            d2h: FifoServer::new(cfg.d2h_bytes_per_sec),
            kernel_engine: FifoServer::new(1.0),
            mem: Gauge::new(cfg.device_mem_bytes),
            kernels_launched: 0,
        }
    }

    /// Device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Device-memory gauge (allocation tracking / invariant checks).
    pub fn memory(&mut self) -> &mut Gauge {
        &mut self.mem
    }

    /// Host→device copy of `bytes`, ready at `ready`. Returns
    /// `(start, done)`. Copies serialize on the single H2D engine (§4.3).
    pub fn h2d_copy(&mut self, ready: SimTime, bytes: u64) -> (SimTime, SimTime) {
        self.h2d.request(ready, bytes as f64)
    }

    /// Device→host copy of `bytes`.
    pub fn d2h_copy(&mut self, ready: SimTime, bytes: u64) -> (SimTime, SimTime) {
        self.d2h.request(ready, bytes as f64)
    }

    /// Launches a kernel of `flops` floating-point operations; `sparse`
    /// selects the csrmm rate instead of the dense GEMM rate.
    /// Returns `(start, done)`.
    pub fn launch_kernel(
        &mut self,
        ready: SimTime,
        flops: f64,
        sparse: bool,
    ) -> (SimTime, SimTime) {
        self.launch_kernel_batch(ready, flops, 1, sparse)
    }

    /// Launches `calls` back-to-back kernels totalling `flops` as one
    /// engine reservation — kernels issued consecutively on one stream are
    /// serial anyway, so batching them preserves the timeline while
    /// keeping the simulation O(streams) instead of O(voxels).
    pub fn launch_kernel_batch(
        &mut self,
        ready: SimTime,
        flops: f64,
        calls: u64,
        sparse: bool,
    ) -> (SimTime, SimTime) {
        let rate = if sparse {
            self.cfg.sparse_flops_per_sec
        } else {
            self.cfg.kernel_flops_per_sec
        };
        let duration = self.cfg.kernel_launch_secs * calls as f64 + flops / rate;
        self.kernels_launched += calls;
        self.kernel_engine.request(ready, duration)
    }

    /// Time when all three engines are idle.
    pub fn free_at(&self) -> SimTime {
        self.h2d
            .free_at()
            .max(self.d2h.free_at())
            .max(self.kernel_engine.free_at())
    }

    /// Kernel-engine busy seconds: the engine serves one kernel at a
    /// time, so this is the sum of their durations, idle gaps left out.
    pub fn kernel_busy_secs(&self) -> f64 {
        self.kernel_engine.busy_secs()
    }

    /// Total kernels launched (Algorithm 1 issues `I'` per B-block copy).
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched
    }

    /// Total bytes moved host→device.
    pub fn h2d_bytes(&self) -> u64 {
        self.h2d.total_served() as u64
    }

    /// Total bytes moved device→host.
    pub fn d2h_bytes(&self) -> u64 {
        self.d2h.total_served() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> GpuDevice {
        let mut cfg = GpuConfig::tiny(1 << 20);
        cfg.h2d_bytes_per_sec = 100.0;
        cfg.d2h_bytes_per_sec = 50.0;
        cfg.kernel_flops_per_sec = 1000.0;
        cfg.sparse_flops_per_sec = 100.0;
        cfg.kernel_launch_secs = 0.0;
        GpuDevice::new(cfg)
    }

    #[test]
    fn h2d_serializes_d2h_independent() {
        let mut d = device();
        let (_, c1) = d.h2d_copy(SimTime::ZERO, 100); // 1s
        let (s2, c2) = d.h2d_copy(SimTime::ZERO, 100); // waits
        assert_eq!(c1.as_secs(), 1.0);
        assert_eq!(s2.as_secs(), 1.0);
        assert_eq!(c2.as_secs(), 2.0);
        // D2H direction is free.
        let (s3, c3) = d.d2h_copy(SimTime::ZERO, 50);
        assert_eq!(s3.as_secs(), 0.0);
        assert_eq!(c3.as_secs(), 1.0);
        assert_eq!(d.h2d_bytes(), 200);
        assert_eq!(d.d2h_bytes(), 50);
    }

    #[test]
    fn kernel_rates_differ_by_sparsity() {
        let mut d = device();
        let (_, dense_done) = d.launch_kernel(SimTime::ZERO, 1000.0, false);
        assert_eq!(dense_done.as_secs(), 1.0);
        let (_, sparse_done) = d.launch_kernel(SimTime::ZERO, 1000.0, true);
        // Starts after the dense kernel (engine is FIFO), runs 10s.
        assert_eq!(sparse_done.as_secs(), 11.0);
        assert_eq!(d.kernels_launched(), 2);
        assert_eq!(d.kernel_busy_secs(), 11.0);
    }

    #[test]
    fn utilization_accounts_for_gaps() {
        let mut d = device();
        d.launch_kernel(SimTime::ZERO, 1000.0, false); // busy [0,1]
        d.launch_kernel(SimTime::from_secs(3.0), 1000.0, false); // busy [3,4]
                                                                 // Two of the four seconds: Fig. 7(g)'s numerator leaves the gap out.
        assert_eq!(d.kernel_busy_secs(), 2.0);
    }

    #[test]
    fn free_at_is_max_over_engines() {
        let mut d = device();
        d.h2d_copy(SimTime::ZERO, 1000); // 10s
        d.launch_kernel(SimTime::ZERO, 2000.0, false); // 2s
        assert_eq!(d.free_at().as_secs(), 10.0);
    }

    #[test]
    fn memory_gauge_enforces_device_capacity() {
        let mut d = device();
        let cap = d.config().device_mem_bytes;
        d.memory().alloc(cap).unwrap();
        assert!(d.memory().alloc(1).is_err());
    }
}
