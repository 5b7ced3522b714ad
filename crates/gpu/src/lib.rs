//! # distme-gpu — simulated GPU device
//!
//! The paper accelerates DistME's local-multiplication step with NVIDIA
//! GPUs (GTX 1080 Ti: 11 GB device memory, PCI-E 3.0 x16), CUDA streams, and
//! the CUDA Multi-Process Service (MPS) so several Spark tasks can share one
//! device (§4). No GPU is available in this environment, so this crate
//! provides a *simulated device* that reproduces the decisions and costs the
//! paper's method is about:
//!
//! * **device memory** accounting against the per-task budget θg (§4.1:
//!   "six tasks ... 12 GB device memory, θg is only 2 GB");
//! * a **PCI-E transfer engine** per direction: H2D copies serialize on one
//!   copy engine ("H2D copies of these streams cannot overlap with each
//!   other", §4.3), D2H runs on the opposite direction;
//! * a **kernel engine** modelling the SM array as a fixed-rate f64 FLOP
//!   server (`cublasDgemm`/`cusparseDcsrmm` saturate the device, so
//!   concurrent kernels time-share without throughput gain);
//! * **streams** ([`StreamSet`]) ordering copies and kernels the way
//!   Algorithm 1 issues them, letting copy/kernel overlap hide PCI-E
//!   latency;
//! * **MPS** semantics for free: several simulated tasks interleave requests
//!   on the same shared device, exactly like kernel submission through MPS;
//! * a **busy tracker** measuring kernel-engine utilization, reproducing the
//!   `nvidia-smi`-measured GPU core utilization of Fig. 7(g).
//!
//! Real (laptop-scale) executions verify Algorithm 1's *schedule* produces
//! bit-correct results by running the kernels on the CPU; the simulated
//! device supplies the timing and memory behaviour at paper scale.

#![forbid(unsafe_code)]

pub mod config;
pub mod device;
pub mod stream;
pub mod work;

pub use config::GpuConfig;
pub use device::GpuDevice;
pub use stream::StreamSet;
pub use work::{GpuTaskReport, GpuWork};
