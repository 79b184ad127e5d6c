#![warn(missing_docs)]

//! A cycle-level SIMT GPU simulator.
//!
//! This crate stands in for the NVIDIA 1080Ti / V100 hardware (plus
//! `nvprof`) used in the HFUSE paper. It executes [`thread_ir::KernelIr`]
//! programs both *functionally* (exact memory results, used to check that
//! fused kernels are equivalent to the originals) and *temporally* (a
//! cycle-driven model of warp scheduling, scoreboarding, memory latency and
//! bandwidth, named partial barriers, and occupancy-limited block
//! residency), reporting the metrics the paper collects: execution cycles,
//! issue-slot utilization, memory-instruction stall percentage, and achieved
//! occupancy.
//!
//! # Example
//!
//! ```
//! use cuda_frontend::parse_kernel;
//! use thread_ir::lower_kernel;
//! use gpu_sim::{Gpu, GpuConfig, Launch, ParamValue};
//!
//! let k = parse_kernel(
//!     "__global__ void fill(float* out, int n) {
//!          int i = blockIdx.x * blockDim.x + threadIdx.x;
//!          if (i < n) { out[i] = 2.0f; }
//!      }",
//! )?;
//! let ir = lower_kernel(&k)?;
//!
//! let mut gpu = Gpu::new(GpuConfig::pascal_like());
//! let buf = gpu.memory_mut().alloc_f32(64);
//! let launch = Launch::new(ir, 2, (32, 1, 1))
//!     .arg(ParamValue::Ptr(buf))
//!     .arg(ParamValue::I32(64));
//! let result = gpu.run(&[launch])?;
//! assert!(result.total_cycles > 0);
//! assert_eq!(gpu.memory().read_f32(buf, 63), 2.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod config;
pub mod decode;
pub mod env;
pub mod exec;
pub mod launch;
pub mod memory;
pub mod metrics;
pub mod model;
pub mod occupancy;
pub mod sanitizer;
pub mod timing;

mod bound;
mod error;
mod race;

pub use config::GpuConfig;
pub use decode::DecodedKernel;
pub use error::SimError;
pub use exec::IssueKind;
pub use launch::{Launch, ParamValue, MAX_BLOCK_THREADS};
pub use memory::{BufferId, GpuMemory};
pub use metrics::{BudgetedRun, RunMetrics, RunResult};
pub use model::{fused_dyn_mix, model_estimate, static_class_mix, ClassMix, DynMix};
pub use occupancy::{blocks_per_sm, cost_estimate, OccupancyLimits};
pub use race::parallel_map;
pub use sanitizer::{ReportKind, Sanitizer, SanitizerReport};
pub use timing::Gpu;

mod diff_tests;
mod engine_pins;
mod sim_tests;
