#![warn(missing_docs)]

//! HFUSE: automatic horizontal fusion for GPU kernels.
//!
//! This crate implements the contribution of *"Automatic Horizontal Fusion
//! for GPU Kernels"* (CGO 2022):
//!
//! * [`fuse`] — the `Generate` algorithm (Fig. 5): merge 2..=15 kernels
//!   into one whose thread space is partitioned by thread id, with built-in
//!   variables retargeted through a prologue and `__syncthreads()` rewritten
//!   to partial `bar.sync` barriers. Pairwise fusion is its two-member case.
//! * [`multi`] — the N-member entry points: [`horizontal_fuse_many`] and
//!   the N-way search, which shares [`search`]'s body.
//! * [`vertical`] — the standard vertical-fusion baseline the paper
//!   compares against.
//! * [`search`] — the profiling-driven configuration search (Fig. 6): sweep
//!   thread-space partitions at a granularity of 128 and, for each, also try
//!   a register bound computed from the occupancy model.
//! * [`db`] — the incremental query layer: a [`Session`] tracks kernel
//!   sources, the device, and the search options as inputs, and memoizes
//!   every derived stage (parse, lower, lint, fuse, measure, search) behind
//!   content-hash fingerprints. The free functions above remain as thin
//!   wrappers over a throwaway session.
//!
//! # Example
//!
//! ```
//! use cuda_frontend::parse_kernel;
//! use hfuse_core::fuse::horizontal_fuse;
//!
//! let k1 = parse_kernel(
//!     "__global__ void a(float* x) { x[threadIdx.x] = 1.0f; }",
//! )?;
//! let k2 = parse_kernel(
//!     "__global__ void b(float* y) { y[threadIdx.x] = 2.0f; }",
//! )?;
//! let fused = horizontal_fuse(&k1, (128, 1, 1), &k2, (128, 1, 1))?;
//! assert_eq!(fused.block_threads(), 256);
//! let src = fused.to_source();
//! assert!(src.contains("goto"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod db;
pub mod error;
pub mod fuse;
pub mod multi;
pub mod remap;
pub mod search;
pub mod vertical;

pub use db::{KernelId, QueryStats, Session, SessionStats, Workload};
pub use error::HfuseError;
pub use fuse::{horizontal_fuse, horizontal_fuse_with, FuseOptions, FusedKernel};
pub use multi::{
    horizontal_fuse_many, register_bound_many, search_multi_fusion_config, FusionPart,
    MultiFusedKernel, MultiSearchCandidate, MultiSearchReport, MAX_FUSED_KERNELS,
    MAX_MULTI_PARTITIONS,
};
pub use search::{
    calibration_rows, measure_naive_horizontal, measure_native, measure_single, measure_vertical,
    search_fusion_config, BlockShape, FusionInput, SearchCandidate, SearchOptions, SearchReport,
    MODEL_MARGIN, MODEL_TOP_K,
};
pub use vertical::vertical_fuse;
