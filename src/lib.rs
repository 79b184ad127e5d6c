#![warn(missing_docs)]

//! HFuse: automatic horizontal fusion for GPU kernels.
//!
//! This is the facade crate of the workspace, re-exporting the member crates
//! so examples and integration tests can use one import root. See the
//! individual crates for the full documentation:
//!
//! * [`frontend`] (`cuda-frontend`) — CUDA-dialect lexer/parser/AST/printer
//!   and the preprocessing passes (inlining, renaming, declaration lifting).
//! * [`ir`] (`thread-ir`) — the flat SIMT register IR kernels are lowered to,
//!   with liveness-based register-pressure estimation and spilling.
//! * [`sim`] (`gpu-sim`) — the cycle-level SIMT GPU simulator used in place
//!   of the paper's 1080Ti/V100 hardware.
//! * [`analysis`] (`hfuse-analysis`) — static fusion-safety analysis: CFG
//!   construction, one abstract interpreter, and the barrier-divergence /
//!   partial-barrier / shared-memory race / out-of-bounds lints behind
//!   `hfuse lint`.
//! * [`fusion`] (`hfuse-core`) — the paper's contribution: horizontal fusion,
//!   the vertical-fusion baseline, and the profiling-driven search, behind
//!   both the one-shot free functions and the incremental
//!   [`fusion::Session`] query pipeline (content-hashed memoization with
//!   hit/miss/recompute telemetry).
//! * [`kernels`] (`hfuse-kernels`) — the nine benchmark kernels with
//!   workloads and CPU reference implementations.

pub use cuda_frontend as frontend;
pub use gpu_sim as sim;
pub use hfuse_analysis as analysis;
pub use hfuse_core as fusion;
pub use hfuse_kernels as kernels;
pub use thread_ir as ir;
