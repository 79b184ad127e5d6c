#![warn(missing_docs)]

//! Static fusion-safety analysis for HFuse.
//!
//! Horizontally fused kernels interleave two kernels' barrier structures and
//! shared-memory footprints inside one thread block; the dynamic sanitizer in
//! `gpu-sim` catches the resulting bugs at simulation time, but only on the
//! inputs it happens to run. This crate proves (or refutes) the same
//! properties statically, per kernel, before any profiling happens:
//!
//! * [`mod@cfg`] lowers a kernel AST to a per-kernel control-flow graph with
//!   barrier-isolated blocks, post-dominators, and control dependences;
//! * `interp` is the one forward abstract interpreter over that graph:
//!   every scalar gets a uniformity level (block-uniform, warp-uniform,
//!   divergent), an interval, and — where possible — an exact form in
//!   `threadIdx.x` and `blockIdx.x`; its last pass records every shared and
//!   global access with the value of its index;
//! * [`lints`] reads that result for four lints: **barrier divergence**
//!   (`__syncthreads()` / `bar.sync` control-dependent on non-uniform
//!   conditions), **partial-barrier structure** (non-warp-multiple or
//!   mismatched `bar.sync` counts, arrival sets that disagree with declared
//!   participant counts), **definite shared-memory races** (two provable
//!   thread ids in different warps hitting the same element in one
//!   barrier-delimited phase), and **must out-of-bounds accesses**;
//! * [`ranges`] reads it for range-proven barrier elimination and the
//!   per-kernel summaries behind the fuse gate's fast path;
//! * `threads` holds the exact thread-id sets those claims are made over;
//! * [`cache`] memoizes the lints and range summaries process-wide.
//!
//! Every entry point runs one fixpoint per call. The race and out-of-bounds
//! lints are deliberately *must* analyses — silent on anything they cannot
//! model exactly — so `hfuse-core` can reject statically-unsafe fusion
//! candidates without ever rejecting a safe one.

pub mod cache;
pub mod cfg;
mod interp;
pub mod lints;
pub mod ranges;
mod threads;

use std::collections::BTreeMap;
use std::sync::Arc;

use cuda_frontend::ast::Function;
use cuda_frontend::diag::{Diagnostic, SpanTable};

pub use cache::{
    analysis_cache_stats, analyze_kernel_memoized, summarize_ranges_memoized, AnalysisCacheStats,
};
pub use lints::{
    CODE_BARRIER_DIVERGENCE, CODE_GLOBAL_OOB, CODE_PARTIAL_BARRIER, CODE_SHARED_OOB,
    CODE_SHARED_RACE,
};
pub use ranges::{eliminate_redundant_barriers, summarize_ranges, KernelRangeSummary};

/// Options for [`analyze_kernel`].
#[derive(Debug, Clone, Default)]
pub struct AnalysisOptions {
    /// `blockDim.x` when the launch configuration is known. Fuse-time checks
    /// always pass the fused block width; the standalone `hfuse lint` CLI
    /// passes it only when the user supplies `--threads`.
    pub block_threads: Option<u32>,
    /// Global buffer extents *in elements*, by pointer-parameter name.
    /// Feeds the out-of-bounds lint; absent entries leave the corresponding
    /// accesses unchecked. The CLI populates it from `--extent name=len`.
    pub global_extents: Option<Arc<BTreeMap<String, i64>>>,
}

/// Runs all static fusion-safety lints over one kernel.
///
/// `spans` (from [`cuda_frontend::parse_kernel_with_spans`]) lets diagnostics
/// carry source positions; without it they render without a location.
/// Diagnostics are returned ordered by source position.
pub fn analyze_kernel(
    f: &Function,
    spans: Option<&SpanTable>,
    opts: &AnalysisOptions,
) -> Vec<Diagnostic> {
    let a = interp::Analysis::run(f, opts.block_threads);
    let mut diags = lints::barrier_lints(&a, spans);
    diags.extend(lints::race_lints(&a, spans));
    diags.extend(lints::oob_lints(&a, spans, opts.global_extents.as_deref()));
    diags.sort_by_key(|d| d.span.map(|s| (s.line, s.col)));
    diags
}

/// True when `HFUSE_NO_STATIC_CHECK` is set (to anything but `0`), disabling
/// the fuse-time static safety gate.
pub fn static_check_disabled_by_env() -> bool {
    std::env::var_os("HFUSE_NO_STATIC_CHECK").is_some_and(|v| v != "0")
}
