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
//! * [`uniformity`] runs a forward dataflow classifying every value as
//!   block-uniform, warp-uniform, or divergent, and — where possible — pins
//!   it down as an exact affine function of `threadIdx.x`;
//! * [`lints`] builds three lints on top: **barrier divergence**
//!   (`__syncthreads()` / `bar.sync` control-dependent on non-uniform
//!   conditions), **partial-barrier structure** (non-warp-multiple or
//!   mismatched `bar.sync` counts, arrival sets that disagree with declared
//!   participant counts), and **definite shared-memory races** (two provable
//!   thread ids in different warps hitting the same element in one
//!   barrier-delimited phase);
//! * [`ranges`] runs interval × affine-in-tid value ranges, which power
//!   the must-only out-of-bounds lints and range-proven barrier
//!   elimination;
//! * [`cache`] memoizes the lints and range summaries process-wide.
//!
//! The race lint is deliberately a *must* analysis — silence on anything it
//! cannot model exactly — so `hfuse-core` can reject statically-unsafe fusion
//! candidates without ever rejecting a safe one.

pub mod cache;
pub mod cfg;
pub mod lints;
pub mod ranges;
pub mod uniformity;

use std::collections::BTreeMap;
use std::sync::Arc;

use cuda_frontend::ast::Function;
use cuda_frontend::diag::{Diagnostic, SpanTable};

pub use cache::{
    analysis_cache_stats, analyze_kernel_memoized, summarize_ranges_memoized, AnalysisCacheStats,
};
pub use lints::{CODE_BARRIER_DIVERGENCE, CODE_PARTIAL_BARRIER, CODE_SHARED_RACE};
pub use ranges::{
    eliminate_redundant_barriers, summarize_ranges, KernelRangeSummary, CODE_GLOBAL_OOB,
    CODE_SHARED_OOB,
};

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
    let graph = cfg::Cfg::build(f);
    let ua = uniformity::UniformityAnalysis::run(&graph, f, opts.block_threads);
    let ctx = lints::LintCtx {
        block_threads: opts.block_threads,
    };
    let mut diags = lints::barrier_lints(&graph, &ua, spans, &ctx);
    diags.extend(lints::race_lints(&graph, &ua, f, spans, &ctx));
    diags.extend(ranges::oob_lints(
        &graph,
        &ua,
        f,
        spans,
        &ctx,
        opts.global_extents.as_deref(),
    ));
    diags.sort_by_key(|d| d.span.map(|s| (s.line, s.col)));
    diags
}

/// True when `HFUSE_NO_STATIC_CHECK` is set (to anything but `0`), disabling
/// the fuse-time static safety gate.
pub fn static_check_disabled_by_env() -> bool {
    std::env::var_os("HFUSE_NO_STATIC_CHECK").is_some_and(|v| v != "0")
}
