#![warn(missing_docs)]

//! CPU-reference conformance harness.
//!
//! Every benchmark kernel carries a pure-Rust scalar reference
//! ([`hfuse_kernels::Benchmark::check`]) written to mirror the simulator's
//! f32 semantics expression-for-expression, so most kernels must agree
//! *bitwise* (the rest within a stated tolerance). This crate turns that
//! property into a reusable harness:
//!
//! * [`check_standalone`] — one kernel, simulator vs. reference;
//! * [`check_fused`] — a pair fused by [`horizontal_fuse`] at an explicit
//!   thread partition, both outputs checked;
//! * [`check_search_winner`] — the winning configuration of the Fig. 6
//!   search ([`Session::search_winner`]) re-run functionally, both outputs
//!   checked.
//!
//! Each check runs with the race/barrier sanitizer enabled and fails if it
//! reports anything. The conformance test suite in `tests/` sweeps every
//! kernel family (BLAS, image stencil, attention) plus the paper set
//! through all of the above.

use gpu_sim::{Gpu, GpuConfig, Launch};
use hfuse_core::fuse::horizontal_fuse;
use hfuse_core::{FusionInput, SearchOptions, Session};
use hfuse_kernels::{AnyBenchmark, Benchmark};
use thread_ir::lower_kernel;

/// Search options sized for conformance runs: a small fused block and the
/// paper's partition step keep the candidate sweep cheap while still
/// exercising uneven partitions.
pub fn conformance_search_options() -> SearchOptions {
    SearchOptions {
        d0: 512,
        granularity: 128,
        ..SearchOptions::default()
    }
}

fn fresh_gpu() -> Gpu {
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    gpu.enable_sanitizer();
    gpu
}

fn sanitizer_clean(gpu: &Gpu, what: &str) -> Result<(), String> {
    let reports = gpu.sanitizer_reports();
    if reports.is_empty() {
        return Ok(());
    }
    Err(format!(
        "{what}: sanitizer reported {} finding(s), first: {}",
        reports.len(),
        reports[0]
    ))
}

fn dims(b: &dyn Benchmark, threads: u32) -> Result<(u32, u32, u32), String> {
    b.shape()
        .dims(threads)
        .ok_or_else(|| format!("{}: no block shape for {threads} threads", b.name()))
}

/// Runs one benchmark standalone and checks its output against the CPU
/// reference, with the sanitizer on.
///
/// # Errors
///
/// Returns the first mismatch, simulation fault, or sanitizer finding.
pub fn check_standalone(b: &AnyBenchmark) -> Result<(), String> {
    let bench = b.benchmark();
    let mut gpu = fresh_gpu();
    let args = bench.setup(gpu.memory_mut());
    let launch = Launch {
        kernel: lower_kernel(&bench.kernel())
            .map_err(|e| format!("{}: lower: {e}", bench.name()))?
            .into(),
        grid_dim: bench.grid_dim(),
        block_dim: dims(bench, bench.default_threads())?,
        dynamic_shared_bytes: bench.dynamic_shared(),
        args: args.clone(),
    };
    gpu.run_functional(&[launch])
        .map_err(|e| format!("{}: run: {e}", bench.name()))?;
    bench
        .check(gpu.memory(), &args)
        .map_err(|e| format!("{}: {e}", bench.name()))?;
    sanitizer_clean(&gpu, bench.name())
}

/// Fuses `a` and `b` at partition `(d1, d2)`, runs the fused kernel, and
/// checks both outputs against their CPU references, with the sanitizer
/// on.
///
/// # Errors
///
/// Returns the first fusion failure, mismatch, fault, or sanitizer finding.
pub fn check_fused(a: &AnyBenchmark, b: &AnyBenchmark, d1: u32, d2: u32) -> Result<(), String> {
    let (ba, bb) = (a.benchmark(), b.benchmark());
    let pair = format!("{}+{} at {d1}/{d2}", ba.name(), bb.name());
    let fused = horizontal_fuse(&ba.kernel(), dims(ba, d1)?, &bb.kernel(), dims(bb, d2)?)
        .map_err(|e| format!("{pair}: fuse: {e}"))?;
    let mut gpu = fresh_gpu();
    let args_a = ba.setup(gpu.memory_mut());
    let args_b = bb.setup(gpu.memory_mut());
    let mut args = args_a.clone();
    args.extend(args_b.iter().copied());
    gpu.run_functional(&[Launch {
        kernel: lower_kernel(&fused.function)
            .map_err(|e| format!("{pair}: lower: {e}"))?
            .into(),
        grid_dim: ba.grid_dim().max(bb.grid_dim()),
        block_dim: (fused.block_threads(), 1, 1),
        dynamic_shared_bytes: ba.dynamic_shared() + bb.dynamic_shared(),
        args,
    }])
    .map_err(|e| format!("{pair}: run: {e}"))?;
    ba.check(gpu.memory(), &args_a)
        .map_err(|e| format!("{pair}: first output: {e}"))?;
    bb.check(gpu.memory(), &args_b)
        .map_err(|e| format!("{pair}: second output: {e}"))?;
    sanitizer_clean(&gpu, &pair)
}

/// Runs the fusion-config search for `a`+`b`, then re-runs the winning
/// kernel *functionally* (sanitizer on) and checks both outputs against
/// their CPU references.
///
/// The search itself profiles on sanitizer-free clones — the conformance
/// claim is about the winner the search hands back, so that is what runs
/// under the sanitizer.
///
/// # Errors
///
/// Returns the first search failure, mismatch, fault, or sanitizer finding.
pub fn check_search_winner(
    a: &AnyBenchmark,
    b: &AnyBenchmark,
    opts: SearchOptions,
) -> Result<(), String> {
    let (ba, bb) = (a.benchmark(), b.benchmark());
    let pair = format!("{}+{}", ba.name(), bb.name());
    let mut base = Gpu::new(GpuConfig::test_tiny());
    let in1 = ba.fusion_input(base.memory_mut());
    let in2 = bb.fusion_input(base.memory_mut());
    // The search runs through the memoized session query (same path the CLI
    // and benches use); the functional re-run below stays on the raw device.
    let mut session = Session::with_gpu(base.clone());
    session.set_search_options(opts);
    let ka = session.add_fusion_input(&in1);
    let kb = session.add_fusion_input(&in2);
    let report = session
        .search_winner(ka, kb)
        .map_err(|e| format!("{pair}: search: {e}"))?;
    let best = report.best();
    let winner = format!("{pair} winner d1={} d2={}", best.d1, best.d2);
    // The session searched on its own clone, so `base` still holds the
    // untouched inputs (some kernels update buffers in place).
    let mut gpu = base;
    gpu.enable_sanitizer();
    run_winner(&mut gpu, &report.best_kernel, best.d1 + best.d2, &in1, &in2)
        .map_err(|e| format!("{winner}: run: {e}"))?;
    ba.check(gpu.memory(), &in1.args)
        .map_err(|e| format!("{winner}: first output: {e}"))?;
    bb.check(gpu.memory(), &in2.args)
        .map_err(|e| format!("{winner}: second output: {e}"))?;
    sanitizer_clean(&gpu, &winner)
}

fn run_winner(
    gpu: &mut Gpu,
    kernel: &thread_ir::KernelIr,
    block_threads: u32,
    in1: &FusionInput,
    in2: &FusionInput,
) -> Result<(), String> {
    let mut args = in1.args.clone();
    args.extend(in2.args.iter().copied());
    gpu.run_functional(&[Launch {
        kernel: kernel.clone().into(),
        grid_dim: in1.grid_dim.max(in2.grid_dim),
        block_dim: (block_threads, 1, 1),
        dynamic_shared_bytes: in1.dynamic_shared + in2.dynamic_shared,
        args,
    }])
    .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_gpu_has_the_sanitizer_on() {
        assert!(fresh_gpu().sanitizer_enabled());
    }

    #[test]
    fn conformance_options_are_small() {
        let opts = conformance_search_options();
        assert_eq!(opts.d0, 512);
        assert_eq!(opts.granularity, 128);
    }

    #[test]
    fn a_failing_check_reports_the_kernel() {
        // Fusing a pair whose partition starves the first kernel is not an
        // error, but an impossible block shape is.
        let b = AnyBenchmark::by_name("Batchnorm").unwrap(); // Rows { y: 16 }
        let m = AnyBenchmark::by_name("Maxpool").unwrap();
        let err = check_fused(&b, &m, 8, 504).unwrap_err();
        assert!(err.contains("Batchnorm"), "{err}");
    }
}
