//! Exercises every re-export root of the `hfuse` facade crate.
//!
//! The facade (`src/lib.rs`) re-exports the six member crates wholesale —
//! [`hfuse::frontend`], [`hfuse::ir`], [`hfuse::sim`], [`hfuse::analysis`],
//! [`hfuse::fusion`], [`hfuse::kernels`] — so downstream code can use one
//! import root. This test drives one representative item through each root
//! (including the items added by the Session redesign: `fusion::Session`
//! and friends, `ir::AsmError`, `fusion::HfuseError`,
//! `analysis::analyze_kernel_memoized`, `frontend::hash`), so an
//! accidentally-dropped re-export fails to compile here instead of in a
//! downstream consumer.

use std::sync::Arc;

use hfuse::analysis::{analysis_cache_stats, analyze_kernel_memoized, AnalysisOptions};
use hfuse::frontend::hash::{fnv1a_64, Fnv64};
use hfuse::frontend::printer::print_function;
use hfuse::frontend::{parse_kernel, parse_kernel_with_spans, FrontendError};
use hfuse::fusion::{
    horizontal_fuse, measure_single, search_fusion_config, FusionInput, HfuseError, KernelId,
    QueryStats, SearchOptions, Session, SessionStats, Workload,
};
use hfuse::ir::printer::print_kernel_ir;
use hfuse::ir::{lower_kernel, lower_kernel_unoptimized, parse_kernel_ir, AsmError, KernelIr};
use hfuse::kernels::{all_pairs, family_pairs, AnyBenchmark};
use hfuse::sim::{
    parallel_map, BudgetedRun, Gpu, GpuConfig, Launch, ParamValue, RunResult, SimError,
};

const SRC: &str = "__global__ void probe(float* x) { x[threadIdx.x] = 4.0f; }";

#[test]
fn frontend_root_parses_prints_and_hashes() {
    let f = parse_kernel(SRC).expect("parse");
    assert_eq!(f.name, "probe");
    let (f2, spans) = parse_kernel_with_spans(SRC).expect("parse with spans");
    assert_eq!(print_function(&f), print_function(&f2));
    assert!(!spans.is_empty());

    // The FNV-1a module added for session fingerprints.
    let mut h = Fnv64::new();
    h.write(SRC.as_bytes());
    assert_eq!(h.finish(), fnv1a_64(SRC.as_bytes()));

    let err: FrontendError = parse_kernel("__global__ void broken( {").unwrap_err();
    assert!(!err.to_string().is_empty());
}

#[test]
fn ir_root_lowers_prints_and_reparses() {
    let f = parse_kernel(SRC).expect("parse");
    let ir: KernelIr = lower_kernel(&f).expect("lower");
    let unopt = lower_kernel_unoptimized(&f).expect("lower unoptimized");
    assert!(unopt.insts.len() >= ir.insts.len());

    // Round-trip through the textual listing, and the typed parse error.
    let listing = print_kernel_ir(&ir);
    let reparsed = parse_kernel_ir(&listing).expect("reparse listing");
    assert_eq!(reparsed.insts.len(), ir.insts.len());
    let err: AsmError = parse_kernel_ir("not an ir listing").unwrap_err();
    assert!(err.to_string().contains("ir listing"));
}

#[test]
fn sim_root_runs_a_kernel() {
    let f = parse_kernel(SRC).expect("parse");
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let buf = gpu.memory_mut().alloc_f32(64);
    let launch = Launch {
        kernel: lower_kernel(&f).expect("lower").into(),
        grid_dim: 1,
        block_dim: (64, 1, 1),
        dynamic_shared_bytes: 0,
        args: vec![ParamValue::Ptr(buf)],
    };
    let r: RunResult = gpu.run(std::slice::from_ref(&launch)).expect("run");
    assert!(r.total_cycles > 0);
    assert_eq!(gpu.memory().read_f32(buf, 0), 4.0);

    // Two identical programs tie for the first finish, and both complete.
    let raced = gpu.race(&[vec![launch.clone()], vec![launch]], 2);
    let completed = Ok(BudgetedRun::Completed(r));
    assert_eq!(raced, vec![completed.clone(), completed]);
    // The race's work queue, shared with the search.
    assert_eq!(parallel_map(2, [1u64, 2, 3], |x| x * 10), vec![10, 20, 30]);

    let err: SimError = SimError::new("probe error");
    assert!(err.to_string().contains("probe error"));
}

#[test]
fn analysis_root_lints_directly_and_memoized() {
    let (f, spans) = parse_kernel_with_spans(SRC).expect("parse");
    let opts = AnalysisOptions {
        block_threads: Some(64),
        ..AnalysisOptions::default()
    };
    let direct = hfuse::analysis::analyze_kernel(&f, Some(&spans), &opts);
    assert!(direct.is_empty(), "probe kernel lints clean");

    let before = analysis_cache_stats();
    let first = analyze_kernel_memoized(&f, Some(&spans), &opts);
    let second = analyze_kernel_memoized(&f, Some(&spans), &opts);
    let after = analysis_cache_stats();
    assert!(Arc::ptr_eq(&first, &second));
    assert_eq!(*first, direct);
    assert!(after.hits + after.misses > before.hits + before.misses);
}

#[test]
fn fusion_root_fuses_measures_and_sessions() {
    let a = parse_kernel(SRC).expect("parse");
    let b =
        parse_kernel("__global__ void other(float* y) { y[threadIdx.x] = 5.0f; }").expect("parse");
    let fused = horizontal_fuse(&a, (128, 1, 1), &b, (64, 1, 1)).expect("fuse");
    assert_eq!(fused.block_threads(), 192);

    // The Session API and its telemetry types.
    let mut s = Session::new(GpuConfig::test_tiny());
    let k: KernelId = s.add_kernel(SRC);
    assert_eq!(k.index(), 0);
    s.ir(k).expect("ir query");
    let stats: SessionStats = s.stats();
    let q: QueryStats = stats.ir;
    assert_eq!((q.misses, q.hits), (1, 0));
    assert_eq!(stats.total_computes(), 2, "one parse + one lower");

    // Workload extraction, the free measurement wrapper, and the unified
    // error type it returns.
    let bench = AnyBenchmark::by_name("Maxpool")
        .expect("bench")
        .scaled(0.25);
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let input: FusionInput = bench.benchmark().fusion_input(gpu.memory_mut());
    let w = Workload::from_fusion_input(&input);
    assert_eq!(w.grid_dim, input.grid_dim);
    let measured: Result<RunResult, HfuseError> = measure_single(&gpu, &input);
    assert!(measured.expect("measure").total_cycles > 0);

    // A config error surfaces through HfuseError's Config variant.
    let mut bare = Session::new(GpuConfig::test_tiny());
    let nk = bare.add_kernel(SRC);
    let err = bare.single(nk).unwrap_err();
    assert!(matches!(err, HfuseError::Config(_)), "{err}");
    assert!(err.to_string().contains("no workload"));

    // The search entry point stays callable through the facade (exercised
    // end-to-end in tests/session_incremental.rs; just surface-check here).
    let _: fn(&Gpu, &FusionInput, &FusionInput, SearchOptions) -> Result<_, HfuseError> =
        search_fusion_config;
}

#[test]
fn kernels_root_lists_benchmarks_and_pairs() {
    assert!(AnyBenchmark::by_name("Batchnorm").is_some());
    assert!(all_pairs().len() >= 16, "the paper's sixteen pairs");
    assert!(family_pairs().len() >= 3, "new-family crosses");
    let b = AnyBenchmark::by_name("Hist").expect("bench");
    assert_eq!(b.benchmark().name(), "Hist");
}
