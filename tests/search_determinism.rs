//! The search report is a pure function of its inputs and options: the
//! profiling worker count (`HFUSE_SEARCH_THREADS`) moves wall time only.
//! Every candidate — abort values of pruned losers included — the winner's
//! index, and the winning kernel must be identical at 1, 2 and 8 workers,
//! and at 1 and 4 on two searches at the paper's scale: one whose losers
//! the critical-path bound prunes, and a mining pair whose two programs
//! race each other, the loser stopping soon after the winner finishes.
//!
//! Kept in a dedicated test binary with a single test: the worker count is
//! a process-global environment variable, so mutating it must not race
//! sibling tests.

use hfuse::fusion::{
    search_fusion_config, search_multi_fusion_config, FusionInput, MultiSearchReport,
    SearchOptions, SearchReport,
};
use hfuse::kernels::AnyBenchmark;
use hfuse::sim::{Gpu, GpuConfig};

const WORKERS: [&str; 3] = ["1", "2", "8"];

/// The pairs of `examples/bench_search.rs`.
const PAIRS: [(&str, &str); 9] = [
    ("Maxpool", "Batchnorm"),
    ("Upsample", "Hist"),
    ("Batchnorm", "Upsample"),
    ("Batchnorm", "Im2Col"),
    ("Hist", "Im2Col"),
    ("Ethash", "Ethash"),
    ("Axpy", "Blur"),
    ("Dot", "Downsample"),
    ("Gemv", "Attention"),
];

fn setup(names: &[&str]) -> (Gpu, Vec<FusionInput>) {
    setup_on(GpuConfig::test_tiny(), 0.25, names)
}

fn setup_on(cfg: GpuConfig, scale: f64, names: &[&str]) -> (Gpu, Vec<FusionInput>) {
    let mut gpu = Gpu::new(cfg);
    let inputs = names
        .iter()
        .map(|n| {
            AnyBenchmark::by_name(n)
                .expect("benchmark exists")
                .scaled(scale)
                .benchmark()
                .fusion_input(gpu.memory_mut())
        })
        .collect();
    (gpu, inputs)
}

/// Everything in a pairwise report but the wall-clock timings.
fn pair_key(r: &SearchReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.candidates.clone(),
        r.best_idx,
        r.best_kernel.clone(),
        r.d0,
    )
}

/// Everything in an N-way report.
fn multi_key(r: &MultiSearchReport) -> impl PartialEq + std::fmt::Debug {
    (
        r.candidates.clone(),
        r.best_idx,
        r.best_kernel.clone(),
        r.d0,
    )
}

/// Runs `search` once per worker count of `workers` and asserts every
/// result equals the first one.
fn assert_worker_count_invariant<K: PartialEq + std::fmt::Debug>(
    what: &str,
    workers: &[&str],
    mut search: impl FnMut() -> K,
) {
    let keys: Vec<K> = workers
        .iter()
        .map(|w| {
            std::env::set_var("HFUSE_SEARCH_THREADS", w);
            search()
        })
        .collect();
    std::env::remove_var("HFUSE_SEARCH_THREADS");
    for (w, k) in workers.iter().zip(&keys).skip(1) {
        assert_eq!(
            &keys[0], k,
            "{what}: report at {w} workers differs from 1 worker"
        );
    }
}

#[test]
fn reports_are_identical_at_every_worker_count() {
    let mut pruned = 0;
    for (a, b) in PAIRS {
        let (gpu, inputs) = setup(&[a, b]);
        assert_worker_count_invariant(&format!("{a}+{b}"), &WORKERS, || {
            let r = search_fusion_config(&gpu, &inputs[0], &inputs[1], SearchOptions::default())
                .expect("search");
            pruned += r.pruned_count();
            pair_key(&r)
        });
    }
    // Pruned losers are what a worker-count-dependent budget would change,
    // so the matrix must actually prune.
    assert!(pruned > 0, "no candidate was pruned");

    let (gpu, inputs) = setup_on(GpuConfig::pascal_like(), 1.0, &["Hist", "Upsample"]);
    assert_worker_count_invariant("Hist+Upsample at pascal", &["1", "4"], || {
        let r = search_fusion_config(&gpu, &inputs[0], &inputs[1], SearchOptions::default())
            .expect("search");
        assert!(r.pruned_count() > 0, "the bound pruned nothing");
        pair_key(&r)
    });

    let (gpu, inputs) = setup_on(GpuConfig::pascal_like(), 1.0, &["Ethash", "Blake2b"]);
    assert_worker_count_invariant("Ethash+Blake2b at pascal", &["1", "4"], || {
        let r = search_fusion_config(&gpu, &inputs[0], &inputs[1], SearchOptions::default())
            .expect("search");
        assert_eq!(r.candidates.len(), 2);
        assert_eq!(r.pruned_count(), 1, "the front's loser ran to completion");
        pair_key(&r)
    });

    let triple = ["Hist", "Maxpool", "Upsample"];
    let (gpu, inputs) = setup(&triple);
    let opts = SearchOptions {
        granularity: 256,
        ..SearchOptions::default()
    };
    assert_worker_count_invariant(&triple.join("+"), &WORKERS, || {
        multi_key(&search_multi_fusion_config(&gpu, &inputs, opts).expect("multi search"))
    });
}
