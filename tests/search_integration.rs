//! Integration tests of the Fig. 6 configuration search and the measurement
//! helpers, run end-to-end on real benchmark pairs.

use hfuse::fusion::{
    measure_naive_horizontal, measure_native, measure_single, measure_vertical,
    search_fusion_config, SearchOptions,
};
use hfuse::kernels::{crypto_pairs, dl_pairs, AnyBenchmark};
use hfuse::sim::{Gpu, GpuConfig};

fn inputs(
    a: &AnyBenchmark,
    b: &AnyBenchmark,
) -> (Gpu, hfuse::fusion::FusionInput, hfuse::fusion::FusionInput) {
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let in1 = a.benchmark().fusion_input(gpu.memory_mut());
    let in2 = b.benchmark().fusion_input(gpu.memory_mut());
    (gpu, in1, in2)
}

#[test]
fn search_sweeps_all_partitions_for_tunable_pairs() {
    let pair = &dl_pairs()[5]; // Hist+Maxpool
    let (a, b) = (pair.first.scaled(0.25), pair.second.scaled(0.25));
    let (gpu, in1, in2) = inputs(&a, &b);
    let report = search_fusion_config(
        &gpu,
        &in1,
        &in2,
        SearchOptions {
            d0: 1024,
            granularity: 128,
            ..SearchOptions::default()
        },
    )
    .expect("search");
    // 7 partitions (128..896) × 2 register variants.
    assert_eq!(report.candidates.len(), 14);
    let best = report.best();
    assert!(report.candidates.iter().all(|c| c.cycles >= best.cycles));
    // Every candidate must have a consistent partition.
    for c in &report.candidates {
        assert_eq!(c.d1 + c.d2, 1024);
        assert_eq!(c.d1 % 128, 0);
    }
}

#[test]
fn search_respects_granularity_option() {
    let pair = &dl_pairs()[5];
    let (a, b) = (pair.first.scaled(0.25), pair.second.scaled(0.25));
    let (gpu, in1, in2) = inputs(&a, &b);
    let coarse = search_fusion_config(
        &gpu,
        &in1,
        &in2,
        SearchOptions {
            d0: 1024,
            granularity: 256,
            ..SearchOptions::default()
        },
    )
    .expect("search");
    assert_eq!(coarse.candidates.len(), 6); // 256, 512, 768 × 2 variants
}

#[test]
fn crypto_pair_has_single_partition() {
    let pair = &crypto_pairs()[3]; // Blake256+Blake2B (fast pair)
    let (gpu, in1, in2) = inputs(&pair.first, &pair.second);
    let report = search_fusion_config(&gpu, &in1, &in2, SearchOptions::default()).expect("search");
    assert_eq!(report.candidates.len(), 2);
    assert_eq!(report.best().d1, 256);
    assert_eq!(report.best().d2, 256);
}

#[test]
fn native_time_is_bounded_by_singles() {
    let pair = &dl_pairs()[1]; // Batchnorm+Hist
    let (a, b) = (pair.first.scaled(0.25), pair.second.scaled(0.25));
    let (gpu, in1, in2) = inputs(&a, &b);
    let t1 = measure_single(&gpu, &in1).expect("single 1").total_cycles;
    let t2 = measure_single(&gpu, &in2).expect("single 2").total_cycles;
    let native = measure_native(&gpu, &in1, &in2)
        .expect("native")
        .total_cycles;
    // Co-execution can overlap but cannot be faster than the longer kernel,
    // nor slower than strictly serial plus slack.
    assert!(native >= t1.max(t2), "native {native} < max({t1}, {t2})");
    assert!(
        native <= (t1 + t2) * 11 / 10,
        "native {native} > serial {}",
        t1 + t2
    );
}

#[test]
fn fused_kernel_metrics_are_plausible() {
    let pair = &dl_pairs()[1];
    let (a, b) = (pair.first.scaled(0.25), pair.second.scaled(0.25));
    let (gpu, in1, in2) = inputs(&a, &b);
    let report = search_fusion_config(&gpu, &in1, &in2, SearchOptions::default()).expect("search");
    for c in &report.candidates {
        assert!(c.cycles > 0);
        assert!((0.0..=100.0).contains(&c.issue_util), "{c:?}");
        assert!((0.0..=100.0).contains(&c.mem_stall), "{c:?}");
        assert!((0.0..=100.0).contains(&c.occupancy), "{c:?}");
    }
}

#[test]
fn vertical_and_naive_measurements_run() {
    let pair = &dl_pairs()[9]; // Maxpool+Upsample (both linear shapes)
    let (a, b) = (pair.first.scaled(0.25), pair.second.scaled(0.25));
    let (gpu, in1, in2) = inputs(&a, &b);
    let v = measure_vertical(&gpu, &in1, &in2).expect("vertical");
    assert!(v.total_cycles > 0);
    let n = measure_naive_horizontal(&gpu, &in1, &in2, 1024).expect("naive");
    assert!(n.total_cycles > 0);
}

#[test]
fn search_report_carries_runnable_best_kernel() {
    let pair = &dl_pairs()[5];
    let (a, b) = (pair.first.scaled(0.25), pair.second.scaled(0.25));
    let (gpu, in1, in2) = inputs(&a, &b);
    let report = search_fusion_config(&gpu, &in1, &in2, SearchOptions::default()).expect("search");
    // The reported best kernel must actually run with the reported config.
    let mut gpu = gpu.clone();
    let mut args = in1.args.clone();
    args.extend(in2.args.iter().copied());
    let r = gpu
        .run(&[hfuse::sim::Launch {
            kernel: report.best_kernel.clone().into(),
            grid_dim: in1.grid_dim,
            block_dim: (report.best().d1 + report.best().d2, 1, 1),
            dynamic_shared_bytes: in1.dynamic_shared + in2.dynamic_shared,
            args,
        }])
        .expect("best kernel runs");
    assert!(r.total_cycles > 0);
}

#[test]
fn search_is_deterministic_across_runs_and_threads() {
    // With pruning, every candidate reports its run at one budget, the
    // fewest cycles any program of the raced front completes in, so
    // the whole report — abort clocks of pruned losers included — is the
    // same run to run. `tests/search_determinism.rs` checks the worker
    // counts.
    let pair = &dl_pairs()[5];
    let (a, b) = (pair.first.scaled(0.25), pair.second.scaled(0.25));
    let (gpu, in1, in2) = inputs(&a, &b);
    let r1 = search_fusion_config(&gpu, &in1, &in2, SearchOptions::default()).expect("search 1");
    let r2 = search_fusion_config(&gpu, &in1, &in2, SearchOptions::default()).expect("search 2");
    assert_eq!(r1.candidates, r2.candidates);
    assert_eq!(r1.best_idx, r2.best_idx);
    assert_eq!(r1.best_kernel, r2.best_kernel);
}

#[test]
fn exhaustive_search_is_byte_identical_across_runs() {
    // With pruning disabled every candidate profiles to completion, so the
    // whole report must be byte-identical run to run.
    let pair = &dl_pairs()[5];
    let (a, b) = (pair.first.scaled(0.25), pair.second.scaled(0.25));
    let (gpu, in1, in2) = inputs(&a, &b);
    let opts = SearchOptions {
        prune: false,
        ..SearchOptions::default()
    };
    let r1 = search_fusion_config(&gpu, &in1, &in2, opts).expect("search 1");
    let r2 = search_fusion_config(&gpu, &in1, &in2, opts).expect("search 2");
    assert_eq!(r1.pruned_count(), 0);
    assert_eq!(r2.pruned_count(), 0);
    assert_eq!(r1.candidates, r2.candidates);
    assert_eq!(r1.best_idx, r2.best_idx);
    assert_eq!(r1.best_kernel, r2.best_kernel);
}
