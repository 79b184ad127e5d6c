//! Differential tests of branch-and-bound search pruning: on every paper
//! benchmark pair and on committed fuzz-corpus seeds, the pruned search must
//! report the same best candidate (partition, register bound, cycles) and
//! the same cycle counts for every *surviving* candidate as the exhaustive
//! search. Only which losers get budget-aborted — and at what clock — may
//! differ.

use hfuse::frontend::parse_kernel;
use hfuse::fusion::{search_fusion_config, BlockShape, FusionInput, SearchOptions};
use hfuse::kernels::{crypto_pairs, dl_pairs};
use hfuse::sim::{Gpu, GpuConfig, ParamValue};

/// Runs both arms on clones of the same device state and checks the
/// invariants pruning must preserve.
fn assert_prune_matches_exhaustive(
    label: &str,
    gpu: &Gpu,
    in1: &FusionInput,
    in2: &FusionInput,
    opts: SearchOptions,
) {
    let pruned = search_fusion_config(gpu, in1, in2, opts)
        .unwrap_or_else(|e| panic!("{label}: pruned search failed: {e}"));
    let exhaustive = search_fusion_config(
        gpu,
        in1,
        in2,
        SearchOptions {
            prune: false,
            ..opts
        },
    )
    .unwrap_or_else(|e| panic!("{label}: exhaustive search failed: {e}"));

    assert_eq!(exhaustive.pruned_count(), 0, "{label}");
    assert_eq!(
        pruned.candidates.len(),
        exhaustive.candidates.len(),
        "{label}: candidate counts differ"
    );
    assert_eq!(pruned.best_idx, exhaustive.best_idx, "{label}");
    assert_eq!(pruned.best().cycles, exhaustive.best().cycles, "{label}");
    assert_eq!(
        (pruned.best().d1, pruned.best().d2, pruned.best().reg_bound),
        (
            exhaustive.best().d1,
            exhaustive.best().d2,
            exhaustive.best().reg_bound
        ),
        "{label}"
    );
    assert_eq!(pruned.best_kernel, exhaustive.best_kernel, "{label}");
    for (p, e) in pruned.candidates.iter().zip(&exhaustive.candidates) {
        assert_eq!(
            (p.d1, p.d2, p.reg_bound),
            (e.d1, e.d2, e.reg_bound),
            "{label}: candidate order changed"
        );
        match p.pruned_at {
            // Survivors must report the exact exhaustive numbers.
            None => assert_eq!(p, e, "{label}: surviving candidate diverged"),
            Some(at) => {
                assert_eq!(Some(p.cycles), Some(at), "{label}");
                // The abort clock is a lower bound on the true cycle count
                // and lies strictly past the winner.
                assert!(at <= e.cycles, "{label}: {at} > true {}", e.cycles);
                assert!(at > pruned.best().cycles, "{label}");
            }
        }
    }
}

#[test]
fn pruned_search_matches_exhaustive_on_all_dl_pairs() {
    for pair in &dl_pairs() {
        let (a, b) = pair.at_scale(0.25);
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let in1 = a.benchmark().fusion_input(gpu.memory_mut());
        let in2 = b.benchmark().fusion_input(gpu.memory_mut());
        assert_prune_matches_exhaustive(
            &pair.name(),
            &gpu,
            &in1,
            &in2,
            SearchOptions {
                d0: 512,
                granularity: 128,
                ..SearchOptions::default()
            },
        );
    }
}

#[test]
fn pruned_search_matches_exhaustive_at_pascal_scale() {
    // At the paper's scale the critical-path bound, not the engine, cuts
    // the losers short: their abort values are bounds, never simulated
    // clocks, and must still lie past the winner and within the truth.
    let pair = dl_pairs()
        .into_iter()
        .find(|p| (p.first.name(), p.second.name()) == ("Hist", "Upsample"))
        .expect("Hist+Upsample is a paper pair");
    let (a, b) = pair.at_scale(1.0);
    let mut gpu = Gpu::new(GpuConfig::pascal_like());
    let in1 = a.benchmark().fusion_input(gpu.memory_mut());
    let in2 = b.benchmark().fusion_input(gpu.memory_mut());
    assert_prune_matches_exhaustive(&pair.name(), &gpu, &in1, &in2, SearchOptions::default());
}

#[test]
fn pruned_search_matches_exhaustive_on_crypto_pair() {
    // Crypto pairs are non-tunable (single partition, two register
    // variants); use the fast Blake256+Blake2B pair.
    let pair = &crypto_pairs()[3];
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let in1 = pair.first.benchmark().fusion_input(gpu.memory_mut());
    let in2 = pair.second.benchmark().fusion_input(gpu.memory_mut());
    assert_prune_matches_exhaustive(&pair.name(), &gpu, &in1, &in2, SearchOptions::default());
}

/// Builds a pair of [`FusionInput`]s from a deterministic fuzz-corpus case,
/// mirroring how the fuzzer's oracle launches the kernels natively.
fn fuzz_inputs(seed: u64, case: u64) -> (Gpu, FusionInput, FusionInput) {
    let (pair, mut input_rng) = hfuse_fuzz::case_streams(seed, case);
    let f1 = parse_kernel(&pair.k1.render()).expect("parse k1");
    let f2 = parse_kernel(&pair.k2.render()).expect("parse k2");
    let mut gpu = Gpu::new(GpuConfig::test_tiny());

    let in1_data = hfuse_fuzz::gen::CasePair::input_data(&mut input_rng, pair.k1.n);
    let in2_data = hfuse_fuzz::gen::CasePair::input_data(&mut input_rng, pair.k2.n);
    let out1 = gpu.memory_mut().alloc_u32(pair.k1.out_len() as usize);
    let in1b = gpu.memory_mut().alloc_from_u32(&in1_data);
    let out2 = gpu.memory_mut().alloc_u32(pair.k2.out_len() as usize);
    let in2b = gpu.memory_mut().alloc_from_u32(&in2_data);

    let mk = |kernel, out, inp, n: u32, threads, grid| FusionInput {
        kernel,
        args: vec![
            ParamValue::Ptr(out),
            ParamValue::Ptr(inp),
            ParamValue::I32(n as i32),
        ],
        grid_dim: grid,
        dynamic_shared: 0,
        default_threads: threads,
        tunable: false,
        shape: BlockShape::Linear,
    };
    let in1 = mk(f1, out1, in1b, pair.k1.n, pair.k1.threads, pair.k1.grid);
    let in2 = mk(f2, out2, in2b, pair.k2.n, pair.k2.threads, pair.k2.grid);
    (gpu, in1, in2)
}

#[test]
fn pruned_search_matches_exhaustive_on_fuzz_corpus() {
    // The committed corpus seeds from the differential fuzzer (see
    // crates/fuzz): generated kernel pairs with barriers, shared memory,
    // and atomics, fused at their native (fixed) partitions.
    for seed in [0u64, 7, 42, 0xdead] {
        for case in 0..2 {
            let (gpu, in1, in2) = fuzz_inputs(seed, case);
            if in1.grid_dim != in2.grid_dim {
                continue; // search requires matching grids
            }
            assert_prune_matches_exhaustive(
                &format!("fuzz seed {seed} case {case}"),
                &gpu,
                &in1,
                &in2,
                SearchOptions::default(),
            );
        }
    }
}
