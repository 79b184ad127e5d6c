//! Soundness of the critical-path lower bound that
//! `Gpu::run_with_budget` compares with its budget before simulating:
//! for every launch below, the full bound (`Gpu::cycle_lower_bound`, taken
//! without the early exit) must not exceed the cycles `Gpu::run` takes.
//!
//! - every candidate of an exhaustive search on all 20 built-in pairs at
//!   `pascal_like`, and on the DL and crypto pairs at `test_tiny` and
//!   `volta_like` at scales 0.25 and 0.5;
//! - the conformance cases: all 17 kernels run alone, and the intra-family
//!   pairs fused at three partitions;
//! - exhaustive searches over the committed fuzz-corpus seeds.
//!
//! Ignored in the default run because the matrix takes minutes; CI's
//! `check` job runs it with `--include-ignored`.

use hfuse::frontend::parse_kernel;
use hfuse::fusion::{
    horizontal_fuse, search_fusion_config, BlockShape, FusionInput, SearchCandidate, SearchOptions,
};
use hfuse::ir::lower_kernel;
use hfuse::ir::spill::apply_register_bound;
use hfuse::kernels::{all_pairs, crypto_pairs, dl_pairs, family_pairs, AnyBenchmark};
use hfuse::sim::{Gpu, GpuConfig, Launch, ParamValue};

/// Bound-to-truth statistics over the checked launches.
#[derive(Default)]
struct Tally {
    checked: usize,
    bounded: usize,
    min_ratio: f64,
    max_ratio: f64,
}

impl Tally {
    /// Asserts the bound of `launch` on `gpu` is at most its true cycles,
    /// `cycles` when given, otherwise a fresh run's.
    fn check(&mut self, what: &str, gpu: &Gpu, launch: Launch, cycles: Option<u64>) {
        let launches = [launch];
        let bound = gpu
            .cycle_lower_bound(&launches)
            .unwrap_or_else(|e| panic!("{what}: {e}"));
        let truth = cycles.unwrap_or_else(|| {
            gpu.clone()
                .run(&launches)
                .unwrap_or_else(|e| panic!("{what}: {e}"))
                .total_cycles
        });
        self.checked += 1;
        if let Some(lb) = bound {
            assert!(lb <= truth, "{what}: bound {lb} > true {truth} cycles");
            let r = lb as f64 / truth as f64;
            if self.bounded == 0 {
                (self.min_ratio, self.max_ratio) = (r, r);
            }
            self.bounded += 1;
            self.min_ratio = self.min_ratio.min(r);
            self.max_ratio = self.max_ratio.max(r);
        }
    }

    fn report(&self, what: &str) {
        println!(
            "{what}: {} launches, {} bounded, bound/true {:.2}..{:.2}",
            self.checked, self.bounded, self.min_ratio, self.max_ratio
        );
        assert!(self.bounded > 0, "{what}: the bound never applied");
    }
}

/// The launch of a fused pair at `(d1, d2)`, compiled as the search
/// compiles it.
fn fused_launch(
    in1: &FusionInput,
    in2: &FusionInput,
    (d1, d2): (u32, u32),
    reg_bound: Option<u32>,
) -> Launch {
    let dims = |inp: &FusionInput, d| inp.shape.dims(d).expect("candidate block shape");
    let fused = horizontal_fuse(&in1.kernel, dims(in1, d1), &in2.kernel, dims(in2, d2))
        .expect("candidate fuses");
    let mut ir = lower_kernel(&fused.function).expect("candidate lowers");
    if let Some(b) = reg_bound {
        apply_register_bound(&mut ir, b);
    }
    Launch {
        kernel: ir.into(),
        grid_dim: in1.grid_dim.max(in2.grid_dim),
        block_dim: (d1 + d2, 1, 1),
        dynamic_shared_bytes: in1.dynamic_shared + in2.dynamic_shared,
        args: in1.args.iter().chain(&in2.args).copied().collect(),
    }
}

/// Checks every candidate of an exhaustive search of `in1 + in2`.
fn check_search(
    tally: &mut Tally,
    label: &str,
    gpu: &Gpu,
    in1: &FusionInput,
    in2: &FusionInput,
    opts: SearchOptions,
) {
    let opts = SearchOptions {
        prune: false,
        ..opts
    };
    let report = search_fusion_config(gpu, in1, in2, opts)
        .unwrap_or_else(|e| panic!("{label}: search failed: {e}"));
    for SearchCandidate {
        d1,
        d2,
        reg_bound,
        cycles,
        ..
    } in &report.candidates
    {
        let launch = fused_launch(in1, in2, (*d1, *d2), *reg_bound);
        let what = format!("{label} {d1}/{d2} bound {reg_bound:?}");
        tally.check(&what, gpu, launch, Some(*cycles));
    }
}

fn check_pair_at(tally: &mut Tally, cfg: &GpuConfig, pair: &hfuse::kernels::PairSpec, scale: f64) {
    let (a, b) = pair.at_scale(scale);
    let mut gpu = Gpu::new(cfg.clone());
    let in1 = a.benchmark().fusion_input(gpu.memory_mut());
    let in2 = b.benchmark().fusion_input(gpu.memory_mut());
    let label = format!("{} on {} at {scale}", pair.name(), cfg.name);
    check_search(tally, &label, &gpu, &in1, &in2, SearchOptions::default());
}

#[test]
#[ignore = "minutes of exhaustive searches; CI's check job runs it"]
fn bound_is_admissible_on_every_pair_at_pascal() {
    let mut tally = Tally::default();
    let cfg = GpuConfig::pascal_like();
    for pair in all_pairs().iter().chain(&family_pairs()) {
        check_pair_at(&mut tally, &cfg, pair, 1.0);
    }
    tally.report("20 pairs at pascal");
}

#[test]
#[ignore = "minutes of exhaustive searches; CI's check job runs it"]
fn bound_is_admissible_on_dl_and_crypto_pairs_at_tiny_and_volta() {
    let mut tally = Tally::default();
    for cfg in [GpuConfig::test_tiny(), GpuConfig::volta_like()] {
        for scale in [0.25, 0.5] {
            for pair in dl_pairs().iter().chain(&crypto_pairs()) {
                check_pair_at(&mut tally, &cfg, pair, scale);
            }
        }
    }
    tally.report("DL and crypto pairs at tiny and volta");
}

#[test]
#[ignore = "minutes of simulation; CI's check job runs it"]
fn bound_is_admissible_on_the_conformance_cases() {
    let mut tally = Tally::default();
    let cfg = GpuConfig::pascal_like();
    let kernels = AnyBenchmark::all()
        .into_iter()
        .chain(AnyBenchmark::extensions())
        .chain(AnyBenchmark::families());
    for bench in kernels {
        let bench = bench.scaled(0.25);
        let mut gpu = Gpu::new(cfg.clone());
        let inp = bench.benchmark().fusion_input(gpu.memory_mut());
        let launch = Launch {
            kernel: lower_kernel(&inp.kernel).expect("lower").into(),
            grid_dim: inp.grid_dim,
            block_dim: inp.shape.dims(inp.default_threads).expect("default dims"),
            dynamic_shared_bytes: inp.dynamic_shared,
            args: inp.args.clone(),
        };
        tally.check(bench.name(), &gpu, launch, None);
    }
    let family = [
        ("Axpy", "Dot"),
        ("Axpy", "Gemv"),
        ("Dot", "Gemv"),
        ("Blur", "Downsample"),
        ("Attention", "Attention"),
    ];
    for (a, b) in family {
        let by_name = |n| {
            AnyBenchmark::by_name(n)
                .expect("benchmark exists")
                .scaled(0.25)
        };
        let mut gpu = Gpu::new(cfg.clone());
        let in1 = by_name(a).benchmark().fusion_input(gpu.memory_mut());
        let in2 = by_name(b).benchmark().fusion_input(gpu.memory_mut());
        for split in [(256, 256), (384, 128), (128, 384)] {
            let launch = fused_launch(&in1, &in2, split, None);
            tally.check(&format!("{a}+{b} {split:?}"), &gpu, launch, None);
        }
    }
    tally.report("conformance cases");
}

#[test]
#[ignore = "minutes of exhaustive searches; CI's check job runs it"]
fn bound_is_admissible_on_the_fuzz_corpus() {
    let mut tally = Tally::default();
    for seed in [0u64, 7, 42, 0xdead] {
        for case in 0..2 {
            let (pair, mut input_rng) = hfuse_fuzz::case_streams(seed, case);
            let mut gpu = Gpu::new(GpuConfig::test_tiny());
            let in1_data = hfuse_fuzz::gen::CasePair::input_data(&mut input_rng, pair.k1.n);
            let in2_data = hfuse_fuzz::gen::CasePair::input_data(&mut input_rng, pair.k2.n);
            let out1 = gpu.memory_mut().alloc_u32(pair.k1.out_len() as usize);
            let in1b = gpu.memory_mut().alloc_from_u32(&in1_data);
            let out2 = gpu.memory_mut().alloc_u32(pair.k2.out_len() as usize);
            let in2b = gpu.memory_mut().alloc_from_u32(&in2_data);
            let mk = |src: String, out, inp, n: u32, threads, grid| FusionInput {
                kernel: parse_kernel(&src).expect("corpus kernel parses"),
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
            let in1 = mk(
                pair.k1.render(),
                out1,
                in1b,
                pair.k1.n,
                pair.k1.threads,
                pair.k1.grid,
            );
            let in2 = mk(
                pair.k2.render(),
                out2,
                in2b,
                pair.k2.n,
                pair.k2.threads,
                pair.k2.grid,
            );
            if in1.grid_dim != in2.grid_dim {
                continue; // a search needs matching grids
            }
            let label = format!("fuzz seed {seed} case {case}");
            check_search(
                &mut tally,
                &label,
                &gpu,
                &in1,
                &in2,
                SearchOptions::default(),
            );
        }
    }
    tally.report("fuzz corpus");
}
