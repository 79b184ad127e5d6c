//! Differential test of register-bound spilling: `apply_register_bound`
//! selects its spills from one liveness pass with incremental per-point
//! counts, and must pick exactly what the straightforward greedy loop picks
//! when it re-runs `pressure_excluding` after every choice.

use hfuse::fusion::horizontal_fuse;
use hfuse::fusion::search::register_bound;
use hfuse::fusion::SearchOptions;
use hfuse::ir::liveness::{
    live_in_sets, pressure_excluding, reg_stats, rematerializable_regs, RegSet, MIN_REGS,
};
use hfuse::ir::spill::apply_register_bound;
use hfuse::ir::{lower_kernel, KernelIr};
use hfuse::kernels::{all_pairs, family_pairs, AnyBenchmark, Benchmark};
use hfuse::sim::GpuConfig;

/// The greedy spill loop, recomputing the pressure from scratch after each
/// spilled register. Returns the number of registers spilled.
fn reference_bound(kernel: &mut KernelIr, bound: u32) -> usize {
    let bound = bound.max(MIN_REGS);
    if kernel.reg_pressure() <= bound {
        return 0;
    }
    let cheap = rematerializable_regs(kernel);
    let mut candidates: Vec<_> = reg_stats(kernel, &live_in_sets(kernel))
        .into_iter()
        .filter(|s| s.live_points > 0 && !cheap.contains(s.reg))
        .collect();
    candidates.sort_by(|a, b| {
        let pa = f64::from(a.occurrences) / f64::from(a.live_points);
        let pb = f64::from(b.occurrences) / f64::from(b.live_points);
        pa.partial_cmp(&pb)
            .expect("priorities are finite")
            .then(b.live_points.cmp(&a.live_points))
    });
    let mut spilled = RegSet::new(kernel.num_regs);
    let mut count = 0;
    for cand in candidates {
        if pressure_excluding(kernel, Some(&spilled)) <= bound {
            break;
        }
        spilled.insert(cand.reg);
        count += 1;
    }
    kernel.spilled_regs = spilled.iter().collect();
    // Eight bytes of local memory per spill slot.
    kernel.local_bytes += 8 * count;
    kernel.pressure = pressure_excluding(kernel, Some(&spilled)).min(bound);
    count as usize
}

/// Bounds `ir` both ways and asserts the results agree; returns the number
/// of registers spilled.
fn check(what: &str, ir: &KernelIr, bound: u32) -> usize {
    let mut want = ir.clone();
    let n_want = reference_bound(&mut want, bound);
    let mut got = ir.clone();
    let n_got = apply_register_bound(&mut got, bound);
    assert_eq!(n_got, n_want, "{what} at bound {bound}: spill count");
    assert_eq!(
        got.spilled_regs, want.spilled_regs,
        "{what} at bound {bound}: spilled registers"
    );
    assert_eq!(
        got.pressure, want.pressure,
        "{what} at bound {bound}: pressure"
    );
    assert_eq!(
        got.local_bytes, want.local_bytes,
        "{what} at bound {bound}: local bytes"
    );
    n_got
}

#[test]
fn every_kernel_spills_like_the_reference_at_every_bound() {
    let mut spilled = 0;
    for b in AnyBenchmark::all()
        .into_iter()
        .chain(AnyBenchmark::extensions())
        .chain(AnyBenchmark::families())
    {
        let ir = lower_kernel(&b.benchmark().kernel()).expect("lower");
        let mut bound = ir.reg_pressure();
        while bound >= MIN_REGS {
            spilled += check(b.name(), &ir, bound);
            bound -= 4;
        }
    }
    assert!(spilled > 0, "no bound made any kernel spill");
}

/// The Fig. 6 partitions of a pair at the default search options.
fn partitions(a: &dyn Benchmark, b: &dyn Benchmark) -> Vec<(u32, u32)> {
    let opts = SearchOptions::default();
    if a.tunable() && b.tunable() {
        (1..)
            .map(|i| i * opts.granularity)
            .take_while(|&d1| d1 < opts.d0)
            .map(|d1| (d1, opts.d0 - d1))
            .collect()
    } else {
        vec![(a.default_threads(), b.default_threads())]
    }
}

#[test]
fn every_fused_candidate_spills_like_the_reference_at_its_bound() {
    let cfg = GpuConfig::pascal_like();
    let mut candidates = 0;
    for pair in all_pairs().into_iter().chain(family_pairs()) {
        let (a, b) = (pair.first.benchmark(), pair.second.benchmark());
        let (ka, kb) = (a.kernel(), b.kernel());
        let nregs_a = lower_kernel(&ka).expect("lower").reg_pressure();
        let nregs_b = lower_kernel(&kb).expect("lower").reg_pressure();
        for (d1, d2) in partitions(a, b) {
            let (Some(dims1), Some(dims2)) = (a.shape().dims(d1), b.shape().dims(d2)) else {
                continue;
            };
            let Ok(fused) = horizontal_fuse(&ka, dims1, &kb, dims2) else {
                continue;
            };
            let ir = lower_kernel(&fused.function).expect("lower");
            let shmem = ir.shared_bytes(a.dynamic_shared() + b.dynamic_shared());
            let r0 = register_bound(&cfg, d1, nregs_a, d2, nregs_b, shmem, d1 + d2);
            check(&format!("{} at {d1}/{d2}", pair.name()), &ir, r0);
            candidates += 1;
        }
    }
    assert!(candidates > 20, "only {candidates} fused candidates");
}
