//! Liveness checked against a reference per-instruction fixpoint.
//!
//! The reference below is the plain backward dataflow over instructions:
//! every instruction's live-in set is recomputed from its successors' until
//! nothing changes. On every kernel `opt_digest` lowers (each built-in
//! kernel, each fused candidate of the 20 paper and family pairs at each
//! Fig. 6 partition, and the register-bounded copy of each) and on the
//! kernels of the committed fuzz-corpus seeds, optimized and unoptimized,
//! the library's `live_in_sets`, `register_pressure`, `pressure_excluding`
//! (with the rematerializable and, on bounded copies, the spilled
//! registers) and `storage_slots` must equal what the reference gives.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hfuse::frontend::parse_kernel;
use hfuse::fusion::horizontal_fuse;
use hfuse::fusion::search::register_bound;
use hfuse::fusion::SearchOptions;
use hfuse::ir::ir::{Inst, Reg};
use hfuse::ir::liveness::{
    live_in_sets, pressure_excluding, register_pressure, rematerializable_regs, storage_slots,
    successors, RegSet, MAX_REGS, MIN_REGS, REG_OVERHEAD,
};
use hfuse::ir::spill::apply_register_bound;
use hfuse::ir::{lower_kernel, lower_kernel_unoptimized, KernelIr};
use hfuse::kernels::{all_pairs, family_pairs, AnyBenchmark, Benchmark};
use hfuse::sim::GpuConfig;

/// Seeds of the committed fuzz corpus (`crates/fuzz/tests/corpus.rs`).
const CORPUS_SEEDS: [u64; 8] = [0, 7, 42, 0xdead, 0xbeef, 2024, 0x0b0e, 4242];
/// Cases taken from each corpus seed.
const CORPUS_CASES: u64 = 24;

/// Per-instruction live-in sets (registers live immediately before each
/// instruction executes), computed by iterative backward dataflow. This is
/// the library's original per-instruction fixpoint, except that `out` is a
/// fresh set each step (`RegSet::clear` is private to the crate).
fn reference_live_in_sets(kernel: &KernelIr) -> Vec<RegSet> {
    let insts = &kernel.insts;
    let n = insts.len();
    let mut live_in: Vec<RegSet> = vec![RegSet::new(kernel.num_regs); n];
    let mut srcs_buf: Vec<Reg> = Vec::with_capacity(3);
    let mut out;

    // Iterate to a fixed point. Reverse order converges quickly on mostly
    // forward CFGs.
    let mut changed = true;
    while changed {
        changed = false;
        for pc in (0..n).rev() {
            // live_out = union of successors' live_in
            out = RegSet::new(kernel.num_regs);
            for &s in successors(insts, pc).as_slice() {
                out.union_with(&live_in[s]);
            }
            // live_in = (live_out - def) | use
            if let Some(d) = insts[pc].dst() {
                out.remove(d);
            }
            srcs_buf.clear();
            insts[pc].srcs_into(&mut srcs_buf);
            for &s in &srcs_buf {
                out.insert(s);
            }
            if out != live_in[pc] {
                std::mem::swap(&mut live_in[pc], &mut out);
                changed = true;
            }
        }
    }
    live_in
}

/// The pressure of the reference live sets, not counting `skip`.
fn reference_pressure(live: &[RegSet], skip: &RegSet) -> u32 {
    let max_live = live
        .iter()
        .map(|s| s.count_excluding(Some(skip)))
        .max()
        .unwrap_or(0);
    (max_live + REG_OVERHEAD).clamp(MIN_REGS, MAX_REGS)
}

/// Storage slots from the reference live sets, by the rules and the greedy
/// interval colouring `storage_slots` documents.
fn reference_slots(kernel: &KernelIr, live: &[RegSet]) -> (Vec<u32>, u32) {
    let n = kernel.num_regs as usize;
    let mut private = RegSet::new(kernel.num_regs);
    let mut first = vec![u32::MAX; n];
    let mut last = vec![0u32; n];
    // A register occupies every PC where it is live-in or defined.
    for (pc, inst) in kernel.insts.iter().enumerate() {
        if let Inst::Shfl { src, .. } = inst {
            private.insert(*src);
        }
        for r in live[pc].iter().chain(inst.dst()) {
            first[r as usize] = first[r as usize].min(pc as u32);
            last[r as usize] = last[r as usize].max(pc as u32);
        }
    }
    let mut order: Vec<Reg> = (0..kernel.num_regs)
        .filter(|&r| first[r as usize] <= last[r as usize] && !private.contains(r))
        .collect();
    order.sort_unstable_by_key(|&r| (first[r as usize], r));
    let mut slot = vec![0u32; n];
    let mut num_slots = 0u32;
    let mut active: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    let mut free: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
    for r in order {
        let (lo, hi) = (first[r as usize], last[r as usize]);
        while let Some(&Reverse((end, s))) = active.peek() {
            if end >= lo {
                break;
            }
            active.pop();
            free.push(Reverse(s));
        }
        let s = match free.pop() {
            Some(Reverse(s)) => s,
            None => {
                num_slots += 1;
                num_slots - 1
            }
        };
        slot[r as usize] = s;
        active.push(Reverse((hi, s)));
    }
    for r in private.iter() {
        slot[r as usize] = num_slots;
        num_slots += 1;
    }
    (slot, num_slots)
}

/// Asserts every liveness product of `kernel` equals the reference's.
fn check(what: &str, kernel: &KernelIr) {
    let live = reference_live_in_sets(kernel);
    assert!(live_in_sets(kernel) == live, "{what}: live-in sets differ");
    let none = RegSet::new(kernel.num_regs);
    let cheap = rematerializable_regs(kernel);
    assert_eq!(
        register_pressure(kernel),
        reference_pressure(&live, &cheap),
        "{what}: register_pressure"
    );
    let mut spilled = RegSet::new(kernel.num_regs);
    for &r in &kernel.spilled_regs {
        spilled.insert(r);
    }
    for (name, ex) in [("none", &none), ("remat", &cheap), ("spilled", &spilled)] {
        let mut skip = cheap.clone();
        skip.union_with(ex);
        assert_eq!(
            pressure_excluding(kernel, Some(ex)),
            reference_pressure(&live, &skip),
            "{what}: pressure_excluding {name}"
        );
    }
    let slots = storage_slots(kernel);
    assert_eq!(
        (slots.slot, slots.num_slots),
        reference_slots(kernel, &live),
        "{what}: storage_slots"
    );
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

/// Checks `ir` and its copy bounded at `bound`.
fn check_with_bounded_copy(what: &str, ir: &KernelIr, bound: u32) {
    check(what, ir);
    let mut capped = ir.clone();
    apply_register_bound(&mut capped, bound);
    check(&format!("{what} (bounded at {bound})"), &capped);
}

#[test]
fn builtin_kernels_match_the_reference() {
    let mut checked = 0;
    for b in AnyBenchmark::all()
        .into_iter()
        .chain(AnyBenchmark::extensions())
        .chain(AnyBenchmark::families())
    {
        let ir = lower_kernel(&b.benchmark().kernel()).expect("lower");
        let bound = (ir.reg_pressure() / 2).max(MIN_REGS);
        check_with_bounded_copy(b.name(), &ir, bound);
        checked += 1;
    }
    assert!(checked > 15, "only {checked} kernels checked");
}

#[test]
fn fused_candidates_match_the_reference() {
    let cfg = GpuConfig::pascal_like();
    let mut checked = 0;
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
            check_with_bounded_copy(&format!("{} at {d1}/{d2}", pair.name()), &ir, r0);
            checked += 1;
        }
    }
    assert!(checked > 25, "only {checked} candidates checked");
}

#[test]
fn fuzz_corpus_kernels_match_the_reference() {
    for seed in CORPUS_SEEDS {
        for case in 0..CORPUS_CASES {
            let (pair, _) = hfuse_fuzz::case_streams(seed, case);
            let f1 = parse_kernel(&pair.k1.render()).expect("parse k1");
            let f2 = parse_kernel(&pair.k2.render()).expect("parse k2");
            let fused = horizontal_fuse(&f1, (pair.k1.threads, 1, 1), &f2, (pair.k2.threads, 1, 1))
                .ok()
                .map(|f| f.function);
            for f in [Some(&f1), Some(&f2), fused.as_ref()].into_iter().flatten() {
                let what = format!("seed {seed} case {case} {}", f.name);
                let ir = lower_kernel(f).expect("lower");
                check_with_bounded_copy(&what, &ir, (ir.reg_pressure() / 2).max(MIN_REGS));
                let raw = lower_kernel_unoptimized(f).expect("lower");
                check(&format!("{what} (unoptimized)"), &raw);
            }
        }
    }
}
