//! Storage-slot assignment (`storage_slots`) checked against the liveness
//! it is built from, on every benchmark kernel, the fused candidates of a
//! DL and a crypto pair, and the fuzz-corpus kernels:
//!
//! - no two registers live at the same point share a slot, and a
//!   definition's slot differs from every other register live after it;
//! - a destination's slot differs from the slot of every other register the
//!   same instruction reads;
//! - every `Shfl` source has a slot no other register uses.
//!
//! The big hash kernels are also pinned near the fewest slots possible
//! (and Blake256 and Blake2B at no more than twice their register
//! pressure), so the simulator's register file cannot silently grow back
//! to one row per virtual register.

use hfuse::frontend::parse_kernel;
use hfuse::fusion::fuse::horizontal_fuse;
use hfuse::fusion::SearchOptions;
use hfuse::ir::ir::{Inst, Reg};
use hfuse::ir::liveness::{live_in_sets, storage_slots, successors, RegSet};
use hfuse::ir::{lower_kernel, lower_kernel_unoptimized, KernelIr};
use hfuse::kernels::AnyBenchmark;

/// Asserts that the registers of `regs` have pairwise distinct slots.
fn assert_distinct(what: &str, slot: &[u32], regs: &RegSet, pc: usize) {
    let mut seen: Vec<(u32, Reg)> = regs.iter().map(|r| (slot[r as usize], r)).collect();
    seen.sort_unstable();
    for w in seen.windows(2) {
        assert_ne!(
            w[0].0, w[1].0,
            "{what}: registers {} and {} are both live at pc {pc} but share slot {}",
            w[0].1, w[1].1, w[0].0
        );
    }
}

/// Checks every slot rule on `kernel`; returns its slot count.
fn check(what: &str, kernel: &KernelIr) -> u32 {
    let slots = storage_slots(kernel);
    let slot = &slots.slot;
    assert_eq!(slot.len(), kernel.num_regs as usize, "{what}: slot table");
    assert!(
        slot.iter().all(|&s| s < slots.num_slots),
        "{what}: slot out of range"
    );
    let live = live_in_sets(kernel);
    let mut srcs = Vec::new();
    for (pc, inst) in kernel.insts.iter().enumerate() {
        assert_distinct(what, slot, &live[pc], pc);
        srcs.clear();
        inst.srcs_into(&mut srcs);
        if let Some(d) = inst.dst() {
            let mut out = RegSet::new(kernel.num_regs);
            for &s in successors(&kernel.insts, pc).as_slice() {
                out.union_with(&live[s]);
            }
            for r in out.iter().filter(|&r| r != d) {
                assert_ne!(
                    slot[r as usize], slot[d as usize],
                    "{what}: pc {pc} defines {d} while {r} in the same slot is live"
                );
            }
            for &s in srcs.iter().filter(|&&s| s != d) {
                assert_ne!(
                    slot[s as usize], slot[d as usize],
                    "{what}: pc {pc} writes {d} into the slot of its source {s}"
                );
            }
        }
        if let Inst::Shfl { src, .. } = inst {
            let shared = (0..kernel.num_regs)
                .filter(|&r| r != *src && slot[r as usize] == slot[*src as usize])
                .collect::<Vec<_>>();
            assert!(
                shared.is_empty(),
                "{what}: shuffle source {src} shares its slot with {shared:?}"
            );
        }
    }
    slots.num_slots
}

fn benchmarks() -> Vec<AnyBenchmark> {
    AnyBenchmark::all()
        .into_iter()
        .chain(AnyBenchmark::extensions())
        .chain(AnyBenchmark::families())
        .collect()
}

#[test]
fn every_benchmark_kernel_gets_valid_slots() {
    let benches = benchmarks();
    assert_eq!(benches.len(), 17);
    for b in &benches {
        let ast = b.benchmark().kernel();
        check(b.name(), &lower_kernel(&ast).expect("lower"));
        check(
            &format!("{} (unoptimized)", b.name()),
            &lower_kernel_unoptimized(&ast).expect("lower"),
        );
    }
}

/// Fuses `a` and `b` at every Fig. 6 partition of the default search and
/// checks each candidate.
fn check_fused_pair(a: &str, b: &str) {
    let (a, b) = (
        AnyBenchmark::by_name(a).expect("benchmark"),
        AnyBenchmark::by_name(b).expect("benchmark"),
    );
    let (a, b) = (a.benchmark(), b.benchmark());
    let opts = SearchOptions::default();
    let partitions: Vec<(u32, u32)> = if a.tunable() && b.tunable() {
        (1..)
            .map(|i| i * opts.granularity)
            .take_while(|&d1| d1 < opts.d0)
            .map(|d1| (d1, opts.d0 - d1))
            .collect()
    } else {
        vec![(a.default_threads(), b.default_threads())]
    };
    let mut checked = 0;
    for (d1, d2) in partitions {
        let (Some(dims1), Some(dims2)) = (a.shape().dims(d1), b.shape().dims(d2)) else {
            continue;
        };
        let fused = horizontal_fuse(&a.kernel(), dims1, &b.kernel(), dims2).expect("fuse");
        let ir = lower_kernel(&fused.function).expect("lower");
        check(&format!("{} at {d1}/{d2}", ir.name), &ir);
        checked += 1;
    }
    assert!(checked > 0, "no partition fused");
}

#[test]
fn fused_dl_candidates_get_valid_slots() {
    check_fused_pair("Batchnorm", "Hist");
}

#[test]
fn fused_crypto_candidates_get_valid_slots() {
    check_fused_pair("Blake256", "Ethash");
}

#[test]
fn fuzz_corpus_kernels_get_valid_slots() {
    for seed in [0, 7, 42, 0xdead] {
        for case in 0..24 {
            let (pair, _) = hfuse_fuzz::case_streams(seed, case);
            let f1 = parse_kernel(&pair.k1.render()).expect("parse k1");
            let f2 = parse_kernel(&pair.k2.render()).expect("parse k2");
            let fused = horizontal_fuse(&f1, (pair.k1.threads, 1, 1), &f2, (pair.k2.threads, 1, 1))
                .expect("fuse");
            for f in [&f1, &f2, &fused.function] {
                let what = format!("seed {seed} case {case} {}", f.name);
                check(&what, &lower_kernel(f).expect("lower"));
                let raw = lower_kernel_unoptimized(f).expect("lower");
                check(&format!("{what} (unoptimized)"), &raw);
            }
        }
    }
}

/// The largest number of registers live at one point: no slot
/// assignment can use fewer slots.
fn max_live(kernel: &KernelIr) -> u32 {
    live_in_sets(kernel)
        .iter()
        .map(RegSet::len)
        .max()
        .unwrap_or(0)
}

#[test]
fn hash_kernels_need_few_slots() {
    // Blake256 and Blake2B fit in twice their register pressure. SHA256
    // does not: pressure leaves out rematerializable constants, and SHA256
    // keeps its round constants live across the rounds (139 registers live
    // at once for a pressure of 52). All three stay within 10% of the
    // registers live at once, the fewest slots any assignment can use.
    for (name, by_pressure) in [("Blake256", true), ("Blake2B", true), ("SHA256", false)] {
        let b = AnyBenchmark::by_name(name).expect("benchmark");
        let ir = lower_kernel(&b.benchmark().kernel()).expect("lower");
        let slots = check(name, &ir);
        let live = max_live(&ir);
        let what = format!(
            "{name}: {slots} slots, {live} live at most, pressure {}, {} virtual registers",
            ir.reg_pressure(),
            ir.num_regs
        );
        assert!(10 * slots <= 11 * live, "{what}: 10% over the live bound");
        assert!(!by_pressure || slots <= 2 * ir.reg_pressure(), "{what}");
    }
}
