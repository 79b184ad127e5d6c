//! Pins the optimizer's exact output. Every built-in kernel and every fused
//! candidate the Fig. 6 sweep compiles for the 20 paper and family pairs is
//! lowered with `lower_kernel` and bounded with `apply_register_bound`; the
//! printed listings, pressures and spilled registers of both are folded into
//! one 64-bit FNV-1a digest. A change to `thread_ir::opt` that is meant to be
//! a pure speed-up must leave the digest and the instruction total alone.
//!
//! On a mismatch, the per-kernel digests go to stderr
//! (`cargo test --test opt_digest -- --nocapture`), so the two sides can be
//! diffed to find the first kernel that changed.

use hfuse::frontend::hash::Fnv64;
use hfuse::fusion::horizontal_fuse;
use hfuse::fusion::search::register_bound;
use hfuse::fusion::SearchOptions;
use hfuse::ir::liveness::MIN_REGS;
use hfuse::ir::printer::print_kernel_ir;
use hfuse::ir::spill::apply_register_bound;
use hfuse::ir::{lower_kernel, KernelIr};
use hfuse::kernels::{all_pairs, family_pairs, AnyBenchmark, Benchmark};
use hfuse::sim::GpuConfig;

/// The digest of every listing below, as the optimizer produced it when
/// this test was written.
const DIGEST: u64 = 0x9785_98ef_468f_8f69;
/// The instruction count summed over every listing below.
const INSTS: usize = 141_840;

/// Folds one kernel into `h`: its listing, pressure and spilled registers.
fn feed(h: &mut Fnv64, ir: &KernelIr) {
    h.write_str(&print_kernel_ir(ir));
    h.write_u32(ir.pressure);
    h.write_u32(ir.spilled_regs.len() as u32);
    for &r in &ir.spilled_regs {
        h.write_u32(r);
    }
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

/// Every (name, lowered kernel, register bound) the digest covers: each
/// built-in kernel at half its pressure, and each fused candidate at the
/// bound the search gives it.
fn lowered() -> Vec<(String, KernelIr, u32)> {
    let mut out = Vec::new();
    for b in AnyBenchmark::all()
        .into_iter()
        .chain(AnyBenchmark::extensions())
        .chain(AnyBenchmark::families())
    {
        let ir = lower_kernel(&b.benchmark().kernel()).expect("lower");
        let bound = (ir.reg_pressure() / 2).max(MIN_REGS);
        out.push((b.name().to_owned(), ir, bound));
    }
    let cfg = GpuConfig::pascal_like();
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
            out.push((format!("{} at {d1}/{d2}", pair.name()), ir, r0));
        }
    }
    out
}

#[test]
fn optimizer_output_matches_the_pinned_digest() {
    let mut h = Fnv64::new();
    let mut insts = 0;
    let mut lines = Vec::new();
    let all = lowered();
    for (name, ir, bound) in &all {
        let mut capped = ir.clone();
        apply_register_bound(&mut capped, *bound);
        let mut one = Fnv64::new();
        for k in [ir, &capped] {
            feed(&mut h, k);
            feed(&mut one, k);
            insts += k.insts.len();
        }
        lines.push(format!("{name}: {:016x}", one.finish()));
    }
    assert!(all.len() > 40, "only {} kernels lowered", all.len());
    if (h.finish(), insts) != (DIGEST, INSTS) {
        eprintln!("{}", lines.join("\n"));
    }
    assert_eq!(
        (format!("{:#018x}", h.finish()), insts),
        (format!("{DIGEST:#018x}"), INSTS),
        "optimizer output changed over {} kernels",
        all.len()
    );
}
