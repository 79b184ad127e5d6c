//! Register-bound spilling, modeling `nvcc -maxrregcount`.
//!
//! When HFuse applies a register bound to recover occupancy (Fig. 6 of the
//! paper), the real compiler spills excess registers to local memory, which
//! turns register accesses into memory traffic. We model this by *marking*
//! virtual registers as spilled: functionally nothing changes (values still
//! live in the register file of the interpreter), but the simulator charges
//! a local-memory access for every use of a spilled register and a store for
//! every definition — the same cost structure real spilling has.
//!
//! Liveness does not depend on which registers are spilled, so selection
//! runs one liveness pass and then keeps, per program point, the count of
//! live registers that are neither rematerializable nor spilled. Spilling a
//! register decrements the points where it is live; the pressure after each
//! choice is the largest count, found in the same sweep over the points.
//! The cost is one dataflow fixpoint plus one sweep over the points per
//! spilled register, and the result equals re-running
//! [`pressure_excluding`](crate::liveness::pressure_excluding) after every
//! choice.

use crate::ir::KernelIr;
use crate::liveness::{
    live_in_sets, pressure_of_max_live, reg_stats, rematerializable_regs, RegSet, MIN_REGS,
};

/// Bytes of local memory reserved per spilled register.
const SPILL_SLOT_BYTES: u32 = 8;

/// Applies a register bound to the kernel, selecting registers to spill
/// until the pressure estimate fits within `bound`.
///
/// Registers with long live ranges and few occurrences are spilled first
/// (cheapest: few extra memory accesses per register freed). Returns the
/// number of registers spilled. If `bound` is already satisfied this is a
/// no-op.
pub fn apply_register_bound(kernel: &mut KernelIr, bound: u32) -> usize {
    let bound = bound.max(MIN_REGS);
    if kernel.reg_pressure() <= bound {
        return 0;
    }

    // Rank candidates: lowest (occurrences / live_points) first. Constant
    // registers are already free (see `liveness::rematerializable_regs`),
    // so spilling them would not reduce pressure.
    let live = live_in_sets(kernel);
    let cheap = rematerializable_regs(kernel);
    let mut candidates: Vec<_> = reg_stats(kernel, &live)
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

    // Live registers per point, excluding the cheap and the spilled ones.
    let mut counts: Vec<u32> = live
        .iter()
        .map(|s| s.count_excluding(Some(&cheap)))
        .collect();
    let mut max_live = counts.iter().copied().max().unwrap_or(0);
    let mut spilled = RegSet::new(kernel.num_regs);
    for cand in candidates {
        if pressure_of_max_live(max_live) <= bound {
            break;
        }
        spilled.insert(cand.reg);
        max_live = 0;
        for (count, set) in counts.iter_mut().zip(&live) {
            if set.contains(cand.reg) {
                *count -= 1;
            }
            max_live = max_live.max(*count);
        }
    }

    let count = spilled.len();
    kernel.spilled_regs = spilled.iter().collect();
    kernel.local_bytes += SPILL_SLOT_BYTES * count;
    kernel.pressure = pressure_of_max_live(max_live).min(bound);
    count as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_kernel;
    use cuda_frontend::parse_kernel;

    fn wide_kernel() -> KernelIr {
        // Sixteen simultaneously live loads.
        let mut body = String::new();
        for i in 0..16 {
            body.push_str(&format!("float x{i} = a[{i}];"));
        }
        body.push_str("a[0] = ");
        body.push_str(
            &(0..16)
                .map(|i| format!("x{i}"))
                .collect::<Vec<_>>()
                .join(" + "),
        );
        body.push(';');
        let src = format!("__global__ void k(float* a) {{ {body} }}");
        lower_kernel(&parse_kernel(&src).expect("parse")).expect("lower")
    }

    #[test]
    fn bound_above_pressure_is_noop() {
        let mut k = wide_kernel();
        let p = k.reg_pressure();
        let spilled = apply_register_bound(&mut k, p + 10);
        assert_eq!(spilled, 0);
        assert!(k.spilled_regs.is_empty());
        assert_eq!(k.reg_pressure(), p);
    }

    #[test]
    fn bound_below_pressure_spills_until_fit() {
        let mut k = wide_kernel();
        let p = k.reg_pressure();
        assert!(p > 16, "test kernel should be register-hungry, got {p}");
        let target = p - 6;
        let spilled = apply_register_bound(&mut k, target);
        assert!(spilled > 0);
        assert!(
            k.reg_pressure() <= target,
            "{} > {target}",
            k.reg_pressure()
        );
        assert_eq!(k.spilled_regs.len(), spilled);
    }

    #[test]
    fn spilling_reserves_local_memory() {
        let mut k = wide_kernel();
        let before = k.local_bytes;
        let p = k.reg_pressure();
        let spilled = apply_register_bound(&mut k, p - 4);
        assert_eq!(k.local_bytes, before + 8 * spilled as u32);
    }

    #[test]
    fn bound_is_floored_at_min_regs() {
        let mut k = wide_kernel();
        apply_register_bound(&mut k, 1);
        assert!(k.reg_pressure() >= crate::liveness::MIN_REGS);
    }

    #[test]
    fn spilled_regs_have_long_live_ranges() {
        let mut k = wide_kernel();
        let stats = reg_stats(&k, &live_in_sets(&k));
        let p = k.reg_pressure();
        apply_register_bound(&mut k, p - 4);
        // Every spilled register should be live somewhere.
        for &r in &k.spilled_regs {
            assert!(stats[r as usize].live_points > 0);
        }
    }
}
