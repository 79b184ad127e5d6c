//! Dataflow liveness analysis and register-pressure estimation.
//!
//! Register pressure is the occupancy model's `NRegs(S)`: the maximum number
//! of simultaneously live virtual registers at any program point, plus a
//! small architectural overhead mimicking the fixed registers a real
//! compiler reserves.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::ir::{Inst, KernelIr, Reg};

/// Floor on any pressure estimate — even an empty kernel occupies a few
/// architectural registers.
pub const MIN_REGS: u32 = 8;

/// Fixed overhead added to the max-live count, mimicking the scheduling
/// and addressing registers `nvcc` keeps beyond the dataflow minimum (our
/// estimates sit well below `nvcc`'s reported counts otherwise).
pub const REG_OVERHEAD: u32 = 12;

/// Hardware limit per thread.
pub const MAX_REGS: u32 = 255;

/// A dense bitset over virtual registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    /// Creates an empty set able to hold `n` registers.
    pub fn new(n: u32) -> Self {
        Self {
            words: vec![0; (n as usize).div_ceil(64)],
        }
    }

    /// Inserts `r`; returns true if it was newly inserted.
    pub fn insert(&mut self, r: Reg) -> bool {
        let (w, b) = (r as usize / 64, r as usize % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Removes `r`.
    pub fn remove(&mut self, r: Reg) {
        let (w, b) = (r as usize / 64, r as usize % 64);
        self.words[w] &= !(1 << b);
    }

    /// Membership test.
    pub fn contains(&self, r: Reg) -> bool {
        let (w, b) = (r as usize / 64, r as usize % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Number of registers in the set, optionally ignoring some registers.
    pub fn count_excluding(&self, excluded: Option<&RegSet>) -> u32 {
        match excluded {
            None => self.words.iter().map(|w| w.count_ones()).sum(),
            Some(ex) => self
                .words
                .iter()
                .zip(&ex.words)
                .map(|(w, e)| (w & !e).count_ones())
                .sum(),
        }
    }

    /// Number of registers in the set.
    pub fn len(&self) -> u32 {
        self.count_excluding(None)
    }

    /// True when no register is present.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| *w == 0)
    }

    /// `self |= other`; returns true if `self` changed.
    pub fn union_with(&mut self, other: &RegSet) -> bool {
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let next = *a | *b;
            if next != *a {
                *a = next;
                changed = true;
            }
        }
        changed
    }

    /// `self |= other & !minus`, a word at a time; returns true if `self`
    /// changed.
    pub(crate) fn union_with_difference(&mut self, other: &RegSet, minus: &RegSet) -> bool {
        let mut changed = false;
        for ((a, b), m) in self.words.iter_mut().zip(&other.words).zip(&minus.words) {
            let next = *a | (*b & !*m);
            if next != *a {
                *a = next;
                changed = true;
            }
        }
        changed
    }

    /// Inserts every register of `other`, and `extra` if given, calling
    /// `on_new` on each that was not yet present; a word at a time.
    fn insert_new(&mut self, other: &RegSet, extra: Option<Reg>, mut on_new: impl FnMut(Reg)) {
        for (wi, (a, &b)) in self.words.iter_mut().zip(&other.words).enumerate() {
            let mut new = b & !*a;
            *a |= b;
            while new != 0 {
                on_new(wi as Reg * 64 + new.trailing_zeros());
                new &= new - 1;
            }
        }
        if let Some(r) = extra {
            if self.insert(r) {
                on_new(r);
            }
        }
    }

    /// Removes every register.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over the registers in the set, in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                Some(wi as Reg * 64 + b)
            })
        })
    }
}

/// Successor program counters of the instruction at `pc`.
pub fn successors(insts: &[Inst], pc: usize) -> SmallSuccs {
    match &insts[pc] {
        Inst::Ret => SmallSuccs::none(),
        Inst::Jmp { target } => SmallSuccs::one(*target),
        Inst::Bra { target, .. } => SmallSuccs::two(pc + 1, *target),
        _ => {
            if pc + 1 < insts.len() {
                SmallSuccs::one(pc + 1)
            } else {
                SmallSuccs::none()
            }
        }
    }
}

/// Up to two successor PCs, without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmallSuccs {
    items: [usize; 2],
    len: u8,
}

impl SmallSuccs {
    fn none() -> Self {
        Self {
            items: [0; 2],
            len: 0,
        }
    }
    fn one(a: usize) -> Self {
        Self {
            items: [a, 0],
            len: 1,
        }
    }
    fn two(a: usize, b: usize) -> Self {
        Self {
            items: [a, b],
            len: 2,
        }
    }

    /// The successors as a slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.items[..self.len as usize]
    }
}

/// Per-instruction live-in sets (registers live immediately before each
/// instruction executes), computed by iterative backward dataflow.
pub fn live_in_sets(kernel: &KernelIr) -> Vec<RegSet> {
    let insts = &kernel.insts;
    let n = insts.len();
    let mut live_in: Vec<RegSet> = vec![RegSet::new(kernel.num_regs); n];
    let mut srcs_buf: Vec<Reg> = Vec::with_capacity(3);
    let mut out = RegSet::new(kernel.num_regs);

    // Iterate to a fixed point. Reverse order converges quickly on mostly
    // forward CFGs.
    let mut changed = true;
    while changed {
        changed = false;
        for pc in (0..n).rev() {
            // live_out = union of successors' live_in
            out.clear();
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

/// A storage slot for every virtual register of a kernel: registers whose
/// values are never needed at the same time share a slot, so an
/// interpreter can size each thread's register file by
/// [`Self::num_slots`] instead of [`KernelIr::num_regs`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorageSlots {
    /// The slot of each virtual register, indexed by register.
    pub slot: Vec<u32>,
    /// Number of slots (every entry of [`Self::slot`] is below it).
    pub num_slots: u32,
}

/// Assigns the virtual registers of `kernel` storage slots from the live
/// ranges of [`live_in_sets`]. Two registers get different slots when:
///
/// 1. one is defined while the other is live after the definition (dead
///    definitions included: they still write their slot);
/// 2. one is the destination of an instruction and the other a source of
///    the same instruction, so a destination never aliases another source;
/// 3. both are live on entry (some path reads them before any write): they
///    must still read 0;
/// 4. either is the source of a `Shfl`. A shuffle reads its source in
///    *other* lanes, which may have exited or wait in the other arm of a
///    divergent branch, where the register is dead, so every shuffle source
///    gets a slot of its own.
///
/// By rules 1 and 3, a thread reading a register finds what its own last
/// write of that register left (or 0), whatever else shares the slot.
///
/// A register *occupies* every PC where it is live-in or defined; each pair
/// of rules 1–3 occupies a common PC (a register live after a definition
/// other than its own is live-in there, sources are live-in, and entry-live
/// registers are live-in at PC 0). Registers therefore get slots by greedy
/// colouring, in order of first occupied PC, of the intervals from their
/// first to their last occupied PC: optimal for intervals, exact for
/// straight-line code, and conservative where a range has holes. Costs two
/// word-parallel sweeps over the live sets and a sort.
pub fn storage_slots(kernel: &KernelIr) -> StorageSlots {
    let n = kernel.num_regs;
    let insts = &kernel.insts;
    let live = live_in_sets(kernel);
    let mut private = RegSet::new(n);
    // [first, last] occupied PC per register; `first > last` when the
    // register occurs nowhere.
    let mut first = vec![u32::MAX; n as usize];
    let mut last = vec![0u32; n as usize];
    let mut seen = RegSet::new(n);
    for (pc, inst) in insts.iter().enumerate() {
        if let Inst::Shfl { src, .. } = inst {
            private.insert(*src);
        }
        seen.insert_new(&live[pc], inst.dst(), |r| first[r as usize] = pc as u32);
    }
    seen.clear();
    for (pc, inst) in insts.iter().enumerate().rev() {
        seen.insert_new(&live[pc], inst.dst(), |r| last[r as usize] = pc as u32);
    }

    let mut order: Vec<Reg> = (0..n)
        .filter(|&r| first[r as usize] <= last[r as usize] && !private.contains(r))
        .collect();
    order.sort_unstable_by_key(|&r| (first[r as usize], r));
    let mut slot = vec![0u32; n as usize];
    let mut num_slots = 0u32;
    // Occupied slots by the last PC of their range, and freed slots, each
    // popped smallest first.
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
    StorageSlots { slot, num_slots }
}

/// Registers that a real compiler would not keep in the register file:
/// defined exclusively by immediates, parameter loads, or static address
/// materialization, all of which SASS encodes as instruction immediates or
/// constant-bank reads. They are excluded from pressure so that constant
/// pooling does not distort occupancy.
pub fn rematerializable_regs(kernel: &KernelIr) -> RegSet {
    let mut cheap = RegSet::new(kernel.num_regs);
    let mut expensive = RegSet::new(kernel.num_regs);
    for inst in &kernel.insts {
        if let Some(d) = inst.dst() {
            match inst {
                Inst::Imm { .. }
                | Inst::LdParam { .. }
                | Inst::SharedAddr { .. }
                | Inst::LocalAddr { .. } => {
                    cheap.insert(d);
                }
                _ => {
                    expensive.insert(d);
                }
            }
        }
    }
    for r in expensive.iter() {
        cheap.remove(r);
    }
    cheap
}

/// Register pressure: the maximum over program points of simultaneously live
/// registers (excluding `excluded` and rematerializable constants), plus
/// [`REG_OVERHEAD`], clamped to `[MIN_REGS, MAX_REGS]`.
pub fn pressure_excluding(kernel: &KernelIr, excluded: Option<&RegSet>) -> u32 {
    let live = live_in_sets(kernel);
    let mut skip = rematerializable_regs(kernel);
    if let Some(ex) = excluded {
        skip.union_with(ex);
    }
    let max_live = live
        .iter()
        .map(|s| s.count_excluding(Some(&skip)))
        .max()
        .unwrap_or(0);
    pressure_of_max_live(max_live)
}

/// The pressure of a kernel whose largest count of simultaneously live,
/// counted registers is `max_live`: plus [`REG_OVERHEAD`], clamped to
/// `[MIN_REGS, MAX_REGS]`.
pub(crate) fn pressure_of_max_live(max_live: u32) -> u32 {
    (max_live + REG_OVERHEAD).clamp(MIN_REGS, MAX_REGS)
}

/// Register pressure of the kernel as lowered (no exclusions).
pub fn register_pressure(kernel: &KernelIr) -> u32 {
    pressure_excluding(kernel, None)
}

/// Per-register statistics used by the spill heuristic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegStats {
    /// The register.
    pub reg: Reg,
    /// Number of program points at which the register is live.
    pub live_points: u32,
    /// Static def + use count.
    pub occurrences: u32,
}

/// Computes live-length and occurrence counts for every register from the
/// kernel's per-instruction live-in sets (see [`live_in_sets`]).
pub fn reg_stats(kernel: &KernelIr, live: &[RegSet]) -> Vec<RegStats> {
    let mut stats: Vec<RegStats> = (0..kernel.num_regs)
        .map(|reg| RegStats {
            reg,
            live_points: 0,
            occurrences: 0,
        })
        .collect();
    for set in live {
        for r in set.iter() {
            stats[r as usize].live_points += 1;
        }
    }
    let mut srcs = Vec::with_capacity(3);
    for inst in &kernel.insts {
        if let Some(d) = inst.dst() {
            stats[d as usize].occurrences += 1;
        }
        srcs.clear();
        inst.srcs_into(&mut srcs);
        for &s in &srcs {
            stats[s as usize].occurrences += 1;
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_kernel_unoptimized;
    use cuda_frontend::parse_kernel;

    fn lower(src: &str) -> KernelIr {
        // Liveness unit tests inspect the raw lowering (the optimizer would
        // delete the dead code some of them rely on).
        lower_kernel_unoptimized(&parse_kernel(src).expect("parse")).expect("lower")
    }

    /// The registers `s` holds, probed one bit at a time.
    fn probed(s: &RegSet, n: u32) -> Vec<Reg> {
        (0..n).filter(|&r| s.contains(r)).collect()
    }

    #[test]
    fn regset_basic_operations() {
        let mut s = RegSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0));
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
        s.remove(0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![129]);

        // Bits on both sides of every word edge, including the top bit of a
        // word, which the set-bit walk must not shift past.
        let edges = [0, 63, 64, 127, 129];
        for &r in &edges {
            s.insert(r);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), edges);
        assert_eq!(s.iter().collect::<Vec<_>>(), probed(&s, 130));
        assert_eq!(s.len(), edges.len() as u32);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.iter().next(), None);
    }

    #[test]
    fn regset_union_with_difference() {
        let n = 130;
        let set = |regs: &[Reg]| {
            let mut s = RegSet::new(n);
            for &r in regs {
                s.insert(r);
            }
            s
        };
        let uses = set(&[1, 64]);
        let out = set(&[0, 1, 63, 64, 127, 129]);
        let defs = set(&[0, 64, 127]);
        let mut inn = uses.clone();
        assert!(inn.union_with_difference(&out, &defs));
        let expected: Vec<Reg> = (0..n)
            .filter(|&r| uses.contains(r) || (out.contains(r) && !defs.contains(r)))
            .collect();
        assert_eq!(expected, vec![1, 63, 64, 129]);
        assert_eq!(probed(&inn, n), expected);
        assert_eq!(inn.iter().collect::<Vec<_>>(), expected);
        assert!(!inn.union_with_difference(&out, &defs));
    }

    #[test]
    fn regset_union() {
        let mut a = RegSet::new(64);
        a.insert(1);
        let mut b = RegSet::new(64);
        b.insert(2);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn straight_line_pressure_counts_overlap() {
        // x and y are both live across the final store.
        let ir =
            lower("__global__ void k(float* a) { float x = a[0]; float y = a[1]; a[2] = x + y; }");
        let p = register_pressure(&ir);
        assert!(p >= MIN_REGS, "pressure {p}");
        assert!(p < 32, "pressure {p} too high for a tiny kernel");
    }

    #[test]
    fn dead_values_do_not_add_pressure() {
        let narrow = lower("__global__ void k(float* a) { a[0] = 1.0f; a[1] = 2.0f; }");
        let wide = lower(
            "__global__ void k(float* a) {\
              float x0 = a[0]; float x1 = a[1]; float x2 = a[2]; float x3 = a[3];\
              float x4 = a[4]; float x5 = a[5]; float x6 = a[6]; float x7 = a[7];\
              a[0] = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7;\
            }",
        );
        assert!(
            register_pressure(&wide) > register_pressure(&narrow),
            "eight live loads must out-pressure two dead stores: {} vs {}",
            register_pressure(&wide),
            register_pressure(&narrow)
        );
    }

    #[test]
    fn loop_carried_values_stay_live() {
        let ir = lower(
            "__global__ void k(float* a, int n) {\
               float acc = 0.0f;\
               for (int i = 0; i < n; i++) { acc += a[i]; }\
               a[0] = acc;\
             }",
        );
        let live = live_in_sets(&ir);
        // The accumulator's register must be live at the loop back-edge.
        let backedge = ir
            .insts
            .iter()
            .position(|i| matches!(i, Inst::Jmp { target } if *target < ir.insts.len()))
            .expect("loop jump");
        assert!(!live[backedge].is_empty());
    }

    #[test]
    fn stats_track_occurrences() {
        let ir = lower("__global__ void k(int n) { n = n + n; }");
        let stats = reg_stats(&ir, &live_in_sets(&ir));
        // The register bound to `n` (param reg 0) is read twice and written.
        let n_stats = stats[0];
        assert!(n_stats.occurrences >= 3, "{n_stats:?}");
    }

    fn asm(text: &str) -> KernelIr {
        crate::asm::parse_kernel_ir(text).expect("listing")
    }

    #[test]
    fn storage_slots_reuse_dead_registers_but_not_sources() {
        let ir = asm("r0 = ld.param [0]\n\
                      r1 = imm 5\n\
                      r2 = add.u32 r1, r1\n\
                      r3 = imm 7\n\
                      st.u32 [r0], r2\n\
                      st.u32 [r0], r3\n\
                      ret");
        let s = storage_slots(&ir);
        assert_eq!(s.num_slots, 3);
        assert_eq!(s.slot[3], s.slot[1], "r1 is dead once r3 is written");
        assert_ne!(
            s.slot[2], s.slot[1],
            "a destination never takes a source's slot"
        );
    }

    #[test]
    fn storage_slots_keep_dead_definitions_and_entry_reads_apart() {
        // r2 is a dead load while r1 is live; r5 and r6 are read before any
        // write, so both must still hold 0.
        let ir = asm("r0 = ld.param [0]\n\
                      r1 = imm 5\n\
                      r2 = ld.u32 [r0]\n\
                      st.u32 [r0], r1\n\
                      st.u32 [r0], r5\n\
                      st.u32 [r0], r6\n\
                      ret");
        let s = storage_slots(&ir);
        let slots: Vec<u32> = [0, 1, 2, 5, 6].iter().map(|&r| s.slot[r]).collect();
        let mut distinct = slots.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), slots.len(), "{slots:?}");
    }

    #[test]
    fn storage_slots_give_shuffle_sources_a_private_slot() {
        let ir = asm("r0 = ld.param [0]\n\
                      r1 = mov %tid.x\n\
                      r2 = imm 1\n\
                      r3 = imm 32\n\
                      r4 = shfl.down r1, r2, r3\n\
                      st.u32 [r0], r4\n\
                      r5 = imm 9\n\
                      st.u32 [r0], r5\n\
                      ret");
        let s = storage_slots(&ir);
        assert!(s.slot.iter().all(|&x| x < s.num_slots));
        let sharing: Vec<usize> = (0..s.slot.len())
            .filter(|&r| r != 1 && s.slot[r] == s.slot[1])
            .collect();
        assert!(sharing.is_empty(), "shuffle source shares with {sharing:?}");
        assert!(s.num_slots < ir.num_regs, "dead registers are reused");
    }

    #[test]
    fn pressure_excluding_reduces() {
        let ir = lower(
            "__global__ void k(float* a) {\
              float x0 = a[0]; float x1 = a[1]; float x2 = a[2]; float x3 = a[3];\
              a[0] = x0 + x1 + x2 + x3;\
            }",
        );
        let base = pressure_excluding(&ir, None);
        // Exclude the register with the longest live range.
        let stats = reg_stats(&ir, &live_in_sets(&ir));
        let longest = stats
            .iter()
            .max_by_key(|s| s.live_points)
            .expect("stats")
            .reg;
        let mut ex = RegSet::new(ir.num_regs);
        ex.insert(longest);
        let reduced = pressure_excluding(&ir, Some(&ex));
        assert!(reduced <= base, "{reduced} vs {base}");
    }
}
