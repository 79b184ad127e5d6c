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
        set_bits(&self.words)
    }
}

/// The indices of the set bits of `words`, in increasing order.
fn set_bits(words: &[u64]) -> impl Iterator<Item = u32> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let b = bits.trailing_zeros();
                bits &= bits - 1;
                wi as u32 * 64 + b
            })
        })
    })
}

/// Successor program counters of the instruction at `pc`.
pub fn successors(insts: &[Inst], pc: usize) -> SmallSuccs {
    match &insts[pc] {
        Inst::Jmp { target } => SmallSuccs([*target, 0], 1),
        Inst::Bra { target, .. } => SmallSuccs([pc + 1, *target], 2),
        Inst::Ret => SmallSuccs([0; 2], 0),
        _ => SmallSuccs([pc + 1, 0], usize::from(pc + 1 < insts.len())),
    }
}

/// Up to two successor PCs, without allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmallSuccs([usize; 2], usize);

impl SmallSuccs {
    /// The successors as a slice.
    pub fn as_slice(&self) -> &[usize] {
        &self.0[..self.1]
    }
}

/// [`BlockLiveness`]'s live-in and live-out rows.
pub(crate) const LIVE_IN: usize = 2;
pub(crate) const LIVE_OUT: usize = 3;

/// Block-level liveness: the crate's one dataflow fixpoint.
///
/// A register is live across a block boundary only if some block reads it
/// before writing it (it is *upward-exposed* there), so the universe is
/// those registers, renumbered densely. Each block's sets are rows of flat
/// word arrays that the next solve reuses.
#[derive(Debug, Default)]
pub(crate) struct BlockLiveness {
    /// One plus each register's index in `universe`, or 0 outside it.
    dense: Vec<u32>,
    universe: Vec<Reg>,
    /// Words per block in each row.
    words: usize,
    /// Rows of upward-exposed uses, definitions, [`LIVE_IN`], [`LIVE_OUT`].
    rows: [Vec<u64>; 4],
    succs: Vec<[Option<usize>; 2]>,
    /// `(block, register, is a definition)` of each upward-exposed use and def.
    events: Vec<(usize, Reg, bool)>,
    /// One plus the last block that defined each register.
    defined_in: Vec<u32>,
}

impl BlockLiveness {
    /// Solves liveness over `blocks` blocks, where `block(b)` gives block
    /// `b`'s instructions, a register its terminator reads, and its (at
    /// most two) successor blocks.
    pub(crate) fn solve<'a, S: IntoIterator<Item = usize>>(
        &mut self,
        num_regs: u32,
        blocks: usize,
        block: impl Fn(usize) -> (&'a [Inst], Option<Reg>, S),
    ) {
        for v in [&mut self.dense, &mut self.defined_in] {
            v.clear();
            v.resize(num_regs as usize, 0);
        }
        self.universe.clear();
        self.succs.clear();
        self.events.clear();
        let mut srcs = Vec::with_capacity(3);
        for b in 0..blocks {
            let (insts, cond, succs) = block(b);
            let mut succs = succs.into_iter();
            self.succs.push([succs.next(), succs.next()]);
            let mark = b as u32 + 1;
            let mut visit = |r: Reg, def: bool| {
                let r_ = r as usize;
                if def {
                    self.defined_in[r_] = mark;
                } else if self.defined_in[r_] == mark {
                    return;
                } else if self.dense[r_] == 0 {
                    self.universe.push(r);
                    self.dense[r_] = self.universe.len() as u32;
                }
                self.events.push((b, r, def));
            };
            for inst in insts {
                srcs.clear();
                inst.srcs_into(&mut srcs);
                srcs.iter().for_each(|&s| visit(s, false));
                inst.dst().into_iter().for_each(|d| visit(d, true));
            }
            cond.into_iter().for_each(|c| visit(c, false));
        }
        let w = self.universe.len().div_ceil(64);
        self.words = w;
        for row in &mut self.rows {
            row.clear();
            row.resize(blocks * w, 0);
        }
        for &(b, r, def) in &self.events {
            if let Some(i) = self.dense[r as usize].checked_sub(1) {
                self.rows[usize::from(def)][b * w + i as usize / 64] |= 1 << (i % 64);
            }
        }
        // in = uses | (out - defs), out = the union of the successors' ins;
        // reverse order converges quickly on mostly forward CFGs.
        let [uses, defs, live_in, live_out] = &mut self.rows;
        let mut changed = true;
        while changed {
            changed = false;
            for b in (0..blocks).rev() {
                let row = b * w..(b + 1) * w;
                let out = &mut live_out[row.clone()];
                out.fill(0);
                for s in self.succs[b].into_iter().flatten() {
                    out.iter_mut()
                        .zip(&live_in[s * w..])
                        .for_each(|(o, i)| *o |= i);
                }
                let ud = uses[row.clone()].iter().zip(&defs[row.clone()]);
                for ((inn, o), (u, d)) in live_in[row].iter_mut().zip(&*out).zip(ud) {
                    let next = u | (o & !d);
                    changed |= next != *inn;
                    *inn = next;
                }
            }
        }
    }

    /// Whether `r` is in block `b`'s [`LIVE_IN`] or [`LIVE_OUT`] `row`.
    pub(crate) fn has(&self, row: usize, b: usize, r: Reg) -> bool {
        let bit = |i: u32| self.rows[row][b * self.words + i as usize / 64] & (1 << (i % 64)) != 0;
        self.dense[r as usize].checked_sub(1).is_some_and(bit)
    }

    /// Sets `set` to block `b`'s [`LIVE_IN`] or [`LIVE_OUT`] `row`.
    pub(crate) fn expand(&self, row: usize, b: usize, set: &mut RegSet) {
        set.clear();
        let words = &self.rows[row][b * self.words..(b + 1) * self.words];
        set_bits(words).for_each(|i| _ = set.insert(self.universe[i as usize]));
    }
}

/// Solves [`BlockLiveness`] on the instruction stream, then sweeps each
/// block backward from its live-out: `at(pc, live, counted)` receives the
/// registers live into instruction `pc` and how many of them `skip` lacks.
fn sweep(kernel: &KernelIr, skip: &RegSet, mut at: impl FnMut(usize, &RegSet, u32)) {
    let insts = &kernel.insts;
    let starts = crate::cfg::block_starts(insts);
    let block_of = |pc: usize| starts.partition_point(|&s| s <= pc) - 1;
    let mut live = BlockLiveness::default();
    live.solve(kernel.num_regs, starts.len() - 1, |b| {
        let SmallSuccs(pcs, len) = successors(insts, starts[b + 1] - 1);
        let succs = pcs.into_iter().take(len).map(&block_of);
        (&insts[starts[b]..starts[b + 1]], None, succs)
    });
    let mut set = RegSet::new(kernel.num_regs);
    let mut srcs = Vec::with_capacity(3);
    for (b, range) in starts.windows(2).enumerate() {
        live.expand(LIVE_OUT, b, &mut set);
        let mut counted = set.count_excluding(Some(skip));
        for pc in (range[0]..range[1]).rev() {
            if let Some(d) = insts[pc].dst() {
                counted -= u32::from(set.contains(d) && !skip.contains(d));
                set.remove(d);
            }
            srcs.clear();
            insts[pc].srcs_into(&mut srcs);
            for &s in &srcs {
                counted += u32::from(set.insert(s) && !skip.contains(s));
            }
            at(pc, &set, counted);
        }
    }
}

/// Per-instruction live-in sets (registers live immediately before each
/// instruction executes), from one backward sweep per block.
pub fn live_in_sets(kernel: &KernelIr) -> Vec<RegSet> {
    let mut live = vec![RegSet::new(0); kernel.insts.len()];
    sweep(kernel, &RegSet::new(kernel.num_regs), |pc, set, _| {
        live[pc] = set.clone()
    });
    live
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
    let mut skip = rematerializable_regs(kernel);
    if let Some(ex) = excluded {
        skip.union_with(ex);
    }
    let mut max_live = 0;
    sweep(kernel, &skip, |_, _, counted| {
        max_live = max_live.max(counted)
    });
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
