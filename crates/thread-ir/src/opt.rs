//! Machine-independent optimizations on the flat IR.
//!
//! Real GPU compilers eliminate most of the redundancy a naive lowering
//! produces (re-materialized constants, repeated address arithmetic,
//! loop-invariant subexpressions). Without these passes, simulated kernels
//! issue far more instructions than their SASS counterparts, which distorts
//! the issue-utilization balance the fusion study depends on. Three classic
//! passes run to a fixed point:
//!
//! * **LICM** — hoists pure, loop-invariant instructions into a loop
//!   preheader (safe here because no pure instruction can fault: integer
//!   division by zero is defined to produce 0).
//! * **local CSE** — value-numbers pure instructions within each basic
//!   block, deleting recomputations (or downgrading them to register moves
//!   when the redundant destination is live out of the block).
//! * **DCE** — removes pure instructions whose results are never used.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::cfg::{BlockId, Cfg, Term};
use crate::ir::{Inst, KernelIr, Reg};
use crate::liveness::{successors, BlockLiveness, RegSet, LIVE_IN, LIVE_OUT};

/// Counters describing what [`optimize`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions hoisted to loop preheaders.
    pub hoisted: usize,
    /// Instructions removed (or downgraded to moves) by CSE.
    pub cse_removed: usize,
    /// Dead instructions removed.
    pub dce_removed: usize,
    /// Instructions replaced by immediates through constant folding.
    pub folded: usize,
    /// `Bar` instructions dropped because no memory operation is reachable
    /// on any path before them, or on any path after them.
    pub barriers_removed: usize,
}

/// True for instructions that have no side effects and cannot fault.
fn is_pure(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Imm { .. }
            | Inst::Mov { .. }
            | Inst::Bin { .. }
            | Inst::Un { .. }
            | Inst::Cast { .. }
            | Inst::Special { .. }
            | Inst::LdParam { .. }
            | Inst::SharedAddr { .. }
            | Inst::LocalAddr { .. }
    )
}

/// Optimizes the kernel in place and refreshes its register-pressure
/// estimate. Returns the pass statistics.
pub fn optimize(kernel: &mut KernelIr) -> OptStats {
    let mut stats = OptStats::default();
    let mut live = BlockLiveness::default();
    for _round in 0..4 {
        let mut cfg = Cfg::build(kernel);
        let folded =
            const_fold(&mut cfg, kernel.num_regs) + peephole(&mut cfg, &mut kernel.num_regs);
        // CSE must run before LICM: folding can leave many copies of the
        // same constant in a loop body, and hoisting them individually
        // would turn each into a loop-long live range.
        let cse_removed = local_cse(&mut cfg, kernel.num_regs, &mut live);
        let hoisted = licm(&mut cfg, kernel.num_regs, &mut live);
        let cse_removed = cse_removed + local_cse(&mut cfg, kernel.num_regs, &mut live);
        let dce_removed = dce(&mut cfg, kernel.num_regs, &mut live);
        kernel.insts = cfg.flatten();
        stats.folded += folded;
        stats.hoisted += hoisted;
        stats.cse_removed += cse_removed;
        stats.dce_removed += dce_removed;
        if folded + hoisted + cse_removed + dce_removed == 0 {
            break;
        }
    }
    if !no_barrier_elim() {
        stats.barriers_removed = redundant_barrier_elim(kernel);
    }
    kernel.pressure = crate::liveness::register_pressure(kernel);
    debug_assert!(crate::verify::verify(kernel).is_ok());
    stats
}

/// `HFUSE_NO_BARRIER_ELIM` disables [`redundant_barrier_elim`]. Parsed here
/// rather than through `gpu_sim::env` because `gpu-sim` depends on this
/// crate (the same inversion as `HFUSE_NO_STATIC_CHECK` in
/// `hfuse-analysis`); the variable is listed in the `gpu_sim::env::HATCHES`
/// registry.
fn no_barrier_elim() -> bool {
    std::env::var_os("HFUSE_NO_BARRIER_ELIM").is_some_and(|v| v != "0")
}

/// Drops `Bar` instructions that provably synchronize nothing: a barrier
/// only orders memory operations before it against memory operations after
/// it, so if no `Ld`/`St`/`Atom` is reachable on any path from entry to the
/// barrier, or on any path from the barrier to exit, removing it cannot
/// change any thread's observable memory behavior. This is the IR-level
/// safety net under the range-based AST pass in `hfuse-analysis` (which
/// proves much stronger facts); it catches barriers whose surroundings
/// only became empty after DCE/folding.
fn redundant_barrier_elim(kernel: &mut KernelIr) -> usize {
    let insts = &kernel.insts;
    let n = insts.len();
    if !insts.iter().any(|i| matches!(i, Inst::Bar { .. })) {
        return 0;
    }
    // mem_before[i]: some path from entry to i executes a memory op first.
    let mut mem_before = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..n {
            let reaches = mem_before[i] || insts[i].is_memory();
            for &j in successors(insts, i).as_slice() {
                if reaches && !mem_before[j] {
                    mem_before[j] = true;
                    changed = true;
                }
            }
        }
    }
    // mem_after[i]: some path from i (exclusive) reaches a memory op.
    let mut mem_after = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).rev() {
            let after = successors(insts, i)
                .as_slice()
                .iter()
                .any(|&j| insts[j].is_memory() || mem_after[j]);
            if after && !mem_after[i] {
                mem_after[i] = true;
                changed = true;
            }
        }
    }
    let remove: Vec<bool> = (0..n)
        .map(|i| {
            matches!(insts[i], Inst::Bar { .. }) && i + 1 < n && (!mem_before[i] || !mem_after[i])
        })
        .collect();
    let removed = remove.iter().filter(|&&r| r).count();
    if removed == 0 {
        return 0;
    }
    // Splice the dropped barriers out and remap branch targets. A target
    // pointing at a removed instruction lands on the next kept one.
    let mut new_idx = vec![0usize; n + 1];
    let mut kept = 0usize;
    for i in 0..n {
        new_idx[i] = kept;
        if !remove[i] {
            kept += 1;
        }
    }
    new_idx[n] = kept;
    let old = std::mem::take(&mut kernel.insts);
    kernel.insts = old
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !remove[*i])
        .map(|(_, mut inst)| {
            match &mut inst {
                Inst::Jmp { target } | Inst::Bra { target, .. } => *target = new_idx[*target],
                _ => {}
            }
            inst
        })
        .collect();
    removed
}

// ---- liveness over the CFG --------------------------------------------------

/// Solves `live` for the blocks of `cfg`. In the dev profile, checks the
/// result against [`matches_plain_liveness`].
fn block_liveness(live: &mut BlockLiveness, cfg: &Cfg, num_regs: u32) {
    live.solve(num_regs, cfg.blocks.len(), |b| {
        let bb = &cfg.blocks[b];
        let cond = match bb.term {
            Term::Bra { cond, .. } => Some(cond),
            _ => None,
        };
        (&bb.insts, cond, bb.term.succs())
    });
    debug_assert!(matches_plain_liveness(live, cfg, num_regs));
}

/// Whether `live` holds the per-block live-in and live-out sets of a plain
/// fixpoint over full-width sets.
fn matches_plain_liveness(live: &BlockLiveness, cfg: &Cfg, num_regs: u32) -> bool {
    let mut plain = vec![(RegSet::new(num_regs), RegSet::new(num_regs)); cfg.blocks.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for (b, bb) in cfg.blocks.iter().enumerate().rev() {
            let mut set = RegSet::new(num_regs);
            for s in bb.term.succs() {
                set.union_with(&plain[s].0);
            }
            plain[b].1 = set.clone();
            if let Term::Bra { cond, .. } = bb.term {
                set.insert(cond);
            }
            for inst in bb.insts.iter().rev() {
                if let Some(d) = inst.dst() {
                    set.remove(d);
                }
                inst.srcs().into_iter().for_each(|s| _ = set.insert(s));
            }
            changed |= plain[b].0.union_with(&set);
        }
    }
    let mut set = RegSet::new(num_regs);
    plain.iter().enumerate().all(|(b, (inn, out))| {
        live.expand(LIVE_IN, b, &mut set);
        let in_ok = set == *inn;
        live.expand(LIVE_OUT, b, &mut set);
        in_ok && set == *out
    })
}

// ---- constant folding ---------------------------------------------------------

/// Replaces pure computations over constant operands with immediates.
///
/// A register is *known constant* when its only definition in the whole
/// kernel is an `Imm`. Folding uses the exact runtime ALU semantics
/// ([`crate::alu`]), so values are bit-identical (including the defined
/// division-by-zero and oversized-shift behavior).
fn const_fold(cfg: &mut Cfg, num_regs: u32) -> usize {
    let mut folded = 0;
    loop {
        // Map each reg to its constant value when its single definition is
        // an Imm.
        let mut def_count = vec![0u32; num_regs as usize];
        let mut value: Vec<Option<u64>> = vec![None; num_regs as usize];
        for bb in &cfg.blocks {
            for inst in &bb.insts {
                if let Some(d) = inst.dst() {
                    def_count[d as usize] += 1;
                    value[d as usize] = match inst {
                        Inst::Imm { value, .. } => Some(*value),
                        _ => None,
                    };
                }
            }
        }
        let known = |r: Reg| {
            if def_count[r as usize] == 1 {
                value[r as usize]
            } else {
                None
            }
        };
        let mut changed = 0;
        for bb in &mut cfg.blocks {
            for inst in &mut bb.insts {
                let replacement = match inst {
                    Inst::Bin { op, ty, dst, a, b } => match (known(*a), known(*b)) {
                        (Some(va), Some(vb)) => Some(Inst::Imm {
                            dst: *dst,
                            value: crate::alu::bin(*op, *ty, va, vb),
                        }),
                        _ => None,
                    },
                    Inst::Un { op, ty, dst, a } => known(*a).map(|va| Inst::Imm {
                        dst: *dst,
                        value: crate::alu::un(*op, *ty, va),
                    }),
                    Inst::Cast { dst, src, from, to } => known(*src).map(|v| Inst::Imm {
                        dst: *dst,
                        value: crate::alu::cast(*from, *to, v),
                    }),
                    Inst::Mov { dst, src } => known(*src).map(|v| Inst::Imm {
                        dst: *dst,
                        value: v,
                    }),
                    _ => None,
                };
                if let Some(imm) = replacement {
                    *inst = imm;
                    changed += 1;
                }
            }
        }
        folded += changed;
        if changed == 0 {
            break;
        }
    }
    folded
}

/// Algebraic simplification and strength reduction, as `nvcc`/`ptxas`
/// perform: identities (`x + 0`, `x * 1`, `x ^ 0`, shifts by 0) become
/// moves, multiplication/division/remainder by powers of two become shifts
/// and masks (unsigned only for div/rem — signed division rounds toward
/// zero, not down). This matters for timing: the simulator's divide class
/// is an order of magnitude slower than a shift.
fn peephole(cfg: &mut Cfg, num_regs: &mut u32) -> usize {
    use crate::ir::{BinIr, ScalarTy};
    // Known-constant registers (single definition, and it is an Imm).
    let n = *num_regs as usize;
    let mut def_count = vec![0u32; n];
    let mut value: Vec<Option<u64>> = vec![None; n];
    for bb in &cfg.blocks {
        for inst in &bb.insts {
            if let Some(d) = inst.dst() {
                def_count[d as usize] += 1;
                value[d as usize] = match inst {
                    Inst::Imm { value, .. } => Some(*value),
                    _ => None,
                };
            }
        }
    }
    let known = |r: Reg| {
        if def_count[r as usize] == 1 {
            value[r as usize]
        } else {
            None
        }
    };

    let mut changed = 0;
    for bb in &mut cfg.blocks {
        let mut out: Vec<Inst> = Vec::with_capacity(bb.insts.len());
        for inst in std::mem::take(&mut bb.insts) {
            let Inst::Bin { op, ty, dst, a, b } = inst else {
                out.push(inst);
                continue;
            };
            if ty.is_float() {
                // Float identities are not exact (-0.0, NaN); leave them.
                out.push(inst);
                continue;
            }
            let ka = known(a);
            let kb = known(b);
            let width = ty.size_bytes() * 8;
            let mask = if width == 32 {
                0xffff_ffffu64
            } else {
                u64::MAX
            };
            // Emits a fresh constant register holding `v` just before the
            // rewritten instruction.
            let mut fresh_const = |v: u64, out: &mut Vec<Inst>| -> Reg {
                let r = *num_regs;
                *num_regs += 1;
                out.push(Inst::Imm { dst: r, value: v });
                r
            };
            let replacement = match (op, ka, kb) {
                // x + 0, x - 0, x | 0, x ^ 0, x << 0, x >> 0
                (
                    BinIr::Add | BinIr::Sub | BinIr::Or | BinIr::Xor | BinIr::Shl | BinIr::Shr,
                    _,
                    Some(0),
                ) => Some(Inst::Mov { dst, src: a }),
                (BinIr::Add | BinIr::Or | BinIr::Xor, Some(0), _) => {
                    Some(Inst::Mov { dst, src: b })
                }
                // x * 1
                (BinIr::Mul, _, Some(1)) => Some(Inst::Mov { dst, src: a }),
                (BinIr::Mul, Some(1), _) => Some(Inst::Mov { dst, src: b }),
                // x * 2^k  ->  x << k (two's-complement wrap-safe)
                (BinIr::Mul, _, Some(c)) if (c & mask).is_power_of_two() && (c & mask) > 1 => {
                    let sh = fresh_const(u64::from((c & mask).trailing_zeros()), &mut out);
                    Some(Inst::Bin {
                        op: BinIr::Shl,
                        ty,
                        dst,
                        a,
                        b: sh,
                    })
                }
                // unsigned x / 2^k  ->  x >> k
                (BinIr::Div, _, Some(c))
                    if matches!(ty, ScalarTy::U32 | ScalarTy::U64)
                        && (c & mask).is_power_of_two() =>
                {
                    let sh = fresh_const(u64::from((c & mask).trailing_zeros()), &mut out);
                    Some(Inst::Bin {
                        op: BinIr::Shr,
                        ty,
                        dst,
                        a,
                        b: sh,
                    })
                }
                // unsigned x % 2^k  ->  x & (2^k - 1)
                (BinIr::Rem, _, Some(c))
                    if matches!(ty, ScalarTy::U32 | ScalarTy::U64)
                        && (c & mask).is_power_of_two() =>
                {
                    let m = fresh_const((c & mask) - 1, &mut out);
                    Some(Inst::Bin {
                        op: BinIr::And,
                        ty,
                        dst,
                        a,
                        b: m,
                    })
                }
                _ => None,
            };
            match replacement {
                Some(r) => {
                    out.push(r);
                    changed += 1;
                }
                None => out.push(inst),
            }
        }
        bb.insts = out;
    }
    changed
}

// ---- LICM -------------------------------------------------------------------

fn licm(cfg: &mut Cfg, num_regs: u32, live: &mut BlockLiveness) -> usize {
    let mut hoisted_total = 0;
    // Collect loops up front; preheader insertion appends blocks, so body
    // bitmaps must be padded when consulted later.
    let loops = cfg.natural_loops();
    let mut def_count = vec![0u32; num_regs as usize];
    let mut srcs = Vec::with_capacity(3);
    for (header, body) in loops {
        block_liveness(live, cfg, num_regs);
        let in_body = |b: BlockId| body.get(b).copied().unwrap_or(false);

        // Count definitions of each register inside the loop.
        def_count.fill(0);
        for (b, bb) in cfg.blocks.iter().enumerate() {
            if !in_body(b) {
                continue;
            }
            for inst in &bb.insts {
                if let Some(d) = inst.dst() {
                    def_count[d as usize] += 1;
                }
            }
        }

        // Iteratively mark invariant instructions: pure, single def in the
        // loop, destination not live into the header (its pre-loop value is
        // never observed), and all operands either defined outside the loop
        // or by an already-invariant instruction. `hoist[b][i]` marks
        // instruction `i` of body block `b`.
        let mut invariant_defs: RegSet = RegSet::new(num_regs);
        let mut hoist: Vec<Vec<bool>> = cfg
            .blocks
            .iter()
            .enumerate()
            .map(|(b, bb)| vec![false; if in_body(b) { bb.insts.len() } else { 0 }])
            .collect();
        let mut hoisted = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for (b, bb) in cfg.blocks.iter().enumerate() {
                if !in_body(b) {
                    continue;
                }
                for (i, inst) in bb.insts.iter().enumerate() {
                    if hoist[b][i] || !is_pure(inst) {
                        continue;
                    }
                    // Constants are rematerializable (cost-free in the
                    // pressure model); hoisting them only lengthens live
                    // ranges.
                    if matches!(
                        inst,
                        Inst::Imm { .. }
                            | Inst::LdParam { .. }
                            | Inst::SharedAddr { .. }
                            | Inst::LocalAddr { .. }
                    ) {
                        continue;
                    }
                    let Some(d) = inst.dst() else { continue };
                    if def_count[d as usize] != 1 || live.has(LIVE_IN, header, d) {
                        continue;
                    }
                    srcs.clear();
                    inst.srcs_into(&mut srcs);
                    let ok = srcs
                        .iter()
                        .all(|&s| def_count[s as usize] == 0 || invariant_defs.contains(s));
                    if ok {
                        invariant_defs.insert(d);
                        hoist[b][i] = true;
                        hoisted += 1;
                        changed = true;
                    }
                }
            }
        }
        if hoisted == 0 {
            continue;
        }
        // Move the instructions, preserving their program order: blocks in
        // layout order, each block's in index order.
        let mut moved = Vec::with_capacity(hoisted);
        for &b in &cfg.layout {
            let Some(marks) = hoist.get(b).filter(|m| m.contains(&true)) else {
                continue;
            };
            let mut i = 0;
            let (up, keep): (Vec<Inst>, Vec<Inst>) = std::mem::take(&mut cfg.blocks[b].insts)
                .into_iter()
                .partition(|_| {
                    i += 1;
                    marks[i - 1]
                });
            moved.extend(up);
            cfg.blocks[b].insts = keep;
        }
        let pre = cfg.insert_preheader(header, &body);
        cfg.blocks[pre].insts = moved;
        hoisted_total += hoisted;
    }
    hoisted_total
}

// ---- local CSE ----------------------------------------------------------------

/// A value-number key: the instruction shape with operand registers
/// replaced by (register, version-at-read) pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Imm(u64),
    Mov(Reg, u32),
    Bin(
        crate::ir::BinIr,
        crate::ir::ScalarTy,
        (Reg, u32),
        (Reg, u32),
    ),
    Un(crate::ir::UnIr, crate::ir::ScalarTy, (Reg, u32)),
    Cast(crate::ir::ScalarTy, crate::ir::ScalarTy, (Reg, u32)),
    Special(crate::ir::SpecialReg),
    LdParam(u32),
    SharedAddr(u32),
    LocalAddr(u32),
}

/// A multiply-rotate hasher (the FxHash mix) for [`Key`]s, whose fields are
/// all small integers the compiler made itself, so no input can pick
/// colliding keys; SipHash cost more than the rest of a CSE lookup.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Maximum reuse distance (in instructions) for non-constant CSE hits.
/// Reusing a value computed far earlier keeps it live across the whole gap,
/// which real compilers avoid (they rematerialize instead of inflating
/// register pressure); BLAKE's repeating message schedule is the archetypal
/// victim.
const CSE_WINDOW: usize = 120;

/// `CseRegs::rename` entry of a register that aliases nothing.
const NO_ALIAS: Reg = Reg::MAX;

/// Local CSE's per-block register state, in tables indexed by register.
/// Every entry a block sets belongs to a register in `touched` (a rename's
/// both sides were defined in the block), so [`CseRegs::reset`] costs what
/// the block wrote, not `num_regs`.
struct CseRegs {
    /// Definitions of each register seen so far in the block.
    version: Vec<u32>,
    /// A deleted destination's canonical register, applied to later
    /// operands; `NO_ALIAS` when none. An entry dies when either side is
    /// redefined.
    rename: Vec<Reg>,
    /// For each canonical register, the registers renamed to it. Entries
    /// whose `rename` has since moved or died are stale and skipped.
    aliases: Vec<Vec<Reg>>,
    /// Registers whose version left 0 in this block.
    touched: Vec<Reg>,
}

impl CseRegs {
    fn new(num_regs: u32) -> Self {
        let n = num_regs as usize;
        CseRegs {
            version: vec![0; n],
            rename: vec![NO_ALIAS; n],
            aliases: vec![Vec::new(); n],
            touched: Vec::new(),
        }
    }

    fn ver(&self, r: Reg) -> u32 {
        self.version[r as usize]
    }

    fn bump(&mut self, r: Reg) {
        let v = &mut self.version[r as usize];
        if *v == 0 {
            self.touched.push(r);
        }
        *v += 1;
    }

    fn resolve(&self, r: Reg) -> Reg {
        match self.rename[r as usize] {
            NO_ALIAS => r,
            c => c,
        }
    }

    /// Renames later reads of `d` (whose definition was deleted) to
    /// `canonical`.
    fn alias(&mut self, d: Reg, canonical: Reg) {
        self.rename[d as usize] = canonical;
        self.aliases[canonical as usize].push(d);
    }

    /// Handles an *actual* redefinition of `d`: every alias renamed to `d`
    /// (its own defining instruction was deleted) would be orphaned by the
    /// clobber, so materialize each with a compensation move first, in
    /// ascending register order, then drop every entry involving `d`. Costs
    /// the aliases `d` gathered, each of which it consumes.
    fn on_redefine(&mut self, d: Reg, out: &mut Vec<Inst>) {
        let mut orphans = std::mem::take(&mut self.aliases[d as usize]);
        orphans.retain(|&k| self.rename[k as usize] == d);
        orphans.sort_unstable();
        orphans.dedup();
        for &k in &orphans {
            out.push(Inst::Mov { dst: k, src: d });
            self.bump(k);
            self.rename[k as usize] = NO_ALIAS;
        }
        orphans.clear();
        self.aliases[d as usize] = orphans;
        self.rename[d as usize] = NO_ALIAS;
    }

    /// Clears the block's state.
    fn reset(&mut self) {
        for r in self.touched.drain(..) {
            self.version[r as usize] = 0;
            self.rename[r as usize] = NO_ALIAS;
            self.aliases[r as usize].clear();
        }
    }
}

fn local_cse(cfg: &mut Cfg, num_regs: u32, live: &mut BlockLiveness) -> usize {
    block_liveness(live, cfg, num_regs);
    let mut removed = 0;
    let mut regs = CseRegs::new(num_regs);
    for (bi, bb) in cfg.blocks.iter_mut().enumerate() {
        regs.reset();
        // key → (canonical register, canonical's version at definition,
        // definition position). A hit is only valid while the canonical
        // register still holds that version — a redefinition of the
        // canonical (e.g. `b = 2; b = 3;` where `b` became canonical for
        // Imm(2)) silently invalidates the entry via the version check.
        let mut avail: HashMap<Key, (Reg, u32, usize), BuildHasherDefault<KeyHasher>> =
            HashMap::with_capacity_and_hasher(bb.insts.len(), BuildHasherDefault::default());

        let mut out: Vec<Inst> = Vec::with_capacity(bb.insts.len());
        // A redundant instruction whose destination is live out of the
        // block stays as a Mov from the canonical register; in-block uses
        // are renamed.

        for (pos, inst) in std::mem::take(&mut bb.insts).into_iter().enumerate() {
            let inst = inst.map_srcs(|r| regs.resolve(r));
            let ver = |r: Reg| (r, regs.ver(r));
            let key = match &inst {
                Inst::Imm { value, .. } => Some(Key::Imm(*value)),
                Inst::Mov { src, .. } => Some(Key::Mov(*src, regs.ver(*src))),
                Inst::Bin { op, ty, a, b, .. } => Some(Key::Bin(*op, *ty, ver(*a), ver(*b))),
                Inst::Un { op, ty, a, .. } => Some(Key::Un(*op, *ty, ver(*a))),
                Inst::Cast { from, to, src, .. } => Some(Key::Cast(*from, *to, ver(*src))),
                Inst::Special { reg, .. } => Some(Key::Special(*reg)),
                Inst::LdParam { index, .. } => Some(Key::LdParam(*index)),
                Inst::SharedAddr { offset, .. } => Some(Key::SharedAddr(*offset)),
                Inst::LocalAddr { offset, .. } => Some(Key::LocalAddr(*offset)),
                _ => None,
            };
            let dst = inst.dst();
            if let (Some(key), Some(d)) = (key, dst) {
                // Constants cost nothing to keep live (they never occupy a
                // hardware register); other values only dedup within the
                // scheduling window.
                let windowless = matches!(
                    key,
                    Key::Imm(_) | Key::LdParam(_) | Key::SharedAddr(_) | Key::LocalAddr(_)
                );
                match avail.get(&key).copied() {
                    Some((canonical, def_ver, def_pos))
                        if canonical != d
                            && def_ver == regs.ver(canonical)
                            && (windowless || pos - def_pos <= CSE_WINDOW) =>
                    {
                        if live.has(LIVE_OUT, bi, d) {
                            // `d` is really redefined on both live-out
                            // paths, so rescue its aliases first.
                            regs.on_redefine(d, &mut out);
                            regs.bump(d);
                            if windowless {
                                // A live-out constant is cheaper re-issued
                                // than kept alive through a move.
                                out.push(inst);
                                continue;
                            }
                            // Keep the architectural value with a cheap move.
                            removed += 1;
                            out.push(Inst::Mov {
                                dst: d,
                                src: canonical,
                            });
                        } else {
                            // Deleted: `d`'s register is NOT clobbered, so
                            // aliases pointing at `d` stay valid — only
                            // `d`'s own alias entry (if any) is replaced.
                            removed += 1;
                            regs.bump(d);
                            regs.alias(d, canonical);
                        }
                        continue;
                    }
                    _ => {
                        // Miss, out of window, stale canonical version, or
                        // an idempotent recompute into the canonical itself:
                        // make this definition the new canonical. Its
                        // version becomes current-version + 1 because the
                        // bump below happens after this insert.
                        avail.insert(key, (d, regs.ver(d) + 1, pos));
                    }
                }
            }
            if let Some(d) = dst {
                regs.on_redefine(d, &mut out);
                regs.bump(d);
            }
            out.push(inst);
        }
        // Terminator condition may also need renaming.
        if let Term::Bra { cond, .. } = &mut bb.term {
            *cond = regs.resolve(*cond);
        }
        bb.insts = out;
    }
    removed
}

// ---- DCE ---------------------------------------------------------------------

fn dce(cfg: &mut Cfg, num_regs: u32, block_live: &mut BlockLiveness) -> usize {
    block_liveness(block_live, cfg, num_regs);
    let mut removed = 0;
    let mut srcs = Vec::with_capacity(3);
    let mut live = RegSet::new(num_regs);
    for (bi, bb) in cfg.blocks.iter_mut().enumerate() {
        block_live.expand(LIVE_OUT, bi, &mut live);
        if let Term::Bra { cond, .. } = &bb.term {
            live.insert(*cond);
        }
        let mut keep: Vec<bool> = vec![true; bb.insts.len()];
        for (i, inst) in bb.insts.iter().enumerate().rev() {
            let dead = is_pure(inst) && inst.dst().is_some_and(|d| !live.contains(d));
            if dead {
                keep[i] = false;
                removed += 1;
                continue;
            }
            if let Some(d) = inst.dst() {
                live.remove(d);
            }
            srcs.clear();
            inst.srcs_into(&mut srcs);
            for &s in &srcs {
                live.insert(s);
            }
        }
        let mut keep = keep.into_iter();
        bb.insts.retain(|_| keep.next() == Some(true));
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_kernel_unoptimized;
    use cuda_frontend::parse_kernel;

    fn raw(src: &str) -> KernelIr {
        lower_kernel_unoptimized(&parse_kernel(src).expect("parse")).expect("lower")
    }

    fn optimized(src: &str) -> (KernelIr, OptStats) {
        let mut k = raw(src);
        let stats = optimize(&mut k);
        crate::verify::verify(&k).expect("optimized kernel verifies");
        (k, stats)
    }

    #[test]
    fn cse_removes_recomputed_constants() {
        let (k, stats) =
            optimized("__global__ void k(float* p) { p[0] = 1.0f; p[1] = 1.0f; p[2] = 1.0f; }");
        assert!(stats.cse_removed + stats.dce_removed > 0, "{stats:?}");
        let imms = k
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Imm { .. }))
            .count();
        // 1.0f once, scale constant 4 once, offsets folded into adds.
        assert!(imms <= 5, "{imms} immediates left: {:#?}", k.insts);
    }

    #[test]
    fn cse_removes_repeated_subexpressions() {
        let before = raw(
            "__global__ void k(float* p, int i) { p[i * 7 + 1] = p[i * 7 + 2] + p[i * 7 + 3]; }",
        );
        let (after, _) = optimized(
            "__global__ void k(float* p, int i) { p[i * 7 + 1] = p[i * 7 + 2] + p[i * 7 + 3]; }",
        );
        assert!(
            after.insts.len() < before.insts.len(),
            "{} !< {}",
            after.insts.len(),
            before.insts.len()
        );
    }

    #[test]
    fn licm_hoists_invariant_address_math() {
        let (k, stats) = optimized(
            "__global__ void k(float* p, int n, int c) {\
               for (int i = 0; i < n; i++) { p[i] = c * 12 + 5; }\
             }",
        );
        assert!(stats.hoisted > 0, "{stats:?}");
        // The c*12+5 computation must appear before the loop's backward edge
        // region exactly once — verify by counting Bin Mul instructions.
        let muls = k
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::Bin {
                        op: crate::ir::BinIr::Mul,
                        ..
                    }
                )
            })
            .count();
        assert!(muls <= 3, "expected hoisted mul, got {muls}");
    }

    #[test]
    fn loop_variant_values_not_hoisted() {
        let (k, _) = optimized(
            "__global__ void k(unsigned int* p, int n) {\
               unsigned int acc = 1u;\
               for (int i = 0; i < n; i++) { acc = acc * 3u + 1u; p[i] = acc; }\
             }",
        );
        // acc's multiply must stay in the loop: find the loop's backward
        // jump and check a Mul exists between the header and it.
        let back = k
            .insts
            .iter()
            .enumerate()
            .find_map(|(pc, i)| match i {
                Inst::Jmp { target } if *target < pc => Some((*target, pc)),
                Inst::Bra { target, .. } if *target < pc => Some((*target, pc)),
                _ => None,
            })
            .expect("loop exists");
        let in_loop_mul = k.insts[back.0..back.1].iter().any(|i| {
            matches!(
                i,
                Inst::Bin {
                    op: crate::ir::BinIr::Mul,
                    ..
                }
            )
        });
        assert!(
            in_loop_mul,
            "accumulator multiply must remain in loop: {:#?}",
            k.insts
        );
    }

    #[test]
    fn dce_removes_unused_results() {
        let (_, stats) = optimized(
            "__global__ void k(float* p, int n) { int unused = n * 12345; p[0] = 1.0f; }",
        );
        assert!(stats.dce_removed > 0, "{stats:?}");
    }

    #[test]
    fn optimization_shrinks_grid_stride_loops_substantially() {
        let src = "__global__ void k(float* out, float* in, int n) {\
            for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n;\
                 i += gridDim.x * blockDim.x) {\
              out[i] = in[i] * 2.0f + 1.0f;\
            }\
          }";
        let before = raw(src).insts.len();
        let (after, _) = optimized(src);
        assert!(
            (after.insts.len() as f64) < before as f64 * 0.85,
            "expected >15% reduction: {before} -> {}",
            after.insts.len()
        );
    }

    #[test]
    fn stores_and_atomics_never_removed() {
        let src = "__global__ void k(unsigned int* p) {\
            atomicAdd(&p[0], 1u); p[1] = 2u; atomicAdd(&p[0], 1u);\
          }";
        let before = raw(src)
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Atom { .. } | Inst::St { .. }))
            .count();
        let (after, _) = optimized(src);
        let after_n = after
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Atom { .. } | Inst::St { .. }))
            .count();
        assert_eq!(before, after_n);
    }

    #[test]
    fn barriers_and_shuffles_preserved() {
        let src = "__global__ void k(float* p) {\
            __shared__ float s[32];\
            s[threadIdx.x % 32] = p[threadIdx.x];\
            __syncthreads();\
            float v = s[(threadIdx.x + 1) % 32];\
            v += __shfl_xor_sync(0xffffffffu, v, 1, 32);\
            p[threadIdx.x] = v;\
          }";
        let (after, _) = optimized(src);
        assert!(after.insts.iter().any(|i| matches!(i, Inst::Bar { .. })));
        assert!(after.insts.iter().any(|i| matches!(i, Inst::Shfl { .. })));
    }

    #[test]
    fn entry_barrier_with_no_memory_before_is_dropped() {
        let src = "__global__ void k(float* p) {\
            __syncthreads();\
            p[threadIdx.x] = 1.0f;\
          }";
        let (k, stats) = optimized(src);
        assert!(!k.insts.iter().any(|i| matches!(i, Inst::Bar { .. })));
        assert_eq!(stats.barriers_removed, 1);
    }

    #[test]
    fn trailing_barrier_with_no_memory_after_is_dropped() {
        let src = "__global__ void k(float* p) {\
            p[threadIdx.x] = 1.0f;\
            __syncthreads();\
          }";
        let (k, stats) = optimized(src);
        assert!(!k.insts.iter().any(|i| matches!(i, Inst::Bar { .. })));
        assert_eq!(stats.barriers_removed, 1);
    }

    #[test]
    fn barrier_between_memory_ops_survives_ir_elimination() {
        let src = "__global__ void k(float* p) {\
            __shared__ float s[64];\
            s[threadIdx.x] = p[threadIdx.x];\
            __syncthreads();\
            p[threadIdx.x] = s[63 - threadIdx.x];\
          }";
        let (k, stats) = optimized(src);
        assert!(k.insts.iter().any(|i| matches!(i, Inst::Bar { .. })));
        assert_eq!(stats.barriers_removed, 0);
    }

    #[test]
    fn branch_targets_survive_barrier_splice() {
        // The loop back-edge crosses the dropped trailing barrier's index.
        let src = "__global__ void k(float* p, int n) {\
            float acc = 0.0f;\
            for (int i = 0; i < n; i += 1) { acc += p[i]; }\
            p[threadIdx.x] = acc;\
            __syncthreads();\
          }";
        let (k, stats) = optimized(src);
        assert_eq!(stats.barriers_removed, 1);
        crate::verify::verify(&k).expect("spliced kernel verifies");
    }

    #[test]
    fn peephole_turns_power_of_two_rem_into_mask() {
        let (k, _) = optimized(
            "__global__ void k(unsigned int* out, unsigned int x) {\
               unsigned int m = 32u;\
               unsigned int mask = 31u;\
               out[0] = x % m + x / m + mask;\
             }",
        );
        assert!(
            !k.insts.iter().any(|i| matches!(
                i,
                Inst::Bin {
                    op: crate::ir::BinIr::Div | crate::ir::BinIr::Rem,
                    ..
                }
            )),
            "div/rem by 32u should strength-reduce: {:#?}",
            k.insts
        );
    }

    #[test]
    fn peephole_respects_signed_division() {
        // -1 / 2 == 0 in C but -1 >> 1 == -1: signed div must survive.
        let (k, _) =
            optimized("__global__ void k(int* out, int x) { int two = 2; out[0] = x / two; }");
        assert!(
            k.insts.iter().any(|i| matches!(
                i,
                Inst::Bin {
                    op: crate::ir::BinIr::Div,
                    ty: crate::ir::ScalarTy::I32,
                    ..
                }
            )),
            "signed divide must not become a shift: {:#?}",
            k.insts
        );
    }

    #[test]
    fn peephole_identities_fold_to_moves() {
        let (k, _) = optimized(
            "__global__ void k(unsigned int* out, unsigned int x) {\
               unsigned int zero = 0u;\
               unsigned int one = 1u;\
               out[0] = (x + zero) * one ^ zero;\
             }",
        );
        // No arithmetic should remain on the value path (just address math).
        let arith = k
            .insts
            .iter()
            .filter(|i| {
                matches!(
                    i,
                    Inst::Bin {
                        op: crate::ir::BinIr::Xor | crate::ir::BinIr::Mul,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(arith, 0, "{:#?}", k.insts);
    }

    #[test]
    fn cse_compensates_when_canonical_register_is_redefined() {
        // r-level scenario: `a = x*2; b = x*2; a = 0; use b` — CSE deletes
        // b's computation (renamed to a), so redefining a must first save
        // the value back into b.
        let src = "__global__ void k(unsigned int* out, unsigned int x) {\
            unsigned int a = x * 3u;\
            unsigned int b = x * 3u;\
            a = 0u;\
            out[0] = b;\
            out[1] = a;\
          }";
        let ast = cuda_frontend::parse_kernel(src).expect("parse");
        let raw = crate::lower::lower_kernel_unoptimized(&ast).expect("raw");
        let mut opt = raw.clone();
        let _ = optimize(&mut opt);
        crate::verify::verify(&opt).expect("verifies");
        assert_eq!(mini_eval(&raw, 7, 2), [21, 0]);
        assert_eq!(
            mini_eval(&opt, 7, 2),
            [21, 0],
            "CSE must not lose b when a is clobbered"
        );
    }

    /// Interprets a straight-line/branchy ALU kernel with a miniature
    /// single-thread evaluator: param 0 is a u32 output buffer at address 0,
    /// param 1 is the scalar `x`. Returns the final buffer contents.
    fn mini_eval(k: &KernelIr, x: u64, mem_len: usize) -> Vec<u64> {
        let mut regs = vec![0u64; k.num_regs as usize];
        let mut mem = vec![0u64; mem_len];
        let mut pc = 0usize;
        loop {
            match &k.insts[pc] {
                Inst::Ret => break,
                Inst::Jmp { target } => {
                    pc = *target;
                    continue;
                }
                Inst::Bra {
                    cond,
                    if_zero,
                    target,
                } => {
                    if (regs[*cond as usize] == 0) == *if_zero {
                        pc = *target;
                        continue;
                    }
                }
                Inst::Imm { dst, value } => regs[*dst as usize] = *value,
                Inst::Mov { dst, src } => regs[*dst as usize] = regs[*src as usize],
                Inst::LdParam { dst, index } => {
                    regs[*dst as usize] = if *index == 1 { x } else { 0 };
                }
                Inst::Bin { op, ty, dst, a, b } => {
                    regs[*dst as usize] =
                        crate::alu::bin(*op, *ty, regs[*a as usize], regs[*b as usize]);
                }
                Inst::Un { op, ty, dst, a } => {
                    regs[*dst as usize] = crate::alu::un(*op, *ty, regs[*a as usize]);
                }
                Inst::Cast { dst, src, from, to } => {
                    regs[*dst as usize] = crate::alu::cast(*from, *to, regs[*src as usize]);
                }
                Inst::St { addr, val, .. } => {
                    let a = regs[*addr as usize] as u32 as usize / 4;
                    mem[a] = regs[*val as usize];
                }
                other => panic!("unexpected instruction in test kernel: {other:?}"),
            }
            pc += 1;
        }
        mem
    }

    #[test]
    fn cse_ignores_stale_canonical_after_redefinition() {
        // Regression (found by proptest): in a non-entry block, `b = 2u`
        // makes b's register the block-local canonical for Imm(2); the
        // immediate redefinition `b = 3u` must invalidate that entry, or
        // the address shift constant materialized for `out[x]` (also an
        // Imm(2), since u32 elements are 4 bytes) gets renamed to a
        // register that now holds 3, computing `out + x*8`.
        let src = "__global__ void k(unsigned int* out, unsigned int x) {\
            unsigned int a = x;\
            for (int i = 0; i < 1; i++) { a = a + 1u; }\
            unsigned int b = 2u;\
            b = 3u;\
            out[x] = a ^ b;\
          }";
        let ast = cuda_frontend::parse_kernel(src).expect("parse");
        let raw = crate::lower::lower_kernel_unoptimized(&ast).expect("raw");
        let mut opt = raw.clone();
        let _ = optimize(&mut opt);
        crate::verify::verify(&opt).expect("verifies");
        // x = 7: a = 8, b = 3, out[7] = 8 ^ 3 = 11.
        let mut expected = vec![0u64; 16];
        expected[7] = 11;
        assert_eq!(mini_eval(&raw, 7, 16), expected);
        assert_eq!(
            mini_eval(&opt, 7, 16),
            expected,
            "redefined canonical register must not satisfy later CSE hits"
        );
    }

    /// Runs one `local_cse` pass over an IR listing and returns the
    /// resulting instructions, one per line.
    fn cse_listing(listing: &str) -> String {
        let mut k = crate::asm::parse_kernel_ir(listing).expect("listing parses");
        let mut cfg = Cfg::build(&k);
        local_cse(&mut cfg, k.num_regs, &mut BlockLiveness::default());
        k.insts = cfg.flatten();
        let lines: Vec<String> = k.insts.iter().map(crate::printer::format_inst).collect();
        lines.join("\n")
    }

    fn lines(text: &str) -> String {
        let lines: Vec<&str> = text
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        lines.join("\n")
    }

    #[test]
    fn cse_repoints_an_alias_to_a_second_canonical() {
        // r2 aliases r1, then r3; only r3's redefinition must save it.
        let got = cse_listing(
            "r0 = ld.param [0]
             r1 = add.u32 r0, r0
             r2 = add.u32 r0, r0
             r3 = mul.u32 r0, r0
             r2 = mul.u32 r0, r0
             r1 = sub.u32 r0, r0
             r3 = xor.u32 r0, r0
             st.u32 [r0], r2
             st.u32 [r0], r1
             st.u32 [r0], r3
             ret",
        );
        let want = "r0 = ld.param [0]
                    r1 = add.u32 r0, r0
                    r3 = mul.u32 r0, r0
                    r1 = sub.u32 r0, r0
                    r2 = mov r3
                    r3 = xor.u32 r0, r0
                    st.u32 [r0], r2
                    st.u32 [r0], r1
                    st.u32 [r0], r3
                    ret";
        assert_eq!(got, lines(want));
    }

    #[test]
    fn cse_drops_an_alias_whose_register_is_redefined_first() {
        // r2 aliases r1 until r2 is really redefined; r1's later
        // redefinition must then emit no move into r2.
        let got = cse_listing(
            "r0 = ld.param [0]
             r1 = add.u32 r0, r0
             r2 = add.u32 r0, r0
             st.u32 [r0], r2
             r2 = mul.u32 r0, r0
             st.u32 [r0], r2
             r1 = sub.u32 r0, r0
             st.u32 [r0], r1
             st.u32 [r0], r2
             ret",
        );
        let want = "r0 = ld.param [0]
                    r1 = add.u32 r0, r0
                    st.u32 [r0], r1
                    r2 = mul.u32 r0, r0
                    st.u32 [r0], r2
                    r1 = sub.u32 r0, r0
                    st.u32 [r0], r1
                    st.u32 [r0], r2
                    ret";
        assert_eq!(got, lines(want));
    }

    #[test]
    fn cse_saves_orphans_in_ascending_register_order() {
        // r5 becomes an alias of r1 before r3 does; the compensation moves
        // still come out in register order.
        let got = cse_listing(
            "r0 = ld.param [0]
             r1 = add.u32 r0, r0
             r5 = add.u32 r0, r0
             r3 = add.u32 r0, r0
             r1 = mul.u32 r0, r0
             st.u32 [r0], r3
             st.u32 [r0], r5
             st.u32 [r0], r1
             ret",
        );
        let want = "r0 = ld.param [0]
                    r1 = add.u32 r0, r0
                    r3 = mov r1
                    r5 = mov r1
                    r1 = mul.u32 r0, r0
                    st.u32 [r0], r3
                    st.u32 [r0], r5
                    st.u32 [r0], r1
                    ret";
        assert_eq!(got, lines(want));
    }

    #[test]
    fn cse_renames_a_branch_condition() {
        let got = cse_listing(
            "r0 = ld.param [0]
             r1 = setp.lt.u32 r0, r0
             r2 = setp.lt.u32 r0, r0
             bra.nz r2, @5
             st.u32 [r0], r0
             ret",
        );
        let want = "r0 = ld.param [0]
                    r1 = setp.lt.u32 r0, r0
                    bra.nz r1, @4
                    st.u32 [r0], r0
                    ret";
        assert_eq!(got, lines(want));
    }

    #[test]
    fn cse_renames_stay_inside_their_block() {
        // Block 1 renames r2 to r1 and makes r1 canonical for the add;
        // block 2 reads the r2 block 0 computed, and recomputes the add.
        let got = cse_listing(
            "r0 = ld.param [0]
             r2 = mul.u32 r0, r0
             bra.nz r0, @6
             r1 = add.u32 r0, r0
             r2 = add.u32 r0, r0
             ret
             r3 = add.u32 r0, r0
             st.u32 [r0], r3
             st.u32 [r0], r2
             ret",
        );
        let want = "r0 = ld.param [0]
                    r2 = mul.u32 r0, r0
                    bra.nz r0, @5
                    r1 = add.u32 r0, r0
                    ret
                    r3 = add.u32 r0, r0
                    st.u32 [r0], r3
                    st.u32 [r0], r2
                    ret";
        assert_eq!(got, lines(want));
    }

    #[test]
    fn pressure_is_recomputed() {
        let (k, _) = optimized("__global__ void k(float* p) { p[0] = 1.0f; }");
        assert!(k.pressure >= crate::liveness::MIN_REGS);
    }
}
