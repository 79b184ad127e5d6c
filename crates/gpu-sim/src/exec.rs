//! Functional execution of kernel IR at warp-group granularity.
//!
//! Threads carry their own program counters; a warp always issues the group
//! of live threads sharing the *minimum* PC (the classic min-PC SIMT rule),
//! so divergence serializes naturally and reconvergence happens when PCs
//! meet again. Barriers park threads; the block releases them when the
//! arrival count reaches the barrier's participation count.
//!
//! Control state is kept per warp: a padded PC row, an exited-lane mask, a
//! parked-at-barrier mask and a converged PC (see [`BlockExec`] for the
//! invariants), so [`BlockExec::peek_warp`] is a couple of mask tests for
//! a converged warp and a branch-free min over one PC row otherwise.
//!
//! # Lane-vectorized execution
//!
//! Register state is stored structure-of-arrays: one contiguous `u64` row of
//! [`WARP_SIZE`] lanes per `(warp, slot)`, padded to a full warp even for
//! partial warps. Register-pure instructions execute as branch-free
//! loops over all 32 lanes under the group's active mask — every lane
//! evaluates (the ALU helpers are total functions, so garbage values in
//! inactive or padding lanes cannot fault) and a mask select decides whether
//! the lane's destination is overwritten. The `(op, ty)` pair is
//! matched once per issue, and the lane loop is instantiated once per form
//! (`bin_forms!`, `un_forms!`, `cast_forms!`), each instance calling the
//! `#[inline]` [`alu`] helper with constant arguments: no per-lane dispatch,
//! and [`alu`] stays the single source of the operations' semantics. The
//! loops compute in place on the register file by index, 8 lanes at a time,
//! so no register row is copied.
//!
//! A slot is the storage decode assigned a virtual register
//! ([`thread_ir::liveness::storage_slots`]); registers never live at the
//! same time share one, so the file is sized by the kernel's live values,
//! not its virtual-register count, and every operand the interpreter sees
//! is already a slot. The timing model's scoreboard stays keyed by virtual
//! register.
//!
//! Memory, shuffle, vote, and barrier instructions have per-lane side
//! effects (loads, stores, sanitizer events) that must be reported in
//! ascending lane order; they read their operands straight from the lane
//! rows and walk the active lanes one by one, so the sanitizer and
//! barrier-epoch machinery see events in thread order.
//!
//! These loops are the only interpreter. Their oracles are independent of
//! them: the CPU-reference conformance crate, the pinned statistics of
//! `tests/sim_golden.rs` and `register_exactness.rs`, and the naive-loop
//! differential of the timing engine.

use thread_ir::ir::{
    AtomOp, BarCount, BinIr, Inst, ScalarTy, ShflKind, SpecialReg, UnIr, VoteKind,
};
use thread_ir::MemAddr;

use crate::decode::{DecodedKernel, NO_REG};
use crate::error::SimError;
use crate::launch::Launch;
use crate::memory::GpuMemory;
use crate::sanitizer::{AccessCtx, Sanitizer};

/// Threads per warp.
pub const WARP_SIZE: usize = 32;

/// Sentinel in the per-thread barrier column: not parked at any barrier.
const NO_BARRIER: u8 = u8::MAX;

/// Sentinel in the per-warp converged-PC column: not known to be converged.
const NO_PC: u32 = u32::MAX;

/// What a warp can do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpPeek {
    /// Every thread has exited.
    Done,
    /// All live threads are parked at barriers.
    Blocked,
    /// The min-PC group `mask` (bit i = warp-lane i) can issue `pc`.
    Exec {
        /// Program counter the group will execute.
        pc: usize,
        /// Lane mask of the participating threads.
        mask: u32,
    },
}

/// Instruction classes for the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// Simple ALU op (including casts, moves, immediates, specials regs).
    Alu,
    /// Integer divide/remainder.
    Div,
    /// Special function unit (sqrt, exp, ...).
    Special,
    /// Warp shuffle.
    Shuffle,
    /// Shared-memory access.
    SharedMem,
    /// Shared-memory atomic.
    SharedAtomic,
    /// Global-memory access.
    GlobalMem,
    /// Global-memory atomic.
    GlobalAtomic,
    /// Local-memory access (spills / local arrays).
    LocalMem,
    /// Branch / jump / return.
    Control,
    /// Barrier arrival.
    Barrier,
}

impl IssueKind {
    /// Number of latency classes (the size of per-class histograms).
    pub const COUNT: usize = 11;

    /// Every class, in [`Self::index`] order.
    pub const ALL: [IssueKind; Self::COUNT] = [
        IssueKind::Alu,
        IssueKind::Div,
        IssueKind::Special,
        IssueKind::Shuffle,
        IssueKind::SharedMem,
        IssueKind::SharedAtomic,
        IssueKind::GlobalMem,
        IssueKind::GlobalAtomic,
        IssueKind::LocalMem,
        IssueKind::Control,
        IssueKind::Barrier,
    ];

    /// Dense index for histogram arrays (`[u64; IssueKind::COUNT]`).
    pub fn index(self) -> usize {
        match self {
            IssueKind::Alu => 0,
            IssueKind::Div => 1,
            IssueKind::Special => 2,
            IssueKind::Shuffle => 3,
            IssueKind::SharedMem => 4,
            IssueKind::SharedAtomic => 5,
            IssueKind::GlobalMem => 6,
            IssueKind::GlobalAtomic => 7,
            IssueKind::LocalMem => 8,
            IssueKind::Control => 9,
            IssueKind::Barrier => 10,
        }
    }

    /// Short display name (report columns, calibration dumps).
    pub fn name(self) -> &'static str {
        match self {
            IssueKind::Alu => "alu",
            IssueKind::Div => "div",
            IssueKind::Special => "special",
            IssueKind::Shuffle => "shuffle",
            IssueKind::SharedMem => "shared_mem",
            IssueKind::SharedAtomic => "shared_atomic",
            IssueKind::GlobalMem => "global_mem",
            IssueKind::GlobalAtomic => "global_atomic",
            IssueKind::LocalMem => "local_mem",
            IssueKind::Control => "control",
            IssueKind::Barrier => "barrier",
        }
    }
}

/// The result of issuing one group-instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Latency/queueing class.
    pub kind: IssueKind,
    /// Global-memory transactions generated (coalescing-aware).
    pub transactions: u32,
    /// Extra serialization cycles (atomic address conflicts).
    pub conflict_extra: u32,
}

/// Expands to a `match` over every `(op, ty)` binary form. Each arm binds
/// `$f` to a closure calling [`alu::bin`] with that form's constant
/// arguments and evaluates `$body`, so the masked lane loop is instantiated
/// once per form with the ALU semantics folded in — no per-lane dispatch.
macro_rules! bin_forms {
    ($op:expr, $ty:expr, |$f:ident| $body:expr) => {
        bin_forms!(@ty $op, $ty, |$f| $body;
            [I32 U32 I64 U64 F32 F64];
            [Add Sub Mul Div Rem Shl Shr And Or Xor Min Max Lt Le Gt Ge Eq Ne])
    };
    (@ty $op:expr, $ty:expr, |$f:ident| $body:expr; [$($t:ident)*]; $ops:tt) => {
        match $ty {
            $(ScalarTy::$t => bin_forms!(@op $op, $t, |$f| $body; $ops),)*
        }
    };
    (@op $op:expr, $t:ident, |$f:ident| $body:expr; [$($o:ident)*]) => {
        match $op {
            $(BinIr::$o => {
                let $f = |x: u64, y: u64| alu::bin(BinIr::$o, ScalarTy::$t, x, y);
                $body
            })*
        }
    };
}

/// [`bin_forms`] for the unary forms of [`alu::un`].
macro_rules! un_forms {
    ($op:expr, $ty:expr, |$f:ident| $body:expr) => {
        un_forms!(@ty $op, $ty, |$f| $body;
            [I32 U32 I64 U64 F32 F64];
            [Neg Not BitNot Abs Sqrt Rsqrt Exp Log Popc Clz Brev])
    };
    (@ty $op:expr, $ty:expr, |$f:ident| $body:expr; [$($t:ident)*]; $ops:tt) => {
        match $ty {
            $(ScalarTy::$t => un_forms!(@op $op, $t, |$f| $body; $ops),)*
        }
    };
    (@op $op:expr, $t:ident, |$f:ident| $body:expr; [$($o:ident)*]) => {
        match $op {
            $(UnIr::$o => {
                let $f = |x: u64| alu::un(UnIr::$o, ScalarTy::$t, x);
                $body
            })*
        }
    };
}

/// [`bin_forms`] for the `(from, to)` conversions of [`alu::cast`].
macro_rules! cast_forms {
    ($from:expr, $to:expr, |$f:ident| $body:expr) => {
        cast_forms!(@from $from, $to, |$f| $body;
            [I32 U32 I64 U64 F32 F64];
            [I32 U32 I64 U64 F32 F64])
    };
    (@from $from:expr, $to:expr, |$f:ident| $body:expr; [$($a:ident)*]; $tys:tt) => {
        match $from {
            $(ScalarTy::$a => cast_forms!(@to $a, $to, |$f| $body; $tys),)*
        }
    };
    (@to $a:ident, $to:expr, |$f:ident| $body:expr; [$($b:ident)*]) => {
        match $to {
            $(ScalarTy::$b => {
                let $f = |x: u64| alu::cast(ScalarTy::$a, ScalarTy::$b, x);
                $body
            })*
        }
    };
}

/// Execution state of one thread block, stored structure-of-arrays.
///
/// The register file is one flat `u64` vector laid out
/// `[warp][slot][lane]` with every warp padded to [`WARP_SIZE`] lanes, so a
/// `(warp, slot)` pair addresses one contiguous cache-aligned row of 32
/// lanes — the unit the lane loops operate on. It has
/// [`DecodedKernel::num_slots`] rows per warp: decode renamed every virtual
/// register to a storage slot, and registers never live at the same time
/// share a row.
///
/// SIMT control state is warp-granular. Program counters live in one
/// padded `[warp][lane]` column; exit and barrier state are two `u32` lane
/// masks per warp, next to a converged PC. Three invariants hold at every
/// issue boundary:
///
/// - the padding lanes of a partial last warp start (and stay) exited, so
///   a warp is done exactly when its exited mask is all ones;
/// - `parked ⊆ !exited`: only live lanes wait at a barrier (a group is
///   drawn from runnable lanes, and `Ret` never runs on a parked lane);
/// - a warp's converged PC, when not `NO_PC`, is the PC of every
///   runnable lane (`!(exited | parked)`). Issuing a group that spans all
///   runnable lanes sets it; any other PC write, and a barrier release
///   (which makes lanes runnable again), clears it.
///
/// The per-lane barrier id column is consulted only when a barrier
/// releases, to pick the parked lanes waiting on that id.
#[derive(Debug, Clone)]
pub struct BlockExec {
    /// Index of the owning launch within the run.
    pub launch_idx: usize,
    /// This block's `blockIdx.x`.
    pub block_idx: u32,
    /// Threads in the block (the padding lanes past this are inert).
    num_threads: usize,
    /// Register-file rows (storage slots) per warp.
    num_slots: usize,
    /// Per-thread local-memory bytes.
    local_stride: usize,
    /// Program counters, `warp * WARP_SIZE + lane` (padded to full warps).
    pc: Vec<u32>,
    /// Per-warp mask of exited lanes (padding lanes start set).
    exited: Vec<u32>,
    /// Per-warp mask of lanes parked at a barrier (a subset of the live
    /// lanes).
    parked: Vec<u32>,
    /// Parked-barrier id per lane, `warp * WARP_SIZE + lane`; meaningful
    /// only where the `parked` bit is set.
    waiting: Vec<u8>,
    /// Per-warp PC shared by every runnable lane, or [`NO_PC`] when the
    /// warp may be diverged — lets [`Self::peek_warp`] skip the PC row.
    converged: Vec<u32>,
    /// SoA register lanes: `((warp * num_slots) + slot) * WARP_SIZE + lane`.
    regs: Vec<u64>,
    /// Per-thread local memory, flattened at `local_stride` bytes each.
    local: Vec<u8>,
    /// The block's shared-memory frame (static + dynamic).
    shared: Vec<u8>,
    /// Arrival counters for the 16 named barriers.
    barrier_arrivals: [u32; 16],
}

impl BlockExec {
    /// Creates the initial state for one block of `launch`, whose kernel
    /// `prog` decodes (it sizes the register file).
    pub fn new(launch: &Launch, prog: &DecodedKernel, launch_idx: usize, block_idx: u32) -> Self {
        let n = launch.threads_per_block() as usize;
        let kernel = &launch.kernel;
        let num_slots = prog.num_slots as usize;
        let num_warps = n.div_ceil(WARP_SIZE);
        let local_stride = kernel.local_bytes as usize;
        let mut exited = vec![0u32; num_warps];
        let tail = n % WARP_SIZE;
        if tail != 0 {
            exited[num_warps - 1] = !0u32 << tail;
        }
        BlockExec {
            launch_idx,
            block_idx,
            num_threads: n,
            num_slots,
            local_stride,
            pc: vec![0; num_warps * WARP_SIZE],
            exited,
            parked: vec![0; num_warps],
            waiting: vec![NO_BARRIER; num_warps * WARP_SIZE],
            converged: vec![0; num_warps],
            regs: vec![0; num_warps * num_slots * WARP_SIZE],
            local: vec![0; n * local_stride],
            shared: vec![0; launch.shared_bytes_per_block() as usize],
            barrier_arrivals: [0; 16],
        }
    }

    /// Number of warps in the block.
    pub fn num_warps(&self) -> usize {
        self.exited.len()
    }

    /// `[start, end)` thread ids of a warp (`end` is clipped for the last,
    /// possibly partial, warp).
    fn warp_bounds(&self, warp: usize) -> (usize, usize) {
        let start = warp * WARP_SIZE;
        let end = (start + WARP_SIZE).min(self.num_threads);
        (start, end)
    }

    /// Index of the first lane of `(warp, slot)` in the SoA file.
    #[inline(always)]
    fn reg_base(&self, warp: usize, slot: u32) -> usize {
        (warp * self.num_slots + slot as usize) * WARP_SIZE
    }

    /// Mutable 32 lanes of `(warp, slot)`.
    #[inline(always)]
    fn warp_reg_mut(&mut self, warp: usize, reg: u32) -> &mut [u64; WARP_SIZE] {
        let b = self.reg_base(warp, reg);
        (&mut self.regs[b..b + WARP_SIZE])
            .try_into()
            .expect("lane row is WARP_SIZE long")
    }

    /// The 32 program counters of `warp`.
    #[inline(always)]
    fn pc_row(&self, warp: usize) -> &[u32; WARP_SIZE] {
        let b = warp * WARP_SIZE;
        self.pc[b..b + WARP_SIZE]
            .try_into()
            .expect("pc row is WARP_SIZE long")
    }

    /// Mutable program counters of `warp`.
    #[inline(always)]
    fn pc_row_mut(&mut self, warp: usize) -> &mut [u32; WARP_SIZE] {
        let b = warp * WARP_SIZE;
        (&mut self.pc[b..b + WARP_SIZE])
            .try_into()
            .expect("pc row is WARP_SIZE long")
    }

    /// Lanes of `warp` that neither exited nor wait at a barrier.
    #[inline(always)]
    fn runnable(&self, warp: usize) -> u32 {
        !(self.exited[warp] | self.parked[warp])
    }

    /// Records whether `warp` stays converged after its group `mask` moved:
    /// it does when the group spanned every runnable lane and all of them
    /// went to `uniform` (`NO_PC` when they may differ).
    #[inline(always)]
    fn note_converged(&mut self, warp: usize, mask: u32, uniform: u32) {
        self.converged[warp] = if mask == self.runnable(warp) {
            uniform
        } else {
            NO_PC
        };
    }

    /// Advances the PC of every active lane to `next`: a masked row fill.
    #[inline(always)]
    fn advance(&mut self, warp: usize, mask: u32, next: usize) {
        let next = next as u32;
        fill_masked(self.pc_row_mut(warp), mask, next);
        self.note_converged(warp, mask, next);
    }

    /// Decodes the memory space a `Ld`/`St`/`Atom` at the group's PC will
    /// touch from the active lanes' (already computed) addresses, the way
    /// [`Self::exec_group`] classifies the access: off-chip (global or
    /// local) when any lane's address is, shared only when every lane's is.
    /// Returns `None` for non-memory instructions.
    pub fn peek_space(
        &self,
        warp: usize,
        mask: u32,
        pc: usize,
        prog: &DecodedKernel,
    ) -> Option<thread_ir::Space> {
        let addr_reg = prog.insts[pc].addr_reg;
        if addr_reg == NO_REG {
            return None;
        }
        let base = self.reg_base(warp, addr_reg);
        let off_chip = (Lanes { mask })
            .map(|lane| MemAddr(self.regs[base + lane]).space())
            .find(|&s| s != thread_ir::Space::Shared);
        Some(off_chip.unwrap_or(thread_ir::Space::Shared))
    }

    /// Lanes of `warp` that have not exited (parked ones included).
    pub(crate) fn live_lanes(&self, warp: usize) -> u32 {
        !self.exited[warp]
    }

    /// Runs the warps `warps` of this block cooperatively: each in turn
    /// issues its min-PC groups through `issue` until it exits or parks at
    /// a barrier, round after round. Returns `Ok(true)` once every listed
    /// warp is done and `Ok(false)` when a round issues nothing (they all
    /// wait at barriers no listed warp will reach).
    ///
    /// # Errors
    ///
    /// The first error `issue` returns.
    pub(crate) fn run_warps<E>(
        &mut self,
        warps: &[usize],
        mut issue: impl FnMut(&mut Self, usize, usize, u32) -> Result<(), E>,
    ) -> Result<bool, E> {
        loop {
            let mut progressed = false;
            for &w in warps {
                while let WarpPeek::Exec { pc, mask } = self.peek_warp(w) {
                    issue(self, w, pc, mask)?;
                    progressed = true;
                }
            }
            if warps.iter().all(|&w| self.peek_warp(w) == WarpPeek::Done) {
                return Ok(true);
            }
            if !progressed {
                return Ok(false);
            }
        }
    }

    /// Finds the min-PC runnable group of a warp: two mask tests, then —
    /// unless the warp is known converged — a branch-free min and compare
    /// over the warp's PC row.
    #[inline(always)]
    pub fn peek_warp(&self, warp: usize) -> WarpPeek {
        let exited = self.exited[warp];
        if exited == !0 {
            return WarpPeek::Done;
        }
        let runnable = !(exited | self.parked[warp]);
        if runnable == 0 {
            return WarpPeek::Blocked;
        }
        let row = self.pc_row(warp);
        let converged = self.converged[warp];
        if converged != NO_PC {
            debug_assert!(
                (0..WARP_SIZE).all(|l| runnable & (1 << l) == 0 || row[l] == converged),
                "warp {warp} marked converged at {converged} but diverged"
            );
            return WarpPeek::Exec {
                pc: converged as usize,
                mask: runnable,
            };
        }
        let mut min_pc = u32::MAX;
        for (l, &pc) in row.iter().enumerate() {
            min_pc = min_pc.min(if runnable & (1 << l) != 0 {
                pc
            } else {
                u32::MAX
            });
        }
        let mut at_min = 0u32;
        for (l, &pc) in row.iter().enumerate() {
            at_min |= u32::from(pc == min_pc) << l;
        }
        WarpPeek::Exec {
            pc: min_pc as usize,
            mask: at_min & runnable,
        }
    }

    /// Executes instruction `pc` for the lane group `mask` of `warp`,
    /// reading the instruction from the pre-decoded buffer `prog`.
    /// When `san` is given, memory accesses and barrier events are also
    /// reported to the sanitizer.
    ///
    /// Register-pure instructions run as masked lane loops over the whole
    /// warp; instructions with per-lane side effects (memory, shuffles,
    /// votes, barriers) walk the active lanes and report events in
    /// ascending lane order.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on out-of-bounds accesses or malformed
    /// addresses — the simulation should be aborted.
    ///
    /// # Panics
    ///
    /// Panics if `mask` does not match runnable threads at `pc` (engine
    /// bug, not user error).
    #[allow(clippy::too_many_arguments)]
    pub fn exec_group(
        &mut self,
        launch: &Launch,
        prog: &DecodedKernel,
        mem: &mut GpuMemory,
        warp: usize,
        pc: usize,
        mask: u32,
        seg_bytes: u32,
        mut san: Option<&mut Sanitizer>,
    ) -> Result<ExecOutcome, SimError> {
        let kernel = &launch.kernel;
        let warp_start = warp * WARP_SIZE;
        let inst = &prog.insts[pc].inst;
        let lanes: Lanes = Lanes { mask };
        let san_ctx = AccessCtx {
            kernel: &kernel.name,
            launch: self.launch_idx,
            block: self.block_idx,
            nthreads: launch.threads_per_block(),
        };

        let simple = |kind: IssueKind| ExecOutcome {
            kind,
            transactions: 0,
            conflict_extra: 0,
        };

        match inst {
            Inst::Imm { dst, value } => {
                fill_masked(self.warp_reg_mut(warp, *dst), mask, *value);
                self.advance(warp, mask, pc + 1);
                Ok(simple(IssueKind::Alu))
            }
            Inst::Mov { dst, src } => {
                let (d, a) = (self.reg_base(warp, *dst), self.reg_base(warp, *src));
                lanes1(&mut self.regs, d, a, mask, |x| x);
                self.advance(warp, mask, pc + 1);
                Ok(simple(IssueKind::Alu))
            }
            Inst::Bin { op, ty, dst, a, b } => {
                let d = self.reg_base(warp, *dst);
                let (a, b) = (self.reg_base(warp, *a), self.reg_base(warp, *b));
                let regs = &mut self.regs;
                bin_forms!(*op, *ty, |f| lanes2(regs, d, a, b, mask, f));
                self.advance(warp, mask, pc + 1);
                // Divides are iterative on real hardware for integers and
                // a multi-instruction reciprocal sequence for floats.
                let kind = if matches!(op, BinIr::Div | BinIr::Rem) {
                    IssueKind::Div
                } else {
                    IssueKind::Alu
                };
                Ok(simple(kind))
            }
            Inst::Un { op, ty, dst, a } => {
                let (d, a) = (self.reg_base(warp, *dst), self.reg_base(warp, *a));
                let regs = &mut self.regs;
                un_forms!(*op, *ty, |f| lanes1(regs, d, a, mask, f));
                self.advance(warp, mask, pc + 1);
                let kind = match op {
                    UnIr::Sqrt | UnIr::Rsqrt | UnIr::Exp | UnIr::Log => IssueKind::Special,
                    _ => IssueKind::Alu,
                };
                Ok(simple(kind))
            }
            Inst::Cast { dst, src, from, to } => {
                let (d, a) = (self.reg_base(warp, *dst), self.reg_base(warp, *src));
                let regs = &mut self.regs;
                cast_forms!(*from, *to, |f| lanes1(regs, d, a, mask, f));
                self.advance(warp, mask, pc + 1);
                Ok(simple(IssueKind::Alu))
            }
            Inst::Special { dst, reg } => {
                // The value is pure arithmetic on the thread id, so
                // padding lanes are harmless to evaluate.
                let mut vals = [0u64; WARP_SIZE];
                for (l, v) in vals.iter_mut().enumerate() {
                    *v = self.special_value(launch, *reg, warp_start + l);
                }
                select_masked(self.warp_reg_mut(warp, *dst), mask, &vals);
                self.advance(warp, mask, pc + 1);
                Ok(simple(IssueKind::Alu))
            }
            Inst::LdParam { dst, index } => {
                let bits = launch.args[*index as usize].to_bits();
                fill_masked(self.warp_reg_mut(warp, *dst), mask, bits);
                self.advance(warp, mask, pc + 1);
                Ok(simple(IssueKind::Alu))
            }
            Inst::SharedAddr { dst, offset } => {
                let addr = MemAddr::shared(*offset).0;
                fill_masked(self.warp_reg_mut(warp, *dst), mask, addr);
                self.advance(warp, mask, pc + 1);
                Ok(simple(IssueKind::Alu))
            }
            Inst::LocalAddr { dst, offset } => {
                let addr = MemAddr::local(*offset).0;
                fill_masked(self.warp_reg_mut(warp, *dst), mask, addr);
                self.advance(warp, mask, pc + 1);
                Ok(simple(IssueKind::Alu))
            }
            Inst::Ld { ty, dst, addr } => {
                // Read addresses straight from the SoA row and perform the
                // loads (and sanitizer events) in ascending lane order. All
                // loads land before any destination lane is written, so
                // `dst` may alias `addr`.
                let ab = self.reg_base(warp, *addr);
                let mut vals = [0u64; WARP_SIZE];
                let mut segs = SegmentSet::new();
                let mut kind = IssueKind::SharedMem;
                for lane in lanes {
                    let tid = warp_start + lane;
                    let a = MemAddr(self.regs[ab + lane]);
                    // Report out-of-bounds *before* the load faults, so the
                    // sanitizer's finding survives the aborted run.
                    if let Some(s) = san.as_deref_mut() {
                        if let Some(limit) = self.alloc_limit(mem, a) {
                            let w = ty.size_bytes();
                            if u64::from(a.offset()) + u64::from(w) > u64::from(limit) {
                                s.on_out_of_bounds(&san_ctx, tid as u32, pc, a, w, limit, false);
                            }
                        }
                    }
                    vals[lane] = self.load(mem, tid, a, *ty)?;
                    if let Some(s) = san.as_deref_mut() {
                        s.on_access(&san_ctx, tid as u32, pc, a, ty.size_bytes(), false, false);
                    }
                    match a.space() {
                        thread_ir::Space::Global => {
                            kind = IssueKind::GlobalMem;
                            segs.insert(a, seg_bytes);
                        }
                        thread_ir::Space::Local => kind = IssueKind::LocalMem,
                        thread_ir::Space::Shared => {}
                    }
                }
                select_masked(self.warp_reg_mut(warp, *dst), mask, &vals);
                self.advance(warp, mask, pc + 1);
                Ok(ExecOutcome {
                    kind,
                    transactions: segs.count(),
                    conflict_extra: 0,
                })
            }
            Inst::St { ty, addr, val } => {
                let (ab, vb) = (self.reg_base(warp, *addr), self.reg_base(warp, *val));
                let mut segs = SegmentSet::new();
                let mut kind = IssueKind::SharedMem;
                for lane in lanes {
                    let tid = warp_start + lane;
                    let a = MemAddr(self.regs[ab + lane]);
                    let v = self.regs[vb + lane];
                    if let Some(s) = san.as_deref_mut() {
                        if let Some(limit) = self.alloc_limit(mem, a) {
                            let w = ty.size_bytes();
                            if u64::from(a.offset()) + u64::from(w) > u64::from(limit) {
                                s.on_out_of_bounds(&san_ctx, tid as u32, pc, a, w, limit, true);
                            }
                        }
                    }
                    self.store(mem, tid, a, *ty, v)?;
                    if let Some(s) = san.as_deref_mut() {
                        s.on_access(&san_ctx, tid as u32, pc, a, ty.size_bytes(), true, false);
                    }
                    match a.space() {
                        thread_ir::Space::Global => {
                            kind = IssueKind::GlobalMem;
                            segs.insert(a, seg_bytes);
                        }
                        thread_ir::Space::Local => kind = IssueKind::LocalMem,
                        thread_ir::Space::Shared => {}
                    }
                }
                self.advance(warp, mask, pc + 1);
                Ok(ExecOutcome {
                    kind,
                    transactions: segs.count(),
                    conflict_extra: 0,
                })
            }
            Inst::Atom {
                op,
                ty,
                dst,
                addr,
                val,
            } => {
                // Atomics are inherently serial per lane (lane i's store
                // must be visible to lane j > i on the same address); only
                // the result scatter is vector-shaped.
                let (ab, vb) = (self.reg_base(warp, *addr), self.reg_base(warp, *val));
                let mut olds = [0u64; WARP_SIZE];
                let mut segs = SegmentSet::new();
                let mut kind = IssueKind::SharedAtomic;
                let mut sorted_addrs: Vec<u64> = Vec::new();
                for lane in lanes {
                    let tid = warp_start + lane;
                    let a = MemAddr(self.regs[ab + lane]);
                    let v = self.regs[vb + lane];
                    if let Some(s) = san.as_deref_mut() {
                        if let Some(limit) = self.alloc_limit(mem, a) {
                            let w = ty.size_bytes();
                            if u64::from(a.offset()) + u64::from(w) > u64::from(limit) {
                                s.on_out_of_bounds(&san_ctx, tid as u32, pc, a, w, limit, true);
                            }
                        }
                    }
                    let old = self.load(mem, tid, a, *ty)?;
                    let new = match op {
                        AtomOp::Add => alu::bin(BinIr::Add, *ty, old, v),
                        AtomOp::Max => alu::bin(BinIr::Max, *ty, old, v),
                        AtomOp::Exch => v,
                    };
                    self.store(mem, tid, a, *ty, new)?;
                    if let Some(s) = san.as_deref_mut() {
                        s.on_access(&san_ctx, tid as u32, pc, a, ty.size_bytes(), true, true);
                    }
                    olds[lane] = old;
                    sorted_addrs.push(a.0);
                    if a.space() == thread_ir::Space::Global {
                        kind = IssueKind::GlobalAtomic;
                        segs.insert(a, seg_bytes);
                    }
                }
                select_masked(self.warp_reg_mut(warp, *dst), mask, &olds);
                self.advance(warp, mask, pc + 1);
                // Serialization cost: colliding addresses retry one by one.
                sorted_addrs.sort_unstable();
                let conflicts = sorted_addrs.windows(2).filter(|w| w[0] == w[1]).count() as u32;
                Ok(ExecOutcome {
                    kind,
                    transactions: segs.count(),
                    conflict_extra: conflicts,
                })
            }
            Inst::Shfl {
                kind,
                dst,
                src,
                lane: lane_reg,
                width,
            } => {
                // Every lane's value is gathered before any write (dst may
                // alias src); lanes past the block's thread count fall back
                // to the reading lane's own value, mirroring out-of-range
                // shuffle semantics.
                let sb = self.reg_base(warp, *src);
                let ob = self.reg_base(warp, *lane_reg);
                let wb = self.reg_base(warp, *width);
                let (ws, we) = self.warp_bounds(warp);
                let valid = we - ws;
                let mut vals = [0u64; WARP_SIZE];
                for lane in lanes {
                    let operand = self.regs[ob + lane] as u32;
                    let w = (self.regs[wb + lane] as u32).clamp(1, 32);
                    let lane_u = lane as u32;
                    let src_lane = match kind {
                        ShflKind::Xor => lane_u ^ operand,
                        ShflKind::Down => {
                            let base = lane_u / w * w;
                            let within = lane_u % w + operand;
                            if within >= w {
                                lane_u
                            } else {
                                base + within
                            }
                        }
                    };
                    let from = if (src_lane as usize) < valid {
                        src_lane as usize
                    } else {
                        lane
                    };
                    vals[lane] = self.regs[sb + from];
                }
                select_masked(self.warp_reg_mut(warp, *dst), mask, &vals);
                self.advance(warp, mask, pc + 1);
                Ok(simple(IssueKind::Shuffle))
            }
            Inst::Vote { kind, dst, src } => {
                // Participants are the lanes of the executing group (the
                // CUDA `_sync` mask is evaluated and dropped at lowering;
                // fused-kernel guards are warp-uniform so the group *is*
                // the active mask).
                let sb = self.reg_base(warp, *src);
                let mut ballot = 0u32;
                for lane in lanes {
                    ballot |= u32::from(self.regs[sb + lane] != 0) << lane;
                }
                let value = match kind {
                    VoteKind::Ballot => u64::from(ballot),
                    VoteKind::Any => u64::from(ballot != 0),
                    VoteKind::All => u64::from(ballot == mask),
                };
                fill_masked(self.warp_reg_mut(warp, *dst), mask, value);
                self.advance(warp, mask, pc + 1);
                Ok(simple(IssueKind::Shuffle))
            }
            Inst::Bar { id, count } => {
                let expected = match count {
                    BarCount::All => launch.threads_per_block(),
                    BarCount::Fixed(n) => *n,
                };
                let fixed = matches!(count, BarCount::Fixed(_));
                if let Some(s) = san.as_deref_mut() {
                    s.on_barrier_arrival(&san_ctx, *id, expected, fixed);
                }
                let group_size = mask.count_ones();
                let id8 = *id as u8;
                for lane in lanes {
                    self.waiting[warp_start + lane] = id8;
                }
                self.parked[warp] |= mask;
                self.advance(warp, mask, pc + 1);
                self.barrier_arrivals[*id as usize] += group_size;
                if self.barrier_arrivals[*id as usize] >= expected {
                    self.barrier_arrivals[*id as usize] -= expected;
                    // Release every parked lane waiting on this id, in
                    // ascending thread order.
                    let collect = san.is_some();
                    let mut released: Vec<u32> = Vec::new();
                    for w in 0..self.parked.len() {
                        let mut freed = 0u32;
                        for lane in (Lanes {
                            mask: self.parked[w],
                        }) {
                            let tid = w * WARP_SIZE + lane;
                            if self.waiting[tid] == id8 {
                                freed |= 1 << lane;
                                if collect {
                                    released.push(tid as u32);
                                }
                            }
                        }
                        if freed != 0 {
                            self.parked[w] &= !freed;
                            self.converged[w] = NO_PC;
                        }
                    }
                    if let Some(s) = san {
                        s.on_barrier_release(&san_ctx, *id, expected, fixed, &released);
                    }
                }
                Ok(simple(IssueKind::Barrier))
            }
            Inst::Bra {
                cond,
                if_zero,
                target,
            } => {
                let cb = self.reg_base(warp, *cond);
                let conds: &[u64; WARP_SIZE] = self.regs[cb..cb + WARP_SIZE]
                    .try_into()
                    .expect("lane row is WARP_SIZE long");
                let (taken_pc, next_pc) = (*target as u32, pc as u32 + 1);
                let mut next = [0u32; WARP_SIZE];
                let mut taken = 0u32;
                for (l, (n, &c)) in next.iter_mut().zip(conds).enumerate() {
                    let t = (c == 0) == *if_zero;
                    *n = if t { taken_pc } else { next_pc };
                    taken |= u32::from(t) << l;
                }
                let uniform = match taken & mask {
                    0 => next_pc,
                    t if t == mask => taken_pc,
                    _ => NO_PC,
                };
                select_masked(self.pc_row_mut(warp), mask, &next);
                self.note_converged(warp, mask, uniform);
                Ok(simple(IssueKind::Control))
            }
            Inst::Jmp { target } => {
                self.advance(warp, mask, *target);
                Ok(simple(IssueKind::Control))
            }
            Inst::Ret => {
                self.exited[warp] |= mask;
                Ok(simple(IssueKind::Control))
            }
        }
    }

    fn special_value(&self, launch: &Launch, reg: SpecialReg, tid: usize) -> u64 {
        let (bx, by, _bz) = launch.block_dim;
        let linear = tid as u32;
        let v: u32 = match reg {
            SpecialReg::ThreadIdxX => linear % bx,
            SpecialReg::ThreadIdxY => linear / bx % by,
            SpecialReg::ThreadIdxZ => linear / (bx * by),
            SpecialReg::BlockIdxX => self.block_idx,
            SpecialReg::BlockIdxY | SpecialReg::BlockIdxZ => 0,
            SpecialReg::BlockDimX => launch.block_dim.0,
            SpecialReg::BlockDimY => launch.block_dim.1,
            SpecialReg::BlockDimZ => launch.block_dim.2,
            SpecialReg::GridDimX => launch.grid_dim,
            SpecialReg::GridDimY | SpecialReg::GridDimZ => 1,
        };
        u64::from(v)
    }

    /// Allocation size in bytes behind a lane's address: the block's shared
    /// allocation, the thread's local slab, or the global buffer. `None`
    /// for an unknown global buffer (the load/store faults with its own
    /// message).
    fn alloc_limit(&self, mem: &GpuMemory, addr: MemAddr) -> Option<u32> {
        match addr.space() {
            thread_ir::Space::Global => mem.try_len_bytes(addr.buffer()).map(|n| n as u32),
            thread_ir::Space::Shared => Some(self.shared.len() as u32),
            thread_ir::Space::Local => Some(self.local_stride as u32),
        }
    }

    fn load(
        &self,
        mem: &GpuMemory,
        tid: usize,
        addr: MemAddr,
        ty: ScalarTy,
    ) -> Result<u64, SimError> {
        let w = ty.size_bytes();
        let raw = match addr.space() {
            thread_ir::Space::Global => mem.load(addr.buffer(), addr.offset(), w)?,
            thread_ir::Space::Shared => read_bytes(&self.shared, addr.offset(), w, "shared load")?,
            thread_ir::Space::Local => {
                let s = tid * self.local_stride;
                read_bytes(
                    &self.local[s..s + self.local_stride],
                    addr.offset(),
                    w,
                    "local load",
                )?
            }
        };
        Ok(alu::canon_load(ty, raw))
    }

    fn store(
        &mut self,
        mem: &mut GpuMemory,
        tid: usize,
        addr: MemAddr,
        ty: ScalarTy,
        value: u64,
    ) -> Result<(), SimError> {
        let w = ty.size_bytes();
        match addr.space() {
            thread_ir::Space::Global => mem.store(addr.buffer(), addr.offset(), w, value),
            thread_ir::Space::Shared => {
                write_bytes(&mut self.shared, addr.offset(), w, value, "shared store")
            }
            thread_ir::Space::Local => {
                let s = tid * self.local_stride;
                write_bytes(
                    &mut self.local[s..s + self.local_stride],
                    addr.offset(),
                    w,
                    value,
                    "local store",
                )
            }
        }
    }
}

/// Lanes per chunk of the in-place lane loops. A chunk's source slots are
/// loaded before any of its destination lanes is written, so the
/// destination row may be a source row and each chunk still compiles to
/// straight-line vector code.
const CHUNK: usize = 8;

/// Branch-free masked unary lane loop, in place on the SoA register file:
/// lane `l` of the row at `d` becomes `f(regs[a + l])` where `mask` has
/// bit `l`. Every lane evaluates `f` (total on garbage inputs); the mask
/// select keeps inactive destinations intact. Lane `l` reads only slot `l`
/// of its source row, so `d` may equal `a`.
#[inline(always)]
fn lanes1(regs: &mut [u64], d: usize, a: usize, mask: u32, f: impl Fn(u64) -> u64) {
    assert!(d.max(a) + WARP_SIZE <= regs.len(), "lane row out of range");
    for c in (0..WARP_SIZE).step_by(CHUNK) {
        let x: [u64; CHUNK] = regs[a + c..a + c + CHUNK].try_into().expect("chunk");
        let m = mask >> c;
        let dst = &mut regs[d + c..d + c + CHUNK];
        for i in 0..CHUNK {
            let v = f(x[i]);
            dst[i] = if m & (1 << i) != 0 { v } else { dst[i] };
        }
    }
}

/// Branch-free masked binary lane loop (see [`lanes1`]).
#[inline(always)]
fn lanes2(regs: &mut [u64], d: usize, a: usize, b: usize, mask: u32, f: impl Fn(u64, u64) -> u64) {
    assert!(
        d.max(a).max(b) + WARP_SIZE <= regs.len(),
        "lane row out of range"
    );
    for c in (0..WARP_SIZE).step_by(CHUNK) {
        let x: [u64; CHUNK] = regs[a + c..a + c + CHUNK].try_into().expect("chunk");
        let y: [u64; CHUNK] = regs[b + c..b + c + CHUNK].try_into().expect("chunk");
        let m = mask >> c;
        let dst = &mut regs[d + c..d + c + CHUNK];
        for i in 0..CHUNK {
            let v = f(x[i], y[i]);
            dst[i] = if m & (1 << i) != 0 { v } else { dst[i] };
        }
    }
}

/// Branch-free masked broadcast of one value into the active lanes.
#[inline(always)]
fn fill_masked<T: Copy>(d: &mut [T; WARP_SIZE], mask: u32, value: T) {
    for (l, slot) in d.iter_mut().enumerate() {
        *slot = if mask & (1 << l) != 0 { value } else { *slot };
    }
}

/// Branch-free masked copy of per-lane values into the active lanes.
#[inline(always)]
fn select_masked<T: Copy>(d: &mut [T; WARP_SIZE], mask: u32, vals: &[T; WARP_SIZE]) {
    for (l, (slot, &v)) in d.iter_mut().zip(vals).enumerate() {
        *slot = if mask & (1 << l) != 0 { v } else { *slot };
    }
}

fn read_bytes(buf: &[u8], offset: u32, width: u32, what: &str) -> Result<u64, SimError> {
    let (o, w) = (offset as usize, width as usize);
    if o + w > buf.len() {
        return Err(SimError::new(format!(
            "{what} out of bounds: offset {o}+{w} in {} bytes",
            buf.len()
        )));
    }
    let mut word = [0u8; 8];
    word[..w].copy_from_slice(&buf[o..o + w]);
    Ok(u64::from_le_bytes(word))
}

fn write_bytes(
    buf: &mut [u8],
    offset: u32,
    width: u32,
    value: u64,
    what: &str,
) -> Result<(), SimError> {
    let (o, w) = (offset as usize, width as usize);
    if o + w > buf.len() {
        return Err(SimError::new(format!(
            "{what} out of bounds: offset {o}+{w} in {} bytes",
            buf.len()
        )));
    }
    buf[o..o + w].copy_from_slice(&value.to_le_bytes()[..w]);
    Ok(())
}

/// Iterator over set lanes of a mask.
#[derive(Debug, Clone, Copy)]
struct Lanes {
    mask: u32,
}

impl Iterator for Lanes {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.mask == 0 {
            return None;
        }
        let lane = self.mask.trailing_zeros() as usize;
        self.mask &= self.mask - 1;
        Some(lane)
    }
}

/// Distinct-memory-segment counter for coalescing.
struct SegmentSet {
    segs: Vec<u64>,
}

impl SegmentSet {
    fn new() -> Self {
        Self {
            segs: Vec::with_capacity(4),
        }
    }

    fn insert(&mut self, addr: MemAddr, seg_bytes: u32) {
        let key = (u64::from(addr.buffer()) << 32) | u64::from(addr.offset() / seg_bytes);
        if !self.segs.contains(&key) {
            self.segs.push(key);
        }
    }

    fn count(&self) -> u32 {
        self.segs.len() as u32
    }
}

pub use thread_ir::alu;

#[cfg(test)]
mod tests {
    use super::alu;
    use super::*;

    #[test]
    fn lanes_iterates_set_bits() {
        let lanes: Vec<usize> = Lanes { mask: 0b1010_0001 }.collect();
        assert_eq!(lanes, vec![0, 5, 7]);
    }

    #[test]
    fn issue_kind_index_round_trips() {
        for (i, k) in IssueKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        let names: std::collections::HashSet<_> = IssueKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), IssueKind::COUNT, "names must be unique");
    }

    #[test]
    fn masked_lane_helpers_leave_inactive_lanes_intact() {
        let mut d = [7u64; WARP_SIZE];
        fill_masked(&mut d, 0b101, 9);
        assert_eq!(d[0], 9);
        assert_eq!(d[1], 7);
        assert_eq!(d[2], 9);
        assert_eq!(d[3], 7);

        // Rows of a three-register file: d = 0, a = 32, b = 64.
        let mut regs = [[0u64; WARP_SIZE], [3; WARP_SIZE], [4; WARP_SIZE]].concat();
        lanes2(&mut regs, 0, 32, 64, 0b10, |x, y| x + y);
        assert_eq!(regs[0], 0);
        assert_eq!(regs[1], 7);
        assert_eq!(regs[2], 0);

        lanes1(&mut regs, 0, 32, 0xffff_ffff, |x| x * 2);
        assert!(regs[..WARP_SIZE].iter().all(|&v| v == 6));

        // In place: destination row equals the source row.
        lanes2(&mut regs, 32, 32, 64, 0b1, |x, y| x * y);
        assert_eq!(regs[32], 12);
        assert_eq!(regs[33], 3);

        let mut d = [5u32; WARP_SIZE];
        let mut vals = [0u32; WARP_SIZE];
        vals[3] = 8;
        select_masked(&mut d, 0b1000, &vals);
        assert_eq!((d[2], d[3]), (5, 8));
    }

    #[test]
    fn segment_set_counts_distinct_lines() {
        let mut s = SegmentSet::new();
        s.insert(MemAddr::global(0, 0), 128);
        s.insert(MemAddr::global(0, 64), 128); // same 128B line
        s.insert(MemAddr::global(0, 128), 128); // next line
        s.insert(MemAddr::global(1, 0), 128); // other buffer
        assert_eq!(s.count(), 3);
    }

    #[test]
    fn alu_i32_canonicalizes_sign() {
        let r = alu::bin(BinIr::Sub, ScalarTy::I32, 0, 1);
        assert_eq!(r, u64::MAX, "-1 must be sign-extended");
        assert_eq!(alu::bin(BinIr::Lt, ScalarTy::I32, r, 0), 1, "-1 < 0");
    }

    #[test]
    fn alu_u32_wraps_and_zero_extends() {
        let r = alu::bin(BinIr::Sub, ScalarTy::U32, 0, 1);
        assert_eq!(r, u64::from(u32::MAX));
        assert_eq!(alu::bin(BinIr::Gt, ScalarTy::U32, r, 0), 1, "u32::MAX > 0");
    }

    #[test]
    fn alu_f32_round_trip() {
        let a = u64::from(1.5f32.to_bits());
        let b = u64::from(2.0f32.to_bits());
        let r = alu::bin(BinIr::Mul, ScalarTy::F32, a, b);
        assert_eq!(f32::from_bits(r as u32), 3.0);
    }

    #[test]
    fn division_by_zero_is_zero_for_ints() {
        assert_eq!(alu::bin(BinIr::Div, ScalarTy::I32, 5, 0), 0);
        assert_eq!(alu::bin(BinIr::Rem, ScalarTy::U64, 5, 0), 0);
    }

    #[test]
    fn float_division_by_zero_is_inf() {
        let one = u64::from(1.0f32.to_bits());
        let zero = u64::from(0.0f32.to_bits());
        let r = alu::bin(BinIr::Div, ScalarTy::F32, one, zero);
        assert!(f32::from_bits(r as u32).is_infinite());
    }

    #[test]
    fn oversized_shifts_clamp() {
        assert_eq!(alu::bin(BinIr::Shl, ScalarTy::U32, 1, 32), 0);
        // arithmetic right shift of a negative value saturates to -1
        let neg = alu::bin(BinIr::Sub, ScalarTy::I32, 0, 8);
        assert_eq!(alu::bin(BinIr::Shr, ScalarTy::I32, neg, 40), u64::MAX);
    }

    #[test]
    fn cast_f32_to_i32_truncates() {
        let v = u64::from(3.9f32.to_bits());
        assert_eq!(alu::cast(ScalarTy::F32, ScalarTy::I32, v), 3);
        let v = u64::from((-3.9f32).to_bits());
        assert_eq!(alu::cast(ScalarTy::F32, ScalarTy::I32, v) as i64, -3);
    }

    #[test]
    fn cast_i32_to_f32() {
        let v = alu::bin(BinIr::Sub, ScalarTy::I32, 0, 7); // -7
        let r = alu::cast(ScalarTy::I32, ScalarTy::F32, v);
        assert_eq!(f32::from_bits(r as u32), -7.0);
    }

    #[test]
    fn canon_load_sign_extends_i32() {
        assert_eq!(alu::canon_load(ScalarTy::I32, 0xffff_ffff), u64::MAX);
        assert_eq!(alu::canon_load(ScalarTy::U32, 0xffff_ffff), 0xffff_ffff);
    }

    #[test]
    fn unary_not_and_neg() {
        assert_eq!(alu::un(UnIr::Not, ScalarTy::I32, 0), 1);
        assert_eq!(alu::un(UnIr::Not, ScalarTy::I32, 5), 0);
        let nz = u64::from((-0.0f32).to_bits());
        assert_eq!(alu::un(UnIr::Not, ScalarTy::F32, nz), 1, "-0.0 is falsy");
        assert_eq!(alu::un(UnIr::Neg, ScalarTy::I32, 5) as i64, -5);
    }

    #[test]
    fn special_functions() {
        let four = u64::from(4.0f32.to_bits());
        assert_eq!(
            f32::from_bits(alu::un(UnIr::Sqrt, ScalarTy::F32, four) as u32),
            2.0
        );
        assert_eq!(
            f32::from_bits(alu::un(UnIr::Rsqrt, ScalarTy::F32, four) as u32),
            0.5
        );
    }
}
