//! The SIMT instruction set and kernel container.
//!
//! Values are raw 64-bit words ([`u64`]); every operation carries the
//! [`ScalarTy`] under which it interprets its operands, like a real ISA.
//! Pointers are tagged addresses (see [`MemAddr`]): two tag bits select the
//! memory space, thirty bits name a global buffer, and the low 32 bits are a
//! byte offset. This lets `reinterpret_cast` between pointer types and
//! pointer arithmetic work without static aliasing information.

use std::fmt;

/// A virtual register index. Registers are per-thread.
pub type Reg = u32;

/// Scalar interpretation of a 64-bit register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalarTy {
    /// 32-bit signed integer.
    I32,
    /// 32-bit unsigned integer.
    U32,
    /// 64-bit signed integer.
    I64,
    /// 64-bit unsigned integer (also pointer values).
    U64,
    /// 32-bit float.
    F32,
    /// 64-bit float.
    F64,
}

impl ScalarTy {
    /// Width of a memory access of this type, in bytes.
    pub fn size_bytes(self) -> u32 {
        match self {
            ScalarTy::I32 | ScalarTy::U32 | ScalarTy::F32 => 4,
            ScalarTy::I64 | ScalarTy::U64 | ScalarTy::F64 => 8,
        }
    }

    /// True for `F32`/`F64`.
    pub fn is_float(self) -> bool {
        matches!(self, ScalarTy::F32 | ScalarTy::F64)
    }
}

impl fmt::Display for ScalarTy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarTy::I32 => "s32",
            ScalarTy::U32 => "u32",
            ScalarTy::I64 => "s64",
            ScalarTy::U64 => "u64",
            ScalarTy::F32 => "f32",
            ScalarTy::F64 => "f64",
        };
        f.write_str(s)
    }
}

/// Memory spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Space {
    /// Device (global) memory; addressed as (buffer id, offset).
    Global,
    /// Per-block shared memory.
    Shared,
    /// Per-thread local memory (local arrays and register spills).
    Local,
}

/// Tagged 64-bit address.
///
/// Layout: bits 63–62 space tag (0 = global, 1 = shared, 2 = local),
/// bits 61–32 buffer id (global only), bits 31–0 byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAddr(pub u64);

impl MemAddr {
    const TAG_SHIFT: u32 = 62;
    const BUF_SHIFT: u32 = 32;
    const BUF_MASK: u64 = 0x3fff_ffff;

    /// Builds a global-memory address.
    pub fn global(buffer: u32, offset: u32) -> Self {
        debug_assert!(u64::from(buffer) <= Self::BUF_MASK);
        MemAddr((u64::from(buffer) << Self::BUF_SHIFT) | u64::from(offset))
    }

    /// Builds a shared-memory address.
    pub fn shared(offset: u32) -> Self {
        MemAddr((1u64 << Self::TAG_SHIFT) | u64::from(offset))
    }

    /// Builds a local-memory address.
    pub fn local(offset: u32) -> Self {
        MemAddr((2u64 << Self::TAG_SHIFT) | u64::from(offset))
    }

    /// The memory space this address points into.
    pub fn space(self) -> Space {
        match self.0 >> Self::TAG_SHIFT {
            0 => Space::Global,
            1 => Space::Shared,
            _ => Space::Local,
        }
    }

    /// The global buffer id (meaningful for [`Space::Global`] only).
    pub fn buffer(self) -> u32 {
        ((self.0 >> Self::BUF_SHIFT) & Self::BUF_MASK) as u32
    }

    /// The byte offset within the buffer / shared / local frame.
    pub fn offset(self) -> u32 {
        self.0 as u32
    }

    /// Returns the address advanced by `bytes` (offset arithmetic only; the
    /// tag and buffer are preserved, matching pointer arithmetic semantics).
    pub fn add_bytes(self, bytes: i64) -> Self {
        let off = (i64::from(self.offset()) + bytes) as u32;
        MemAddr((self.0 & !0xffff_ffff) | u64::from(off))
    }
}

/// Binary ALU operations. Comparisons produce 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names mirror the operations
pub enum BinIr {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    And,
    Or,
    Xor,
    Min,
    Max,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Unary operations. The transcendental ones model the GPU special function
/// unit and carry a longer latency in the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum UnIr {
    Neg,
    /// Logical not: 1 if zero, else 0.
    Not,
    BitNot,
    Abs,
    Sqrt,
    Rsqrt,
    Exp,
    Log,
    /// Population count.
    Popc,
    /// Count leading zeros.
    Clz,
    /// Bit reversal.
    Brev,
}

/// Atomic read-modify-write operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AtomOp {
    Add,
    Max,
    Exch,
}

/// Warp vote kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VoteKind {
    /// Bitmask of participating lanes with a true predicate.
    Ballot,
    /// 1 when any participating lane's predicate is true.
    Any,
    /// 1 when all participating lanes' predicates are true.
    All,
}

/// Warp shuffle kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShflKind {
    /// Source lane = `lane_id ^ operand`.
    Xor,
    /// Source lane = `lane_id + operand` (within the width group).
    Down,
}

/// Thread/block geometry values readable by a kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum SpecialReg {
    ThreadIdxX,
    ThreadIdxY,
    ThreadIdxZ,
    BlockIdxX,
    BlockIdxY,
    BlockIdxZ,
    BlockDimX,
    BlockDimY,
    BlockDimZ,
    GridDimX,
    GridDimY,
    GridDimZ,
}

/// How many threads participate in a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BarCount {
    /// All threads of the block (`__syncthreads()`).
    All,
    /// Exactly `n` threads (`bar.sync id, n`).
    Fixed(u32),
}

/// One IR instruction. Each executing thread interprets the stream with its
/// own program counter; branch targets are instruction indices.
///
/// Every operand is a plain scalar, so instructions are `Copy` — the
/// simulator pre-decodes kernels into flat instruction buffers by value.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // operand fields follow the uniform dst/src naming
pub enum Inst {
    /// `dst = value` (raw 64-bit bits).
    Imm { dst: Reg, value: u64 },
    /// `dst = src`.
    Mov { dst: Reg, src: Reg },
    /// `dst = a <op> b` under `ty`.
    Bin {
        op: BinIr,
        ty: ScalarTy,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    /// `dst = <op> a` under `ty`.
    Un {
        op: UnIr,
        ty: ScalarTy,
        dst: Reg,
        a: Reg,
    },
    /// `dst = (to)(from)src` — numeric conversion.
    Cast {
        dst: Reg,
        src: Reg,
        from: ScalarTy,
        to: ScalarTy,
    },
    /// Load `ty` from the address in `addr`.
    Ld { ty: ScalarTy, dst: Reg, addr: Reg },
    /// Store `ty` to the address in `addr`.
    St { ty: ScalarTy, addr: Reg, val: Reg },
    /// Atomic read-modify-write; `dst` receives the old value.
    Atom {
        op: AtomOp,
        ty: ScalarTy,
        dst: Reg,
        addr: Reg,
        val: Reg,
    },
    /// Warp shuffle: `dst = register `src` of the source lane`.
    Shfl {
        kind: ShflKind,
        dst: Reg,
        src: Reg,
        lane: Reg,
        width: Reg,
    },
    /// Warp vote over the executing group's predicate values.
    Vote { kind: VoteKind, dst: Reg, src: Reg },
    /// Named barrier with participation count.
    Bar { id: u32, count: BarCount },
    /// Read a geometry special register.
    Special { dst: Reg, reg: SpecialReg },
    /// Load the `index`-th kernel parameter.
    LdParam { dst: Reg, index: u32 },
    /// Materialize the base address of a shared-memory allocation.
    SharedAddr { dst: Reg, offset: u32 },
    /// Materialize the base address of a per-thread local allocation.
    LocalAddr { dst: Reg, offset: u32 },
    /// Conditional branch: if (`cond` == 0) == `if_zero`, jump to `target`.
    Bra {
        cond: Reg,
        if_zero: bool,
        target: usize,
    },
    /// Unconditional jump.
    Jmp { target: usize },
    /// Thread exit.
    Ret,
}

impl Inst {
    /// The destination register this instruction writes, if any.
    pub fn dst(&self) -> Option<Reg> {
        let mut inst = *self;
        inst.dst_mut().copied()
    }

    /// The destination register operand, if any.
    fn dst_mut(&mut self) -> Option<&mut Reg> {
        match self {
            Inst::Imm { dst, .. }
            | Inst::Mov { dst, .. }
            | Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Cast { dst, .. }
            | Inst::Ld { dst, .. }
            | Inst::Atom { dst, .. }
            | Inst::Shfl { dst, .. }
            | Inst::Vote { dst, .. }
            | Inst::Special { dst, .. }
            | Inst::LdParam { dst, .. }
            | Inst::SharedAddr { dst, .. }
            | Inst::LocalAddr { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Appends the source registers this instruction reads to `out`.
    pub fn srcs_into(&self, out: &mut Vec<Reg>) {
        match self {
            Inst::Mov { src, .. } => out.push(*src),
            Inst::Bin { a, b, .. } => {
                out.push(*a);
                out.push(*b);
            }
            Inst::Un { a, .. } => out.push(*a),
            Inst::Cast { src, .. } => out.push(*src),
            Inst::Ld { addr, .. } => out.push(*addr),
            Inst::St { addr, val, .. } => {
                out.push(*addr);
                out.push(*val);
            }
            Inst::Atom { addr, val, .. } => {
                out.push(*addr);
                out.push(*val);
            }
            Inst::Shfl {
                src, lane, width, ..
            } => {
                out.push(*src);
                out.push(*lane);
                out.push(*width);
            }
            Inst::Vote { src, .. } => out.push(*src),
            Inst::Bra { cond, .. } => out.push(*cond),
            _ => {}
        }
    }

    /// The instruction with every source register replaced by `f(reg)`.
    #[must_use]
    pub fn map_srcs(mut self, f: impl Fn(Reg) -> Reg) -> Inst {
        match &mut self {
            Inst::Mov { src, .. }
            | Inst::Cast { src, .. }
            | Inst::Vote { src, .. }
            | Inst::Un { a: src, .. }
            | Inst::Ld { addr: src, .. }
            | Inst::Bra { cond: src, .. } => *src = f(*src),
            Inst::Bin { a, b, .. }
            | Inst::Atom {
                addr: a, val: b, ..
            }
            | Inst::St {
                addr: a, val: b, ..
            } => {
                *a = f(*a);
                *b = f(*b);
            }
            Inst::Shfl {
                src, lane, width, ..
            } => {
                *src = f(*src);
                *lane = f(*lane);
                *width = f(*width);
            }
            Inst::Imm { .. }
            | Inst::Special { .. }
            | Inst::LdParam { .. }
            | Inst::SharedAddr { .. }
            | Inst::LocalAddr { .. }
            | Inst::Bar { .. }
            | Inst::Jmp { .. }
            | Inst::Ret => {}
        }
        self
    }

    /// The instruction with every register operand, destination and
    /// sources, replaced by `f(reg)`.
    #[must_use]
    pub fn map_regs(self, f: impl Fn(Reg) -> Reg) -> Inst {
        let mut inst = self.map_srcs(&f);
        if let Some(d) = inst.dst_mut() {
            *d = f(*d);
        }
        inst
    }

    /// The source registers this instruction reads.
    pub fn srcs(&self) -> Vec<Reg> {
        let mut v = Vec::with_capacity(3);
        self.srcs_into(&mut v);
        v
    }

    /// True for instructions that access global/local memory (the long-
    /// latency class in the simulator).
    pub fn is_memory(&self) -> bool {
        matches!(self, Inst::Ld { .. } | Inst::St { .. } | Inst::Atom { .. })
    }

    /// True for control-flow instructions.
    pub fn is_control(&self) -> bool {
        matches!(self, Inst::Bra { .. } | Inst::Jmp { .. } | Inst::Ret)
    }
}

/// Scalar type of a kernel parameter as seen at launch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamKind {
    /// An integer/float scalar passed by value (raw bits).
    Scalar(ScalarTy),
    /// A pointer parameter; bound to a buffer at launch.
    Pointer,
}

/// A compiled kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelIr {
    /// Kernel name (diagnostics only).
    pub name: String,
    /// The flat instruction stream.
    pub insts: Vec<Inst>,
    /// Number of virtual registers used.
    pub num_regs: u32,
    /// Parameter kinds, in declaration order.
    pub params: Vec<ParamKind>,
    /// Bytes of statically declared `__shared__` memory.
    pub shared_static_bytes: u32,
    /// True if the kernel declares an `extern __shared__` array (its size is
    /// supplied at launch).
    pub uses_dynamic_shared: bool,
    /// Offset of the `extern __shared__` region within the block's shared
    /// frame (== `shared_static_bytes` when present).
    pub dynamic_shared_offset: u32,
    /// Bytes of per-thread local memory for local arrays.
    pub local_bytes: u32,
    /// Registers demoted to local memory by the spill pass. Each use of one
    /// of these registers costs a local-memory access in the timing model.
    pub spilled_regs: Vec<Reg>,
    /// Cached register-pressure estimate (filled by lowering).
    pub pressure: u32,
}

impl KernelIr {
    /// The register-pressure estimate used as `NRegs` by the occupancy
    /// model: maximum simultaneously live virtual registers plus a small
    /// architectural overhead. The spill pass recomputes it with the spilled
    /// registers excluded.
    pub fn reg_pressure(&self) -> u32 {
        self.pressure
    }

    /// Total shared-memory bytes per block given a dynamic allocation.
    pub fn shared_bytes(&self, dynamic: u32) -> u32 {
        self.shared_static_bytes + if self.uses_dynamic_shared { dynamic } else { 0 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_addr_round_trips() {
        let a = MemAddr::global(17, 4096);
        assert_eq!(a.space(), Space::Global);
        assert_eq!(a.buffer(), 17);
        assert_eq!(a.offset(), 4096);

        let s = MemAddr::shared(128);
        assert_eq!(s.space(), Space::Shared);
        assert_eq!(s.offset(), 128);

        let l = MemAddr::local(8);
        assert_eq!(l.space(), Space::Local);
        assert_eq!(l.offset(), 8);
    }

    #[test]
    fn mem_addr_arithmetic_preserves_tag() {
        let a = MemAddr::shared(100).add_bytes(28);
        assert_eq!(a.space(), Space::Shared);
        assert_eq!(a.offset(), 128);

        let b = MemAddr::global(3, 100).add_bytes(-4);
        assert_eq!(b.buffer(), 3);
        assert_eq!(b.offset(), 96);
    }

    #[test]
    fn inst_dst_and_srcs() {
        let i = Inst::Bin {
            op: BinIr::Add,
            ty: ScalarTy::I32,
            dst: 5,
            a: 1,
            b: 2,
        };
        assert_eq!(i.dst(), Some(5));
        assert_eq!(i.srcs(), vec![1, 2]);

        let st = Inst::St {
            ty: ScalarTy::F32,
            addr: 3,
            val: 4,
        };
        assert_eq!(st.dst(), None);
        assert_eq!(st.srcs(), vec![3, 4]);
        assert!(st.is_memory());

        let ret = Inst::Ret;
        assert!(ret.is_control());
        assert!(ret.srcs().is_empty());
    }

    #[test]
    fn map_regs_and_map_srcs_map_their_operands() {
        let shfl = Inst::Shfl {
            kind: ShflKind::Down,
            dst: 1,
            src: 2,
            lane: 3,
            width: 4,
        };
        let atom = Inst::Atom {
            op: AtomOp::Add,
            ty: ScalarTy::U32,
            dst: 1,
            addr: 2,
            val: 3,
        };
        let ld = Inst::Ld {
            ty: ScalarTy::F32,
            dst: 1,
            addr: 2,
        };
        let st = Inst::St {
            ty: ScalarTy::F32,
            addr: 1,
            val: 2,
        };
        for inst in [shfl, atom, ld, st, Inst::Imm { dst: 5, value: 9 }] {
            let want: Vec<Reg> = inst.srcs().iter().map(|s| s + 10).collect();
            let mapped = inst.map_regs(|r| r + 10);
            assert_eq!(mapped.dst(), inst.dst().map(|d| d + 10), "{inst:?}");
            assert_eq!(mapped.srcs(), want, "{inst:?}");
            let srcs_only = inst.map_srcs(|r| r + 10);
            assert_eq!(srcs_only.dst(), inst.dst(), "{inst:?}");
            assert_eq!(srcs_only.srcs(), want, "{inst:?}");
        }
        let bar = Inst::Bar {
            id: 1,
            count: BarCount::All,
        };
        assert_eq!(bar.map_regs(|r| r + 10), bar);
    }

    #[test]
    fn scalar_ty_sizes() {
        assert_eq!(ScalarTy::F32.size_bytes(), 4);
        assert_eq!(ScalarTy::U64.size_bytes(), 8);
        assert!(ScalarTy::F64.is_float());
        assert!(!ScalarTy::I64.is_float());
    }
}
