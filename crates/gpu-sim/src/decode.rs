//! Launch-time pre-decoding of [`KernelIr`] into a flat instruction buffer.
//!
//! The interpreter's hot path used to re-derive per-issue facts — source
//! registers, the address register of memory instructions, whether an
//! instruction is a candidate for uniform execution — from the `Inst` enum
//! on every issued group. [`DecodedKernel`] computes them once per launch
//! and stores them in one contiguous `Box<[DecodedInst]>` indexed by PC, so
//! the per-issue work is a single cache-friendly array load.
//!
//! Decoding also renames every register operand to its storage slot
//! ([`thread_ir::liveness::storage_slots`]): virtual registers that are
//! never live at the same time share a slot, so a block's register file
//! holds [`DecodedKernel::num_slots`] rows per warp instead of one per
//! virtual register.

use thread_ir::ir::{Inst, KernelIr, SpecialReg};
use thread_ir::liveness::storage_slots;

/// Marker for "this instruction has no address register".
pub const NO_REG: u32 = u32::MAX;

/// One pre-decoded instruction: the instruction itself (copied inline,
/// registers renamed to storage slots) plus issue metadata derived once at
/// launch time.
#[derive(Debug, Clone, Copy)]
pub struct DecodedInst {
    /// The instruction, every register operand renamed to its storage slot
    /// (all operands inline; `Inst` is `Copy`).
    pub inst: Inst,
    /// Storage slot holding the memory address for `Ld`/`St`/`Atom`
    /// ([`NO_REG`] for non-memory instructions).
    pub addr_reg: u32,
    /// Whether the warp-uniform fast path may apply: the result is a pure
    /// function of the source-register values (or of block-uniform
    /// geometry), so when every active lane reads identical operands the
    /// instruction can be evaluated once and broadcast to the group.
    pub uniform_eligible: bool,
    /// Whether static uniformity dataflow proved every source register
    /// warp-uniform here (and the enclosing control flow uniform), so the
    /// fast path may broadcast without the per-operand runtime comparison.
    /// Implies `uniform_eligible`.
    pub statically_uniform: bool,
}

/// A kernel pre-decoded into a flat, cache-friendly instruction buffer,
/// built once per launch and shared by every block of that launch.
#[derive(Debug, Clone)]
pub struct DecodedKernel {
    /// Decoded instructions, indexed by PC.
    pub insts: Box<[DecodedInst]>,
    /// Register-file rows per warp: one per storage slot.
    pub num_slots: u32,
    /// Whether register-pure instructions run on the lane-vectorized
    /// interpreter (branch-free masked loops over the SoA lane rows) or on
    /// the scalar per-lane reference path. Both are bit-identical; the
    /// scalar path exists as the `HFUSE_SIM_NO_VECTOR` escape hatch.
    pub vector: bool,
}

/// True for special registers whose value is identical for every thread of
/// a block (block geometry and this block's own index).
fn block_uniform_special(reg: SpecialReg) -> bool {
    matches!(
        reg,
        SpecialReg::BlockIdxX
            | SpecialReg::BlockIdxY
            | SpecialReg::BlockIdxZ
            | SpecialReg::BlockDimX
            | SpecialReg::BlockDimY
            | SpecialReg::BlockDimZ
            | SpecialReg::GridDimX
            | SpecialReg::GridDimY
            | SpecialReg::GridDimZ
    )
}

impl DecodedKernel {
    /// Pre-decodes `kernel`. When `uniform_exec` is false every
    /// `uniform_eligible` flag is cleared, which disables the fast path
    /// without touching the interpreter; when `vector_exec` is false the
    /// interpreter runs its scalar per-lane reference loops instead of the
    /// lane-vectorized ones (both are escape hatches for differential
    /// testing).
    pub fn new(kernel: &KernelIr, uniform_exec: bool, vector_exec: bool) -> Self {
        // One pass of interprocedural-free dataflow per launch; proves for
        // each PC whether all operands (and the control flow reaching it)
        // are uniform across the block, letting the fast path skip its
        // per-operand runtime comparison on those instructions.
        let static_uniform = if uniform_exec {
            hfuse_analysis::ir_uniform::uniform_insts(kernel)
        } else {
            vec![false; kernel.insts.len()]
        };
        let slots = storage_slots(kernel);
        let slot = |r: u32| slots.slot[r as usize];
        let insts = kernel
            .insts
            .iter()
            .zip(&static_uniform)
            .map(|(inst, &stat_u)| {
                let addr_reg = match inst {
                    Inst::Ld { addr, .. } | Inst::St { addr, .. } | Inst::Atom { addr, .. } => {
                        slot(*addr)
                    }
                    _ => NO_REG,
                };
                // Register-pure ALU forms broadcast when their operands are
                // lane-uniform; `Special` reads of block geometry are
                // uniform by construction. Everything else (memory, control
                // flow, shuffles, votes, barriers) either has side effects
                // per lane or per-lane semantics and always runs scalar.
                let uniform_eligible = uniform_exec
                    && match inst {
                        Inst::Mov { .. }
                        | Inst::Bin { .. }
                        | Inst::Un { .. }
                        | Inst::Cast { .. } => true,
                        Inst::Special { reg, .. } => block_uniform_special(*reg),
                        _ => false,
                    };
                DecodedInst {
                    inst: inst.map_regs(slot),
                    addr_reg,
                    uniform_eligible,
                    statically_uniform: uniform_eligible && stat_u,
                }
            })
            .collect();
        DecodedKernel {
            insts,
            num_slots: slots.num_slots,
            vector: vector_exec,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thread_ir::ir::{BinIr, ParamKind, ScalarTy};

    fn mk_kernel(insts: Vec<Inst>) -> KernelIr {
        KernelIr {
            name: "t".into(),
            insts,
            num_regs: 8,
            params: vec![ParamKind::Pointer],
            shared_static_bytes: 0,
            uses_dynamic_shared: false,
            dynamic_shared_offset: 0,
            local_bytes: 0,
            spilled_regs: Vec::new(),
            pressure: 8,
        }
    }

    #[test]
    fn decode_extracts_addr_reg_and_uniform_flags() {
        let k = mk_kernel(vec![
            Inst::Bin {
                op: BinIr::Add,
                ty: ScalarTy::I32,
                dst: 0,
                a: 1,
                b: 2,
            },
            Inst::Ld {
                ty: ScalarTy::F32,
                dst: 3,
                addr: 4,
            },
            Inst::Special {
                dst: 5,
                reg: SpecialReg::ThreadIdxX,
            },
            Inst::Special {
                dst: 5,
                reg: SpecialReg::BlockIdxX,
            },
            Inst::Ret,
        ]);
        let d = DecodedKernel::new(&k, true, true);
        assert_eq!(d.insts.len(), 5);
        assert!(d.insts[0].uniform_eligible);
        assert_eq!(d.insts[0].addr_reg, NO_REG);
        assert!(!d.insts[1].uniform_eligible, "loads never broadcast");
        // Registers 1, 2 and 4 are read before any write, so they interfere
        // pairwise and with 0, defined while they are live: register 4
        // takes the fourth slot, and the load's operand is renamed to it.
        assert_eq!(d.insts[1].addr_reg, storage_slots(&k).slot[4]);
        assert_eq!(d.insts[1].addr_reg, 3);
        assert!(matches!(d.insts[1].inst, Inst::Ld { addr: 3, .. }));
        assert_eq!(d.num_slots, 4);
        assert!(!d.insts[2].uniform_eligible, "threadIdx is per-lane");
        assert!(d.insts[3].uniform_eligible, "blockIdx is block-uniform");
        assert!(!d.insts[4].uniform_eligible);
    }

    #[test]
    fn decode_with_uniform_disabled_clears_all_flags() {
        let k = mk_kernel(vec![
            Inst::Mov { dst: 0, src: 1 },
            Inst::Special {
                dst: 2,
                reg: SpecialReg::GridDimX,
            },
        ]);
        let d = DecodedKernel::new(&k, false, true);
        assert!(d.insts.iter().all(|i| !i.uniform_eligible));
        assert!(d.insts.iter().all(|i| !i.statically_uniform));
    }

    #[test]
    fn static_uniformity_proves_param_chains_but_not_tid_chains() {
        let k = mk_kernel(vec![
            Inst::LdParam { dst: 0, index: 0 },
            Inst::Special {
                dst: 1,
                reg: SpecialReg::ThreadIdxX,
            },
            // Pure function of a parameter: proven uniform statically.
            Inst::Bin {
                op: BinIr::Add,
                ty: ScalarTy::I32,
                dst: 2,
                a: 0,
                b: 0,
            },
            // Mixes in threadIdx: eligible for the runtime check but not
            // statically proven.
            Inst::Bin {
                op: BinIr::Add,
                ty: ScalarTy::I32,
                dst: 3,
                a: 0,
                b: 1,
            },
            Inst::Ret,
        ]);
        let d = DecodedKernel::new(&k, true, true);
        assert!(d.insts[2].statically_uniform, "param+param is uniform");
        assert!(d.insts[3].uniform_eligible);
        assert!(!d.insts[3].statically_uniform, "param+tid is per-lane");
    }
}
