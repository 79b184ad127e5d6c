//! Launch-time pre-decoding of [`KernelIr`] into a flat instruction buffer.
//!
//! The interpreter's hot path used to re-derive per-issue facts — source
//! registers, the address register of memory instructions — from the
//! `Inst` enum on every issued group. [`DecodedKernel`] computes them once
//! per launch and stores them in one contiguous `Box<[DecodedInst]>`
//! indexed by PC, so the per-issue work is a single cache-friendly array
//! load.
//!
//! Decoding also renames every register operand to its storage slot
//! ([`thread_ir::liveness::storage_slots`]): virtual registers that are
//! never live at the same time share a slot, so a block's register file
//! holds [`DecodedKernel::num_slots`] rows per warp instead of one per
//! virtual register.

use thread_ir::ir::{Inst, KernelIr};
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
}

/// A kernel pre-decoded into a flat, cache-friendly instruction buffer,
/// built once per launch and shared by every block of that launch.
#[derive(Debug, Clone)]
pub struct DecodedKernel {
    /// Decoded instructions, indexed by PC.
    pub insts: Box<[DecodedInst]>,
    /// Register-file rows per warp: one per storage slot.
    pub num_slots: u32,
}

impl DecodedKernel {
    /// Pre-decodes `kernel`.
    pub fn decode(kernel: &KernelIr) -> Self {
        let slots = storage_slots(kernel);
        let slot = |r: u32| slots.slot[r as usize];
        let insts = kernel
            .insts
            .iter()
            .map(|inst| {
                let addr_reg = match inst {
                    Inst::Ld { addr, .. } | Inst::St { addr, .. } | Inst::Atom { addr, .. } => {
                        slot(*addr)
                    }
                    _ => NO_REG,
                };
                DecodedInst {
                    inst: inst.map_regs(slot),
                    addr_reg,
                }
            })
            .collect();
        DecodedKernel {
            insts,
            num_slots: slots.num_slots,
        }
    }

    /// Compat shim for perfbench's `workload.rs`, flags ignored; goes in the next benchmark change.
    pub fn new(kernel: &KernelIr, _uniform_exec: bool, _vector_exec: bool) -> Self {
        Self::decode(kernel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thread_ir::ir::{BinIr, ParamKind, ScalarTy, SpecialReg};

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
    fn decode_extracts_addr_reg_and_renames_to_slots() {
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
        let d = DecodedKernel::decode(&k);
        assert_eq!(d.insts.len(), 5);
        assert_eq!(d.insts[0].addr_reg, NO_REG);
        // Registers 1, 2 and 4 are read before any write, so they interfere
        // pairwise and with 0, defined while they are live: register 4
        // takes the fourth slot, and the load's operand is renamed to it.
        assert_eq!(d.insts[1].addr_reg, storage_slots(&k).slot[4]);
        assert_eq!(d.insts[1].addr_reg, 3);
        assert!(matches!(d.insts[1].inst, Inst::Ld { addr: 3, .. }));
        assert_eq!(d.num_slots, 4);
        assert!(d.insts[2..].iter().all(|i| i.addr_reg == NO_REG));
    }
}
