//! GPU hardware configurations.
//!
//! Two presets mirror the paper's testbeds: [`GpuConfig::pascal_like`]
//! (GTX 1080Ti) and [`GpuConfig::volta_like`] (Tesla V100). Per-SM resource
//! limits match the real parts (64 K registers, 96 KiB shared memory, 2048
//! threads); the SM *count* is scaled down so that representative workloads
//! simulate in milliseconds — this uniformly scales both the native and the
//! fused executions, preserving the comparisons the paper makes.

use crate::error::SimError;
use crate::exec::WARP_SIZE;
use crate::timing::MAX_CYCLES;

/// Most scoreboard-checked registers of one instruction (three sources and
/// a destination), hence most spilled operands it can pay for.
const MAX_OPERANDS: u64 = 4;

/// Instruction latency classes, in cycles from issue to result-ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// Simple integer/float ALU (add, mul, compare, shift, ...).
    pub alu: u32,
    /// Integer divide / remainder (iterative on real hardware).
    pub div: u32,
    /// Special function unit: sqrt, rsqrt, exp, log.
    pub special: u32,
    /// Warp shuffle.
    pub shuffle: u32,
    /// Shared-memory load/store.
    pub shared_mem: u32,
    /// Shared-memory atomic (plus per-conflict serialization).
    pub shared_atomic: u32,
    /// Pipe-occupancy cycles per same-address conflict of a shared atomic
    /// (each colliding lane retries; pre-Volta float atomics are CAS loops).
    pub shared_atomic_retry: u32,
    /// Global-memory access (DRAM round trip; L1/L2 are not modeled
    /// separately — this is the average latency the warp scheduler hides).
    pub global_mem: u32,
    /// Global-memory atomic.
    pub global_atomic: u32,
    /// Local-memory access (register spills, local arrays) — backed by L1/L2
    /// on real parts, cheaper than DRAM but far dearer than a register.
    pub local_mem: u32,
    /// Extra latency per spilled-register operand of an instruction (spill
    /// reloads mostly hit L1).
    pub spill_access: u32,
    /// Extra cycles per additional memory transaction of an uncoalesced
    /// access.
    pub uncoalesced_extra: u32,
}

/// A GPU model: SM resources, scheduler shape, and the memory system.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Human-readable name used in reports.
    pub name: String,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Registers per SM (the paper's `SMNRegs`).
    pub regs_per_sm: u32,
    /// Shared memory per SM in bytes (the paper's `SMShMem`).
    pub shared_per_sm: u32,
    /// Maximum resident threads per SM (the paper's `SMNThreads`).
    pub max_threads_per_sm: u32,
    /// Maximum resident blocks per SM (hardware block slots).
    pub max_blocks_per_sm: u32,
    /// Warp schedulers per SM; each can issue one instruction per cycle.
    pub schedulers_per_sm: u32,
    /// Maximum in-flight global-memory transactions per SM (MSHR capacity).
    pub mshrs_per_sm: u32,
    /// Global-memory transactions the DRAM system accepts per cycle, across
    /// the whole GPU (bandwidth limit).
    pub dram_transactions_per_cycle: u32,
    /// Memory transaction granularity in bytes (coalescing segment size).
    pub segment_bytes: u32,
    /// Instruction latencies.
    pub latencies: Latencies,
}

impl GpuConfig {
    /// A Pascal-generation configuration in the spirit of the GTX 1080Ti.
    ///
    /// Per-SM limits are the real Pascal numbers; the SM count is scaled
    /// down (28 → 4, with DRAM bandwidth scaled proportionally) so that
    /// profile runs complete quickly.
    pub fn pascal_like() -> Self {
        GpuConfig {
            name: "1080Ti".to_owned(),
            num_sms: 4,
            regs_per_sm: 64 * 1024,
            shared_per_sm: 96 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            schedulers_per_sm: 4,
            mshrs_per_sm: 256,
            dram_transactions_per_cycle: 2,
            segment_bytes: 128,
            latencies: Latencies {
                alu: 9,
                div: 24,
                special: 16,
                shuffle: 8,
                shared_mem: 24,
                shared_atomic: 30,
                shared_atomic_retry: 4,
                global_mem: 440,
                global_atomic: 480,
                local_mem: 180,
                spill_access: 80,
                uncoalesced_extra: 8,
            },
        }
    }

    /// A Volta-generation configuration in the spirit of the Tesla V100.
    ///
    /// Relative to Pascal: more SMs (here 8 vs 4, mirroring 80 vs 28),
    /// proportionally more DRAM bandwidth (HBM2), lower ALU latency, and a
    /// lower average global-memory latency.
    pub fn volta_like() -> Self {
        GpuConfig {
            name: "V100".to_owned(),
            num_sms: 8,
            regs_per_sm: 64 * 1024,
            shared_per_sm: 96 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            schedulers_per_sm: 4,
            mshrs_per_sm: 384,
            dram_transactions_per_cycle: 6,
            segment_bytes: 128,
            latencies: Latencies {
                alu: 7,
                div: 20,
                special: 12,
                shuffle: 6,
                shared_mem: 20,
                shared_atomic: 24,
                shared_atomic_retry: 3,
                global_mem: 400,
                global_atomic: 440,
                local_mem: 150,
                spill_access: 60,
                uncoalesced_extra: 6,
            },
        }
    }

    /// A deliberately tiny configuration for unit tests (1 SM, shallow
    /// latencies) so tests run instantly and assertions are easy to reason
    /// about.
    pub fn test_tiny() -> Self {
        GpuConfig {
            name: "tiny".to_owned(),
            num_sms: 1,
            regs_per_sm: 64 * 1024,
            shared_per_sm: 96 * 1024,
            max_threads_per_sm: 2048,
            max_blocks_per_sm: 32,
            schedulers_per_sm: 4,
            mshrs_per_sm: 64,
            dram_transactions_per_cycle: 2,
            segment_bytes: 128,
            latencies: Latencies {
                alu: 2,
                div: 8,
                special: 6,
                shuffle: 3,
                shared_mem: 8,
                shared_atomic: 10,
                shared_atomic_retry: 2,
                global_mem: 60,
                global_atomic: 70,
                local_mem: 30,
                spill_access: 10,
                uncoalesced_extra: 4,
            },
        }
    }

    /// Maximum resident warps per SM.
    pub fn max_warps_per_sm(&self) -> u32 {
        self.max_threads_per_sm / 32
    }

    /// Checks that the configuration can be simulated: every count is
    /// positive (a zero scheduler count or segment size would divide by
    /// zero; zero SMs, MSHRs or DRAM bandwidth would stall until the
    /// deadlock detector fired), and the worst-case issue latency added to
    /// the engine's cycle ceiling stays below 2³¹, the range of the timing
    /// engine's packed scoreboard. `shared_per_sm` may be zero: kernels
    /// without shared memory still fit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let counts = [
            ("num_sms", self.num_sms),
            ("regs_per_sm", self.regs_per_sm),
            ("max_threads_per_sm", self.max_threads_per_sm),
            ("max_blocks_per_sm", self.max_blocks_per_sm),
            ("schedulers_per_sm", self.schedulers_per_sm),
            ("mshrs_per_sm", self.mshrs_per_sm),
            (
                "dram_transactions_per_cycle",
                self.dram_transactions_per_cycle,
            ),
            ("segment_bytes", self.segment_bytes),
        ];
        if let Some((field, _)) = counts.iter().find(|(_, v)| *v == 0) {
            return Err(SimError::new(format!(
                "GPU config `{}`: {field} must be positive",
                self.name
            )));
        }
        let worst = self.max_issue_latency();
        if MAX_CYCLES + worst >= 1 << 31 {
            return Err(SimError::new(format!(
                "GPU config `{}`: latencies too large (worst-case issue latency {worst} \
                 cycles past the {MAX_CYCLES}-cycle limit reaches 2^31)",
                self.name
            )));
        }
        Ok(())
    }

    /// An upper bound on the cycles from an instruction's issue to its
    /// result: the dearest latency class at its worst — every lane in its
    /// own segment or colliding on one address, queueing at most one more
    /// DRAM round trip (MSHRs full), every operand spilled.
    fn max_issue_latency(&self) -> u64 {
        let l = &self.latencies;
        let lanes = WARP_SIZE as u64 - 1;
        let base = [
            u64::from(l.alu),
            u64::from(l.div),
            u64::from(l.special),
            u64::from(l.shuffle),
            u64::from(l.shared_mem),
            u64::from(l.local_mem),
            u64::from(l.shared_atomic) + lanes * u64::from(l.shared_atomic_retry),
            2 * u64::from(l.global_mem) + lanes * u64::from(l.uncoalesced_extra),
            u64::from(l.global_atomic)
                + u64::from(l.global_mem)
                + 2 * lanes * u64::from(l.uncoalesced_extra),
        ];
        base.into_iter().max().unwrap_or(0) + MAX_OPERANDS * u64::from(l.spill_access)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_resources() {
        for cfg in [GpuConfig::pascal_like(), GpuConfig::volta_like()] {
            assert_eq!(
                cfg.regs_per_sm, 65536,
                "{}: paper says 64K registers",
                cfg.name
            );
            assert_eq!(
                cfg.shared_per_sm, 98304,
                "{}: paper says 96K shared",
                cfg.name
            );
            assert_eq!(
                cfg.max_threads_per_sm, 2048,
                "{}: paper says 2048 threads",
                cfg.name
            );
            assert_eq!(cfg.max_warps_per_sm(), 64);
        }
    }

    #[test]
    fn volta_has_more_parallelism_than_pascal() {
        let p = GpuConfig::pascal_like();
        let v = GpuConfig::volta_like();
        assert!(v.num_sms > p.num_sms);
        assert!(v.dram_transactions_per_cycle > p.dram_transactions_per_cycle);
        assert!(v.latencies.alu < p.latencies.alu);
    }

    /// Asserts that `validate` rejects the config `edit` makes, naming
    /// `field`.
    fn assert_rejects(edit: impl FnOnce(&mut GpuConfig), field: &str) {
        let mut cfg = GpuConfig::test_tiny();
        edit(&mut cfg);
        let err = cfg.validate().expect_err("invalid config accepted");
        assert!(err.message().contains(field), "{err}");
    }

    #[test]
    fn presets_validate() {
        for cfg in [
            GpuConfig::pascal_like(),
            GpuConfig::volta_like(),
            GpuConfig::test_tiny(),
        ] {
            cfg.validate().expect("preset is valid");
        }
    }

    #[test]
    fn zero_sms_rejected() {
        assert_rejects(|c| c.num_sms = 0, "num_sms");
    }

    #[test]
    fn zero_registers_rejected() {
        assert_rejects(|c| c.regs_per_sm = 0, "regs_per_sm");
    }

    #[test]
    fn zero_threads_rejected() {
        assert_rejects(|c| c.max_threads_per_sm = 0, "max_threads_per_sm");
    }

    #[test]
    fn zero_block_slots_rejected() {
        assert_rejects(|c| c.max_blocks_per_sm = 0, "max_blocks_per_sm");
    }

    #[test]
    fn zero_schedulers_rejected() {
        assert_rejects(|c| c.schedulers_per_sm = 0, "schedulers_per_sm");
    }

    #[test]
    fn zero_mshrs_rejected() {
        assert_rejects(|c| c.mshrs_per_sm = 0, "mshrs_per_sm");
    }

    #[test]
    fn zero_dram_bandwidth_rejected() {
        assert_rejects(
            |c| c.dram_transactions_per_cycle = 0,
            "dram_transactions_per_cycle",
        );
    }

    #[test]
    fn zero_segment_bytes_rejected() {
        assert_rejects(|c| c.segment_bytes = 0, "segment_bytes");
    }

    #[test]
    fn zero_shared_memory_is_allowed() {
        let mut cfg = GpuConfig::test_tiny();
        cfg.shared_per_sm = 0;
        cfg.validate().expect("kernels without shared memory fit");
    }

    #[test]
    fn each_latency_is_bounded() {
        // Every latency field alone can push the worst case past 2^31,
        // and a realistic value of each is accepted.
        type Field = fn(&mut Latencies) -> &mut u32;
        let fields: [(&str, Field); 12] = [
            ("alu", |l| &mut l.alu),
            ("div", |l| &mut l.div),
            ("special", |l| &mut l.special),
            ("shuffle", |l| &mut l.shuffle),
            ("shared_mem", |l| &mut l.shared_mem),
            ("shared_atomic", |l| &mut l.shared_atomic),
            ("shared_atomic_retry", |l| &mut l.shared_atomic_retry),
            ("global_mem", |l| &mut l.global_mem),
            ("global_atomic", |l| &mut l.global_atomic),
            ("local_mem", |l| &mut l.local_mem),
            ("spill_access", |l| &mut l.spill_access),
            ("uncoalesced_extra", |l| &mut l.uncoalesced_extra),
        ];
        let room = (1u64 << 31) - MAX_CYCLES;
        for (name, field) in fields {
            let mut cfg = GpuConfig::test_tiny();
            *field(&mut cfg.latencies) = room as u32;
            assert!(cfg.validate().is_err(), "{name} = {room} accepted");
            let mut cfg = GpuConfig::test_tiny();
            *field(&mut cfg.latencies) = 1000;
            cfg.validate()
                .unwrap_or_else(|e| panic!("{name} = 1000 rejected: {e}"));
        }
        assert_rejects(|c| c.latencies.global_mem = u32::MAX, "latencies");
    }

    #[test]
    fn memory_is_much_slower_than_alu() {
        let cfg = GpuConfig::pascal_like();
        assert!(cfg.latencies.global_mem > 30 * cfg.latencies.alu);
    }
}
