//! An admissible lower bound on a launch's simulated cycles, computed by a
//! functional pass before the timing engine runs.
//! [`Gpu::run_with_budget`](crate::Gpu::run_with_budget) uses it to reject
//! a search candidate that provably cannot finish within its budget
//! without simulating it; the bound only ever prunes, it never picks.
//!
//! # The bound
//!
//! For each block `b`, `CP_b` is the dependency critical path of its warps:
//! each warp's groups are replayed in their exact dynamic order (the order
//! the functional interpreter issues them), and a group issues at the
//! earliest cycle that
//!
//! - is after the warp's previous issue (one issue per warp per cycle),
//! - has every operand ready, a result being ready the issue's latency
//!   after it (the latencies the engine charges, without its queueing
//!   penalty), and
//! - for the first issue after a barrier, is no earlier than the latest
//!   arrival of that barrier instance.
//!
//! `CP_b` is the last issue plus one. The bound is
//! `max(max_b CP_b, ⌈Σ_b CP_b / (num_sms × blocks_per_sm)⌉)`, with
//! `blocks_per_sm` the most blocks of the launch an SM holds at once.
//!
//! # Admissibility
//!
//! The engine dispatches block `b` at some cycle `d_b` and retires it in
//! the cycle of its last issue. Every constraint above holds in the engine
//! too, where latencies are at least as long and memory pipes, MSHRs, DRAM
//! tokens and the schedulers can only delay an issue further; so by
//! induction over a warp's groups each engine issue happens at least
//! `d_b` plus its issue cycle here, and the block stays resident for at
//! least `CP_b` cycles. Hence the run lasts at least `max_b CP_b`, and
//! since at most `num_sms × blocks_per_sm` blocks are resident in any
//! cycle, at least `Σ_b CP_b / (num_sms × blocks_per_sm)`.
//!
//! That induction needs each warp to issue the same groups here as in the
//! engine, which holds when no value a warp reads depends on the schedule.
//! The gate establishes it for global memory and atomics:
//!
//! - no atomic's destination register is ever read;
//! - by pointer provenance over the IR (an address derives from the
//!   pointer parameters and on-chip bases it is computed from), no global
//!   load may read a launch buffer that a global store or atomic may
//!   write; an address with no provenance turns the bound off.
//!
//! Shared memory is assumed race-free, the assumption
//! [`Gpu::run`](crate::Gpu::run) already makes when it promises memory
//! effects identical to [`Gpu::run_functional`](crate::Gpu::run_functional).
//! The pass checks the rest as it goes and gives no bound when a warp
//! reaches a barrier with only part of its live lanes, or a barrier id
//! releases a different set of warps than its first instance did.
//!
//! # Cost
//!
//! Blocks go in index order and the pass exits as soon as the bound passes
//! the caller's limit, so the value it returns is deterministic and
//! monotone in the limit: with any limit from the budget up to the
//! returned value minus one, the pass stops at the same point with the
//! same value. Block 0 runs all of its warps. Every later block runs only
//! the barrier-closed warp group of block 0's slowest warp — the warps
//! that share a barrier id with it, transitively: one member of a fused
//! kernel, or a single warp when there are no barriers. The critical path
//! of a subset of the warps is still a lower bound. A block falls back to
//! all of its warps when the group stalls or meets a barrier id block 0's
//! group never used.

use thread_ir::ir::{Inst, KernelIr};

use crate::config::GpuConfig;
use crate::exec::{BlockExec, WarpPeek};
use crate::launch::{Launch, ParamValue};
use crate::memory::GpuMemory;
use crate::timing::{issue_latency, warps_for_threads, LaunchCtx, MAX_CYCLES};

/// Provenance bit of an on-chip (shared or local) base address.
const ON_CHIP: u64 = 1 << 63;

/// Barrier-id sentinel: the warp is not parked.
const NOT_PARKED: u8 = u8::MAX;

/// The bound of `launch` on `cfg` over a copy of `memory`: `None` when the
/// kernel fails the gate, the pass faults or deadlocks, or the bound passes
/// the engine's cycle ceiling. When the running bound passes `limit` the
/// pass stops and returns it (a value above `limit`); otherwise the value
/// is the full bound.
pub(crate) fn lower_bound(
    cfg: &GpuConfig,
    launch: &Launch,
    memory: &GpuMemory,
    limit: u64,
) -> Option<u64> {
    if !gate_passes(&launch.kernel, &launch.args) {
        return None;
    }
    let ctx = LaunchCtx::new(launch);
    match replay(cfg, launch, &ctx, memory, limit) {
        Ok(bound) => Some(bound),
        Err(Halt::Exceeded(v)) => Some(v),
        Err(Halt::Fallback | Halt::Off) => None,
    }
}

/// Replays the blocks of `launch` in index order and returns the full
/// bound, unless the pass halts first.
fn replay(
    cfg: &GpuConfig,
    launch: &Launch,
    ctx: &LaunchCtx,
    memory: &GpuMemory,
    limit: u64,
) -> Result<u64, Halt> {
    let slots = u64::from(cfg.num_sms) * u64::from(ctx.max_resident(cfg).max(1));
    let mut pass = Pass::new(cfg, launch, ctx, memory.clone());
    let all: Vec<usize> = (0..pass.next.len()).collect();
    let mut group: Option<(Vec<usize>, u16)> = None;
    let (mut max_cp, mut sum_cp, mut bound) = (0u64, 0u64, 0u64);
    for b in 0..launch.grid_dim {
        let cp = match &group {
            Some((warps, ids)) => match pass.block(b, warps, Some(*ids), bound, limit) {
                Err(Halt::Fallback) => pass.block(b, &all, None, bound, limit)?,
                cp => cp?,
            },
            None => {
                let cp = pass.block(b, &all, None, bound, limit)?;
                group = Some(pass.slowest_group());
                cp
            }
        };
        max_cp = max_cp.max(cp);
        sum_cp += cp;
        bound = max_cp.max(sum_cp.div_ceil(slots));
        crossed(bound, limit)?;
    }
    Ok(bound)
}

/// Stops the pass once the running bound `value` passes `limit`, with the
/// value; or, when `value` passes the engine's cycle ceiling first, with no
/// bound, so that the engine runs and reports its cycle-limit error.
fn crossed(value: u64, limit: u64) -> Result<(), Halt> {
    if value <= limit.min(MAX_CYCLES) {
        Ok(())
    } else if limit < MAX_CYCLES {
        Err(Halt::Exceeded(value))
    } else {
        Err(Halt::Off)
    }
}

/// Whether the bound's per-warp replay is schedule-independent for
/// `kernel` launched with `args`: no atomic result is read, every memory
/// address has a provenance, and no buffer a global load may read is one
/// a global store or atomic may write (two arguments naming one buffer
/// count as one).
pub(crate) fn gate_passes(kernel: &KernelIr, args: &[ParamValue]) -> bool {
    let mut srcs = Vec::new();
    let mut read = vec![false; kernel.num_regs as usize];
    for inst in &kernel.insts {
        srcs.clear();
        inst.srcs_into(&mut srcs);
        for &r in &srcs {
            read[r as usize] = true;
        }
    }
    let atomic_result_read = kernel
        .insts
        .iter()
        .any(|i| matches!(i, Inst::Atom { dst, .. } if read[*dst as usize]));
    if atomic_result_read {
        return false;
    }

    // One provenance bit per distinct argument buffer, bit 63 for on-chip
    // bases.
    let mut buffers = Vec::new();
    let slots: Vec<Option<usize>> = args
        .iter()
        .map(|a| match a {
            ParamValue::Ptr(b) => Some(buffers.iter().position(|x| x == b).unwrap_or_else(|| {
                buffers.push(*b);
                buffers.len() - 1
            })),
            _ => None,
        })
        .collect();
    if buffers.len() > 63 {
        return false;
    }
    let param_bits: Vec<u64> = slots.iter().map(|s| s.map_or(0, |i| 1 << i)).collect();

    // Flow-insensitive provenance: a register's bits are the union over
    // its definitions of the bits of the values they compute from.
    let mut prov = vec![0u64; kernel.num_regs as usize];
    loop {
        let mut changed = false;
        for inst in &kernel.insts {
            let Some(d) = inst.dst() else { continue };
            let bits = match *inst {
                Inst::LdParam { index, .. } => param_bits.get(index as usize).copied().unwrap_or(0),
                Inst::SharedAddr { .. } | Inst::LocalAddr { .. } => ON_CHIP,
                // Loaded data, atomic results, votes, immediates and
                // geometry carry no provenance of their own.
                Inst::Ld { .. }
                | Inst::Atom { .. }
                | Inst::Vote { .. }
                | Inst::Imm { .. }
                | Inst::Special { .. } => 0,
                _ => {
                    srcs.clear();
                    inst.srcs_into(&mut srcs);
                    srcs.iter().fold(0, |acc, &r| acc | prov[r as usize])
                }
            };
            let new = prov[d as usize] | bits;
            changed |= new != prov[d as usize];
            prov[d as usize] = new;
        }
        if !changed {
            break;
        }
    }

    let (mut loaded, mut written) = (0u64, 0u64);
    for inst in &kernel.insts {
        let (addr, acc) = match *inst {
            Inst::Ld { addr, .. } => (addr, &mut loaded),
            Inst::St { addr, .. } | Inst::Atom { addr, .. } => (addr, &mut written),
            _ => continue,
        };
        let bits = prov[addr as usize];
        if bits == 0 {
            return false;
        }
        *acc |= bits & !ON_CHIP;
    }
    loaded & written == 0
}

/// Why a block's pass stopped early.
enum Halt {
    /// The running bound passed the limit; this is its value.
    Exceeded(u64),
    /// The warp group cannot finish the block alone: rerun it whole.
    Fallback,
    /// No bound: a fault, a deadlock, a partial-warp barrier arrival, a
    /// barrier whose instances release different warps, or a bound past
    /// the engine's cycle ceiling.
    Off,
}

/// The critical-path replay state of one block.
struct Pass<'a> {
    cfg: &'a GpuConfig,
    launch: &'a Launch,
    ctx: &'a LaunchCtx,
    memory: GpuMemory,
    /// Virtual registers per warp.
    regs: usize,
    /// `[warp][register]`: the cycle the register's pending value is ready.
    ready: Vec<u64>,
    /// Per warp: the earliest cycle of its next issue.
    next: Vec<u64>,
    /// Per warp: the barrier id it is parked at, or [`NOT_PARKED`].
    parked: Vec<u8>,
    /// Per warp: the barrier ids it arrived at (groups block 0's warps).
    bars: Vec<u16>,
    /// Per barrier id: the latest arrival of its open instance.
    arrival: [u64; 16],
    /// Per barrier id: the warps its first instance released (0 = none yet).
    released: [u32; 16],
}

impl<'a> Pass<'a> {
    fn new(cfg: &'a GpuConfig, launch: &'a Launch, ctx: &'a LaunchCtx, memory: GpuMemory) -> Self {
        let warps = warps_for_threads(launch.threads_per_block()) as usize;
        let regs = launch.kernel.num_regs as usize;
        Pass {
            cfg,
            launch,
            ctx,
            memory,
            regs,
            ready: vec![0; warps * regs],
            next: vec![0; warps],
            parked: vec![NOT_PARKED; warps],
            bars: vec![0; warps],
            arrival: [0; 16],
            released: [0; 16],
        }
    }

    /// Replays block `b` with only `warps` running and returns its critical
    /// path. `ids` is the barrier ids the warps may meet (`None` when they
    /// are the whole block); `committed` is the bound of the blocks before.
    fn block(
        &mut self,
        b: u32,
        warps: &[usize],
        ids: Option<u16>,
        committed: u64,
        limit: u64,
    ) -> Result<u64, Halt> {
        self.ready.fill(0);
        self.next.fill(0);
        self.parked.fill(NOT_PARKED);
        self.bars.fill(0);
        self.arrival = [0; 16];
        self.released = [0; 16];
        let mut blk = BlockExec::new(self.launch, &self.ctx.prog, 0, b);
        let mut cp = 0u64;
        let done = blk.run_warps(warps, |blk, w, pc, mask| {
            let t = self.issue(blk, w, pc, mask, ids)?;
            cp = cp.max(t + 1);
            crossed(committed.max(cp), limit)
        })?;
        match (done, ids) {
            (true, _) => Ok(cp),
            (false, Some(_)) => Err(Halt::Fallback),
            (false, None) => Err(Halt::Off),
        }
    }

    /// Issues the group `(pc, mask)` of warp `w` and returns its cycle.
    fn issue(
        &mut self,
        blk: &mut BlockExec,
        w: usize,
        pc: usize,
        mask: u32,
        ids: Option<u16>,
    ) -> Result<u64, Halt> {
        let ready = &mut self.ready[w * self.regs..(w + 1) * self.regs];
        let t = self
            .ctx
            .operands(pc)
            .iter()
            .fold(self.next[w], |t, &r| t.max(ready[r as usize]));
        let bar = match self.launch.kernel.insts[pc] {
            Inst::Bar { id, .. } => {
                if ids.is_some_and(|ids| ids & (1 << id) == 0) {
                    return Err(Halt::Fallback);
                }
                if mask != blk.live_lanes(w) {
                    return Err(Halt::Off);
                }
                Some(id as usize)
            }
            _ => None,
        };
        let out = blk
            .exec_group(
                self.launch,
                &self.ctx.prog,
                &mut self.memory,
                w,
                pc,
                mask,
                self.cfg.segment_bytes,
                None,
            )
            .map_err(|_| Halt::Off)?;
        if let Some(d) = self.ctx.dst(pc) {
            let lat = issue_latency(&self.cfg.latencies, out, self.ctx.spills(pc));
            ready[d as usize] = t + u64::from(lat);
        }
        self.next[w] = t + 1;
        if let Some(id) = bar {
            self.arrival[id] = self.arrival[id].max(t);
            self.bars[w] |= 1 << id;
            self.parked[w] = id as u8;
            if blk.peek_warp(w) != WarpPeek::Blocked {
                // This arrival released the instance: every warp parked on
                // it resumes no earlier than its latest arrival.
                let mut set = 0u32;
                for (v, p) in self.parked.iter_mut().enumerate() {
                    if usize::from(*p) == id {
                        *p = NOT_PARKED;
                        self.next[v] = self.next[v].max(self.arrival[id]);
                        set |= 1 << v;
                    }
                }
                match self.released[id] {
                    0 => self.released[id] = set,
                    first if first != set => return Err(Halt::Off),
                    _ => {}
                }
                self.arrival[id] = 0;
            }
        }
        Ok(t)
    }

    /// The barrier-closed warp group of the slowest warp of the block just
    /// replayed, and the barrier ids its warps use.
    fn slowest_group(&self) -> (Vec<usize>, u16) {
        let slowest = (0..self.next.len())
            .max_by_key(|&w| (self.next[w], std::cmp::Reverse(w)))
            .unwrap_or(0);
        let mut ids = self.bars[slowest];
        let mut members = vec![false; self.next.len()];
        members[slowest] = true;
        loop {
            let mut grew = false;
            for (w, &bars) in self.bars.iter().enumerate() {
                if !members[w] && bars & ids != 0 {
                    members[w] = true;
                    ids |= bars;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        let warps = (0..members.len()).filter(|&w| members[w]).collect();
        (warps, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BudgetedRun;
    use crate::Gpu;
    use cuda_frontend::parse_kernel;
    use thread_ir::lower_kernel;

    fn compile(src: &str) -> KernelIr {
        lower_kernel(&parse_kernel(src).expect("parse")).expect("lower")
    }

    /// What the engine alone returns for `launch` at `budget`.
    fn engine(gpu: &Gpu, launch: &Launch, budget: u64) -> BudgetedRun {
        gpu.clone()
            .run_impl(
                std::slice::from_ref(launch),
                crate::env::sim_no_skip(),
                budget,
            )
            .expect("engine run")
    }

    fn budgeted(gpu: &Gpu, launch: &Launch, budget: u64) -> BudgetedRun {
        gpu.clone()
            .run_with_budget(std::slice::from_ref(launch), budget)
            .expect("budgeted run")
    }

    /// 16 blocks of two warps on `test_tiny`, each warp a chain of 24
    /// dependent coalesced loads from a read-only table: latency-bound, so
    /// the bound comes close to the true cycles.
    fn chain(gpu: &mut Gpu) -> Launch {
        let ir = compile(
            "__global__ void k(const unsigned int* table, unsigned int* out) {\
               unsigned int x = blockIdx.x;\
               for (unsigned int i = 0u; i < 24u; i++) {\
                 x = table[((x + i) % 8u) * 32u + threadIdx.x % 32u];\
               }\
               out[blockIdx.x * blockDim.x + threadIdx.x] = x;\
             }",
        );
        let table: Vec<u32> = (0..256).map(|j| (j / 32 * 5 + 3) % 8).collect();
        let table = gpu.memory_mut().alloc_from_u32(&table);
        let out = gpu.memory_mut().alloc_u32(16 * 64);
        Launch::new(ir, 16, (64, 1, 1))
            .arg(ParamValue::Ptr(table))
            .arg(ParamValue::Ptr(out))
    }

    #[test]
    fn budget_sweep_is_monotone_across_bound_and_engine_aborts() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = chain(&mut gpu);
        let BudgetedRun::Completed(full) = engine(&gpu, &launch, u64::MAX) else {
            unreachable!("unbudgeted run cannot abort")
        };
        let total = full.total_cycles;
        let lb = gpu
            .cycle_lower_bound(std::slice::from_ref(&launch))
            .expect("valid launch")
            .expect("the kernel passes the gate");
        assert!(total / 2 < lb && lb <= total, "bound {lb}, true {total}");

        let (mut prev, mut by_bound, mut by_engine) = (0, 0, 0);
        for budget in (0..total).step_by((total / 97) as usize) {
            let run = budgeted(&gpu, &launch, budget);
            let BudgetedRun::Aborted { cycles_so_far: at } = run else {
                panic!("budget {budget} below the true {total} cycles completed")
            };
            assert!(budget < at && at <= total, "budget {budget}: abort at {at}");
            assert!(at >= prev, "budget {budget}: abort at {at} after {prev}");
            prev = at;
            // A budget one below the abort value reproduces it, whichever
            // side aborted.
            assert_eq!(budgeted(&gpu, &launch, at - 1), run);
            if budget < lb {
                // Not simulated: the value is the bound's, at most the full
                // bound.
                by_bound += 1;
                assert!(at <= lb);
            } else {
                by_engine += 1;
                assert_eq!(run, engine(&gpu, &launch, budget));
            }
        }
        assert!(
            by_bound > 10 && by_engine > 10,
            "{by_bound} bound / {by_engine} engine aborts"
        );
        assert_eq!(budgeted(&gpu, &launch, total), BudgetedRun::Completed(full));
    }

    /// Asserts the bound is off for `launch` and `run_with_budget` returns
    /// exactly what the engine does at every budget of a sweep.
    fn assert_engine_only(what: &str, gpu: &Gpu, launch: &Launch) {
        assert_eq!(
            gpu.cycle_lower_bound(std::slice::from_ref(launch)),
            Ok(None),
            "{what}: the gate should fail"
        );
        let BudgetedRun::Completed(full) = engine(gpu, launch, u64::MAX) else {
            unreachable!("unbudgeted run cannot abort")
        };
        let total = full.total_cycles;
        for budget in [0, 1, total / 4, total / 2, total - 1, total, u64::MAX - 1] {
            assert_eq!(
                budgeted(gpu, launch, budget),
                engine(gpu, launch, budget),
                "{what}: budget {budget}"
            );
        }
    }

    #[test]
    fn kernels_failing_the_gate_run_the_engine_unchanged() {
        // An atomic's result bounds a loop: how long a thread runs depends
        // on the order the atomics land in.
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let ir = compile(
            "__global__ void k(unsigned int* ctr, unsigned int* out) {\
               unsigned int n = atomicAdd(&ctr[0], 1u);\
               unsigned int x = threadIdx.x;\
               for (unsigned int i = 0u; i < n % 64u; i++) { x = x * 3u + 1u; }\
               out[blockIdx.x * blockDim.x + threadIdx.x] = x;\
             }",
        );
        let ctr = gpu.memory_mut().alloc_u32(1);
        let out = gpu.memory_mut().alloc_u32(8 * 64);
        let launch = Launch::new(ir, 8, (64, 1, 1))
            .arg(ParamValue::Ptr(ctr))
            .arg(ParamValue::Ptr(out));
        assert_engine_only("atomic loop bound", &gpu, &launch);

        // In place: the loads read the buffer the stores write.
        let ir = compile(
            "__global__ void k(float* x, int n) {\
               for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n; i += 256) {\
                 x[i] = x[i] * 2.0f + 1.0f;\
               }\
             }",
        );
        let x = gpu.memory_mut().alloc_f32(1024);
        let launch = Launch::new(ir, 4, (64, 1, 1))
            .arg(ParamValue::Ptr(x))
            .arg(ParamValue::I32(1024));
        assert_engine_only("in place", &gpu, &launch);

        // Aliased: two parameters name one buffer.
        let ir = compile(
            "__global__ void k(const float* in, float* out, int n) {\
               for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n; i += 256) {\
                 out[i] = in[(i + 1) % n] * 2.0f;\
               }\
             }",
        );
        let launch = Launch::new(ir, 4, (64, 1, 1))
            .arg(ParamValue::Ptr(x))
            .arg(ParamValue::Ptr(x))
            .arg(ParamValue::I32(1024));
        assert_engine_only("aliased", &gpu, &launch);

        // The same kernel over two buffers passes the gate.
        let y = gpu.memory_mut().alloc_f32(1024);
        let mut distinct = launch.clone();
        distinct.args[1] = ParamValue::Ptr(y);
        let lb = gpu
            .cycle_lower_bound(&[distinct.clone()])
            .expect("valid launch");
        let BudgetedRun::Completed(full) = engine(&gpu, &distinct, u64::MAX) else {
            unreachable!("unbudgeted run cannot abort")
        };
        assert!(lb.is_some_and(|lb| lb <= full.total_cycles), "{lb:?}");
    }

    #[test]
    fn the_bound_leaves_device_memory_untouched() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let launch = chain(&mut gpu);
        let out = match launch.args[1] {
            ParamValue::Ptr(b) => b,
            _ => unreachable!("the second argument is the output"),
        };
        let BudgetedRun::Aborted { cycles_so_far } = gpu
            .run_with_budget(std::slice::from_ref(&launch), 1)
            .expect("budgeted run")
        else {
            panic!("budget 1 completed")
        };
        assert!(cycles_so_far > 1);
        assert!(gpu.memory().read_u32s(out).iter().all(|&v| v == 0));
    }
}
