//! The cycle-driven timing engine: block dispatch, warp scheduling with
//! scoreboarding, memory latency/bandwidth modeling, and metric collection.
//!
//! Each SM hosts resident blocks up to its register / shared-memory / thread
//! / slot limits. Every cycle, each of its warp schedulers picks the first
//! eligible warp in loose-round-robin order and issues one instruction for
//! that warp's min-PC group. Eligibility requires the instruction's operand
//! registers to be ready (per-warp scoreboard, settled into the warp's issue
//! gate whenever its next group changes) and, for memory instructions, a
//! free pipe, MSHR and DRAM bandwidth. Stall slots are classified the way
//! `nvprof` classifies them (memory dependency, execution dependency,
//! synchronization), which is what Figs. 8 and 9 of the paper report.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::config::{GpuConfig, Latencies};
use crate::decode::DecodedKernel;
use crate::error::SimError;
use crate::exec::{BlockExec, ExecOutcome, IssueKind, WarpPeek, WARP_SIZE};
use crate::launch::Launch;
use crate::memory::GpuMemory;
use crate::metrics::{BudgetedRun, RunMetrics, RunResult};
use crate::sanitizer::{sanitize_enabled_by_env, Sanitizer, SanitizerReport};

/// Abort threshold: consecutive cycles with no issue, no retirement, and no
/// dispatch anywhere on the device (a barrier deadlock or engine bug).
const DEADLOCK_CYCLES: u64 = 50_000;

/// Hard ceiling on simulated cycles. Below 2³¹, so every cycle the engine
/// compares against fits the 31-bit fields of the scoreboard and the gates.
pub(crate) const MAX_CYCLES: u64 = 2_000_000_000;

/// Scoreboard entry bits 0–30: the cycle the register's value is ready.
const READY_MASK: u32 = (1 << 31) - 1;
/// Scoreboard entry bit 31: the register's pending writer touches memory.
const MEM_PENDING: u32 = 1 << 31;

/// Gate sentinel: every live lane of the warp is parked at a barrier.
const GATE_BLOCKED: u32 = u32::MAX - 1;
/// Gate sentinel: the warp slot is retired, empty or its warp has exited.
const GATE_DONE: u32 = u32::MAX;

/// The simulated GPU: a configuration plus device memory.
#[derive(Debug, Clone)]
pub struct Gpu {
    config: GpuConfig,
    memory: GpuMemory,
    /// Race/barrier sanitizer (see [`crate::sanitizer`]); `None` when off.
    sanitizer: Option<Box<Sanitizer>>,
}

impl Gpu {
    /// Creates a GPU with empty device memory. The sanitizer starts enabled
    /// when `HFUSE_SANITIZE=1` is set in the environment.
    pub fn new(config: GpuConfig) -> Self {
        Self {
            config,
            memory: GpuMemory::new(),
            sanitizer: sanitize_enabled_by_env().then(|| Box::new(Sanitizer::new())),
        }
    }

    /// Compat shim for perfbench's `workload.rs`, always `true`; goes in the next benchmark change.
    pub fn uniform_exec(&self) -> bool {
        true
    }

    /// Compat shim for perfbench's `workload.rs`, always `true`; goes in the next benchmark change.
    pub fn vector_exec(&self) -> bool {
        true
    }

    /// Turns on the race/barrier sanitizer for subsequent runs (idempotent;
    /// previously collected reports are kept).
    pub fn enable_sanitizer(&mut self) {
        if self.sanitizer.is_none() {
            self.sanitizer = Some(Box::new(Sanitizer::new()));
        }
    }

    /// True when the sanitizer is active.
    pub fn sanitizer_enabled(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// Sanitizer findings collected so far (empty when disabled).
    pub fn sanitizer_reports(&self) -> &[SanitizerReport] {
        self.sanitizer.as_ref().map_or(&[], |s| s.reports())
    }

    /// Drains and returns the sanitizer findings collected so far.
    pub fn take_sanitizer_reports(&mut self) -> Vec<SanitizerReport> {
        self.sanitizer
            .as_mut()
            .map_or_else(Vec::new, |s| s.take_reports())
    }

    /// The hardware configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Device memory (read side).
    pub fn memory(&self) -> &GpuMemory {
        &self.memory
    }

    /// Device memory (for allocation and input upload).
    pub fn memory_mut(&mut self) -> &mut GpuMemory {
        &mut self.memory
    }

    /// Runs the launches *functionally*: exact results, no timing. Launches
    /// execute in order; blocks of a launch execute sequentially with
    /// cooperative warp scheduling (so barriers and shuffles behave).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on an invalid configuration
    /// ([`GpuConfig::validate`]), faults or barrier deadlock.
    pub fn run_functional(&mut self, launches: &[Launch]) -> Result<(), SimError> {
        self.run_functional_classes(launches).map(drop)
    }

    /// [`Self::run_functional`], counting the issued warp-group
    /// instructions per latency class (indexed by [`IssueKind::index`]).
    /// Each warp issues the same groups here as in a timed run whenever its
    /// group sequence does not depend on the schedule — true of every
    /// built-in kernel — so the histogram then equals the timed run's
    /// [`RunMetrics::class_issues`] without paying for the timing engine.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run_functional`].
    pub fn run_functional_classes(
        &mut self,
        launches: &[Launch],
    ) -> Result<[u64; IssueKind::COUNT], SimError> {
        self.config.validate()?;
        let seg = self.config.segment_bytes;
        if let Some(s) = self.sanitizer.as_deref_mut() {
            s.begin_run();
        }
        let mut classes = [0; IssueKind::COUNT];
        for (li, launch) in launches.iter().enumerate() {
            launch.validate()?;
            let prog = DecodedKernel::decode(&launch.kernel);
            let warps: Vec<usize> =
                (0..warps_for_threads(launch.threads_per_block()) as usize).collect();
            for b in 0..launch.grid_dim {
                let mut blk = BlockExec::new(launch, &prog, li, b);
                let done = blk.run_warps(&warps, |blk, w, pc, mask| {
                    let out = blk.exec_group(
                        launch,
                        &prog,
                        &mut self.memory,
                        w,
                        pc,
                        mask,
                        seg,
                        self.sanitizer.as_deref_mut(),
                    )?;
                    classes[out.kind.index()] += 1;
                    Ok::<_, SimError>(())
                })?;
                if !done {
                    return Err(SimError::new(format!(
                        "barrier deadlock in `{}` block {b}",
                        launch.kernel.name
                    )));
                }
            }
        }
        Ok(classes)
    }

    /// Like [`Self::run`], additionally sampling an issue-utilization /
    /// occupancy timeline every `interval` cycles — the raw material for
    /// visualizing how fusion fills one kernel's stall cycles with the
    /// other's instructions.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn run_traced(
        &mut self,
        launches: &[Launch],
        interval: u64,
    ) -> Result<(RunResult, Vec<crate::metrics::TraceSample>), SimError> {
        self.run_traced_impl(launches, interval, skip_disabled_by_env())
    }

    /// [`Self::run_traced`] forced through the naive single-step loop (no
    /// idle-cycle fast-forward). Reference path for differential tests.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn run_traced_naive(
        &mut self,
        launches: &[Launch],
        interval: u64,
    ) -> Result<(RunResult, Vec<crate::metrics::TraceSample>), SimError> {
        self.run_traced_impl(launches, interval, true)
    }

    fn run_traced_impl(
        &mut self,
        launches: &[Launch],
        interval: u64,
        no_skip: bool,
    ) -> Result<(RunResult, Vec<crate::metrics::TraceSample>), SimError> {
        self.check_launches(launches)?;
        let mut engine = Engine::new(&self.config, launches);
        engine.no_skip = no_skip;
        engine.trace_interval = interval.max(1);
        if let Some(s) = self.sanitizer.as_deref_mut() {
            s.begin_run();
        }
        let result = engine.run(&mut self.memory, self.sanitizer.as_deref_mut())?;
        let trace = std::mem::take(&mut engine.trace);
        Ok((expect_completed(result), trace))
    }

    /// Runs the launches through the timing model and returns cycle counts
    /// and metrics. Memory effects are identical to [`Self::run_functional`].
    ///
    /// Blocks are dispatched with the *leftover* policy: a launch's blocks
    /// are only scheduled when every earlier launch has no undispatched
    /// blocks (how concurrent streams behave for saturating kernels).
    ///
    /// Idle stretches — windows where every warp is provably blocked until
    /// a known future cycle — are fast-forwarded in one step; the reported
    /// cycle counts and metrics are bit-identical to single-stepping (see
    /// [`Self::run_naive`], and set `HFUSE_SIM_NO_SKIP=1` to force the
    /// single-step loop globally).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on an invalid configuration
    /// ([`GpuConfig::validate`]), faults, deadlock, unschedulable blocks, or
    /// cycle-limit overrun.
    pub fn run(&mut self, launches: &[Launch]) -> Result<RunResult, SimError> {
        self.run_impl(launches, skip_disabled_by_env(), u64::MAX)
            .map(expect_completed)
    }

    /// [`Self::run`] forced through the naive single-step cycle loop. This
    /// is the reference implementation the fast-forward path must match
    /// bit-for-bit; differential tests compare the two.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`].
    pub fn run_naive(&mut self, launches: &[Launch]) -> Result<RunResult, SimError> {
        self.run_impl(launches, true, u64::MAX)
            .map(expect_completed)
    }

    /// [`Self::run`] with a cycle budget: the run is cut off as soon as the
    /// simulated clock strictly exceeds `budget` with work outstanding,
    /// returning [`BudgetedRun::Aborted`]. A run that completes within the
    /// budget returns exactly what [`Self::run`] would.
    ///
    /// Before simulating, a single launch with a finite budget and the
    /// sanitizer off gets an admissible lower bound on its cycles: a
    /// functional pass over a copy-on-write clone of device memory that
    /// takes each block's dependency critical path (see
    /// [`Self::cycle_lower_bound`]). When the bound exceeds the budget the
    /// run is not simulated at all and `cycles_so_far` is the bound; the
    /// pass stops as soon as its running value passes the budget, so the
    /// value is deterministic and monotone in the budget. Otherwise, or
    /// when the kernel fails the bound's gate, the engine runs as usual and
    /// `cycles_so_far` is the clock at the abort point. Either way it is
    /// greater than `budget` and no greater than the run's true cycle
    /// count.
    ///
    /// An aborted run may leave device memory partially mutated — callers
    /// that profile candidates should run on a cloned [`Gpu`] and discard
    /// it.
    ///
    /// # Errors
    ///
    /// Same as [`Self::run`]; errors that fire before the budget is reached
    /// (faults, deadlock, unschedulable blocks) are reported as errors, not
    /// as aborts. A run the bound rejects is not simulated, so a fault in a
    /// block its pass did not reach goes unreported.
    pub fn run_with_budget(
        &mut self,
        launches: &[Launch],
        budget: u64,
    ) -> Result<BudgetedRun, SimError> {
        self.run_with_budget_impl(launches, skip_disabled_by_env(), budget)
    }

    /// [`Self::run_with_budget`] on the loop `no_skip` picks.
    pub(crate) fn run_with_budget_impl(
        &mut self,
        launches: &[Launch],
        no_skip: bool,
        budget: u64,
    ) -> Result<BudgetedRun, SimError> {
        if let Some(bound) = self.bound_past(launches, budget)? {
            return Ok(BudgetedRun::Aborted {
                cycles_so_far: bound,
            });
        }
        self.run_impl(launches, no_skip, budget)
    }

    /// The critical-path bound [`Self::run_with_budget`] rejects `launches`
    /// with before simulating them: `Some` when the budget is finite, the
    /// sanitizer off, there is one launch and its bound (computed up to
    /// the budget) exceeds the budget.
    pub(crate) fn bound_past(
        &self,
        launches: &[Launch],
        budget: u64,
    ) -> Result<Option<u64>, SimError> {
        let [launch] = launches else { return Ok(None) };
        if budget == u64::MAX || self.sanitizer.is_some() {
            return Ok(None);
        }
        self.check_launches(launches)?;
        Ok(
            crate::bound::lower_bound(&self.config, launch, &self.memory, budget)
                .filter(|&bound| bound > budget),
        )
    }

    /// The admissible lower bound on the cycles [`Self::run`] would take
    /// for `launches`, which [`Self::run_with_budget`] compares with its
    /// budget before simulating; `Ok(None)` when there is no bound (more
    /// than one launch, the sanitizer on, a kernel that fails the bound's
    /// gate, or a functional pass that faults). Device memory is left
    /// untouched.
    ///
    /// The bound is `max(max_b CP_b, ⌈Σ_b CP_b / (num_sms ×
    /// blocks_per_sm)⌉)`, where `CP_b` is block `b`'s dependency critical
    /// path: each warp's groups in their functional order, one issue per
    /// warp per cycle, each waiting for its operands (the engine's
    /// latencies without the queueing penalty) and, after a barrier, for
    /// the barrier's latest arrival. It applies only when the kernel's
    /// per-warp instruction stream cannot depend on the schedule: no
    /// atomic result is read, and by pointer provenance no global load
    /// reads a buffer a store or atomic writes (shared memory is assumed
    /// race-free, as [`Self::run`] assumes). DESIGN.md §8.1 gives the
    /// admissibility argument.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on an invalid configuration, an invalid launch
    /// or a block that fits no SM, like [`Self::run`].
    pub fn cycle_lower_bound(&self, launches: &[Launch]) -> Result<Option<u64>, SimError> {
        self.check_launches(launches)?;
        Ok(match launches {
            [launch] if self.sanitizer.is_none() => {
                crate::bound::lower_bound(&self.config, launch, &self.memory, u64::MAX)
            }
            _ => None,
        })
    }

    pub(crate) fn run_impl(
        &mut self,
        launches: &[Launch],
        no_skip: bool,
        budget: u64,
    ) -> Result<BudgetedRun, SimError> {
        self.start(launches, no_skip)?.advance(budget)
    }

    /// Checks `launches` and sets up their timed run on this device, not
    /// yet advanced.
    pub(crate) fn start<'a>(
        &'a mut self,
        launches: &'a [Launch],
        no_skip: bool,
    ) -> Result<TimedRun<'a>, SimError> {
        self.check_launches(launches)?;
        let Gpu {
            config,
            memory,
            sanitizer,
        } = self;
        let mut engine = Engine::new(config, launches);
        engine.no_skip = no_skip;
        let mut sanitizer = sanitizer.as_deref_mut();
        if let Some(s) = sanitizer.as_deref_mut() {
            s.begin_run();
        }
        Ok(TimedRun {
            engine,
            memory,
            sanitizer,
        })
    }

    /// The checks every timed run makes before simulating: a valid
    /// configuration, valid launches, and blocks that fit on an SM.
    fn check_launches(&self, launches: &[Launch]) -> Result<(), SimError> {
        self.config.validate()?;
        for l in launches {
            l.validate()?;
            let blocks = crate::occupancy::blocks_per_sm(
                &self.config,
                l.kernel.reg_pressure(),
                l.threads_per_block(),
                l.shared_bytes_per_block(),
            );
            if blocks == 0 {
                return Err(SimError::new(format!(
                    "kernel `{}` cannot be scheduled: a single block exceeds SM resources",
                    l.kernel.name
                )));
            }
        }
        Ok(())
    }
}

/// A timed run that stops at a horizon and resumes where it stopped: the
/// engine keeps its whole state, clock included, between calls, so a run
/// advanced to `h1` and then to `h2` is bit-identical to one advanced to
/// `h2` at once.
pub(crate) struct TimedRun<'a> {
    engine: Engine<'a>,
    memory: &'a mut GpuMemory,
    sanitizer: Option<&'a mut Sanitizer>,
}

impl TimedRun<'_> {
    /// Runs on until the clock strictly exceeds `horizon` with work
    /// outstanding ([`BudgetedRun::Aborted`] at that clock, a pause the
    /// next call resumes from) or the run completes or fails. What a run
    /// started afresh returns for `horizon` is exactly what
    /// [`Gpu::run_impl`] returns for a budget of `horizon`.
    pub(crate) fn advance(&mut self, horizon: u64) -> Result<BudgetedRun, SimError> {
        if self.engine.cycle > horizon {
            // Paused past `horizon` already: a budget of `horizon` would
            // have aborted the run here.
            return Ok(BudgetedRun::Aborted {
                cycles_so_far: self.engine.cycle,
            });
        }
        self.engine.budget = horizon;
        self.engine.run(self.memory, self.sanitizer.as_deref_mut())
    }

    /// Starts recording, in [`Self::clocks`], the current clock and then
    /// every clock the horizon check sees, dropping what was recorded
    /// before.
    pub(crate) fn record_clocks(&mut self) {
        let clocks = self.engine.clocks.get_or_insert_with(Vec::new);
        clocks.clear();
        clocks.push(self.engine.cycle);
    }

    /// The clocks recorded since [`Self::record_clocks`], ascending.
    pub(crate) fn clocks(&self) -> &[u64] {
        self.engine.clocks.as_deref().unwrap_or(&[])
    }
}

/// Unwraps a [`BudgetedRun`] that cannot have aborted (budget `u64::MAX`;
/// the engine's cycle ceiling is far below it).
fn expect_completed(r: BudgetedRun) -> RunResult {
    match r {
        BudgetedRun::Completed(res) => res,
        BudgetedRun::Aborted { .. } => unreachable!("unbudgeted run cannot abort"),
    }
}

/// `HFUSE_SIM_NO_SKIP=1` (any value but `0`) disables idle-cycle
/// fast-forward globally — the escape hatch for A/B-ing the two loops.
fn skip_disabled_by_env() -> bool {
    crate::env::sim_no_skip()
}

/// Issue information of one instruction, precomputed per launch.
#[derive(Clone, Copy)]
struct InstCtx {
    /// Start of the instruction's scoreboard-checked registers in
    /// [`LaunchCtx::operand_regs`].
    ops_start: u32,
    /// How many there are: the sources, then the destination if any.
    ops_len: u8,
    /// Whether the last of them is the destination.
    has_dst: bool,
    /// Count of spilled-register operands.
    spills: u8,
}

/// Per-launch precomputed issue information.
pub(crate) struct LaunchCtx {
    /// The launch's kernel pre-decoded into a flat instruction buffer (the
    /// interpreter's read path).
    pub(crate) prog: DecodedKernel,
    /// One record per instruction, so the issue path makes one lookup.
    insts: Vec<InstCtx>,
    /// Flattened scoreboard-checked virtual registers (sources then
    /// destination) of every instruction, so the issue path never
    /// allocates. The scoreboard is per warp and liveness per thread, so it
    /// stays keyed by virtual register, not by the decoded storage slots.
    operand_regs: Vec<u32>,
    regs_per_block: u32,
    shared_per_block: u32,
    threads_per_block: u32,
}

impl LaunchCtx {
    pub(crate) fn new(launch: &Launch) -> Self {
        let k = &launch.kernel;
        let mut spilled = vec![false; k.num_regs as usize];
        for &r in &k.spilled_regs {
            spilled[r as usize] = true;
        }
        let mut srcs = Vec::with_capacity(3);
        let mut operand_regs = Vec::new();
        let mut insts = Vec::with_capacity(k.insts.len());
        for inst in &k.insts {
            let ops_start = operand_regs.len() as u32;
            srcs.clear();
            inst.srcs_into(&mut srcs);
            let dst = inst.dst();
            srcs.extend(dst);
            operand_regs.extend_from_slice(&srcs);
            insts.push(InstCtx {
                ops_start,
                ops_len: srcs.len() as u8,
                has_dst: dst.is_some(),
                spills: srcs.iter().map(|&r| u8::from(spilled[r as usize])).sum(),
            });
        }
        LaunchCtx {
            prog: DecodedKernel::decode(k),
            insts,
            operand_regs,
            regs_per_block: k.reg_pressure() * launch.threads_per_block(),
            shared_per_block: launch.shared_bytes_per_block(),
            threads_per_block: launch.threads_per_block(),
        }
    }

    /// The scoreboard-checked registers (sources then destination) of the
    /// instruction at `pc`.
    pub(crate) fn operands(&self, pc: usize) -> &[u32] {
        let i = self.insts[pc];
        &self.operand_regs[i.ops_start as usize..i.ops_start as usize + usize::from(i.ops_len)]
    }

    /// The destination register of the instruction at `pc`, if any.
    pub(crate) fn dst(&self, pc: usize) -> Option<u32> {
        let i = self.insts[pc];
        i.has_dst
            .then(|| self.operand_regs[i.ops_start as usize + usize::from(i.ops_len) - 1])
    }

    /// The count of spilled-register operands of the instruction at `pc`.
    pub(crate) fn spills(&self, pc: usize) -> u8 {
        self.insts[pc].spills
    }

    /// The memory pipes the group `(pc, mask)` of `exec`'s warp `warp`
    /// needs: the global one for an access any active lane makes off-chip
    /// or for a spilled operand, the shared one for an all-shared access.
    /// Depends only on the warp's registers and peek.
    fn pipes(&self, exec: &BlockExec, warp: usize, pc: usize, mask: u32) -> u8 {
        let space = exec.peek_space(warp, mask, pc, &self.prog);
        let global = matches!(
            space,
            Some(thread_ir::Space::Global | thread_ir::Space::Local)
        ) || self.spills(pc) > 0;
        let shared = space == Some(thread_ir::Space::Shared);
        let mut pipes = 0;
        if global {
            pipes |= PIPE_GLOBAL;
        }
        if shared {
            pipes |= PIPE_SHARED;
        }
        pipes
    }

    /// The most blocks of this launch [`SmState::fits`] lets one SM hold
    /// at once.
    pub(crate) fn max_resident(&self, cfg: &GpuConfig) -> u32 {
        let per = |cap: u32, need: u32| cap.checked_div(need).unwrap_or(u32::MAX);
        cfg.max_blocks_per_sm
            .min(per(cfg.regs_per_sm, self.regs_per_block))
            .min(per(cfg.shared_per_sm, self.shared_per_block))
            .min(per(cfg.max_threads_per_sm, self.threads_per_block))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallReason {
    Memory,
    Exec,
    Sync,
    Other,
}

/// A resident warp. Whether it may issue lives in the SM's dense [`Gate`]
/// array, so the issue scan touches a `WarpSlot` only for a warp whose gate
/// is open.
struct WarpSlot {
    block_slot: usize,
    warp_idx: usize,
    /// Scoreboard: the warp's pending register writes, `(virtual register,
    /// entry)`, where an entry holds the cycle the value is ready in bits
    /// 0–30 ([`READY_MASK`]) and in bit 31 ([`MEM_PENDING`]) whether the
    /// writer touches memory. A register not listed is ready. Entries ready
    /// at or before the current cycle can affect no check made then or
    /// later, so recording a write drops them: the list holds only writes
    /// still in flight.
    pending: Vec<(u32, u32)>,
    /// The block's cached [`BlockExec::peek_warp`] for this warp.
    peek: WarpPeek,
}

impl WarpSlot {
    /// The latest ready cycle among `regs` (RAW on sources, WAW on the
    /// destination) and the latest among those whose writer touches memory;
    /// `0` where none is pending.
    fn readiness(&self, regs: &[u32]) -> (u32, u32) {
        let (mut need, mut mem) = (0, 0);
        for &(r, entry) in &self.pending {
            if regs.contains(&r) {
                let ready = entry & READY_MASK;
                need = need.max(ready);
                if entry & MEM_PENDING != 0 {
                    mem = mem.max(ready);
                }
            }
        }
        (need, mem)
    }

    /// Records a write of `reg` issued at `now` and ready as `entry`.
    fn record_write(&mut self, reg: u32, entry: u32, now: u32) {
        self.pending
            .retain(|&(r, e)| r != reg && e & READY_MASK > now);
        self.pending.push((reg, entry));
    }
}

/// Pipe-class bit: the group needs the global/local load-store pipe.
const PIPE_GLOBAL: u8 = 1;
/// Pipe-class bit: the group needs the shared-memory pipe.
const PIPE_SHARED: u8 = 2;

/// The issue gate of one warp slot, settled whenever the warp's peek
/// changes: when it issues, when a barrier releases it, and when its block
/// is placed. A warp's scoreboard, registers and peek change only then, so
/// its issue readiness is resolved once per peek rather than on every scan.
///
/// `until` is [`GATE_DONE`] for an empty slot or an exited warp,
/// [`GATE_BLOCKED`] while the warp is parked at a barrier, and otherwise
/// the cycle its operands are all ready (`need`). A gate at or below the
/// current cycle is open, and the scan sends an open warp straight to the
/// pipe, MSHR and token checks, which read SM state only.
///
/// A closed gate reports the stall reason its *first* blocked visit saw:
/// `Memory` iff an operand whose writer touches memory was still
/// outstanding then (`mem_until`, the latest such ready cycle, is past the
/// visit), else `Exec`. The reason is then frozen in `reason` until the next
/// settle, even once only a longer ALU operand holds the warp.
///
/// One case is not settled at once: a barrier release that changes the
/// peek of a warp that is still running while its gate is closed and its
/// reason frozen. That gate is kept, with `lazy` set, and the first open
/// visit checks the new instruction's operands against the scoreboard.
#[derive(Clone, Copy)]
struct Gate {
    until: u32,
    /// The latest ready cycle among the memory-pending operands.
    mem_until: u32,
    /// `Sync` at a barrier; for a closed scoreboard gate, the frozen reason,
    /// or `Other` until the first blocked visit classifies it.
    reason: StallReason,
    /// The [`PIPE_GLOBAL`]/[`PIPE_SHARED`] bits of the warp's group.
    pipes: u8,
    /// The peek changed under this closed gate; check the scoreboard at
    /// the first open visit.
    lazy: bool,
}

impl Gate {
    const DONE: Gate = Gate {
        until: GATE_DONE,
        mem_until: 0,
        reason: StallReason::Other,
        pipes: 0,
        lazy: false,
    };
    const BLOCKED: Gate = Gate {
        until: GATE_BLOCKED,
        reason: StallReason::Sync,
        ..Gate::DONE
    };

    /// Whether the gate is closed by the scoreboard with its stall reason
    /// already classified by a visit.
    fn frozen(self, now: u32) -> bool {
        self.until > now && self.until < GATE_BLOCKED && self.reason != StallReason::Other
    }

    /// The gate of `warp` for its current peek, settled from its scoreboard
    /// and its registers.
    fn settle(ctx: &LaunchCtx, exec: &BlockExec, warp: &WarpSlot) -> Gate {
        match warp.peek {
            WarpPeek::Done => Gate::DONE,
            WarpPeek::Blocked => Gate::BLOCKED,
            WarpPeek::Exec { pc, mask } => {
                let (until, mem_until) = warp.readiness(ctx.operands(pc));
                Gate {
                    until,
                    mem_until,
                    reason: StallReason::Other,
                    pipes: ctx.pipes(exec, warp.warp_idx, pc, mask),
                    lazy: false,
                }
            }
        }
    }
}

struct BlockSlot {
    exec: BlockExec,
    launch_idx: usize,
    warp_slots: Vec<usize>,
    live_warps: u32,
}

/// Cached outcome of one scheduler's issue scan. While every warp of a
/// scheduler is blocked, re-walking them each cycle re-derives the same
/// stall verdict; the scan is skipped — replaying the cached verdict — until
/// the earliest wakeup time its warps reported arrives, or an event that can
/// change the verdict clears it:
///
/// - a block dispatch or retirement, or a `Barrier` issue, on the SM clears
///   every verdict there (warps appear, vanish, or leave a barrier);
/// - a memory completion on the SM, or the DRAM token bucket turning from
///   starved to available, clears only the verdicts whose scan saw a warp
///   blocked on MSHR capacity or tokens (`cap_blocked`);
/// - any other issue clears only the issuing scheduler's own verdict.
///
/// The last rule is sound because an ordinary issue changes no other warp's
/// peek, scoreboard or settled [`Gate`], and can only keep the SM's pipes
/// busy for longer and make MSHRs and tokens scarcer: a blocked warp of
/// another scheduler stays blocked, for the same reason, until at least the
/// wakeup its cached verdict names. (A closed gate's reason is frozen by the
/// visit that produced the verdict.) The one warp whose *reason* an issue
/// can change — it needs the global pipe but was held only by the shared
/// pipe (`Exec`), and a busier global pipe or scarcer capacity makes it
/// `Memory` — makes its scan uncacheable.
#[derive(Clone, Copy)]
struct SchedCache {
    valid: bool,
    /// The scan's aggregate stall reason (first blocked warp in rr order).
    reason: StallReason,
    /// Earliest cycle one of the scheduler's warps gains a new option
    /// (`u64::MAX` when all its warps wake via events only).
    wakeup: u64,
    /// Whether the scan left some warp blocked on MSHR capacity or tokens.
    cap_blocked: bool,
}

impl SchedCache {
    fn invalid() -> Self {
        SchedCache {
            valid: false,
            reason: StallReason::Other,
            wakeup: 0,
            cap_blocked: false,
        }
    }
}

struct SmState {
    blocks: Vec<Option<BlockSlot>>,
    /// How many entries of `blocks` are resident.
    resident: u32,
    /// How many resident blocks have no live warp left, awaiting
    /// retirement.
    finished: u32,
    warps: Vec<Option<WarpSlot>>,
    /// Issue gate of each warp slot, parallel to `warps`.
    gates: Vec<Gate>,
    /// Warp-slot indices assigned to each scheduler.
    sched_warps: Vec<Vec<usize>>,
    rr: Vec<usize>,
    /// Per-scheduler cached scan verdicts (fast path only).
    sched_cache: Vec<SchedCache>,
    regs_used: u32,
    shared_used: u32,
    threads_used: u32,
    /// Outstanding memory transactions (MSHR occupancy).
    inflight: u32,
    /// (completion cycle, transactions) min-heap.
    completions: BinaryHeap<Reverse<(u64, u32)>>,
    live_warps_total: u32,
    /// Cycle at which the global/local load-store pipe accepts the next
    /// memory warp-instruction (uncoalesced accesses hold it longer).
    global_pipe_free: u64,
    /// Cycle at which the shared-memory pipe accepts the next warp
    /// instruction (bank-conflicted atomics hold it longer).
    shared_pipe_free: u64,
}

impl SmState {
    fn new(cfg: &GpuConfig) -> Self {
        SmState {
            blocks: Vec::new(),
            resident: 0,
            finished: 0,
            warps: Vec::new(),
            gates: Vec::new(),
            sched_warps: vec![Vec::new(); cfg.schedulers_per_sm as usize],
            rr: vec![0; cfg.schedulers_per_sm as usize],
            sched_cache: vec![SchedCache::invalid(); cfg.schedulers_per_sm as usize],
            regs_used: 0,
            shared_used: 0,
            threads_used: 0,
            inflight: 0,
            completions: BinaryHeap::new(),
            live_warps_total: 0,
            global_pipe_free: 0,
            shared_pipe_free: 0,
        }
    }

    fn invalidate_sched_cache(&mut self) {
        for c in &mut self.sched_cache {
            c.valid = false;
        }
    }

    /// Clears the verdicts a freed MSHR or a refilled token can change.
    fn invalidate_cap_blocked(&mut self) {
        for c in &mut self.sched_cache {
            c.valid &= !c.cap_blocked;
        }
    }

    fn is_active(&self) -> bool {
        self.resident > 0
    }

    fn fits(&self, cfg: &GpuConfig, ctx: &LaunchCtx) -> bool {
        self.resident < cfg.max_blocks_per_sm
            && self.regs_used + ctx.regs_per_block <= cfg.regs_per_sm
            && self.shared_used + ctx.shared_per_block <= cfg.shared_per_sm
            && self.threads_used + ctx.threads_per_block <= cfg.max_threads_per_sm
    }
}

struct Engine<'a> {
    cfg: &'a GpuConfig,
    launches: &'a [Launch],
    ctxs: Vec<LaunchCtx>,
    sms: Vec<SmState>,
    /// Next undispatched block per launch.
    next_block: Vec<u32>,
    blocks_remaining: u64,
    dram_tokens: i64,
    metrics: RunMetrics,
    launch_finish: Vec<u64>,
    idle_cycles: u64,
    /// Force the naive single-step loop (no idle-cycle fast-forward).
    no_skip: bool,
    /// Cycle budget: the run aborts once the clock strictly exceeds it
    /// with work outstanding (`u64::MAX` = unbudgeted).
    budget: u64,
    /// The clock: the next cycle to simulate. It survives an abort, so a
    /// later [`Engine::run`] with a larger budget resumes there.
    cycle: u64,
    /// Every clock the budget check has seen, when recording
    /// ([`TimedRun::record_clocks`]).
    clocks: Option<Vec<u64>>,
    /// Earliest future cycle at which any warp blocked during the current
    /// sweep can change state (a stalled warp's gate cycle, memory-pipe free
    /// time). Collected *during* the issue sweep — which already visits
    /// every blocked warp — so the fast-forward needs no second scan.
    sweep_wakeup: u64,
    /// Whether the current sweep left some warp blocked purely on MSHR
    /// capacity or DRAM tokens. Only then can a transaction completion or a
    /// token refill change the sweep's outcome; otherwise an idle window
    /// may span completions and replay their retirements in bulk.
    sweep_cap_blocked: bool,
    /// Scratch for the scheduler scan in flight: min wakeup time among the
    /// warps visited so far (feeds the scheduler's [`SchedCache`]).
    scan_wakeup: u64,
    /// Scratch: whether the scan in flight hit an MSHR/token-blocked warp.
    scan_cap_blocked: bool,
    /// Scratch: whether the scan in flight saw a warp that needs the global
    /// pipe held back only by the shared pipe. Another issue can turn that
    /// warp's `Exec` stall into a `Memory` one, so such a scan is not cached.
    scan_reclassifiable: bool,
    /// Sampling interval for [`Gpu::run_traced`] (0 = no tracing).
    trace_interval: u64,
    trace: Vec<crate::metrics::TraceSample>,
    window_issued: u64,
    window_slots: u64,
    window_warp_cycles: u64,
}

/// The issue sweep of one cycle, summarized so an idle stretch can be
/// replayed in bulk: while no warp issues, no block dispatches or retires,
/// and no transaction completes, every subsequent sweep is cycle-for-cycle
/// identical to the one recorded here.
#[derive(Default)]
struct SweepStats {
    active_sms: u64,
    active_warps: u64,
    slots: u64,
    stall_mem: u64,
    stall_exec: u64,
    stall_sync: u64,
    stall_other: u64,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a GpuConfig, launches: &'a [Launch]) -> Self {
        Engine {
            cfg,
            launches,
            ctxs: launches.iter().map(LaunchCtx::new).collect(),
            sms: (0..cfg.num_sms).map(|_| SmState::new(cfg)).collect(),
            next_block: vec![0; launches.len()],
            blocks_remaining: launches.iter().map(|l| u64::from(l.grid_dim)).sum(),
            dram_tokens: 0,
            metrics: RunMetrics {
                max_warps_per_sm: cfg.max_warps_per_sm(),
                ..Default::default()
            },
            launch_finish: vec![0; launches.len()],
            idle_cycles: 0,
            no_skip: false,
            budget: u64::MAX,
            cycle: 0,
            clocks: None,
            sweep_wakeup: u64::MAX,
            sweep_cap_blocked: false,
            scan_wakeup: u64::MAX,
            scan_cap_blocked: false,
            scan_reclassifiable: false,
            trace_interval: 0,
            trace: Vec::new(),
            window_issued: 0,
            window_slots: 0,
            window_warp_cycles: 0,
        }
    }

    fn run(
        &mut self,
        memory: &mut GpuMemory,
        mut san: Option<&mut Sanitizer>,
    ) -> Result<BudgetedRun, SimError> {
        let mut cycle = self.cycle;
        let token_burst = i64::from(self.cfg.dram_transactions_per_cycle) * 4;
        loop {
            // Refill DRAM bandwidth tokens. Starved-to-available flips can
            // unblock token-gated warps anywhere on the device.
            let was_starved = self.dram_tokens <= 0;
            self.dram_tokens = (self.dram_tokens + i64::from(self.cfg.dram_transactions_per_cycle))
                .min(token_burst);
            if was_starved && self.dram_tokens > 0 {
                for sm in &mut self.sms {
                    sm.invalidate_cap_blocked();
                }
            }

            let mut progress = false;

            // Retire completed memory transactions.
            for sm in &mut self.sms {
                let mut popped = false;
                while let Some(&Reverse((t, n))) = sm.completions.peek() {
                    if t > cycle {
                        break;
                    }
                    sm.completions.pop();
                    sm.inflight = sm.inflight.saturating_sub(n);
                    popped = true;
                }
                if popped {
                    // Freed MSHRs can unblock capacity-gated warps here.
                    sm.invalidate_cap_blocked();
                    progress = true;
                }
            }

            // Dispatch blocks (leftover policy, one block per SM per cycle).
            progress |= self.dispatch_blocks();

            // Issue. The sweep is summarized in `sweep` so that an idle
            // stretch can later be replayed in bulk (fast-forward below).
            let mut sweep = SweepStats::default();
            self.sweep_wakeup = u64::MAX;
            self.sweep_cap_blocked = false;
            for sm_idx in 0..self.sms.len() {
                if !self.sms[sm_idx].is_active() {
                    continue;
                }
                sweep.active_sms += 1;
                sweep.active_warps += u64::from(self.sms[sm_idx].live_warps_total);
                for sched in 0..self.cfg.schedulers_per_sm as usize {
                    sweep.slots += 1;
                    // A scheduler whose previous scan found every warp
                    // blocked replays its cached verdict until the earliest
                    // wakeup its warps reported, or until an event that can
                    // change it clears the cache (see `SchedCache`). The
                    // naive loop never uses the cache — it is the reference
                    // the cache must match.
                    let cached = self.sms[sm_idx].sched_cache[sched];
                    let reason = if !self.no_skip && cached.valid && cached.wakeup > cycle {
                        self.sweep_wakeup = self.sweep_wakeup.min(cached.wakeup);
                        self.sweep_cap_blocked |= cached.cap_blocked;
                        cached.reason
                    } else {
                        self.scan_wakeup = u64::MAX;
                        self.scan_cap_blocked = false;
                        self.scan_reclassifiable = false;
                        match self.issue_one(memory, san.as_deref_mut(), sm_idx, sched, cycle)? {
                            IssueResult::Issued => {
                                self.metrics.issued_slots += 1;
                                progress = true;
                                // Only this scheduler's verdict is stale; a
                                // `Barrier` issue has cleared the whole SM's
                                // in `account_issue`.
                                self.sms[sm_idx].sched_cache[sched].valid = false;
                                continue;
                            }
                            IssueResult::Stalled(reason) => {
                                if !self.no_skip {
                                    self.sms[sm_idx].sched_cache[sched] = SchedCache {
                                        valid: !self.scan_reclassifiable,
                                        reason,
                                        wakeup: self.scan_wakeup,
                                        cap_blocked: self.scan_cap_blocked,
                                    };
                                }
                                self.sweep_wakeup = self.sweep_wakeup.min(self.scan_wakeup);
                                self.sweep_cap_blocked |= self.scan_cap_blocked;
                                reason
                            }
                        }
                    };
                    match reason {
                        StallReason::Memory => sweep.stall_mem += 1,
                        StallReason::Exec => sweep.stall_exec += 1,
                        StallReason::Sync => sweep.stall_sync += 1,
                        StallReason::Other => sweep.stall_other += 1,
                    }
                }
            }
            self.metrics.active_sm_cycles += sweep.active_sms;
            self.metrics.active_warp_cycles += sweep.active_warps;
            self.metrics.total_slots += sweep.slots;
            self.metrics.stall_mem += sweep.stall_mem;
            self.metrics.stall_exec += sweep.stall_exec;
            self.metrics.stall_sync += sweep.stall_sync;
            self.metrics.stall_other += sweep.stall_other;

            // Timeline sampling: emit a window sample from the metric
            // deltas since the previous sample.
            if self.trace_interval > 0 && (cycle + 1).is_multiple_of(self.trace_interval) {
                let issued = self.metrics.issued_slots - self.window_issued;
                let slots = self.metrics.total_slots - self.window_slots;
                let warps = self.metrics.active_warp_cycles - self.window_warp_cycles;
                self.window_issued = self.metrics.issued_slots;
                self.window_slots = self.metrics.total_slots;
                self.window_warp_cycles = self.metrics.active_warp_cycles;
                self.trace.push(crate::metrics::TraceSample {
                    cycle: cycle + 1,
                    issue_util: if slots == 0 {
                        0.0
                    } else {
                        100.0 * issued as f64 / slots as f64
                    },
                    avg_warps: warps as f64
                        / (self.trace_interval as f64 * f64::from(self.cfg.num_sms)),
                });
            }

            // Retire finished blocks.
            progress |= self.retire_blocks(cycle);

            if self.blocks_remaining == 0 && self.sms.iter().all(|s| !s.is_active()) {
                cycle += 1;
                break;
            }

            self.idle_cycles = if progress { 0 } else { self.idle_cycles + 1 };
            if self.idle_cycles > DEADLOCK_CYCLES {
                return Err(SimError::new(
                    "device made no progress (barrier deadlock between thread groups?)",
                ));
            }
            cycle += 1;
            if cycle > MAX_CYCLES {
                return Err(SimError::new("cycle limit exceeded"));
            }

            // Event-driven fast-forward. A cycle with no issue, no
            // dispatch, and no retirement leaves the device in a state where
            // every following cycle repeats the exact same sweep until the
            // next event that can change the sweep's outcome: a stalled
            // warp's gate cycle arriving, a memory pipe freeing, or a
            // trace-sample boundary. Transaction
            // completions only decrement `inflight`, which the sweep ignores
            // unless some warp was held back by MSHR capacity or DRAM
            // tokens (`sweep_cap_blocked`) — so a window may span them, as
            // long as the in-window retirements (and the idle-counter resets
            // they cause in the naive loop) are replayed in bulk. Jump
            // straight to the event, replaying the recorded sweep so every
            // metric stays bit-identical to the single-step loop
            // (`HFUSE_SIM_NO_SKIP=1` / `run_naive`).
            if !progress && !self.no_skip {
                // `cycle` is already the next cycle to simulate; cycles in
                // `cycle..next_event` would all repeat the recorded sweep.
                let consider = |t: u64, next: &mut Option<u64>| {
                    *next = Some(next.map_or(t, |n: u64| n.min(t)));
                };
                let mut next_event: Option<u64> = None;
                if self.sweep_wakeup != u64::MAX {
                    consider(self.sweep_wakeup, &mut next_event);
                }
                if self.trace_interval > 0 {
                    // Next cycle that emits a sample; its sweep must run for
                    // real so the sample is pushed at the right moment.
                    let m = (cycle + 1) % self.trace_interval;
                    consider(
                        cycle + (self.trace_interval - m) % self.trace_interval,
                        &mut next_event,
                    );
                }
                let rate = i64::from(self.cfg.dram_transactions_per_cycle);
                let mut completion_event: Option<u64> = None;
                for sm in &self.sms {
                    if let Some(&Reverse((t, _))) = sm.completions.peek() {
                        consider(t, &mut completion_event);
                    }
                }
                let token_event = if self.dram_tokens <= 0 {
                    // First cycle whose refill makes tokens positive again.
                    let j = (1 - self.dram_tokens + rate - 1) / rate;
                    Some(cycle - 1 + j as u64)
                } else {
                    None
                };
                if self.sweep_cap_blocked {
                    // A capacity-starved warp wakes the moment a completion
                    // frees an MSHR or the token bucket refills.
                    if let Some(t) = completion_event {
                        consider(t, &mut next_event);
                    }
                    if let Some(t) = token_event {
                        consider(t, &mut next_event);
                    }
                }

                let skip = match next_event {
                    Some(t) => t - cycle,
                    None => u64::MAX,
                };
                // Spanning completions silently is only sound when the naive
                // loop could not abort mid-window: completions reset its
                // idle counter, so without them `idle + skip` bounds every
                // idle run, and the landing cycle must stay inside the
                // cycle budget.
                let spans_ok = !self.sweep_cap_blocked
                    && self.idle_cycles.saturating_add(skip) <= DEADLOCK_CYCLES
                    && skip < MAX_CYCLES - cycle + 1;
                if spans_ok {
                    if skip > 0 {
                        let end = cycle + skip;
                        // Bulk-retire the completions the naive loop would
                        // have drained one cycle at a time; the last one is
                        // the naive loop's most recent progress cycle.
                        let mut last_progress: Option<u64> = None;
                        for sm in &mut self.sms {
                            while let Some(&Reverse((t, n))) = sm.completions.peek() {
                                if t >= end {
                                    break;
                                }
                                sm.completions.pop();
                                sm.inflight = sm.inflight.saturating_sub(n);
                                last_progress = Some(last_progress.map_or(t, |x| x.max(t)));
                            }
                        }
                        self.dram_tokens = (self.dram_tokens + skip as i64 * rate).min(token_burst);
                        self.metrics.active_sm_cycles += skip * sweep.active_sms;
                        self.metrics.active_warp_cycles += skip * sweep.active_warps;
                        self.metrics.total_slots += skip * sweep.slots;
                        self.metrics.stall_mem += skip * sweep.stall_mem;
                        self.metrics.stall_exec += skip * sweep.stall_exec;
                        self.metrics.stall_sync += skip * sweep.stall_sync;
                        self.metrics.stall_other += skip * sweep.stall_other;
                        self.idle_cycles = match last_progress {
                            Some(t) => end - 1 - t,
                            None => self.idle_cycles + skip,
                        };
                        cycle = end;
                    }
                } else {
                    // Conservative window: completions and token refills end
                    // it, so its interior truly has no progress and the
                    // naive loop's abort conditions translate directly.
                    if let Some(t) = completion_event {
                        consider(t, &mut next_event);
                    }
                    if let Some(t) = token_event {
                        consider(t, &mut next_event);
                    }
                    let skip = match next_event {
                        Some(t) => t - cycle,
                        None => u64::MAX,
                    };
                    let to_deadlock = DEADLOCK_CYCLES - self.idle_cycles + 1;
                    let to_limit = MAX_CYCLES - cycle + 1;
                    if to_deadlock.min(to_limit) <= skip {
                        return Err(if to_deadlock <= to_limit {
                            SimError::new(
                                "device made no progress (barrier deadlock between thread groups?)",
                            )
                        } else {
                            SimError::new("cycle limit exceeded")
                        });
                    }
                    if skip > 0 {
                        self.dram_tokens = (self.dram_tokens + skip as i64 * rate).min(token_burst);
                        self.metrics.active_sm_cycles += skip * sweep.active_sms;
                        self.metrics.active_warp_cycles += skip * sweep.active_warps;
                        self.metrics.total_slots += skip * sweep.slots;
                        self.metrics.stall_mem += skip * sweep.stall_mem;
                        self.metrics.stall_exec += skip * sweep.stall_exec;
                        self.metrics.stall_sync += skip * sweep.stall_sync;
                        self.metrics.stall_other += skip * sweep.stall_other;
                        self.idle_cycles += skip;
                        cycle += skip;
                    }
                }
            }

            // Cycle-budget early-abort. Checked at the very bottom of the
            // iteration so it covers both the single-step `cycle += 1` and
            // fast-forward jumps, and only fires while work remains (a run
            // that completes breaks out above before this is reached). The
            // clock sequence observed here is budget-independent, so the
            // reported `cycles_so_far` — a lower bound on the run's true
            // cycle count — is monotone in the budget. Nothing but the
            // clock lives outside `self` across iterations, so a later call
            // with a larger budget resumes bit-identically.
            if let Some(clocks) = &mut self.clocks {
                clocks.push(cycle);
            }
            if cycle > self.budget {
                self.cycle = cycle;
                return Ok(BudgetedRun::Aborted {
                    cycles_so_far: cycle,
                });
            }
        }
        self.metrics.cycles = cycle;
        Ok(BudgetedRun::Completed(RunResult {
            total_cycles: cycle,
            metrics: self.metrics,
            launch_finish: std::mem::take(&mut self.launch_finish),
        }))
    }

    /// Picks the launch whose blocks may dispatch (leftover policy) and
    /// places at most one block per SM.
    fn dispatch_blocks(&mut self) -> bool {
        let mut dispatched = false;
        for sm_idx in 0..self.sms.len() {
            // First launch that still has undispatched blocks.
            let Some(li) = (0..self.launches.len())
                .find(|&li| self.next_block[li] < self.launches[li].grid_dim)
            else {
                break;
            };
            let ctx = &self.ctxs[li];
            if !self.sms[sm_idx].fits(self.cfg, ctx) {
                continue;
            }
            let block_idx = self.next_block[li];
            self.next_block[li] += 1;
            self.place_block(sm_idx, li, block_idx);
            dispatched = true;
        }
        dispatched
    }

    fn place_block(&mut self, sm_idx: usize, launch_idx: usize, block_idx: u32) {
        let launch = &self.launches[launch_idx];
        let ctx = &self.ctxs[launch_idx];
        let exec = BlockExec::new(launch, &ctx.prog, launch_idx, block_idx);
        let num_warps = exec.num_warps();
        let sm = &mut self.sms[sm_idx];
        sm.regs_used += ctx.regs_per_block;
        sm.shared_used += ctx.shared_per_block;
        sm.threads_used += ctx.threads_per_block;

        let block_slot = match sm.blocks.iter().position(|b| b.is_none()) {
            Some(i) => i,
            None => {
                sm.blocks.push(None);
                sm.blocks.len() - 1
            }
        };

        let mut warp_slots = Vec::with_capacity(num_warps);
        for w in 0..num_warps {
            let slot = WarpSlot {
                block_slot,
                warp_idx: w,
                pending: Vec::new(),
                peek: exec.peek_warp(w),
            };
            let gate = Gate::settle(ctx, &exec, &slot);
            let ws = match sm.warps.iter().position(|x| x.is_none()) {
                Some(i) => {
                    sm.warps[i] = Some(slot);
                    sm.gates[i] = gate;
                    i
                }
                None => {
                    sm.warps.push(Some(slot));
                    sm.gates.push(gate);
                    sm.warps.len() - 1
                }
            };
            sm.sched_warps[ws % self.cfg.schedulers_per_sm as usize].push(ws);
            warp_slots.push(ws);
        }
        sm.live_warps_total += num_warps as u32;
        sm.resident += 1;
        sm.blocks[block_slot] = Some(BlockSlot {
            exec,
            launch_idx,
            warp_slots,
            live_warps: num_warps as u32,
        });
        sm.invalidate_sched_cache();
    }

    fn retire_blocks(&mut self, cycle: u64) -> bool {
        let mut retired = false;
        for sm in &mut self.sms {
            for bi in 0..sm.blocks.len() {
                if sm.finished == 0 {
                    break;
                }
                let done = matches!(&sm.blocks[bi], Some(b) if b.live_warps == 0);
                if !done {
                    continue;
                }
                let block = sm.blocks[bi].take().expect("checked Some");
                sm.resident -= 1;
                sm.finished -= 1;
                let ctx = &self.ctxs[block.launch_idx];
                sm.regs_used -= ctx.regs_per_block;
                sm.shared_used -= ctx.shared_per_block;
                sm.threads_used -= ctx.threads_per_block;
                for &ws in &block.warp_slots {
                    sm.warps[ws] = None;
                    sm.gates[ws] = Gate::DONE;
                }
                for sched in &mut sm.sched_warps {
                    sched.retain(|x| !block.warp_slots.contains(x));
                }
                self.launch_finish[block.launch_idx] =
                    self.launch_finish[block.launch_idx].max(cycle);
                self.blocks_remaining -= 1;
                sm.invalidate_sched_cache();
                retired = true;
            }
        }
        retired
    }

    /// Attempts to issue one instruction on scheduler `sched` of SM
    /// `sm_idx`.
    ///
    /// Walks the scheduler's warps in round-robin order from `rr`, reading
    /// each warp's settled [`Gate`] from the SM's dense gate array: retired
    /// or done, parked at a barrier, or waiting on its scoreboard until a
    /// known cycle. Only a warp whose gate is open reaches
    /// [`Self::issue_warp`]'s pipe checks. The stall verdict is the first
    /// blocked warp's reason.
    fn issue_one(
        &mut self,
        memory: &mut GpuMemory,
        mut san: Option<&mut Sanitizer>,
        sm_idx: usize,
        sched: usize,
        now: u64,
    ) -> Result<IssueResult, SimError> {
        let n_warps = self.sms[sm_idx].sched_warps[sched].len();
        if n_warps == 0 {
            return Ok(IssueResult::Stalled(StallReason::Other));
        }
        // The loop stops at `MAX_CYCLES`, so `now` fits a gate's cycle.
        let now32 = now as u32;
        let mut first_block_reason: Option<StallReason> = None;
        let mut pos = self.sms[sm_idx].rr[sched];
        if pos >= n_warps {
            // A retirement shrank the scheduler's warp list.
            pos %= n_warps;
        }
        for _ in 0..n_warps {
            let sm = &mut self.sms[sm_idx];
            let ws = sm.sched_warps[sched][pos];
            let gate = &mut sm.gates[ws];
            debug_assert!(
                gate_matches_peek(*gate, sm.warps[ws].as_ref()),
                "gate of warp slot {ws} disagrees with its peek"
            );
            let reason = if gate.until <= now32 {
                let blocked = self.issue_warp(memory, san.as_deref_mut(), sm_idx, ws, now)?;
                if blocked.is_none() {
                    // Issued: advance round-robin past this warp.
                    pos += 1;
                    self.sms[sm_idx].rr[sched] = if pos == n_warps { 0 } else { pos };
                    return Ok(IssueResult::Issued);
                }
                blocked
            } else if gate.until == GATE_DONE {
                None
            } else {
                if gate.until != GATE_BLOCKED {
                    self.scan_wakeup = self.scan_wakeup.min(u64::from(gate.until));
                    if gate.reason == StallReason::Other {
                        // The first blocked visit classifies the stall.
                        gate.reason = if gate.mem_until > now32 {
                            StallReason::Memory
                        } else {
                            StallReason::Exec
                        };
                    }
                }
                Some(gate.reason)
            };
            if let Some(r) = reason {
                first_block_reason.get_or_insert(r);
            }
            pos += 1;
            if pos == n_warps {
                pos = 0;
            }
        }
        Ok(IssueResult::Stalled(
            first_block_reason.unwrap_or(StallReason::Other),
        ))
    }

    /// Tries to issue the min-PC group of warp slot `ws`, whose gate is
    /// open: its operands are ready, unless its gate is `lazy` and the
    /// scoreboard check for its new peek closes it here. The pipe, MSHR
    /// and token checks read only the gate and the SM. Returns `Ok(None)`
    /// when issued, `Ok(Some(reason))` when blocked by that check or by a
    /// memory pipe, an MSHR or a DRAM token.
    fn issue_warp(
        &mut self,
        memory: &mut GpuMemory,
        san: Option<&mut Sanitizer>,
        sm_idx: usize,
        ws: usize,
        now: u64,
    ) -> Result<Option<StallReason>, SimError> {
        let now32 = now as u32;
        if self.sms[sm_idx].gates[ws].lazy {
            if let Some(reason) = self.check_lazy_gate(sm_idx, ws, now32) {
                return Ok(Some(reason));
            }
        }
        debug_assert!(
            self.gate_settled(sm_idx, ws, now32),
            "settled gate of warp slot {ws} disagrees with its scoreboard or pipes"
        );

        // Structural hazards: the two memory pipelines.
        let sm = &mut self.sms[sm_idx];
        let pipes = sm.gates[ws].pipes;
        if pipes & PIPE_GLOBAL != 0 {
            // A busy pipe is a wakeup time of its own (and gates the warp
            // regardless of capacity). A warp held back *only* by MSHRs or
            // tokens wakes on a completion / token refill — flag it so the
            // fast-forward treats those as events.
            if sm.global_pipe_free > now {
                self.scan_wakeup = self.scan_wakeup.min(sm.global_pipe_free);
                return Ok(Some(StallReason::Memory));
            }
            if sm.inflight >= self.cfg.mshrs_per_sm || self.dram_tokens <= 0 {
                self.scan_cap_blocked = true;
                return Ok(Some(StallReason::Memory));
            }
        }
        if pipes & PIPE_SHARED != 0 && sm.shared_pipe_free > now {
            // Shared-pipe serialization shows up as pipe-busy, not memory
            // dependency, matching nvprof's classification.
            self.scan_wakeup = self.scan_wakeup.min(sm.shared_pipe_free);
            self.scan_reclassifiable |= pipes & PIPE_GLOBAL != 0;
            return Ok(Some(StallReason::Exec));
        }

        // Issue: execute functionally, then account timing.
        let warp = sm.warps[ws].as_ref().expect("gated warp exists");
        let WarpPeek::Exec { pc, mask } = warp.peek else {
            unreachable!("an open gate belongs to a runnable warp")
        };
        let warp_idx = warp.warp_idx;
        let block = sm.blocks[warp.block_slot]
            .as_mut()
            .expect("warp's block resident");
        let launch_idx = block.launch_idx;
        let outcome = block.exec.exec_group(
            &self.launches[launch_idx],
            &self.ctxs[launch_idx].prog,
            memory,
            warp_idx,
            pc,
            mask,
            self.cfg.segment_bytes,
            san,
        )?;
        self.metrics.thread_insts += u64::from(mask.count_ones());
        self.account_issue(sm_idx, ws, launch_idx, pc, outcome, now);
        Ok(None)
    }

    /// The one lazy scoreboard check (see [`Gate`]): a barrier release
    /// changed warp slot `ws`'s peek while its gate was closed. Closes the
    /// gate and returns the stall reason when an operand of the new group
    /// is still pending at `now`; clears `lazy` either way.
    fn check_lazy_gate(&mut self, sm_idx: usize, ws: usize, now: u32) -> Option<StallReason> {
        let sm = &mut self.sms[sm_idx];
        let warp = sm.warps[ws].as_ref().expect("gated warp exists");
        let WarpPeek::Exec { pc, .. } = warp.peek else {
            unreachable!("an open gate belongs to a runnable warp")
        };
        let block = sm.blocks[warp.block_slot].as_ref().expect("resident");
        let (need, mem_until) = warp.readiness(self.ctxs[block.launch_idx].operands(pc));
        let gate = &mut sm.gates[ws];
        gate.lazy = false;
        if need <= now {
            return None;
        }
        let reason = if mem_until > now {
            StallReason::Memory
        } else {
            StallReason::Exec
        };
        *gate = Gate {
            until: need,
            mem_until,
            reason,
            ..*gate
        };
        self.scan_wakeup = self.scan_wakeup.min(u64::from(need));
        Some(reason)
    }

    /// Whether the open gate of warp slot `ws` agrees with what its
    /// scoreboard and `peek_space` give at `now`: every operand ready, and
    /// the same pipes. Debug builds check this at every open visit.
    fn gate_settled(&self, sm_idx: usize, ws: usize, now: u32) -> bool {
        let sm = &self.sms[sm_idx];
        let Some(warp) = &sm.warps[ws] else {
            return false;
        };
        let WarpPeek::Exec { pc, mask } = warp.peek else {
            return false;
        };
        let block = sm.blocks[warp.block_slot].as_ref().expect("resident");
        let ctx = &self.ctxs[block.launch_idx];
        warp.readiness(ctx.operands(pc)).0 <= now
            && sm.gates[ws].pipes == ctx.pipes(&block.exec, warp.warp_idx, pc, mask)
    }

    /// Extra memory latency from queueing: as the SM's outstanding
    /// transactions approach the MSHR capacity, the effective round-trip
    /// grows (DRAM contention).
    fn queue_penalty(&self, sm_idx: usize) -> u32 {
        let sm = &self.sms[sm_idx];
        let lat = self.cfg.latencies.global_mem as u64;
        (lat * u64::from(sm.inflight) / u64::from(self.cfg.mshrs_per_sm)) as u32
    }

    /// Post-issue timing bookkeeping: latency, scoreboard update, memory
    /// pipeline occupancy, peek and gate refreshes, retirement bookkeeping.
    fn account_issue(
        &mut self,
        sm_idx: usize,
        ws: usize,
        launch_idx: usize,
        pc: usize,
        outcome: ExecOutcome,
        now: u64,
    ) {
        let lat = &self.cfg.latencies;
        let ctx = &self.ctxs[launch_idx];
        let spill_cnt = ctx.spills(pc);
        self.metrics.class_issues[outcome.kind.index()] += 1;
        let extra_tx = u32::from(spill_cnt);
        let mut latency = issue_latency(lat, outcome, spill_cnt);
        let is_mem_kind = matches!(
            outcome.kind,
            IssueKind::GlobalMem | IssueKind::GlobalAtomic | IssueKind::LocalMem
        );
        if matches!(outcome.kind, IssueKind::GlobalMem | IssueKind::GlobalAtomic) {
            latency += self.queue_penalty(sm_idx);
        }

        let total_tx = outcome.transactions + extra_tx;
        let touches_dram = is_mem_kind || spill_cnt > 0;
        let sm = &mut self.sms[sm_idx];
        // Pipeline occupancy: the issuing warp holds the pipe long enough
        // to generate its transactions / resolve its bank conflicts.
        match outcome.kind {
            IssueKind::SharedMem => sm.shared_pipe_free = now + 1,
            IssueKind::SharedAtomic => {
                sm.shared_pipe_free = now
                    + 1
                    + u64::from(outcome.conflict_extra) * u64::from(lat.shared_atomic_retry);
            }
            IssueKind::GlobalMem | IssueKind::GlobalAtomic | IssueKind::LocalMem => {
                let gen_cycles = u64::from(total_tx.max(1)).div_ceil(4);
                sm.global_pipe_free = now + gen_cycles.max(1);
            }
            _ if spill_cnt > 0 => sm.global_pipe_free = now + 1,
            _ => {}
        }
        if touches_dram {
            debug_assert!(
                sm.inflight < self.cfg.mshrs_per_sm && self.dram_tokens > 0,
                "a DRAM access issued without a free MSHR and a DRAM token"
            );
            let tx = total_tx.max(1);
            sm.inflight += tx;
            sm.completions.push(Reverse((now + u64::from(latency), tx)));
            self.dram_tokens -= i64::from(tx);
            self.metrics.mem_transactions += u64::from(tx);
        }

        // Scoreboard update. A ready time past `READY_MASK` lies beyond
        // `MAX_CYCLES`, where the run stops anyway.
        let now32 = now as u32;
        let warp = sm.warps[ws].as_mut().expect("issuing warp exists");
        if let Some(d) = ctx.dst(pc) {
            let ready = (now + u64::from(latency)).min(u64::from(READY_MASK)) as u32;
            let entry = if touches_dram {
                ready | MEM_PENDING
            } else {
                ready
            };
            warp.record_write(d, entry, now32);
        }

        // Refresh cached peeks and settle gates: a barrier may release
        // other warps of the block, which changes verdicts on every
        // scheduler.
        let block_slot = warp.block_slot;
        let SmState {
            blocks,
            finished,
            warps,
            gates,
            live_warps_total,
            ..
        } = &mut *sm;
        let block = blocks[block_slot].as_mut().expect("block resident");
        let barrier = matches!(outcome.kind, IssueKind::Barrier);
        let refreshed = if barrier {
            &block.warp_slots[..]
        } else {
            std::slice::from_ref(&ws)
        };
        let mut exited = 0;
        for &w in refreshed {
            exited += u32::from(Self::refresh_warp(
                ctx,
                &block.exec,
                warps[w].as_mut().expect("block's warp resident"),
                &mut gates[w],
                w == ws,
                now32,
            ));
        }
        if exited > 0 {
            *live_warps_total -= exited;
            block.live_warps -= exited;
            if block.live_warps == 0 {
                *finished += 1;
            }
        }
        if barrier {
            sm.invalidate_sched_cache();
        }
    }

    /// Re-peeks one warp of `exec`'s block and settles its gate; returns
    /// whether the warp has just exited. The warp that just issued
    /// (`issued`) is always settled; another warp only when a barrier
    /// release changed its peek. If that warp is still running and its
    /// gate is closed with a frozen reason, the gate keeps its stall cycle
    /// and reason, and checks the new peek's operands lazily.
    fn refresh_warp(
        ctx: &LaunchCtx,
        exec: &BlockExec,
        warp: &mut WarpSlot,
        gate: &mut Gate,
        issued: bool,
        now: u32,
    ) -> bool {
        let old = warp.peek;
        warp.peek = exec.peek_warp(warp.warp_idx);
        if warp.peek == old && !issued {
            return false;
        }
        let exited = warp.peek == WarpPeek::Done && gate.until != GATE_DONE;
        let settled = Gate::settle(ctx, exec, warp);
        *gate = if matches!(old, WarpPeek::Exec { .. })
            && matches!(warp.peek, WarpPeek::Exec { .. })
            && !issued
            && gate.frozen(now)
        {
            Gate {
                pipes: settled.pipes,
                lazy: true,
                ..*gate
            }
        } else {
            settled
        };
        exited
    }
}

/// Whether a warp slot's gate agrees with its cached peek: sentinels match
/// an empty slot, an exited warp or a parked one, and a cycle a runnable
/// warp.
fn gate_matches_peek(gate: Gate, warp: Option<&WarpSlot>) -> bool {
    match (gate.until, warp.map(|w| w.peek)) {
        (GATE_DONE, None | Some(WarpPeek::Done)) => true,
        (GATE_BLOCKED, Some(WarpPeek::Blocked)) => true,
        (GATE_DONE | GATE_BLOCKED, _) => false,
        (_, peek) => matches!(peek, Some(WarpPeek::Exec { .. })),
    }
}

enum IssueResult {
    Issued,
    Stalled(StallReason),
}

/// The result latency [`Engine::account_issue`] charges an issue with
/// `outcome` and `spill_cnt` spilled operands, before the queueing penalty
/// it adds to global accesses and atomics (which only lengthens it).
pub(crate) fn issue_latency(lat: &Latencies, outcome: ExecOutcome, spill_cnt: u8) -> u32 {
    let base = match outcome.kind {
        IssueKind::Alu | IssueKind::Control | IssueKind::Barrier => lat.alu,
        IssueKind::Div => lat.div,
        IssueKind::Special => lat.special,
        IssueKind::Shuffle => lat.shuffle,
        IssueKind::SharedMem => lat.shared_mem,
        IssueKind::SharedAtomic => {
            lat.shared_atomic + outcome.conflict_extra * lat.shared_atomic_retry
        }
        IssueKind::GlobalMem => {
            lat.global_mem + outcome.transactions.saturating_sub(1) * lat.uncoalesced_extra
        }
        IssueKind::GlobalAtomic => {
            lat.global_atomic
                + (outcome.transactions.saturating_sub(1) + outcome.conflict_extra)
                    * lat.uncoalesced_extra
        }
        IssueKind::LocalMem => lat.local_mem,
    };
    base + u32::from(spill_cnt) * lat.spill_access
}

/// Returns the number of warps a block of `threads` threads occupies.
pub fn warps_for_threads(threads: u32) -> u32 {
    threads.div_ceil(WARP_SIZE as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::ParamValue;
    use cuda_frontend::parse_kernel;
    use thread_ir::lower_kernel;

    fn compile(src: &str) -> thread_ir::KernelIr {
        lower_kernel(&parse_kernel(src).expect("parse")).expect("lower")
    }

    fn tiny_gpu() -> Gpu {
        Gpu::new(GpuConfig::test_tiny())
    }

    #[test]
    fn fill_kernel_functional_and_timed_agree() {
        let ir = compile(
            "__global__ void fill(float* out, int n) {\
               int i = blockIdx.x * blockDim.x + threadIdx.x;\
               if (i < n) { out[i] = i * 2.0f; }\
             }",
        );
        // functional
        let mut gpu = tiny_gpu();
        let buf = gpu.memory_mut().alloc_f32(100);
        let launch = Launch::new(ir.clone(), 4, (32, 1, 1))
            .arg(ParamValue::Ptr(buf))
            .arg(ParamValue::I32(100));
        gpu.run_functional(std::slice::from_ref(&launch))
            .expect("functional run");
        let func = gpu.memory().read_f32s(buf);

        // timed
        let mut gpu = tiny_gpu();
        let buf2 = gpu.memory_mut().alloc_f32(100);
        let launch = Launch::new(ir, 4, (32, 1, 1))
            .arg(ParamValue::Ptr(buf2))
            .arg(ParamValue::I32(100));
        let res = gpu.run(&[launch]).expect("timed run");
        assert!(res.total_cycles > 0);
        assert_eq!(gpu.memory().read_f32s(buf2), func);
        assert_eq!(func[99], 198.0);
        assert_eq!(func[3], 6.0);
    }

    #[test]
    fn reduction_with_syncthreads() {
        let ir = compile(
            "__global__ void reduce(float* out, float* in) {\
               __shared__ float s[64];\
               int t = threadIdx.x;\
               s[t] = in[blockIdx.x * 64 + t];\
               __syncthreads();\
               for (int stride = 32; stride > 0; stride = stride / 2) {\
                 if (t < stride) { s[t] += s[t + stride]; }\
                 __syncthreads();\
               }\
               if (t == 0) { out[blockIdx.x] = s[0]; }\
             }",
        );
        let mut gpu = tiny_gpu();
        let input: Vec<f32> = (0..128).map(|i| i as f32).collect();
        let in_buf = gpu.memory_mut().alloc_from_f32(&input);
        let out_buf = gpu.memory_mut().alloc_f32(2);
        let launch = Launch::new(ir, 2, (64, 1, 1))
            .arg(ParamValue::Ptr(out_buf))
            .arg(ParamValue::Ptr(in_buf));
        gpu.run(&[launch]).expect("run");
        let out = gpu.memory().read_f32s(out_buf);
        assert_eq!(out[0], (0..64).sum::<i32>() as f32);
        assert_eq!(out[1], (64..128).sum::<i32>() as f32);
    }

    #[test]
    fn partial_barrier_synchronizes_subset() {
        // 64 threads; the first 32 use barrier 1 to hand a value through
        // shared memory; the other 32 spin independently.
        let ir = compile(
            "__global__ void k(int* out) {\
               __shared__ int s[1];\
               int t = threadIdx.x;\
               if (t < 32) {\
                 if (t == 0) { s[0] = 42; }\
                 asm(\"bar.sync 1, 32;\");\
                 out[t] = s[0];\
               } else {\
                 out[t] = t;\
               }\
             }",
        );
        let mut gpu = tiny_gpu();
        let out = gpu.memory_mut().alloc_u32(64);
        let launch = Launch::new(ir, 1, (64, 1, 1)).arg(ParamValue::Ptr(out));
        gpu.run(&[launch]).expect("run");
        let v = gpu.memory().read_u32s(out);
        assert!(v[..32].iter().all(|&x| x == 42), "{v:?}");
        assert_eq!(v[40], 40);
    }

    #[test]
    fn divergent_branches_converge() {
        let ir = compile(
            "__global__ void k(int* out) {\
               int t = threadIdx.x;\
               int v;\
               if (t % 2 == 0) { v = t * 10; } else { v = t; }\
               out[t] = v + 1;\
             }",
        );
        let mut gpu = tiny_gpu();
        let out = gpu.memory_mut().alloc_u32(32);
        let launch = Launch::new(ir, 1, (32, 1, 1)).arg(ParamValue::Ptr(out));
        gpu.run(&[launch]).expect("run");
        let v = gpu.memory().read_u32s(out);
        assert_eq!(v[2], 21);
        assert_eq!(v[3], 4);
    }

    #[test]
    fn atomics_accumulate_across_blocks() {
        let ir = compile("__global__ void k(int* counter) { atomicAdd(&counter[0], 1); }");
        let mut gpu = tiny_gpu();
        let c = gpu.memory_mut().alloc_u32(1);
        let launch = Launch::new(ir, 4, (64, 1, 1)).arg(ParamValue::Ptr(c));
        gpu.run(&[launch]).expect("run");
        assert_eq!(gpu.memory().read_u32(c, 0), 256);
    }

    #[test]
    fn warp_shuffle_reduction() {
        let ir = compile(
            "__global__ void k(int* out) {\
               int v = threadIdx.x;\
               for (int i = 16; i > 0; i = i / 2) {\
                 v += __shfl_xor_sync(0xffffffffu, v, i, 32);\
               }\
               out[threadIdx.x] = v;\
             }",
        );
        let mut gpu = tiny_gpu();
        let out = gpu.memory_mut().alloc_u32(32);
        let launch = Launch::new(ir, 1, (32, 1, 1)).arg(ParamValue::Ptr(out));
        gpu.run(&[launch]).expect("run");
        let v = gpu.memory().read_u32s(out);
        let expected = (0..32).sum::<u32>();
        assert!(v.iter().all(|&x| x == expected), "{v:?}");
    }

    #[test]
    fn grid_stride_loop_covers_all_elements() {
        let ir = compile(
            "__global__ void k(unsigned int* out, int n) {\
               for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n;\
                    i += gridDim.x * blockDim.x) {\
                 out[i] = i;\
               }\
             }",
        );
        let mut gpu = tiny_gpu();
        let out = gpu.memory_mut().alloc_u32(500);
        let launch = Launch::new(ir, 2, (32, 1, 1))
            .arg(ParamValue::Ptr(out))
            .arg(ParamValue::I32(500));
        gpu.run(&[launch]).expect("run");
        let v = gpu.memory().read_u32s(out);
        assert!(v.iter().enumerate().all(|(i, &x)| x == i as u32));
    }

    #[test]
    fn out_of_bounds_store_is_reported() {
        let ir = compile("__global__ void k(float* p) { p[999] = 1.0f; }");
        let mut gpu = tiny_gpu();
        let p = gpu.memory_mut().alloc_f32(4);
        let launch = Launch::new(ir, 1, (32, 1, 1)).arg(ParamValue::Ptr(p));
        assert!(gpu.run(&[launch]).is_err());
    }

    #[test]
    fn metrics_are_sane() {
        let ir = compile(
            "__global__ void k(float* a, float* b, int n) {\
               int i = blockIdx.x * blockDim.x + threadIdx.x;\
               if (i < n) {\
                 float acc = 0.0f;\
                 for (int j = 0; j < 16; j++) { acc += a[(i + j * 64) % n]; }\
                 b[i] = acc;\
               }\
             }",
        );
        let mut gpu = tiny_gpu();
        let n = 512;
        let a = gpu.memory_mut().alloc_f32(n);
        let b = gpu.memory_mut().alloc_f32(n);
        let launch = Launch::new(ir, 8, (64, 1, 1))
            .arg(ParamValue::Ptr(a))
            .arg(ParamValue::Ptr(b))
            .arg(ParamValue::I32(n as i32));
        let res = gpu.run(&[launch]).expect("run");
        let m = res.metrics;
        assert!(m.cycles > 0);
        assert!(m.issued_slots > 0);
        assert!(m.total_slots >= m.issued_slots);
        let util = m.issue_slot_utilization();
        assert!((0.0..=100.0).contains(&util), "{util}");
        let occ = m.occupancy_pct();
        assert!((0.0..=100.0).contains(&occ), "{occ}");
        assert!(m.mem_transactions > 0);
        assert!(m.thread_insts > 0);
    }

    #[test]
    fn memory_bound_kernel_stalls_on_memory() {
        // Pointer-chase-ish: each iteration loads a fresh uncached address.
        let ir = compile(
            "__global__ void k(unsigned int* data, unsigned int* out, int n) {\
               unsigned int idx = threadIdx.x;\
               for (int i = 0; i < 64; i++) { idx = data[idx % n]; }\
               out[threadIdx.x] = idx;\
             }",
        );
        let mut gpu = tiny_gpu();
        let n = 4096;
        let data: Vec<u32> = (0..n as u64)
            .map(|i| ((i * 2654435761) % n as u64) as u32)
            .collect();
        let d = gpu.memory_mut().alloc_from_u32(&data);
        let o = gpu.memory_mut().alloc_u32(64);
        let launch = Launch::new(ir, 1, (64, 1, 1))
            .arg(ParamValue::Ptr(d))
            .arg(ParamValue::Ptr(o))
            .arg(ParamValue::I32(n));
        let res = gpu.run(&[launch]).expect("run");
        let m = res.metrics;
        assert!(
            m.mem_stall_pct() > 50.0,
            "dependent loads should dominate stalls: {}",
            m.mem_stall_pct()
        );
        assert!(m.issue_slot_utilization() < 50.0);
    }

    #[test]
    fn compute_bound_kernel_has_high_utilization() {
        let ir = compile(
            "__global__ void k(unsigned int* out) {\
               unsigned int x = threadIdx.x + 1u;\
               unsigned int y = threadIdx.x + 7u;\
               unsigned int z = threadIdx.x + 13u;\
               for (int i = 0; i < 200; i++) {\
                 x = x * 1664525u + 1013904223u;\
                 y = y * 22695477u + 1u;\
                 z = (z << 5) ^ (z >> 3) ^ x;\
               }\
               out[threadIdx.x] = x ^ y ^ z;\
             }",
        );
        let mut gpu = tiny_gpu();
        let o = gpu.memory_mut().alloc_u32(256);
        let launch = Launch::new(ir, 4, (64, 1, 1)).arg(ParamValue::Ptr(o));
        let res = gpu.run(&[launch]).expect("run");
        let m = res.metrics;
        assert!(
            m.issue_slot_utilization() > 40.0,
            "independent ALU chains should keep schedulers busy: {}",
            m.issue_slot_utilization()
        );
        // Memory stalls must be a small share of all issue slots (the
        // percentage-of-stalls metric is noisy when almost nothing stalls).
        let mem_share = m.stall_mem as f64 / m.total_slots as f64;
        assert!(mem_share < 0.25, "memory stall share {mem_share}");
    }

    #[test]
    fn two_launches_finish_in_order_with_leftover_policy() {
        let ir = compile(
            "__global__ void k(float* p, int n) {\
               int i = blockIdx.x * blockDim.x + threadIdx.x;\
               float acc = 0.0f;\
               for (int j = 0; j < 32; j++) { acc += p[(i + j) % n]; }\
               p[i % n] = acc;\
             }",
        );
        let mut gpu = tiny_gpu();
        let n = 1024;
        let p = gpu.memory_mut().alloc_f32(n);
        let mk = |ir: &thread_ir::KernelIr| {
            Launch::new(ir.clone(), 8, (128, 1, 1))
                .arg(ParamValue::Ptr(p))
                .arg(ParamValue::I32(n as i32))
        };
        let res = gpu.run(&[mk(&ir), mk(&ir)]).expect("run");
        assert!(res.launch_cycles(0) <= res.launch_cycles(1));
        assert_eq!(res.total_cycles - 1, res.launch_cycles(1));
    }

    #[test]
    fn barrier_deadlock_detected() {
        // Barrier expects 64 participants but only 32 threads exist. Stores
        // on both sides keep it past redundant-barrier elimination.
        let ir = compile(
            "__global__ void k(unsigned int* p) { p[0] = 1u; asm(\"bar.sync 1, 64;\"); p[1] = 2u; }",
        );
        let mut gpu = tiny_gpu();
        let p = gpu.memory_mut().alloc_u32(2);
        let launch = Launch::new(ir, 1, (32, 1, 1)).arg(ParamValue::Ptr(p));
        let err = gpu.run(&[launch]).unwrap_err();
        assert!(err.message().contains("progress"), "{err}");
    }

    fn budget_test_launch(gpu: &mut Gpu) -> Launch {
        let ir = compile(
            "__global__ void k(unsigned int* out) {\
               unsigned int x = threadIdx.x + 1u;\
               for (int i = 0; i < 300; i++) { x = x * 1664525u + 1013904223u; }\
               out[threadIdx.x + blockIdx.x * blockDim.x] = x;\
             }",
        );
        let o = gpu.memory_mut().alloc_u32(512);
        Launch::new(ir, 8, (64, 1, 1)).arg(ParamValue::Ptr(o))
    }

    #[test]
    fn budget_abort_fires_and_reports_monotone_cycles() {
        let full = {
            let mut gpu = tiny_gpu();
            let launch = budget_test_launch(&mut gpu);
            gpu.run(&[launch]).expect("full run").total_cycles
        };
        assert!(full > 100, "kernel too short for a budget test: {full}");

        let mut prev = 0u64;
        for budget in [1, 10, full / 4, full / 2, full - 2] {
            let mut gpu = tiny_gpu();
            let launch = budget_test_launch(&mut gpu);
            match gpu.run_with_budget(&[launch], budget).expect("budgeted") {
                BudgetedRun::Aborted { cycles_so_far } => {
                    assert!(cycles_so_far > budget, "{cycles_so_far} <= {budget}");
                    assert!(
                        cycles_so_far <= full,
                        "abort clock {cycles_so_far} past true total {full}"
                    );
                    assert!(
                        cycles_so_far >= prev,
                        "abort clock not monotone: {cycles_so_far} < {prev}"
                    );
                    prev = cycles_so_far;
                }
                BudgetedRun::Completed(r) => {
                    panic!(
                        "budget {budget} should abort, completed in {}",
                        r.total_cycles
                    )
                }
            }
        }
    }

    #[test]
    fn budget_at_or_above_total_completes_identically() {
        let mut gpu = tiny_gpu();
        let launch = budget_test_launch(&mut gpu);
        let full = gpu
            .clone()
            .run(std::slice::from_ref(&launch))
            .expect("full run");
        for budget in [full.total_cycles, full.total_cycles * 2, u64::MAX] {
            let mut g = gpu.clone();
            match g
                .run_with_budget(std::slice::from_ref(&launch), budget)
                .expect("budgeted")
            {
                BudgetedRun::Completed(r) => assert_eq!(r, full),
                BudgetedRun::Aborted { cycles_so_far } => {
                    panic!("budget {budget} aborted at {cycles_so_far}")
                }
            }
        }
    }

    #[test]
    fn budget_abort_matches_between_fast_and_naive_loop_bounds() {
        // The fast-forward loop may land past the budget at a different
        // clock than the naive loop, but both must (a) abort, and (b)
        // report a clock strictly past the budget and bounded by the true
        // total.
        let full = {
            let mut gpu = tiny_gpu();
            let launch = budget_test_launch(&mut gpu);
            gpu.run(&[launch]).expect("full").total_cycles
        };
        let budget = full / 3;
        for no_skip in [false, true] {
            let mut gpu = tiny_gpu();
            let launch = budget_test_launch(&mut gpu);
            let r = gpu
                .run_impl(&[launch], no_skip, budget)
                .expect("budgeted run");
            match r {
                BudgetedRun::Aborted { cycles_so_far } => {
                    assert!(cycles_so_far > budget);
                    assert!(cycles_so_far <= full);
                }
                BudgetedRun::Completed(_) => panic!("no_skip={no_skip} did not abort"),
            }
        }
    }

    #[test]
    fn degenerate_configs_fail_every_run_with_an_error() {
        // Each of these used to panic (division by zero) or spin until the
        // deadlock detector reported a barrier deadlock.
        let edits: [fn(&mut GpuConfig); 5] = [
            |c| c.schedulers_per_sm = 0,
            |c| c.segment_bytes = 0,
            |c| c.num_sms = 0,
            |c| c.mshrs_per_sm = 0,
            |c| c.dram_transactions_per_cycle = 0,
        ];
        for edit in edits {
            let mut cfg = GpuConfig::test_tiny();
            edit(&mut cfg);
            let mut gpu = Gpu::new(cfg);
            let launch = budget_test_launch(&mut gpu);
            let launches = std::slice::from_ref(&launch);
            let errors = [
                gpu.clone().run(launches).map(drop),
                gpu.clone().run_naive(launches).map(drop),
                gpu.clone().run_with_budget(launches, 100).map(drop),
                gpu.clone().run_traced(launches, 16).map(drop),
                gpu.clone().run_functional(launches),
            ];
            for e in errors {
                let msg = e.expect_err("degenerate config ran").to_string();
                assert!(msg.contains("must be positive"), "{msg}");
            }
        }
    }

    /// 16 one-warp blocks on `test_tiny` with 8 MSHRs per SM: each thread
    /// sums 16 loads through `p = (t == 0) ? <first> : g`, so lane 0 reads
    /// `first` and the other lanes the global buffer `g`.
    fn mixed_space_cycles(first: &str) -> u64 {
        let ir = compile(&format!(
            "__global__ void k(float* g, float* h, float* out) {{\
               __shared__ float s[1024];\
               int t = threadIdx.x;\
               s[t] = 1.0f;\
               __syncthreads();\
               float acc = 0.0f;\
               for (int i = 0; i < 16; i++) {{\
                 float* p = (t == 0) ? {first} : g;\
                 acc += p[(i * 32 + t + blockIdx.x * 512) % 1024];\
               }}\
               out[blockIdx.x * blockDim.x + t] = acc;\
             }}"
        ));
        let mut cfg = GpuConfig::test_tiny();
        cfg.mshrs_per_sm = 8;
        let mut gpu = Gpu::new(cfg);
        let g = gpu.memory_mut().alloc_f32(1024);
        let h = gpu.memory_mut().alloc_f32(1024);
        let out = gpu.memory_mut().alloc_f32(16 * 32);
        let launch = Launch::new(ir, 16, (32, 1, 1))
            .arg(ParamValue::Ptr(g))
            .arg(ParamValue::Ptr(h))
            .arg(ParamValue::Ptr(out));
        let naive = gpu.clone().run_naive(std::slice::from_ref(&launch));
        let run = gpu.run(&[launch]).expect("run");
        assert_eq!(naive.expect("naive run"), run);
        run.total_cycles
    }

    #[test]
    fn mixed_space_access_takes_the_global_checks() {
        // A group whose first lane addresses shared memory while the others
        // address global memory is a global access: its transactions go to
        // DRAM, so it must wait for the global pipe, an MSHR and a DRAM
        // token. When the pipe was picked from the first lane alone, it
        // skipped all three: `account_issue`'s debug assertion caught
        // `inflight` at 8 of 8 MSHRs, and the run took 3387 cycles.
        assert_eq!(mixed_space_cycles("s"), 4024);
        // The all-global arms are unchanged by the fix.
        assert_eq!(mixed_space_cycles("g"), 4460);
        assert_eq!(mixed_space_cycles("h"), 7342);
    }

    #[test]
    fn occupancy_reflects_block_residency() {
        // 1024-thread blocks, 2 resident max (thread limit) → occupancy near
        // 100% while both run; tiny grid keeps it high.
        let ir = compile(
            "__global__ void k(float* p) {\
               float acc = 0.0f;\
               for (int j = 0; j < 64; j++) { acc += j; }\
               p[threadIdx.x + blockIdx.x * blockDim.x] = acc;\
             }",
        );
        let mut gpu = tiny_gpu();
        let p = gpu.memory_mut().alloc_f32(4096);
        let launch = Launch::new(ir, 2, (1024, 1, 1)).arg(ParamValue::Ptr(p));
        let res = gpu.run(&[launch]).expect("run");
        assert!(
            res.metrics.occupancy_pct() > 50.0,
            "two 32-warp blocks resident: {}",
            res.metrics.occupancy_pct()
        );
    }
}
