//! The profiling-driven fusion-configuration search (Fig. 6 of the paper),
//! plus the measurement helpers the evaluation harness uses (native
//! co-execution, vertical fusion, naive even-partition horizontal fusion).
//!
//! One search body, `search_members`, serves the pairwise search
//! ([`search_fusion_config`]) and the N-way one
//! ([`search_multi_fusion_config`](crate::multi::search_multi_fusion_config));
//! the two differ only in the partitions they sweep and the report they
//! build. The body checks the members (equal grids) and the options (a
//! positive granularity, `d0` within the launch limit), then, for each
//! candidate thread-space partition (stepped at a granularity of 128,
//! because irregular block shapes break memory-access patterns), compiles
//! the fused kernel twice: once as compiled, and once with a register bound
//! `r0 = SMNRegs / (b0 * d0)` where
//! `b0 = min(b_1, .., b_n, SMShMem/ShMem(F), SMNThreads/d0)` — i.e. capped
//! so the fused kernel can keep as many resident blocks as the originals.
//! It ranks the candidates, profiles them best-first on the simulator with
//! branch-and-bound pruning, and returns the fastest.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use cuda_frontend::ast::Function;
use gpu_sim::{BudgetedRun, Gpu, GpuConfig, Launch, ParamValue, MAX_BLOCK_THREADS};
use thread_ir::ir::{BinIr, Inst, KernelIr, UnIr};
use thread_ir::lower_kernel;
use thread_ir::spill::apply_register_bound;

use crate::fuse::{fuse_members, horizontal_fuse, FuseOptions};
use crate::multi::register_bound_many;

pub use crate::error::HfuseError;

/// How a kernel's block dimension maps to a 3-D shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockShape {
    /// `(d, 1, 1)`.
    Linear,
    /// `(d / y, y, 1)` — e.g. the paper's batch-norm kernel uses 16 rows.
    Rows {
        /// Fixed `blockDim.y`.
        y: u32,
    },
}

impl BlockShape {
    /// The 3-D dims for a total thread count, or `None` when `threads` is
    /// incompatible with the shape.
    pub fn dims(self, threads: u32) -> Option<(u32, u32, u32)> {
        match self {
            BlockShape::Linear => Some((threads, 1, 1)),
            BlockShape::Rows { y } => {
                if threads.is_multiple_of(y) && threads >= y {
                    Some((threads / y, y, 1))
                } else {
                    None
                }
            }
        }
    }
}

/// One kernel's contribution to a fusion experiment: source, launch
/// geometry, and pre-allocated arguments.
#[derive(Debug, Clone)]
pub struct FusionInput {
    /// The parsed kernel.
    pub kernel: Function,
    /// Arguments (buffers already allocated in the base memory snapshot).
    pub args: Vec<ParamValue>,
    /// Grid dimension the kernel runs with.
    pub grid_dim: u32,
    /// Dynamic shared memory bytes.
    pub dynamic_shared: u32,
    /// Block threads used when the kernel runs natively.
    pub default_threads: u32,
    /// Whether the block dimension is tunable (deep-learning kernels) or
    /// fixed (crypto kernels).
    pub tunable: bool,
    /// Thread-shape rule.
    pub shape: BlockShape,
}

impl FusionInput {
    /// The 3-D block for `threads`, or [`HfuseError::Config`] with `error`
    /// when the shape rule rejects that count.
    fn dims(&self, threads: u32, error: &str) -> Result<(u32, u32, u32), HfuseError> {
        self.shape
            .dims(threads)
            .ok_or_else(|| HfuseError::Config(error.to_owned()))
    }
}

/// The launch of a fused kernel: `d0`-thread linear blocks over the
/// members' grid, with their arguments concatenated and their dynamic
/// shared bytes summed.
fn fused_launch(kernel: Arc<KernelIr>, inputs: &[&FusionInput], d0: u32) -> Launch {
    Launch {
        kernel,
        grid_dim: inputs.iter().map(|i| i.grid_dim).max().unwrap_or(0),
        block_dim: (d0, 1, 1),
        dynamic_shared_bytes: inputs.iter().map(|i| i.dynamic_shared).sum(),
        args: inputs.iter().flat_map(|i| i.args.iter().copied()).collect(),
    }
}

/// Search options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    /// Desired fused block dimension `d0` for tunable pairs.
    pub d0: u32,
    /// Partition step (the paper uses 128).
    pub granularity: u32,
    /// Branch-and-bound pruning: profile candidates best-first, the front
    /// (the top-[`MODEL_TOP_K`] unique programs plus near-ties within
    /// [`MODEL_MARGIN`]) without a budget and every other candidate at one
    /// fixed budget, the front's best completed cycle count, so losers
    /// abort as soon as they exceed it. The chosen best candidate, its
    /// cycles, and the cycles of every *surviving* (non-pruned) candidate
    /// are identical to the exhaustive search, and the whole report —
    /// which losers get cut short, and at what value — is a pure function
    /// of the inputs and options, whatever the worker count. `false` (the
    /// CLI's `--no-prune`) profiles every candidate to completion.
    pub prune: bool,
    /// Calibrated analytic pre-filter: rank candidates with the
    /// per-latency-class model ([`gpu_sim::model_estimate`]) instead of the
    /// single-weight cost estimate. The ranking decides which candidates
    /// form the unbudgeted front (see [`prune`](Self::prune)); because an
    /// abort requires the simulated clock to strictly exceed a *completed*
    /// run's cycles, the winner and every surviving candidate stay
    /// bit-identical to the exhaustive search regardless of model quality —
    /// the model only decides how early losers stop burning simulator
    /// cycles. `false` (the CLI's `--no-model-filter`) ranks by the legacy
    /// cost estimate.
    pub model_filter: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            d0: 1024,
            granularity: 128,
            prune: true,
            model_filter: true,
        }
    }
}

/// One profiled fusion configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchCandidate {
    /// Threads given to the first kernel.
    pub d1: u32,
    /// Threads given to the second kernel.
    pub d2: u32,
    /// Register bound applied (`None` = unbounded compile).
    pub reg_bound: Option<u32>,
    /// Profiled execution cycles. For a pruned candidate this is its
    /// `pruned_at` value — a lower bound on its true cycle count, always
    /// past the winning candidate's cycles.
    pub cycles: u64,
    /// Issue-slot utilization (%). Zero for pruned candidates.
    pub issue_util: f64,
    /// Memory-stall percentage. Zero for pruned candidates.
    pub mem_stall: f64,
    /// Achieved occupancy (%). Zero for pruned candidates.
    pub occupancy: f64,
    /// `Some(cycles)` when the profile run was budget-aborted
    /// (branch-and-bound pruning): either the simulated clock at the abort
    /// point or, for a candidate that was never simulated, the
    /// critical-path lower bound that exceeded the budget (see
    /// [`Gpu::run_with_budget`]). Either way it is greater than the fixed
    /// budget, the front's best completed cycle count, no greater than the
    /// candidate's true cycles, and it depends only on the inputs and
    /// options. `None` when the candidate was profiled to completion.
    pub pruned_at: Option<u64>,
    /// Static ranking score this candidate was ordered by: the calibrated
    /// analytic model estimate when model filtering is active, the legacy
    /// single-weight cost estimate otherwise. Pure and deterministic, so it
    /// is identical across pruned/exhaustive arms of the same mode.
    pub model_score: u64,
    /// Issued warp-group instructions per latency class (indexed by
    /// [`gpu_sim::IssueKind::index`]) from the profile run — the "where did
    /// the cycles go" explanation for reports. All zeros for pruned
    /// candidates.
    pub class_issues: [u64; gpu_sim::IssueKind::COUNT],
}

/// The search result: every profiled candidate plus the winner.
#[derive(Debug, Clone)]
pub struct SearchReport {
    /// All profiled configurations, in search order.
    pub candidates: Vec<SearchCandidate>,
    /// Index of the fastest candidate.
    pub best_idx: usize,
    /// The fused function of the best candidate.
    pub best_function: Function,
    /// The compiled best kernel (with the winning register bound applied).
    pub best_kernel: KernelIr,
    /// Fused block dimension of the winner: the sum of its partition
    /// (`SearchOptions::d0` unless the pair is not tunable).
    pub d0: u32,
    /// Wall-clock milliseconds spent compiling candidates.
    pub compile_ms: f64,
    /// Wall-clock milliseconds spent profiling candidates.
    pub profile_ms: f64,
}

impl SearchReport {
    /// The winning configuration.
    pub fn best(&self) -> &SearchCandidate {
        &self.candidates[self.best_idx]
    }

    /// How many candidates were budget-aborted by branch-and-bound pruning.
    pub fn pruned_count(&self) -> usize {
        self.candidates
            .iter()
            .filter(|c| c.pruned_at.is_some())
            .count()
    }

    /// The winner's static-model rank among all candidates (1 = the model
    /// ranked it best). A rank of 1 means the analytic pre-filter alone
    /// would have picked the same configuration.
    pub fn best_model_rank(&self) -> usize {
        let best = self.best();
        1 + self
            .candidates
            .iter()
            .enumerate()
            .filter(|&(i, c)| (c.model_score, i) < (best.model_score, self.best_idx))
            .count()
    }

    /// True when the winner lies in the model-exempt front — the analytic
    /// pre-filter's top-[`MODEL_TOP_K`] candidates plus every near-tie
    /// within [`MODEL_MARGIN`] of the best score. Candidates in the front
    /// profile without a budget, so when this holds the winner is found at
    /// full simulation speed *and* establishes the tightest possible abort
    /// budget for everything behind it. Correctness never depends on this
    /// predicate, but the search's speedup does; the model-front smoke test
    /// keeps it true on every paper pair.
    pub fn best_in_model_front(&self) -> bool {
        let Some(best_score) = self.candidates.iter().map(|c| c.model_score).min() else {
            return false;
        };
        self.best_model_rank() <= MODEL_TOP_K
            || (self.best().model_score as f64) <= best_score as f64 * MODEL_MARGIN
    }

    /// A one-paragraph human-readable explanation of *why* the winner won:
    /// its model rank and its issue histogram (densest latency classes
    /// first), so reports can show where the cycles went.
    pub fn explain_best(&self) -> String {
        let best = self.best();
        let total: u64 = best.class_issues.iter().sum();
        let mut s = format!(
            "winner d1={} d2={} (reg bound {}): model rank {}/{}",
            best.d1,
            best.d2,
            best.reg_bound
                .map_or_else(|| "none".to_owned(), |b| b.to_string()),
            self.best_model_rank(),
            self.candidates.len(),
        );
        if total > 0 {
            let mut rows: Vec<(gpu_sim::IssueKind, u64)> = gpu_sim::IssueKind::ALL
                .iter()
                .map(|&k| (k, best.class_issues[k.index()]))
                .filter(|&(_, n)| n > 0)
                .collect();
            rows.sort_by_key(|&(k, n)| (std::cmp::Reverse(n), k.index()));
            s.push_str("; issue mix ");
            for (i, (k, n)) in rows.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!(
                    "{} {:.0}%",
                    k.name(),
                    100.0 * *n as f64 / total as f64
                ));
            }
        }
        s
    }
}

/// Profiles one compiled candidate of `sweep` on a fresh copy of the base
/// device state, stopping early once the simulated clock exceeds `budget`.
/// Cloning the base device only bumps buffer refcounts (copy-on-write), and
/// the kernel is shared, so each profile is cheap to set up. A
/// budget-aborted run returns a candidate with `pruned_at` set and zeroed
/// metrics; the partially-mutated clone is simply discarded.
fn profile_fused(
    base: &Gpu,
    sweep: &Sweep,
    cand: &Candidate,
    budget: u64,
) -> Result<SearchCandidate, HfuseError> {
    let launch = fused_launch(Arc::clone(&cand.ir), sweep.inputs, cand.d0());
    let (cycles, pruned_at, metrics) = match base.clone().run_with_budget(&[launch], budget)? {
        BudgetedRun::Completed(res) => (res.total_cycles, None, Some(res.metrics)),
        BudgetedRun::Aborted { cycles_so_far } => (cycles_so_far, Some(cycles_so_far), None),
    };
    Ok(SearchCandidate {
        d1: 0,
        d2: 0,
        reg_bound: None,
        cycles,
        issue_util: metrics.as_ref().map_or(0.0, |m| m.issue_slot_utilization()),
        mem_stall: metrics.as_ref().map_or(0.0, |m| m.mem_stall_pct()),
        occupancy: metrics.as_ref().map_or(0.0, |m| m.occupancy_pct()),
        pruned_at,
        model_score: 0,
        class_issues: metrics.map_or([0; gpu_sim::IssueKind::COUNT], |m| m.class_issues),
    })
}

/// Static per-thread instruction weight used by the analytic cost estimate:
/// memory and atomic operations count 8, divides 4, transcendental unaries
/// 2, everything else 1, plus 8 per spilled register (each spill adds
/// local-memory traffic on every touch).
pub(crate) fn weighted_inst_cost(ir: &KernelIr) -> u64 {
    let mut w = 0u64;
    for inst in &ir.insts {
        w += match inst {
            Inst::Ld { .. } | Inst::St { .. } | Inst::Atom { .. } => 8,
            Inst::Bin {
                op: BinIr::Div | BinIr::Rem,
                ..
            } => 4,
            Inst::Un {
                op: UnIr::Sqrt | UnIr::Rsqrt | UnIr::Exp | UnIr::Log,
                ..
            } => 2,
            _ => 1,
        };
    }
    w + 8 * ir.spilled_regs.len() as u64
}

/// Resolves the profiling worker count from the `HFUSE_SEARCH_THREADS`
/// value (parsed centrally by [`gpu_sim::env::search_threads`]). An
/// explicit numeric override is honored as-is (with a floor of one worker)
/// — only the auto-detected default is capped at 8 to avoid
/// oversubscribing shared machines.
fn worker_threads(explicit: Option<usize>) -> usize {
    match explicit {
        Some(n) => n.max(1),
        None => std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(8),
    }
}

/// Confidence margin of the ranking: candidates whose score is within this
/// factor of the best score are "near-ties" the ranking cannot separate,
/// and join the front that profiles without a budget.
pub const MODEL_MARGIN: f64 = 1.10;

/// Minimum number of top-ranked unique programs the search always profiles
/// without a budget, regardless of margin (the winner and its register-bound
/// sibling in the common case).
pub const MODEL_TOP_K: usize = 2;

/// One compiled candidate: a partition with or without the register bound
/// applied.
struct Candidate {
    /// Threads per member, in member order.
    partition: Vec<u32>,
    /// Register bound applied (`None` = unbounded compile).
    bound: Option<u32>,
    /// The fused function.
    function: Function,
    /// The compiled kernel.
    ir: Arc<KernelIr>,
}

impl Candidate {
    /// Fused block threads.
    fn d0(&self) -> u32 {
        self.partition.iter().sum()
    }
}

/// Every compiled candidate of one sweep, with the members it fuses.
struct Sweep<'a> {
    /// The members, in fusion order.
    inputs: &'a [&'a FusionInput],
    /// Each member lowered once: its register pressure feeds the register
    /// bound, and its native launch the model's functional pass.
    members: Vec<Arc<KernelIr>>,
    /// Both register variants of every feasible partition, in sweep order.
    candidates: Vec<Candidate>,
    /// The members' common grid dimension.
    grid_dim: u32,
    /// The members' dynamic shared bytes, summed.
    dynamic_shared: u32,
}

/// The thread-space partitions a search visits, each one thread count per
/// member; the pairwise and the N-way search differ only in this sweep.
pub(crate) type PartitionSweep =
    fn(&[&FusionInput], SearchOptions) -> Result<Vec<Vec<u32>>, HfuseError>;

/// Checks the members and the options, then compiles both register
/// variants of every partition `sweep` yields, in sweep order (infeasible
/// shapes and failed fusions are skipped, like failed compiles in the
/// paper).
fn compile_sweep<'a>(
    cfg: &GpuConfig,
    inputs: &'a [&'a FusionInput],
    opts: SearchOptions,
    sweep: PartitionSweep,
) -> Result<Sweep<'a>, HfuseError> {
    if inputs.len() < 2 {
        return Err(HfuseError::Config(
            "a fusion search needs at least two inputs".to_owned(),
        ));
    }
    let grid_dim = inputs[0].grid_dim;
    if let Some(other) = inputs.iter().find(|i| i.grid_dim != grid_dim) {
        return Err(HfuseError::Config(format!(
            "grid dimensions must match for fusion ({grid_dim} vs {})",
            other.grid_dim
        )));
    }
    if opts.granularity == 0 {
        return Err(HfuseError::Config(
            "search granularity must be at least 1".to_owned(),
        ));
    }
    if opts.d0 == 0 || opts.d0 > MAX_BLOCK_THREADS {
        return Err(HfuseError::Config(format!(
            "fused block size d0 = {} must be in 1..={MAX_BLOCK_THREADS}",
            opts.d0
        )));
    }
    let members = inputs
        .iter()
        .map(|inp| Ok(Arc::new(lower_kernel(&inp.kernel)?)))
        .collect::<Result<Vec<_>, HfuseError>>()?;
    let nregs: Vec<u32> = members.iter().map(|ir| ir.reg_pressure()).collect();
    let dynamic_shared = inputs.iter().map(|i| i.dynamic_shared).sum();

    let mut candidates = Vec::new();
    for partition in sweep(inputs, opts)? {
        let members: Option<Vec<_>> = inputs
            .iter()
            .zip(&partition)
            .map(|(inp, &d)| Some((&inp.kernel, inp.shape.dims(d)?)))
            .collect();
        let Some(Ok(fused)) = members.map(|m| fuse_members(&m, FuseOptions::default())) else {
            continue;
        };
        let ir = Arc::new(lower_kernel(&fused.function)?);
        let pressures: Vec<(u32, u32)> = partition
            .iter()
            .copied()
            .zip(nregs.iter().copied())
            .collect();
        let d0 = partition.iter().sum();
        let r0 = register_bound_many(cfg, &pressures, ir.shared_bytes(dynamic_shared), d0);
        let mut capped = (*ir).clone();
        apply_register_bound(&mut capped, r0);
        candidates.push(Candidate {
            partition: partition.clone(),
            bound: None,
            function: fused.function.clone(),
            ir,
        });
        candidates.push(Candidate {
            partition,
            bound: Some(r0),
            function: fused.function,
            ir: Arc::new(capped),
        });
    }
    Ok(Sweep {
        inputs,
        members,
        candidates,
        grid_dim,
        dynamic_shared,
    })
}

/// One member's per-class issue histogram.
type Issues = [u64; gpu_sim::IssueKind::COUNT];

/// Member `m`'s per-class issue histogram, from one functional pass of its
/// native launch: the histogram a timed run reports, without the timing
/// engine ([`Gpu::run_functional_classes`]).
fn member_issues(base: &Gpu, sweep: &Sweep, m: usize) -> Result<Issues, HfuseError> {
    let launch = native_launch(sweep.inputs[m], Arc::clone(&sweep.members[m]))?;
    Ok(base.clone().run_functional_classes(&[launch])?)
}

/// A candidate's expected per-thread dynamic mix: the members' measured
/// histograms `Σ_i I_i / d_i` at its partition, plus its static spills.
fn candidate_mix(cfg: &GpuConfig, issues: &[Issues], cand: &Candidate) -> gpu_sim::DynMix {
    let s = gpu_sim::static_class_mix(&cand.ir);
    let members: Vec<_> = issues
        .iter()
        .copied()
        .zip(cand.partition.iter().copied())
        .collect();
    gpu_sim::fused_dyn_mix(cfg, &members, s.spills, s.total())
}

/// The static score every candidate is profiled in ascending order of.
/// Given the members' histograms (`issues`, from the model filter), the
/// calibrated occupancy-aware per-latency-class model over
/// [`candidate_mix`]; otherwise the legacy single-weight estimate
/// ([`gpu_sim::cost_estimate`]). Pure given the measurements, so scores
/// are identical across pruned/exhaustive arms.
fn score(cfg: &GpuConfig, sweep: &Sweep, issues: Option<&[Issues]>) -> Vec<u64> {
    sweep
        .candidates
        .iter()
        .map(|c| {
            let (regs, d0) = (c.ir.reg_pressure(), c.d0());
            let shared = c.ir.shared_bytes(sweep.dynamic_shared);
            match issues {
                Some(issues) => {
                    let mix = candidate_mix(cfg, issues, c);
                    gpu_sim::model_estimate(cfg, regs, d0, shared, sweep.grid_dim, &mix)
                }
                None => {
                    let weight = weighted_inst_cost(&c.ir);
                    gpu_sim::cost_estimate(cfg, regs, d0, shared, sweep.grid_dim, weight)
                }
            }
        })
        .collect()
}

/// One candidate's profile, or why it has none.
type Profiled = Result<SearchCandidate, HfuseError>;

/// Every candidate of `sweep` profiled, aligned with its order, with
/// `reg_bound` and `model_score` set; and the members' issue histograms
/// (empty without `model_filter`).
///
/// Candidates are ranked by [`score`] and profiled in ascending order in
/// two phases:
///
/// 1. **The front** — the top-[`MODEL_TOP_K`] unique programs plus every
///    near-tie within [`MODEL_MARGIN`] of the best score — profiles
///    without a budget. With `prune` off, every candidate is in the front.
/// 2. **Every other candidate** profiles at one fixed budget: the fewest
///    cycles among the front's completed runs.
///
/// A run whose true cycle count is at most its budget completes with its
/// exact unbudgeted result, and the budget is a completed run's cycle
/// count, so the winner and every surviving candidate's cycles equal the
/// exhaustive search's. Each budget depends only on the inputs, never on
/// which worker finished first, so the whole result — every abort value
/// included — is identical at any `HFUSE_SEARCH_THREADS` worker count.
///
/// The model's ranking needs the members' histograms, so their functional
/// passes run first.
///
/// # Errors
///
/// A member pass that fails; per-candidate failures are returned in
/// place.
fn profile_jobs(
    base: &Gpu,
    sweep: &Sweep,
    prune: bool,
    model_filter: bool,
) -> Result<(Vec<Profiled>, Vec<Issues>), HfuseError> {
    let jobs = &sweep.candidates;
    let cfg = base.config();

    // Identical compiled programs simulate to identical results, so each
    // unique `(ir, d0)` is profiled once and the result is shared. This
    // fires on every partition whose register-bound variant is a no-op
    // (the cap at or above the unbounded pressure compiles to the same
    // instruction stream), which halves the profile work on the paper's
    // DL pairs.
    let mut canon: Vec<usize> = (0..jobs.len()).collect();
    for i in 0..jobs.len() {
        for j in 0..i {
            if canon[j] == j
                && jobs[j].d0() == jobs[i].d0()
                && (Arc::ptr_eq(&jobs[j].ir, &jobs[i].ir) || *jobs[j].ir == *jobs[i].ir)
            {
                canon[i] = j;
                break;
            }
        }
    }
    let mut order: Vec<usize> = (0..jobs.len()).filter(|&i| canon[i] == i).collect();

    let issues = if model_filter {
        (0..sweep.inputs.len())
            .map(|m| member_issues(base, sweep, m))
            .collect::<Result<Vec<_>, _>>()?
    } else {
        Vec::new()
    };
    let scores = score(cfg, sweep, model_filter.then_some(&issues[..]));
    order.sort_by_key(|&i| (scores[i], i));

    // The front is a prefix of `order`: ranks are over unique programs, so
    // the top-k are k *distinct* candidates, and near-ties sort first.
    let front_len = if prune {
        let best_score = order.first().map_or(u64::MAX, |&i| scores[i]);
        order
            .iter()
            .enumerate()
            .take_while(|&(rank, &i)| {
                rank < MODEL_TOP_K
                    || (best_score != u64::MAX
                        && (scores[i] as f64) <= best_score as f64 * MODEL_MARGIN)
            })
            .count()
    } else {
        order.len()
    };
    let (front, rest) = order.split_at(front_len);

    let threads = worker_threads(gpu_sim::env::search_threads());
    let profile = |budget: u64| move |&i: &usize| profile_fused(base, sweep, &jobs[i], budget);
    let mut results = parallel_map(threads, front, profile(u64::MAX));
    let budget = results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|c| c.cycles)
        .min()
        .unwrap_or(u64::MAX);
    results.extend(parallel_map(threads, rest, profile(budget)));

    let mut slots: Vec<Option<Profiled>> = (0..jobs.len()).map(|_| None).collect();
    for (&i, r) in order.iter().zip(results) {
        slots[i] = Some(r);
    }
    // Duplicates share their canonical program's result verbatim.
    for i in 0..jobs.len() {
        if canon[i] != i {
            slots[i] = slots[canon[i]].clone();
        }
    }
    let results = slots
        .into_iter()
        .zip(jobs.iter().zip(scores))
        .map(|(r, (job, score))| {
            let mut r = r.expect("every candidate profiled");
            if let Ok(c) = &mut r {
                c.reg_bound = job.bound;
                c.model_score = score;
            }
            r
        })
        .collect();
    Ok((results, issues))
}

/// Maps `f` over `items` on `threads` workers — the calling thread plus
/// `threads - 1` scoped ones — that pull indices from a shared cursor and
/// return each result with its index, so the output is in `items` order
/// whichever worker ran what. One worker is the same loop on the calling
/// thread.
fn parallel_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(k) else { break };
            done.push((k, f(item)));
        }
        done
    };
    let mut done = std::thread::scope(|scope| {
        let workers: Vec<_> = (1..threads.min(items.len()))
            .map(|_| scope.spawn(work))
            .collect();
        let mut done = work();
        for w in workers {
            done.extend(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, r)| r).collect()
}

/// What the search body found: every schedulable candidate's partition
/// and profile, in sweep order, and the winner.
pub(crate) struct Searched {
    /// `(partition, profile)` per candidate; `reg_bound` and `model_score`
    /// are set, `d1`/`d2` are left for the pairwise report to fill in.
    pub(crate) candidates: Vec<(Vec<u32>, SearchCandidate)>,
    /// Index of the fastest candidate.
    pub(crate) best_idx: usize,
    /// The fused function of the best candidate.
    pub(crate) best_function: Function,
    /// The compiled best kernel.
    pub(crate) best_kernel: KernelIr,
    /// Wall-clock milliseconds spent compiling candidates.
    pub(crate) compile_ms: f64,
    /// Wall-clock milliseconds spent ranking and profiling candidates.
    pub(crate) profile_ms: f64,
}

/// The Fig. 6 search body shared by [`search_fusion_config`] and
/// [`search_multi_fusion_config`](crate::multi::search_multi_fusion_config):
/// check the members and options and compile both register variants of
/// every partition `sweep` yields ([`compile_sweep`]), rank them
/// ([`score`]) and profile them best-first ([`profile_jobs`]), and pick
/// the fewest cycles among the completed runs (the first on a tie).
pub(crate) fn search_members(
    base: &Gpu,
    inputs: &[&FusionInput],
    opts: SearchOptions,
    sweep: PartitionSweep,
) -> Result<Searched, HfuseError> {
    let compile_start = Instant::now();
    let sweep = compile_sweep(base.config(), inputs, opts, sweep)?;
    let compile_ms = compile_start.elapsed().as_secs_f64() * 1e3;

    let profile_start = Instant::now();
    let (results, _) = profile_jobs(base, &sweep, opts.prune, opts.model_filter)?;
    let profile_ms = profile_start.elapsed().as_secs_f64() * 1e3;

    let mut candidates = Vec::new();
    let mut best: Option<(u64, usize, Function, Arc<KernelIr>)> = None;
    for (cand, result) in sweep.candidates.into_iter().zip(results) {
        match result {
            Ok(c) => {
                let idx = candidates.len();
                // A pruned candidate's clock already exceeded some
                // completed candidate's cycles, so it can never be the
                // minimum — skip it explicitly.
                if c.pruned_at.is_none() && best.as_ref().is_none_or(|(cyc, ..)| c.cycles < *cyc) {
                    best = Some((c.cycles, idx, cand.function, cand.ir));
                }
                candidates.push((cand.partition, c));
            }
            // Unschedulable configuration (e.g. shared memory over budget);
            // skip it, like a failed compile in the paper.
            Err(HfuseError::Sim(_)) => continue,
            Err(e) => return Err(e),
        }
    }

    let (_, best_idx, best_function, best_kernel) = best
        .ok_or_else(|| HfuseError::Config("no feasible fusion configuration found".to_owned()))?;
    let best_kernel = Arc::try_unwrap(best_kernel).unwrap_or_else(|shared| (*shared).clone());
    Ok(Searched {
        candidates,
        best_idx,
        best_function,
        best_kernel,
        compile_ms,
        profile_ms,
    })
}

/// The candidate partitions the Fig. 6 sweep visits for a pair: every
/// multiple of the granularity below `d0` for the first kernel when both
/// kernels are tunable, the native block sizes otherwise.
fn sweep_partitions(
    inputs: &[&FusionInput],
    opts: SearchOptions,
) -> Result<Vec<Vec<u32>>, HfuseError> {
    Ok(if inputs.iter().all(|i| i.tunable) {
        (1..)
            .map(|k| k * opts.granularity)
            .take_while(|&d1| d1 < opts.d0)
            .map(|d1| vec![d1, opts.d0 - d1])
            .collect()
    } else {
        vec![inputs.iter().map(|i| i.default_threads).collect()]
    })
}

/// Builds calibration observations for `hfuse bench --calibrate`: compiles
/// exactly the candidates [`search_fusion_config`] would for this pair,
/// profiles every one to completion (no pruning, no model filter), and
/// pairs each candidate's static model features with its simulated cycle
/// count. Unschedulable candidates are skipped.
///
/// # Errors
///
/// Returns [`HfuseError`] on mismatched grids, absurd options, or a
/// non-scheduling profile failure.
pub fn calibration_rows(
    base: &Gpu,
    in1: &FusionInput,
    in2: &FusionInput,
    opts: SearchOptions,
) -> Result<Vec<gpu_sim::model::CalibrationRow>, HfuseError> {
    let cfg = base.config();
    let inputs = [in1, in2];
    let sweep = compile_sweep(cfg, &inputs, opts, sweep_partitions)?;
    // Every candidate profiles to completion, so the ranking is irrelevant.
    let (results, issues) = profile_jobs(base, &sweep, false, true)?;
    let mut rows = Vec::new();
    for (cand, result) in sweep.candidates.iter().zip(results) {
        let c = match result {
            Ok(c) => c,
            Err(HfuseError::Sim(_)) => continue,
            Err(e) => return Err(e),
        };
        rows.extend(gpu_sim::model::CalibrationRow::new(
            cfg,
            cand.ir.reg_pressure(),
            cand.d0(),
            cand.ir.shared_bytes(sweep.dynamic_shared),
            sweep.grid_dim,
            &candidate_mix(cfg, &issues, cand),
            c.cycles,
        ));
    }
    Ok(rows)
}

/// The register bound of Fig. 6 lines 13–16: the two-member case of
/// [`register_bound_many`].
///
/// `nregs1`/`nregs2` are the register pressures of the original kernels;
/// `shmem_fused` the fused kernel's total shared bytes per block.
pub fn register_bound(
    cfg: &GpuConfig,
    d1: u32,
    nregs1: u32,
    d2: u32,
    nregs2: u32,
    shmem_fused: u32,
    d0: u32,
) -> u32 {
    register_bound_many(cfg, &[(d1, nregs1), (d2, nregs2)], shmem_fused, d0)
}

/// Runs the full Fig. 6 search: sweep partitions, profile each candidate
/// with and without the register bound, and return the fastest.
///
/// Both inputs must use the same grid dimension. For non-tunable kernels
/// (crypto), the single candidate is the kernels' native block sizes.
///
/// A thin wrapper over a throwaway [`Session`](crate::db::Session); callers
/// that search repeatedly or incrementally should hold a `Session` and use
/// [`search_winner`](crate::db::Session::search_winner), which memoizes.
///
/// # Errors
///
/// Returns [`HfuseError::Config`] on mismatched grids, a granularity of 0,
/// a `d0` outside `1..=`[`MAX_BLOCK_THREADS`], or when no candidate
/// partition is feasible, and [`HfuseError`] when a profile run fails.
pub fn search_fusion_config(
    base: &Gpu,
    in1: &FusionInput,
    in2: &FusionInput,
    opts: SearchOptions,
) -> Result<SearchReport, HfuseError> {
    let mut s = crate::db::Session::with_gpu(base.clone());
    s.set_search_options(opts);
    let a = s.add_fusion_input(in1);
    let b = s.add_fusion_input(in2);
    let report = s.search_winner(a, b)?;
    Ok(Arc::try_unwrap(report).unwrap_or_else(|shared| (*shared).clone()))
}

/// The pairwise Fig. 6 search: [`search_members`] over the pair sweep;
/// [`Session::search_winner`](crate::db::Session::search_winner) calls this
/// on cache misses.
pub(crate) fn search_fusion_config_impl(
    base: &Gpu,
    in1: &FusionInput,
    in2: &FusionInput,
    opts: SearchOptions,
) -> Result<SearchReport, HfuseError> {
    let s = search_members(base, &[in1, in2], opts, sweep_partitions)?;
    // The winner's block size: `opts.d0` only when the pair is tunable.
    let d0 = s.candidates[s.best_idx].0.iter().sum();
    Ok(SearchReport {
        candidates: s
            .candidates
            .into_iter()
            .map(|(p, c)| SearchCandidate {
                d1: p[0],
                d2: p[1],
                ..c
            })
            .collect(),
        best_idx: s.best_idx,
        best_function: s.best_function,
        best_kernel: s.best_kernel,
        d0,
        compile_ms: s.compile_ms,
        profile_ms: s.profile_ms,
    })
}

/// Measures native co-execution of the two kernels (two launches on
/// parallel streams; the simulator's leftover block-dispatch policy).
///
/// A thin wrapper over a throwaway [`Session`](crate::db::Session); see
/// [`Session::native`](crate::db::Session::native) for the memoized form.
///
/// # Errors
///
/// Returns [`HfuseError`] if a launch is invalid or faults.
pub fn measure_native(
    base: &Gpu,
    in1: &FusionInput,
    in2: &FusionInput,
) -> Result<gpu_sim::RunResult, HfuseError> {
    let mut s = crate::db::Session::with_gpu(base.clone());
    let a = s.add_fusion_input(in1);
    let b = s.add_fusion_input(in2);
    let r = s.native(a, b)?;
    Ok(Arc::try_unwrap(r).unwrap_or_else(|shared| (*shared).clone()))
}

/// The launch that runs `inp` unfused, compiled to `kernel`: its default
/// block shape, its grid and its arguments.
fn native_launch(inp: &FusionInput, kernel: Arc<KernelIr>) -> Result<Launch, HfuseError> {
    Ok(Launch {
        kernel,
        grid_dim: inp.grid_dim,
        block_dim: inp.dims(inp.default_threads, "bad default block shape")?,
        dynamic_shared_bytes: inp.dynamic_shared,
        args: inp.args.clone(),
    })
}

/// The body of [`measure_native`]; `Session::native` calls this on misses.
pub(crate) fn measure_native_impl(
    base: &Gpu,
    in1: &FusionInput,
    in2: &FusionInput,
) -> Result<gpu_sim::RunResult, HfuseError> {
    let launches = [
        native_launch(in1, lower_kernel(&in1.kernel)?.into())?,
        native_launch(in2, lower_kernel(&in2.kernel)?.into())?,
    ];
    Ok(base.clone().run(&launches)?)
}

/// Measures one kernel alone (for Fig. 8's per-kernel metrics).
///
/// A thin wrapper over a throwaway [`Session`](crate::db::Session); see
/// [`Session::single`](crate::db::Session::single) for the memoized form.
///
/// # Errors
///
/// Returns [`HfuseError`] if the launch is invalid or faults.
pub fn measure_single(base: &Gpu, inp: &FusionInput) -> Result<gpu_sim::RunResult, HfuseError> {
    let mut s = crate::db::Session::with_gpu(base.clone());
    let k = s.add_fusion_input(inp);
    let r = s.single(k)?;
    Ok(Arc::try_unwrap(r).unwrap_or_else(|shared| (*shared).clone()))
}

/// The body of [`measure_single`]; `Session::single` calls this on misses.
pub(crate) fn measure_single_impl(
    base: &Gpu,
    inp: &FusionInput,
) -> Result<gpu_sim::RunResult, HfuseError> {
    let launch = native_launch(inp, lower_kernel(&inp.kernel)?.into())?;
    Ok(base.clone().run(&[launch])?)
}

/// Measures the vertically fused kernel. Requires matching block and grid
/// dimensions.
///
/// # Errors
///
/// Returns [`HfuseError`] on mismatched geometry or simulation failure.
pub fn measure_vertical(
    base: &Gpu,
    in1: &FusionInput,
    in2: &FusionInput,
) -> Result<gpu_sim::RunResult, HfuseError> {
    if in1.grid_dim != in2.grid_dim {
        return Err(HfuseError::Config(
            "vertical fusion requires equal grids".to_owned(),
        ));
    }
    let threads = in1.default_threads.max(in2.default_threads);
    let error = "bad block shape for vertical fusion";
    let (dims1, dims2) = (in1.dims(threads, error)?, in2.dims(threads, error)?);
    let v = crate::vertical::vertical_fuse_shaped(&in1.kernel, dims1, &in2.kernel, dims2)?;
    let kernel = lower_kernel(&v.function)?.into();
    let launch = fused_launch(kernel, &[in1, in2], v.block_threads);
    Ok(base.clone().run(&[launch])?)
}

/// Measures the *naive* horizontal fusion: even thread-space partition, no
/// profiling, no register bound (the `Naive` series in Fig. 7).
///
/// # Errors
///
/// Returns [`HfuseError`] on infeasible shapes or simulation failure.
pub fn measure_naive_horizontal(
    base: &Gpu,
    in1: &FusionInput,
    in2: &FusionInput,
    d0: u32,
) -> Result<gpu_sim::RunResult, HfuseError> {
    let (d1, d2) = if in1.tunable && in2.tunable {
        (d0 / 2, d0 / 2)
    } else {
        (in1.default_threads, in2.default_threads)
    };
    let error = "even partition incompatible with shape";
    let (dims1, dims2) = (in1.dims(d1, error)?, in2.dims(d2, error)?);
    let fused = horizontal_fuse(&in1.kernel, dims1, &in2.kernel, dims2)?;
    let kernel = lower_kernel(&fused.function)?.into();
    let launch = fused_launch(kernel, &[in1, in2], d1 + d2);
    Ok(base.clone().run(&[launch])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_frontend::parse_kernel;
    use gpu_sim::GpuConfig;

    fn mk_gpu() -> (Gpu, FusionInput, FusionInput) {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let n = 2048usize;
        let x = gpu.memory_mut().alloc_f32(n);
        let y = gpu.memory_mut().alloc_f32(n);
        let k1 = parse_kernel(
            "__global__ void writer(float* x, int n) {\
               for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n;\
                    i += gridDim.x * blockDim.x) { x[i] = i * 2.0f; }\
             }",
        )
        .expect("parse");
        let k2 = parse_kernel(
            "__global__ void summer(float* y, int n) {\
               for (int i = blockIdx.x * blockDim.x + threadIdx.x; i < n;\
                    i += gridDim.x * blockDim.x) {\
                 float acc = 0.0f;\
                 for (int j = 0; j < 8; j++) { acc += j * 1.5f; }\
                 y[i] = acc;\
               }\
             }",
        )
        .expect("parse");
        let in1 = FusionInput {
            kernel: k1,
            args: vec![ParamValue::Ptr(x), ParamValue::I32(n as i32)],
            grid_dim: 4,
            dynamic_shared: 0,
            default_threads: 256,
            tunable: true,
            shape: BlockShape::Linear,
        };
        let in2 = FusionInput {
            kernel: k2,
            args: vec![ParamValue::Ptr(y), ParamValue::I32(n as i32)],
            grid_dim: 4,
            dynamic_shared: 0,
            default_threads: 256,
            tunable: true,
            shape: BlockShape::Linear,
        };
        (gpu, in1, in2)
    }

    #[test]
    fn block_shape_dims() {
        assert_eq!(BlockShape::Linear.dims(256), Some((256, 1, 1)));
        assert_eq!(BlockShape::Rows { y: 16 }.dims(896), Some((56, 16, 1)));
        assert_eq!(BlockShape::Rows { y: 16 }.dims(100), None);
    }

    #[test]
    fn register_bound_matches_paper_formula() {
        let cfg = GpuConfig::pascal_like();
        // d1 = 896, 32 regs → b1 = 65536/28672 = 2; d2 = 128, 16 regs →
        // b2 = 32; shmem 24K → 4; threads → 2; b0 = 2 → r0 = 65536/2048 = 32.
        let r0 = register_bound(&cfg, 896, 32, 128, 16, 24 * 1024, 1024);
        assert_eq!(r0, 32);
    }

    #[test]
    fn register_bound_handles_zero_shmem() {
        let cfg = GpuConfig::pascal_like();
        let r0 = register_bound(&cfg, 512, 16, 512, 16, 0, 1024);
        // b1 = b2 = 8, threads limit = 2 → b0 = 2 → r0 = 32.
        assert_eq!(r0, 32);
    }

    #[test]
    fn search_finds_a_best_candidate() {
        let (gpu, in1, in2) = mk_gpu();
        let report = search_fusion_config(
            &gpu,
            &in1,
            &in2,
            SearchOptions {
                d0: 512,
                granularity: 128,
                ..SearchOptions::default()
            },
        )
        .expect("search");
        // 3 partitions × 2 register variants.
        assert_eq!(report.candidates.len(), 6);
        let best = report.best();
        assert!(report.candidates.iter().all(|c| c.cycles >= best.cycles));
        assert_eq!(best.d1 + best.d2, 512);
        assert!(report.best_kernel.insts.len() > 10);
    }

    #[test]
    fn pruned_search_matches_exhaustive_best_and_survivors() {
        let (gpu, in1, in2) = mk_gpu();
        let opts = SearchOptions {
            d0: 512,
            granularity: 128,
            ..SearchOptions::default()
        };
        let pruned = search_fusion_config(&gpu, &in1, &in2, opts).expect("pruned search");
        let exhaustive = search_fusion_config(
            &gpu,
            &in1,
            &in2,
            SearchOptions {
                prune: false,
                ..opts
            },
        )
        .expect("exhaustive search");
        assert!(exhaustive.pruned_count() == 0);
        assert_eq!(pruned.candidates.len(), exhaustive.candidates.len());
        assert_eq!(pruned.best_idx, exhaustive.best_idx);
        assert_eq!(pruned.best().cycles, exhaustive.best().cycles);
        assert_eq!(pruned.best_kernel, exhaustive.best_kernel);
        for (p, e) in pruned.candidates.iter().zip(&exhaustive.candidates) {
            assert_eq!((p.d1, p.d2, p.reg_bound), (e.d1, e.d2, e.reg_bound));
            if p.pruned_at.is_none() {
                // Survivors report the exact exhaustive cycle count.
                assert_eq!(p.cycles, e.cycles);
            } else {
                // Pruned candidates report the abort value, which is a
                // lower bound on the true count and past the winner.
                assert_eq!(p.pruned_at, Some(p.cycles));
                assert!(p.cycles <= e.cycles);
                assert!(p.cycles > pruned.best().cycles);
            }
        }
    }

    #[test]
    fn worker_threads_honors_explicit_override_above_cap() {
        assert_eq!(worker_threads(Some(12)), 12);
        assert_eq!(worker_threads(Some(3)), 3);
        assert_eq!(worker_threads(Some(0)), 1);
        // Unset (or unparseable, which gpu_sim::env maps to None) falls
        // back to the capped auto-detected default.
        assert!(worker_threads(None) >= 1);
        assert!(worker_threads(None) <= 8);
    }

    #[test]
    fn parallel_map_keeps_item_order_at_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 8, 64] {
            assert_eq!(parallel_map(threads, &items, |x| x * x), expected);
        }
        assert!(parallel_map(4, &[] as &[u64], |x| *x).is_empty());
    }

    #[test]
    fn model_filtered_search_matches_unfiltered_winner() {
        let (gpu, in1, in2) = mk_gpu();
        let opts = SearchOptions {
            d0: 512,
            granularity: 128,
            ..SearchOptions::default()
        };
        assert!(opts.model_filter, "model filter is on by default");
        let filtered = search_fusion_config(&gpu, &in1, &in2, opts).expect("filtered");
        let unfiltered = search_fusion_config(
            &gpu,
            &in1,
            &in2,
            SearchOptions {
                model_filter: false,
                ..opts
            },
        )
        .expect("unfiltered");
        let exhaustive = search_fusion_config(
            &gpu,
            &in1,
            &in2,
            SearchOptions {
                prune: false,
                ..opts
            },
        )
        .expect("exhaustive");
        // Winner identity holds across all three arms.
        for arm in [&unfiltered, &exhaustive] {
            assert_eq!(filtered.best_idx, arm.best_idx);
            assert_eq!(filtered.best().cycles, arm.best().cycles);
            assert_eq!(filtered.best_kernel, arm.best_kernel);
        }
        // Model scores are pure statics: identical between the filtered and
        // (unpruned) exhaustive arm, which both use the model ordering.
        for (f, e) in filtered.candidates.iter().zip(&exhaustive.candidates) {
            assert_eq!(f.model_score, e.model_score);
        }
        // The winner completed, so its issue histogram is populated and the
        // report can explain it.
        assert!(filtered.best().class_issues.iter().sum::<u64>() > 0);
        assert!(filtered.best_model_rank() >= 1);
        let text = filtered.explain_best();
        assert!(text.contains("model rank"), "{text}");
        assert!(text.contains("issue mix"), "{text}");
    }

    #[test]
    fn weighted_inst_cost_ranks_memory_heavier_than_alu() {
        let (_, in1, in2) = mk_gpu();
        let mem_ir = lower_kernel(&in1.kernel).expect("lower");
        let alu_ir = lower_kernel(&in2.kernel).expect("lower");
        assert!(weighted_inst_cost(&mem_ir) > mem_ir.insts.len() as u64);
        assert!(weighted_inst_cost(&alu_ir) >= alu_ir.insts.len() as u64);
    }

    #[test]
    fn search_rejects_mismatched_grids() {
        let (gpu, in1, mut in2) = mk_gpu();
        in2.grid_dim = 8;
        assert!(matches!(
            search_fusion_config(&gpu, &in1, &in2, SearchOptions::default()),
            Err(HfuseError::Config(_))
        ));
    }

    #[test]
    fn search_rejects_absurd_options() {
        // A granularity of 0 would step the sweep forever, and a d0 past the
        // launch limit yields partitions that can never launch.
        let (gpu, in1, in2) = mk_gpu();
        for (d0, granularity) in [(512, 0), (2048, 128), (u32::MAX, 1), (0, 128)] {
            let opts = SearchOptions {
                d0,
                granularity,
                ..SearchOptions::default()
            };
            assert!(
                matches!(
                    search_fusion_config(&gpu, &in1, &in2, opts),
                    Err(HfuseError::Config(_))
                ),
                "d0 {d0} at granularity {granularity}"
            );
            assert!(matches!(
                calibration_rows(&gpu, &in1, &in2, opts),
                Err(HfuseError::Config(_))
            ));
        }
    }

    #[test]
    fn non_tunable_pair_uses_native_partition() {
        let (gpu, mut in1, mut in2) = mk_gpu();
        in1.tunable = false;
        in2.tunable = false;
        in1.default_threads = 128;
        in2.default_threads = 128;
        let report =
            search_fusion_config(&gpu, &in1, &in2, SearchOptions::default()).expect("search");
        assert_eq!(report.candidates.len(), 2); // one partition, two variants
        assert_eq!(report.best().d1, 128);
        assert_eq!(report.best().d2, 128);
        assert_eq!(report.d0, 256);
    }

    #[test]
    fn measurement_helpers_run() {
        let (gpu, in1, in2) = mk_gpu();
        let native = measure_native(&gpu, &in1, &in2).expect("native");
        assert!(native.total_cycles > 0);
        let single = measure_single(&gpu, &in1).expect("single");
        assert!(single.total_cycles > 0);
        assert!(single.total_cycles <= native.total_cycles);
        let vertical = measure_vertical(&gpu, &in1, &in2).expect("vertical");
        assert!(vertical.total_cycles > 0);
        let naive = measure_naive_horizontal(&gpu, &in1, &in2, 512).expect("naive");
        assert!(naive.total_cycles > 0);
    }

    #[test]
    fn fused_results_match_native_memory_state() {
        // Run native and fused functionally and compare output buffers.
        let (gpu, in1, in2) = mk_gpu();
        let mut native = gpu.clone();
        native
            .run_functional(&[
                Launch {
                    kernel: lower_kernel(&in1.kernel).expect("lower").into(),
                    grid_dim: 4,
                    block_dim: (256, 1, 1),
                    dynamic_shared_bytes: 0,
                    args: in1.args.clone(),
                },
                Launch {
                    kernel: lower_kernel(&in2.kernel).expect("lower").into(),
                    grid_dim: 4,
                    block_dim: (256, 1, 1),
                    dynamic_shared_bytes: 0,
                    args: in2.args.clone(),
                },
            ])
            .expect("native run");

        let fused =
            horizontal_fuse(&in1.kernel, (256, 1, 1), &in2.kernel, (256, 1, 1)).expect("fuse");
        let mut gpu2 = gpu.clone();
        let mut args = in1.args.clone();
        args.extend(in2.args.iter().copied());
        gpu2.run_functional(&[Launch {
            kernel: lower_kernel(&fused.function).expect("lower").into(),
            grid_dim: 4,
            block_dim: (512, 1, 1),
            dynamic_shared_bytes: 0,
            args,
        }])
        .expect("fused run");

        let (ParamValue::Ptr(x), ParamValue::Ptr(y)) = (in1.args[0], in2.args[0]) else {
            panic!("pointer args expected");
        };
        assert_eq!(native.memory().read_f32s(x), gpu2.memory().read_f32s(x));
        assert_eq!(native.memory().read_f32s(y), gpu2.memory().read_f32s(y));
    }
}
