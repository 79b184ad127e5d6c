//! N-way horizontal fusion — the natural generalization of the paper's
//! two-kernel `Generate` algorithm.
//!
//! PTX provides 16 named barrier resources; fusion reserves id 0 (unused)
//! and assigns ids 1..=15 to member kernels, so up to fifteen kernels with
//! barriers can share one block. Every member gets its own contiguous
//! thread interval, thread-id remap prologue, and goto guard, exactly as in
//! the pairwise algorithm.

use std::sync::Arc;

use cuda_frontend::ast::{Axis, BinOp, Block, BuiltinVar, Expr, Function, Param, Stmt, Ty, UnOp};
use cuda_frontend::printer::print_function;
use cuda_frontend::transform::{preprocess_kernel, replace_builtins, NameGen};
use cuda_frontend::FrontendError;
use gpu_sim::{Gpu, GpuConfig, ParamValue};
use thread_ir::ir::KernelIr;
use thread_ir::lower_kernel;
use thread_ir::spill::apply_register_bound;

use crate::remap::{decl_i32, ThreadRemap};
use crate::search::{legacy_scores, profile_jobs, ProfileJob};
use crate::search::{FusionInput, HfuseError, SearchOptions};

/// Maximum member kernels: PTX has 16 barrier ids and fusion assigns one
/// per member starting at 1.
pub const MAX_FUSED_KERNELS: usize = 15;

/// One member of an N-way fusion: the kernel and its block shape.
#[derive(Debug, Clone)]
pub struct FusionPart {
    /// The kernel to fuse.
    pub kernel: Function,
    /// Its original block shape.
    pub dims: (u32, u32, u32),
}

impl FusionPart {
    /// Creates a part.
    pub fn new(kernel: Function, dims: (u32, u32, u32)) -> Self {
        Self { kernel, dims }
    }

    fn threads(&self) -> u32 {
        self.dims.0 * self.dims.1 * self.dims.2
    }
}

/// An N-way horizontally fused kernel.
#[derive(Debug, Clone)]
pub struct MultiFusedKernel {
    /// The fused `__global__` function.
    pub function: Function,
    /// Thread interval sizes, in member order.
    pub partitions: Vec<u32>,
    /// Number of parameters contributed by each member (the fused parameter
    /// list concatenates the members' parameters in order).
    pub param_counts: Vec<usize>,
}

impl MultiFusedKernel {
    /// Total threads per fused block.
    pub fn block_threads(&self) -> u32 {
        self.partitions.iter().sum()
    }

    /// Pretty-prints the fused kernel as CUDA source.
    pub fn to_source(&self) -> String {
        print_function(&self.function)
    }
}

/// Horizontally fuses any number of kernels (2..=15).
///
/// # Errors
///
/// Returns [`FrontendError`] when fewer than two parts are given, when more
/// than [`MAX_FUSED_KERNELS`] are given, when any partition boundary is not
/// warp-aligned, when more than one member needs `extern __shared__`
/// memory, or when a member already contains raw `bar.sync` barriers.
pub fn horizontal_fuse_many(parts: &[FusionPart]) -> Result<MultiFusedKernel, FrontendError> {
    if parts.len() < 2 {
        return Err(FrontendError::new("fusion needs at least two kernels"));
    }
    if parts.len() > MAX_FUSED_KERNELS {
        return Err(FrontendError::new(format!(
            "cannot fuse {} kernels: PTX provides only {MAX_FUSED_KERNELS} usable barrier ids",
            parts.len()
        )));
    }
    // Every boundary except the final end must be warp-aligned so partial
    // barriers synchronize whole warps.
    let mut offset = 0u32;
    for (i, p) in parts.iter().enumerate() {
        let t = p.threads();
        if t == 0 {
            return Err(FrontendError::new(format!(
                "member {i} has an empty block shape"
            )));
        }
        if i + 1 < parts.len() && !(offset + t).is_multiple_of(32) {
            return Err(FrontendError::new(format!(
                "partition boundary after member {i} ({}) must be a multiple of the warp size",
                offset + t
            )));
        }
        offset += t;
    }

    let mut names = NameGen::new();
    let mut prepped: Vec<Function> = Vec::with_capacity(parts.len());
    for (i, p) in parts.iter().enumerate() {
        let mut f = p.kernel.clone();
        preprocess_kernel(&mut f, &[], &mut names)?;
        if contains_bar_sync(&f.body) {
            return Err(FrontendError::new(format!(
                "member {i} already contains bar.sync barriers; cannot assign fresh ids"
            )));
        }
        prepped.push(f);
    }
    let dyn_users = prepped.iter().filter(|f| uses_dynamic_shared(f)).count();
    if dyn_users > 1 {
        return Err(FrontendError::new(format!(
            "{dyn_users} members use extern __shared__ memory; the fused kernel has one dynamic region"
        )));
    }

    let gtid = "__hf_gtid";
    let mut decls: Vec<Stmt> = Vec::new();
    let mut prologue: Vec<Stmt> = Vec::new();
    prologue.push(decl_i32(
        gtid,
        Some(Expr::Builtin(BuiltinVar::ThreadIdx(Axis::X))),
    ));
    let mut guarded: Vec<Stmt> = Vec::new();
    let mut params: Vec<Param> = Vec::new();
    let mut param_counts = Vec::with_capacity(parts.len());
    let mut partitions = Vec::with_capacity(parts.len());

    let mut offset = 0u32;
    for (i, (part, f)) in parts.iter().zip(prepped).enumerate() {
        let d = part.threads();
        let barrier_id = (i + 1) as u32;
        let (part_decls, mut stmts) = split_decls(f.body);
        decls.extend(part_decls.into_iter().map(Stmt::Decl));

        // Remap builtins through this member's prologue variables.
        let ltid = if offset == 0 {
            Expr::ident(gtid)
        } else {
            Expr::bin(BinOp::Sub, Expr::ident(gtid), Expr::int(i64::from(offset)))
        };
        let remap = ThreadRemap::new(&format!("__hf_k{}", i + 1), part.dims, ltid);
        prologue.extend(remap.decls());
        let mut b = Block::new(stmts);
        replace_builtins(&mut b, &remap.subst());
        stmts = b.stmts;
        replace_barriers(&mut stmts, barrier_id, d);

        // Guard: skip unless offset <= gtid < offset + d.
        let in_range = Expr::bin(
            BinOp::LogAnd,
            Expr::bin(BinOp::Ge, Expr::ident(gtid), Expr::int(i64::from(offset))),
            Expr::bin(
                BinOp::Lt,
                Expr::ident(gtid),
                Expr::int(i64::from(offset + d)),
            ),
        );
        let end_label = format!("__hf_k{}_end", i + 1);
        guarded.push(Stmt::If(
            Expr::Unary(UnOp::Not, Box::new(in_range)),
            Block::new(vec![Stmt::Goto(end_label.clone())]),
            None,
        ));
        guarded.extend(stmts);
        guarded.push(Stmt::Label(end_label));

        param_counts.push(f.params.len());
        params.extend(f.params);
        partitions.push(d);
        offset += d;
    }

    let mut body = decls;
    body.extend(prologue);
    body.extend(guarded);
    let name = parts
        .iter()
        .map(|p| p.kernel.name.as_str())
        .collect::<Vec<_>>()
        .join("_");
    Ok(MultiFusedKernel {
        function: Function {
            name: format!("{name}_fused"),
            params,
            ret: Ty::Void,
            is_kernel: true,
            body: Block::new(body),
        },
        partitions,
        param_counts,
    })
}

fn split_decls(body: Block) -> (Vec<cuda_frontend::ast::VarDecl>, Vec<Stmt>) {
    let mut decls = Vec::new();
    let mut rest = Vec::new();
    let mut in_prefix = true;
    for s in body.stmts {
        match s {
            Stmt::Decl(d) if in_prefix => decls.push(d),
            other => {
                in_prefix = false;
                rest.push(other);
            }
        }
    }
    (decls, rest)
}

fn replace_barriers(stmts: &mut [Stmt], id: u32, count: u32) {
    for s in stmts {
        match s {
            Stmt::SyncThreads => *s = Stmt::BarSync { id, count },
            Stmt::If(_, t, e) => {
                replace_barriers(&mut t.stmts, id, count);
                if let Some(e) = e {
                    replace_barriers(&mut e.stmts, id, count);
                }
            }
            Stmt::For { body, .. } | Stmt::While(_, body) | Stmt::DoWhile(body, _) => {
                replace_barriers(&mut body.stmts, id, count)
            }
            Stmt::Switch { cases, .. } => {
                for case in cases {
                    replace_barriers(&mut case.body, id, count);
                }
            }
            Stmt::Block(b) => replace_barriers(&mut b.stmts, id, count),
            _ => {}
        }
    }
}

fn contains_bar_sync(b: &Block) -> bool {
    let mut found = false;
    let mut clone = b.clone();
    cuda_frontend::transform::visit::walk_stmts(&mut clone, &mut |s| {
        if matches!(s, Stmt::BarSync { .. }) {
            found = true;
        }
    });
    found
}

/// The Fig. 6 register bound generalized to N members: `members` holds each
/// member's `(threads, reg_pressure)`, `shmem_fused` the fused kernel's
/// total shared bytes per block, and `d0` the fused block threads.
pub fn register_bound_many(
    cfg: &GpuConfig,
    members: &[(u32, u32)],
    shmem_fused: u32,
    d0: u32,
) -> u32 {
    let mut b0 = u32::MAX;
    for &(d, nregs) in members {
        b0 = b0.min(cfg.regs_per_sm / (d * nregs).max(1));
    }
    let b_sh = cfg
        .shared_per_sm
        .checked_div(shmem_fused)
        .unwrap_or(u32::MAX);
    let b_th = cfg.max_threads_per_sm / d0.max(1);
    let b0 = b0.min(b_sh).min(b_th).max(1);
    (cfg.regs_per_sm / (b0 * d0).max(1)).max(1)
}

/// One profiled N-way fusion configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSearchCandidate {
    /// Threads assigned to each member, in input order.
    pub partition: Vec<u32>,
    /// Register bound applied (`None` = unbounded compile).
    pub reg_bound: Option<u32>,
    /// Profiled execution cycles (for a pruned candidate, the abort clock).
    pub cycles: u64,
    /// Issue-slot utilization (%). Zero for pruned candidates.
    pub issue_util: f64,
    /// Achieved occupancy (%). Zero for pruned candidates.
    pub occupancy: f64,
    /// `Some(clock)` when the profile run was budget-aborted.
    pub pruned_at: Option<u64>,
}

/// The N-way search result.
#[derive(Debug, Clone)]
pub struct MultiSearchReport {
    /// All profiled configurations, in search order.
    pub candidates: Vec<MultiSearchCandidate>,
    /// Index of the fastest candidate.
    pub best_idx: usize,
    /// The fused function of the best candidate.
    pub best_function: Function,
    /// The compiled best kernel (with the winning register bound applied).
    pub best_kernel: KernelIr,
    /// Fused block dimension of the best candidate.
    pub d0: u32,
}

impl MultiSearchReport {
    /// The winning configuration.
    pub fn best(&self) -> &MultiSearchCandidate {
        &self.candidates[self.best_idx]
    }

    /// How many candidates were budget-aborted by branch-and-bound pruning.
    pub fn pruned_count(&self) -> usize {
        self.candidates
            .iter()
            .filter(|c| c.pruned_at.is_some())
            .count()
    }
}

/// Enumerates compositions of `units` into `slots` positive parts, in
/// lexicographic order, stopping at `cap` results.
fn compositions(units: u32, slots: usize, cap: usize) -> Vec<Vec<u32>> {
    fn rec(remaining: u32, slots: usize, cur: &mut Vec<u32>, out: &mut Vec<Vec<u32>>, cap: usize) {
        if out.len() >= cap {
            return;
        }
        if slots == 1 {
            if remaining >= 1 {
                let mut v = cur.clone();
                v.push(remaining);
                out.push(v);
            }
            return;
        }
        let max_take = remaining.saturating_sub(slots as u32 - 1);
        for take in 1..=max_take {
            cur.push(take);
            rec(remaining - take, slots - 1, cur, out, cap);
            cur.pop();
            if out.len() >= cap {
                return;
            }
        }
    }
    let mut out = Vec::new();
    rec(units, slots, &mut Vec::with_capacity(slots), &mut out, cap);
    out
}

/// Candidate-count guard for the N-way sweep: the composition space grows
/// combinatorially, so the sweep takes the first `MAX_MULTI_PARTITIONS`
/// partitions in lexicographic order and profiles those.
pub const MAX_MULTI_PARTITIONS: usize = 64;

/// Runs the Fig. 6 configuration search generalized to N kernels: sweep
/// thread-space partitions of `opts.d0` (every composition in steps of
/// `opts.granularity` when all members are tunable, the native block sizes
/// otherwise), profile each candidate with and without the generalized
/// register bound, and return the fastest. Profiling reuses the pairwise
/// search's two-phase branch-and-bound schedule (an unbudgeted best-first
/// front, then one fixed cycle budget for the rest), so the report is
/// identical at any worker count.
///
/// # Errors
///
/// Returns [`HfuseError`] on mismatched grids, when no partition is
/// feasible, or when a profile run fails for a non-scheduling reason.
pub fn search_multi_fusion_config(
    base: &Gpu,
    inputs: &[FusionInput],
    opts: SearchOptions,
) -> Result<MultiSearchReport, HfuseError> {
    if inputs.len() < 2 {
        return Err(HfuseError::Config(
            "multi-kernel search needs at least two inputs".to_owned(),
        ));
    }
    let grid = inputs[0].grid_dim;
    if inputs.iter().any(|i| i.grid_dim != grid) {
        return Err(HfuseError::Config(
            "grid dimensions must match for fusion".to_owned(),
        ));
    }
    let cfg = base.config().clone();
    let mut nregs = Vec::with_capacity(inputs.len());
    for inp in inputs {
        nregs.push(lower_kernel(&inp.kernel)?.reg_pressure());
    }

    let partitions: Vec<Vec<u32>> = if inputs.iter().all(|i| i.tunable) {
        let units = opts.d0 / opts.granularity.max(1);
        if (units as usize) < inputs.len() {
            return Err(HfuseError::Config(format!(
                "d0 {} at granularity {} cannot cover {} kernels",
                opts.d0,
                opts.granularity,
                inputs.len()
            )));
        }
        let leftover = opts.d0 - units * opts.granularity;
        compositions(units, inputs.len(), MAX_MULTI_PARTITIONS)
            .into_iter()
            .map(|c| {
                let mut parts: Vec<u32> = c.into_iter().map(|u| u * opts.granularity).collect();
                // Non-divisible d0: the last member absorbs the remainder so
                // partitions always sum to exactly d0.
                *parts.last_mut().expect("non-empty composition") += leftover;
                parts
            })
            .collect()
    } else {
        vec![inputs.iter().map(|i| i.default_threads).collect()]
    };

    struct Candidate {
        partition: Vec<u32>,
        bound: Option<u32>,
        fused: MultiFusedKernel,
        ir: Arc<KernelIr>,
    }
    let total_dyn_shared: u32 = inputs.iter().map(|i| i.dynamic_shared).sum();
    let mut compiled: Vec<Candidate> = Vec::new();
    for partition in partitions {
        let mut parts = Vec::with_capacity(inputs.len());
        let mut ok = true;
        for (inp, &d) in inputs.iter().zip(&partition) {
            match inp.shape.dims(d) {
                Some(dims) => parts.push(FusionPart::new(inp.kernel.clone(), dims)),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let Ok(fused) = horizontal_fuse_many(&parts) else {
            continue;
        };
        let d0: u32 = partition.iter().sum();
        let ir = Arc::new(lower_kernel(&fused.function)?);
        let shmem_fused = ir.shared_bytes(total_dyn_shared);
        let members: Vec<(u32, u32)> = partition
            .iter()
            .copied()
            .zip(nregs.iter().copied())
            .collect();
        let r0 = register_bound_many(&cfg, &members, shmem_fused, d0);
        let mut ir_capped = (*ir).clone();
        apply_register_bound(&mut ir_capped, r0);
        compiled.push(Candidate {
            partition: partition.clone(),
            bound: None,
            fused: fused.clone(),
            ir,
        });
        compiled.push(Candidate {
            partition,
            bound: Some(r0),
            fused,
            ir: Arc::new(ir_capped),
        });
    }

    let fused_args: Vec<ParamValue> = inputs.iter().flat_map(|i| i.args.iter().copied()).collect();
    let jobs: Vec<ProfileJob> = compiled
        .iter()
        .map(|c| ProfileJob {
            ir: Arc::clone(&c.ir),
            d0: c.partition.iter().sum(),
        })
        .collect();
    // Model ranking: one native measurement per member kernel, then each
    // candidate is scored over its `Σ_i I_i[c] / d_i` dynamic mix (the
    // N-kernel generalization of the pairwise model).
    let scores = if opts.model_filter {
        let mut issues = Vec::with_capacity(inputs.len());
        for inp in inputs {
            issues.push(
                crate::search::measure_single_impl(base, inp)?
                    .metrics
                    .class_issues,
            );
        }
        compiled
            .iter()
            .map(|c| {
                let s = gpu_sim::static_class_mix(&c.ir);
                let members: Vec<_> = issues
                    .iter()
                    .copied()
                    .zip(c.partition.iter().copied())
                    .collect();
                let mix = gpu_sim::fused_dyn_mix(&cfg, &members, s.spills, s.total());
                let d0: u32 = c.partition.iter().sum();
                gpu_sim::model_estimate(
                    &cfg,
                    c.ir.reg_pressure(),
                    d0,
                    c.ir.shared_bytes(total_dyn_shared),
                    grid,
                    &mix,
                )
            })
            .collect()
    } else {
        legacy_scores(&cfg, &jobs, grid, total_dyn_shared)
    };
    let results = profile_jobs(
        base,
        &jobs,
        &fused_args,
        grid,
        total_dyn_shared,
        opts.prune,
        &scores,
    );

    let mut candidates = Vec::new();
    let mut best: Option<(u64, usize, Function, Arc<KernelIr>)> = None;
    for (cand, result) in compiled.into_iter().zip(results) {
        match result {
            Ok(c) => {
                let idx = candidates.len();
                if c.pruned_at.is_none() && best.as_ref().is_none_or(|(cyc, ..)| c.cycles < *cyc) {
                    best = Some((c.cycles, idx, cand.fused.function, cand.ir));
                }
                candidates.push(MultiSearchCandidate {
                    partition: cand.partition,
                    reg_bound: cand.bound,
                    cycles: c.cycles,
                    issue_util: c.issue_util,
                    occupancy: c.occupancy,
                    pruned_at: c.pruned_at,
                });
            }
            Err(HfuseError::Sim(_)) => continue,
            Err(e) => return Err(e),
        }
    }

    let (_, best_idx, best_function, best_kernel) = best
        .ok_or_else(|| HfuseError::Config("no feasible fusion configuration found".to_owned()))?;
    let best_kernel = Arc::try_unwrap(best_kernel).unwrap_or_else(|shared| (*shared).clone());
    let d0 = candidates[best_idx].partition.iter().sum();
    Ok(MultiSearchReport {
        candidates,
        best_idx,
        best_function,
        best_kernel,
        d0,
    })
}

fn uses_dynamic_shared(f: &Function) -> bool {
    let mut found = false;
    let mut clone = f.body.clone();
    cuda_frontend::transform::visit::walk_stmts(&mut clone, &mut |s| {
        if matches!(s, Stmt::Decl(d) if d.quals.extern_shared) {
            found = true;
        }
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_frontend::parse_kernel;

    fn writer(name: &str, value: f32) -> Function {
        parse_kernel(&format!(
            "__global__ void {name}(float* out) {{\
               out[blockIdx.x * blockDim.x + threadIdx.x] = {value:?}f;\
             }}"
        ))
        .expect("parse")
    }

    fn barrier_kernel(name: &str) -> Function {
        parse_kernel(&format!(
            "__global__ void {name}(float* out) {{\
               __shared__ float s[64];\
               s[threadIdx.x % 64] = threadIdx.x;\
               __syncthreads();\
               out[blockIdx.x * blockDim.x + threadIdx.x] = s[0];\
             }}"
        ))
        .expect("parse")
    }

    #[test]
    fn fuses_three_kernels() {
        let parts = vec![
            FusionPart::new(writer("a", 1.0), (128, 1, 1)),
            FusionPart::new(writer("b", 2.0), (64, 1, 1)),
            FusionPart::new(writer("c", 3.0), (32, 1, 1)),
        ];
        let fused = horizontal_fuse_many(&parts).expect("fuse");
        assert_eq!(fused.block_threads(), 224);
        assert_eq!(fused.partitions, vec![128, 64, 32]);
        assert_eq!(fused.param_counts, vec![1, 1, 1]);
        let src = fused.to_source();
        for label in ["__hf_k1_end", "__hf_k2_end", "__hf_k3_end"] {
            assert!(src.contains(label), "{src}");
        }
        // The emitted source reparses.
        parse_kernel(&src).expect("reparse");
    }

    #[test]
    fn assigns_distinct_barrier_ids() {
        let parts = vec![
            FusionPart::new(barrier_kernel("a"), (64, 1, 1)),
            FusionPart::new(barrier_kernel("b"), (64, 1, 1)),
            FusionPart::new(barrier_kernel("c"), (64, 1, 1)),
        ];
        let fused = horizontal_fuse_many(&parts).expect("fuse");
        let src = fused.to_source();
        assert!(src.contains("bar.sync 1, 64;"), "{src}");
        assert!(src.contains("bar.sync 2, 64;"), "{src}");
        assert!(src.contains("bar.sync 3, 64;"), "{src}");
    }

    #[test]
    fn rejects_too_few_or_too_many() {
        let one = vec![FusionPart::new(writer("a", 1.0), (32, 1, 1))];
        assert!(horizontal_fuse_many(&one).is_err());
        let many: Vec<FusionPart> = (0..16)
            .map(|i| FusionPart::new(writer(&format!("k{i}"), 1.0), (32, 1, 1)))
            .collect();
        assert!(horizontal_fuse_many(&many).is_err());
    }

    #[test]
    fn rejects_unaligned_interior_boundary() {
        let parts = vec![
            FusionPart::new(writer("a", 1.0), (48, 1, 1)),
            FusionPart::new(writer("b", 2.0), (80, 1, 1)),
        ];
        assert!(horizontal_fuse_many(&parts).is_err());
    }

    #[test]
    fn compositions_enumerate_and_cap() {
        assert_eq!(
            compositions(4, 3, 64),
            vec![vec![1, 1, 2], vec![1, 2, 1], vec![2, 1, 1]]
        );
        assert_eq!(compositions(6, 2, 2).len(), 2); // capped
        assert!(compositions(2, 3, 64).is_empty()); // infeasible
    }

    #[test]
    fn register_bound_many_matches_pairwise_on_two_members() {
        let cfg = GpuConfig::pascal_like();
        let pairwise = crate::search::register_bound(&cfg, 896, 32, 128, 16, 24 * 1024, 1024);
        let many = register_bound_many(&cfg, &[(896, 32), (128, 16)], 24 * 1024, 1024);
        assert_eq!(pairwise, many);
    }

    fn mk_search_inputs() -> (Gpu, Vec<FusionInput>) {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let grid = 4u32;
        let d0 = 256u32;
        let mut inputs = Vec::new();
        for (i, v) in [1.0f32, 2.0, 3.0].into_iter().enumerate() {
            let buf = gpu.memory_mut().alloc_f32((grid * d0) as usize);
            inputs.push(FusionInput {
                kernel: writer(&format!("k{i}"), v),
                args: vec![ParamValue::Ptr(buf)],
                grid_dim: grid,
                dynamic_shared: 0,
                default_threads: 64,
                tunable: true,
                shape: crate::search::BlockShape::Linear,
            });
        }
        (gpu, inputs)
    }

    #[test]
    fn multi_search_finds_best_three_way_partition() {
        let (gpu, inputs) = mk_search_inputs();
        let opts = SearchOptions {
            d0: 256,
            granularity: 64,
            ..SearchOptions::default()
        };
        let report = search_multi_fusion_config(&gpu, &inputs, opts).expect("search");
        // 3 compositions of 4 units into 3 parts × 2 register variants.
        assert_eq!(report.candidates.len(), 6);
        let best = report.best();
        assert_eq!(best.partition.iter().sum::<u32>(), 256);
        assert_eq!(report.d0, 256);
        assert!(report.candidates.iter().all(|c| c.cycles >= best.cycles));
        assert!(report.best_kernel.insts.len() > 10);
    }

    #[test]
    fn multi_search_pruned_matches_exhaustive_best() {
        let (gpu, inputs) = mk_search_inputs();
        let opts = SearchOptions {
            d0: 256,
            granularity: 64,
            ..SearchOptions::default()
        };
        let pruned = search_multi_fusion_config(&gpu, &inputs, opts).expect("pruned");
        let exhaustive = search_multi_fusion_config(
            &gpu,
            &inputs,
            SearchOptions {
                prune: false,
                ..opts
            },
        )
        .expect("exhaustive");
        assert_eq!(exhaustive.pruned_count(), 0);
        assert_eq!(pruned.best_idx, exhaustive.best_idx);
        assert_eq!(pruned.best().cycles, exhaustive.best().cycles);
        assert_eq!(pruned.best_kernel, exhaustive.best_kernel);
        for (p, e) in pruned.candidates.iter().zip(&exhaustive.candidates) {
            assert_eq!((&p.partition, p.reg_bound), (&e.partition, e.reg_bound));
            if p.pruned_at.is_none() {
                assert_eq!(p.cycles, e.cycles);
            }
        }
    }

    #[test]
    fn multi_search_rejects_infeasible_geometry() {
        let (gpu, inputs) = mk_search_inputs();
        assert!(matches!(
            search_multi_fusion_config(&gpu, &inputs[..1], SearchOptions::default()),
            Err(HfuseError::Config(_))
        ));
        let opts = SearchOptions {
            d0: 64,
            granularity: 64,
            ..SearchOptions::default()
        };
        assert!(matches!(
            search_multi_fusion_config(&gpu, &inputs, opts),
            Err(HfuseError::Config(_))
        ));
    }

    #[test]
    fn pairwise_fusion_agrees_with_generic() {
        // The dedicated two-kernel path and the N-way path must produce
        // equivalent partitions and parameter layouts.
        let a = writer("a", 1.0);
        let b = writer("b", 2.0);
        let two = crate::fuse::horizontal_fuse(&a, (128, 1, 1), &b, (128, 1, 1)).expect("pair");
        let many = horizontal_fuse_many(&[
            FusionPart::new(a, (128, 1, 1)),
            FusionPart::new(b, (128, 1, 1)),
        ])
        .expect("many");
        assert_eq!(two.block_threads(), many.block_threads());
        assert_eq!(two.function.params.len(), many.function.params.len());
    }
}
