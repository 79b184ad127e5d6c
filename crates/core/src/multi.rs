//! N-way horizontal fusion — the natural generalization of the paper's
//! two-kernel `Generate` algorithm and Fig. 6 search.
//!
//! PTX provides 16 named barrier resources; fusion reserves id 0 (unused)
//! and assigns ids 1..=15 to member kernels, so up to fifteen kernels with
//! barriers can share one block. Pairwise fusion is the two-member case of
//! the same code: [`horizontal_fuse_many`] runs the one generator in
//! [`fuse`](crate::fuse) (validation, barrier elimination, guards, the
//! static safety gate), and [`search_multi_fusion_config`] runs the one
//! search body in [`search`](crate::search) over its own partition sweep.

use cuda_frontend::ast::Function;
use cuda_frontend::printer::print_function;
use cuda_frontend::FrontendError;
use gpu_sim::{Gpu, GpuConfig};
use thread_ir::ir::KernelIr;

use crate::fuse::{fuse_members, FuseOptions};
use crate::search::{search_members, FusionInput, HfuseError, SearchOptions};

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
    /// `__syncthreads()` statements the value-range analysis proved
    /// redundant and removed from the members before interleaving
    /// (`HFUSE_NO_BARRIER_ELIM=1` forces 0).
    pub barriers_eliminated: u32,
    /// True when the safety gate accepted this fusion from the members'
    /// range summaries alone, without analyzing the fused function.
    pub gate_fast_path: bool,
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

/// Horizontally fuses any number of kernels (2..=15), in order. Two parts
/// give exactly [`horizontal_fuse`](crate::fuse::horizontal_fuse)'s
/// function.
///
/// # Errors
///
/// Returns [`FrontendError`] when fewer than two parts are given, when more
/// than [`MAX_FUSED_KERNELS`] are given, when any partition boundary is not
/// warp-aligned, when more than one member needs `extern __shared__`
/// memory, when a member already contains raw `bar.sync` barriers, or when
/// the fused kernel fails the static safety gate.
pub fn horizontal_fuse_many(parts: &[FusionPart]) -> Result<MultiFusedKernel, FrontendError> {
    let members: Vec<_> = parts.iter().map(|p| (&p.kernel, p.dims)).collect();
    fuse_members(&members, FuseOptions::default())
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
    /// Profiled execution cycles (for a pruned candidate, its `pruned_at`).
    pub cycles: u64,
    /// Issue-slot utilization (%). Zero for pruned candidates.
    pub issue_util: f64,
    /// Achieved occupancy (%). Zero for pruned candidates.
    pub occupancy: f64,
    /// `Some(cycles)` when the profile run was budget-aborted: the abort
    /// clock, or the critical-path lower bound of a run that was never
    /// simulated (see [`SearchCandidate::pruned_at`](crate::SearchCandidate::pruned_at)).
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

/// The N-way sweep: every composition of `d0` in steps of the granularity
/// (the first [`MAX_MULTI_PARTITIONS`]) when all members are tunable, the
/// native block sizes otherwise. When the granularity does not divide
/// `d0`, the last member absorbs the remainder, so partitions always sum
/// to exactly `d0`.
fn sweep_compositions(
    inputs: &[&FusionInput],
    opts: SearchOptions,
) -> Result<Vec<Vec<u32>>, HfuseError> {
    if !inputs.iter().all(|i| i.tunable) {
        return Ok(vec![inputs.iter().map(|i| i.default_threads).collect()]);
    }
    let units = opts.d0 / opts.granularity;
    if (units as usize) < inputs.len() {
        return Err(HfuseError::Config(format!(
            "d0 {} at granularity {} cannot cover {} kernels",
            opts.d0,
            opts.granularity,
            inputs.len()
        )));
    }
    let leftover = opts.d0 - units * opts.granularity;
    Ok(compositions(units, inputs.len(), MAX_MULTI_PARTITIONS)
        .into_iter()
        .map(|c| {
            let mut parts: Vec<u32> = c.into_iter().map(|u| u * opts.granularity).collect();
            *parts.last_mut().expect("non-empty composition") += leftover;
            parts
        })
        .collect())
}

/// Runs the Fig. 6 configuration search generalized to N kernels: the
/// pairwise search's body (compile both register variants of every
/// partition, rank, profile best-first with the two-phase branch-and-bound
/// schedule, keep the fastest) over the compositions of `opts.d0` in steps
/// of `opts.granularity` (the first [`MAX_MULTI_PARTITIONS`], the last
/// member absorbing any remainder) when every member is tunable, the native
/// block sizes otherwise. The report is identical at any worker count.
///
/// # Errors
///
/// Returns [`HfuseError::Config`] on fewer than two inputs, mismatched
/// grids, a granularity of 0, a `d0` outside
/// `1..=`[`gpu_sim::MAX_BLOCK_THREADS`] or too small to give every member a
/// granule, or when no partition is feasible, and [`HfuseError`] when a
/// profile run fails for a non-scheduling reason.
pub fn search_multi_fusion_config(
    base: &Gpu,
    inputs: &[FusionInput],
    opts: SearchOptions,
) -> Result<MultiSearchReport, HfuseError> {
    let members: Vec<&FusionInput> = inputs.iter().collect();
    let s = search_members(base, &members, opts, sweep_compositions)?;
    let candidates: Vec<MultiSearchCandidate> = s
        .candidates
        .into_iter()
        .map(|(partition, c)| MultiSearchCandidate {
            partition,
            reg_bound: c.reg_bound,
            cycles: c.cycles,
            issue_util: c.issue_util,
            occupancy: c.occupancy,
            pruned_at: c.pruned_at,
        })
        .collect();
    let d0 = candidates[s.best_idx].partition.iter().sum();
    Ok(MultiSearchReport {
        candidates,
        best_idx: s.best_idx,
        best_function: s.best_function,
        best_kernel: s.best_kernel,
        d0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_frontend::parse_kernel;
    use gpu_sim::ParamValue;

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
    fn rejects_absurd_search_options() {
        let (gpu, inputs) = mk_search_inputs();
        for (d0, granularity) in [(256, 0), (2048, 64), (u32::MAX, 1), (0, 64)] {
            let opts = SearchOptions {
                d0,
                granularity,
                ..SearchOptions::default()
            };
            assert!(
                matches!(
                    search_multi_fusion_config(&gpu, &inputs, opts),
                    Err(HfuseError::Config(_))
                ),
                "d0 {d0} at granularity {granularity}"
            );
        }
    }

    #[test]
    fn pairwise_fusion_agrees_with_generic() {
        // Two parts through the N-way entry point give exactly the pairwise
        // entry point's function, or the same rejection, on the DL kernels:
        // barriers, `Rows` shapes and dynamic shared memory.
        let dl = ["Batchnorm", "Hist", "Im2Col", "Maxpool", "Upsample"]
            .map(|n| hfuse_kernels::AnyBenchmark::by_name(n).expect("DL kernel"));
        let mut fused = 0;
        for a in &dl {
            for b in &dl {
                let (ba, bb) = (a.benchmark(), b.benchmark());
                for (d1, d2) in [(256, 768), (512, 512)] {
                    let dims1 = ba.shape().dims(d1).expect("shape");
                    let dims2 = bb.shape().dims(d2).expect("shape");
                    let (ka, kb) = (ba.kernel(), bb.kernel());
                    let two = crate::fuse::horizontal_fuse(&ka, dims1, &kb, dims2);
                    let many = horizontal_fuse_many(&[
                        FusionPart::new(ka, dims1),
                        FusionPart::new(kb, dims2),
                    ]);
                    let what = format!("{}+{} at {d1}+{d2}", a.name(), b.name());
                    match (two, many) {
                        (Ok(two), Ok(many)) => {
                            assert_eq!(two.function, many.function, "{what}");
                            assert_eq!(vec![two.d1, two.d2], many.partitions, "{what}");
                            assert_eq!(two.params_split, many.param_counts[0], "{what}");
                            assert_eq!(
                                (two.barriers_eliminated, two.gate_fast_path),
                                (many.barriers_eliminated, many.gate_fast_path),
                                "{what}"
                            );
                            fused += 1;
                        }
                        (Err(two), Err(many)) => {
                            assert_eq!(two.to_string(), many.to_string(), "{what}")
                        }
                        (two, many) => panic!("{what}: {:?} vs {:?}", two.err(), many.err()),
                    }
                }
            }
        }
        // Only the Hist+Hist pair is rejected (two dynamic shared users).
        assert_eq!(fused, 48);
    }

    #[test]
    fn guards_leave_out_bounds_that_always_hold() {
        let parts = vec![
            FusionPart::new(writer("a", 1.0), (64, 1, 1)),
            FusionPart::new(writer("b", 2.0), (64, 1, 1)),
            FusionPart::new(writer("c", 3.0), (64, 1, 1)),
        ];
        let src = horizontal_fuse_many(&parts).expect("fuse").to_source();
        assert!(src.contains("if (!(__hf_gtid < 64))"), "{src}");
        assert!(
            src.contains("if (!(__hf_gtid >= 64 && __hf_gtid < 128))"),
            "{src}"
        );
        assert!(src.contains("if (__hf_gtid < 128)"), "{src}");
        assert!(!src.contains(">= 0"), "{src}");
        assert!(!src.contains("< 192"), "{src}");
    }
}
