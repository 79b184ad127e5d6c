//! The `Generate` algorithm (Fig. 5 of the paper): horizontal fusion of
//! 2..=[`MAX_FUSED_KERNELS`] kernels.
//!
//! One generator serves every entry point: [`horizontal_fuse`] and
//! [`horizontal_fuse_with`] are its two-member case, and
//! [`horizontal_fuse_many`](crate::multi::horizontal_fuse_many) its N-member
//! one. For every member, in order, it
//!
//! 1. validates the member: a non-empty block shape, a warp-aligned
//!    boundary after it unless it is last, at most one `extern __shared__`
//!    user among all members, and no raw `bar.sync` already in its body;
//! 2. preprocesses it (renaming and declaration lifting) with one
//!    [`NameGen`] shared by all members, so their names never collide;
//! 3. drops the barriers the value-range analysis proves redundant, and
//!    keeps the member's range summary from that analysis (skipped under
//!    [`FuseOptions::full_barriers`] and `HFUSE_NO_BARRIER_ELIM`, where the
//!    summary comes from the memoized cache).
//!
//! The fused kernel then
//!
//! 1. merges the members' parameters and lifted declarations, in order,
//! 2. defines prologue variables mapping the fused linear thread id back to
//!    each member's `threadIdx.{x,y,z}` / `blockDim.{x,y,z}`,
//! 3. rewrites member `i`'s `__syncthreads()` to the partial barrier
//!    `bar.sync i, d_i` (ids 1..=15; id 0 stays unused),
//! 4. appends the members' statement lists behind thread-range guards
//!    implemented with `goto` (threads outside a member's interval
//!    `[offset, end)` skip its body). A guard leaves out a bound that always
//!    holds: the first member's `offset` is 0 and the last member's `end` is
//!    the block size, so a pair gets Fig. 4's `if (!(gtid < d1)) goto` and
//!    `if (gtid < d1) goto`, and only middle members test both bounds.
//!
//! Finally the fused kernel passes the static safety gate, which skips
//! analyzing it when every member's range summary is clean.

use cuda_frontend::ast::{Axis, BinOp, Block, BuiltinVar, Expr, Function, Stmt, Ty, UnOp, VarDecl};

use crate::multi::{MultiFusedKernel, MAX_FUSED_KERNELS};
use crate::remap::{decl_i32, ThreadRemap};
use cuda_frontend::printer::print_function;
use cuda_frontend::transform::visit::walk_stmts;
use cuda_frontend::transform::{preprocess_kernel, replace_builtins, NameGen};
use cuda_frontend::FrontendError;

/// A horizontally fused kernel plus the partition metadata needed to launch
/// and profile it.
#[derive(Debug, Clone)]
pub struct FusedKernel {
    /// The fused `__global__` function.
    pub function: Function,
    /// Threads assigned to the first kernel (`d1`).
    pub d1: u32,
    /// Threads assigned to the second kernel (`d2`).
    pub d2: u32,
    /// Original block shape of the first kernel.
    pub dims1: (u32, u32, u32),
    /// Original block shape of the second kernel.
    pub dims2: (u32, u32, u32),
    /// Number of parameters taken by the first kernel (the fused parameter
    /// list is `K1`'s parameters followed by `K2`'s).
    pub params_split: usize,
    /// `__syncthreads()` statements the value-range analysis proved
    /// redundant and removed from the inputs before interleaving
    /// (`HFUSE_NO_BARRIER_ELIM=1` forces 0).
    pub barriers_eliminated: u32,
    /// True when the safety gate accepted this fusion from the two input
    /// kernels' range summaries alone, without analyzing the fused function.
    pub gate_fast_path: bool,
}

impl FusedKernel {
    /// Total threads per fused block (`d1 + d2`).
    pub fn block_threads(&self) -> u32 {
        self.d1 + self.d2
    }

    /// Pretty-prints the fused kernel as CUDA source (goto-guard style, as
    /// in Fig. 4 of the paper).
    pub fn to_source(&self) -> String {
        print_function(&self.function)
    }
}

/// Horizontally fuses `k1` and `k2` with the given block shapes.
///
/// The inputs are preprocessed internally (device-call inlining is the
/// caller's job; renaming and declaration lifting happen here), so plain
/// parsed kernels can be passed directly.
///
/// # Errors
///
/// Returns [`FrontendError`] when a kernel is malformed, when both kernels
/// need `extern __shared__` memory (the fused kernel would alias the single
/// dynamic region), when an input already contains raw `bar.sync`
/// barriers (their ids would collide with the ones fusion assigns), or when
/// the fused kernel fails the static safety gate.
pub fn horizontal_fuse(
    k1: &Function,
    dims1: (u32, u32, u32),
    k2: &Function,
    dims2: (u32, u32, u32),
) -> Result<FusedKernel, FrontendError> {
    horizontal_fuse_with(k1, dims1, k2, dims2, FuseOptions::default())
}

/// Options for [`horizontal_fuse_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuseOptions {
    /// Keep `__syncthreads()` as full-block barriers instead of rewriting
    /// them to partial `bar.sync` barriers. This reproduces the naive
    /// fusion the paper's related work attempted: it couples the two
    /// kernels' phases when their barrier counts match and *deadlocks*
    /// when they do not — the motivation for HFuse's partial barriers.
    pub full_barriers: bool,
}

/// [`horizontal_fuse`] with explicit [`FuseOptions`].
///
/// # Errors
///
/// Same as [`horizontal_fuse`].
pub fn horizontal_fuse_with(
    k1: &Function,
    dims1: (u32, u32, u32),
    k2: &Function,
    dims2: (u32, u32, u32),
    options: FuseOptions,
) -> Result<FusedKernel, FrontendError> {
    let fused = fuse_members(&[(k1, dims1), (k2, dims2)], options)?;
    Ok(FusedKernel {
        function: fused.function,
        d1: fused.partitions[0],
        d2: fused.partitions[1],
        dims1,
        dims2,
        params_split: fused.param_counts[0],
        barriers_eliminated: fused.barriers_eliminated,
        gate_fast_path: fused.gate_fast_path,
    })
}

/// The generator: fuses `members` (each a kernel and its block shape) into
/// one kernel whose thread space gives each member a contiguous interval,
/// in order. See the module docs for the steps.
pub(crate) fn fuse_members(
    members: &[(&Function, (u32, u32, u32))],
    options: FuseOptions,
) -> Result<MultiFusedKernel, FrontendError> {
    if members.len() < 2 {
        return Err(FrontendError::new("fusion needs at least two kernels"));
    }
    if members.len() > MAX_FUSED_KERNELS {
        return Err(FrontendError::new(format!(
            "cannot fuse {} kernels: PTX provides only {MAX_FUSED_KERNELS} usable barrier ids",
            members.len()
        )));
    }
    let partitions: Vec<u32> = members.iter().map(|&(_, (x, y, z))| x * y * z).collect();
    let mut end = 0u32;
    for (i, &d) in partitions.iter().enumerate() {
        if d == 0 {
            return Err(FrontendError::new(format!(
                "member {i} has an empty block shape"
            )));
        }
        end += d;
        if i + 1 < partitions.len() && !end.is_multiple_of(32) {
            return Err(FrontendError::new(format!(
                "partition boundary after member {i} ({end}) must be a multiple of the warp \
                 size (partial barriers synchronize whole warps)"
            )));
        }
    }

    let mut names = NameGen::new();
    let mut prepped: Vec<Function> = Vec::with_capacity(members.len());
    let mut dyn_users = 0;
    for (i, &(kernel, _)) in members.iter().enumerate() {
        let mut f = kernel.clone();
        preprocess_kernel(&mut f, &[], &mut names)?;
        if contains_bar_sync(&mut f.body) {
            return Err(FrontendError::new(format!(
                "member {i} already contains bar.sync barriers; cannot assign fresh ids"
            )));
        }
        dyn_users += usize::from(uses_dynamic_shared(&mut f.body));
        prepped.push(f);
    }
    if dyn_users > 1 {
        return Err(FrontendError::new(format!(
            "{dyn_users} members use extern __shared__ memory; the fused kernel has one dynamic region"
        )));
    }

    // Drop barriers the value-range analysis proves redundant *before*
    // interleaving: every barrier removed here is one fewer partial barrier
    // in the fused kernel. Skipped for the full-barrier ablation (it wants
    // the naive coupling) and under the HFUSE_NO_BARRIER_ELIM hatch.
    //
    // Range summaries of the (preprocessed, barrier-elided) members: when
    // all prove safe on their own, the gate can skip analyzing the fused
    // function. Elimination yields each member's summary from its last
    // analysis; the paths that skip it look the summaries up in the cache.
    let elide = !options.full_barriers && !gpu_sim::env::no_barrier_elim();
    let mut barriers_eliminated = 0;
    let mut gate_fast_path = !hfuse_analysis::static_check_disabled_by_env();
    for (f, &d) in prepped.iter_mut().zip(&partitions) {
        gate_fast_path &= if elide {
            let (removed, summary) = hfuse_analysis::eliminate_redundant_barriers(f, Some(d));
            barriers_eliminated += removed;
            summary.fast_gate_clean()
        } else {
            gate_fast_path
                && hfuse_analysis::summarize_ranges_memoized(f, Some(d)).fast_gate_clean()
        };
    }

    let gtid = "__hf_gtid";
    let mut decls: Vec<Stmt> = Vec::new();
    let mut prologue = vec![decl_i32(
        gtid,
        Some(Expr::Builtin(BuiltinVar::ThreadIdx(Axis::X))),
    )];
    let mut guarded: Vec<Stmt> = Vec::new();
    let mut params = Vec::new();
    let mut param_counts = Vec::with_capacity(members.len());
    let last = members.len() - 1;
    let mut offset = 0u32;
    for (i, (f, &d)) in prepped.into_iter().zip(&partitions).enumerate() {
        let (member_decls, stmts) = split_decls(f.body);
        decls.extend(member_decls.into_iter().map(Stmt::Decl));

        // Retarget built-ins through this member's prologue variables, then
        // rewrite its barriers to partial barriers with its own id (unless
        // the ablation asked for the naive full-block barriers).
        let ltid = if offset == 0 {
            Expr::ident(gtid)
        } else {
            Expr::bin(BinOp::Sub, Expr::ident(gtid), Expr::int(i64::from(offset)))
        };
        let remap = ThreadRemap::new(&format!("__hf_k{}", i + 1), members[i].1, ltid);
        prologue.extend(remap.decls());
        let mut body = Block::new(stmts);
        replace_builtins(&mut body, &remap.subst());
        if !options.full_barriers {
            replace_barriers(&mut body.stmts, i as u32 + 1, d);
        }

        // Skip unless offset <= gtid < end, leaving out the bound that
        // always holds for the first and the last member.
        let end = offset + d;
        let from_offset = |op| Expr::bin(op, Expr::ident(gtid), Expr::int(i64::from(offset)));
        let below_end = Expr::bin(BinOp::Lt, Expr::ident(gtid), Expr::int(i64::from(end)));
        let skip = if i == last {
            from_offset(BinOp::Lt)
        } else if i == 0 {
            Expr::Unary(UnOp::Not, Box::new(below_end))
        } else {
            let in_range = Expr::bin(BinOp::LogAnd, from_offset(BinOp::Ge), below_end);
            Expr::Unary(UnOp::Not, Box::new(in_range))
        };
        let end_label = format!("__hf_k{}_end", i + 1);
        guarded.push(Stmt::If(
            skip,
            Block::new(vec![Stmt::Goto(end_label.clone())]),
            None,
        ));
        guarded.extend(body.stmts);
        guarded.push(Stmt::Label(end_label));

        param_counts.push(f.params.len());
        params.extend(f.params);
        offset = end;
    }

    let mut body = decls;
    body.extend(prologue);
    body.extend(guarded);
    let name = members
        .iter()
        .map(|(k, _)| k.name.as_str())
        .collect::<Vec<_>>()
        .join("_");
    let fused = MultiFusedKernel {
        function: Function {
            name: format!("{name}_fused"),
            params,
            ret: Ty::Void,
            is_kernel: true,
            body: Block::new(body),
        },
        partitions,
        param_counts,
        barriers_eliminated,
        gate_fast_path,
    };
    static_safety_check(&fused)?;
    Ok(fused)
}

/// Rejects fused kernels the static analyzer can prove unsafe: barriers
/// under unresolvable divergent control, malformed partial-barrier
/// structure, definite shared-memory races, or definite out-of-bounds
/// shared accesses. `HFUSE_NO_STATIC_CHECK=1` disables the gate (restoring
/// pre-analyzer behavior exactly, since the check runs after the fused
/// kernel is fully built).
///
/// When every member's range summary already certifies it barrier-free,
/// race-free, and in-bounds ([`MultiFusedKernel::gate_fast_path`]), the
/// interleaved function cannot introduce a new violation — the members run
/// under disjoint `__hf_gtid` guards and the lints are per-block — so the
/// gate skips analyzing the (larger) fused function entirely.
///
/// Goes through the process-wide memoized analysis cache, so re-fusing the
/// same members at the same partition (a `Session` edit that leaves the
/// fused function's printed text unchanged, or a second search of the same
/// pair) analyzes the fused function once, and a kernel already linted by
/// `hfuse lint` is never re-analyzed by the gate. The search itself fuses
/// each partition once and copies the lowered IR for its register-bounded
/// variant.
fn static_safety_check(fused: &MultiFusedKernel) -> Result<(), FrontendError> {
    if hfuse_analysis::static_check_disabled_by_env() || fused.gate_fast_path {
        return Ok(());
    }
    let opts = hfuse_analysis::AnalysisOptions {
        block_threads: Some(fused.block_threads()),
        ..hfuse_analysis::AnalysisOptions::default()
    };
    let diags = hfuse_analysis::analyze_kernel_memoized(&fused.function, None, &opts);
    if diags.is_empty() {
        return Ok(());
    }
    let msgs: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
    Err(FrontendError::new(format!(
        "fused kernel fails static safety checks:\n{}",
        msgs.join("\n")
    )))
}

/// Splits a lifted kernel body into its leading declarations and the rest.
pub(crate) fn split_decls(body: Block) -> (Vec<VarDecl>, Vec<Stmt>) {
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

/// Replaces `__syncthreads()` with `bar.sync id, count` recursively.
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

/// Whether `body` holds a raw `bar.sync` statement. Takes `&mut` only
/// because the statement walker does; nothing is modified.
fn contains_bar_sync(body: &mut Block) -> bool {
    let mut found = false;
    walk_stmts(body, &mut |s| found |= matches!(s, Stmt::BarSync { .. }));
    found
}

/// Whether `body` declares `extern __shared__` memory. Takes `&mut` only
/// because the statement walker does; nothing is modified.
pub(crate) fn uses_dynamic_shared(body: &mut Block) -> bool {
    let mut found = false;
    walk_stmts(body, &mut |s| {
        found |= matches!(s, Stmt::Decl(d) if d.quals.extern_shared)
    });
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_frontend::parse_kernel;

    fn k(src: &str) -> Function {
        parse_kernel(src).expect("parse")
    }

    fn simple_pair() -> (Function, Function) {
        (
            k("__global__ void a(float* x, int n) {\
                 int i = blockIdx.x * blockDim.x + threadIdx.x;\
                 if (i < n) { x[i] = 1.0f; }\
               }"),
            k("__global__ void b(float* y, int m) {\
                 int j = blockIdx.x * blockDim.x + threadIdx.x;\
                 if (j < m) { y[j] = 2.0f; }\
               }"),
        )
    }

    #[test]
    fn fused_kernel_shape() {
        let (a, b) = simple_pair();
        let fused = horizontal_fuse(&a, (128, 1, 1), &b, (64, 1, 1)).expect("fuse");
        assert_eq!(fused.d1, 128);
        assert_eq!(fused.d2, 64);
        assert_eq!(fused.block_threads(), 192);
        assert_eq!(fused.function.params.len(), 4);
        assert_eq!(fused.params_split, 2);
        assert!(fused.function.is_kernel);
    }

    #[test]
    fn fused_source_has_goto_guards_and_reparses() {
        let (a, b) = simple_pair();
        let fused = horizontal_fuse(&a, (128, 1, 1), &b, (128, 1, 1)).expect("fuse");
        let src = fused.to_source();
        assert!(src.contains("goto __hf_k1_end;"), "{src}");
        assert!(src.contains("goto __hf_k2_end;"), "{src}");
        // The emitted CUDA source parses back.
        let reparsed = parse_kernel(&src).expect("reparse fused source");
        assert_eq!(reparsed.name, fused.function.name);
    }

    #[test]
    fn barriers_become_partial_with_distinct_ids() {
        let a = k("__global__ void a(float* x) {\
                     __shared__ float s[64];\
                     s[threadIdx.x % 64] = 0.0f;\
                     __syncthreads();\
                     x[threadIdx.x] = s[0];\
                   }");
        let b = k("__global__ void b(float* y) {\
                     __shared__ float t[32];\
                     t[threadIdx.x % 32] = 1.0f;\
                     __syncthreads();\
                     y[threadIdx.x] = t[0];\
                   }");
        let fused = horizontal_fuse(&a, (96, 1, 1), &b, (160, 1, 1)).expect("fuse");
        let src = fused.to_source();
        assert!(src.contains("bar.sync 1, 96;"), "{src}");
        assert!(src.contains("bar.sync 2, 160;"), "{src}");
        assert!(!src.contains("__syncthreads"), "{src}");
    }

    #[test]
    fn builtins_remapped_to_prologue_vars() {
        let (a, b) = simple_pair();
        let fused = horizontal_fuse(&a, (128, 1, 1), &b, (128, 1, 1)).expect("fuse");
        let src = fused.to_source();
        // The kernels' threadIdx.x references are gone; only the prologue
        // reads the real threadIdx.x.
        assert_eq!(src.matches("threadIdx.x").count(), 1, "{src}");
        assert!(src.contains("__hf_k1_tid_x"), "{src}");
        assert!(src.contains("__hf_k2_tid_x"), "{src}");
        // blockIdx is untouched.
        assert!(src.contains("blockIdx.x"), "{src}");
    }

    #[test]
    fn two_dimensional_block_remap() {
        let a = k("__global__ void a(float* x) {\
                     int t = threadIdx.x + threadIdx.y * blockDim.x;\
                     x[t] = 1.0f;\
                   }");
        let b = k("__global__ void b(float* y) { y[threadIdx.x] = 2.0f; }");
        let fused = horizontal_fuse(&a, (56, 16, 1), &b, (128, 1, 1)).expect("fuse");
        assert_eq!(fused.d1, 896);
        assert_eq!(fused.block_threads(), 1024);
        let src = fused.to_source();
        // y index maps through (ltid / dx) % dy
        assert!(src.contains("% 56"), "{src}");
        assert!(src.contains("/ 56"), "{src}");
    }

    #[test]
    fn non_warp_aligned_partition_rejected() {
        let (a, b) = simple_pair();
        assert!(horizontal_fuse(&a, (100, 1, 1), &b, (28, 1, 1)).is_err());
    }

    #[test]
    fn double_dynamic_shared_rejected() {
        let a = k("__global__ void a(float* x) { extern __shared__ float s[]; s[0] = 0.0f; x[0] = s[0]; }");
        let b = k("__global__ void b(float* y) { extern __shared__ float t[]; t[0] = 1.0f; y[0] = t[0]; }");
        let err = horizontal_fuse(&a, (32, 1, 1), &b, (32, 1, 1)).unwrap_err();
        assert!(err.message().contains("extern __shared__"), "{err}");
    }

    #[test]
    fn preexisting_bar_sync_rejected() {
        let a = k("__global__ void a(float* x) { asm(\"bar.sync 3, 32;\"); x[0] = 1.0f; }");
        let b = k("__global__ void b(float* y) { y[0] = 2.0f; }");
        assert!(horizontal_fuse(&a, (32, 1, 1), &b, (32, 1, 1)).is_err());
    }

    #[test]
    fn parameters_renamed_apart() {
        // Both kernels use the same parameter name `data`.
        let a = k("__global__ void a(float* data) { data[threadIdx.x] = 1.0f; }");
        let b = k("__global__ void b(float* data) { data[threadIdx.x] = 2.0f; }");
        let fused = horizontal_fuse(&a, (32, 1, 1), &b, (32, 1, 1)).expect("fuse");
        let names: Vec<&str> = fused
            .function
            .params
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(names.len(), 2);
        assert_ne!(names[0], names[1]);
    }
}
