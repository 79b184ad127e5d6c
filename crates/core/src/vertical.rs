//! The standard vertical-fusion baseline.
//!
//! Vertical fusion concatenates the two kernels' statements so that every
//! thread of the fused kernel executes the work of its counterpart in *both*
//! originals (middle of Fig. 1 in the paper). The kernels' own
//! `__syncthreads()` barriers are preserved — in the vertically fused kernel
//! they synchronize all threads, which is exactly the original semantics
//! because every thread runs both halves. Since both kernels' shared arrays
//! get disjoint allocations after renaming, no extra barrier between the
//! halves is required for independent kernels.
//!
//! [`vertical_fuse_shaped`] generalizes to kernels with different block
//! *shapes* (e.g. a 2-D batch-norm block fused with a 1-D histogram block):
//! the fused kernel is launched with a linear block and a prologue remaps
//! the linear id to each kernel's original `threadIdx` coordinates, so both
//! kernels see their native geometry.

use cuda_frontend::ast::{Axis, Block, BuiltinVar, Expr, Function, Param, Stmt, Ty};
use cuda_frontend::transform::{preprocess_kernel, replace_builtins, NameGen};
use cuda_frontend::FrontendError;

use crate::fuse::{split_decls, uses_dynamic_shared};
use crate::remap::{decl_i32, ThreadRemap};

/// A vertically fused kernel.
#[derive(Debug, Clone)]
pub struct VerticalFused {
    /// The fused `__global__` function.
    pub function: Function,
    /// Number of parameters belonging to the first kernel.
    pub params_split: usize,
    /// Threads per block the fused kernel must be launched with (linear).
    pub block_threads: u32,
}

/// Vertically fuses `k1` and `k2`, which must run with identical 1-D block
/// and grid dimensions. Built-ins are left untouched.
///
/// # Errors
///
/// Returns [`FrontendError`] if preprocessing fails or if both kernels use
/// `extern __shared__` memory.
pub fn vertical_fuse(k1: &Function, k2: &Function) -> Result<VerticalFused, FrontendError> {
    fuse_impl(k1, None, k2, None, 0)
}

/// Vertically fuses two kernels with explicit (possibly different) block
/// shapes of equal total thread count. The fused kernel is launched with a
/// `(total, 1, 1)` block; prologue variables remap each kernel's
/// `threadIdx` / `blockDim`.
///
/// # Errors
///
/// Returns [`FrontendError`] on mismatched totals or preprocessing failure.
pub fn vertical_fuse_shaped(
    k1: &Function,
    dims1: (u32, u32, u32),
    k2: &Function,
    dims2: (u32, u32, u32),
) -> Result<VerticalFused, FrontendError> {
    let t1 = dims1.0 * dims1.1 * dims1.2;
    let t2 = dims2.0 * dims2.1 * dims2.2;
    if t1 != t2 {
        return Err(FrontendError::new(format!(
            "vertical fusion requires equal thread counts ({t1} vs {t2})"
        )));
    }
    fuse_impl(k1, Some(dims1), k2, Some(dims2), t1)
}

fn fuse_impl(
    k1: &Function,
    dims1: Option<(u32, u32, u32)>,
    k2: &Function,
    dims2: Option<(u32, u32, u32)>,
    total: u32,
) -> Result<VerticalFused, FrontendError> {
    let mut names = NameGen::new();
    let mut f1 = k1.clone();
    let mut f2 = k2.clone();
    preprocess_kernel(&mut f1, &[], &mut names)?;
    preprocess_kernel(&mut f2, &[], &mut names)?;

    if uses_dynamic_shared(&mut f1.body) && uses_dynamic_shared(&mut f2.body) {
        return Err(FrontendError::new(
            "both kernels use extern __shared__ memory; the fused kernel would alias it",
        ));
    }

    let mut body: Vec<Stmt> = Vec::new();
    // Declarations of both kernels first (they were lifted to the top), then
    // the two statement streams in order.
    let (d1, mut s1) = split_decls(f1.body);
    let (d2, mut s2) = split_decls(f2.body);
    body.extend(d1.into_iter().map(Stmt::Decl));
    body.extend(d2.into_iter().map(Stmt::Decl));

    if let (Some(dims1), Some(dims2)) = (dims1, dims2) {
        let gtid = "__vf_gtid";
        body.push(decl_i32(
            gtid,
            Some(Expr::Builtin(BuiltinVar::ThreadIdx(Axis::X))),
        ));
        let remap1 = ThreadRemap::new("__vf_k1", dims1, Expr::ident(gtid));
        let remap2 = ThreadRemap::new("__vf_k2", dims2, Expr::ident(gtid));
        body.extend(remap1.decls());
        body.extend(remap2.decls());
        let mut b1 = Block::new(std::mem::take(&mut s1));
        replace_builtins(&mut b1, &remap1.subst());
        s1 = b1.stmts;
        let mut b2 = Block::new(std::mem::take(&mut s2));
        replace_builtins(&mut b2, &remap2.subst());
        s2 = b2.stmts;
    }

    body.extend(s1);
    body.extend(s2);

    let params: Vec<Param> = f1.params.iter().chain(f2.params.iter()).cloned().collect();
    let params_split = f1.params.len();
    Ok(VerticalFused {
        function: Function {
            name: format!("{}_{}_vfused", k1.name, k2.name),
            params,
            ret: Ty::Void,
            is_kernel: true,
            body: Block::new(body),
        },
        params_split,
        block_threads: total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_frontend::parse_kernel;
    use cuda_frontend::printer::print_function;

    fn k(src: &str) -> Function {
        parse_kernel(src).expect("parse")
    }

    #[test]
    fn concatenates_bodies_and_params() {
        let a = k("__global__ void a(float* x) { x[threadIdx.x] = 1.0f; }");
        let b = k("__global__ void b(float* y) { y[threadIdx.x] = 2.0f; }");
        let v = vertical_fuse(&a, &b).expect("vfuse");
        assert_eq!(v.function.params.len(), 2);
        assert_eq!(v.params_split, 1);
        let src = print_function(&v.function);
        // Both stores present; builtins unchanged.
        assert_eq!(src.matches("threadIdx.x").count(), 2, "{src}");
        assert!(!src.contains("goto"), "{src}");
    }

    #[test]
    fn preserves_barriers_of_both_kernels() {
        let a = k("__global__ void a(float* x) { __shared__ float s[32]; s[threadIdx.x] = 1.0f; __syncthreads(); x[threadIdx.x] = s[0]; }");
        let b = k("__global__ void b(float* y) { __shared__ float t[32]; t[threadIdx.x] = 2.0f; __syncthreads(); y[threadIdx.x] = t[0]; }");
        let v = vertical_fuse(&a, &b).expect("vfuse");
        let src = print_function(&v.function);
        assert_eq!(src.matches("__syncthreads();").count(), 2, "{src}");
    }

    #[test]
    fn fused_source_reparses() {
        let a = k("__global__ void a(float* x, int n) { for (int i = threadIdx.x; i < n; i += blockDim.x) { x[i] = i; } }");
        let b = k("__global__ void b(float* y, int m) { if (threadIdx.x < m) { y[threadIdx.x] = 0.0f; } }");
        let v = vertical_fuse(&a, &b).expect("vfuse");
        let src = print_function(&v.function);
        parse_kernel(&src).expect("reparse vfused source");
    }

    #[test]
    fn double_dynamic_shared_rejected() {
        let a = k("__global__ void a(float* x) { extern __shared__ float s[]; s[0] = 0.0f; x[0] = s[0]; }");
        let b = k("__global__ void b(float* y) { extern __shared__ float t[]; t[0] = 1.0f; y[0] = t[0]; }");
        assert!(vertical_fuse(&a, &b).is_err());
    }

    #[test]
    fn name_collisions_resolved() {
        let a = k("__global__ void a(float* data) { float v = data[0]; data[1] = v; }");
        let b = k("__global__ void b(float* data) { float v = data[2]; data[3] = v; }");
        let v = vertical_fuse(&a, &b).expect("vfuse");
        let names: Vec<&str> = v.function.params.iter().map(|p| p.name.as_str()).collect();
        assert_ne!(names[0], names[1]);
    }

    #[test]
    fn shaped_fusion_remaps_builtins() {
        let a =
            k("__global__ void a(float* x) { x[threadIdx.x + threadIdx.y * blockDim.x] = 1.0f; }");
        let b = k("__global__ void b(float* y) { y[threadIdx.x] = 2.0f; }");
        let v = vertical_fuse_shaped(&a, (32, 16, 1), &b, (512, 1, 1)).expect("vfuse");
        assert_eq!(v.block_threads, 512);
        let src = print_function(&v.function);
        // Only the prologue reads the real threadIdx.x.
        assert_eq!(src.matches("threadIdx.x").count(), 1, "{src}");
        assert!(src.contains("__vf_k1_tid_y"), "{src}");
    }

    #[test]
    fn shaped_fusion_rejects_unequal_totals() {
        let a = k("__global__ void a(float* x) { x[0] = 1.0f; }");
        let b = k("__global__ void b(float* y) { y[0] = 2.0f; }");
        assert!(vertical_fuse_shaped(&a, (64, 1, 1), &b, (128, 1, 1)).is_err());
    }
}
