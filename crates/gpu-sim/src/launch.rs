//! Kernel launch descriptors.

use std::sync::Arc;

use thread_ir::ir::{KernelIr, ParamKind};
use thread_ir::ScalarTy;

use crate::error::SimError;
use crate::memory::BufferId;

/// A kernel argument value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// `int`
    I32(i32),
    /// `unsigned int`
    U32(u32),
    /// `long long`
    I64(i64),
    /// `unsigned long long`
    U64(u64),
    /// `float`
    F32(f32),
    /// `double`
    F64(f64),
    /// Any pointer parameter, bound to a device buffer.
    Ptr(BufferId),
}

impl ParamValue {
    /// Canonical register bits of the value (see `thread_ir::lower` for the
    /// canonical integer forms).
    pub fn to_bits(self) -> u64 {
        match self {
            ParamValue::I32(v) => v as i64 as u64,
            ParamValue::U32(v) => u64::from(v),
            ParamValue::I64(v) => v as u64,
            ParamValue::U64(v) => v,
            ParamValue::F32(v) => u64::from(v.to_bits()),
            ParamValue::F64(v) => v.to_bits(),
            ParamValue::Ptr(b) => thread_ir::MemAddr::global(b.index(), 0).0,
        }
    }

    fn matches(self, kind: ParamKind) -> bool {
        matches!(
            (self, kind),
            (ParamValue::Ptr(_), ParamKind::Pointer)
                | (ParamValue::I32(_), ParamKind::Scalar(ScalarTy::I32))
                | (ParamValue::U32(_), ParamKind::Scalar(ScalarTy::U32))
                | (ParamValue::I64(_), ParamKind::Scalar(ScalarTy::I64))
                | (ParamValue::U64(_), ParamKind::Scalar(ScalarTy::U64))
                | (ParamValue::F32(_), ParamKind::Scalar(ScalarTy::F32))
                | (ParamValue::F64(_), ParamKind::Scalar(ScalarTy::F64))
        )
    }
}

/// The most threads one block may have (CUDA's launch limit).
pub const MAX_BLOCK_THREADS: u32 = 1024;

/// One kernel launch: the compiled kernel, its grid/block geometry, dynamic
/// shared memory size, and arguments.
#[derive(Debug, Clone)]
pub struct Launch {
    /// The compiled kernel. Shared by reference so that cloning a launch
    /// (the fusion search clones one per profiled candidate) never deep-
    /// copies the instruction stream.
    pub kernel: Arc<KernelIr>,
    /// Number of blocks (1-D grid).
    pub grid_dim: u32,
    /// Threads per block along (x, y, z).
    pub block_dim: (u32, u32, u32),
    /// Dynamic `extern __shared__` bytes.
    pub dynamic_shared_bytes: u32,
    /// Argument values, matching `kernel.params`.
    pub args: Vec<ParamValue>,
}

impl Launch {
    /// Creates a launch with no arguments and no dynamic shared memory.
    /// Accepts either an owned [`KernelIr`] or an already-shared
    /// `Arc<KernelIr>`.
    pub fn new(
        kernel: impl Into<Arc<KernelIr>>,
        grid_dim: u32,
        block_dim: (u32, u32, u32),
    ) -> Self {
        Self {
            kernel: kernel.into(),
            grid_dim,
            block_dim,
            dynamic_shared_bytes: 0,
            args: Vec::new(),
        }
    }

    /// Appends an argument (builder style).
    #[must_use]
    pub fn arg(mut self, value: ParamValue) -> Self {
        self.args.push(value);
        self
    }

    /// Sets the dynamic shared memory size (builder style).
    #[must_use]
    pub fn dynamic_shared(mut self, bytes: u32) -> Self {
        self.dynamic_shared_bytes = bytes;
        self
    }

    /// Total threads per block.
    pub fn threads_per_block(&self) -> u32 {
        self.block_dim.0 * self.block_dim.1 * self.block_dim.2
    }

    /// Total shared bytes per block (static + dynamic).
    pub fn shared_bytes_per_block(&self) -> u32 {
        self.kernel.shared_bytes(self.dynamic_shared_bytes)
    }

    /// Checks the launch configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] for empty grids, oversized blocks, or an
    /// argument list that does not match the kernel signature.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.grid_dim == 0 {
            return Err(SimError::new("grid dimension must be positive"));
        }
        let tpb = self.threads_per_block();
        if tpb == 0 || tpb > MAX_BLOCK_THREADS {
            return Err(SimError::new(format!(
                "threads per block must be in 1..={MAX_BLOCK_THREADS}, got {tpb}"
            )));
        }
        if self.args.len() != self.kernel.params.len() {
            return Err(SimError::new(format!(
                "kernel `{}` expects {} arguments, got {}",
                self.kernel.name,
                self.kernel.params.len(),
                self.args.len()
            )));
        }
        for (i, (arg, kind)) in self.args.iter().zip(&self.kernel.params).enumerate() {
            if !arg.matches(*kind) {
                return Err(SimError::new(format!(
                    "argument {i} of `{}` has wrong type (expected {kind:?})",
                    self.kernel.name
                )));
            }
        }
        Ok(())
    }

    /// Argument bits in parameter order.
    pub fn param_bits(&self) -> Vec<u64> {
        self.args.iter().map(|a| a.to_bits()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_frontend::parse_kernel;
    use thread_ir::lower_kernel;

    fn kernel() -> KernelIr {
        lower_kernel(
            &parse_kernel("__global__ void k(float* p, int n) { p[0] = n; }").expect("parse"),
        )
        .expect("lower")
    }

    #[test]
    fn param_bits_canonical() {
        assert_eq!(ParamValue::I32(-1).to_bits(), u64::MAX);
        assert_eq!(ParamValue::U32(u32::MAX).to_bits(), u64::from(u32::MAX));
        assert_eq!(ParamValue::F32(1.5).to_bits(), u64::from(1.5f32.to_bits()));
    }

    #[test]
    fn validate_catches_arity_and_type_errors() {
        let k = kernel();
        let l = Launch::new(k.clone(), 1, (32, 1, 1));
        assert!(l.validate().is_err(), "missing args");

        let l = Launch::new(k.clone(), 1, (32, 1, 1))
            .arg(ParamValue::I32(0))
            .arg(ParamValue::I32(0));
        assert!(l.validate().is_err(), "pointer arg expected");

        let l = Launch::new(k, 1, (32, 1, 1))
            .arg(ParamValue::Ptr(BufferId(0)))
            .arg(ParamValue::I32(0));
        assert!(l.validate().is_ok());
    }

    #[test]
    fn validate_checks_geometry() {
        let k = kernel();
        let l = Launch::new(k.clone(), 0, (32, 1, 1))
            .arg(ParamValue::Ptr(BufferId(0)))
            .arg(ParamValue::I32(0));
        assert!(l.validate().is_err());
        let l = Launch::new(k, 1, (1025, 1, 1))
            .arg(ParamValue::Ptr(BufferId(0)))
            .arg(ParamValue::I32(0));
        assert!(l.validate().is_err());
    }

    #[test]
    fn threads_per_block_is_product() {
        let l = Launch::new(kernel(), 1, (64, 4, 2))
            .arg(ParamValue::Ptr(BufferId(0)))
            .arg(ParamValue::I32(0));
        assert_eq!(l.threads_per_block(), 512);
    }
}
