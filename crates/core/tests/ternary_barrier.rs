//! A ternary whose arms assign the same variable must not let the range
//! analysis believe the last arm's value. Here the taken arm stores
//! `j = 63 - tid`, which makes the barrier order a cross-warp exchange
//! through shared memory; reading only the other arm (`j = tid`) would make
//! the exchange look per-thread and the barrier removable.

use cuda_frontend::parse_kernel;
use gpu_sim::{Gpu, GpuConfig, Launch, ParamValue};
use hfuse_core::fuse::horizontal_fuse;
use thread_ir::lower_kernel;

const EXCHANGE: &str = "\
__global__ void exchange(int* out) {
    __shared__ int s[64];
    int j = 0;
    int c = (threadIdx.x < 1024) ? (j = 63 - threadIdx.x) : (j = threadIdx.x);
    s[j] = threadIdx.x;
    __syncthreads();
    out[blockIdx.x * 64 + threadIdx.x] = s[threadIdx.x] + c;
}
";

const ONE_STORE: &str = "\
__global__ void one_store(int* o) {
    o[blockIdx.x * 64 + threadIdx.x] = 7;
}
";

#[test]
fn ternary_assigned_index_keeps_the_exchange_barrier() {
    let k1 = parse_kernel(EXCHANGE).unwrap();
    let k2 = parse_kernel(ONE_STORE).unwrap();
    let fused = horizontal_fuse(&k1, (64, 1, 1), &k2, (64, 1, 1)).expect("fusion is safe");
    assert_eq!(
        fused.barriers_eliminated, 0,
        "the exchange needs its barrier"
    );

    let grid = 2u32;
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    gpu.enable_sanitizer();
    let out = gpu.memory_mut().alloc_u32((grid * 64) as usize);
    let o = gpu.memory_mut().alloc_u32((grid * 64) as usize);
    let kernel = lower_kernel(&fused.function).expect("fused kernel lowers");
    gpu.run_functional(&[Launch {
        kernel: kernel.into(),
        grid_dim: grid,
        block_dim: (fused.block_threads(), 1, 1),
        dynamic_shared_bytes: 0,
        args: vec![ParamValue::Ptr(out), ParamValue::Ptr(o)],
    }])
    .expect("fused kernel runs");
    let reports = gpu.take_sanitizer_reports();
    assert!(reports.is_empty(), "{reports:?}");

    // Thread t reads what thread 63 - t stored, plus its own `c`.
    let got = gpu.memory().read_u32s(out);
    for (i, v) in got.iter().enumerate() {
        let t = (i % 64) as u32;
        assert_eq!(*v, (63 - t) + (63 - t), "out[{i}]");
    }
    assert!(gpu.memory().read_u32s(o).iter().all(|&v| v == 7));
}
