//! Differential tests of the event-driven fast-forward path against the
//! naive single-step reference loop ([`Gpu::run_naive`]). The fast-forward
//! must be *bit-identical* in every reported number — total cycles, the
//! full stall breakdown, occupancy inputs, trace samples — across kernels
//! that exercise each skip condition (long memory latencies, scoreboard
//! chains, barriers, multi-stream launches).
//!
//! Also home of the copy-on-write device-memory tests: cloning a [`Gpu`]
//! must not copy buffer bytes until one side writes.

#![cfg(test)]

use cuda_frontend::parse_kernel;
use thread_ir::lower_kernel;

use crate::config::GpuConfig;
use crate::launch::{Launch, ParamValue};
use crate::metrics::BudgetedRun;
use crate::timing::Gpu;

pub(crate) fn compile(src: &str) -> thread_ir::KernelIr {
    lower_kernel(&parse_kernel(src).expect("parse")).expect("lower")
}

/// Runs the same launches through the fast-forward and the naive loop on
/// identical fresh devices and asserts every reported metric matches.
fn assert_paths_identical(cfg: GpuConfig, build: impl Fn(&mut Gpu) -> Vec<Launch>) {
    let mut fast = Gpu::new(cfg.clone());
    let launches = build(&mut fast);
    let fast_res = fast.run(&launches).expect("fast-forward run");

    let mut naive = Gpu::new(cfg);
    let launches = build(&mut naive);
    let naive_res = naive.run_naive(&launches).expect("naive run");

    assert_eq!(
        fast_res.total_cycles, naive_res.total_cycles,
        "total cycles diverge"
    );
    assert_eq!(fast_res.metrics, naive_res.metrics, "metrics diverge");
    assert_eq!(
        fast_res.launch_finish, naive_res.launch_finish,
        "finish cycles diverge"
    );
}

pub(crate) fn memory_bound_launch(gpu: &mut Gpu) -> Vec<Launch> {
    // Dependent loads: every iteration waits out a full DRAM round trip, so
    // the device spends most cycles with every warp scoreboard-blocked —
    // the prime fast-forward case.
    let ir = compile(
        "__global__ void chase(unsigned int* data, unsigned int* out, int n) {\
           unsigned int idx = threadIdx.x;\
           for (int i = 0; i < 48; i++) { idx = data[idx % n]; }\
           out[threadIdx.x] = idx;\
         }",
    );
    let n = 4096;
    let data: Vec<u32> = (0..n as u64)
        .map(|i| ((i * 2654435761) % n as u64) as u32)
        .collect();
    let d = gpu.memory_mut().alloc_from_u32(&data);
    let o = gpu.memory_mut().alloc_u32(64);
    vec![Launch::new(ir, 2, (64, 1, 1))
        .arg(ParamValue::Ptr(d))
        .arg(ParamValue::Ptr(o))
        .arg(ParamValue::I32(n))]
}

fn compute_bound_launch(gpu: &mut Gpu) -> Vec<Launch> {
    // Long in-register ALU chains: almost no idle windows, so this checks
    // the fast-forward never fires incorrectly on a busy device.
    let ir = compile(
        "__global__ void alu(unsigned int* out) {\
           unsigned int x = threadIdx.x + 1u;\
           unsigned int y = threadIdx.x + 7u;\
           for (int i = 0; i < 150; i++) {\
             x = x * 1664525u + 1013904223u;\
             y = (y << 5) ^ (y >> 3) ^ x;\
           }\
           out[threadIdx.x] = x ^ y;\
         }",
    );
    let o = gpu.memory_mut().alloc_u32(256);
    vec![Launch::new(ir, 4, (64, 1, 1)).arg(ParamValue::Ptr(o))]
}

fn barrier_heavy_launch(gpu: &mut Gpu) -> Vec<Launch> {
    // Alternating loads and barriers: warps park in the Sync state (which
    // imposes no wakeup time) while others drain memory latencies.
    let ir = compile(
        "__global__ void reduce(float* out, float* in) {\
           __shared__ float s[128];\
           int t = threadIdx.x;\
           s[t] = in[blockIdx.x * 128 + t];\
           __syncthreads();\
           for (int stride = 64; stride > 0; stride = stride / 2) {\
             if (t < stride) { s[t] += s[t + stride]; }\
             __syncthreads();\
           }\
           if (t == 0) { out[blockIdx.x] = s[0]; }\
         }",
    );
    let input: Vec<f32> = (0..512).map(|i| i as f32).collect();
    let i = gpu.memory_mut().alloc_from_f32(&input);
    let o = gpu.memory_mut().alloc_f32(4);
    vec![Launch::new(ir, 4, (128, 1, 1))
        .arg(ParamValue::Ptr(o))
        .arg(ParamValue::Ptr(i))]
}

pub(crate) fn multi_stream_launches(gpu: &mut Gpu) -> Vec<Launch> {
    // Two back-to-back launches (leftover dispatch policy): exercises
    // fast-forward across the gap where one launch drains before the next
    // one's blocks dispatch.
    let mem = compile(
        "__global__ void gather(float* out, float* in, int n) {\
           int i = blockIdx.x * blockDim.x + threadIdx.x;\
           float acc = 0.0f;\
           for (int j = 0; j < 24; j++) { acc += in[(i * 97 + j * 1031) % n]; }\
           out[i % n] = acc;\
         }",
    );
    let alu = compile(
        "__global__ void spin(unsigned int* out) {\
           unsigned int x = threadIdx.x;\
           for (int i = 0; i < 80; i++) { x = x * 1103515245u + 12345u; }\
           out[threadIdx.x] = x;\
         }",
    );
    let n = 2048;
    let a = gpu.memory_mut().alloc_f32(n as usize);
    let b = gpu.memory_mut().alloc_f32(n as usize);
    let c = gpu.memory_mut().alloc_u32(64);
    vec![
        Launch::new(mem, 4, (64, 1, 1))
            .arg(ParamValue::Ptr(a))
            .arg(ParamValue::Ptr(b))
            .arg(ParamValue::I32(n)),
        Launch::new(alu, 1, (64, 1, 1)).arg(ParamValue::Ptr(c)),
    ]
}

#[test]
fn fast_forward_matches_naive_memory_bound() {
    assert_paths_identical(GpuConfig::test_tiny(), memory_bound_launch);
}

#[test]
fn fast_forward_matches_naive_memory_bound_pascal() {
    assert_paths_identical(GpuConfig::pascal_like(), memory_bound_launch);
}

#[test]
fn fast_forward_matches_naive_compute_bound() {
    assert_paths_identical(GpuConfig::test_tiny(), compute_bound_launch);
}

#[test]
fn fast_forward_matches_naive_barrier_heavy() {
    assert_paths_identical(GpuConfig::test_tiny(), barrier_heavy_launch);
}

#[test]
fn fast_forward_matches_naive_multi_stream() {
    assert_paths_identical(GpuConfig::test_tiny(), multi_stream_launches);
}

#[test]
fn fast_forward_detects_same_deadlock() {
    // Barrier expecting 64 participants with only 32 threads: the naive
    // loop spins to the deadlock threshold; the fast-forward must report
    // the same error without actually spinning.
    // Stores on both sides keep the barrier past redundant-barrier
    // elimination, so the deadlock is still reachable.
    let ir = compile(
        "__global__ void k(unsigned int* p) { p[0] = 1u; asm(\"bar.sync 1, 64;\"); p[1] = 2u; }",
    );
    let run_one = |naive: bool| {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let p = gpu.memory_mut().alloc_u32(2);
        let launch = Launch::new(ir.clone(), 1, (32, 1, 1)).arg(ParamValue::Ptr(p));
        if naive {
            gpu.run_naive(&[launch]).unwrap_err()
        } else {
            gpu.run(&[launch]).unwrap_err()
        }
    };
    assert_eq!(run_one(false).message(), run_one(true).message());
}

#[test]
fn traced_windows_identical_across_long_stall_spans() {
    // trace_interval far smaller than the DRAM round trip, so one
    // all-stalled window spans several sample boundaries: every window
    // must still be emitted, at the same cycle with the same contents.
    let build = memory_bound_launch;
    let interval = 16;

    let mut fast = Gpu::new(GpuConfig::test_tiny());
    let launches = build(&mut fast);
    let (fast_res, fast_trace) = fast.run_traced(&launches, interval).expect("fast traced");

    let mut naive = Gpu::new(GpuConfig::test_tiny());
    let launches = build(&mut naive);
    let (naive_res, naive_trace) = naive
        .run_traced_naive(&launches, interval)
        .expect("naive traced");

    assert_eq!(fast_res.total_cycles, naive_res.total_cycles);
    assert_eq!(fast_res.metrics, naive_res.metrics);
    assert_eq!(fast_trace.len(), naive_trace.len(), "sample count diverges");
    for (f, n) in fast_trace.iter().zip(&naive_trace) {
        assert_eq!(f.cycle, n.cycle);
        assert_eq!(
            f.issue_util.to_bits(),
            n.issue_util.to_bits(),
            "cycle {}",
            f.cycle
        );
        assert_eq!(
            f.avg_warps.to_bits(),
            n.avg_warps.to_bits(),
            "cycle {}",
            f.cycle
        );
    }
    // The whole point of the scenario: idle spans must cover multiple
    // consecutive all-stalled windows.
    assert!(
        fast_trace.iter().filter(|s| s.issue_util == 0.0).count() >= 2,
        "expected several fully-stalled trace windows"
    );
}

#[test]
fn cloning_gpu_shares_buffers_until_written() {
    let mut base = Gpu::new(GpuConfig::test_tiny());
    let data: Vec<f32> = (0..1024).map(|i| i as f32).collect();
    let buf = base.memory_mut().alloc_from_f32(&data);

    // Clone is O(1) per buffer: both devices point at the same bytes.
    let mut clone = base.clone();
    assert!(
        base.memory().shares_buffer(clone.memory(), buf),
        "clone must not copy bytes"
    );

    // A write through one clone materializes a private copy there...
    clone.memory_mut().write_f32s(buf, &[-1.0]);
    assert!(!base.memory().shares_buffer(clone.memory(), buf));
    assert_eq!(clone.memory().read_f32(buf, 0), -1.0);
    // ...and leaves the other side untouched.
    assert_eq!(base.memory().read_f32(buf, 0), 0.0);
    assert_eq!(base.memory().read_f32s(buf), data);
}

#[test]
fn kernel_store_unshares_only_written_buffer() {
    let ir = compile(
        "__global__ void k(float* out, float* in) {\
           out[threadIdx.x] = in[threadIdx.x] * 2.0f;\
         }",
    );
    let mut base = Gpu::new(GpuConfig::test_tiny());
    let input: Vec<f32> = (0..32).map(|i| i as f32).collect();
    let i = base.memory_mut().alloc_from_f32(&input);
    let o = base.memory_mut().alloc_f32(32);

    let mut worker = base.clone();
    let launch = Launch::new(ir, 1, (32, 1, 1))
        .arg(ParamValue::Ptr(o))
        .arg(ParamValue::Ptr(i));
    worker.run(&[launch]).expect("run");

    // The read-only input stays shared; only the output buffer was copied.
    assert!(
        base.memory().shares_buffer(worker.memory(), i),
        "read-only buffer copied"
    );
    assert!(!base.memory().shares_buffer(worker.memory(), o));
    assert_eq!(worker.memory().read_f32(o, 3), 6.0);
    assert_eq!(base.memory().read_f32(o, 3), 0.0, "base output clobbered");
}

/// Builds launches for one fuzzer corpus case: the unfused pair plus the
/// horizontally fused kernel, all in one stream. Replaying the fuzz corpus
/// through the timing engine checks the fast-forward on machine-generated
/// control flow (partial barriers, shuffles, atomics) rather than only the
/// hand-written scenarios above.
fn fuzz_case_launches(seed: u64, case: u64) -> impl Fn(&mut Gpu) -> Vec<Launch> {
    move |gpu: &mut Gpu| {
        let (pair, mut input_rng) = hfuse_fuzz::case_streams(seed, case);
        let f1 = parse_kernel(&pair.k1.render()).expect("parse k1");
        let f2 = parse_kernel(&pair.k2.render()).expect("parse k2");
        let fused = hfuse_core::fuse::horizontal_fuse(
            &f1,
            (pair.k1.threads, 1, 1),
            &f2,
            (pair.k2.threads, 1, 1),
        )
        .expect("fuse");

        let in1 = hfuse_fuzz::gen::CasePair::input_data(&mut input_rng, pair.k1.n);
        let in2 = hfuse_fuzz::gen::CasePair::input_data(&mut input_rng, pair.k2.n);
        let out1 = gpu.memory_mut().alloc_u32(pair.k1.out_len() as usize);
        let in1b = gpu.memory_mut().alloc_from_u32(&in1);
        let out2 = gpu.memory_mut().alloc_u32(pair.k2.out_len() as usize);
        let in2b = gpu.memory_mut().alloc_from_u32(&in2);
        let fout1 = gpu.memory_mut().alloc_u32(pair.k1.out_len() as usize);
        let fin1 = gpu.memory_mut().alloc_from_u32(&in1);
        let fout2 = gpu.memory_mut().alloc_u32(pair.k2.out_len() as usize);
        let fin2 = gpu.memory_mut().alloc_from_u32(&in2);

        vec![
            Launch::new(
                lower_kernel(&f1).expect("lower k1"),
                pair.k1.grid,
                (pair.k1.threads, 1, 1),
            )
            .arg(ParamValue::Ptr(out1))
            .arg(ParamValue::Ptr(in1b))
            .arg(ParamValue::I32(pair.k1.n as i32)),
            Launch::new(
                lower_kernel(&f2).expect("lower k2"),
                pair.k2.grid,
                (pair.k2.threads, 1, 1),
            )
            .arg(ParamValue::Ptr(out2))
            .arg(ParamValue::Ptr(in2b))
            .arg(ParamValue::I32(pair.k2.n as i32)),
            Launch::new(
                lower_kernel(&fused.function).expect("lower fused"),
                pair.k1.grid,
                (fused.block_threads(), 1, 1),
            )
            .arg(ParamValue::Ptr(fout1))
            .arg(ParamValue::Ptr(fin1))
            .arg(ParamValue::I32(pair.k1.n as i32))
            .arg(ParamValue::Ptr(fout2))
            .arg(ParamValue::Ptr(fin2))
            .arg(ParamValue::I32(pair.k2.n as i32)),
        ]
    }
}

#[test]
fn fast_forward_matches_naive_on_fuzz_corpus() {
    for case in 0..6 {
        assert_paths_identical(GpuConfig::test_tiny(), fuzz_case_launches(0, case));
    }
}

#[test]
fn fast_forward_matches_naive_on_fuzz_corpus_pascal() {
    // A realistic config changes latencies, MSHR counts, and DRAM token
    // rates — different skip windows over the same corpus kernels.
    for case in 0..3 {
        assert_paths_identical(GpuConfig::pascal_like(), fuzz_case_launches(42, case));
    }
}

fn divergent_branch_launch(gpu: &mut Gpu) -> Vec<Launch> {
    // Nested data-dependent branches splinter the warp into several active
    // masks, each issuing in its own slots.
    let ir = compile(
        "__global__ void diverge(unsigned int* out, unsigned int* in, int n) {\
           int i = blockIdx.x * blockDim.x + threadIdx.x;\
           unsigned int v = in[i % n];\
           if ((threadIdx.x & 1u) == 0u) {\
             if (v % 3u == 0u) { v = v * 2654435761u; }\
             else { for (int j = 0; j < (int)(v % 7u); j++) { v += in[(i + j) % n]; } }\
           } else {\
             if (v > 1000u) { v = v >> 3; } else { v = v << 2; }\
           }\
           out[i % n] = v;\
         }",
    );
    let n = 256;
    let data: Vec<u32> = (0..n as u64).map(|i| (i * 2246822519) as u32).collect();
    let i = gpu.memory_mut().alloc_from_u32(&data);
    let o = gpu.memory_mut().alloc_u32(n);
    vec![Launch::new(ir, 2, (96, 1, 1))
        .arg(ParamValue::Ptr(o))
        .arg(ParamValue::Ptr(i))
        .arg(ParamValue::I32(n as i32))]
}

fn partial_barrier_launch(gpu: &mut Gpu) -> Vec<Launch> {
    // A named partial barrier over the first two warps only (the HFUSE
    // fused-kernel synchronization primitive) while the remaining warp
    // streams through uninhibited.
    let ir = compile(
        "__global__ void partial(unsigned int* out, unsigned int* in) {\
           __shared__ unsigned int s[64];\
           unsigned int t = threadIdx.x;\
           if (t < 64u) {\
             s[t] = in[blockIdx.x * 64u + t];\
             asm(\"bar.sync 1, 64;\");\
             out[blockIdx.x * 64u + t] = s[t ^ 1u] + s[63u - t];\
           } else {\
             unsigned int x = t;\
             for (int i = 0; i < 40; i++) { x = x * 1664525u + 1013904223u; }\
             out[96u + t] = x;\
           }\
         }",
    );
    let data: Vec<u32> = (0..128).map(|i| i * 31 + 5).collect();
    let i = gpu.memory_mut().alloc_from_u32(&data);
    let o = gpu.memory_mut().alloc_u32(256);
    vec![Launch::new(ir, 2, (96, 1, 1))
        .arg(ParamValue::Ptr(o))
        .arg(ParamValue::Ptr(i))]
}

#[test]
fn fast_forward_matches_naive_divergent_branches() {
    assert_paths_identical(GpuConfig::test_tiny(), divergent_branch_launch);
    assert_paths_identical(GpuConfig::pascal_like(), divergent_branch_launch);
}

#[test]
fn fast_forward_matches_naive_partial_barrier() {
    assert_paths_identical(GpuConfig::test_tiny(), partial_barrier_launch);
    assert_paths_identical(GpuConfig::pascal_like(), partial_barrier_launch);
}

/// `base` with so few MSHRs and so little DRAM bandwidth that memory
/// warps spend most cycles capacity-blocked: scheduler verdicts that saw
/// such a warp get cached and must be cleared by completions and refills.
pub(crate) fn starved(base: GpuConfig) -> GpuConfig {
    GpuConfig {
        mshrs_per_sm: 8,
        dram_transactions_per_cycle: 1,
        ..base
    }
}

#[test]
fn fast_forward_matches_naive_capacity_starved() {
    for cfg in [
        starved(GpuConfig::test_tiny()),
        starved(GpuConfig::pascal_like()),
    ] {
        assert_paths_identical(cfg.clone(), memory_bound_launch);
        assert_paths_identical(cfg, multi_stream_launches);
    }
}

fn staggered_barrier_launch(gpu: &mut Gpu) -> Vec<Launch> {
    // Four warps per block, one per scheduler, each spinning a different
    // number of iterations before every `__syncthreads()`: the early warps
    // park and their schedulers cache a `Sync` verdict, which only the last
    // warp's `bar.sync`, issued by another scheduler, can release.
    let ir = compile(
        "__global__ void stagger(unsigned int* out, unsigned int* in) {\
           __shared__ unsigned int s[128];\
           unsigned int t = threadIdx.x;\
           unsigned int x = in[blockIdx.x * 128u + t];\
           for (int r = 0; r < 3; r++) {\
             for (unsigned int i = 0u; i < (t / 32u) * 6u + 1u; i++) {\
               x = x * 1664525u + 1013904223u;\
             }\
             s[t] = x;\
             __syncthreads();\
             x = x ^ s[127u - t];\
             __syncthreads();\
           }\
           out[blockIdx.x * 128u + t] = x;\
         }",
    );
    let data: Vec<u32> = (0..256).map(|i| i * 7 + 3).collect();
    let i = gpu.memory_mut().alloc_from_u32(&data);
    let o = gpu.memory_mut().alloc_u32(256);
    vec![Launch::new(ir, 2, (128, 1, 1))
        .arg(ParamValue::Ptr(o))
        .arg(ParamValue::Ptr(i))]
}

#[test]
fn fast_forward_matches_naive_cross_scheduler_barrier() {
    assert_paths_identical(GpuConfig::test_tiny(), staggered_barrier_launch);
    assert_paths_identical(GpuConfig::pascal_like(), staggered_barrier_launch);
}

pub(crate) fn spilled_shared_launch(gpu: &mut Gpu) -> Vec<Launch> {
    // Conflicting shared atomics hold the shared pipe for many cycles while
    // global loads keep the global pipe and the MSHRs busy. A tight register
    // bound spills operands of the shared accesses, so they need both
    // pipes: a warp held by the shared pipe (`Exec`) turns `Memory` when
    // another warp's issue takes the global pipe or the last MSHR.
    let mut ir = compile(
        "__global__ void mix(unsigned int* out, unsigned int* in, int n) {\
           __shared__ unsigned int s[128];\
           unsigned int t = threadIdx.x;\
           unsigned int a = t;\
           unsigned int b = t * 3u;\
           unsigned int c = t ^ 5u;\
           for (int i = 0; i < 8; i++) {\
             atomicAdd(&s[i % 2], a);\
             s[t] = a + b;\
             a = a + in[(t * 33u + (unsigned int)i * 7u) % (unsigned int)n];\
             b = b ^ s[t];\
             c = c * 3u + a;\
           }\
           out[blockIdx.x * 128u + t] = a ^ b ^ c;\
         }",
    );
    assert!(
        thread_ir::spill::apply_register_bound(&mut ir, 4) > 0,
        "nothing spilled"
    );
    let n = 1024;
    let data: Vec<u32> = (0..n).map(|i: u32| i.wrapping_mul(2654435761)).collect();
    let i = gpu.memory_mut().alloc_from_u32(&data);
    let o = gpu.memory_mut().alloc_u32(512);
    vec![Launch::new(ir, 4, (128, 1, 1))
        .arg(ParamValue::Ptr(o))
        .arg(ParamValue::Ptr(i))
        .arg(ParamValue::I32(n as i32))]
}

#[test]
fn fast_forward_matches_naive_spilled_shared_accesses() {
    for cfg in [
        GpuConfig::test_tiny(),
        GpuConfig::pascal_like(),
        starved(GpuConfig::test_tiny()),
        starved(GpuConfig::pascal_like()),
    ] {
        assert_paths_identical(cfg, spilled_shared_launch);
    }
}

#[test]
fn budget_aborts_match_naive_bounds_when_capacity_starved() {
    // At every budget the naive loop aborts on the first cycle past it; the
    // fast loop may land later, but never past the true total, and its
    // clock never falls as the budget grows. A budget at the total
    // completes exactly as the naive run does.
    for cfg in [
        starved(GpuConfig::test_tiny()),
        starved(GpuConfig::pascal_like()),
    ] {
        let mut base = Gpu::new(cfg);
        let launches = memory_bound_launch(&mut base);
        let full = base.clone().run_naive(&launches).expect("naive run");
        let total = full.total_cycles;
        let mut prev = 0;
        for budget in [1, total / 8, total / 3, total / 2, total - 200, total - 2] {
            let fast = base
                .clone()
                .run_impl(&launches, false, budget)
                .expect("fast budgeted run");
            let naive = base
                .clone()
                .run_impl(&launches, true, budget)
                .expect("naive budgeted run");
            assert_eq!(
                naive,
                BudgetedRun::Aborted {
                    cycles_so_far: budget + 1
                },
                "naive loop at budget {budget}"
            );
            let BudgetedRun::Aborted { cycles_so_far } = fast else {
                panic!("budget {budget} of {total} completed");
            };
            assert!(
                budget < cycles_so_far && cycles_so_far <= total,
                "budget {budget}: abort clock {cycles_so_far} outside ({budget}, {total}]"
            );
            assert!(cycles_so_far >= prev, "abort clock fell below {prev}");
            prev = cycles_so_far;
        }
        let at_total = base
            .clone()
            .run_impl(&launches, false, total)
            .expect("fast budgeted run");
        assert_eq!(at_total, BudgetedRun::Completed(full));
    }
}

#[test]
fn env_var_forces_naive_loop() {
    // `HFUSE_SIM_NO_SKIP` selects the naive loop inside plain `run()`;
    // results must (trivially) match the fast path. Run both paths through
    // the API the escape hatch guards to make sure the hatch still exists.
    let build = memory_bound_launch;
    let mut a = Gpu::new(GpuConfig::test_tiny());
    let launches = build(&mut a);
    let fast = a.run(&launches).expect("fast");

    std::env::set_var("HFUSE_SIM_NO_SKIP", "1");
    let mut b = Gpu::new(GpuConfig::test_tiny());
    let launches = build(&mut b);
    let naive = b.run(&launches).expect("naive via env");
    std::env::remove_var("HFUSE_SIM_NO_SKIP");

    assert_eq!(fast.total_cycles, naive.total_cycles);
    assert_eq!(fast.metrics, naive.metrics);
}
