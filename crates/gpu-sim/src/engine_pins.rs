//! Pinned results of the timing engine's issue-stage edge cases. The naive
//! loop shares the issue scan with the fast loop, so `diff_tests` cannot
//! catch a change to the scan itself; these tests pin every reported
//! number of small kernels that each reach one subtle rule of the scan:
//!
//! - the stall reason a blocked warp reports is the one its first blocked
//!   visit saw, kept until its next issue, even once its memory operand is
//!   ready and only a longer ALU operand holds it;
//! - a barrier release that changes the peek of a warp still running keeps
//!   that warp's stall cycle, and only then checks the new instruction's
//!   operands;
//! - MSHR- and DRAM-token-starved warps;
//! - a spilled shared access that needs both pipes and is held only by the
//!   shared one.

#![cfg(test)]

use crate::config::GpuConfig;
use crate::diff_tests::{
    compile, memory_bound_launch, multi_stream_launches, spilled_shared_launch, starved,
};
use crate::launch::{Launch, ParamValue};
use crate::metrics::{RunMetrics, RunResult};
use crate::timing::Gpu;

/// Every number of `r` on one line, so a pin names each field.
fn summary(r: &RunResult) -> String {
    let RunMetrics {
        cycles,
        issued_slots,
        total_slots,
        stall_mem,
        stall_exec,
        stall_sync,
        stall_other,
        active_warp_cycles,
        active_sm_cycles,
        max_warps_per_sm,
        thread_insts,
        mem_transactions,
        class_issues,
    } = r.metrics;
    format!(
        "total={} cycles={cycles} issued={issued_slots} slots={total_slots} \
         mem={stall_mem} exec={stall_exec} sync={stall_sync} other={stall_other} \
         warp_cycles={active_warp_cycles} sm_cycles={active_sm_cycles} \
         max_warps={max_warps_per_sm} thread_insts={thread_insts} tx={mem_transactions} \
         classes={class_issues:?} finish={:?}",
        r.total_cycles, r.launch_finish
    )
}

/// Runs `build`'s launches through the fast and the naive loop on fresh
/// devices and checks both against `pin`.
fn assert_pinned(cfg: GpuConfig, build: impl Fn(&mut Gpu) -> Vec<Launch>, pin: &str) {
    let mut gpu = Gpu::new(cfg);
    let launches = build(&mut gpu);
    let naive = gpu.clone().run_naive(&launches).expect("naive run");
    let fast = gpu.run(&launches).expect("fast run");
    assert_eq!(summary(&naive), pin, "naive loop");
    assert_eq!(summary(&fast), pin, "fast loop");
}

/// Each iteration issues a global load and then a divide, and adds the two:
/// with a divide slower than a DRAM round trip, the add's first blocked
/// visit sees the load outstanding (`Memory`), and the load's result is
/// ready well before the quotient.
fn mem_then_long_alu_launch(gpu: &mut Gpu) -> Vec<Launch> {
    let ir = compile(
        "__global__ void k(unsigned int* out, unsigned int* in, unsigned int d) {\
           unsigned int t = threadIdx.x;\
           unsigned int acc = t + 1u;\
           for (unsigned int i = 0u; i < 8u; i++) {\
             acc = in[(t * 7u + i * 32u) & 255u] + acc / (d + i);\
           }\
           out[blockIdx.x * blockDim.x + t] = acc;\
         }",
    );
    let data: Vec<u32> = (0..256).map(|i: u32| i.wrapping_mul(2654435761)).collect();
    let i = gpu.memory_mut().alloc_from_u32(&data);
    let o = gpu.memory_mut().alloc_u32(128);
    vec![Launch::new(ir, 2, (64, 1, 1))
        .arg(ParamValue::Ptr(o))
        .arg(ParamValue::Ptr(i))
        .arg(ParamValue::U32(3))]
}

/// `test_tiny` with a divide that outlasts a global load.
fn slow_divide() -> GpuConfig {
    let mut cfg = GpuConfig::test_tiny();
    cfg.latencies.div = 150;
    cfg
}

#[test]
fn memory_reason_stays_frozen_behind_a_longer_alu_operand() {
    assert_pinned(slow_divide(), mem_then_long_alu_launch, "total=1487 cycles=1487 issued=724 slots=5948 mem=4779 exec=428 sync=0 other=17 warp_cycles=5931 sm_cycles=1487 max_warps=64 thread_insts=23168 tx=228 classes=[584, 32, 0, 0, 0, 0, 36, 0, 0, 72, 0] finish=[1486]");
    assert_pinned(GpuConfig::test_tiny(), mem_then_long_alu_launch, "total=1087 cycles=1087 issued=724 slots=4348 mem=3019 exec=428 sync=0 other=177 warp_cycles=4171 sm_cycles=1087 max_warps=64 thread_insts=23168 tx=228 classes=[584, 32, 0, 0, 0, 0, 36, 0, 0, 72, 0] finish=[1086]");
}

/// Lanes 0–15 of warp 0 and all of warp 1 meet at `bar.sync 1, 48`; lanes
/// 16–31 of warp 0 chase pointers meanwhile. Warp 1 spins first, so the
/// release comes while warp 0's chasing lanes wait on a load: warp 0 is
/// still running, and its min-PC group switches to the released lanes.
fn partial_warp_release_launch(gpu: &mut Gpu) -> Vec<Launch> {
    let ir = compile(
        "__global__ void k(unsigned int* out, unsigned int* in, int n) {\
           __shared__ unsigned int s[64];\
           unsigned int t = threadIdx.x;\
           if (t < 16u || t >= 32u) {\
             unsigned int x = t;\
             for (unsigned int i = 0u; i < (t / 32u) * 25u; i++) {\
               x = x * 1664525u + 1013904223u;\
             }\
             s[t] = x;\
             asm(\"bar.sync 1, 48;\");\
             out[blockIdx.x * 64u + t] = s[(t + 1u) & 63u] + in[t] * x;\
           } else {\
             unsigned int idx = t;\
             for (int i = 0; i < 12; i++) { idx = in[idx % (unsigned int)n]; }\
             out[blockIdx.x * 64u + t] = idx;\
           }\
         }",
    );
    let n = 1024;
    let data: Vec<u32> = (0..n as u64)
        .map(|i| ((i * 2654435761) % n as u64) as u32)
        .collect();
    let i = gpu.memory_mut().alloc_from_u32(&data);
    let o = gpu.memory_mut().alloc_u32(256);
    vec![Launch::new(ir, 4, (64, 1, 1))
        .arg(ParamValue::Ptr(o))
        .arg(ParamValue::Ptr(i))
        .arg(ParamValue::I32(n))]
}

#[test]
fn barrier_release_keeps_a_running_warps_stall_cycle() {
    assert_pinned(GpuConfig::test_tiny(), partial_warp_release_launch, "total=2229 cycles=2229 issued=2348 slots=8916 mem=3640 exec=44 sync=0 other=2884 warp_cycles=11885 sm_cycles=2229 max_warps=64 thread_insts=62016 tx=624 classes=[1876, 48, 0, 0, 16, 0, 68, 0, 0, 332, 8] finish=[2228]");
    assert_pinned(GpuConfig::pascal_like(), partial_warp_release_launch, "total=8304 cycles=8304 issued=2348 slots=132684 mem=29087 exec=12220 sync=0 other=89029 warp_cycles=43655 sm_cycles=33171 max_warps=64 thread_insts=62016 tx=624 classes=[1876, 48, 0, 0, 16, 0, 68, 0, 0, 332, 8] finish=[8303]");
}

#[test]
fn capacity_starved_warps() {
    assert_pinned(starved(GpuConfig::test_tiny()), memory_bound_launch, "total=33480 cycles=33480 issued=2576 slots=133920 mem=95603 exec=2520 sync=0 other=33221 warp_cycles=100699 sm_cycles=33480 max_warps=64 thread_insts=82432 tx=5708 classes=[1796, 192, 0, 0, 0, 0, 196, 0, 0, 392, 0] finish=[33479]");
    assert_pinned(starved(GpuConfig::test_tiny()), multi_stream_launches, "total=30199 cycles=30199 issued=4766 slots=120796 mem=79912 exec=112 sync=0 other=36006 warp_cycles=171511 sm_cycles=30199 max_warps=64 thread_insts=152512 tx=4826 classes=[3640, 200, 0, 0, 0, 0, 202, 0, 0, 724, 0] finish=[30198, 1888]");
    assert_pinned(starved(GpuConfig::pascal_like()), multi_stream_launches, "total=30693 cycles=30693 issued=4766 slots=490332 mem=273081 exec=27926 sync=0 other=184559 warp_cycles=305773 sm_cycles=122583 max_warps=64 thread_insts=152512 tx=4826 classes=[3640, 200, 0, 0, 0, 0, 202, 0, 0, 724, 0] finish=[30692, 30502]");
}

#[test]
fn spilled_shared_access_held_by_the_shared_pipe() {
    assert_pinned(GpuConfig::test_tiny(), spilled_shared_launch, "total=24421 cycles=24421 issued=4848 slots=97684 mem=63812 exec=12047 sync=0 other=16977 warp_cycles=317994 sm_cycles=24421 max_warps=64 thread_insts=155136 tx=13088 classes=[3776, 256, 0, 0, 256, 128, 144, 0, 0, 288, 0] finish=[24420]");
    assert_pinned(starved(GpuConfig::test_tiny()), spilled_shared_launch, "total=57785 cycles=57785 issued=4848 slots=231140 mem=139687 exec=1593 sync=0 other=85012 warp_cycles=581680 sm_cycles=57785 max_warps=64 thread_insts=155136 tx=13088 classes=[3776, 256, 0, 0, 256, 128, 144, 0, 0, 288, 0] finish=[57784]");
}
