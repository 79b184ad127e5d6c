//! Exactness of the per-thread register file under divergence, early exit
//! and cross-lane reads. Each kernel here reads registers in a way a
//! storage layout could get wrong:
//!
//! - `diverge`: if/else arms (and per-lane loop trip counts) whose values
//!   die at different points;
//! - `shuffle`: `__shfl_xor_sync` reading lanes parked in the other arm of
//!   a divergent branch, and `__shfl_down_sync` reading lanes that exited
//!   early after computing values of their own, in a partial warp;
//! - `shuffle_unwritten`: shuffles whose source lanes never wrote the
//!   shuffled variable (they exited first, or took the other arm), after
//!   writing other, already dead values; the reads must see 0;
//! - `unassigned`: reads of variables that some lanes never assign (they
//!   must read 0);
//! - `dead_results`: an atomic whose old value is never read and a load
//!   whose value is never read.
//!
//! Every kernel runs optimized and unoptimized. Device memory must equal a
//! CPU computation of the kernel, and the full [`RunResult`] must equal the
//! pinned table; on a mismatch the test prints the actual table.

use cuda_frontend::parse_kernel;
use gpu_sim::{Gpu, GpuConfig, Launch, ParamValue, RunResult};
use thread_ir::{lower_kernel, lower_kernel_unoptimized, KernelIr};

/// Threads in the one block of every launch: a full warp and a partial one.
const THREADS: u32 = 48;

/// The input words, `in[i]`.
fn input() -> Vec<u32> {
    (0..2 * THREADS)
        .map(|i| i.wrapping_mul(2_654_435_761).rotate_left(7) ^ 0x1234_5678)
        .collect()
}

const DIVERGE: &str = "
__global__ void diverge(unsigned int* out, unsigned int* in, unsigned int* cnt) {
  unsigned int t = threadIdx.x;
  unsigned int a = in[t];
  unsigned int r;
  if (t % 3u == 0u) {
    unsigned int x = a * 7u;
    unsigned int y = x ^ 85u;
    r = y + x;
  } else {
    unsigned int p = a + 11u;
    unsigned int q = p * p;
    unsigned int s = q >> 3;
    if (t & 4u) { r = s - p; } else { r = q ^ s; }
  }
  unsigned int acc = r;
  for (unsigned int i = 0u; i < t % 5u; i++) { acc = acc * 31u + i; }
  out[t] = acc + a;
}";

fn diverge_cpu(inp: &[u32], out: &mut [u32], _cnt: &mut [u32]) {
    for t in 0..THREADS {
        let a = inp[t as usize];
        let r = if t % 3 == 0 {
            let x = a.wrapping_mul(7);
            let y = x ^ 85;
            y.wrapping_add(x)
        } else {
            let p = a.wrapping_add(11);
            let q = p.wrapping_mul(p);
            let s = q >> 3;
            if t & 4 != 0 {
                s.wrapping_sub(p)
            } else {
                q ^ s
            }
        };
        let mut acc = r;
        for i in 0..t % 5 {
            acc = acc.wrapping_mul(31).wrapping_add(i);
        }
        out[t as usize] = acc.wrapping_add(a);
    }
}

const SHUFFLE: &str = "
__global__ void shuffle(unsigned int* out, unsigned int* in, unsigned int* cnt) {
  unsigned int t = threadIdx.x;
  unsigned int v = in[t] * 3u + 1u;
  unsigned int w = in[t] ^ 40503u;
  if (t % 8u == 7u) {
    unsigned int e = in[t + 48u] * 5u + 2u;
    out[t] = e * e;
    return;
  }
  if (t % 32u >= 16u) {
    unsigned int k = in[t + 48u] + 9u;
    out[t + 48u] = k * k + (k >> 2);
  } else {
    out[t + 48u] = __shfl_xor_sync(0xffffffffu, v, 16, 32);
  }
  out[t] = __shfl_down_sync(0xffffffffu, w, 1, 32) + t;
}";

fn shuffle_cpu(inp: &[u32], out: &mut [u32], _cnt: &mut [u32]) {
    let v = |t: u32| inp[t as usize].wrapping_mul(3).wrapping_add(1);
    let w = |t: u32| inp[t as usize] ^ 40503;
    for t in 0..THREADS {
        if t % 8 == 7 {
            let e = inp[(t + 48) as usize].wrapping_mul(5).wrapping_add(2);
            out[t as usize] = e.wrapping_mul(e);
            continue;
        }
        out[(t + 48) as usize] = if t % 32 >= 16 {
            let k = inp[(t + 48) as usize].wrapping_add(9);
            k.wrapping_mul(k).wrapping_add(k >> 2)
        } else {
            // Lane `t ^ 16`, which took the other arm (or exited); past the
            // block's last thread a lane reads its own value.
            v(if t ^ 16 < THREADS { t ^ 16 } else { t })
        };
        // Down by one within the warp; past the block's last thread a lane
        // reads its own value. Lanes that exited early still hold `w`.
        let lane = t % 32;
        let src = if lane + 1 < 32 && t + 1 < THREADS {
            t + 1
        } else {
            t
        };
        out[t as usize] = w(src).wrapping_add(t);
    }
}

const SHUFFLE_UNWRITTEN: &str = "
__global__ void shuffle_unwritten(unsigned int* out, unsigned int* in, unsigned int* cnt) {
  unsigned int t = threadIdx.x;
  unsigned int x = in[t] + 5u;
  out[t + 48u] = x * x;
  if (t % 8u == 7u) {
    return;
  }
  unsigned int w = in[t] ^ 40503u;
  if (t % 32u < 16u) {
    unsigned int v = in[t + 48u] * 3u;
    out[t] = __shfl_xor_sync(0xffffffffu, v, 16, 32);
  } else {
    out[t] = __shfl_down_sync(0xffffffffu, w, 1, 32) + t;
  }
}";

fn shuffle_unwritten_cpu(inp: &[u32], out: &mut [u32], _cnt: &mut [u32]) {
    for t in 0..THREADS {
        let x = inp[t as usize].wrapping_add(5);
        out[(t + 48) as usize] = x.wrapping_mul(x);
        if t % 8 == 7 {
            continue;
        }
        let lane = t % 32;
        out[t as usize] = if lane < 16 {
            // Lane `t ^ 16` took the other arm and never wrote `v`; past the
            // block's last thread a lane reads its own value.
            if t ^ 16 < THREADS {
                0
            } else {
                inp[(t + 48) as usize].wrapping_mul(3)
            }
        } else {
            let src = if lane + 1 < 32 && t + 1 < THREADS {
                t + 1
            } else {
                t
            };
            // A lane that exited early never wrote `w`.
            let w = if src % 8 == 7 {
                0
            } else {
                inp[src as usize] ^ 40503
            };
            w.wrapping_add(t)
        };
    }
}

const UNASSIGNED: &str = "
__global__ void unassigned(unsigned int* out, unsigned int* in, unsigned int* cnt) {
  unsigned int t = threadIdx.x;
  unsigned int u;
  unsigned int z;
  unsigned int m = in[t];
  if (t & 1u) { u = m * 3u; }
  if (t & 2u) { z = m + 100u; }
  out[t] = u * 1000u + z;
  out[t + 48u] = z - u;
}";

fn unassigned_cpu(inp: &[u32], out: &mut [u32], _cnt: &mut [u32]) {
    for t in 0..THREADS {
        let m = inp[t as usize];
        let u = if t & 1 != 0 { m.wrapping_mul(3) } else { 0 };
        let z = if t & 2 != 0 { m.wrapping_add(100) } else { 0 };
        out[t as usize] = u.wrapping_mul(1000).wrapping_add(z);
        out[(t + 48) as usize] = z.wrapping_sub(u);
    }
}

const DEAD_RESULTS: &str = "
__global__ void dead_results(unsigned int* out, unsigned int* in, unsigned int* cnt) {
  unsigned int t = threadIdx.x;
  unsigned int a = in[t];
  atomicAdd(&cnt[t % 4u], a);
  unsigned int unused = in[(t + 1u) % 48u];
  unsigned int b = a * 9u + t;
  out[t] = b;
}";

fn dead_results_cpu(inp: &[u32], out: &mut [u32], cnt: &mut [u32]) {
    for t in 0..THREADS {
        let a = inp[t as usize];
        cnt[(t % 4) as usize] = cnt[(t % 4) as usize].wrapping_add(a);
        out[t as usize] = a.wrapping_mul(9).wrapping_add(t);
    }
}

type CpuKernel = fn(&[u32], &mut [u32], &mut [u32]);

const KERNELS: [(&str, CpuKernel); 5] = [
    (DIVERGE, diverge_cpu),
    (SHUFFLE, shuffle_cpu),
    (SHUFFLE_UNWRITTEN, shuffle_unwritten_cpu),
    (UNASSIGNED, unassigned_cpu),
    (DEAD_RESULTS, dead_results_cpu),
];

/// Runs `kernel` on a fresh `test_tiny` device and returns the result with
/// the `out` and `cnt` buffers.
fn run(kernel: &KernelIr) -> (RunResult, Vec<u32>, Vec<u32>) {
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let out = gpu.memory_mut().alloc_u32(2 * THREADS as usize);
    let inp = gpu.memory_mut().alloc_from_u32(&input());
    let cnt = gpu.memory_mut().alloc_u32(4);
    let launch = Launch::new(kernel.clone(), 1, (THREADS, 1, 1))
        .arg(ParamValue::Ptr(out))
        .arg(ParamValue::Ptr(inp))
        .arg(ParamValue::Ptr(cnt));
    let res = gpu
        .run(&[launch])
        .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
    let mem = gpu.memory();
    (res, mem.read_u32s(out), mem.read_u32s(cnt))
}

#[test]
fn register_reads_are_exact() {
    let mut table = String::new();
    for (src, cpu) in KERNELS {
        let ast = parse_kernel(src).expect("parse");
        let mut want_out = vec![0u32; 2 * THREADS as usize];
        let mut want_cnt = vec![0u32; 4];
        cpu(&input(), &mut want_out, &mut want_cnt);
        for (opt, kernel) in [
            ("opt", lower_kernel(&ast).expect("lower")),
            ("raw", lower_kernel_unoptimized(&ast).expect("lower")),
        ] {
            let (res, out, cnt) = run(&kernel);
            let what = format!("{} ({opt})", kernel.name);
            assert_eq!(out, want_out, "{what}: `out` differs from the CPU");
            assert_eq!(cnt, want_cnt, "{what}: `cnt` differs from the CPU");
            table.push_str(&format!("{what} {res:?}\n"));
        }
    }
    let expected: Vec<&str> = GOLDEN
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let actual: Vec<&str> = table.lines().collect();
    assert!(
        expected == actual,
        "simulated statistics changed; actual table:\n{table}"
    );
}

/// The pinned `RunResult` of every kernel, optimized and unoptimized.
const GOLDEN: &str = "
diverge (opt) RunResult { total_cycles: 215, metrics: RunMetrics { cycles: 215, issued_slots: 188, total_slots: 860, stall_mem: 119, stall_exec: 122, stall_sync: 0, stall_other: 431, active_warp_cycles: 429, active_sm_cycles: 215, max_warps_per_sm: 64, thread_insts: 3093, mem_transactions: 4, class_issues: [152, 4, 0, 0, 0, 0, 4, 0, 0, 28, 0] }, launch_finish: [214] }
diverge (raw) RunResult { total_cycles: 253, metrics: RunMetrics { cycles: 253, issued_slots: 208, total_slots: 1012, stall_mem: 119, stall_exec: 178, stall_sync: 0, stall_other: 507, active_warp_cycles: 505, active_sm_cycles: 253, max_warps_per_sm: 64, thread_insts: 3375, mem_transactions: 4, class_issues: [164, 12, 0, 0, 0, 0, 4, 0, 0, 28, 0] }, launch_finish: [252] }
shuffle (opt) RunResult { total_cycles: 361, metrics: RunMetrics { cycles: 361, issued_slots: 144, total_slots: 1444, stall_mem: 421, stall_exec: 75, stall_sync: 0, stall_other: 804, active_warp_cycles: 640, active_sm_cycles: 361, max_warps_per_sm: 64, thread_insts: 2468, mem_transactions: 15, class_issues: [117, 0, 0, 4, 0, 0, 14, 0, 0, 9, 0] }, launch_finish: [360] }
shuffle (raw) RunResult { total_cycles: 383, metrics: RunMetrics { cycles: 383, issued_slots: 152, total_slots: 1532, stall_mem: 421, stall_exec: 106, stall_sync: 0, stall_other: 853, active_warp_cycles: 679, active_sm_cycles: 383, max_warps_per_sm: 64, thread_insts: 2714, mem_transactions: 15, class_issues: [121, 4, 0, 4, 0, 0, 14, 0, 0, 9, 0] }, launch_finish: [382] }
shuffle_unwritten (opt) RunResult { total_cycles: 280, metrics: RunMetrics { cycles: 280, issued_slots: 125, total_slots: 1120, stall_mem: 360, stall_exec: 65, stall_sync: 0, stall_other: 570, active_warp_cycles: 550, active_sm_cycles: 280, max_warps_per_sm: 64, thread_insts: 2530, mem_transactions: 12, class_issues: [101, 0, 0, 3, 0, 0, 11, 0, 0, 10, 0] }, launch_finish: [279] }
shuffle_unwritten (raw) RunResult { total_cycles: 291, metrics: RunMetrics { cycles: 291, issued_slots: 126, total_slots: 1164, stall_mem: 360, stall_exec: 87, stall_sync: 0, stall_other: 591, active_warp_cycles: 573, active_sm_cycles: 291, max_warps_per_sm: 64, thread_insts: 2596, mem_transactions: 12, class_issues: [98, 4, 0, 3, 0, 0, 11, 0, 0, 10, 0] }, launch_finish: [290] }
unassigned (opt) RunResult { total_cycles: 120, metrics: RunMetrics { cycles: 120, issued_slots: 82, total_slots: 480, stall_mem: 119, stall_exec: 38, stall_sync: 0, stall_other: 241, active_warp_cycles: 239, active_sm_cycles: 120, max_warps_per_sm: 64, thread_insts: 1872, mem_transactions: 7, class_issues: [70, 0, 0, 0, 0, 0, 6, 0, 0, 6, 0] }, launch_finish: [119] }
unassigned (raw) RunResult { total_cycles: 123, metrics: RunMetrics { cycles: 123, issued_slots: 88, total_slots: 492, stall_mem: 119, stall_exec: 38, stall_sync: 0, stall_other: 247, active_warp_cycles: 245, active_sm_cycles: 123, max_warps_per_sm: 64, thread_insts: 2016, mem_transactions: 7, class_issues: [76, 0, 0, 0, 0, 0, 6, 0, 0, 6, 0] }, launch_finish: [122] }
dead_results (opt) RunResult { total_cycles: 117, metrics: RunMetrics { cycles: 117, issued_slots: 66, total_slots: 468, stall_mem: 119, stall_exec: 48, stall_sync: 0, stall_other: 235, active_warp_cycles: 233, active_sm_cycles: 117, max_warps_per_sm: 64, thread_insts: 1584, mem_transactions: 10, class_issues: [54, 2, 0, 0, 0, 0, 6, 2, 0, 2, 0] }, launch_finish: [116] }
dead_results (raw) RunResult { total_cycles: 196, metrics: RunMetrics { cycles: 196, issued_slots: 78, total_slots: 784, stall_mem: 249, stall_exec: 62, stall_sync: 0, stall_other: 395, active_warp_cycles: 389, active_sm_cycles: 196, max_warps_per_sm: 64, thread_insts: 1872, mem_transactions: 10, class_issues: [64, 4, 0, 0, 0, 0, 6, 2, 0, 2, 0] }, launch_finish: [195] }
";
