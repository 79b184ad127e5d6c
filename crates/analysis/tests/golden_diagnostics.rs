//! Golden tests pinning the analyzer's diagnostics — codes, messages, and
//! exact source positions — on small fixture kernels, plus negative fixtures
//! proving each lint actually fires.

use cuda_frontend::parse_kernel_with_spans;
use hfuse_analysis::{
    analyze_kernel, AnalysisOptions, CODE_BARRIER_DIVERGENCE, CODE_PARTIAL_BARRIER,
    CODE_SHARED_RACE,
};

fn diags_of(src: &str, threads: Option<u32>) -> Vec<cuda_frontend::Diagnostic> {
    let (f, spans) = parse_kernel_with_spans(src).expect("fixture must parse");
    analyze_kernel(
        &f,
        Some(&spans),
        &AnalysisOptions {
            block_threads: threads,
            ..AnalysisOptions::default()
        },
    )
}

#[test]
fn divergent_barrier_is_flagged_with_span() {
    let src = "\
__global__ void k(float* out) {
    int t = threadIdx.x;
    if (t % 2 == 0) {
        __syncthreads();
    }
    out[t] = 1.0f;
}
";
    // The mod-2 arrival set is solved exactly (the even threads), so with a
    // known block size half the block provably skips the barrier.
    let diags = diags_of(src, Some(128));
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.code, CODE_BARRIER_DIVERGENCE);
    let span = d.span.expect("must carry a span");
    assert_eq!(
        (span.line, span.col),
        (4, 9),
        "span must point at the barrier"
    );
    assert!(d.message.contains("64 of 128"), "{}", d.message);
    // The rendered form quotes the offending source line.
    assert!(
        d.render(src).contains("__syncthreads();"),
        "{}",
        d.render(src)
    );
}

#[test]
fn data_dependent_barrier_guard_is_flagged_without_block_size() {
    // `in[t] > 0` cannot be resolved to a thread set at all, so the barrier
    // is flagged even when the block size is unknown.
    let src = "\
__global__ void k(float* out, int* in) {
    int t = threadIdx.x;
    if (in[t] > 0) {
        __syncthreads();
    }
    out[t] = 1.0f;
}
";
    for threads in [None, Some(128)] {
        let diags = diags_of(src, threads);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, CODE_BARRIER_DIVERGENCE);
        assert!(
            diags[0].message.contains("non-uniform"),
            "{}",
            diags[0].message
        );
    }
}

#[test]
fn partial_thread_set_barrier_is_flagged_when_block_known() {
    let src = "\
__global__ void k(float* out) {
    int t = threadIdx.x;
    if (t < 64) {
        __syncthreads();
    }
    out[t] = 1.0f;
}
";
    // Block size known: only 64 of 128 threads reach the barrier.
    let diags = diags_of(src, Some(128));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, CODE_BARRIER_DIVERGENCE);
    assert!(
        diags[0].message.contains("64 of 128"),
        "{}",
        diags[0].message
    );
    // Block size unknown: the set is exact but the block size is not; the
    // standalone lint stays quiet rather than guess.
    assert!(diags_of(src, None).is_empty());
}

#[test]
fn uniform_guard_around_barrier_is_clean() {
    let src = "\
__global__ void k(float* out, int n) {
    for (int i = 0; i < n; i += 1) {
        __syncthreads();
        out[i] = 1.0f;
    }
}
";
    assert!(diags_of(src, Some(128)).is_empty());
}

#[test]
fn definite_shared_race_is_flagged_with_span() {
    let src = "\
__global__ void k(float* out) {
    __shared__ float s[160];
    int t = threadIdx.x;
    s[t] = 1.0f;
    out[t] = s[t + 32];
}
";
    let diags = diags_of(src, Some(128));
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(d.code, CODE_SHARED_RACE);
    let span = d.span.expect("must carry a span");
    assert_eq!(span.line, 4, "span must point at the write");
    assert!(d.message.contains("`s`"), "{}", d.message);
    assert!(d.message.contains("read and a write"), "{}", d.message);
}

#[test]
fn single_location_broadcast_write_is_a_race() {
    let src = "\
__global__ void k(float* out) {
    __shared__ float s[32];
    int t = threadIdx.x;
    s[0] = t;
    __syncthreads();
    out[t] = s[0];
}
";
    // All 64 threads (two warps) write s[0] unsynchronised: definite WW race.
    let diags = diags_of(src, Some(64));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, CODE_SHARED_RACE);
    assert!(
        diags[0].message.contains("two writes"),
        "{}",
        diags[0].message
    );
    // With a single warp there is no cross-warp pair: clean.
    assert!(diags_of(src, Some(32)).is_empty());
}

#[test]
fn barrier_separated_exchange_is_clean() {
    let src = "\
__global__ void k(float* out) {
    __shared__ float s[160];
    int t = threadIdx.x;
    s[t] = 1.0f;
    __syncthreads();
    out[t] = s[t + 32];
}
";
    assert!(diags_of(src, Some(128)).is_empty());
}

#[test]
fn guarded_single_writer_is_clean() {
    let src = "\
__global__ void k(float* out) {
    __shared__ float s[32];
    int t = threadIdx.x;
    if (t == 0) {
        s[0] = 1.0f;
    }
    __syncthreads();
    out[t] = s[0];
}
";
    assert!(diags_of(src, Some(128)).is_empty());
}

#[test]
fn atomic_updates_are_exempt() {
    let src = "\
__global__ void k(int* out) {
    __shared__ int s[32];
    int t = threadIdx.x;
    atomicAdd(&s[0], t);
    __syncthreads();
    out[t] = s[t % 32];
}
";
    assert!(diags_of(src, Some(128)).is_empty());
}

#[test]
fn loop_carried_write_read_race_is_flagged() {
    // The barrier inside the loop orders the write with *this* iteration's
    // read, but the read and the *next* iteration's write share a phase
    // through the back edge.
    let src = "\
__global__ void k(float* out, int n) {
    __shared__ float s[128];
    int t = threadIdx.x;
    for (int i = 0; i < n; i += 1) {
        s[t] = 1.0f;
        __syncthreads();
        out[i] = s[t + 32];
    }
}
";
    let diags = diags_of(src, Some(128));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, CODE_SHARED_RACE);
}

#[test]
fn non_warp_multiple_bar_sync_is_flagged() {
    let src = "\
__global__ void k(float* out) {
    asm(\"bar.sync 1, 48;\");
    out[0] = 1.0f;
}
";
    let diags = diags_of(src, None);
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, CODE_PARTIAL_BARRIER);
    assert!(diags[0].message.contains("48"), "{}", diags[0].message);
    assert!(
        diags[0].message.contains("warp size"),
        "{}",
        diags[0].message
    );
}

#[test]
fn mismatched_bar_sync_counts_are_flagged() {
    let src = "\
__global__ void k(float* out) {
    asm(\"bar.sync 1, 64;\");
    out[0] = 1.0f;
    asm(\"bar.sync 1, 96;\");
    out[1] = 2.0f;
}
";
    let diags = diags_of(src, None);
    assert!(
        diags
            .iter()
            .any(|d| d.code == CODE_PARTIAL_BARRIER && d.message.contains("mismatched")),
        "{diags:?}"
    );
}

#[test]
fn bar_sync_arrival_count_mismatch_is_flagged() {
    // 64 threads are guarded into the barrier but it declares 96.
    let src = "\
__global__ void k(float* out) {
    int t = threadIdx.x;
    if (t < 64) {
        asm(\"bar.sync 1, 96;\");
    }
    out[t] = 1.0f;
}
";
    let diags = diags_of(src, Some(128));
    assert!(
        diags.iter().any(|d| d.code == CODE_PARTIAL_BARRIER
            && d.message.contains("96")
            && d.message.contains("64")),
        "{diags:?}"
    );
}

#[test]
fn fused_style_guarded_partial_barriers_are_clean() {
    // The exact shape `horizontal_fuse` emits: goto guards carving the block
    // into [0,64) and [64,128), each with a matching partial barrier.
    let src = "\
__global__ void k(float* x, float* y) {
    __shared__ float a[64];
    __shared__ float b[64];
    int gtid = threadIdx.x;
    int t1 = gtid % 64;
    int t2 = gtid - 64;
    if (!(gtid < 64)) goto k1_end;
    a[t1] = 1.0f;
    asm(\"bar.sync 1, 64;\");
    x[t1] = a[0];
    k1_end:
    if (gtid < 64) goto k2_end;
    b[t2] = 2.0f;
    asm(\"bar.sync 2, 64;\");
    y[t2] = b[0];
    k2_end:
    return;
}
";
    assert!(
        diags_of(src, Some(128)).is_empty(),
        "{:?}",
        diags_of(src, Some(128))
    );
}

#[test]
fn cross_partition_race_in_fused_kernel_is_flagged() {
    // Both partitions touch the SAME shared array with overlapping indices
    // and no common barrier: a real fusion hazard.
    let src = "\
__global__ void k(float* x, float* y) {
    __shared__ float a[64];
    int gtid = threadIdx.x;
    int t1 = gtid % 64;
    int t2 = gtid - 64;
    if (!(gtid < 64)) goto k1_end;
    a[t1] = 1.0f;
    k1_end:
    if (gtid < 64) goto k2_end;
    y[t2] = a[t2];
    k2_end:
    return;
}
";
    let diags = diags_of(src, Some(128));
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert_eq!(diags[0].code, CODE_SHARED_RACE);
}

#[test]
fn unresolvable_guards_and_indices_stay_silent() {
    // The `t % 3` guard is solved pointwise but both its writes hit `s[t]`
    // or an unresolvable index — same-thread or unknown, so no provable
    // cross-warp pair; the must-race lint must not guess.
    let src = "\
__global__ void k(float* out, int n) {
    __shared__ float s[128];
    int t = threadIdx.x;
    if (t % 3 == 0) {
        s[t] = 1.0f;
    }
    s[(t + n) % 128] = 2.0f;
    out[t] = s[t];
}
";
    assert!(diags_of(src, Some(128)).is_empty());
}

#[test]
fn multidim_thread_kernels_skip_the_race_lint() {
    // τ alone cannot identify warps in a 2-D block; the lint must stay
    // silent rather than claim cross-warp pairs it cannot prove.
    let src = "\
__global__ void k(float* out) {
    __shared__ float s[64];
    int t = threadIdx.x + threadIdx.y * 8;
    s[threadIdx.x] = t;
    out[t] = s[threadIdx.x];
}
";
    assert!(diags_of(src, Some(64)).is_empty());
}

#[test]
fn address_taken_arrays_are_exempt() {
    let src = "\
__global__ void k(float* out) {
    __shared__ float s[64];
    float* p = (float*)&s[0];
    int t = threadIdx.x;
    p[0] = t;
    out[t] = s[0];
}
";
    assert!(diags_of(src, Some(128)).is_empty());
}

#[test]
fn diagnostics_are_ordered_by_position() {
    let src = "\
__global__ void k(float* out) {
    __shared__ float s[160];
    int t = threadIdx.x;
    s[t] = 1.0f;
    out[t] = s[t + 32];
    if (t % 2 == 0) {
        __syncthreads();
    }
}
";
    let diags = diags_of(src, Some(128));
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert_eq!(diags[0].code, CODE_SHARED_RACE);
    assert_eq!(diags[1].code, CODE_BARRIER_DIVERGENCE);
    let l0 = diags[0].span.unwrap().line;
    let l1 = diags[1].span.unwrap().line;
    assert!(l0 < l1);
}

#[test]
fn ternary_arms_assigning_one_index_are_joined() {
    // Every thread takes the first arm, so `j` is 5, never 100. The arms
    // must run on separate states and be joined: evaluating them in
    // sequence would leave `j == 100` and report a definite out-of-bounds
    // write that no thread performs.
    let src = "\
__global__ void k(float* out) {
    __shared__ float s[64];
    int j = 0;
    int c = (threadIdx.x < 1024) ? (j = 5) : (j = 100);
    s[j] = threadIdx.x;
    __syncthreads();
    out[blockIdx.x * 64 + threadIdx.x] = s[threadIdx.x] + c;
}
";
    let diags = diags_of(src, Some(64));
    assert!(diags.is_empty(), "{diags:?}");

    let one_store = "\
__global__ void one_store(float* o) {
    o[blockIdx.x * 64 + threadIdx.x] = 7.0f;
}
";
    let k1 = cuda_frontend::parse_kernel(src).unwrap();
    let k2 = cuda_frontend::parse_kernel(one_store).unwrap();
    let fused = hfuse_core::fuse::horizontal_fuse(&k1, (64, 1, 1), &k2, (64, 1, 1));
    assert!(fused.is_ok(), "{:?}", fused.err());
}
