//! The fusion-time static safety gate and its `HFUSE_NO_STATIC_CHECK`
//! escape hatch. Kept in a dedicated test binary: the hatch is a
//! process-global environment variable, so these tests must not share a
//! process with tests that rely on the gate being armed.

use cuda_frontend::parse_kernel;
use hfuse_core::fuse::horizontal_fuse;
use hfuse_core::multi::{horizontal_fuse_many, FusionPart};

/// A kernel with a barrier under a data-dependent guard: statically unsafe
/// (unknown arrival set) and rejected by the gate.
const DIVERGENT: &str = "\
__global__ void divb(int* out, int* in) {
    int t = threadIdx.x;
    if (in[t] > 0) {
        __syncthreads();
    }
    out[t] = t;
}
";

const CLEAN: &str = "\
__global__ void ok(int* out) {
    int t = threadIdx.x;
    out[t] = t * 2;
}
";

/// The divergent kernel between two clean ones, for the N-way entry point.
fn three_parts() -> Vec<FusionPart> {
    [CLEAN, DIVERGENT, CLEAN]
        .map(|src| FusionPart::new(parse_kernel(src).unwrap(), (64, 1, 1)))
        .to_vec()
}

#[test]
fn env_hatch_disables_the_gate() {
    let bad = parse_kernel(DIVERGENT).unwrap();
    let ok = parse_kernel(CLEAN).unwrap();

    let gated = horizontal_fuse(&bad, (64, 1, 1), &ok, (64, 1, 1));
    let err = gated.expect_err("gate must reject the divergent barrier");
    assert!(err.to_string().contains("static safety"), "{err}");
    let err = horizontal_fuse_many(&three_parts()).expect_err("N-way fusion is gated too");
    assert!(err.to_string().contains("static safety"), "{err}");

    std::env::set_var("HFUSE_NO_STATIC_CHECK", "1");
    let ungated = horizontal_fuse(&bad, (64, 1, 1), &ok, (64, 1, 1));
    let ungated_many = horizontal_fuse_many(&three_parts());
    std::env::remove_var("HFUSE_NO_STATIC_CHECK");
    let fused = ungated.expect("hatch must restore pre-gate behavior");
    let fused_many = ungated_many.expect("hatch must un-gate N-way fusion too");

    // The hatch only skips the check — the fused output is the same kernel
    // fusion would have produced, barriers replaced and all.
    assert!(fused.to_source().contains("bar.sync"));
    assert!(fused_many.to_source().contains("bar.sync 2, 64;"));

    // `HFUSE_NO_STATIC_CHECK=0` means "armed".
    std::env::set_var("HFUSE_NO_STATIC_CHECK", "0");
    let still_gated = horizontal_fuse(&bad, (64, 1, 1), &ok, (64, 1, 1));
    std::env::remove_var("HFUSE_NO_STATIC_CHECK");
    assert!(still_gated.is_err());
}
