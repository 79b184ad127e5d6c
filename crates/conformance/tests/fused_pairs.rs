//! Conformance of horizontally fused intra-family pairs: each pair fuses at
//! even and uneven partitions and must reproduce both CPU references
//! exactly, with the sanitizer enabled.

use hfuse_conformance::check_fused;
use hfuse_kernels::AnyBenchmark;

fn by_name(name: &str) -> AnyBenchmark {
    AnyBenchmark::by_name(name)
        .unwrap_or_else(|| panic!("unknown benchmark {name}"))
        .scaled(0.25)
}

fn check_pair(a: &str, b: &str) {
    let (a, b) = (by_name(a), by_name(b));
    // Even, uneven, and reversed-uneven partitions of a 512 block; the
    // uneven splits exercise non-power-of-two partition sizes (e.g. Dot's
    // tree reduction over 384 threads).
    for (d1, d2) in [(256, 256), (384, 128), (128, 384)] {
        check_fused(&a, &b, d1, d2).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn blas_axpy_dot_fused_matches_references() {
    check_pair("Axpy", "Dot");
}

#[test]
fn blas_axpy_gemv_fused_matches_references() {
    check_pair("Axpy", "Gemv");
}

#[test]
fn blas_dot_gemv_fused_matches_references() {
    check_pair("Dot", "Gemv");
}

#[test]
fn image_blur_downsample_fused_matches_references() {
    check_pair("Blur", "Downsample");
}

#[test]
fn attention_self_pair_fused_matches_references() {
    // The attention family has one kernel; fusing two instances (separate
    // buffers, renamed __shared__ tiles) still covers the family's fused
    // behaviour: partial barriers inside loops on both sides.
    check_pair("Attention", "Attention");
}
