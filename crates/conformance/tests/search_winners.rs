//! Conformance of the cross-family pair matrix: for each pair drawn from
//! two different kernel families, run the fusion-config search and re-run
//! the winning kernel functionally (sanitizer on), checking both outputs
//! against their CPU references.

use hfuse_conformance::{check_search_winner, conformance_search_options};
use hfuse_kernels::AnyBenchmark;

fn check(a: &str, b: &str) {
    let a = AnyBenchmark::by_name(a).unwrap().scaled(0.25);
    let b = AnyBenchmark::by_name(b).unwrap().scaled(0.25);
    check_search_winner(&a, &b, conformance_search_options()).unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn blas_x_image_axpy_blur() {
    check("Axpy", "Blur");
}

#[test]
fn blas_x_image_dot_downsample() {
    check("Dot", "Downsample");
}

#[test]
fn blas_x_image_gemv_blur() {
    check("Gemv", "Blur");
}

#[test]
fn blas_x_attn_axpy_attention() {
    check("Axpy", "Attention");
}

#[test]
fn blas_x_attn_dot_attention() {
    check("Dot", "Attention");
}

#[test]
fn blas_x_attn_gemv_attention() {
    check("Gemv", "Attention");
}

#[test]
fn image_x_attn_downsample_attention() {
    check("Downsample", "Attention");
}
