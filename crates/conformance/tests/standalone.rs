//! Simulator-vs-reference conformance for every benchmark kernel run
//! standalone, with the sanitizer enabled.

use hfuse_conformance::check_standalone;
use hfuse_kernels::AnyBenchmark;

fn sweep(benches: Vec<AnyBenchmark>, factor: f64) {
    for b in benches {
        let b = b.scaled(factor);
        check_standalone(&b).unwrap_or_else(|e| panic!("{e}"));
    }
}

#[test]
fn family_kernels_match_references() {
    sweep(AnyBenchmark::families(), 0.25);
}

#[test]
fn paper_kernels_match_references() {
    sweep(AnyBenchmark::all(), 0.25);
}

#[test]
fn extension_kernels_match_references() {
    sweep(AnyBenchmark::extensions(), 0.25);
}
