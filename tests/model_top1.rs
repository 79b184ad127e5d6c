//! Smoke tests of the calibrated analytic pre-filter's ranking quality.
//!
//! The search's *correctness* never depends on the model (the budget-abort
//! argument guarantees a bit-identical winner), but its *speed* does: the
//! winner must lie in the model-exempt front — the model's top-
//! [`hfuse::fusion::MODEL_TOP_K`] candidates plus near-ties within
//! [`hfuse::fusion::MODEL_MARGIN`] — so it wins the front's race and
//! establishes the tightest abort budget for the rest of the sweep. These
//! tests pin that property on every paper pair, and the model's top-1
//! agreement where it is exact, so a calibration or feature regression
//! shows up as a test failure, not as a silent search slowdown.
//!
//! A search with at most [`hfuse::fusion::MODEL_TOP_K`] unique programs
//! ranks nothing (every program is raced, every `model_score` is 0), so
//! top-1 agreement is measured on the model's own order: every candidate
//! profiled to completion by [`calibration_rows`] and ranked by its
//! estimate under the checked-in [`CALIBRATED_K`].

use hfuse::fusion::{calibration_rows, search_fusion_config, FusionInput, SearchOptions};
use hfuse::kernels::{all_pairs, PairSpec};
use hfuse::sim::model::CALIBRATED_K;
use hfuse::sim::{Gpu, GpuConfig};

/// The pair at the calibration workload (full scale, Pascal-like device).
fn setup(pair: &PairSpec) -> (Gpu, FusionInput, FusionInput) {
    let (a, b) = pair.at_scale(1.0);
    let mut gpu = Gpu::new(GpuConfig::pascal_like());
    let in1 = a.benchmark().fusion_input(gpu.memory_mut());
    let in2 = b.benchmark().fusion_input(gpu.memory_mut());
    (gpu, in1, in2)
}

fn run_pair(pair: &PairSpec) -> hfuse::fusion::SearchReport {
    let (gpu, in1, in2) = setup(pair);
    search_fusion_config(&gpu, &in1, &in2, SearchOptions::default())
        .unwrap_or_else(|e| panic!("{}: search failed: {e}", pair.name()))
}

/// The simulated winner's rank in the model's order over the pair's
/// schedulable candidates (1 = the model ranks it first): the fewest
/// cycles against the least estimate `features · CALIBRATED_K`, the first
/// candidate on a tie of either, as the search breaks them.
fn model_rank_of_winner(pair: &PairSpec) -> usize {
    let (gpu, in1, in2) = setup(pair);
    let rows = calibration_rows(&gpu, &in1, &in2, SearchOptions::default())
        .unwrap_or_else(|e| panic!("{}: calibration failed: {e}", pair.name()));
    let estimates: Vec<f64> = rows
        .iter()
        .map(|r| {
            let dot: f64 = r
                .features
                .iter()
                .zip(&CALIBRATED_K)
                .map(|(x, k)| x * k)
                .sum();
            dot.max(0.0)
        })
        .collect();
    let winner = (0..rows.len())
        .min_by_key(|&i| (rows[i].cycles, i))
        .unwrap_or_else(|| panic!("{}: no schedulable candidate", pair.name()));
    1 + (0..rows.len())
        .filter(|&i| (estimates[i], i) < (estimates[winner], winner))
        .count()
}

/// Every paper pair, at the calibration workload (full scale, default
/// search options): the simulated winner must be inside the model-exempt
/// front. Expensive in debug; the CI model-front smoke job runs it in
/// release with `--include-ignored`.
#[test]
#[ignore = "full-scale sweep of all 16 paper pairs; run in release by the CI smoke job"]
fn winner_in_model_front_on_all_paper_pairs() {
    let mut ranks = Vec::new();
    for pair in &all_pairs() {
        let report = run_pair(pair);
        assert!(
            report.best_in_model_front(),
            "{}: winner (model rank {}/{}) fell outside the model-exempt front",
            pair.name(),
            report.best_model_rank(),
            report.candidates.len()
        );
        ranks.push((pair.name(), model_rank_of_winner(pair)));
    }
    // The model must rank the true winner first on a solid majority of the
    // pairs: the checked-in constants do on 10 of the 16 (the two
    // Ethash+Blake pairs rank their winner second); a drop below 10 means
    // the constants are stale.
    let top1 = ranks.iter().filter(|&&(_, r)| r == 1).count();
    assert!(top1 >= 10, "model top-1 agreement collapsed: {ranks:?}");
}

/// Fast canary run in the default (debug) suite: on the cheap Blake/SHA
/// crypto pairs at the calibration workload the model's top-1 choice must
/// *be* the simulated winner — these are the pairs where the calibrated
/// constants get the ordering exactly right, so a sign-level regression in
/// the constants or the feature extraction trips this before the full CI
/// sweep does. (The model-exempt front is only pinned at the calibration
/// workload: at other scales or devices the search stays bit-identical to
/// exhaustive regardless, it just prunes less effectively.)
#[test]
fn model_top1_exact_on_blake_sha_pairs() {
    let pairs = all_pairs();
    // all_pairs() = 10 DL pairs then 6 crypto pairs; the last three are
    // the Ethash-free ones (Blake256+Blake2B, Blake256+SHA256,
    // Blake2B+SHA256).
    for pair in &pairs[13..16] {
        assert_eq!(
            model_rank_of_winner(pair),
            1,
            "{}: model no longer ranks the simulated winner first",
            pair.name()
        );
    }
}
