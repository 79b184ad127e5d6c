//! Barrier elimination hands the fuse gate each member's range summary from
//! its last analysis. For every member of every Fig. 6 partition of the 20
//! paper and family pairs, preprocessed as fusion preprocesses it, that
//! summary must equal `summarize_ranges` of the function elimination left,
//! at the member's width; and the fused kernel's eliminated-barrier count
//! and fast-path flag must follow from those members.

use hfuse::analysis::{eliminate_redundant_barriers, summarize_ranges};
use hfuse::frontend::transform::{preprocess_kernel, NameGen};
use hfuse::frontend::Function;
use hfuse::fusion::horizontal_fuse;
use hfuse::fusion::SearchOptions;
use hfuse::kernels::{all_pairs, family_pairs, Benchmark};

/// The Fig. 6 partitions of a pair at the default search options.
fn partitions(a: &dyn Benchmark, b: &dyn Benchmark) -> Vec<(u32, u32)> {
    let opts = SearchOptions::default();
    if a.tunable() && b.tunable() {
        (1..)
            .map(|i| i * opts.granularity)
            .take_while(|&d1| d1 < opts.d0)
            .map(|d1| (d1, opts.d0 - d1))
            .collect()
    } else {
        vec![(a.default_threads(), b.default_threads())]
    }
}

#[test]
fn elimination_summaries_equal_fresh_summaries_at_every_partition() {
    let mut members = 0;
    let mut fast = 0;
    for pair in all_pairs().into_iter().chain(family_pairs()) {
        let (a, b) = (pair.first.benchmark(), pair.second.benchmark());
        let (ka, kb) = (a.kernel(), b.kernel());
        for (d1, d2) in partitions(a, b) {
            let (Some(dims1), Some(dims2)) = (a.shape().dims(d1), b.shape().dims(d2)) else {
                continue;
            };
            let mut names = NameGen::new();
            let mut removed = 0;
            let mut clean = true;
            for (kernel, d) in [(&ka, d1), (&kb, d2)] {
                let what = format!("{} at {d1}/{d2}, {} at {d}", pair.name(), kernel.name);
                let mut f: Function = kernel.clone();
                preprocess_kernel(&mut f, &[], &mut names).expect("preprocess");
                let (n, summary) = eliminate_redundant_barriers(&mut f, Some(d));
                assert_eq!(summary, summarize_ranges(&f, Some(d)), "{what}");
                removed += n;
                clean &= summary.fast_gate_clean();
                members += 1;
            }
            if let Ok(fused) = horizontal_fuse(&ka, dims1, &kb, dims2) {
                let what = format!("{} at {d1}/{d2}", pair.name());
                assert_eq!(fused.barriers_eliminated, removed, "{what}");
                assert_eq!(fused.gate_fast_path, clean, "{what}");
                fast += u32::from(clean);
            }
        }
    }
    assert!(members > 50, "only {members} members checked");
    assert!(fast > 0, "no fusion took the fast path");
}
