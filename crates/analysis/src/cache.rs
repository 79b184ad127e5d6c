//! Process-wide memoization of [`analyze_kernel`] and the range summaries.
//!
//! The static fusion-safety analysis runs in three places: the `hfuse
//! lint` CLI, the safety gate inside `horizontal_fuse`, and (through the
//! `Session` query layer in `hfuse-core`) the memoized `lints(k)` query.
//! Before this cache, a kernel linted by the CLI was re-analyzed from
//! scratch by the fuse gate in the same process, and every register-bound
//! sibling of a search candidate re-analyzed the identical fused function.
//! All three paths now share one table keyed by content: the FNV-1a hash
//! of the *printed* function (so whitespace and macro-expansion history
//! don't matter), the `block_threads` assumption the lints ran under, and
//! a fingerprint of the global-extent map feeding the out-of-bounds lint.
//!
//! The first computation of a key wins and is shared verbatim — including
//! its span information. A caller that analyzes with a [`SpanTable`] after
//! someone already cached the span-less result receives the span-less
//! diagnostics (and vice versa); diagnostics differ only in source
//! positions, never in substance, so every consumer (the gate checks
//! emptiness, the CLI prints messages) stays correct.
//!
//! A second table memoizes [`summarize_ranges`] the same way (extents do
//! not feed summaries, so that key is just content × block width); its
//! counters are surfaced separately in [`AnalysisCacheStats`]. Fusion takes
//! member summaries from [`eliminate_redundant_barriers`](crate::eliminate_redundant_barriers)
//! instead, so this table serves `Session::ranges` and the fusion paths that
//! skip elimination (the full-barrier ablation, `HFUSE_NO_BARRIER_ELIM`).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use cuda_frontend::ast::Function;
use cuda_frontend::diag::{Diagnostic, SpanTable};
use cuda_frontend::hash::fnv1a_64;
use cuda_frontend::printer::print_function;

use crate::ranges::{extents_fingerprint, summarize_ranges, KernelRangeSummary};
use crate::{analyze_kernel, AnalysisOptions};

/// Content hash of a kernel: FNV-1a over the pretty-printed function.
/// Stable under reformatting of the original source, since the printer
/// canonicalizes layout.
#[must_use]
pub fn function_content_hash(f: &Function) -> u64 {
    fnv1a_64(print_function(f).as_bytes())
}

#[derive(Default)]
struct CacheInner {
    map: HashMap<(u64, Option<u32>, u64), Arc<Vec<Diagnostic>>>,
    hits: u64,
    misses: u64,
    ranges: HashMap<(u64, Option<u32>), Arc<KernelRangeSummary>>,
    range_hits: u64,
    range_misses: u64,
}

fn cache() -> &'static Mutex<CacheInner> {
    static CACHE: OnceLock<Mutex<CacheInner>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(CacheInner::default()))
}

/// Hit/miss counters of the process-wide analysis cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalysisCacheStats {
    /// Lint lookups served from the cache.
    pub hits: u64,
    /// Lint lookups that ran the analysis.
    pub misses: u64,
    /// Distinct `(function content, block_threads, extents)` lint keys.
    pub entries: usize,
    /// Range-summary lookups served from the cache.
    pub range_hits: u64,
    /// Range-summary lookups that ran the analysis.
    pub range_misses: u64,
    /// Distinct `(function content, block_threads)` summary keys.
    pub range_entries: usize,
}

/// Snapshot of the cache counters. They are shared by every thread of the
/// process, so a delta across a call also counts other threads' lookups.
#[must_use]
pub fn analysis_cache_stats() -> AnalysisCacheStats {
    let inner = cache().lock().expect("analysis cache poisoned");
    AnalysisCacheStats {
        hits: inner.hits,
        misses: inner.misses,
        entries: inner.map.len(),
        range_hits: inner.range_hits,
        range_misses: inner.range_misses,
        range_entries: inner.ranges.len(),
    }
}

/// Memoized [`analyze_kernel`]: one analysis per distinct
/// `(function content, block_threads, extents)` in the process lifetime.
///
/// Concurrent first requests for the same key may both run the analysis;
/// the first insert wins and both count as misses — the analysis is pure,
/// so this only costs duplicated work, never divergent results.
pub fn analyze_kernel_memoized(
    f: &Function,
    spans: Option<&SpanTable>,
    opts: &AnalysisOptions,
) -> Arc<Vec<Diagnostic>> {
    let key = (
        function_content_hash(f),
        opts.block_threads,
        extents_fingerprint(opts.global_extents.as_deref()),
    );
    {
        let mut inner = cache().lock().expect("analysis cache poisoned");
        if let Some(cached) = inner.map.get(&key).map(Arc::clone) {
            inner.hits += 1;
            return cached;
        }
    }
    // Compute outside the lock: analysis can be expensive and is pure.
    let diags = Arc::new(analyze_kernel(f, spans, opts));
    let mut inner = cache().lock().expect("analysis cache poisoned");
    inner.misses += 1;
    Arc::clone(inner.map.entry(key).or_insert(diags))
}

/// Memoized [`summarize_ranges`]: one summary per distinct
/// `(function content, block_threads)` in the process lifetime.
pub fn summarize_ranges_memoized(
    f: &Function,
    block_threads: Option<u32>,
) -> Arc<KernelRangeSummary> {
    let key = (function_content_hash(f), block_threads);
    {
        let mut inner = cache().lock().expect("analysis cache poisoned");
        if let Some(cached) = inner.ranges.get(&key).map(Arc::clone) {
            inner.range_hits += 1;
            return cached;
        }
    }
    let summary = Arc::new(summarize_ranges(f, block_threads));
    let mut inner = cache().lock().expect("analysis cache poisoned");
    inner.range_misses += 1;
    Arc::clone(inner.ranges.entry(key).or_insert(summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_frontend::parse_kernel_with_spans;

    fn kernel(src: &str) -> (Function, SpanTable) {
        parse_kernel_with_spans(src).expect("parse")
    }

    // The counters are process-wide and parallel tests bump them too, so
    // the tests below check memoization through `Arc` identity: a repeat
    // lookup of a key returns its first `Arc`, a different key a new one.
    // Counters are only asserted where other tests cannot break them.

    #[test]
    fn second_analysis_of_same_content_hits() {
        // Unique kernel text so parallel tests can't pre-populate the key.
        let src = "__global__ void cache_probe_a(float* x) { x[threadIdx.x] = 61.0f; }";
        let (f, spans) = kernel(src);
        let opts = AnalysisOptions {
            block_threads: Some(64),
            ..AnalysisOptions::default()
        };
        let before = analysis_cache_stats();
        let first = analyze_kernel_memoized(&f, Some(&spans), &opts);
        let second = analyze_kernel_memoized(&f, Some(&spans), &opts);
        let after = analysis_cache_stats();
        assert!(Arc::ptr_eq(&first, &second), "second lookup shares the Arc");
        assert!(after.hits - before.hits >= 1);
    }

    #[test]
    fn whitespace_reformat_shares_the_entry() {
        let a = kernel("__global__ void cache_probe_b(float* x) { x[threadIdx.x] = 62.0f; }").0;
        let b =
            kernel("__global__ void cache_probe_b(float* x) {\n    x[threadIdx.x]   =   62.0f;\n}")
                .0;
        assert_eq!(function_content_hash(&a), function_content_hash(&b));
    }

    /// Looks up `f` under both option sets, twice each, and asserts the two
    /// keys hold distinct entries that repeat lookups share.
    fn assert_distinct_keys(f: &Function, a: &AnalysisOptions, b: &AnalysisOptions) {
        let first_a = analyze_kernel_memoized(f, None, a);
        let first_b = analyze_kernel_memoized(f, None, b);
        assert!(!Arc::ptr_eq(&first_a, &first_b), "keys share one entry");
        assert!(Arc::ptr_eq(&first_a, &analyze_kernel_memoized(f, None, a)));
        assert!(Arc::ptr_eq(&first_b, &analyze_kernel_memoized(f, None, b)));
    }

    #[test]
    fn block_threads_is_part_of_the_key() {
        let (f, _) = kernel("__global__ void cache_probe_c(float* x) { x[threadIdx.x] = 63.0f; }");
        assert_distinct_keys(
            &f,
            &AnalysisOptions {
                block_threads: Some(128),
                ..AnalysisOptions::default()
            },
            &AnalysisOptions {
                block_threads: Some(256),
                ..AnalysisOptions::default()
            },
        );
    }

    #[test]
    fn extents_are_part_of_the_key() {
        let (f, _) = kernel("__global__ void cache_probe_d(float* x) { x[threadIdx.x] = 64.0f; }");
        let mut ext = std::collections::BTreeMap::new();
        ext.insert("x".to_owned(), 64i64);
        assert_distinct_keys(
            &f,
            &AnalysisOptions {
                block_threads: Some(64),
                ..AnalysisOptions::default()
            },
            &AnalysisOptions {
                block_threads: Some(64),
                global_extents: Some(Arc::new(ext)),
            },
        );
    }

    #[test]
    fn range_summaries_are_memoized() {
        let (f, _) = kernel("__global__ void cache_probe_e(float* x) { x[threadIdx.x] = 65.0f; }");
        let before = analysis_cache_stats();
        let first = summarize_ranges_memoized(&f, Some(64));
        let second = summarize_ranges_memoized(&f, Some(64));
        let other = summarize_ranges_memoized(&f, Some(128));
        let after = analysis_cache_stats();
        assert!(Arc::ptr_eq(&first, &second));
        assert!(
            !Arc::ptr_eq(&first, &other),
            "block width is part of the key"
        );
        assert!(Arc::ptr_eq(
            &other,
            &summarize_ranges_memoized(&f, Some(128))
        ));
        assert!(after.range_hits - before.range_hits >= 1);
    }
}
