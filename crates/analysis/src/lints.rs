//! The fusion-safety lints: barrier divergence, partial-barrier structure,
//! *definite* shared-memory races, and *must* out-of-bounds accesses, all
//! read off one run of the abstract interpreter.
//!
//! The race and out-of-bounds lints are must-analyses: they report only
//! what they can exhibit — two concrete thread ids in different warps
//! touching the same shared element in one barrier-delimited phase with at
//! least one non-atomic write, or a thread that definitely executes an
//! access realizing an index outside the array. Every unknown (unsolvable
//! guard, loop-variant index, address-taken array, multi-dimensional thread
//! indexing) makes them *silent*, never noisy — so a diagnostic is a proof,
//! modulo reachability of block-uniform guards. The barrier lints lean the
//! other way: a barrier whose execution depends on a non-uniform condition
//! the analysis cannot pin down exactly is an error.

use std::collections::{BTreeMap, HashSet};

use cuda_frontend::diag::{Diagnostic, Severity, SpanTable};

use crate::cfg::CStmtKind;
use crate::interp::{AccessFact, Analysis, Form, Place, Val};
use crate::threads::{div_floor, racing_pair_exists, IntervalSet};

/// Diagnostic code for barriers under divergent control.
pub const CODE_BARRIER_DIVERGENCE: &str = "barrier-divergence";
/// Diagnostic code for malformed `bar.sync` structure.
pub const CODE_PARTIAL_BARRIER: &str = "partial-barrier";
/// Diagnostic code for definite shared-memory races.
pub const CODE_SHARED_RACE: &str = "shared-race";
/// Diagnostic code for provable shared-memory out-of-bounds accesses.
pub const CODE_SHARED_OOB: &str = "shared-out-of-bounds";
/// Diagnostic code for provable global-memory out-of-bounds accesses.
pub const CODE_GLOBAL_OOB: &str = "global-out-of-bounds";

fn diag(code: &str, span_idx: Option<usize>, spans: Option<&SpanTable>, msg: String) -> Diagnostic {
    let span = span_idx.and_then(|i| spans.and_then(|t| t.get(i)));
    Diagnostic::new(Severity::Error, code, span, msg)
}

/// Runs the barrier-divergence and partial-barrier lints.
pub(crate) fn barrier_lints(a: &Analysis, spans: Option<&SpanTable>) -> Vec<Diagnostic> {
    let universe = a.universe();
    let known = a.block_threads.is_some();
    let mut out = Vec::new();
    let mut bar_counts: BTreeMap<u32, u32> = BTreeMap::new();
    for (b, bb) in a.cfg.blocks.iter().enumerate() {
        let Some(stmt) = bb.stmts.first() else {
            continue;
        };
        let span_idx = stmt.span_idx;
        let arrival = a.arrivals[b].threads.as_ref();
        match stmt.kind {
            CStmtKind::Sync => match arrival {
                None => out.push(diag(
                    CODE_BARRIER_DIVERGENCE,
                    span_idx,
                    spans,
                    "__syncthreads() is control-dependent on a non-uniform condition; \
                     threads of the same block may disagree on reaching this barrier"
                        .into(),
                )),
                Some(set) if known && !set.is_full(universe) => out.push(diag(
                    CODE_BARRIER_DIVERGENCE,
                    span_idx,
                    spans,
                    format!(
                        "__syncthreads() is only reached by {} of {} threads of the block",
                        set.count(),
                        universe
                    ),
                )),
                Some(_) => {}
            },
            CStmtKind::BarSync { id, count } => {
                if count % 32 != 0 {
                    out.push(diag(
                        CODE_PARTIAL_BARRIER,
                        span_idx,
                        spans,
                        format!(
                            "bar.sync {id} declares {count} participating threads, \
                             which is not a multiple of the warp size (32)"
                        ),
                    ));
                }
                if let Some(prev) = bar_counts.insert(id, count) {
                    if prev != count {
                        out.push(diag(
                            CODE_PARTIAL_BARRIER,
                            span_idx,
                            spans,
                            format!(
                                "bar.sync {id} is used with mismatched thread counts \
                                 ({prev} and {count})"
                            ),
                        ));
                    }
                }
                match arrival {
                    None => out.push(diag(
                        CODE_BARRIER_DIVERGENCE,
                        span_idx,
                        spans,
                        format!(
                            "bar.sync {id} is control-dependent on a non-uniform \
                             condition the analysis cannot resolve; its arrival set \
                             is unknown"
                        ),
                    )),
                    Some(set) if known && set.count() != i64::from(count) => out.push(diag(
                        CODE_PARTIAL_BARRIER,
                        span_idx,
                        spans,
                        format!(
                            "bar.sync {id} declares {count} participants but {} threads arrive",
                            set.count()
                        ),
                    )),
                    Some(set) if known && !set.is_warp_aligned() => out.push(diag(
                        CODE_PARTIAL_BARRIER,
                        span_idx,
                        spans,
                        format!("the threads arriving at bar.sync {id} do not form whole warps"),
                    )),
                    Some(_) => {}
                }
            }
            _ => {}
        }
    }
    out
}

/// An access index as an exact `a·τ + b` over the threads `tset` that
/// execute it. `(a·τ + b) % m` collapses to `a·τ + b − k·m` only when those
/// threads keep the argument inside one non-negative period (C truncated
/// remainder equals math mod only there).
fn tid_index(idx: &Val, tset: &IntervalSet) -> Option<(i64, i64)> {
    match idx.form? {
        Form::Mod { a, b, m, off } => {
            let (first, last) = if a >= 0 {
                (tset.min()?, tset.max()?)
            } else {
                (tset.max()?, tset.min()?)
            };
            let lo = a.checked_mul(first)?.checked_add(b)?;
            let hi = a.checked_mul(last)?.checked_add(b)?;
            let k = div_floor(lo, m);
            if k >= 0 && div_floor(hi, m) == k {
                Some((a, (b - k * m).checked_add(off)?))
            } else {
                None
            }
        }
        form => form.tid_affine(),
    }
}

/// Runs the definite shared-memory race lint.
pub(crate) fn race_lints(a: &Analysis, spans: Option<&SpanTable>) -> Vec<Diagnostic> {
    // With 2-D/3-D thread indexing, τ alone neither identifies a thread nor
    // its warp, so "different warp" claims would be unsound. Stay silent.
    if a.multidim {
        return Vec::new();
    }
    // An array whose address escapes or is offset leaves the index model.
    let poisoned: HashSet<&str> = a
        .accesses
        .iter()
        .filter(|x| !x.direct)
        .filter_map(|x| match &x.place {
            Place::Shared(n) => Some(n.as_str()),
            _ => None,
        })
        .collect();
    let live: Vec<(&AccessFact, &str, &IntervalSet, (i64, i64))> = a
        .accesses
        .iter()
        .filter_map(|x| {
            let Place::Shared(arr) = &x.place else {
                return None;
            };
            let tset = a.arrivals[x.block].threads.as_ref()?;
            let idx = tid_index(&x.idx, tset)?;
            (!poisoned.contains(arr.as_str())).then_some((x, arr.as_str(), tset, idx))
        })
        .collect();
    let concurrent = a.cfg.phase_concurrency(None);

    let mut out = Vec::new();
    let mut reported: HashSet<(&str, Option<usize>, Option<usize>)> = HashSet::new();
    for (i, &(x, arr, sx, ix)) in live.iter().enumerate() {
        for &(y, arr_y, sy, iy) in &live[i..] {
            if arr != arr_y
                || !(x.write || y.write)
                || (x.atomic && y.atomic)
                || !concurrent[x.block][y.block]
            {
                continue;
            }
            if sx.count() > 0
                && racing_pair_exists(ix, sx, iy, sy)
                && reported.insert((arr, x.span_idx.min(y.span_idx), x.span_idx.max(y.span_idx)))
            {
                let what = match (x.write, y.write) {
                    (true, true) => "two writes",
                    _ => "a read and a write",
                };
                out.push(diag(
                    CODE_SHARED_RACE,
                    x.span_idx.or(y.span_idx),
                    spans,
                    format!(
                        "definite data race on shared array `{arr}`: {what} from threads \
                         in different warps touch the same element with no \
                         intervening barrier"
                    ),
                ));
            }
        }
    }
    out
}

/// Claims built on arithmetic that left the 32-bit range could have wrapped
/// at runtime (the dialect's `int` is 32-bit); keep only claims whose
/// violating endpoint is itself representable.
fn sane32(v: i64) -> bool {
    i32::try_from(v).is_ok()
}

/// Runs the must-only out-of-bounds lint for shared and global accesses.
///
/// `global_extents` maps pointer-parameter names to their length *in
/// elements*; absent entries make global accesses unchecked.
pub(crate) fn oob_lints(
    a: &Analysis,
    spans: Option<&SpanTable>,
    global_extents: Option<&BTreeMap<String, i64>>,
) -> Vec<Diagnostic> {
    // τ-based definite-arrival claims need 1-D indexing and a known width.
    if a.block_threads.is_none() || a.multidim {
        return Vec::new();
    }
    let s_ext = a.shared_extents();
    let mut out = Vec::new();
    let mut reported: HashSet<(&'static str, Option<usize>, &str)> = HashSet::new();
    for x in &a.accesses {
        let (code, name, extent) = match &x.place {
            Place::Shared(n) => match s_ext.get(n.as_str()) {
                Some(e) => (CODE_SHARED_OOB, n, *e),
                None => continue,
            },
            Place::Global(n) => match global_extents.and_then(|m| m.get(n)) {
                Some(e) => (CODE_GLOBAL_OOB, n, *e),
                None => continue,
            },
            Place::Wild => continue,
        };
        let Some(def) = a.arrivals[x.block].definite().filter(|d| !d.is_empty()) else {
            continue;
        };
        let violation = match x.idx.form.and_then(Form::tid_affine) {
            // Affine: the extreme indices over the definitely-executing
            // threads are actually realized.
            Some((t, c)) => {
                let at = |tau: i64| t.checked_mul(tau).and_then(|v| v.checked_add(c));
                let (Some(p), Some(q)) = (def.min().and_then(at), def.max().and_then(at)) else {
                    continue;
                };
                let (lo, hi) = (p.min(q), p.max(q));
                if hi >= extent && sane32(hi) {
                    Some(format!("index {hi} (length {extent})"))
                } else if lo < 0 && sane32(lo) {
                    Some(format!("index {lo}"))
                } else {
                    None
                }
            }
            // Range: out of bounds only if *all* values are.
            None => {
                let iv = x.idx.iv;
                if iv.lo >= extent && sane32(iv.lo) {
                    Some(format!("indices {}.. (length {extent})", iv.lo))
                } else if iv.hi < 0 && sane32(iv.hi) {
                    Some(format!("indices ..{}", iv.hi))
                } else {
                    None
                }
            }
        };
        let Some(what) = violation else { continue };
        if !reported.insert((code, x.span_idx, name)) {
            continue;
        }
        let kind = if x.write { "write" } else { "read" };
        let space = if code == CODE_SHARED_OOB {
            "shared array"
        } else {
            "global buffer"
        };
        out.push(diag(
            code,
            x.span_idx,
            spans,
            format!(
                "out-of-bounds {kind} of {space} `{name}`: a thread that \
                 definitely executes this access uses {what}"
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_frontend::parse_kernel_with_spans;

    fn lint_with_extents(
        src: &str,
        threads: u32,
        extents: &BTreeMap<String, i64>,
    ) -> Vec<Diagnostic> {
        let (f, spans) = parse_kernel_with_spans(src).expect("test kernel parses");
        let a = Analysis::run(&f, Some(threads));
        oob_lints(&a, Some(&spans), Some(extents))
    }

    fn lint(src: &str, threads: u32) -> Vec<Diagnostic> {
        lint_with_extents(src, threads, &BTreeMap::new())
    }

    #[test]
    fn affine_tid_write_in_bounds_is_silent() {
        let src = "__global__ void k(int* out) {\n\
                   __shared__ int s[64];\n\
                   int t = threadIdx.x;\n\
                   s[t] = t;\n\
                   out[t] = s[t];\n\
                   }";
        assert!(lint(src, 64).is_empty());
    }

    #[test]
    fn off_by_one_shared_write_is_caught() {
        let src = "__global__ void k(int* out) {\n\
                   __shared__ int s[64];\n\
                   int t = threadIdx.x;\n\
                   s[t + 1] = t;\n\
                   out[t] = s[t];\n\
                   }";
        let diags = lint(src, 64);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, CODE_SHARED_OOB);
        assert!(diags[0].span.is_some());
    }

    #[test]
    fn negative_index_is_caught() {
        let src = "__global__ void k(int* out) {\n\
                   __shared__ int s[64];\n\
                   int t = threadIdx.x;\n\
                   s[t - 1] = t;\n\
                   out[t] = 0;\n\
                   }";
        let diags = lint(src, 64);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, CODE_SHARED_OOB);
    }

    #[test]
    fn guarded_access_is_silent() {
        let src = "__global__ void k(int* out) {\n\
                   __shared__ int s[32];\n\
                   int t = threadIdx.x;\n\
                   if (t < 31) { s[t + 1] = t; }\n\
                   out[t] = 0;\n\
                   }";
        assert!(lint(src, 64).is_empty());
    }

    #[test]
    fn clamped_index_stays_silent() {
        let src = "__global__ void k(int* out) {\n\
                   __shared__ int s[64];\n\
                   int t = threadIdx.x;\n\
                   int j = t + 9;\n\
                   if (j > 63) { j = 63; }\n\
                   if (j < 0) { j = 0; }\n\
                   s[j] = t;\n\
                   out[t] = 0;\n\
                   }";
        assert!(lint(src, 64).is_empty());
    }

    #[test]
    fn uniform_guard_suppresses_the_claim() {
        // The access is OOB, but it only runs when a uniform (unknown-value)
        // condition holds — a must lint cannot claim it executes.
        let src = "__global__ void k(int* out, int n) {\n\
                   __shared__ int s[64];\n\
                   int t = threadIdx.x;\n\
                   if (n > 0) { s[t + 64] = t; }\n\
                   out[t] = 0;\n\
                   }";
        assert!(lint(src, 64).is_empty());
    }

    #[test]
    fn global_extent_map_enables_global_oob() {
        let src = "__global__ void k(int* out) {\n\
                   int t = threadIdx.x;\n\
                   out[t + 64] = t;\n\
                   }";
        assert!(lint(src, 64).is_empty(), "no extents, no claim");
        let mut ext = BTreeMap::new();
        ext.insert("out".to_owned(), 64i64);
        let diags = lint_with_extents(src, 64, &ext);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, CODE_GLOBAL_OOB);
    }

    #[test]
    fn loop_widening_with_guard_narrowing_is_silent() {
        let src = "__global__ void k(int* out) {\n\
                   __shared__ int s[64];\n\
                   int t = threadIdx.x;\n\
                   int acc = 0;\n\
                   for (int i = 0; i < 64; i = i + 1) { acc = acc + s[i]; }\n\
                   out[t] = acc;\n\
                   }";
        assert!(lint(src, 64).is_empty());
    }

    #[test]
    fn loop_overrun_is_caught() {
        let src = "__global__ void k(int* out) {\n\
                   __shared__ int s[64];\n\
                   int t = threadIdx.x;\n\
                   s[t * 2] = t;\n\
                   out[t] = 0;\n\
                   }";
        // t*2 realizes 126 at t=63 >= 64.
        let diags = lint(src, 64);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, CODE_SHARED_OOB);
    }

    #[test]
    fn escaping_shared_array_silences_the_race_lint() {
        // Every thread writes `s[0]`: a definite race, until the array
        // escapes through a bare-name dereference the index model cannot
        // follow.
        let racy = "__global__ void k(float* out) {\n\
                    __shared__ float s[64];\n\
                    int t = threadIdx.x;\n\
                    s[0] = t;\n\
                    out[t] = s[0];\n\
                    }";
        let escaped = racy.replace("out[t] = s[0];", "*s = 1.0f; out[t] = s[0];");
        for (src, racy) in [(racy, true), (escaped.as_str(), false)] {
            let (f, spans) = parse_kernel_with_spans(src).expect("test kernel parses");
            let diags = race_lints(&Analysis::run(&f, Some(64)), Some(&spans));
            assert_eq!(!diags.is_empty(), racy, "{src}: {diags:?}");
        }
    }
}
