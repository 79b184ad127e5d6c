//! Consumers of the interpreter's ranges and accesses beyond the lints.
//!
//! * [`eliminate_redundant_barriers`] — drops a `__syncthreads()` when every
//!   pair of accesses it separates is provably non-conflicting (different
//!   spaces, different arrays, disjoint index ranges, or no cross-warp
//!   overlapping thread pair). Used by the fusion pipeline before the two
//!   kernels' barrier structures are interleaved.
//! * [`summarize_ranges`] — a cheap per-kernel fact bundle
//!   ([`KernelRangeSummary`]) whose [`KernelRangeSummary::fast_gate_clean`]
//!   bit lets the fuse-time safety gate skip re-analyzing the fused function
//!   when both originals are already proven safe.
//!
//! Each runs the interpreter once per call (once per removal round in
//! [`eliminate_redundant_barriers`], whose last run also yields the
//! summary of the function it leaves).

use std::collections::BTreeMap;

use cuda_frontend::ast::{Function, Stmt};

use crate::cfg::{BlockId, CStmtKind, Cfg};
use crate::interp::{AccessFact, Analysis, Form, Place};
use crate::lints::oob_lints;
use crate::threads::{racing_pair_exists, IntervalSet};

fn contains_goto(f: &Function) -> bool {
    let mut found = false;
    cuda_frontend::diag::preorder_stmts(f, &mut |s| {
        found |= matches!(s, Stmt::Goto(_) | Stmt::Label(_));
    });
    found
}

fn reaches_self(cfg: &Cfg, b: BlockId) -> bool {
    let mut seen = vec![false; cfg.blocks.len()];
    let mut stack: Vec<BlockId> = cfg.blocks[b].term.succs();
    while let Some(x) = stack.pop() {
        if x == b {
            return true;
        }
        if seen[x] {
            continue;
        }
        seen[x] = true;
        stack.extend(cfg.blocks[x].term.succs());
    }
    false
}

/// Whether two accesses may conflict if they become unsynchronized.
///
/// Safe verdicts: read/read, atomic/atomic, different shared arrays,
/// different global parameters (assumed non-aliasing, matching the
/// simulator's distinct-buffer launches), different spaces, provably
/// disjoint index ranges, or no cross-warp thread pair hitting the same
/// element (within one warp the min-PC scheduler preserves program order).
fn pair_safe(x: &AccessFact, y: &AccessFact, tsets: &[Option<&IntervalSet>]) -> bool {
    if !x.write && !y.write {
        return true;
    }
    if x.atomic && y.atomic {
        return true;
    }
    match (&x.place, &y.place) {
        (Place::Wild, _) | (_, Place::Wild) => return false,
        (Place::Shared(a), Place::Shared(b)) if a != b => return true,
        (Place::Global(p), Place::Global(q)) if p != q => return true,
        (Place::Shared(_), Place::Global(_)) | (Place::Global(_), Place::Shared(_)) => {
            return true;
        }
        _ => {}
    }
    // Same array. Disjoint value ranges can never alias.
    if x.idx.iv.hi < y.idx.iv.lo || y.idx.iv.hi < x.idx.iv.lo {
        return true;
    }
    // Exact affine indices with matching blockIdx terms: conflict requires a
    // cross-warp thread pair on the same element (same-warp pairs execute in
    // program order under min-PC SIMT scheduling, so the barrier was not
    // ordering them anyway).
    if let (
        Some(Form::Affine {
            t: t1,
            b: b1,
            c: c1,
        }),
        Some(Form::Affine {
            t: t2,
            b: b2,
            c: c2,
        }),
    ) = (x.idx.form, y.idx.form)
    {
        if b1 == b2 {
            if let (Some(s1), Some(s2)) = (tsets[x.block], tsets[y.block]) {
                if !racing_pair_exists((t1, c1), s1, (t2, c2), s2) {
                    return true;
                }
            }
        }
    }
    false
}

fn sync_rank_of_block(cfg: &Cfg, block: BlockId) -> Option<usize> {
    // Source-order rank of this block's `__syncthreads()` among all of them,
    // via the pre-order span indices the CFG builder records.
    let my_span = match cfg.blocks[block].stmts.first() {
        Some(s) if matches!(s.kind, CStmtKind::Sync) => s.span_idx?,
        _ => return None,
    };
    let mut spans: Vec<usize> = Vec::new();
    for bb in &cfg.blocks {
        for s in &bb.stmts {
            if matches!(s.kind, CStmtKind::Sync) {
                spans.push(s.span_idx?);
            }
        }
    }
    spans.sort_unstable();
    spans.iter().position(|&s| s == my_span)
}

// The guard form clippy suggests cannot take the `&mut` borrow the
// recursion needs (match guards only get shared borrows of bindings).
#[allow(clippy::collapsible_match)]
fn remove_nth_sync(stmts: &mut Vec<Stmt>, k: &mut usize, n: usize) -> bool {
    let mut i = 0;
    while i < stmts.len() {
        match &mut stmts[i] {
            Stmt::SyncThreads => {
                if *k == n {
                    stmts.remove(i);
                    return true;
                }
                *k += 1;
            }
            Stmt::If(_, t, e) => {
                if remove_nth_sync(&mut t.stmts, k, n) {
                    return true;
                }
                if let Some(e) = e {
                    if remove_nth_sync(&mut e.stmts, k, n) {
                        return true;
                    }
                }
            }
            Stmt::For { init, body, .. } => {
                if let Some(init) = init {
                    let mut one = vec![std::mem::replace(init.as_mut(), Stmt::Break)];
                    let hit = remove_nth_sync(&mut one, k, n);
                    if let Some(s) = one.pop() {
                        **init = s;
                    }
                    if hit {
                        return true;
                    }
                }
                if remove_nth_sync(&mut body.stmts, k, n) {
                    return true;
                }
            }
            Stmt::While(_, body) | Stmt::DoWhile(body, _) => {
                if remove_nth_sync(&mut body.stmts, k, n) {
                    return true;
                }
            }
            Stmt::Switch { cases, .. } => {
                for case in cases.iter_mut() {
                    if remove_nth_sync(&mut case.body, k, n) {
                        return true;
                    }
                }
            }
            Stmt::Block(b) => {
                if remove_nth_sync(&mut b.stmts, k, n) {
                    return true;
                }
            }
            _ => {}
        }
        i += 1;
    }
    false
}

/// Removes every `__syncthreads()` the range analysis proves redundant.
///
/// A barrier is a candidate when it post-dominates entry and is not inside a
/// loop; it is removed when every pair of accesses that becomes concurrent
/// without it is proven conflict-free by `pair_safe`. Kernels containing
/// `goto` are left untouched (the same-warp program-order argument assumes
/// structured lowering). Returns the number of barriers removed and the
/// [`summarize_ranges`] of the function it leaves, from its last analysis.
pub fn eliminate_redundant_barriers(
    f: &mut Function,
    block_threads: Option<u32>,
) -> (u32, KernelRangeSummary) {
    if contains_goto(f) {
        return (0, summarize_ranges(f, block_threads));
    }
    let mut removed = 0;
    // Re-derive everything after each removal: merging two phases changes
    // every downstream concurrency fact.
    'outer: loop {
        let a = Analysis::run(f, block_threads);
        let cfg = &a.cfg;
        // Over-approximate arrival sets feed the cross-warp refutation; with
        // multi-dimensional indexing τ identifies neither thread nor warp,
        // so the affine refutation is disabled (place/range facts remain).
        let tsets: Vec<Option<&IntervalSet>> = a
            .arrivals
            .iter()
            .map(|arr| arr.threads.as_ref().filter(|_| !a.multidim))
            .collect();
        let accesses = &a.accesses;
        let pdom = cfg.postdominators();
        let conc_all = cfg.phase_concurrency(None);
        // `b` indexes `cfg.blocks`, `pdom`, and the concurrency tables alike.
        #[allow(clippy::needless_range_loop)]
        for b in 0..cfg.blocks.len() {
            let first_is_sync = matches!(
                cfg.blocks[b].stmts.first(),
                Some(s) if matches!(s.kind, CStmtKind::Sync)
            );
            // Only full-block barriers every thread crosses exactly once per
            // kernel run are candidates (no loops, no conditional arrival).
            if !first_is_sync || !pdom[0][b] || reaches_self(cfg, b) {
                continue;
            }
            let conc_without = cfg.phase_concurrency(Some(b));
            let mut safe = true;
            'pairs: for (i, x) in accesses.iter().enumerate() {
                for y in &accesses[i..] {
                    let newly_concurrent =
                        conc_without[x.block][y.block] && !conc_all[x.block][y.block];
                    if newly_concurrent && !pair_safe(x, y, &tsets) {
                        safe = false;
                        break 'pairs;
                    }
                }
            }
            if !safe {
                continue;
            }
            let Some(rank) = sync_rank_of_block(cfg, b) else {
                continue;
            };
            let mut k = 0;
            if remove_nth_sync(&mut f.body.stmts, &mut k, rank) {
                removed += 1;
                continue 'outer;
            }
        }
        return (removed, summary_of(f, &a));
    }
}

// ---------------------------------------------------------------------------
// Per-kernel summaries for the fuse gate
// ---------------------------------------------------------------------------

/// Cheap per-kernel facts derived from the range analysis, memoized by the
/// `Session` query pipeline and consumed by the fuse-time safety gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelRangeSummary {
    /// Number of `__syncthreads()`/`bar.sync` statements.
    pub barriers: u32,
    /// Uses 2-D/3-D thread indexing.
    pub multidim: bool,
    /// Contains `goto`/labels.
    pub has_goto: bool,
    /// Number of declared `__shared__` arrays.
    pub shared_arrays: u32,
    /// Shared/global accesses the collector recorded.
    pub accesses: u32,
    /// Accesses with no exact index (⊤ or provenance-derived).
    pub unresolved: u32,
    /// Every shared array is provably race-free (all-reads, all-atomic, or
    /// one identical injective affine index across all accesses).
    pub race_free_certain: bool,
    /// The out-of-bounds lint is silent at this block width.
    pub oob_clean: bool,
}

impl KernelRangeSummary {
    /// True when the fuse gate can accept a fusion involving this kernel
    /// without re-analyzing the fused function: no barriers to interleave,
    /// 1-D structured control flow, and a *proof* (not mere lint silence)
    /// that its shared arrays cannot race.
    pub fn fast_gate_clean(&self) -> bool {
        self.barriers == 0
            && !self.multidim
            && !self.has_goto
            && self.race_free_certain
            && self.oob_clean
    }
}

/// Computes the [`KernelRangeSummary`] for one kernel at one block width.
pub fn summarize_ranges(f: &Function, block_threads: Option<u32>) -> KernelRangeSummary {
    summary_of(f, &Analysis::run(f, block_threads))
}

/// The [`KernelRangeSummary`] of `f` from its analysis `a`.
fn summary_of(f: &Function, a: &Analysis) -> KernelRangeSummary {
    let has_goto = contains_goto(f);
    let barriers = a
        .cfg
        .blocks
        .iter()
        .flat_map(|bb| &bb.stmts)
        .filter(|s| matches!(s.kind, CStmtKind::Sync | CStmtKind::BarSync { .. }))
        .count() as u32;
    let affine = |x: &AccessFact| match x.idx.form {
        Some(Form::Affine { t, .. }) => Some((t, x.idx.form)),
        _ => None,
    };
    let unresolved = a.accesses.iter().filter(|x| affine(x).is_none()).count() as u32;
    let race_free_certain = if a.multidim || has_goto {
        false
    } else if a.prov.shared.is_empty() {
        // The race lint only looks at shared arrays.
        true
    } else if a.accesses.iter().any(|x| x.place == Place::Wild) {
        false
    } else {
        a.prov.shared.iter().all(|name| {
            let on_it: Vec<&AccessFact> = a
                .accesses
                .iter()
                .filter(|x| matches!(&x.place, Place::Shared(n) if n == name))
                .collect();
            let all_reads = on_it.iter().all(|x| !x.write);
            let all_atomic = !on_it.is_empty() && on_it.iter().all(|x| x.atomic);
            let identical_injective = match on_it.first().and_then(|x| affine(x)) {
                Some((t, first)) if t != 0 => on_it.iter().all(|x| x.idx.form == first),
                _ => false,
            };
            all_reads || all_atomic || identical_injective
        })
    };
    KernelRangeSummary {
        barriers,
        multidim: a.multidim,
        has_goto,
        shared_arrays: a.prov.shared.len() as u32,
        accesses: a.accesses.len() as u32,
        unresolved,
        race_free_certain,
        oob_clean: oob_lints(a, None, None).is_empty(),
    }
}

/// Extents hash for cache keys: order-independent over `name=len` pairs.
pub fn extents_fingerprint(extents: Option<&BTreeMap<String, i64>>) -> u64 {
    let Some(m) = extents else { return 0 };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (k, v) in m {
        for byte in k.bytes().chain(b"=".iter().copied()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= *v as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h | 1 // never collide with the "no extents" fingerprint 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_frontend::parse_kernel_with_spans;

    fn parsed(src: &str) -> Function {
        parse_kernel_with_spans(src).expect("test kernel parses").0
    }

    #[test]
    fn trailing_barrier_before_global_writes_is_removed() {
        let src = "__global__ void k(int* out, int* in) {\n\
                   __shared__ int s[64];\n\
                   int t = threadIdx.x;\n\
                   s[t] = in[t];\n\
                   __syncthreads();\n\
                   int v = s[63 - t];\n\
                   __syncthreads();\n\
                   out[t] = v;\n\
                   }";
        let mut f = parsed(src);
        let (removed, summary) = eliminate_redundant_barriers(&mut f, Some(64));
        assert_eq!(removed, 1, "only the trailing barrier is redundant");
        assert_eq!(summary, summarize_ranges(&f, Some(64)));
        let mut syncs = 0;
        cuda_frontend::diag::preorder_stmts(&f, &mut |s| {
            syncs += matches!(s, Stmt::SyncThreads) as u32;
        });
        assert_eq!(syncs, 1);
    }

    #[test]
    fn exchange_barrier_is_kept() {
        let src = "__global__ void k(int* out, int* in) {\n\
                   __shared__ int s[64];\n\
                   int t = threadIdx.x;\n\
                   s[t] = in[t];\n\
                   __syncthreads();\n\
                   out[t] = s[63 - t];\n\
                   }";
        let mut f = parsed(src);
        assert_eq!(eliminate_redundant_barriers(&mut f, Some(64)).0, 0);
    }

    #[test]
    fn same_warp_exchange_barrier_is_removed() {
        // All shared traffic stays inside one warp: min-PC scheduling already
        // orders it, so the barrier buys nothing.
        let src = "__global__ void k(int* out, int* in) {\n\
                   __shared__ int s[32];\n\
                   int t = threadIdx.x;\n\
                   if (t < 32) { s[t] = in[t]; }\n\
                   __syncthreads();\n\
                   if (t < 32) { out[t] = s[31 - t]; }\n\
                   }";
        let mut f = parsed(src);
        assert_eq!(eliminate_redundant_barriers(&mut f, Some(64)).0, 1);
    }

    #[test]
    fn barrier_in_loop_is_never_touched() {
        let src = "__global__ void k(int* out, int* in) {\n\
                   __shared__ int s[64];\n\
                   int t = threadIdx.x;\n\
                   for (int i = 0; i < 4; i = i + 1) {\n\
                   s[t] = in[t] + i;\n\
                   __syncthreads();\n\
                   }\n\
                   out[t] = s[t];\n\
                   }";
        let mut f = parsed(src);
        assert_eq!(eliminate_redundant_barriers(&mut f, Some(64)).0, 0);
    }

    #[test]
    fn goto_kernels_are_left_alone() {
        let src = "__global__ void k(int* out) {\n\
                   int t = threadIdx.x;\n\
                   if (t >= 32) goto end;\n\
                   __syncthreads();\n\
                   label end:\n\
                   out[t] = t;\n\
                   }";
        if let Ok((mut f, _)) = parse_kernel_with_spans(src) {
            let (removed, summary) = eliminate_redundant_barriers(&mut f, Some(64));
            assert_eq!(removed, 0);
            assert_eq!(summary, summarize_ranges(&f, Some(64)));
        }
    }

    #[test]
    fn summary_fast_gate_on_clean_kernel() {
        let src = "__global__ void k(float* out, float* in, int n) {\n\
                   int t = threadIdx.x;\n\
                   int g = blockIdx.x * blockDim.x + t;\n\
                   if (g < n) { out[g] = in[g] * 2.0f; }\n\
                   }";
        let f = parsed(src);
        let s = summarize_ranges(&f, Some(128));
        assert!(s.fast_gate_clean(), "{s:?}");
        assert_eq!(s.barriers, 0);
        assert_eq!(s.shared_arrays, 0);
    }

    #[test]
    fn summary_rejects_barriered_kernel() {
        let src = "__global__ void k(int* out, int* in) {\n\
                   __shared__ int s[64];\n\
                   int t = threadIdx.x;\n\
                   s[t] = in[t];\n\
                   __syncthreads();\n\
                   out[t] = s[63 - t];\n\
                   }";
        let f = parsed(src);
        let s = summarize_ranges(&f, Some(64));
        assert!(!s.fast_gate_clean());
        assert_eq!(s.barriers, 1);
        assert_eq!(s.shared_arrays, 1);
    }

    #[test]
    fn summary_identical_affine_shared_is_race_free() {
        let src = "__global__ void k(int* out, int* in) {\n\
                   __shared__ int s[64];\n\
                   int t = threadIdx.x;\n\
                   s[t] = in[t];\n\
                   out[t] = s[t] + 1;\n\
                   }";
        let f = parsed(src);
        let s = summarize_ranges(&f, Some(64));
        assert!(s.race_free_certain, "{s:?}");
        assert!(s.fast_gate_clean());
    }

    #[test]
    fn extents_fingerprint_distinguishes_maps() {
        let mut a = BTreeMap::new();
        a.insert("out".to_owned(), 64i64);
        let mut b = a.clone();
        b.insert("in".to_owned(), 128i64);
        assert_eq!(extents_fingerprint(None), 0);
        assert_ne!(extents_fingerprint(Some(&a)), 0);
        assert_ne!(extents_fingerprint(Some(&a)), extents_fingerprint(Some(&b)));
        let mut c = a.clone();
        c.insert("out".to_owned(), 65i64);
        assert_ne!(extents_fingerprint(Some(&a)), extents_fingerprint(Some(&c)));
    }
}
