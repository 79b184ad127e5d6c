//! Exact sets of thread ids (τ = `threadIdx.x`) and the solvers that turn
//! a branch condition on τ into one.
//!
//! Arrival sets of barriers, the executing threads of an access, and the
//! cross-warp race search are all phrased over [`IntervalSet`]s, which are
//! always subsets of one block, `[0, universe)`.

use cuda_frontend::ast::BinOp;

/// A finite union of disjoint half-open intervals of thread ids, always a
/// subset of `[0, universe)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct IntervalSet {
    ivs: Vec<(i64, i64)>,
}

impl IntervalSet {
    /// The empty set.
    pub(crate) fn empty() -> IntervalSet {
        IntervalSet { ivs: Vec::new() }
    }

    /// All of `[0, universe)`.
    pub(crate) fn full(universe: i64) -> IntervalSet {
        IntervalSet::range(0, universe, universe)
    }

    /// `[lo, hi)` clamped to `[0, universe)`.
    pub(crate) fn range(lo: i64, hi: i64, universe: i64) -> IntervalSet {
        let lo = lo.max(0);
        let hi = hi.min(universe);
        if lo >= hi {
            IntervalSet::empty()
        } else {
            IntervalSet {
                ivs: vec![(lo, hi)],
            }
        }
    }

    /// The singleton `{t}`, if in range.
    pub(crate) fn point(t: i64, universe: i64) -> IntervalSet {
        IntervalSet::range(t, t + 1, universe)
    }

    fn normalize(mut ivs: Vec<(i64, i64)>) -> IntervalSet {
        ivs.retain(|&(l, h)| l < h);
        ivs.sort_unstable();
        let mut out: Vec<(i64, i64)> = Vec::with_capacity(ivs.len());
        for (l, h) in ivs {
            if let Some(last) = out.last_mut() {
                if l <= last.1 {
                    last.1 = last.1.max(h);
                    continue;
                }
            }
            out.push((l, h));
        }
        IntervalSet { ivs: out }
    }

    /// Set union.
    pub(crate) fn union(&self, other: &IntervalSet) -> IntervalSet {
        let mut ivs = self.ivs.clone();
        ivs.extend_from_slice(&other.ivs);
        IntervalSet::normalize(ivs)
    }

    /// Set intersection.
    pub(crate) fn intersect(&self, other: &IntervalSet) -> IntervalSet {
        let mut out = Vec::new();
        for &(l1, h1) in &self.ivs {
            for &(l2, h2) in &other.ivs {
                let l = l1.max(l2);
                let h = h1.min(h2);
                if l < h {
                    out.push((l, h));
                }
            }
        }
        IntervalSet::normalize(out)
    }

    /// `[0, universe) \ self`.
    pub(crate) fn complement(&self, universe: i64) -> IntervalSet {
        let mut out = Vec::new();
        let mut cursor = 0;
        for &(l, h) in &self.ivs {
            if cursor < l {
                out.push((cursor, l));
            }
            cursor = cursor.max(h);
        }
        if cursor < universe {
            out.push((cursor, universe));
        }
        IntervalSet::normalize(out)
    }

    /// True when no thread is in the set.
    pub(crate) fn is_empty(&self) -> bool {
        self.ivs.is_empty()
    }

    /// True when the set is exactly `[0, universe)`.
    pub(crate) fn is_full(&self, universe: i64) -> bool {
        self.ivs == [(0, universe)]
    }

    /// Number of threads in the set.
    pub(crate) fn count(&self) -> i64 {
        self.ivs.iter().map(|&(l, h)| h - l).sum()
    }

    /// Membership test.
    pub(crate) fn contains(&self, t: i64) -> bool {
        self.ivs.iter().any(|&(l, h)| l <= t && t < h)
    }

    /// Smallest member.
    pub(crate) fn min(&self) -> Option<i64> {
        self.ivs.first().map(|&(l, _)| l)
    }

    /// Largest member.
    pub(crate) fn max(&self) -> Option<i64> {
        self.ivs.last().map(|&(_, h)| h - 1)
    }

    /// Iterates over every member.
    pub(crate) fn members(&self) -> impl Iterator<Item = i64> + '_ {
        self.ivs.iter().flat_map(|&(l, h)| l..h)
    }

    /// True when the set is warp-aligned: every warp is either fully in or
    /// fully out of the set.
    pub(crate) fn is_warp_aligned(&self) -> bool {
        self.ivs.iter().all(|&(l, h)| l % 32 == 0 && h % 32 == 0)
    }
}

/// Floor division (`b != 0`).
pub(crate) fn div_floor(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

fn div_ceil(a: i64, b: i64) -> i64 {
    let q = a / b;
    if (a % b != 0) && ((a < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Solves `a·τ + b OP c` for τ over `[0, universe)`, with `a != 0`.
pub(crate) fn solve_affine(a: i64, b: i64, op: BinOp, c: i64, universe: i64) -> IntervalSet {
    debug_assert!(a != 0);
    let d = c - b;
    match op {
        // a·τ < d  ⇔  τ < d/a (a>0)  |  τ > d/a (a<0)
        BinOp::Lt => {
            if a > 0 {
                IntervalSet::range(0, div_ceil(d, a), universe)
            } else {
                IntervalSet::range(div_floor(d, a) + 1, universe, universe)
            }
        }
        BinOp::Le => {
            if a > 0 {
                IntervalSet::range(0, div_floor(d, a) + 1, universe)
            } else {
                IntervalSet::range(div_ceil(d, a), universe, universe)
            }
        }
        BinOp::Gt => solve_affine(a, b, BinOp::Le, c, universe).complement(universe),
        BinOp::Ge => solve_affine(a, b, BinOp::Lt, c, universe).complement(universe),
        BinOp::Eq => {
            if d % a == 0 {
                IntervalSet::point(d / a, universe)
            } else {
                IntervalSet::empty()
            }
        }
        BinOp::Ne => solve_affine(a, b, BinOp::Eq, c, universe).complement(universe),
        _ => unreachable!("solve_affine only handles comparisons"),
    }
}

/// Solves `((a·τ + b) % m) + off OP c` for τ over `[0, universe)` by direct
/// enumeration: the satisfying set is periodic with no closed interval
/// form, and the universe is at most one block (≤ 1024 threads), so
/// pointwise evaluation is exact and cheap. `%` is C truncated remainder,
/// which `i64::%` matches.
pub(crate) fn solve_mod(
    (a, b, m, off): (i64, i64, i64, i64),
    op: BinOp,
    c: i64,
    universe: i64,
) -> IntervalSet {
    debug_assert!(m > 0);
    let c = i128::from(c);
    let mut runs = Vec::new();
    let mut start = None;
    for tau in 0..universe {
        let v = (i128::from(a) * i128::from(tau) + i128::from(b)) % i128::from(m) + i128::from(off);
        if compare(op, v, c) {
            start.get_or_insert(tau);
        } else if let Some(l) = start.take() {
            runs.push((l, tau));
        }
    }
    if let Some(l) = start {
        runs.push((l, universe));
    }
    IntervalSet::normalize(runs)
}

/// Evaluates the comparison `x OP y`.
pub(crate) fn compare<T: Ord>(op: BinOp, x: T, y: T) -> bool {
    match op {
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        BinOp::Eq => x == y,
        _ => x != y,
    }
}

/// True when concrete `τ1 ∈ sa`, `τ2 ∈ sb` exist with `τ1 ≠ τ2`, in different
/// warps, such that `a1·τ1 + b1 == a2·τ2 + b2`.
pub(crate) fn racing_pair_exists(
    (a1, b1): (i64, i64),
    sa: &IntervalSet,
    (a2, b2): (i64, i64),
    sb: &IntervalSet,
) -> bool {
    for t1 in sa.members() {
        let Some(target) = a1.checked_mul(t1).and_then(|v| v.checked_add(b1)) else {
            continue;
        };
        if a2 != 0 {
            let d = target - b2;
            if d % a2 != 0 {
                continue;
            }
            let t2 = d / a2;
            if sb.contains(t2) && t2 != t1 && t2 / 32 != t1 / 32 {
                return true;
            }
        } else {
            if target != b2 {
                continue;
            }
            if sb.members().any(|t2| t2 != t1 && t2 / 32 != t1 / 32) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_algebra() {
        let a = IntervalSet::range(0, 10, 32);
        let b = IntervalSet::range(5, 20, 32);
        assert_eq!(a.union(&b), IntervalSet::range(0, 20, 32));
        assert_eq!(a.intersect(&b), IntervalSet::range(5, 10, 32));
        assert_eq!(a.complement(32), IntervalSet::range(10, 32, 32));
        assert_eq!(a.count(), 10);
        assert!(IntervalSet::full(64).is_warp_aligned());
        assert!(!IntervalSet::range(0, 48, 64).is_warp_aligned());
    }

    #[test]
    fn affine_solver_rounds_toward_the_right_side() {
        // 3τ < 10 ⇔ τ ≤ 3; −2τ + 100 ≥ 40 ⇔ τ ≤ 30; 2τ == 7 has no solution.
        assert_eq!(
            solve_affine(3, 0, BinOp::Lt, 10, 64),
            IntervalSet::range(0, 4, 64)
        );
        assert_eq!(
            solve_affine(-2, 100, BinOp::Ge, 40, 64),
            IntervalSet::range(0, 31, 64)
        );
        assert!(solve_affine(2, 0, BinOp::Eq, 7, 64).is_empty());
        assert_eq!(div_floor(-7, 2), -4);
        assert_eq!(div_ceil(-7, 2), -3);
        assert_eq!(div_ceil(7, 2), 4);
    }
}
