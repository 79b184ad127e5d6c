//! The forward abstract interpreter every lint and range consumer reads.
//!
//! For every scalar at every block boundary it computes one [`Val`]: the
//! product of a [`Uniformity`] level, an [`Interval`] (`i64::MIN`/`i64::MAX`
//! stand for ∓∞) and, when the value is exactly known, a [`Form`] —
//! `t·τ + b·β + c` or `((a·τ + b) % m) + off`, with τ = `threadIdx.x` and
//! β = `blockIdx.x`. The lints only claim something when a fact is exact;
//! anything else widens to "unknown", which downstream means "make no
//! claim".
//!
//! [`Analysis::run`] is one worklist fixpoint over the [`Cfg`]:
//!
//! * **edge refinement** — a branch edge narrows the interval of any scalar
//!   its condition compares against a computable bound, and an edge whose
//!   condition cannot hold is dead;
//! * **control-dependence divergence at joins** — a value merged from paths
//!   that a non-uniform branch selects takes that branch's uniformity, when
//!   the variable is assigned under the branch and its exact form does not
//!   pin it to one path-independent value (see `join_vals`);
//! * **widening** of intervals after [`WIDEN_AFTER`] updates of a block's
//!   entry state, then two **narrowing** passes, the last of which records
//!   every shared/global memory access (`AccessFact`).
//!
//! Soundness assumptions, argued in DESIGN.md §15: signed-integer overflow
//! is undefined behavior in the source dialect (so arithmetic is modeled
//! over unbounded integers), and distinct global pointer parameters never
//! alias (the simulator launches every benchmark with distinct buffers).

use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};

use cuda_frontend::ast::{ArrayLen, AssignOp, Axis, BinOp, BuiltinVar, Expr, Function, Ty, UnOp};

use crate::cfg::{BasicBlock, BlockId, CStmt, CStmtKind, Cfg, ControlDep, Term};
use crate::threads::{compare, solve_affine, solve_mod, IntervalSet};

/// In-state updates a block tolerates before its intervals are widened.
pub(crate) const WIDEN_AFTER: u32 = 3;

// ---------------------------------------------------------------------------
// The value domain
// ---------------------------------------------------------------------------

/// How a value varies across the threads of a block. Ordered by increasing
/// divergence, so `max` joins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Uniformity {
    /// Identical across the whole thread block.
    BlockUniform,
    /// Identical within each warp (may differ across warps).
    WarpUniform,
    /// May differ between threads of the same warp.
    Divergent,
}

/// An inclusive integer interval; `i64::MIN`/`i64::MAX` are ∓∞.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interval {
    /// Lower bound (`i64::MIN` = −∞).
    pub(crate) lo: i64,
    /// Upper bound (`i64::MAX` = +∞).
    pub(crate) hi: i64,
}

/// Extended-precision sentinel: anything at least this large is ±∞.
const INF: i128 = i128::MAX / 4;

fn ext(v: i64) -> i128 {
    match v {
        i64::MIN => -INF,
        i64::MAX => INF,
        v => i128::from(v),
    }
}

fn unext(v: i128) -> i64 {
    if v <= -(INF / 2) {
        i64::MIN
    } else if v >= INF / 2 {
        i64::MAX
    } else {
        v.clamp(i128::from(i64::MIN) + 1, i128::from(i64::MAX) - 1) as i64
    }
}

fn ext_mul(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    if a.abs() >= INF / 2 || b.abs() >= INF / 2 {
        return a.signum() * b.signum() * INF;
    }
    a * b
}

impl Interval {
    /// The full line (⊤).
    pub(crate) fn top() -> Interval {
        Interval {
            lo: i64::MIN,
            hi: i64::MAX,
        }
    }

    /// The singleton `[v, v]`.
    pub(crate) fn point(v: i64) -> Interval {
        Interval { lo: v, hi: v }
    }

    /// `[lo, hi]` (callers must keep `lo <= hi`).
    pub(crate) fn new(lo: i64, hi: i64) -> Interval {
        debug_assert!(lo <= hi);
        Interval { lo, hi }
    }

    /// Least upper bound.
    pub(crate) fn join(&self, o: &Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Greatest lower bound; `None` when the meet is empty.
    pub(crate) fn meet(&self, o: &Interval) -> Option<Interval> {
        let lo = self.lo.max(o.lo);
        let hi = self.hi.min(o.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Standard interval widening: any escaping bound jumps to ±∞.
    pub(crate) fn widen(&self, new: &Interval) -> Interval {
        Interval {
            lo: if new.lo < self.lo { i64::MIN } else { self.lo },
            hi: if new.hi > self.hi { i64::MAX } else { self.hi },
        }
    }

    fn add(&self, o: &Interval) -> Interval {
        Interval {
            lo: unext(ext(self.lo) + ext(o.lo)),
            hi: unext(ext(self.hi) + ext(o.hi)),
        }
    }

    fn sub(&self, o: &Interval) -> Interval {
        Interval {
            lo: unext(ext(self.lo) - ext(o.hi)),
            hi: unext(ext(self.hi) - ext(o.lo)),
        }
    }

    fn neg(&self) -> Interval {
        Interval {
            lo: unext(-ext(self.hi)),
            hi: unext(-ext(self.lo)),
        }
    }

    fn mul(&self, o: &Interval) -> Interval {
        let corners = [
            ext_mul(ext(self.lo), ext(o.lo)),
            ext_mul(ext(self.lo), ext(o.hi)),
            ext_mul(ext(self.hi), ext(o.lo)),
            ext_mul(ext(self.hi), ext(o.hi)),
        ];
        Interval {
            lo: unext(corners.iter().copied().min().unwrap()),
            hi: unext(corners.iter().copied().max().unwrap()),
        }
    }

    /// C truncating division; sound only for divisors strictly positive.
    fn div(&self, o: &Interval) -> Interval {
        if o.lo <= 0 {
            return Interval::top();
        }
        let q = |n: i64, d: i64| -> i128 {
            let (n, d) = (ext(n), ext(d));
            if n.abs() >= INF / 2 {
                // ±∞ / positive = ±∞ (d may itself be +∞: quotient sign is n's).
                n.signum() * INF
            } else if d >= INF / 2 {
                0
            } else {
                n / d
            }
        };
        let corners = [
            q(self.lo, o.lo),
            q(self.lo, o.hi),
            q(self.hi, o.lo),
            q(self.hi, o.hi),
        ];
        Interval {
            lo: unext(corners.iter().copied().min().unwrap()),
            hi: unext(corners.iter().copied().max().unwrap()),
        }
    }

    /// C truncating remainder by a strictly positive divisor.
    fn rem(&self, o: &Interval) -> Interval {
        if o.lo <= 0 {
            return Interval::top();
        }
        if o.hi == i64::MAX {
            // `x % m <= x` for non-negative x; nothing else is known.
            return if self.lo >= 0 {
                Interval::new(0, self.hi)
            } else {
                Interval::top()
            };
        }
        let mag = o.hi - 1;
        if self.lo >= 0 {
            Interval::new(0, self.hi.min(mag))
        } else {
            Interval::new(-mag, mag)
        }
    }
}

/// A value known exactly as a function of τ = `threadIdx.x` and
/// β = `blockIdx.x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Form {
    /// `t·τ + b·β + c`; a constant when `t == b == 0`.
    Affine {
        /// Coefficient of τ.
        t: i64,
        /// Coefficient of β.
        b: i64,
        /// Constant term.
        c: i64,
    },
    /// `((a·τ + b) % m) + off` with C truncated-remainder semantics, `m > 0`.
    /// The post-modulo offset keeps shapes like `(tid % 64) + 32` — the
    /// shifted accesses fused kernels produce — exactly representable.
    Mod {
        /// Coefficient of τ.
        a: i64,
        /// Constant offset inside the remainder.
        b: i64,
        /// Modulus.
        m: i64,
        /// Constant offset added after the remainder.
        off: i64,
    },
}

impl Form {
    fn konst(c: i64) -> Form {
        Form::Affine { t: 0, b: 0, c }
    }

    /// The constant this form denotes, if it is one.
    pub(crate) fn konst_value(self) -> Option<i64> {
        match self {
            Form::Affine { t: 0, b: 0, c } => Some(c),
            _ => None,
        }
    }

    /// `(t, c)` when the form is `t·τ + c` (constants included): a function
    /// of the thread id alone.
    pub(crate) fn tid_affine(self) -> Option<(i64, i64)> {
        match self {
            Form::Affine { t, b: 0, c } => Some((t, c)),
            _ => None,
        }
    }

    fn affine(self) -> Option<(i64, i64, i64)> {
        match self {
            Form::Affine { t, b, c } => Some((t, b, c)),
            Form::Mod { .. } => None,
        }
    }

    fn map_affine(self, f: impl Fn(i64) -> Option<i64>) -> Option<Form> {
        let (t, b, c) = self.affine()?;
        Some(Form::Affine {
            t: f(t)?,
            b: f(b)?,
            c: f(c)?,
        })
    }

    fn zip_affine(self, o: Form, f: impl Fn(i64, i64) -> Option<i64>) -> Option<Form> {
        let ((t1, b1, c1), (t2, b2, c2)) = (self.affine()?, o.affine()?);
        Some(Form::Affine {
            t: f(t1, t2)?,
            b: f(b1, b2)?,
            c: f(c1, c2)?,
        })
    }
}

/// One scalar's abstract value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Val {
    /// How the value varies across the block.
    pub(crate) u: Uniformity,
    /// Interval over-approximation of the value.
    pub(crate) iv: Interval,
    /// The exact value, when known.
    pub(crate) form: Option<Form>,
}

impl Val {
    /// A value whose constant form, if any, pins its interval.
    fn new(u: Uniformity, iv: Interval, form: Option<Form>) -> Val {
        match form.and_then(Form::konst_value) {
            Some(c) => Val {
                u,
                iv: Interval::point(c),
                form,
            },
            None => Val { u, iv, form },
        }
    }

    fn konst(c: i64) -> Val {
        Val::new(
            Uniformity::BlockUniform,
            Interval::top(),
            Some(Form::konst(c)),
        )
    }

    /// A block-uniform value of unknown magnitude (parameters, array names).
    fn uniform() -> Val {
        Val::new(Uniformity::BlockUniform, Interval::top(), None)
    }

    /// Nothing known: possibly divergent, any magnitude.
    pub(crate) fn divergent() -> Val {
        Val::new(Uniformity::Divergent, Interval::top(), None)
    }

    fn konst_value(&self) -> Option<i64> {
        self.form.and_then(Form::konst_value)
    }
}

/// Joins one variable's values arriving along several paths. `inject(i)` is
/// the uniformity of the branches that selected path `i` and that may have
/// assigned the variable. Equal exact forms are path-independent, so they
/// survive without injection; so does a value with a single path.
/// Otherwise the form is dropped unless all paths agree, and the result is
/// at least as divergent as the branches that chose between the paths.
fn join_vals(vals: &[Val], inject: impl Fn(usize) -> Uniformity) -> Val {
    let first = vals[0];
    let iv = vals[1..].iter().fold(first.iv, |iv, v| iv.join(&v.iv));
    let all_eq = vals[1..]
        .iter()
        .all(|v| v.u == first.u && v.form == first.form);
    if all_eq && (first.form.is_some() || vals.len() == 1) {
        return Val { iv, ..first };
    }
    let u = vals
        .iter()
        .enumerate()
        .map(|(i, v)| v.u.max(inject(i)))
        .max()
        .unwrap_or(first.u);
    Val {
        u,
        iv,
        form: if all_eq { first.form } else { None },
    }
}

// ---------------------------------------------------------------------------
// States and the variable table
// ---------------------------------------------------------------------------

/// The builtins get the first slots: `threadIdx`, `blockIdx`, `blockDim`
/// and `gridDim`, three axes each.
const BUILTIN_SLOTS: usize = 12;

fn builtin_slot(b: &BuiltinVar) -> usize {
    let (k, axis) = match b {
        BuiltinVar::ThreadIdx(a) => (0, a),
        BuiltinVar::BlockIdx(a) => (1, a),
        BuiltinVar::BlockDim(a) => (2, a),
        BuiltinVar::GridDim(a) => (3, a),
    };
    3 * k
        + match axis {
            Axis::X => 0,
            Axis::Y => 1,
            Axis::Z => 2,
        }
}

/// Per-variable values at one program point, indexed by the kernel's
/// variable table. `None` is an untracked variable, which reads as
/// [`Val::divergent`] (a builtin reads as its launch-derived default).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub(crate) struct State(Vec<Option<Val>>);

impl State {
    fn get(&self, id: usize) -> Option<Val> {
        self.0[id]
    }
}

/// Writes `v` into a copy-on-write state, cloning a borrowed one only when
/// the value actually changes.
fn put(st: &mut Cow<'_, State>, id: usize, v: Option<Val>) {
    if st.get(id) != v {
        st.to_mut().0[id] = v;
    }
}

/// Evaluation context: the kernel's variable table and launch facts.
pub(crate) struct Interp {
    ids: HashMap<String, usize>,
    /// Scalars whose address is taken: writes through pointers the
    /// interpreter cannot see may change them, so they are never tracked.
    taken: Vec<bool>,
    /// `blockDim.x` when exactly known (1-D kernels with a known launch).
    bt: Option<u32>,
}

impl Interp {
    fn slots(&self) -> usize {
        BUILTIN_SLOTS + self.ids.len()
    }

    fn id(&self, name: &str) -> Option<usize> {
        self.ids.get(name).copied()
    }

    /// The value of the variable or builtin slot `id` in `st`. A builtin
    /// no condition has refined reads as what the launch says about it.
    fn read(&self, st: &State, id: usize) -> Val {
        use Uniformity::{BlockUniform, Divergent};
        if let Some(v) = st.get(id) {
            return v;
        }
        let bt = self.bt.map(i64::from);
        let form = |t, b| Some(Form::Affine { t, b, c: 0 });
        match id {
            // threadIdx.x, .y, .z
            0 => Val::new(
                Divergent,
                Interval::new(0, bt.map_or(1023, |t| t - 1)),
                form(1, 0),
            ),
            1 | 2 => Val::new(Divergent, Interval::new(0, 1023), None),
            // blockIdx.x, .y, .z
            3 => Val::new(BlockUniform, Interval::new(0, i64::MAX), form(0, 1)),
            4 | 5 => Val::new(BlockUniform, Interval::new(0, i64::MAX), None),
            // blockDim.x, .y, .z
            6 if bt.is_some() => Val::konst(bt.unwrap_or_default()),
            6..=8 => Val::new(BlockUniform, Interval::new(1, 1024), None),
            // gridDim
            9..=11 => Val::new(BlockUniform, Interval::new(1, i64::MAX), None),
            _ => Val::divergent(),
        }
    }

    fn bind(&self, st: &mut Cow<'_, State>, name: &str, v: Val) {
        if let Some(id) = self.id(name) {
            put(st, id, (!self.taken[id]).then_some(v));
        }
    }

    // -----------------------------------------------------------------------
    // The evaluator
    // -----------------------------------------------------------------------

    /// Evaluates `e` in `st`, applying its side effects (assignments,
    /// `++`/`--`) to the state. A borrowed state is copied on the first
    /// write, so evaluating a side-effect-free expression never copies.
    pub(crate) fn eval(&self, e: &Expr, st: &mut Cow<'_, State>) -> Val {
        match e {
            Expr::IntLit(v, _) => Val::konst(*v),
            Expr::FloatLit(..) => Val::uniform(),
            Expr::Ident(n) => self
                .id(n)
                .map_or_else(Val::divergent, |id| self.read(st, id)),
            Expr::Builtin(b) => self.read(st, builtin_slot(b)),
            Expr::Unary(op, inner) => {
                let v = self.eval(inner, st);
                match op {
                    UnOp::Neg => Val::new(
                        v.u,
                        v.iv.neg(),
                        v.form.and_then(|f| f.map_affine(i64::checked_neg)),
                    ),
                    UnOp::Not => Val::new(
                        v.u,
                        Interval::new(0, 1),
                        v.konst_value().map(|c| Form::konst(i64::from(c == 0))),
                    ),
                    UnOp::BitNot => Val::new(
                        v.u,
                        Interval::top(),
                        v.konst_value().map(|c| Form::konst(!c)),
                    ),
                }
            }
            Expr::Binary(op, a, b) => {
                let va = self.eval(a, st);
                let vb = self.eval(b, st);
                bin(*op, va, vb)
            }
            Expr::Assign(op, lhs, rhs) => {
                let rv = self.eval(rhs, st);
                let v = match op {
                    AssignOp::Assign => rv,
                    AssignOp::Compound(bop) => {
                        let cur = self.eval(lhs, st);
                        bin(*bop, cur, rv)
                    }
                };
                match lhs.as_ref() {
                    Expr::Ident(n) => self.bind(st, n, v),
                    // A store through memory changes no tracked scalar, but
                    // its address subexpressions may carry side effects.
                    other if *op == AssignOp::Assign => {
                        self.eval(other, st);
                    }
                    _ => {}
                }
                v
            }
            Expr::IncDec { inc, pre, target } => {
                let Expr::Ident(n) = target.as_ref() else {
                    self.eval(target, st);
                    return Val::divergent();
                };
                let old = self.eval(target, st);
                let op = if *inc { BinOp::Add } else { BinOp::Sub };
                let new = bin(op, old, Val::konst(1));
                self.bind(st, n, new);
                if *pre {
                    new
                } else {
                    old
                }
            }
            Expr::Ternary(c, t, f) => {
                let vc = self.eval(c, st);
                // Each arm runs on its own copy, so an assignment in the arm a
                // thread did not take cannot reach its state; then the arm
                // states are joined. The join treats every variable as
                // selected by the condition, not only those the arms assign.
                let (mut st_t, mut st_f) = (st.clone(), st.clone());
                let vt = self.eval(t, &mut st_t);
                let vf = self.eval(f, &mut st_f);
                for id in 0..self.slots() {
                    let v = match (st_t.get(id), st_f.get(id)) {
                        (Some(a), Some(b)) => Some(join_vals(&[a, b], |_| vc.u)),
                        _ => None,
                    };
                    put(st, id, v);
                }
                let u = vc.u.max(vt.u).max(vf.u);
                match vc.konst_value() {
                    Some(k) => Val {
                        u,
                        ..if k != 0 { vt } else { vf }
                    },
                    None => Val {
                        u,
                        iv: vt.iv.join(&vf.iv),
                        form: vt.form.filter(|_| vt.form == vf.form),
                    },
                }
            }
            Expr::Call(name, args) => {
                let mut u = Uniformity::BlockUniform;
                let mut first = [Val::divergent(); 2];
                for (i, a) in args.iter().enumerate() {
                    let v = self.eval(a, st);
                    u = u.max(v.u);
                    if let Some(slot) = first.get_mut(i) {
                        *slot = v;
                    }
                }
                let [a, b] = first;
                match (name.trim_end_matches("_sync"), args.len()) {
                    ("__ballot" | "__any" | "__all", _) => {
                        Val::new(Uniformity::WarpUniform, Interval::top(), None)
                    }
                    ("min", 2) => Val::new(
                        u,
                        Interval::new(a.iv.lo.min(b.iv.lo), a.iv.hi.min(b.iv.hi)),
                        None,
                    ),
                    ("max", 2) => Val::new(
                        u,
                        Interval::new(a.iv.lo.max(b.iv.lo), a.iv.hi.max(b.iv.hi)),
                        None,
                    ),
                    (
                        "min" | "max" | "fminf" | "fmaxf" | "fabsf" | "sqrtf" | "rsqrtf" | "expf"
                        | "logf" | "__popc" | "__clz" | "__brev",
                        _,
                    ) => Val::new(u, Interval::top(), None),
                    _ => Val::divergent(),
                }
            }
            Expr::Index(base, idx) => {
                self.eval(base, st);
                self.eval(idx, st);
                Val::divergent()
            }
            Expr::Cast(ty, inner) => {
                let v = self.eval(inner, st);
                match ty {
                    Ty::Bool => Val::new(v.u, Interval::new(0, 1), None),
                    ty if ty.is_integer() => v,
                    _ => Val::new(v.u, Interval::top(), None),
                }
            }
            Expr::AddrOf(inner) => {
                let v = self.eval(inner, st);
                Val::new(v.u, Interval::top(), None)
            }
            Expr::Deref(inner) => {
                self.eval(inner, st);
                Val::divergent()
            }
        }
    }

    /// Evaluates `e` at `st` without changing it.
    pub(crate) fn eval_at(&self, e: &Expr, st: &State) -> Val {
        self.eval(e, &mut Cow::Borrowed(st))
    }

    /// Evaluates `e`, applying its side effects to `st`.
    fn exec(&self, e: &Expr, st: &mut State) -> Val {
        let mut cow = Cow::Owned(std::mem::take(st));
        let v = self.eval(e, &mut cow);
        *st = cow.into_owned();
        v
    }

    // -----------------------------------------------------------------------
    // The transfer
    // -----------------------------------------------------------------------

    /// The one statement transfer.
    fn transfer_stmt(&self, s: &CStmt, st: &mut State) {
        match &s.kind {
            CStmtKind::Decl(d) => {
                let Some(id) = self.id(&d.name) else { return };
                let v = if d.array_len.is_some() {
                    // The array name denotes a uniform address.
                    Some(Val::uniform())
                } else if self.taken[id] {
                    None
                } else {
                    d.init.as_ref().map(|init| self.exec(init, st))
                };
                st.0[id] = v;
            }
            CStmtKind::Expr(e) => {
                self.exec(e, st);
            }
            CStmtKind::Sync | CStmtKind::BarSync { .. } => {}
        }
    }

    /// Runs block `b`'s statements and its branch condition's side effects
    /// on `st`, showing each statement to `rec` first.
    fn transfer_block(
        &self,
        b: BlockId,
        bb: &BasicBlock,
        st: &mut State,
        mut rec: Option<&mut Recorder>,
    ) {
        for s in &bb.stmts {
            if let Some(r) = rec.as_deref_mut() {
                r.stmt(self, st, b, s);
            }
            self.transfer_stmt(s, st);
        }
        if let Term::Branch { cond, span_idx, .. } = &bb.term {
            if let Some(r) = rec {
                r.walk(self, st, b, *span_idx, cond);
            }
            self.exec(cond, st);
        }
    }

    // -----------------------------------------------------------------------
    // Branch-edge refinement
    // -----------------------------------------------------------------------

    /// The slot a condition operand can be refined under: a tracked scalar
    /// or a builtin.
    fn refine_key(&self, e: &Expr) -> Option<usize> {
        match e {
            Expr::Ident(n) => self.id(n).filter(|&id| !self.taken[id]),
            Expr::Builtin(b) => Some(builtin_slot(b)),
            _ => None,
        }
    }

    /// Narrows slot `id` by `id <op> bound`; false means the edge is dead.
    fn refine_var(&self, st: &mut State, id: usize, op: BinOp, bound: &Interval) -> bool {
        let constraint = match op {
            BinOp::Lt if bound.hi != i64::MAX => Interval::new(i64::MIN, bound.hi - 1),
            BinOp::Le => Interval::new(i64::MIN, bound.hi),
            BinOp::Gt if bound.lo != i64::MIN => Interval::new(bound.lo + 1, i64::MAX),
            BinOp::Ge => Interval::new(bound.lo, i64::MAX),
            BinOp::Eq => *bound,
            _ => return true,
        };
        let cur = self.read(st, id);
        match cur.iv.meet(&constraint) {
            Some(iv) => {
                st.0[id] = Some(Val { iv, ..cur });
                true
            }
            None => false,
        }
    }

    /// Applies what `cond == polarity` implies to `st`; false means the
    /// edge is dead.
    fn refine(&self, st: &mut State, cond: &Expr, polarity: bool) -> bool {
        match cond {
            Expr::Unary(UnOp::Not, inner) => self.refine(st, inner, !polarity),
            Expr::Binary(BinOp::LogAnd, a, b) if polarity => {
                self.refine(st, a, true) && self.refine(st, b, true)
            }
            Expr::Binary(BinOp::LogOr, a, b) if !polarity => {
                self.refine(st, a, false) && self.refine(st, b, false)
            }
            Expr::Binary(op, a, b) if op.is_comparison() => {
                let op = if polarity {
                    *op
                } else {
                    match negate_cmp(*op) {
                        Some(o) => o,
                        None => return true,
                    }
                };
                let mut live = true;
                if let Some(k) = self.refine_key(a) {
                    let bound = self.eval_at(b, st).iv;
                    live = self.refine_var(st, k, op, &bound);
                }
                if live {
                    if let Some(k) = self.refine_key(b) {
                        let bound = self.eval_at(a, st).iv;
                        live = self.refine_var(st, k, swap_cmp(op), &bound);
                    }
                }
                live
            }
            Expr::Ident(_) | Expr::Builtin(_) if !polarity => match self.refine_key(cond) {
                Some(k) => self.refine_var(st, k, BinOp::Eq, &Interval::point(0)),
                None => true,
            },
            Expr::IntLit(v, _) => (*v != 0) == polarity,
            _ => true,
        }
    }

    // -----------------------------------------------------------------------
    // Thread sets of conditions
    // -----------------------------------------------------------------------

    /// The exact set of thread ids in `[0, universe)` for which `e` holds at
    /// `st`, or `None` when it cannot be pinned down.
    pub(crate) fn thread_set(&self, e: &Expr, st: &State, universe: i64) -> Option<IntervalSet> {
        match e {
            Expr::IntLit(v, _) => Some(if *v != 0 {
                IntervalSet::full(universe)
            } else {
                IntervalSet::empty()
            }),
            Expr::Unary(UnOp::Not, inner) => {
                Some(self.thread_set(inner, st, universe)?.complement(universe))
            }
            Expr::Binary(BinOp::LogAnd, l, r) => Some(
                self.thread_set(l, st, universe)?
                    .intersect(&self.thread_set(r, st, universe)?),
            ),
            Expr::Binary(BinOp::LogOr, l, r) => Some(
                self.thread_set(l, st, universe)?
                    .union(&self.thread_set(r, st, universe)?),
            ),
            Expr::Binary(op, l, r) if op.is_comparison() => {
                let fl = self.eval_at(l, st).form?;
                let fr = self.eval_at(r, st).form?;
                let (op, f, c) = match (fl.konst_value(), fr.konst_value()) {
                    (Some(x), Some(y)) => {
                        return Some(if compare(*op, x, y) {
                            IntervalSet::full(universe)
                        } else {
                            IntervalSet::empty()
                        })
                    }
                    (None, Some(c)) => (*op, fl, c),
                    (Some(c), None) => (swap_cmp(*op), fr, c),
                    (None, None) => return None,
                };
                match f {
                    Form::Affine { t, b: 0, c: k } => Some(solve_affine(t, k, op, c, universe)),
                    Form::Mod { a, b, m, off } => Some(solve_mod((a, b, m, off), op, c, universe)),
                    Form::Affine { .. } => None,
                }
            }
            _ => None,
        }
    }
}

/// Combines two values through a binary operator.
fn bin(op: BinOp, a: Val, b: Val) -> Val {
    let form = form_bin(op, a.form, b.form);
    let iv = match op {
        BinOp::Add => a.iv.add(&b.iv),
        BinOp::Sub => a.iv.sub(&b.iv),
        BinOp::Mul => a.iv.mul(&b.iv),
        BinOp::Div => a.iv.div(&b.iv),
        BinOp::Rem => a.iv.rem(&b.iv),
        // `x & m` with a non-negative constant mask lands in `[0, m]`
        // regardless of `x`'s sign (two's complement).
        BinOp::BitAnd => match [a, b]
            .iter()
            .find_map(|v| v.konst_value().filter(|&k| k >= 0))
        {
            Some(m) => Interval::new(0, m),
            None => Interval::top(),
        },
        op if op.is_comparison() || op.is_logical() => Interval::new(0, 1),
        _ => Interval::top(),
    };
    let mut u = a.u.max(b.u);
    // `τ / c` and `τ >> k` with a warp-multiple divisor yield the same value
    // for every lane of a warp.
    let tid = Some(Form::Affine { t: 1, b: 0, c: 0 });
    let warp_div = match (op, b.konst_value()) {
        (BinOp::Div, Some(c)) => c > 0 && c % 32 == 0,
        (BinOp::Shr, Some(k)) => (5..63).contains(&k),
        _ => false,
    };
    if form.is_none() && a.form == tid && warp_div {
        u = u.min(Uniformity::WarpUniform).max(b.u);
    }
    Val::new(u, iv, form)
}

/// The exact form of `a op b`, when both operands have one and the result
/// stays representable.
fn form_bin(op: BinOp, a: Option<Form>, b: Option<Form>) -> Option<Form> {
    let (a, b) = (a?, b?);
    let (ka, kb) = (a.konst_value(), b.konst_value());
    if let (Some(x), Some(y)) = (ka, kb) {
        return const_bin(op, x, y).map(Form::konst);
    }
    match op {
        // A constant slides into the post-modulo offset; a τ-term can't.
        BinOp::Add => match (a, b) {
            (Form::Mod { a, b, m, off }, o) | (o, Form::Mod { a, b, m, off }) => Some(Form::Mod {
                a,
                b,
                m,
                off: off.checked_add(o.konst_value()?)?,
            }),
            _ => a.zip_affine(b, i64::checked_add),
        },
        BinOp::Sub => match (a, b) {
            (Form::Mod { a, b, m, off }, o) => Some(Form::Mod {
                a,
                b,
                m,
                off: off.checked_sub(o.konst_value()?)?,
            }),
            _ => a.zip_affine(b, i64::checked_sub),
        },
        BinOp::Mul => match (ka, kb) {
            (_, Some(k)) => a.map_affine(|x| x.checked_mul(k)),
            (Some(k), _) => b.map_affine(|x| x.checked_mul(k)),
            _ => None,
        },
        BinOp::Div => {
            let k = kb.filter(|&k| k > 0)?;
            a.map_affine(|x| (x % k == 0).then(|| x / k))
        }
        BinOp::Rem => match (a, kb?) {
            (Form::Affine { t, b: 0, c }, m) if m > 0 => Some(Form::Mod {
                a: t,
                b: c,
                m,
                off: 0,
            }),
            // `(x % m) % m == x % m` only without a post-modulo offset.
            (Form::Mod { off: 0, m, .. }, k) if k == m => Some(a),
            _ => None,
        },
        BinOp::Shl => {
            let k = kb.filter(|k| (0..31).contains(k))?;
            a.map_affine(|x| x.checked_shl(k as u32))
        }
        BinOp::Shr => {
            let d = 1i64 << kb.filter(|k| (0..31).contains(k))?;
            a.map_affine(|x| (x >= 0 && x % d == 0).then(|| x / d))
        }
        // `x & (2^k - 1)` is `x % 2^k` for non-negative `x`.
        BinOp::BitAnd => {
            let (f, m) = match (ka, kb) {
                (None, Some(mask)) => (a, mask.checked_add(1)?),
                (Some(mask), None) => (b, mask.checked_add(1)?),
                _ => return None,
            };
            match f {
                Form::Affine { t, b: 0, c }
                    if t > 0 && c >= 0 && m > 1 && (m as u64).is_power_of_two() =>
                {
                    Some(Form::Mod {
                        a: t,
                        b: c,
                        m,
                        off: 0,
                    })
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Constant folding.
fn const_bin(op: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => x.checked_add(y)?,
        BinOp::Sub => x.checked_sub(y)?,
        BinOp::Mul => x.checked_mul(y)?,
        BinOp::Div => x.checked_div(y)?,
        BinOp::Rem => x.checked_rem(y)?,
        BinOp::Shl if (0..63).contains(&y) => x.checked_shl(y as u32)?,
        BinOp::Shr if (0..63).contains(&y) => x >> y,
        BinOp::Shl | BinOp::Shr => return None,
        BinOp::BitAnd => x & y,
        BinOp::BitOr => x | y,
        BinOp::BitXor => x ^ y,
        BinOp::LogAnd => i64::from(x != 0 && y != 0),
        BinOp::LogOr => i64::from(x != 0 || y != 0),
        op => i64::from(compare(op, x, y)),
    })
}

fn negate_cmp(op: BinOp) -> Option<BinOp> {
    Some(match op {
        BinOp::Lt => BinOp::Ge,
        BinOp::Le => BinOp::Gt,
        BinOp::Gt => BinOp::Le,
        BinOp::Ge => BinOp::Lt,
        BinOp::Eq => BinOp::Ne,
        BinOp::Ne => BinOp::Eq,
        _ => return None,
    })
}

/// Mirror of a comparison under operand swap: `c OP x` ⇔ `x swap(OP) c`.
fn swap_cmp(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

/// Pre-order walk over `e` and its subexpressions.
pub(crate) fn visit_exprs(e: &Expr, f: &mut impl FnMut(&Expr)) {
    f(e);
    match e {
        Expr::Unary(_, a) | Expr::Cast(_, a) | Expr::AddrOf(a) | Expr::Deref(a) => {
            visit_exprs(a, f)
        }
        Expr::Binary(_, a, b) | Expr::Index(a, b) | Expr::Assign(_, a, b) => {
            visit_exprs(a, f);
            visit_exprs(b, f);
        }
        Expr::Ternary(a, b, c) => {
            visit_exprs(a, f);
            visit_exprs(b, f);
            visit_exprs(c, f);
        }
        Expr::IncDec { target, .. } => visit_exprs(target, f),
        Expr::Call(_, args) => args.iter().for_each(|a| visit_exprs(a, f)),
        Expr::IntLit(..) | Expr::FloatLit(..) | Expr::Ident(_) | Expr::Builtin(_) => {}
    }
}

/// Every expression a block evaluates: declaration initializers,
/// expression statements and the branch condition.
fn block_exprs(bb: &BasicBlock) -> impl Iterator<Item = &Expr> {
    let stmts = bb.stmts.iter().filter_map(|s| match &s.kind {
        CStmtKind::Decl(d) => d.init.as_ref(),
        CStmtKind::Expr(e) => Some(e),
        CStmtKind::Sync | CStmtKind::BarSync { .. } => None,
    });
    let cond = match &bb.term {
        Term::Branch { cond, .. } => Some(cond),
        _ => None,
    };
    stmts.chain(cond)
}

// ---------------------------------------------------------------------------
// Memory accesses with pointer provenance
// ---------------------------------------------------------------------------

/// Where an access lands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Place {
    /// A `__shared__` array, by name.
    Shared(String),
    /// A global pointer parameter, by name.
    Global(String),
    /// Unknown provenance — conflicts with everything.
    Wild,
}

/// One shared/global memory access.
#[derive(Debug, Clone)]
pub(crate) struct AccessFact {
    pub(crate) place: Place,
    pub(crate) write: bool,
    pub(crate) atomic: bool,
    pub(crate) block: BlockId,
    pub(crate) span_idx: Option<usize>,
    /// `name[idx]` on the shared array or pointer parameter itself, so
    /// `idx` is the element index; otherwise the base offset is unknown
    /// (pointer arithmetic, pointer locals, escaping addresses) and `idx`
    /// is ⊤.
    pub(crate) direct: bool,
    pub(crate) idx: Val,
}

/// Flow-insensitive pointer provenance: the shared arrays and pointer
/// parameters, and what every pointer local may point into.
pub(crate) struct Provenance {
    pub(crate) shared: HashSet<String>,
    params: HashSet<String>,
    ptr_locals: HashMap<String, Place>,
}

impl Provenance {
    fn of(f: &Function, cfg: &Cfg) -> Provenance {
        let mut shared = HashSet::new();
        let mut ptrs = HashSet::new();
        for s in cfg.blocks.iter().flat_map(|bb| &bb.stmts) {
            if let CStmtKind::Decl(d) = &s.kind {
                if d.quals.shared || d.quals.extern_shared {
                    shared.insert(d.name.clone());
                } else if matches!(d.ty, Ty::Ptr(_)) && d.array_len.is_none() {
                    ptrs.insert(d.name.clone());
                }
            }
        }
        let params = f
            .params
            .iter()
            .filter(|p| matches!(p.ty, Ty::Ptr(_)))
            .map(|p| p.name.clone())
            .collect();
        let mut prov = Provenance {
            shared,
            params,
            ptr_locals: HashMap::new(),
        };
        // Merge every initializer and assignment a pointer local sees; three
        // rounds resolve chains (`p = q; r = p + 1`).
        for _ in 0..3 {
            let mut next = prov.ptr_locals.clone();
            for s in cfg.blocks.iter().flat_map(|bb| &bb.stmts) {
                let (name, rhs) = match &s.kind {
                    CStmtKind::Decl(d) => match &d.init {
                        Some(init) => (&d.name, init),
                        None => continue,
                    },
                    CStmtKind::Expr(Expr::Assign(AssignOp::Assign, lhs, rhs)) => match lhs.as_ref()
                    {
                        Expr::Ident(n) => (n, rhs.as_ref()),
                        _ => continue,
                    },
                    _ => continue,
                };
                if !ptrs.contains(name) {
                    continue;
                }
                let p = prov.place(rhs);
                match next.get(name) {
                    None => {
                        next.insert(name.clone(), p);
                    }
                    Some(old) if *old != p => {
                        next.insert(name.clone(), Place::Wild);
                    }
                    _ => {}
                }
            }
            if next == prov.ptr_locals {
                break;
            }
            prov.ptr_locals = next;
        }
        prov
    }

    fn place(&self, e: &Expr) -> Place {
        match e {
            Expr::Ident(n) => {
                if self.shared.contains(n) {
                    Place::Shared(n.clone())
                } else if self.params.contains(n) {
                    Place::Global(n.clone())
                } else {
                    self.ptr_locals.get(n).cloned().unwrap_or(Place::Wild)
                }
            }
            Expr::Cast(_, inner) => self.place(inner),
            Expr::AddrOf(inner) => match inner.as_ref() {
                Expr::Index(base, _) => self.place(base),
                Expr::Deref(p) => self.place(p),
                _ => Place::Wild,
            },
            Expr::Binary(BinOp::Add | BinOp::Sub, a, b) => match self.place(a) {
                Place::Wild => self.place(b),
                pa => pa,
            },
            _ => Place::Wild,
        }
    }

    /// A name the provenance map owns: a shared array, a pointer
    /// parameter, or a pointer local.
    fn is_pointer(&self, n: &str) -> bool {
        self.shared.contains(n) || self.params.contains(n) || self.ptr_locals.contains_key(n)
    }

    /// `name[...]` on a thread-private local array, which cannot race.
    fn is_private_array(&self, base: &Expr) -> bool {
        matches!(base, Expr::Ident(n) if !self.is_pointer(n))
    }
}

/// The one access collector: the final pass shows it every statement and
/// branch condition with the state in force before it.
pub(crate) struct Recorder {
    prov: Provenance,
    accesses: Vec<AccessFact>,
}

impl Recorder {
    fn walker<'a>(
        &'a mut self,
        ip: &'a Interp,
        st: &'a State,
        block: BlockId,
        span_idx: Option<usize>,
    ) -> Walk<'a> {
        Walk {
            ip,
            prov: &self.prov,
            st,
            block,
            span_idx,
            out: &mut self.accesses,
        }
    }

    fn stmt(&mut self, ip: &Interp, st: &State, b: BlockId, s: &CStmt) {
        let ptr_locals = &self.prov.ptr_locals;
        let pointer_store = matches!(&s.kind,
            CStmtKind::Expr(Expr::Assign(AssignOp::Assign, lhs, _))
                if matches!(lhs.as_ref(), Expr::Ident(n) if ptr_locals.contains_key(n)));
        let mut w = self.walker(ip, st, b, s.span_idx);
        match &s.kind {
            CStmtKind::Decl(d) => match &d.init {
                Some(init) if matches!(d.ty, Ty::Ptr(_)) => w.walk_pointer(init),
                Some(init) => w.walk(init),
                None => {}
            },
            // A whole-statement pointer assignment is provenance.
            CStmtKind::Expr(Expr::Assign(_, _, rhs)) if pointer_store => w.walk_pointer(rhs),
            CStmtKind::Expr(e) => w.walk(e),
            CStmtKind::Sync | CStmtKind::BarSync { .. } => {}
        }
    }

    fn walk(&mut self, ip: &Interp, st: &State, b: BlockId, span_idx: Option<usize>, e: &Expr) {
        self.walker(ip, st, b, span_idx).walk(e);
    }
}

struct Walk<'a> {
    ip: &'a Interp,
    prov: &'a Provenance,
    st: &'a State,
    block: BlockId,
    span_idx: Option<usize>,
    out: &'a mut Vec<AccessFact>,
}

impl Walk<'_> {
    fn record(&mut self, base: &Expr, idx: Option<&Expr>, write: bool, atomic: bool) {
        if self.prov.is_private_array(base) {
            return;
        }
        let direct = idx.is_some()
            && matches!(base, Expr::Ident(n)
                if self.prov.shared.contains(n) || self.prov.params.contains(n));
        let idx = match idx {
            Some(e) if direct => self.ip.eval_at(e, self.st),
            _ => Val::divergent(),
        };
        self.out.push(AccessFact {
            place: self.prov.place(base),
            write,
            atomic,
            block: self.block,
            span_idx: self.span_idx,
            direct,
            idx,
        });
    }

    fn walk(&mut self, e: &Expr) {
        match e {
            Expr::Assign(_, lhs, rhs) => {
                // A compound update's read is subsumed by its write.
                self.walk_store(lhs);
                self.walk(rhs);
            }
            Expr::IncDec { target, .. } => self.walk_store(target),
            Expr::Index(base, idx) => {
                self.record(base, Some(idx), false, false);
                self.walk(idx);
                if !matches!(base.as_ref(), Expr::Ident(_)) {
                    self.walk_pointer(base);
                }
            }
            Expr::Deref(inner) => {
                self.record(inner, None, false, false);
                self.walk_pointer(inner);
            }
            Expr::Call(name, args) => {
                let mut rest = &args[..];
                if matches!(name.as_str(), "atomicAdd" | "atomicMax" | "atomicExch") {
                    if let Some(Expr::AddrOf(inner)) = args.first() {
                        if let Expr::Index(base, idx) = inner.as_ref() {
                            self.record(base, Some(idx), true, true);
                            self.walk(idx);
                            rest = &args[1..];
                        }
                    }
                }
                for a in rest {
                    self.walk(a);
                }
            }
            // An address escaping into a walked context (a call argument,
            // integer arithmetic): assume an unknown write through it.
            Expr::AddrOf(inner) => match inner.as_ref() {
                Expr::Index(base, idx) => {
                    self.record(base, None, true, false);
                    self.walk(idx);
                }
                Expr::Ident(n) => {
                    if self.prov.is_pointer(n) {
                        self.record(inner, None, true, false);
                    }
                }
                other => self.walk(other),
            },
            // A bare array/pointer name in a walked (non-provenance) context
            // has escaped: assume an unknown write.
            Expr::Ident(n) => {
                if self.prov.is_pointer(n) {
                    self.record(e, None, true, false);
                }
            }
            Expr::Unary(_, a) | Expr::Cast(_, a) => self.walk(a),
            Expr::Binary(_, a, b) => {
                self.walk(a);
                self.walk(b);
            }
            Expr::Ternary(a, b, c) => {
                self.walk(a);
                self.walk(b);
                self.walk(c);
            }
            Expr::IntLit(..) | Expr::FloatLit(..) | Expr::Builtin(_) => {}
        }
    }

    fn walk_store(&mut self, lhs: &Expr) {
        match lhs {
            Expr::Index(base, idx) => {
                self.record(base, Some(idx), true, false);
                self.walk(idx);
                if !matches!(base.as_ref(), Expr::Ident(_)) {
                    self.walk_pointer(base);
                }
            }
            Expr::Deref(inner) => {
                self.record(inner, None, true, false);
                self.walk_pointer(inner);
            }
            _ => {} // scalar/pointer assignment: provenance handles it
        }
    }

    /// Walks a pointer-typed expression without letting bare array names
    /// count as escapes (the provenance map owns them); nested index
    /// expressions are still walked for accesses like `p[a[i]]`.
    fn walk_pointer(&mut self, e: &Expr) {
        match e {
            Expr::Ident(_) => {}
            Expr::Cast(_, inner) => self.walk_pointer(inner),
            Expr::AddrOf(inner) => match inner.as_ref() {
                Expr::Index(_, idx) => self.walk(idx),
                Expr::Deref(p) => self.walk_pointer(p),
                _ => {}
            },
            Expr::Binary(BinOp::Add | BinOp::Sub, a, b) => {
                self.walk_pointer(a);
                // The non-pointer side is an ordinary scalar expression.
                if self.prov.place(b) == Place::Wild {
                    self.walk(b);
                } else {
                    self.walk_pointer(b);
                }
            }
            other => self.walk(other),
        }
    }
}

// ---------------------------------------------------------------------------
// The fixpoint
// ---------------------------------------------------------------------------

/// What decides whether a block's threads arrive, per controlling branch.
#[derive(Debug, Clone)]
enum Guard {
    /// The branch is unreachable.
    Unreached,
    /// A block-uniform condition: whether the block runs at all, not which
    /// threads run it.
    Uniform,
    /// A non-uniform condition and the exact thread set it selects, if
    /// solvable.
    Threads(Option<IntervalSet>),
}

/// Which threads reach a block, as far as its controlling conditions say.
#[derive(Debug, Clone)]
pub(crate) struct Arrival {
    /// The thread set the non-uniform guards select (an over-approximation:
    /// uniform guards and unreachable branches are ignored), or `None` when
    /// one of them is unsolvable.
    pub(crate) threads: Option<IntervalSet>,
    /// The block is reachable and every guard is solved and non-uniform, so
    /// `threads` is exactly the set that executes it.
    pub(crate) definite: bool,
}

impl Arrival {
    /// The threads that definitely execute the block.
    pub(crate) fn definite(&self) -> Option<&IntervalSet> {
        self.threads.as_ref().filter(|_| self.definite)
    }
}

/// The interpreter's result for one kernel at one launch width.
pub(crate) struct Analysis {
    /// The kernel's control-flow graph.
    pub(crate) cfg: Cfg,
    /// State at each block exit (`None` = unreachable).
    #[cfg(test)]
    outs: Vec<Option<State>>,
    /// `blockDim.x`, when the launch is known.
    pub(crate) block_threads: Option<u32>,
    /// The kernel indexes threads in 2-D or 3-D, so τ identifies neither a
    /// thread nor its warp.
    pub(crate) multidim: bool,
    pub(crate) ip: Interp,
    pub(crate) prov: Provenance,
    pub(crate) accesses: Vec<AccessFact>,
    pub(crate) arrivals: Vec<Arrival>,
}

/// Working storage of [`Analysis::run`].
struct Flow<'a> {
    ip: &'a Interp,
    cfg: &'a Cfg,
    cds: &'a [Vec<ControlDep>],
    preds: Vec<Vec<BlockId>>,
    /// Per branch block: the variables assigned in any block it controls.
    /// Only these can become path-dependent where its paths merge.
    touched: Vec<Vec<bool>>,
    init: State,
    ins: Vec<Option<State>>,
    outs: Vec<Option<State>>,
    /// Per branch block: its exit state refined for the true and false edge
    /// (`None` = dead edge).
    edges: Vec<[Option<State>; 2]>,
    /// Per branch block: the uniformity of its condition at its exit.
    cond_u: Vec<Option<Uniformity>>,
}

impl Flow<'_> {
    /// The entry state of `b` from its predecessors' live edges, with
    /// control-dependence divergence injected. A branch injects its
    /// uniformity into a variable at this join only when it *separates* the
    /// incoming paths — it decides whether a predecessor runs but not
    /// whether the join runs — and it controls an assignment to the
    /// variable. So a loop counter stepped outside a divergent `if` stays
    /// uniform across it, and a partition guard in a fused kernel never
    /// poisons partition-local state.
    fn join_into(&self, b: BlockId) -> Option<State> {
        if b == 0 {
            return Some(self.init.clone());
        }
        let mut entries: Vec<(&State, BlockId)> = Vec::new();
        for &p in &self.preds[b] {
            match &self.cfg.blocks[p].term {
                Term::Jump(_) => entries.extend(self.outs[p].as_ref().map(|s| (s, p))),
                Term::Branch { t, f, .. } => {
                    for (target, edge) in [t, f].into_iter().zip(&self.edges[p]) {
                        if *target == b {
                            entries.extend(edge.as_ref().map(|s| (s, p)));
                        }
                    }
                }
                Term::Exit => {}
            }
        }
        if entries.is_empty() {
            return None;
        }
        let seps: Vec<Vec<(BlockId, Uniformity)>> = entries
            .iter()
            .map(|&(_, p)| {
                self.cds[p]
                    .iter()
                    .filter(|cd| !self.cds[b].contains(cd))
                    .filter_map(|cd| {
                        let u = self.cond_u[cd.branch].unwrap_or(Uniformity::BlockUniform);
                        (u > Uniformity::BlockUniform).then_some((cd.branch, u))
                    })
                    .collect()
            })
            .collect();
        let mut joined = State(vec![None; self.ip.slots()]);
        let mut vals = Vec::with_capacity(entries.len());
        for (id, slot) in joined.0.iter_mut().enumerate() {
            vals.clear();
            vals.extend(entries.iter().map_while(|(st, _)| st.get(id)));
            if vals.len() < entries.len() {
                continue;
            }
            *slot = Some(join_vals(&vals, |i| {
                seps[i]
                    .iter()
                    .filter(|(branch, _)| self.touched[*branch].get(id) == Some(&true))
                    .map(|&(_, u)| u)
                    .max()
                    .unwrap_or(Uniformity::BlockUniform)
            }));
        }
        Some(joined)
    }

    /// Runs block `b` from its entry state and records its exit, edges and
    /// condition uniformity. Returns whether the exit state and whether the
    /// condition's uniformity changed.
    fn run_block(&mut self, b: BlockId, rec: Option<&mut Recorder>) -> (bool, bool) {
        let bb = &self.cfg.blocks[b];
        let Some(mut st) = self.ins[b].clone() else {
            self.outs[b] = None;
            self.edges[b] = [None, None];
            self.cond_u[b] = None;
            return (false, false);
        };
        self.ip.transfer_block(b, bb, &mut st, rec);
        let mut cu = None;
        if let Term::Branch { cond, .. } = &bb.term {
            cu = Some(self.ip.eval_at(cond, &st).u);
            self.edges[b] = [true, false].map(|polarity| {
                let mut edge = st.clone();
                self.ip.refine(&mut edge, cond, polarity).then_some(edge)
            });
        }
        let out_changed = self.outs[b].as_ref() != Some(&st);
        self.outs[b] = Some(st);
        let cu_changed = std::mem::replace(&mut self.cond_u[b], cu) != cu;
        (out_changed, cu_changed)
    }
}

/// `old ⊔ new` per variable, with the intervals widened instead of joined
/// when `widen` is set.
fn merge_old(old: &State, new: &State, widen: bool) -> State {
    State(
        old.0
            .iter()
            .zip(&new.0)
            .map(|(o, n)| {
                let (o, n) = ((*o)?, (*n)?);
                Some(Val {
                    u: o.u.max(n.u),
                    iv: if widen {
                        o.iv.widen(&n.iv)
                    } else {
                        o.iv.join(&n.iv)
                    },
                    form: o.form.filter(|_| o.form == n.form),
                })
            })
            .collect(),
    )
}

impl Analysis {
    /// Runs the interpreter over `f` at block width `block_threads`
    /// (`blockDim.x` when known; with 2-D/3-D thread indexing it only sizes
    /// the thread-id universe of the arrival sets).
    pub(crate) fn run(f: &Function, block_threads: Option<u32>) -> Analysis {
        let cfg = Cfg::build(f);
        let n = cfg.blocks.len();

        // The variable table, address-taken scalars, multi-dimensional
        // indexing, and per-block assignments, in one scan.
        let mut ids: HashMap<String, usize> = HashMap::new();
        let mut intern = |name: &str| -> usize {
            let next = BUILTIN_SLOTS + ids.len();
            *ids.entry(name.to_owned()).or_insert(next)
        };
        for p in &f.params {
            intern(&p.name);
        }
        let mut taken_names = HashSet::new();
        let mut multidim = false;
        let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (b, bb) in cfg.blocks.iter().enumerate() {
            for s in &bb.stmts {
                if let CStmtKind::Decl(d) = &s.kind {
                    assigned[b].push(intern(&d.name));
                }
            }
            for e in block_exprs(bb) {
                visit_exprs(e, &mut |x| match x {
                    Expr::Ident(name) => {
                        intern(name);
                    }
                    Expr::Assign(_, lhs, _) | Expr::IncDec { target: lhs, .. } => {
                        if let Expr::Ident(name) = lhs.as_ref() {
                            assigned[b].push(intern(name));
                        }
                    }
                    Expr::AddrOf(inner) => {
                        if let Expr::Ident(name) = inner.as_ref() {
                            taken_names.insert(name.clone());
                        }
                    }
                    Expr::Builtin(BuiltinVar::ThreadIdx(Axis::Y | Axis::Z)) => multidim = true,
                    _ => {}
                });
            }
        }
        let slots = BUILTIN_SLOTS + ids.len();
        let mut taken = vec![false; slots];
        for name in &taken_names {
            taken[ids[name]] = true;
        }
        let ip = Interp {
            ids,
            taken,
            bt: if multidim { None } else { block_threads },
        };

        let cds = cfg.control_deps();
        let mut touched: Vec<Vec<bool>> = vec![Vec::new(); n];
        for (b, deps) in cds.iter().enumerate() {
            for cd in deps {
                let t = &mut touched[cd.branch];
                t.resize(slots, false);
                for &id in &assigned[b] {
                    t[id] = true;
                }
            }
        }
        let preds = cfg.preds();
        // The joins whose divergence reads each branch's condition.
        let mut readers: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for (b, ps) in preds.iter().enumerate() {
            for &p in ps {
                for cd in &cds[p] {
                    if !cds[b].contains(cd) && !readers[cd.branch].contains(&b) {
                        readers[cd.branch].push(b);
                    }
                }
            }
        }

        let mut init = State(vec![None; slots]);
        for p in &f.params {
            let id = ip.ids[&p.name];
            init.0[id] = (!ip.taken[id]).then(Val::uniform);
        }
        let mut flow = Flow {
            ip: &ip,
            cfg: &cfg,
            cds: &cds,
            preds,
            touched,
            init,
            ins: vec![None; n],
            outs: vec![None; n],
            edges: vec![[None, None]; n],
            cond_u: vec![None; n],
        };

        let mut updates = vec![0u32; n];
        let mut queued = vec![false; n];
        let mut work = VecDeque::from([0usize]);
        queued[0] = true;
        // Widening guarantees convergence; the fuel is a belt-and-braces
        // bail against lattice bugs, never hit in practice.
        let mut fuel = 64 * n + 512;
        while let Some(b) = work.pop_front() {
            queued[b] = false;
            if fuel == 0 {
                break;
            }
            fuel -= 1;
            let Some(computed) = flow.join_into(b) else {
                continue;
            };
            let next = match &flow.ins[b] {
                None => computed,
                Some(old) => merge_old(old, &computed, updates[b] >= WIDEN_AFTER),
            };
            if flow.ins[b].as_ref() == Some(&next) && flow.outs[b].is_some() {
                continue;
            }
            updates[b] += 1;
            flow.ins[b] = Some(next);
            let (out_changed, cu_changed) = flow.run_block(b, None);
            let succs = cfg.blocks[b].term.succs();
            let wake = succs.iter().filter(|_| out_changed);
            for &s in wake.chain(readers[b].iter().filter(|_| cu_changed)) {
                if !queued[s] {
                    queued[s] = true;
                    work.push_back(s);
                }
            }
        }

        // Two narrowing passes recompute every entry state from the (sound)
        // post-fixpoint exits without widening, clawing back loop bounds
        // that guard refinement knows. The last one records the accesses.
        let mut rec = Recorder {
            prov: Provenance::of(f, &cfg),
            accesses: Vec::new(),
        };
        for pass in 0..2 {
            let ins: Vec<Option<State>> = (0..n)
                .map(|b| flow.ins[b].as_ref().and_then(|_| flow.join_into(b)))
                .collect();
            flow.ins = ins;
            for b in 0..n {
                flow.run_block(b, (pass == 1).then_some(&mut rec));
            }
        }

        let universe = block_threads.map_or(1024, i64::from);
        let guards: Vec<Guard> = (0..n)
            .map(
                |b| match (&cfg.blocks[b].term, &flow.outs[b], flow.cond_u[b]) {
                    (Term::Branch { cond, .. }, Some(st), Some(u)) => {
                        if u == Uniformity::BlockUniform {
                            Guard::Uniform
                        } else {
                            Guard::Threads(ip.thread_set(cond, st, universe))
                        }
                    }
                    _ => Guard::Unreached,
                },
            )
            .collect();
        let arrivals = (0..n)
            .map(|b| {
                let mut threads = Some(IntervalSet::full(universe));
                let mut definite = flow.ins[b].is_some();
                for cd in &cds[b] {
                    match &guards[cd.branch] {
                        Guard::Unreached | Guard::Uniform => definite = false,
                        Guard::Threads(None) => threads = None,
                        Guard::Threads(Some(p)) => {
                            let p = if cd.polarity {
                                p.clone()
                            } else {
                                p.complement(universe)
                            };
                            threads = threads.map(|t| t.intersect(&p));
                        }
                    }
                }
                Arrival { threads, definite }
            })
            .collect();

        #[cfg(test)]
        let outs = flow.outs;
        Analysis {
            cfg,
            #[cfg(test)]
            outs,
            block_threads,
            multidim,
            ip,
            prov: rec.prov,
            accesses: rec.accesses,
            arrivals,
        }
    }

    /// The thread-id universe `[0, universe)` of arrival sets: the block
    /// width, or the hardware maximum of 1024 when it is unknown.
    pub(crate) fn universe(&self) -> i64 {
        self.block_threads.map_or(1024, i64::from)
    }

    /// Constant lengths of the fixed-size `__shared__` arrays.
    pub(crate) fn shared_extents(&self) -> HashMap<&str, i64> {
        let mut out = HashMap::new();
        for s in self.cfg.blocks.iter().flat_map(|bb| &bb.stmts) {
            if let CStmtKind::Decl(d) = &s.kind {
                if let (true, Some(ArrayLen::Fixed(len))) = (d.quals.shared, &d.array_len) {
                    let len = self.ip.eval_at(len, &State(vec![None; self.ip.slots()]));
                    if let Some(c) = len.konst_value().filter(|&c| c > 0) {
                        out.insert(d.name.as_str(), c);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_frontend::parse_kernel;
    use cuda_frontend::parser::parse_expr;

    fn analyze(body: &str, bt: Option<u32>) -> Analysis {
        let src = format!("__global__ void k(int* out, int n) {{ {body} }}");
        Analysis::run(&parse_kernel(&src).expect("parse"), bt)
    }

    /// The state the kernel exits with (its last block jumps to exit).
    fn exit_state(a: &Analysis) -> &State {
        let p = a.cfg.preds()[a.cfg.exit][0];
        a.outs[p].as_ref().expect("reachable exit")
    }

    fn exit_val(body: &str, var: &str) -> Val {
        let a = analyze(body, Some(256));
        a.ip.read(exit_state(&a), a.ip.id(var).expect("known variable"))
    }

    fn affine(t: i64, c: i64) -> Option<Form> {
        Some(Form::Affine { t, b: 0, c })
    }

    #[test]
    fn tid_is_divergent_affine() {
        let v = exit_val("int t = threadIdx.x; out[t] = t;", "t");
        assert_eq!(v.u, Uniformity::Divergent);
        assert_eq!(v.form, affine(1, 0));
        assert_eq!(v.iv, Interval::new(0, 255));
    }

    #[test]
    fn affine_arithmetic_composes() {
        let v = exit_val("int t = threadIdx.x; int i = 4 * t + 3; out[i] = 0;", "i");
        assert_eq!(v.form, affine(4, 3));
        assert_eq!(v.iv, Interval::new(3, 1023));
        let g = exit_val(
            "int g = blockIdx.x * blockDim.x + threadIdx.x; out[g] = 0;",
            "g",
        );
        assert_eq!(g.form, Some(Form::Affine { t: 1, b: 256, c: 0 }));
    }

    #[test]
    fn params_are_block_uniform() {
        let v = exit_val("int m = n + 1; out[0] = m;", "m");
        assert_eq!(v.u, Uniformity::BlockUniform);
    }

    #[test]
    fn warp_id_is_warp_uniform() {
        let v = exit_val("int w = threadIdx.x / 32; out[w] = 0;", "w");
        assert_eq!(v.u, Uniformity::WarpUniform);
        assert_eq!(v.iv, Interval::new(0, 7));
        let v = exit_val("int w = threadIdx.x >> 5; out[w] = 0;", "w");
        assert_eq!(v.u, Uniformity::WarpUniform);
    }

    #[test]
    fn modulo_and_mask_become_mod_forms() {
        let m64 = Some(Form::Mod {
            a: 1,
            b: 0,
            m: 64,
            off: 0,
        });
        let v = exit_val("int t = threadIdx.x; int i = t % 64; out[i] = 0;", "i");
        assert_eq!((v.form, v.iv), (m64, Interval::new(0, 63)));
        let v = exit_val(
            "int t = threadIdx.x; int i = (t & 63) + 32; out[i] = 0;",
            "i",
        );
        assert_eq!(
            v.form,
            Some(Form::Mod {
                a: 1,
                b: 0,
                m: 64,
                off: 32
            })
        );
    }

    #[test]
    fn uniform_loop_counter_stays_uniform() {
        let a = analyze(
            "int acc = 0; for (int i = 0; i < n; i += 1) { acc = acc + 1; } out[0] = acc;",
            None,
        );
        let acc = a.ip.read(exit_state(&a), a.ip.id("acc").unwrap());
        assert_eq!(acc.u, Uniformity::BlockUniform);
        assert_eq!(acc.iv.lo, 0);
    }

    #[test]
    fn divergent_branch_poisons_merged_value() {
        // Both arms store a block-uniform *unknown* value, but which arm ran
        // depends on the thread: x is divergent.
        let v = exit_val(
            "int t = threadIdx.x; int x = 0; if (t < 16) { x = n; } else { x = n; } out[0] = x;",
            "x",
        );
        assert_eq!(v.u, Uniformity::Divergent);
    }

    #[test]
    fn equal_concrete_values_survive_divergent_merge() {
        let v = exit_val(
            "int t = threadIdx.x; int x = 0; if (t < 16) { x = 5; } else { x = 5; } out[0] = x;",
            "x",
        );
        assert_eq!(v.form, affine(0, 5));
        assert_eq!(v.u, Uniformity::BlockUniform);
    }

    #[test]
    fn loop_counter_stays_uniform_across_divergent_if() {
        // k is stepped outside the divergent branch, so the join after the
        // `if` must not poison it — reduction-shaped kernels put barriers
        // under loop conditions exactly like this.
        let v = exit_val(
            "int k = 0; int t = threadIdx.x; \
             for (k = 0; k < 4; k = k + 1) { if (t < 16) { out[k] = 1; } } \
             out[0] = k;",
            "k",
        );
        assert_eq!(v.u, Uniformity::BlockUniform);
        assert_eq!(v.iv.lo, 4, "the exit edge refines the counter");
    }

    #[test]
    fn variable_assigned_under_divergent_if_diverges_at_join() {
        let v = exit_val(
            "int t = threadIdx.x; int x = n; if (t < 16) { x = n + 1; } out[0] = x;",
            "x",
        );
        assert_eq!(v.u, Uniformity::Divergent);
    }

    #[test]
    fn address_taken_scalars_are_never_tracked() {
        // `x` is written through a pointer inside the divergent branch; the
        // interpreter cannot see that write, so it never trusts `x` — not
        // even right after a direct assignment.
        let v = exit_val(
            "int t = threadIdx.x; int x = 0; int* p = &x; \
             if (t < 16) { *p = 1; } out[0] = x;",
            "x",
        );
        assert_eq!(v, Val::divergent());
        let v = exit_val("int x = 0; int* p = &x; x = 5; *p = 6; out[0] = x;", "x");
        assert_eq!(v, Val::divergent());
    }

    #[test]
    fn loop_variant_affine_widens_to_unknown() {
        let v = exit_val(
            "int t = threadIdx.x; int x = t; for (int i = 0; i < n; i += 1) { x = x + t; } out[0] = x;",
            "x",
        );
        assert_eq!(v.form, None);
        assert_eq!(v.u, Uniformity::Divergent);
        assert_eq!(v.iv, Interval::new(0, i64::MAX));
    }

    #[test]
    fn ballot_is_warp_uniform() {
        let v = exit_val(
            "int t = threadIdx.x; int v = __ballot(t < 7); out[0] = v;",
            "v",
        );
        assert_eq!(v.u, Uniformity::WarpUniform);
    }

    #[test]
    fn loads_are_divergent() {
        let v = exit_val("int v = out[0]; out[1] = v;", "v");
        assert_eq!(v, Val::divergent());
    }

    #[test]
    fn ternary_arms_run_on_separate_states() {
        // Every thread takes the first arm; evaluating both arms in sequence
        // on one state would leave `j == 100`.
        let v = exit_val(
            "int j = 0; int c = (threadIdx.x < 1024) ? (j = 5) : (j = 100); out[j] = c;",
            "j",
        );
        assert_eq!((v.form, v.iv), (None, Interval::new(5, 100)));
        assert_eq!(v.u, Uniformity::Divergent);
        // A constant condition picks its arm exactly.
        let v = exit_val("int c = (4 > 3) ? 7 : threadIdx.x; out[c] = c;", "c");
        assert_eq!(v.form, affine(0, 7));
    }

    #[test]
    fn branch_edges_refine_and_kill() {
        // `j` is clamped into [0, 63] on every path; the `t > 300` edge is
        // dead at 256 threads, so `y` keeps its entry value.
        let a = analyze(
            "int t = threadIdx.x; int j = t + 9; if (j > 63) { j = 63; } \
             int y = 1; if (t > 300) { y = 2; } out[j] = y;",
            Some(256),
        );
        let st = exit_state(&a);
        assert_eq!(
            a.ip.read(st, a.ip.id("j").unwrap()).iv,
            Interval::new(9, 63)
        );
        assert_eq!(a.ip.read(st, a.ip.id("y").unwrap()).form, affine(0, 1));
    }

    #[test]
    fn join_is_revisited_when_a_separating_condition_turns_divergent() {
        // In the first iteration `c` is the constant 0, so the `if` looks
        // uniform; from the second on it holds the thread id. Both arms
        // overwrite `c`, so neither arm's exit changes when that happens: only
        // re-queuing the join on the condition's change makes `x` divergent.
        let v = exit_val(
            "int x = 0; int c = 0; for (int i = 0; i < n; i += 1) { \
             if (c * 2 < 5) { c = 0; x = 1; } else { c = 0; x = 0; } \
             c = threadIdx.x; } out[0] = x;",
            "x",
        );
        assert_eq!(v.u, Uniformity::Divergent);
    }

    #[test]
    fn conditions_solve_to_thread_sets() {
        let a = analyze("int t = threadIdx.x; out[t] = t;", Some(128));
        let st = exit_state(&a);
        let set = |e: &str| a.ip.thread_set(&parse_expr(e).unwrap(), st, 128);
        assert_eq!(set("t < 64"), Some(IntervalSet::range(0, 64, 128)));
        assert_eq!(set("!(t < 64)"), Some(IntervalSet::range(64, 128, 128)));
        assert_eq!(set("t == 0"), Some(IntervalSet::point(0, 128)));
        assert_eq!(
            set("t >= 32 && t < 96"),
            Some(IntervalSet::range(32, 96, 128))
        );
        // 128 - t > 64  ⇔  t < 64
        assert_eq!(set("128 - t > 64"), Some(IntervalSet::range(0, 64, 128)));
        // Modular guards have no closed interval form but are solved
        // pointwise: `t % 2 == 0` is the even threads.
        let evens = set("t % 2 == 0").expect("pointwise solve");
        assert_eq!(evens.count(), 64);
        assert!(evens.contains(0) && !evens.contains(1) && evens.contains(126));
        // The fused-kernel remap shape: `(t % 64) < 32` selects the low
        // half of each 64-thread partition.
        assert_eq!(
            set("(t % 64) < 32"),
            Some(IntervalSet::range(0, 32, 128).union(&IntervalSet::range(64, 96, 128)))
        );
        // Data-dependent and block-dependent guards stay unsolved.
        assert_eq!(set("out[t] > 0"), None);
        assert_eq!(set("blockIdx.x * 128 + t < 64"), None);
    }

    #[test]
    fn interval_arithmetic_saturates() {
        let a = Interval::new(0, i64::MAX);
        let b = Interval::point(2);
        assert_eq!(a.mul(&b), Interval::new(0, i64::MAX));
        assert_eq!(
            Interval::new(-3, 5).mul(&Interval::point(-2)),
            Interval::new(-10, 6)
        );
        assert_eq!(
            Interval::new(0, 100).rem(&Interval::point(8)),
            Interval::new(0, 7)
        );
        assert_eq!(
            Interval::new(10, 100).div(&Interval::point(4)),
            Interval::new(2, 25)
        );
    }
}
