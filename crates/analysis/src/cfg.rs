//! AST → control-flow-graph lowering for the fusion-safety lints.
//!
//! Every `__syncthreads()` / `bar.sync` lands in a basic block of its own, so
//! "barrier-delimited phase" questions become plain graph reachability with
//! barrier blocks removed. A virtual exit block post-dominates everything,
//! which makes the control-dependence computation (used by the
//! barrier-divergence lint and the per-block thread-set refinement) the
//! textbook one: `N` is control-dependent on branch edge `B→S` iff `N`
//! post-dominates `S` but not `B`.

use std::collections::HashMap;

use cuda_frontend::ast::{Block, Expr, Function, Stmt, VarDecl};
use cuda_frontend::diag::preorder_stmts;

/// A basic-block id.
pub type BlockId = usize;

/// One statement placed into a basic block.
#[derive(Debug, Clone)]
pub struct CStmt {
    /// The lowered statement payload.
    pub kind: CStmtKind,
    /// Pre-order index of the originating AST statement, for span lookup.
    pub span_idx: Option<usize>,
}

/// The payload of a [`CStmt`].
#[derive(Debug, Clone)]
pub enum CStmtKind {
    /// A variable declaration (its initializer is evaluated here).
    Decl(VarDecl),
    /// An expression evaluated for its side effects.
    Expr(Expr),
    /// `__syncthreads()` — all block threads participate.
    Sync,
    /// `bar.sync id, count` — a named partial barrier.
    BarSync {
        /// Barrier id (0-15).
        id: u32,
        /// Declared participant count.
        count: u32,
    },
}

/// Block terminator.
#[derive(Debug, Clone)]
pub enum Term {
    /// Unconditional edge.
    Jump(BlockId),
    /// Two-way branch on `cond`.
    Branch {
        /// The branch condition.
        cond: Expr,
        /// Target when `cond` is nonzero.
        t: BlockId,
        /// Target when `cond` is zero.
        f: BlockId,
        /// Span of the statement that produced the branch.
        span_idx: Option<usize>,
    },
    /// The virtual exit (no successors).
    Exit,
}

impl Term {
    /// Successor block ids.
    pub fn succs(&self) -> Vec<BlockId> {
        match self {
            Term::Jump(t) => vec![*t],
            Term::Branch { t, f, .. } => {
                if t == f {
                    vec![*t]
                } else {
                    vec![*t, *f]
                }
            }
            Term::Exit => vec![],
        }
    }
}

/// A basic block: straight-line statements plus a terminator.
#[derive(Debug, Clone)]
pub struct BasicBlock {
    /// The statements, in order.
    pub stmts: Vec<CStmt>,
    /// The terminator.
    pub term: Term,
}

impl BasicBlock {
    /// True when this block is a dedicated barrier block.
    pub fn is_barrier(&self) -> bool {
        matches!(
            self.stmts.first().map(|s| &s.kind),
            Some(CStmtKind::Sync | CStmtKind::BarSync { .. })
        )
    }
}

/// The per-kernel CFG.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Blocks indexed by [`BlockId`]; block 0 is the entry.
    pub blocks: Vec<BasicBlock>,
    /// The virtual exit block.
    pub exit: BlockId,
}

/// A branch condition a block's execution depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlDep {
    /// The branch block whose condition decides execution.
    pub branch: BlockId,
    /// The polarity: execution requires the condition to evaluate to this.
    pub polarity: bool,
}

impl Cfg {
    /// Lowers a function body to a CFG. `Stmt` nodes are mapped to their
    /// pre-order index ([`cuda_frontend::diag::preorder_stmts`] order) so
    /// diagnostics can be resolved against a
    /// [`cuda_frontend::diag::SpanTable`].
    pub fn build(f: &Function) -> Cfg {
        let mut span_of: HashMap<usize, usize> = HashMap::new();
        let mut idx = 0usize;
        preorder_stmts(f, &mut |s| {
            span_of.insert(s as *const Stmt as usize, idx);
            idx += 1;
        });
        let mut b = Builder {
            blocks: vec![BuildBlock::default(), BuildBlock::default()],
            cur: 0,
            exit: 1,
            labels: HashMap::new(),
            break_stack: Vec::new(),
            continue_stack: Vec::new(),
            span_of,
        };
        b.blocks[b.exit].term = Some(Term::Exit);
        b.lower_block(&f.body);
        let exit = b.exit;
        b.terminate(Term::Jump(exit));
        let blocks = b
            .blocks
            .into_iter()
            .map(|bb| BasicBlock {
                stmts: bb.stmts,
                term: bb.term.unwrap_or(Term::Exit),
            })
            .collect();
        Cfg { blocks, exit }
    }

    /// Predecessors of every block.
    pub fn preds(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for (b, bb) in self.blocks.iter().enumerate() {
            for s in bb.term.succs() {
                preds[s].push(b);
            }
        }
        preds
    }

    /// Post-dominator sets as bit matrices: `pdom[b][n]` is true when `n`
    /// post-dominates `b`. Blocks that cannot reach the exit (infinite
    /// loops) keep the conservative full set.
    pub fn postdominators(&self) -> Vec<Vec<bool>> {
        let n = self.blocks.len();
        let mut pdom = vec![vec![true; n]; n];
        pdom[self.exit] = vec![false; n];
        pdom[self.exit][self.exit] = true;
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                if b == self.exit {
                    continue;
                }
                let succs = self.blocks[b].term.succs();
                let mut new = vec![succs.is_empty(); n];
                if let Some((&first, rest)) = succs.split_first() {
                    new.copy_from_slice(&pdom[first]);
                    for &s in rest {
                        for (nv, sv) in new.iter_mut().zip(&pdom[s]) {
                            *nv = *nv && *sv;
                        }
                    }
                }
                new[b] = true;
                if new != pdom[b] {
                    pdom[b] = new;
                    changed = true;
                }
            }
        }
        pdom
    }

    /// The transitively-closed control dependences of every block: the set
    /// of `(branch, polarity)` conditions whose outcomes decide whether the
    /// block executes.
    pub fn control_deps(&self) -> Vec<Vec<ControlDep>> {
        let n = self.blocks.len();
        let pdom = self.postdominators();
        let mut deps: Vec<Vec<ControlDep>> = vec![Vec::new(); n];
        for (b, bb) in self.blocks.iter().enumerate() {
            if let Term::Branch { t, f, .. } = bb.term {
                if t == f {
                    continue;
                }
                for (node, polarity) in [(t, true), (f, false)] {
                    for dep in 0..n {
                        if pdom[node][dep] && !pdom[b][dep] {
                            let cd = ControlDep {
                                branch: b,
                                polarity,
                            };
                            if !deps[dep].contains(&cd) {
                                deps[dep].push(cd);
                            }
                        }
                    }
                }
            }
        }
        // Transitive closure: a block also depends on whatever decides the
        // branches it depends on.
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..n {
                let mut add = Vec::new();
                for cd in &deps[b] {
                    for inherited in &deps[cd.branch] {
                        if !deps[b].contains(inherited) && !add.contains(inherited) {
                            add.push(*inherited);
                        }
                    }
                }
                if !add.is_empty() {
                    deps[b].extend(add);
                    changed = true;
                }
            }
        }
        deps
    }

    /// Which block pairs may run in one barrier-delimited phase:
    /// `conc[x][y]` is true when some phase start (the entry, or a
    /// barrier's successor) reaches both without crossing another barrier.
    /// The barrier block `ignore`, if any, is treated as a plain block.
    pub fn phase_concurrency(&self, ignore: Option<BlockId>) -> Vec<Vec<bool>> {
        let n = self.blocks.len();
        let is_bar = |b: BlockId| self.blocks[b].is_barrier() && Some(b) != ignore;
        let mut starts: Vec<BlockId> = vec![0];
        for b in (0..n).filter(|&b| is_bar(b)) {
            starts.extend(self.blocks[b].term.succs());
        }
        starts.sort_unstable();
        starts.dedup();
        let mut conc = vec![vec![false; n]; n];
        for &p in &starts {
            let mut seen = vec![false; n];
            let mut stack = vec![p];
            seen[p] = true;
            while let Some(b) = stack.pop() {
                if is_bar(b) && b != p {
                    continue; // the phase ends at the next barrier
                }
                for s in self.blocks[b].term.succs() {
                    if !seen[s] {
                        seen[s] = true;
                        stack.push(s);
                    }
                }
            }
            let phase: Vec<BlockId> = (0..n).filter(|&b| seen[b]).collect();
            for &x in &phase {
                for &y in &phase {
                    conc[x][y] = true;
                }
            }
        }
        conc
    }
}

#[derive(Default)]
struct BuildBlock {
    stmts: Vec<CStmt>,
    term: Option<Term>,
}

struct Builder {
    blocks: Vec<BuildBlock>,
    cur: BlockId,
    exit: BlockId,
    labels: HashMap<String, BlockId>,
    break_stack: Vec<BlockId>,
    continue_stack: Vec<BlockId>,
    span_of: HashMap<usize, usize>,
}

impl Builder {
    fn new_block(&mut self) -> BlockId {
        self.blocks.push(BuildBlock::default());
        self.blocks.len() - 1
    }

    fn span_idx(&self, s: &Stmt) -> Option<usize> {
        self.span_of.get(&(s as *const Stmt as usize)).copied()
    }

    fn push(&mut self, kind: CStmtKind, span_idx: Option<usize>) {
        self.blocks[self.cur].stmts.push(CStmt { kind, span_idx });
    }

    /// Terminates the current block (no-op if a `break`/`goto` already did)
    /// — callers then switch `cur` to a fresh block.
    fn terminate(&mut self, t: Term) {
        let b = &mut self.blocks[self.cur];
        if b.term.is_none() {
            b.term = Some(t);
        }
    }

    fn label_block(&mut self, name: &str) -> BlockId {
        if let Some(&b) = self.labels.get(name) {
            return b;
        }
        let b = self.new_block();
        self.labels.insert(name.to_owned(), b);
        b
    }

    fn lower_block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.lower_stmt(s);
        }
    }

    fn lower_stmt(&mut self, s: &Stmt) {
        let span = self.span_idx(s);
        match s {
            Stmt::Decl(d) => self.push(CStmtKind::Decl(d.clone()), span),
            Stmt::Expr(e) => self.push(CStmtKind::Expr(e.clone()), span),
            Stmt::SyncThreads => self.lower_barrier(CStmtKind::Sync, span),
            Stmt::BarSync { id, count } => self.lower_barrier(
                CStmtKind::BarSync {
                    id: *id,
                    count: *count,
                },
                span,
            ),
            Stmt::If(cond, then_b, else_b) => {
                let then_e = self.new_block();
                let after = self.new_block();
                let else_e = else_b.as_ref().map(|_| self.new_block());
                self.terminate(Term::Branch {
                    cond: cond.clone(),
                    t: then_e,
                    f: else_e.unwrap_or(after),
                    span_idx: span,
                });
                self.cur = then_e;
                self.lower_block(then_b);
                self.terminate(Term::Jump(after));
                if let (Some(else_e), Some(else_b)) = (else_e, else_b) {
                    self.cur = else_e;
                    self.lower_block(else_b);
                    self.terminate(Term::Jump(after));
                }
                self.cur = after;
            }
            Stmt::While(cond, body) => {
                let header = self.new_block();
                let body_e = self.new_block();
                let after = self.new_block();
                self.terminate(Term::Jump(header));
                self.cur = header;
                self.terminate(Term::Branch {
                    cond: cond.clone(),
                    t: body_e,
                    f: after,
                    span_idx: span,
                });
                self.break_stack.push(after);
                self.continue_stack.push(header);
                self.cur = body_e;
                self.lower_block(body);
                self.terminate(Term::Jump(header));
                self.break_stack.pop();
                self.continue_stack.pop();
                self.cur = after;
            }
            Stmt::DoWhile(body, cond) => {
                let body_e = self.new_block();
                let latch = self.new_block();
                let after = self.new_block();
                self.terminate(Term::Jump(body_e));
                self.break_stack.push(after);
                self.continue_stack.push(latch);
                self.cur = body_e;
                self.lower_block(body);
                self.terminate(Term::Jump(latch));
                self.break_stack.pop();
                self.continue_stack.pop();
                self.cur = latch;
                self.terminate(Term::Branch {
                    cond: cond.clone(),
                    t: body_e,
                    f: after,
                    span_idx: span,
                });
                self.cur = after;
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(init) = init {
                    self.lower_stmt(init);
                }
                let header = self.new_block();
                let body_e = self.new_block();
                let step_b = self.new_block();
                let after = self.new_block();
                self.terminate(Term::Jump(header));
                self.cur = header;
                match cond {
                    Some(cond) => self.terminate(Term::Branch {
                        cond: cond.clone(),
                        t: body_e,
                        f: after,
                        span_idx: span,
                    }),
                    None => self.terminate(Term::Jump(body_e)),
                }
                self.break_stack.push(after);
                self.continue_stack.push(step_b);
                self.cur = body_e;
                self.lower_block(body);
                self.terminate(Term::Jump(step_b));
                self.break_stack.pop();
                self.continue_stack.pop();
                self.cur = step_b;
                if let Some(step) = step {
                    self.push(CStmtKind::Expr(step.clone()), span);
                }
                self.terminate(Term::Jump(header));
                self.cur = after;
            }
            Stmt::Switch { scrutinee, cases } => {
                let after = self.new_block();
                let body_blocks: Vec<BlockId> = cases.iter().map(|_| self.new_block()).collect();
                let default_target = cases
                    .iter()
                    .position(|c| c.value.is_none())
                    .map(|i| body_blocks[i])
                    .unwrap_or(after);
                // Dispatch: a chain of equality tests in label order.
                let value_cases: Vec<(usize, i64)> = cases
                    .iter()
                    .enumerate()
                    .filter_map(|(i, c)| c.value.map(|v| (i, v)))
                    .collect();
                for (ci, &(i, v)) in value_cases.iter().enumerate() {
                    let next = if ci + 1 < value_cases.len() {
                        self.new_block()
                    } else {
                        default_target
                    };
                    let cond = Expr::bin(
                        cuda_frontend::ast::BinOp::Eq,
                        scrutinee.clone(),
                        Expr::int(v),
                    );
                    self.terminate(Term::Branch {
                        cond,
                        t: body_blocks[i],
                        f: next,
                        span_idx: span,
                    });
                    self.cur = next;
                }
                if value_cases.is_empty() {
                    self.terminate(Term::Jump(default_target));
                }
                // Bodies fall through to the next case (C semantics).
                self.break_stack.push(after);
                for (i, case) in cases.iter().enumerate() {
                    self.cur = body_blocks[i];
                    for cs in &case.body {
                        self.lower_stmt(cs);
                    }
                    let next = body_blocks.get(i + 1).copied().unwrap_or(after);
                    self.terminate(Term::Jump(next));
                }
                self.break_stack.pop();
                self.cur = after;
            }
            Stmt::Return(_) => {
                let exit = self.exit;
                self.terminate(Term::Jump(exit));
                self.cur = self.new_block();
            }
            Stmt::Break => {
                let target = self.break_stack.last().copied().unwrap_or(self.exit);
                self.terminate(Term::Jump(target));
                self.cur = self.new_block();
            }
            Stmt::Continue => {
                let target = self.continue_stack.last().copied().unwrap_or(self.exit);
                self.terminate(Term::Jump(target));
                self.cur = self.new_block();
            }
            Stmt::Goto(label) => {
                let target = self.label_block(label);
                self.terminate(Term::Jump(target));
                self.cur = self.new_block();
            }
            Stmt::Label(label) => {
                let b = self.label_block(label);
                self.terminate(Term::Jump(b));
                self.cur = b;
            }
            Stmt::Block(b) => self.lower_block(b),
        }
    }

    fn lower_barrier(&mut self, kind: CStmtKind, span: Option<usize>) {
        let bar = self.new_block();
        let after = self.new_block();
        self.terminate(Term::Jump(bar));
        self.cur = bar;
        self.push(kind, span);
        self.terminate(Term::Jump(after));
        self.cur = after;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_frontend::parse_kernel;

    fn cfg_of(body: &str) -> Cfg {
        let src = format!("__global__ void k(int* out, int n) {{ {body} }}");
        Cfg::build(&parse_kernel(&src).expect("parse"))
    }

    #[test]
    fn straight_line_is_two_blocks() {
        let c = cfg_of("int a = 1; out[0] = a;");
        assert_eq!(c.blocks[0].stmts.len(), 2);
        assert!(matches!(c.blocks[0].term, Term::Jump(t) if t == c.exit));
    }

    #[test]
    fn barriers_get_their_own_blocks() {
        let c = cfg_of("out[0] = 1; __syncthreads(); out[1] = 2;");
        let barriers: Vec<usize> = (0..c.blocks.len())
            .filter(|&b| c.blocks[b].is_barrier())
            .collect();
        assert_eq!(barriers.len(), 1);
        assert_eq!(c.blocks[barriers[0]].stmts.len(), 1);
    }

    #[test]
    fn if_branch_control_dependence() {
        let c = cfg_of("if (n > 0) { out[0] = 1; } out[1] = 2;");
        let deps = c.control_deps();
        // The then-block depends on the branch; the after-block does not.
        let then_block = match c.blocks[0].term {
            Term::Branch { t, .. } => t,
            _ => panic!("expected branch"),
        };
        assert_eq!(deps[then_block].len(), 1);
        assert!(deps[then_block][0].polarity);
        let after = match c.blocks[then_block].term {
            Term::Jump(a) => a,
            _ => panic!("expected jump"),
        };
        assert!(deps[after].is_empty());
    }

    #[test]
    fn barrier_inside_loop_depends_on_loop_condition() {
        let c = cfg_of("for (int i = 0; i < n; i += 1) { __syncthreads(); }");
        let deps = c.control_deps();
        let bar = (0..c.blocks.len())
            .find(|&b| c.blocks[b].is_barrier())
            .expect("barrier block");
        assert!(
            deps[bar].iter().any(|d| d.polarity),
            "barrier must depend on the loop condition"
        );
    }

    #[test]
    fn phases_split_at_barriers() {
        let c = cfg_of("out[0] = 1; __syncthreads(); out[1] = 2;");
        let bar = (0..c.blocks.len())
            .find(|&b| c.blocks[b].is_barrier())
            .expect("barrier block");
        let after = c.blocks[bar].term.succs()[0];
        let conc = c.phase_concurrency(None);
        assert!(conc[0][0] && conc[after][after]);
        assert!(!conc[0][after], "the barrier separates the two phases");
        assert!(
            c.phase_concurrency(Some(bar))[0][after],
            "ignoring it merges them"
        );
    }

    #[test]
    fn goto_forward_and_label() {
        let c = cfg_of("if (n < 0) goto end; out[0] = 1; end: out[1] = 2;");
        // All blocks must have terminators and the label block is shared.
        assert!(c
            .blocks
            .iter()
            .all(|b| !b.term.succs().contains(&usize::MAX)));
    }

    #[test]
    fn switch_lowers_to_dispatch_chain() {
        let c = cfg_of("switch (n) { case 0: out[0] = 1; break; default: out[0] = 2; }");
        let branches = c
            .blocks
            .iter()
            .filter(|b| matches!(b.term, Term::Branch { .. }))
            .count();
        assert_eq!(branches, 1);
    }
}
