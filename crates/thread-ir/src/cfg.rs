//! Control-flow graph over the flat IR, used by the optimizer.
//!
//! The flat instruction stream is partitioned into basic blocks whose
//! terminators reference *block ids*; transforms (hoisting, deletion,
//! preheader insertion) then work structurally, and [`Cfg::flatten`]
//! re-linearizes with correct instruction-index targets.

use crate::ir::{Inst, KernelIr};

/// A basic-block id.
pub type BlockId = usize;

/// Block terminator (targets are block ids).
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// Conditional branch: to `taken` when (`cond` == 0) == `if_zero`, else
    /// fall through to `fallthrough`.
    Bra {
        /// Condition register.
        cond: u32,
        /// Branch-if-zero flag.
        if_zero: bool,
        /// Taken target.
        taken: BlockId,
        /// Not-taken target.
        fallthrough: BlockId,
    },
    /// Unconditional jump.
    Jmp(BlockId),
    /// Thread exit.
    Ret,
}

impl Term {
    /// Successor block ids, the fallthrough first.
    pub fn succs(&self) -> impl Iterator<Item = BlockId> {
        match *self {
            Term::Bra {
                taken, fallthrough, ..
            } => [Some(fallthrough), Some(taken)],
            Term::Jmp(t) => [Some(t), None],
            Term::Ret => [None, None],
        }
        .into_iter()
        .flatten()
    }

    fn retarget(&mut self, from: BlockId, to: BlockId) {
        match self {
            Term::Bra {
                taken, fallthrough, ..
            } => {
                if *taken == from {
                    *taken = to;
                }
                if *fallthrough == from {
                    *fallthrough = to;
                }
            }
            Term::Jmp(t) => {
                if *t == from {
                    *t = to;
                }
            }
            Term::Ret => {}
        }
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Bb {
    /// Non-terminator instructions.
    pub insts: Vec<Inst>,
    /// The terminator.
    pub term: Term,
}

/// A control-flow graph with an explicit layout order (block 0 is entry;
/// [`Cfg::flatten`] emits blocks in `layout` order).
#[derive(Debug, Clone)]
pub struct Cfg {
    /// The blocks, indexed by [`BlockId`].
    pub blocks: Vec<Bb>,
    /// Linearization order.
    pub layout: Vec<BlockId>,
}

/// The first PC of every basic block of `insts`, in order, then
/// `insts.len()`. Entry, branch targets, and whatever follows a terminator
/// lead a block.
pub(crate) fn block_starts(insts: &[Inst]) -> Vec<usize> {
    let n = insts.len();
    let mut leader = vec![false; n + 1];
    leader[0] = true;
    for (pc, inst) in insts.iter().enumerate() {
        if let Inst::Bra { target, .. } | Inst::Jmp { target } = inst {
            leader[*target] = true;
        }
        leader[pc + 1] |= matches!(inst, Inst::Bra { .. } | Inst::Jmp { .. } | Inst::Ret);
    }
    leader[n] = true;
    (0..=n).filter(|&pc| leader[pc]).collect()
}

impl Cfg {
    /// Builds the CFG of a kernel's instruction stream.
    ///
    /// # Panics
    ///
    /// Panics if the stream does not end in a terminator (the verifier
    /// guarantees it does).
    pub fn build(kernel: &KernelIr) -> Cfg {
        let insts = &kernel.insts;
        let starts = block_starts(insts);
        let block_of_pc = |pc: usize| starts.partition_point(|&s| s <= pc) - 1;
        let mut blocks = Vec::with_capacity(starts.len() - 1);
        for (bi, w) in starts.windows(2).enumerate() {
            let (start, end) = (w[0], w[1]);
            let last = end - 1;
            let (body_end, term) = match &insts[last] {
                Inst::Bra {
                    cond,
                    if_zero,
                    target,
                } => (
                    last,
                    Term::Bra {
                        cond: *cond,
                        if_zero: *if_zero,
                        taken: block_of_pc(*target),
                        // Fallthrough: the next block in program order.
                        fallthrough: bi + 1,
                    },
                ),
                Inst::Jmp { target } => (last, Term::Jmp(block_of_pc(*target))),
                Inst::Ret => (last, Term::Ret),
                // Fallthrough block (ends because the next pc is a leader).
                _ => (end, Term::Jmp(bi + 1)),
            };
            blocks.push(Bb {
                insts: insts[start..body_end].to_vec(),
                term,
            });
        }
        let layout = (0..blocks.len()).collect();
        Cfg { blocks, layout }
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

    /// Immediate-style dominator *sets*: `dom[b]` contains every block that
    /// dominates `b` (including itself). Unreachable blocks dominate
    /// nothing and report an empty set.
    pub fn dominators(&self) -> Vec<Vec<bool>> {
        let n = self.blocks.len();
        let preds = self.preds();
        let mut dom = vec![vec![true; n]; n];
        dom[0] = vec![false; n];
        dom[0][0] = true;
        let mut reachable = vec![false; n];
        // Mark reachability.
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if reachable[b] {
                continue;
            }
            reachable[b] = true;
            stack.extend(self.blocks[b].term.succs());
        }
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..n {
                if !reachable[b] {
                    continue;
                }
                let mut new: Option<Vec<bool>> = None;
                for &p in &preds[b] {
                    if !reachable[p] {
                        continue;
                    }
                    match &mut new {
                        None => new = Some(dom[p].clone()),
                        Some(acc) => {
                            for (a, d) in acc.iter_mut().zip(&dom[p]) {
                                *a = *a && *d;
                            }
                        }
                    }
                }
                let mut new = new.unwrap_or_else(|| vec![false; n]);
                new[b] = true;
                if new != dom[b] {
                    dom[b] = new;
                    changed = true;
                }
            }
        }
        for b in 0..n {
            if !reachable[b] {
                dom[b] = vec![false; n];
            }
        }
        dom
    }

    /// Natural loops: `(header, body)` pairs where `body` contains every
    /// block of the loop including the header. Nested loops appear as
    /// separate entries; entries are deduplicated by header (merged bodies).
    pub fn natural_loops(&self) -> Vec<(BlockId, Vec<bool>)> {
        let n = self.blocks.len();
        let dom = self.dominators();
        let preds = self.preds();
        let mut loops: Vec<(BlockId, Vec<bool>)> = Vec::new();
        for (b, dom_b) in dom.iter().enumerate() {
            for h in self.blocks[b].term.succs() {
                // Back edge b -> h when h dominates b.
                if !dom_b[h] {
                    continue;
                }
                let mut body = vec![false; n];
                body[h] = true;
                let mut stack = vec![b];
                while let Some(x) = stack.pop() {
                    if body[x] {
                        continue;
                    }
                    body[x] = true;
                    stack.extend(preds[x].iter().copied());
                }
                if let Some(existing) = loops.iter_mut().find(|(eh, _)| *eh == h) {
                    for (e, m) in existing.1.iter_mut().zip(&body) {
                        *e = *e || *m;
                    }
                } else {
                    loops.push((h, body));
                }
            }
        }
        loops
    }

    /// Inserts a preheader before `header`, redirecting every edge from
    /// outside `body` into the header through the new block. Returns the
    /// new block's id.
    pub fn insert_preheader(&mut self, header: BlockId, body: &[bool]) -> BlockId {
        let pre = self.blocks.len();
        self.blocks.push(Bb {
            insts: Vec::new(),
            term: Term::Jmp(header),
        });
        for b in 0..pre {
            // `body` may be shorter than `blocks` when earlier transforms
            // appended blocks after the loop analysis ran.
            let in_body = body.get(b).copied().unwrap_or(false);
            if !in_body {
                let term = &mut self.blocks[b].term;
                term.retarget(header, pre);
            }
        }
        // Place the preheader right before the header in layout.
        let pos = self
            .layout
            .iter()
            .position(|&b| b == header)
            .expect("header must be in layout");
        self.layout.insert(pos, pre);
        pre
    }

    /// Re-linearizes the CFG into a flat instruction stream. Jump
    /// terminators to the next block in layout are elided.
    pub fn flatten(&self) -> Vec<Inst> {
        // First pass: compute start pc of each block (in layout order), as
        // if every terminator were emitted; we elide jumps in a second pass
        // would shift offsets, so instead decide elision *before* computing
        // addresses: a Jmp is elided iff its target is the next block in
        // layout. A Bra needs a following Jmp iff its fallthrough is not
        // next.
        let order = &self.layout;
        let next_in_layout = |i: usize| order.get(i + 1).copied();
        let mut size = vec![0usize; self.blocks.len()];
        for (i, &b) in order.iter().enumerate() {
            let bb = &self.blocks[b];
            let term_size = match &bb.term {
                Term::Ret => 1,
                Term::Jmp(t) => usize::from(next_in_layout(i) != Some(*t)),
                Term::Bra { fallthrough, .. } => {
                    1 + usize::from(next_in_layout(i) != Some(*fallthrough))
                }
            };
            size[b] = bb.insts.len() + term_size;
        }
        let mut start = vec![0usize; self.blocks.len()];
        let mut pc = 0;
        for &b in order {
            start[b] = pc;
            pc += size[b];
        }
        let mut out = Vec::with_capacity(pc);
        for (i, &b) in order.iter().enumerate() {
            let bb = &self.blocks[b];
            out.extend(bb.insts.iter().cloned());
            match &bb.term {
                Term::Ret => out.push(Inst::Ret),
                Term::Jmp(t) => {
                    if next_in_layout(i) != Some(*t) {
                        out.push(Inst::Jmp { target: start[*t] });
                    }
                }
                Term::Bra {
                    cond,
                    if_zero,
                    taken,
                    fallthrough,
                } => {
                    out.push(Inst::Bra {
                        cond: *cond,
                        if_zero: *if_zero,
                        target: start[*taken],
                    });
                    if next_in_layout(i) != Some(*fallthrough) {
                        out.push(Inst::Jmp {
                            target: start[*fallthrough],
                        });
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
    use crate::lower::lower_kernel;
    use cuda_frontend::parse_kernel;

    fn kernel(src: &str) -> KernelIr {
        lower_kernel(&parse_kernel(src).expect("parse")).expect("lower")
    }

    fn rebuild(k: &KernelIr) -> KernelIr {
        let cfg = Cfg::build(k);
        let mut out = k.clone();
        out.insts = cfg.flatten();
        crate::verify::verify(&out).expect("flattened kernel verifies");
        out
    }

    #[test]
    fn straight_line_is_one_block() {
        let k = kernel("__global__ void k(float* p) { p[0] = 1.0f; }");
        let cfg = Cfg::build(&k);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].term, Term::Ret);
    }

    #[test]
    fn loop_creates_back_edge_and_natural_loop() {
        let k = kernel("__global__ void k(int n) { for (int i = 0; i < n; i++) { n += i; } }");
        let cfg = Cfg::build(&k);
        let loops = cfg.natural_loops();
        assert_eq!(loops.len(), 1);
        let (header, body) = &loops[0];
        assert!(body[*header]);
        assert!(body.iter().filter(|&&x| x).count() >= 2);
    }

    #[test]
    fn build_flatten_round_trip_preserves_behavior() {
        let src = "__global__ void k(unsigned int* out, int n) {\
            unsigned int acc = 0u;\
            for (int i = 0; i < n; i++) {\
              if (i % 2 == 0) { acc += i; } else { acc ^= i; }\
            }\
            out[threadIdx.x] = acc;\
          }";
        let k = kernel(src);
        let k2 = rebuild(&k);
        // Execute both on the simulator-independent path: compare by
        // running a tiny interpretation via gpu-sim is not possible here
        // (crate dependency direction), so compare structurally: same
        // number of non-control instructions.
        let count = |k: &KernelIr| k.insts.iter().filter(|i| !i.is_control()).count();
        assert_eq!(count(&k), count(&k2));
    }

    #[test]
    fn dominators_entry_dominates_all() {
        let k = kernel(
            "__global__ void k(int n) { if (n) { n = 1; } else { n = 2; } for (int i = 0; i < n; i++) { } }",
        );
        let cfg = Cfg::build(&k);
        let dom = cfg.dominators();
        for (b, d) in dom.iter().enumerate() {
            if d.iter().any(|&x| x) {
                assert!(d[0], "entry must dominate reachable block {b}");
            }
        }
    }

    #[test]
    fn preheader_redirects_outside_edges() {
        let k = kernel("__global__ void k(int n) { for (int i = 0; i < n; i++) { n += i; } }");
        let mut cfg = Cfg::build(&k);
        let loops = cfg.natural_loops();
        let (header, body) = loops[0].clone();
        let pre = cfg.insert_preheader(header, &body);
        // After insertion, the only out-of-loop predecessor of the header
        // is the preheader.
        let preds = cfg.preds();
        for &p in &preds[header] {
            assert!(
                p == pre || body[p],
                "pred {p} should be preheader or in-loop"
            );
        }
        // Flattening still verifies.
        let mut out = k.clone();
        out.insts = cfg.flatten();
        crate::verify::verify(&out).expect("verifies");
    }

    #[test]
    fn flatten_elides_fallthrough_jumps() {
        let k = kernel("__global__ void k(int n) { if (n) { n = 1; } n = 2; }");
        let flat = rebuild(&k);
        // No Jmp whose target is the immediately following instruction.
        for (pc, inst) in flat.insts.iter().enumerate() {
            if let Inst::Jmp { target } = inst {
                assert_ne!(*target, pc + 1, "useless jump at {pc}");
            }
        }
    }
}
