//! Lowering from the CUDA-dialect AST to the flat SIMT IR.
//!
//! Control flow becomes explicit branches over instruction indices; each
//! thread later executes the stream with its own program counter, so
//! divergence (including the `goto` guards HFuse generates) needs no special
//! handling here.
//!
//! ## Value representation
//!
//! Registers hold raw 64-bit words. 32-bit integers are kept *canonical*:
//! `I32` values are sign-extended, `U32` values zero-extended, and `F32`
//! values live in the low 32 bits. Every producer re-canonicalizes, so
//! consumers can compare 64-bit words directly.

use std::collections::HashMap;

use cuda_frontend::ast::SwitchCase;
use cuda_frontend::ast::{
    const_eval_int, ArrayLen, AssignOp, Axis, BinOp, Block, BuiltinVar, Expr, Function, Stmt, Ty,
    UnOp, VarDecl,
};
use cuda_frontend::typeck::{promote, Intrinsic};
use cuda_frontend::FrontendError;

use crate::ir::{
    AtomOp, BarCount, BinIr, Inst, KernelIr, ParamKind, Reg, ScalarTy, ShflKind, SpecialReg, UnIr,
    VoteKind,
};

/// Lowers a preprocessed kernel to IR, optimizes it, and computes its
/// register pressure.
///
/// # Errors
///
/// Returns [`FrontendError`] for constructs outside the dialect (unknown
/// calls, non-constant array sizes, unsupported lvalues, undefined labels).
pub fn lower_kernel(f: &Function) -> Result<KernelIr, FrontendError> {
    let mut kernel = lower_raw(f)?;
    // `optimize` computes the pressure of the kernel it leaves.
    crate::opt::optimize(&mut kernel);
    Ok(kernel)
}

/// Lowers without running the optimizer (used by the optimizer's own tests
/// and the optimization-ablation benches), and computes the register
/// pressure of the raw lowering.
///
/// # Errors
///
/// Same as [`lower_kernel`].
pub fn lower_kernel_unoptimized(f: &Function) -> Result<KernelIr, FrontendError> {
    let mut kernel = lower_raw(f)?;
    kernel.pressure = crate::liveness::register_pressure(&kernel);
    Ok(kernel)
}

/// Lowers and verifies the kernel, leaving its pressure unset (0).
fn lower_raw(f: &Function) -> Result<KernelIr, FrontendError> {
    let mut lw = Lowerer::new(&f.name);
    for (i, p) in f.params.iter().enumerate() {
        let reg = lw.fresh();
        lw.emit(Inst::LdParam {
            dst: reg,
            index: i as u32,
        });
        lw.params.push(match &p.ty {
            Ty::Ptr(_) => ParamKind::Pointer,
            t => ParamKind::Scalar(scalar_of(t)),
        });
        lw.declare(&p.name, Binding::Scalar(reg, p.ty.clone()));
    }
    lw.materialize_constants(&f.body);
    lw.block(&f.body)?;
    lw.emit(Inst::Ret);
    lw.finish()
}

/// What a name is bound to.
#[derive(Debug, Clone)]
enum Binding {
    /// Scalar (or pointer-valued) variable living in a register.
    Scalar(Reg, Ty),
    /// `__shared__ T name[N]` at a static shared offset.
    SharedArray { offset: u32, elem: Ty },
    /// `extern __shared__ T name[]` — the dynamic region.
    DynSharedArray { elem: Ty },
    /// Per-thread local array.
    LocalArray { offset: u32, elem: Ty },
}

/// An assignable location.
enum Place {
    Reg(Reg, Ty),
    Mem { addr: Reg, ty: Ty },
}

struct LoopCtx {
    /// `None` for `switch` frames: `continue` skips them and binds to the
    /// innermost enclosing loop.
    continue_label: Option<LabelId>,
    break_label: LabelId,
}

type LabelId = usize;

struct Lowerer {
    name: String,
    insts: Vec<Inst>,
    next_reg: Reg,
    scopes: Vec<HashMap<String, Binding>>,
    labels: Vec<Option<usize>>,
    user_labels: HashMap<String, LabelId>,
    loops: Vec<LoopCtx>,
    shared_offset: u32,
    local_offset: u32,
    uses_dynamic_shared: bool,
    params: Vec<ParamKind>,
    /// Function-entry constant pool: literals and builtin reads are
    /// materialized once (their definitions dominate every use).
    const_pool: HashMap<ConstKey, Reg>,
    /// Set once body lowering starts: new constants can no longer join the
    /// pool (a definition emitted mid-body might not dominate later uses).
    pool_frozen: bool,
}

/// Key of a pooled entry-block constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    Imm(u64),
    Special(SpecialReg),
}

impl Lowerer {
    fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            insts: Vec::new(),
            next_reg: 0,
            scopes: vec![HashMap::new()],
            labels: Vec::new(),
            user_labels: HashMap::new(),
            loops: Vec::new(),
            shared_offset: 0,
            local_offset: 0,
            uses_dynamic_shared: false,
            params: Vec::new(),
            const_pool: HashMap::new(),
            pool_frozen: false,
        }
    }

    /// Emits (or reuses) a pooled immediate. After the entry block, misses
    /// emit an unpooled definition (it might not dominate later uses).
    fn imm(&mut self, bits: u64) -> Reg {
        if let Some(&r) = self.const_pool.get(&ConstKey::Imm(bits)) {
            return r;
        }
        let dst = self.fresh();
        self.emit(Inst::Imm { dst, value: bits });
        if !self.pool_frozen {
            self.const_pool.insert(ConstKey::Imm(bits), dst);
        }
        dst
    }

    /// Emits (or reuses) a pooled special-register read (same freezing rule
    /// as [`Self::imm`]).
    fn special(&mut self, reg: SpecialReg) -> Reg {
        if let Some(&r) = self.const_pool.get(&ConstKey::Special(reg)) {
            return r;
        }
        let dst = self.fresh();
        self.emit(Inst::Special { dst, reg });
        if !self.pool_frozen {
            self.const_pool.insert(ConstKey::Special(reg), dst);
        }
        dst
    }

    /// Pre-materializes every literal and builtin the body mentions, so the
    /// pooled definitions dominate all uses regardless of control flow.
    fn materialize_constants(&mut self, body: &Block) {
        let mut clone = body.clone();
        let mut keys: Vec<ConstKey> = Vec::new();
        cuda_frontend::transform::visit::walk_exprs_block(&mut clone, &mut |e| match e {
            Expr::IntLit(v, ty) => keys.push(ConstKey::Imm(canonical_int_bits(*v, ty))),
            Expr::FloatLit(v, ty) => {
                let bits = match ty {
                    Ty::F32 => u64::from((*v as f32).to_bits()),
                    _ => v.to_bits(),
                };
                keys.push(ConstKey::Imm(bits));
            }
            Expr::Builtin(b) => keys.push(ConstKey::Special(special_of(*b))),
            _ => {}
        });
        // Constants the lowering itself synthesizes (truthiness zero,
        // increment one, pointer scales, default shuffle width).
        for bits in [0u64, 1, 2, 4, 8, 32] {
            keys.push(ConstKey::Imm(bits));
        }
        for key in keys {
            match key {
                ConstKey::Imm(bits) => {
                    self.imm(bits);
                }
                ConstKey::Special(r) => {
                    self.special(r);
                }
            }
        }
        self.pool_frozen = true;
    }

    fn fresh(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn emit(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    fn declare(&mut self, name: &str, binding: Binding) {
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(name.to_owned(), binding);
    }

    fn lookup(&self, name: &str) -> Result<&Binding, FrontendError> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.get(name))
            .ok_or_else(|| FrontendError::new(format!("undeclared variable `{name}`")))
    }

    // ---- labels ----------------------------------------------------------

    fn new_label(&mut self) -> LabelId {
        self.labels.push(None);
        self.labels.len() - 1
    }

    fn bind_label(&mut self, label: LabelId) {
        debug_assert!(self.labels[label].is_none(), "label bound twice");
        self.labels[label] = Some(self.insts.len());
    }

    fn user_label(&mut self, name: &str) -> LabelId {
        if let Some(&l) = self.user_labels.get(name) {
            return l;
        }
        let l = self.new_label();
        self.user_labels.insert(name.to_owned(), l);
        l
    }

    /// Emits a branch whose target is patched in [`Self::finish`]. Targets
    /// temporarily hold the label id.
    fn emit_bra(&mut self, cond: Reg, if_zero: bool, label: LabelId) {
        self.emit(Inst::Bra {
            cond,
            if_zero,
            target: label,
        });
    }

    fn emit_jmp(&mut self, label: LabelId) {
        self.emit(Inst::Jmp { target: label });
    }

    fn finish(mut self) -> Result<KernelIr, FrontendError> {
        // Patch branch targets from label ids to instruction indices.
        let resolve = |labels: &[Option<usize>], id: usize| -> Result<usize, FrontendError> {
            labels[id].ok_or_else(|| FrontendError::new("goto to undefined label"))
        };
        for inst in &mut self.insts {
            match inst {
                Inst::Bra { target, .. } | Inst::Jmp { target } => {
                    *target = resolve(&self.labels, *target)?;
                }
                // The dynamic shared region starts after all statics; its
                // offset is only known once every static is allocated.
                Inst::SharedAddr { offset, .. } if *offset == u32::MAX => {
                    *offset = self.shared_offset;
                }
                _ => {}
            }
        }
        let kernel = KernelIr {
            name: self.name,
            insts: self.insts,
            num_regs: self.next_reg,
            params: self.params,
            shared_static_bytes: self.shared_offset,
            uses_dynamic_shared: self.uses_dynamic_shared,
            dynamic_shared_offset: self.shared_offset,
            local_bytes: self.local_offset,
            spilled_regs: Vec::new(),
            pressure: 0,
        };
        crate::verify::verify(&kernel).map_err(FrontendError::new)?;
        Ok(kernel)
    }

    // ---- statements ------------------------------------------------------

    fn block(&mut self, b: &Block) -> Result<(), FrontendError> {
        self.scopes.push(HashMap::new());
        for s in &b.stmts {
            self.stmt(s)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), FrontendError> {
        match s {
            Stmt::Decl(d) => self.decl(d),
            Stmt::Expr(e) => {
                self.expr(e)?;
                Ok(())
            }
            Stmt::If(cond, then_b, else_b) => {
                let (c, cty) = self.expr(cond)?;
                let c = self.truthy(c, &cty);
                let l_else = self.new_label();
                self.emit_bra(c, true, l_else);
                self.block(then_b)?;
                match else_b {
                    Some(else_b) => {
                        let l_end = self.new_label();
                        self.emit_jmp(l_end);
                        self.bind_label(l_else);
                        self.block(else_b)?;
                        self.bind_label(l_end);
                    }
                    None => self.bind_label(l_else),
                }
                Ok(())
            }
            Stmt::While(cond, body) => {
                let l_cond = self.new_label();
                let l_end = self.new_label();
                self.bind_label(l_cond);
                let (c, cty) = self.expr(cond)?;
                let c = self.truthy(c, &cty);
                self.emit_bra(c, true, l_end);
                self.loops.push(LoopCtx {
                    continue_label: Some(l_cond),
                    break_label: l_end,
                });
                self.block(body)?;
                self.loops.pop();
                self.emit_jmp(l_cond);
                self.bind_label(l_end);
                Ok(())
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.stmt(init)?;
                }
                let l_cond = self.new_label();
                let l_cont = self.new_label();
                let l_end = self.new_label();
                self.bind_label(l_cond);
                if let Some(cond) = cond {
                    let (c, cty) = self.expr(cond)?;
                    let c = self.truthy(c, &cty);
                    self.emit_bra(c, true, l_end);
                }
                self.loops.push(LoopCtx {
                    continue_label: Some(l_cont),
                    break_label: l_end,
                });
                self.block(body)?;
                self.loops.pop();
                self.bind_label(l_cont);
                if let Some(step) = step {
                    self.expr(step)?;
                }
                self.emit_jmp(l_cond);
                self.bind_label(l_end);
                self.scopes.pop();
                Ok(())
            }
            Stmt::DoWhile(body, cond) => {
                let l_top = self.new_label();
                let l_cond = self.new_label();
                let l_end = self.new_label();
                self.bind_label(l_top);
                self.loops.push(LoopCtx {
                    continue_label: Some(l_cond),
                    break_label: l_end,
                });
                self.block(body)?;
                self.loops.pop();
                self.bind_label(l_cond);
                let (c, cty) = self.expr(cond)?;
                let c = self.truthy(c, &cty);
                self.emit_bra(c, false, l_top);
                self.bind_label(l_end);
                Ok(())
            }
            Stmt::Switch { scrutinee, cases } => self.switch(scrutinee, cases),
            Stmt::Return(None) => {
                self.emit(Inst::Ret);
                Ok(())
            }
            Stmt::Return(Some(_)) => Err(FrontendError::new("kernels cannot return a value")),
            Stmt::Break => {
                let l = self
                    .loops
                    .last()
                    .ok_or_else(|| FrontendError::new("`break` outside loop"))?
                    .break_label;
                self.emit_jmp(l);
                Ok(())
            }
            Stmt::Continue => {
                let l = self
                    .loops
                    .iter()
                    .rev()
                    .find_map(|ctx| ctx.continue_label)
                    .ok_or_else(|| FrontendError::new("`continue` outside loop"))?;
                self.emit_jmp(l);
                Ok(())
            }
            Stmt::Block(b) => self.block(b),
            Stmt::SyncThreads => {
                self.emit(Inst::Bar {
                    id: 0,
                    count: BarCount::All,
                });
                Ok(())
            }
            Stmt::BarSync { id, count } => {
                self.emit(Inst::Bar {
                    id: *id,
                    count: BarCount::Fixed(*count),
                });
                Ok(())
            }
            Stmt::Goto(name) => {
                let l = self.user_label(name);
                self.emit_jmp(l);
                Ok(())
            }
            Stmt::Label(name) => {
                let l = self.user_label(name);
                self.bind_label(l);
                Ok(())
            }
        }
    }

    /// Lowers `switch` with C fallthrough: evaluate the scrutinee once,
    /// emit a compare/branch dispatch chain to per-case labels, then the
    /// case bodies in order (fallthrough is the natural successor).
    fn switch(&mut self, scrutinee: &Expr, cases: &[SwitchCase]) -> Result<(), FrontendError> {
        let (v, vty) = self.expr(scrutinee)?;
        let common = if vty.is_integer() {
            promote(&vty, &Ty::I32)
        } else {
            vty.clone()
        };
        if !common.is_integer() {
            return Err(FrontendError::new("switch scrutinee must be an integer"));
        }
        let v = self.coerce(v, &vty, &common);
        let l_end = self.new_label();
        let case_labels: Vec<LabelId> = cases.iter().map(|_| self.new_label()).collect();

        // Dispatch chain.
        let mut default: Option<LabelId> = None;
        for (case, &label) in cases.iter().zip(&case_labels) {
            match case.value {
                Some(k) => {
                    let kreg = self.imm(canonical_int_bits(k, &common));
                    let eq = self.fresh();
                    self.emit(Inst::Bin {
                        op: BinIr::Eq,
                        ty: scalar_of(&common),
                        dst: eq,
                        a: v,
                        b: kreg,
                    });
                    self.emit_bra(eq, false, label);
                }
                None => default = Some(label),
            }
        }
        self.emit_jmp(default.unwrap_or(l_end));

        // Bodies, in source order; `break` exits, fallthrough continues.
        self.loops.push(LoopCtx {
            continue_label: None,
            break_label: l_end,
        });
        self.scopes.push(HashMap::new());
        for (case, &label) in cases.iter().zip(&case_labels) {
            self.bind_label(label);
            for s in &case.body {
                self.stmt(s)?;
            }
        }
        self.scopes.pop();
        self.loops.pop();
        self.bind_label(l_end);
        Ok(())
    }

    fn decl(&mut self, d: &VarDecl) -> Result<(), FrontendError> {
        match (&d.array_len, d.quals.shared) {
            (None, false) => {
                let reg = self.fresh();
                if let Some(init) = &d.init {
                    let (v, vty) = self.expr(init)?;
                    let v = self.coerce(v, &vty, &d.ty);
                    self.emit(Inst::Mov { dst: reg, src: v });
                }
                self.declare(&d.name, Binding::Scalar(reg, d.ty.clone()));
                Ok(())
            }
            (Some(ArrayLen::Fixed(len)), shared) => {
                if d.init.is_some() {
                    return Err(FrontendError::new("array initializers are not supported"));
                }
                let n = const_eval_int(len).ok_or_else(|| {
                    FrontendError::new(format!("array size of `{}` must be constant", d.name))
                })? as u32;
                let bytes = align8(n * d.ty.size_bytes());
                if shared {
                    let offset = self.shared_offset;
                    self.shared_offset += bytes;
                    self.declare(
                        &d.name,
                        Binding::SharedArray {
                            offset,
                            elem: d.ty.clone(),
                        },
                    );
                } else {
                    let offset = self.local_offset;
                    self.local_offset += bytes;
                    self.declare(
                        &d.name,
                        Binding::LocalArray {
                            offset,
                            elem: d.ty.clone(),
                        },
                    );
                }
                Ok(())
            }
            (Some(ArrayLen::Unsized), _) => {
                if !d.quals.extern_shared {
                    return Err(FrontendError::new(format!(
                        "unsized array `{}` must be extern __shared__",
                        d.name
                    )));
                }
                self.uses_dynamic_shared = true;
                self.declare(&d.name, Binding::DynSharedArray { elem: d.ty.clone() });
                Ok(())
            }
            (None, true) => {
                // Scalar __shared__ variable: allocate one element.
                let bytes = align8(d.ty.size_bytes());
                let offset = self.shared_offset;
                self.shared_offset += bytes;
                self.declare(
                    &d.name,
                    Binding::SharedArray {
                        offset,
                        elem: d.ty.clone(),
                    },
                );
                Ok(())
            }
        }
    }

    // ---- expressions ------------------------------------------------------

    /// Lowers `e`, returning the result register and its static type.
    fn expr(&mut self, e: &Expr) -> Result<(Reg, Ty), FrontendError> {
        match e {
            Expr::IntLit(v, ty) => {
                let bits = canonical_int_bits(*v, ty);
                let dst = self.imm(bits);
                Ok((dst, if *ty == Ty::Bool { Ty::I32 } else { ty.clone() }))
            }
            Expr::FloatLit(v, ty) => {
                let bits = match ty {
                    Ty::F32 => u64::from((*v as f32).to_bits()),
                    _ => v.to_bits(),
                };
                let dst = self.imm(bits);
                Ok((dst, ty.clone()))
            }
            Expr::Ident(name) => match self.lookup(name)?.clone() {
                Binding::Scalar(reg, ty) => Ok((reg, ty)),
                // Arrays decay to pointers.
                Binding::SharedArray { offset, elem } => {
                    let dst = self.fresh();
                    self.emit(Inst::SharedAddr { dst, offset });
                    Ok((dst, elem.ptr_to()))
                }
                Binding::DynSharedArray { elem } => {
                    let dst = self.fresh();
                    // The dynamic region starts right after the statics; the
                    // simulator adds the block's frame base.
                    self.emit(Inst::SharedAddr {
                        dst,
                        offset: u32::MAX,
                    });
                    Ok((dst, elem.ptr_to()))
                }
                Binding::LocalArray { offset, elem } => {
                    let dst = self.fresh();
                    self.emit(Inst::LocalAddr { dst, offset });
                    Ok((dst, elem.ptr_to()))
                }
            },
            Expr::Builtin(b) => Ok((self.special(special_of(*b)), Ty::I32)),
            Expr::Unary(op, inner) => {
                let (a, aty) = self.expr(inner)?;
                match op {
                    UnOp::Not => {
                        let a = self.truthy(a, &aty);
                        let dst = self.fresh();
                        self.emit(Inst::Un {
                            op: UnIr::Not,
                            ty: ScalarTy::I32,
                            dst,
                            a,
                        });
                        Ok((dst, Ty::I32))
                    }
                    UnOp::Neg => {
                        let rty = promote(&aty, &Ty::I32);
                        let a = self.coerce(a, &aty, &rty);
                        let dst = self.fresh();
                        self.emit(Inst::Un {
                            op: UnIr::Neg,
                            ty: scalar_of(&rty),
                            dst,
                            a,
                        });
                        Ok((dst, rty))
                    }
                    UnOp::BitNot => {
                        let rty = promote(&aty, &Ty::I32);
                        let a = self.coerce(a, &aty, &rty);
                        let dst = self.fresh();
                        self.emit(Inst::Un {
                            op: UnIr::BitNot,
                            ty: scalar_of(&rty),
                            dst,
                            a,
                        });
                        Ok((dst, rty))
                    }
                }
            }
            Expr::Binary(op, lhs, rhs) if op.is_logical() => self.logical(*op, lhs, rhs),
            Expr::Binary(op, lhs, rhs) => {
                let (a, aty) = self.expr(lhs)?;
                let (b, bty) = self.expr(rhs)?;
                self.binary(*op, a, &aty, b, &bty)
            }
            Expr::Assign(op, lhs, rhs) => {
                let place = self.place(lhs)?;
                let val = match op {
                    AssignOp::Assign => {
                        let (v, vty) = self.expr(rhs)?;
                        let target_ty = place_ty(&place);
                        self.coerce(v, &vty, &target_ty)
                    }
                    AssignOp::Compound(bin) => {
                        let (old, old_ty) = self.read_place(&place);
                        let (v, vty) = self.expr(rhs)?;
                        let (res, res_ty) = self.binary(*bin, old, &old_ty, v, &vty)?;
                        self.coerce(res, &res_ty, &old_ty)
                    }
                };
                self.write_place(&place, val);
                Ok((val, place_ty(&place)))
            }
            Expr::IncDec { inc, pre, target } => {
                let place = self.place(target)?;
                let (old, ty) = self.read_place(&place);
                // Preserve the old value for the postfix result.
                let saved = self.fresh();
                self.emit(Inst::Mov {
                    dst: saved,
                    src: old,
                });
                let bits = if ty.is_float() {
                    match scalar_of(&ty) {
                        ScalarTy::F32 => u64::from(1f32.to_bits()),
                        _ => 1f64.to_bits(),
                    }
                } else {
                    1
                };
                let one = self.imm(bits);
                let dst = self.fresh();
                let op = if *inc { BinIr::Add } else { BinIr::Sub };
                self.emit(Inst::Bin {
                    op,
                    ty: scalar_of(&ty),
                    dst,
                    a: old,
                    b: one,
                });
                // Pointer step must scale — but `p++` on pointers is not in
                // the dialect; reject for clarity.
                if ty.is_pointer() {
                    return Err(FrontendError::new("++/-- on pointers is not supported"));
                }
                self.write_place(&place, dst);
                Ok((if *pre { dst } else { saved }, ty))
            }
            Expr::Ternary(cond, t, f) => {
                let (c, cty) = self.expr(cond)?;
                let c = self.truthy(c, &cty);
                let l_else = self.new_label();
                let l_end = self.new_label();
                let result = self.fresh();
                self.emit_bra(c, true, l_else);
                let (tv, tty) = self.expr(t)?;
                // Result type: promote both arms (pointers win).
                let fty_probe = self.probe_ty(f)?;
                let rty = if tty.is_pointer() {
                    tty.clone()
                } else if fty_probe.is_pointer() {
                    fty_probe.clone()
                } else {
                    promote(&tty, &fty_probe)
                };
                let tv = self.coerce(tv, &tty, &rty);
                self.emit(Inst::Mov {
                    dst: result,
                    src: tv,
                });
                self.emit_jmp(l_end);
                self.bind_label(l_else);
                let (fv, fty) = self.expr(f)?;
                let fv = self.coerce(fv, &fty, &rty);
                self.emit(Inst::Mov {
                    dst: result,
                    src: fv,
                });
                self.bind_label(l_end);
                Ok((result, rty))
            }
            Expr::Call(name, args) => self.call(name, args),
            Expr::Index(..) | Expr::Deref(_) => {
                let place = self.place(e)?;
                Ok(self.read_place(&place))
            }
            Expr::Cast(ty, inner) => {
                let (v, vty) = self.expr(inner)?;
                let r = self.coerce(v, &vty, ty);
                Ok((r, ty.clone()))
            }
            Expr::AddrOf(inner) => {
                let place = self.place(inner)?;
                match place {
                    Place::Mem { addr, ty } => Ok((addr, ty.ptr_to())),
                    Place::Reg(..) => Err(FrontendError::new(
                        "cannot take the address of a register variable",
                    )),
                }
            }
        }
    }

    /// Infers the type of `f` without emitting code (used for ternary result
    /// typing). Falls back to re-lowering into a scratch buffer.
    fn probe_ty(&mut self, e: &Expr) -> Result<Ty, FrontendError> {
        // Cheap structural probe for the common cases.
        Ok(match e {
            Expr::IntLit(_, ty) => {
                if *ty == Ty::Bool {
                    Ty::I32
                } else {
                    ty.clone()
                }
            }
            Expr::FloatLit(_, ty) => ty.clone(),
            Expr::Cast(ty, _) => ty.clone(),
            Expr::Ident(name) => match self.lookup(name)? {
                Binding::Scalar(_, ty) => ty.clone(),
                Binding::SharedArray { elem, .. }
                | Binding::DynSharedArray { elem }
                | Binding::LocalArray { elem, .. } => elem.clone().ptr_to(),
            },
            Expr::Builtin(_) => Ty::I32,
            Expr::Index(base, _) => {
                let bt = self.probe_ty(base)?;
                bt.pointee()
                    .cloned()
                    .ok_or_else(|| FrontendError::new("indexing a non-pointer"))?
            }
            Expr::Deref(inner) => {
                let t = self.probe_ty(inner)?;
                t.pointee()
                    .cloned()
                    .ok_or_else(|| FrontendError::new("dereferencing a non-pointer"))?
            }
            Expr::Unary(UnOp::Not, _) => Ty::I32,
            Expr::Unary(_, a) => promote(&self.probe_ty(a)?, &Ty::I32),
            Expr::Binary(op, a, b) => {
                if op.is_comparison() || op.is_logical() {
                    Ty::I32
                } else {
                    let at = self.probe_ty(a)?;
                    let bt = self.probe_ty(b)?;
                    if at.is_pointer() {
                        at
                    } else if bt.is_pointer() {
                        bt
                    } else {
                        promote(&at, &bt)
                    }
                }
            }
            Expr::Ternary(_, t, f) => {
                let tt = self.probe_ty(t)?;
                let ft = self.probe_ty(f)?;
                if tt.is_pointer() {
                    tt
                } else if ft.is_pointer() {
                    ft
                } else {
                    promote(&tt, &ft)
                }
            }
            Expr::Assign(_, lhs, _) => self.probe_ty(lhs)?,
            Expr::IncDec { target, .. } => self.probe_ty(target)?,
            Expr::AddrOf(inner) => self.probe_ty(inner)?.ptr_to(),
            Expr::Call(name, args) => match Intrinsic::lookup(name, args.len()) {
                Some(
                    Intrinsic::FminF
                    | Intrinsic::FmaxF
                    | Intrinsic::FabsF
                    | Intrinsic::SqrtF
                    | Intrinsic::RsqrtF
                    | Intrinsic::ExpF
                    | Intrinsic::LogF
                    | Intrinsic::FmaF,
                ) => Ty::F32,
                Some(Intrinsic::Min | Intrinsic::Max) => {
                    promote(&self.probe_ty(&args[0])?, &self.probe_ty(&args[1])?)
                }
                Some(Intrinsic::ShflXor | Intrinsic::ShflDown) => {
                    self.probe_ty(&args[cuda_frontend::typeck::shuffle_value_arg(args.len())])?
                }
                Some(Intrinsic::Popc | Intrinsic::Clz | Intrinsic::Any | Intrinsic::All) => Ty::I32,
                Some(Intrinsic::Brev | Intrinsic::Ballot) => Ty::U32,
                Some(Intrinsic::AtomicAdd | Intrinsic::AtomicMax | Intrinsic::AtomicExch) => {
                    let pt = self.probe_ty(&args[0])?;
                    pt.pointee()
                        .cloned()
                        .ok_or_else(|| FrontendError::new("atomic on non-pointer"))?
                }
                None => return Err(FrontendError::new(format!("unknown function `{name}`"))),
            },
        })
    }

    fn logical(&mut self, op: BinOp, lhs: &Expr, rhs: &Expr) -> Result<(Reg, Ty), FrontendError> {
        if is_pure_cheap(rhs) {
            // Eager evaluation: no branches, same result for pure operands.
            let (a, aty) = self.expr(lhs)?;
            let a = self.truthy(a, &aty);
            let (b, bty) = self.expr(rhs)?;
            let b = self.truthy(b, &bty);
            let dst = self.fresh();
            let ir_op = if op == BinOp::LogAnd {
                BinIr::And
            } else {
                BinIr::Or
            };
            self.emit(Inst::Bin {
                op: ir_op,
                ty: ScalarTy::I32,
                dst,
                a,
                b,
            });
            Ok((dst, Ty::I32))
        } else {
            // Short-circuit form.
            let result = self.fresh();
            let (a, aty) = self.expr(lhs)?;
            let a = self.truthy(a, &aty);
            self.emit(Inst::Mov {
                dst: result,
                src: a,
            });
            let l_end = self.new_label();
            // `&&`: skip rhs when lhs is false; `||`: skip when lhs is true.
            self.emit_bra(a, op == BinOp::LogAnd, l_end);
            let (b, bty) = self.expr(rhs)?;
            let b = self.truthy(b, &bty);
            self.emit(Inst::Mov {
                dst: result,
                src: b,
            });
            self.bind_label(l_end);
            Ok((result, Ty::I32))
        }
    }

    /// Lowers a non-logical binary operation with the usual conversions.
    fn binary(
        &mut self,
        op: BinOp,
        a: Reg,
        aty: &Ty,
        b: Reg,
        bty: &Ty,
    ) -> Result<(Reg, Ty), FrontendError> {
        // Pointer arithmetic.
        if aty.is_pointer() || bty.is_pointer() {
            return self.pointer_arith(op, a, aty, b, bty);
        }
        let common = if matches!(op, BinOp::Shl | BinOp::Shr) {
            promote(aty, &Ty::I32)
        } else {
            promote(aty, bty)
        };
        let a = self.coerce(a, aty, &common);
        let b = if matches!(op, BinOp::Shl | BinOp::Shr) {
            // Shift amounts only need to be integral; use them as-is.
            self.coerce(b, bty, &promote(bty, &Ty::I32))
        } else {
            self.coerce(b, bty, &common)
        };
        let dst = self.fresh();
        let sc = scalar_of(&common);
        let ir_op = match op {
            BinOp::Add => BinIr::Add,
            BinOp::Sub => BinIr::Sub,
            BinOp::Mul => BinIr::Mul,
            BinOp::Div => BinIr::Div,
            BinOp::Rem => BinIr::Rem,
            BinOp::Shl => BinIr::Shl,
            BinOp::Shr => BinIr::Shr,
            BinOp::BitAnd => BinIr::And,
            BinOp::BitOr => BinIr::Or,
            BinOp::BitXor => BinIr::Xor,
            BinOp::Lt => BinIr::Lt,
            BinOp::Le => BinIr::Le,
            BinOp::Gt => BinIr::Gt,
            BinOp::Ge => BinIr::Ge,
            BinOp::Eq => BinIr::Eq,
            BinOp::Ne => BinIr::Ne,
            BinOp::LogAnd | BinOp::LogOr => unreachable!("handled by logical()"),
        };
        self.emit(Inst::Bin {
            op: ir_op,
            ty: sc,
            dst,
            a,
            b,
        });
        let rty = if op.is_comparison() { Ty::I32 } else { common };
        Ok((dst, rty))
    }

    fn pointer_arith(
        &mut self,
        op: BinOp,
        a: Reg,
        aty: &Ty,
        b: Reg,
        bty: &Ty,
    ) -> Result<(Reg, Ty), FrontendError> {
        match (op, aty.is_pointer(), bty.is_pointer()) {
            (BinOp::Add | BinOp::Sub, true, false) => {
                let elem = aty.pointee().expect("pointer checked").size_bytes();
                let scaled = self.scale_index(b, bty, elem);
                let dst = self.fresh();
                let ir_op = if op == BinOp::Add {
                    BinIr::Add
                } else {
                    BinIr::Sub
                };
                self.emit(Inst::Bin {
                    op: ir_op,
                    ty: ScalarTy::U64,
                    dst,
                    a,
                    b: scaled,
                });
                Ok((dst, aty.clone()))
            }
            (BinOp::Add, false, true) => self.pointer_arith(op, b, bty, a, aty),
            (BinOp::Sub, true, true) => {
                let elem = aty.pointee().expect("pointer checked").size_bytes();
                let diff = self.fresh();
                self.emit(Inst::Bin {
                    op: BinIr::Sub,
                    ty: ScalarTy::I64,
                    dst: diff,
                    a,
                    b,
                });
                let size = self.fresh();
                self.emit(Inst::Imm {
                    dst: size,
                    value: u64::from(elem),
                });
                let dst = self.fresh();
                self.emit(Inst::Bin {
                    op: BinIr::Div,
                    ty: ScalarTy::I64,
                    dst,
                    a: diff,
                    b: size,
                });
                Ok((dst, Ty::I64))
            }
            (op, _, _) if op.is_comparison() => {
                let dst = self.fresh();
                let ir_op = match op {
                    BinOp::Lt => BinIr::Lt,
                    BinOp::Le => BinIr::Le,
                    BinOp::Gt => BinIr::Gt,
                    BinOp::Ge => BinIr::Ge,
                    BinOp::Eq => BinIr::Eq,
                    BinOp::Ne => BinIr::Ne,
                    _ => unreachable!("comparison checked"),
                };
                self.emit(Inst::Bin {
                    op: ir_op,
                    ty: ScalarTy::U64,
                    dst,
                    a,
                    b,
                });
                Ok((dst, Ty::I32))
            }
            _ => Err(FrontendError::new(format!(
                "invalid pointer arithmetic `{} {} {}`",
                aty,
                op.symbol(),
                bty
            ))),
        }
    }

    /// Multiplies an index register by the element size, as a U64.
    fn scale_index(&mut self, idx: Reg, idx_ty: &Ty, elem_bytes: u32) -> Reg {
        let wide = self.coerce(idx, idx_ty, &Ty::I64);
        if elem_bytes == 1 {
            return wide;
        }
        let size = self.imm(u64::from(elem_bytes));
        let dst = self.fresh();
        self.emit(Inst::Bin {
            op: BinIr::Mul,
            ty: ScalarTy::I64,
            dst,
            a: wide,
            b: size,
        });
        dst
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> Result<(Reg, Ty), FrontendError> {
        let intrinsic = Intrinsic::lookup(name, args.len()).ok_or_else(|| {
            FrontendError::new(format!(
                "unknown function `{name}` with {} args (inline device functions first)",
                args.len()
            ))
        })?;
        match intrinsic {
            Intrinsic::Min | Intrinsic::Max => {
                let (a, aty) = self.expr(&args[0])?;
                let (b, bty) = self.expr(&args[1])?;
                let common = promote(&aty, &bty);
                let a = self.coerce(a, &aty, &common);
                let b = self.coerce(b, &bty, &common);
                let dst = self.fresh();
                let op = if intrinsic == Intrinsic::Min {
                    BinIr::Min
                } else {
                    BinIr::Max
                };
                self.emit(Inst::Bin {
                    op,
                    ty: scalar_of(&common),
                    dst,
                    a,
                    b,
                });
                Ok((dst, common))
            }
            Intrinsic::FminF | Intrinsic::FmaxF => {
                let (a, aty) = self.expr(&args[0])?;
                let (b, bty) = self.expr(&args[1])?;
                let a = self.coerce(a, &aty, &Ty::F32);
                let b = self.coerce(b, &bty, &Ty::F32);
                let dst = self.fresh();
                let op = if intrinsic == Intrinsic::FminF {
                    BinIr::Min
                } else {
                    BinIr::Max
                };
                self.emit(Inst::Bin {
                    op,
                    ty: ScalarTy::F32,
                    dst,
                    a,
                    b,
                });
                Ok((dst, Ty::F32))
            }
            Intrinsic::FmaF => {
                // Lowers to mul-then-add (two roundings); CPU references
                // mirror this as `a * b + c`, not a true fused `mul_add`.
                let (a, aty) = self.expr(&args[0])?;
                let (b, bty) = self.expr(&args[1])?;
                let (c, cty) = self.expr(&args[2])?;
                let a = self.coerce(a, &aty, &Ty::F32);
                let b = self.coerce(b, &bty, &Ty::F32);
                let c = self.coerce(c, &cty, &Ty::F32);
                let prod = self.fresh();
                self.emit(Inst::Bin {
                    op: BinIr::Mul,
                    ty: ScalarTy::F32,
                    dst: prod,
                    a,
                    b,
                });
                let dst = self.fresh();
                self.emit(Inst::Bin {
                    op: BinIr::Add,
                    ty: ScalarTy::F32,
                    dst,
                    a: prod,
                    b: c,
                });
                Ok((dst, Ty::F32))
            }
            Intrinsic::FabsF
            | Intrinsic::SqrtF
            | Intrinsic::RsqrtF
            | Intrinsic::ExpF
            | Intrinsic::LogF => {
                let (a, aty) = self.expr(&args[0])?;
                let a = self.coerce(a, &aty, &Ty::F32);
                let dst = self.fresh();
                let op = match intrinsic {
                    Intrinsic::FabsF => UnIr::Abs,
                    Intrinsic::SqrtF => UnIr::Sqrt,
                    Intrinsic::RsqrtF => UnIr::Rsqrt,
                    Intrinsic::ExpF => UnIr::Exp,
                    _ => UnIr::Log,
                };
                self.emit(Inst::Un {
                    op,
                    ty: ScalarTy::F32,
                    dst,
                    a,
                });
                Ok((dst, Ty::F32))
            }
            Intrinsic::ShflXor | Intrinsic::ShflDown => {
                let val_idx = cuda_frontend::typeck::shuffle_value_arg(args.len());
                // `_sync` forms carry a member mask first; evaluate and drop.
                if val_idx == 1 {
                    self.expr(&args[0])?;
                }
                let (src, vty) = self.expr(&args[val_idx])?;
                let (lane, lty) = self.expr(&args[val_idx + 1])?;
                let lane = self.coerce(lane, &lty, &Ty::I32);
                let width = if args.len() > val_idx + 2 {
                    let (w, wty) = self.expr(&args[val_idx + 2])?;
                    self.coerce(w, &wty, &Ty::I32)
                } else {
                    self.imm(32)
                };
                let dst = self.fresh();
                let kind = if intrinsic == Intrinsic::ShflXor {
                    ShflKind::Xor
                } else {
                    ShflKind::Down
                };
                self.emit(Inst::Shfl {
                    kind,
                    dst,
                    src,
                    lane,
                    width,
                });
                Ok((dst, vty))
            }
            Intrinsic::Ballot | Intrinsic::Any | Intrinsic::All => {
                // `_sync` forms carry a member mask first; evaluate and drop.
                let pred_idx = usize::from(args.len() == 2);
                if pred_idx == 1 {
                    self.expr(&args[0])?;
                }
                let (p, pty) = self.expr(&args[pred_idx])?;
                let p = self.truthy(p, &pty);
                let dst = self.fresh();
                let (kind, rty) = match intrinsic {
                    Intrinsic::Ballot => (VoteKind::Ballot, Ty::U32),
                    Intrinsic::Any => (VoteKind::Any, Ty::I32),
                    _ => (VoteKind::All, Ty::I32),
                };
                self.emit(Inst::Vote { kind, dst, src: p });
                Ok((dst, rty))
            }
            Intrinsic::Popc | Intrinsic::Clz | Intrinsic::Brev => {
                let (a, aty) = self.expr(&args[0])?;
                let a = self.coerce(a, &aty, &Ty::U32);
                let dst = self.fresh();
                let (op, rty) = match intrinsic {
                    Intrinsic::Popc => (UnIr::Popc, Ty::I32),
                    Intrinsic::Clz => (UnIr::Clz, Ty::I32),
                    _ => (UnIr::Brev, Ty::U32),
                };
                self.emit(Inst::Un {
                    op,
                    ty: ScalarTy::U32,
                    dst,
                    a,
                });
                Ok((dst, rty))
            }
            Intrinsic::AtomicAdd | Intrinsic::AtomicMax | Intrinsic::AtomicExch => {
                let (addr, pty) = self.expr(&args[0])?;
                let elem = pty
                    .pointee()
                    .cloned()
                    .ok_or_else(|| FrontendError::new("atomic on non-pointer"))?;
                let (v, vty) = self.expr(&args[1])?;
                let v = self.coerce(v, &vty, &elem);
                let dst = self.fresh();
                let op = match intrinsic {
                    Intrinsic::AtomicAdd => AtomOp::Add,
                    Intrinsic::AtomicMax => AtomOp::Max,
                    _ => AtomOp::Exch,
                };
                self.emit(Inst::Atom {
                    op,
                    ty: scalar_of(&elem),
                    dst,
                    addr,
                    val: v,
                });
                Ok((dst, elem))
            }
        }
    }

    // ---- places ------------------------------------------------------------

    fn place(&mut self, e: &Expr) -> Result<Place, FrontendError> {
        match e {
            Expr::Ident(name) => match self.lookup(name)?.clone() {
                Binding::Scalar(reg, ty) => Ok(Place::Reg(reg, ty)),
                _ => Err(FrontendError::new(format!(
                    "array `{name}` is not assignable"
                ))),
            },
            Expr::Index(base, idx) => {
                let (base_reg, base_ty) = self.expr(base)?;
                let elem = base_ty
                    .pointee()
                    .cloned()
                    .ok_or_else(|| FrontendError::new("indexing a non-pointer"))?;
                let (i, ity) = self.expr(idx)?;
                let scaled = self.scale_index(i, &ity, elem.size_bytes());
                let addr = self.fresh();
                self.emit(Inst::Bin {
                    op: BinIr::Add,
                    ty: ScalarTy::U64,
                    dst: addr,
                    a: base_reg,
                    b: scaled,
                });
                Ok(Place::Mem { addr, ty: elem })
            }
            Expr::Deref(inner) => {
                let (addr, pty) = self.expr(inner)?;
                let elem = pty
                    .pointee()
                    .cloned()
                    .ok_or_else(|| FrontendError::new("dereferencing a non-pointer"))?;
                Ok(Place::Mem { addr, ty: elem })
            }
            other => Err(FrontendError::new(format!("not an lvalue: {other:?}"))),
        }
    }

    fn read_place(&mut self, place: &Place) -> (Reg, Ty) {
        match place {
            Place::Reg(r, ty) => (*r, ty.clone()),
            Place::Mem { addr, ty } => {
                let dst = self.fresh();
                self.emit(Inst::Ld {
                    ty: scalar_of(ty),
                    dst,
                    addr: *addr,
                });
                (dst, ty.clone())
            }
        }
    }

    fn write_place(&mut self, place: &Place, val: Reg) {
        match place {
            Place::Reg(r, _) => self.emit(Inst::Mov { dst: *r, src: val }),
            Place::Mem { addr, ty } => self.emit(Inst::St {
                ty: scalar_of(ty),
                addr: *addr,
                val,
            }),
        }
    }

    // ---- conversions ---------------------------------------------------------

    /// Converts `v` of type `from` into type `to`, emitting a cast when the
    /// runtime representation differs.
    fn coerce(&mut self, v: Reg, from: &Ty, to: &Ty) -> Reg {
        let from_sc = scalar_of(from);
        let to_sc = scalar_of(to);
        // Pointer-to-pointer casts (and same scalar type) are free.
        if from_sc == to_sc || (from.is_pointer() && to.is_pointer()) {
            return v;
        }
        let dst = self.fresh();
        self.emit(Inst::Cast {
            dst,
            src: v,
            from: from_sc,
            to: to_sc,
        });
        dst
    }

    /// Normalizes a value to a 0/1 truth value.
    fn truthy(&mut self, v: Reg, ty: &Ty) -> Reg {
        // Comparison results are already 0/1, but we cannot see that here;
        // emit `v != 0` under the value's own type. Cheap (one ALU op).
        let zero = self.imm(0);
        let dst = self.fresh();
        self.emit(Inst::Bin {
            op: BinIr::Ne,
            ty: scalar_of(ty),
            dst,
            a: v,
            b: zero,
        });
        dst
    }
}

fn place_ty(place: &Place) -> Ty {
    match place {
        Place::Reg(_, ty) => ty.clone(),
        Place::Mem { ty, .. } => ty.clone(),
    }
}

/// AST type → runtime scalar type. Pointers are 64-bit words.
pub fn scalar_of(ty: &Ty) -> ScalarTy {
    match ty {
        Ty::Void => panic!("void has no runtime representation"),
        Ty::Bool | Ty::I32 => ScalarTy::I32,
        Ty::U32 => ScalarTy::U32,
        Ty::I64 => ScalarTy::I64,
        Ty::U64 | Ty::Ptr(_) => ScalarTy::U64,
        Ty::F32 => ScalarTy::F32,
        Ty::F64 => ScalarTy::F64,
    }
}

fn special_of(b: BuiltinVar) -> SpecialReg {
    match b {
        BuiltinVar::ThreadIdx(Axis::X) => SpecialReg::ThreadIdxX,
        BuiltinVar::ThreadIdx(Axis::Y) => SpecialReg::ThreadIdxY,
        BuiltinVar::ThreadIdx(Axis::Z) => SpecialReg::ThreadIdxZ,
        BuiltinVar::BlockIdx(Axis::X) => SpecialReg::BlockIdxX,
        BuiltinVar::BlockIdx(Axis::Y) => SpecialReg::BlockIdxY,
        BuiltinVar::BlockIdx(Axis::Z) => SpecialReg::BlockIdxZ,
        BuiltinVar::BlockDim(Axis::X) => SpecialReg::BlockDimX,
        BuiltinVar::BlockDim(Axis::Y) => SpecialReg::BlockDimY,
        BuiltinVar::BlockDim(Axis::Z) => SpecialReg::BlockDimZ,
        BuiltinVar::GridDim(Axis::X) => SpecialReg::GridDimX,
        BuiltinVar::GridDim(Axis::Y) => SpecialReg::GridDimY,
        BuiltinVar::GridDim(Axis::Z) => SpecialReg::GridDimZ,
    }
}

/// Canonical register bits of an integer literal (sign-extend `I32`,
/// zero-extend `U32`).
fn canonical_int_bits(v: i64, ty: &Ty) -> u64 {
    match ty {
        Ty::Bool => u64::from(v != 0),
        Ty::I32 => (v as i32) as i64 as u64,
        Ty::U32 => u64::from(v as u32),
        _ => v as u64,
    }
}

/// True when evaluating `e` has no side effects and cannot fault, making it
/// safe to evaluate eagerly on a not-taken short-circuit path.
fn is_pure_cheap(e: &Expr) -> bool {
    match e {
        Expr::IntLit(..) | Expr::FloatLit(..) | Expr::Ident(_) | Expr::Builtin(_) => true,
        Expr::Unary(_, a) => is_pure_cheap(a),
        Expr::Cast(_, a) => is_pure_cheap(a),
        Expr::Binary(op, a, b) => {
            !matches!(op, BinOp::Div | BinOp::Rem) && is_pure_cheap(a) && is_pure_cheap(b)
        }
        Expr::Ternary(a, b, c) => is_pure_cheap(a) && is_pure_cheap(b) && is_pure_cheap(c),
        // Loads can fault (out-of-bounds), assignments/calls have effects.
        _ => false,
    }
}

fn align8(n: u32) -> u32 {
    (n + 7) & !7
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuda_frontend::parse_kernel;

    fn lower(src: &str) -> KernelIr {
        lower_kernel(&parse_kernel(src).expect("parse")).expect("lower")
    }

    #[test]
    fn lowers_minimal_kernel() {
        let ir = lower("__global__ void k(float* a, int n) { a[0] = 1.0f; }");
        assert_eq!(
            ir.params,
            vec![ParamKind::Pointer, ParamKind::Scalar(ScalarTy::I32)]
        );
        assert!(matches!(ir.insts.last(), Some(Inst::Ret)));
        assert!(ir.insts.iter().any(|i| matches!(
            i,
            Inst::St {
                ty: ScalarTy::F32,
                ..
            }
        )));
    }

    #[test]
    fn fmaf_lowers_to_mul_then_add() {
        let ir = lower("__global__ void k(float* a, float s) { a[0] = fmaf(s, a[0], a[1]); }");
        let mul = ir.insts.iter().position(|i| {
            matches!(
                i,
                Inst::Bin {
                    op: BinIr::Mul,
                    ty: ScalarTy::F32,
                    ..
                }
            )
        });
        let add = ir.insts.iter().position(|i| {
            matches!(
                i,
                Inst::Bin {
                    op: BinIr::Add,
                    ty: ScalarTy::F32,
                    ..
                }
            )
        });
        let (mul, add) = (mul.expect("mul"), add.expect("add"));
        assert!(mul < add, "fmaf must multiply before it adds");
    }

    #[test]
    fn fmaf_wrong_arity_is_unknown_function() {
        let f = parse_kernel("__global__ void k(float* a) { a[0] = fmaf(a[0], a[1]); }")
            .expect("parse");
        let err = lower_kernel(&f).expect_err("two-arg fmaf must not lower");
        assert!(
            err.to_string().contains("unknown function"),
            "unhelpful message: {err}"
        );
    }

    #[test]
    fn if_produces_branch_and_join() {
        let ir = lower("__global__ void k(int n) { if (n) { n = 1; } }");
        let branches = ir
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bra { .. }))
            .count();
        assert_eq!(branches, 1);
    }

    #[test]
    fn for_loop_has_backward_edge() {
        let ir = lower("__global__ void k(int n) { for (int i = 0; i < n; i++) { } }");
        let has_backward = ir
            .insts
            .iter()
            .enumerate()
            .any(|(pc, i)| matches!(i, Inst::Jmp { target } if *target < pc));
        assert!(has_backward, "loop must jump backwards: {:#?}", ir.insts);
    }

    #[test]
    fn shared_arrays_get_distinct_offsets() {
        let ir = lower(
            "__global__ void k(int n) { __shared__ int a[8]; __shared__ float b[4]; a[0] = n; b[0] = 0.0f; }",
        );
        assert_eq!(ir.shared_static_bytes, 32 + 16);
        let offsets: Vec<u32> = ir
            .insts
            .iter()
            .filter_map(|i| match i {
                Inst::SharedAddr { offset, .. } => Some(*offset),
                _ => None,
            })
            .collect();
        assert!(offsets.contains(&0));
        assert!(offsets.contains(&32));
    }

    #[test]
    fn extern_shared_is_dynamic() {
        let ir =
            lower("__global__ void k(int n) { extern __shared__ float buf[]; buf[0] = 0.0f; }");
        assert!(ir.uses_dynamic_shared);
        assert_eq!(ir.shared_static_bytes, 0);
    }

    #[test]
    fn local_array_allocates_local_bytes() {
        let ir = lower("__global__ void k(int n) { unsigned int w[16]; w[0] = 1u; }");
        assert_eq!(ir.local_bytes, 64);
        assert!(ir.insts.iter().any(|i| matches!(i, Inst::LocalAddr { .. })));
    }

    #[test]
    fn pointer_arithmetic_scales_by_element_size() {
        // Inspect the raw lowering: the optimizer strength-reduces the
        // multiply into a shift.
        let k = parse_kernel("__global__ void k(float* p, int i) { p[i] = 0.0f; }").expect("parse");
        let ir = crate::lower::lower_kernel_unoptimized(&k).expect("lower");
        // Must multiply the index by 4 somewhere.
        assert!(
            ir.insts
                .iter()
                .any(|inst| matches!(inst, Inst::Imm { value: 4, .. })),
            "expected a 4-byte scale constant: {:#?}",
            ir.insts
        );
    }

    #[test]
    fn syncthreads_lowered_to_bar_all() {
        // Memory ops on both sides so the redundant-barrier pass keeps it.
        let ir = lower("__global__ void k(int* p) { p[0] = 1; __syncthreads(); p[1] = 2; }");
        assert!(ir.insts.iter().any(|i| matches!(
            i,
            Inst::Bar {
                id: 0,
                count: BarCount::All
            }
        )));
    }

    #[test]
    fn partial_barrier_keeps_id_and_count() {
        let ir =
            lower("__global__ void k(int* p) { p[0] = 1; asm(\"bar.sync 2, 128;\"); p[1] = 2; }");
        assert!(ir.insts.iter().any(|i| matches!(
            i,
            Inst::Bar {
                id: 2,
                count: BarCount::Fixed(128)
            }
        )));
    }

    #[test]
    fn do_while_body_runs_before_condition() {
        let ir = lower(
            "__global__ void k(int* out, int n) {\
               int count = 0;\
               do { count = count + 1; n = n - 1; } while (n > 0);\
               out[0] = count;\
             }",
        );
        // Backward conditional branch, no entry guard before the body.
        let back = ir
            .insts
            .iter()
            .enumerate()
            .any(|(pc, i)| matches!(i, Inst::Bra { target, .. } if *target < pc));
        assert!(back, "do-while must branch backwards: {:#?}", ir.insts);
    }

    #[test]
    fn goto_lowered_to_jump() {
        let k = parse_kernel("__global__ void k(int n) { if (n) goto end; n = 0; end: ; }")
            .expect("parse");
        let ir = crate::lower::lower_kernel_unoptimized(&k).expect("lower");
        assert!(ir.insts.iter().any(|i| matches!(i, Inst::Jmp { .. })));
    }

    #[test]
    fn undefined_label_is_error() {
        let k = parse_kernel("__global__ void k(int n) { goto nowhere; }").expect("parse");
        assert!(lower_kernel(&k).is_err());
    }

    #[test]
    fn break_outside_loop_is_error() {
        let k = parse_kernel("__global__ void k(int n) { break; }").expect("parse");
        assert!(lower_kernel(&k).is_err());
    }

    #[test]
    fn shuffle_lowering() {
        let ir = lower(
            "__global__ void k(float* p) { float v = p[0]; v += __shfl_xor_sync(0xffffffffu, v, 1, 32); p[0] = v; }",
        );
        assert!(ir.insts.iter().any(|i| matches!(
            i,
            Inst::Shfl {
                kind: ShflKind::Xor,
                ..
            }
        )));
    }

    #[test]
    fn atomic_add_on_shared() {
        let ir = lower("__global__ void k(int n) { __shared__ int c[4]; atomicAdd(&c[0], 1); }");
        assert!(ir.insts.iter().any(|i| matches!(
            i,
            Inst::Atom {
                op: AtomOp::Add,
                ty: ScalarTy::I32,
                ..
            }
        )));
    }

    #[test]
    fn compound_assign_on_memory_reads_then_writes() {
        let ir = lower("__global__ void k(float* p) { p[0] += 2.0f; }");
        let ld = ir
            .insts
            .iter()
            .position(|i| matches!(i, Inst::Ld { .. }))
            .expect("load");
        let st = ir
            .insts
            .iter()
            .position(|i| matches!(i, Inst::St { .. }))
            .expect("store");
        assert!(ld < st);
    }

    #[test]
    fn short_circuit_with_impure_rhs_branches() {
        let ir = lower("__global__ void k(int* p, int n) { if (n && p[0]) { n = 1; } }");
        // rhs loads memory, so a short-circuit branch must guard it.
        let branches = ir
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bra { .. }))
            .count();
        assert!(
            branches >= 2,
            "expected short-circuit branch: {:#?}",
            ir.insts
        );
    }

    #[test]
    fn pure_logical_is_branch_free() {
        let ir = lower("__global__ void k(int a, int b, int* o) { o[0] = (a > 1 && b < 2); }");
        let branches = ir
            .insts
            .iter()
            .filter(|i| matches!(i, Inst::Bra { .. }))
            .count();
        assert_eq!(branches, 0, "pure && should lower eagerly: {:#?}", ir.insts);
    }

    #[test]
    fn float_literal_f32_bits() {
        let ir = lower("__global__ void k(float* p) { p[0] = 1.5f; }");
        let expected = u64::from(1.5f32.to_bits());
        assert!(ir
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Imm { value, .. } if *value == expected)));
    }

    #[test]
    fn int_to_float_cast_emitted() {
        let ir = lower("__global__ void k(float* p, int n) { p[0] = n; }");
        assert!(ir.insts.iter().any(|i| matches!(
            i,
            Inst::Cast {
                from: ScalarTy::I32,
                to: ScalarTy::F32,
                ..
            }
        )));
    }

    #[test]
    fn ternary_produces_diamond() {
        let ir = lower("__global__ void k(int* p, int n) { p[0] = n > 0 ? n : -n; }");
        assert!(ir.insts.iter().any(|i| matches!(i, Inst::Bra { .. })));
        assert!(ir.insts.iter().any(|i| matches!(i, Inst::Jmp { .. })));
    }

    #[test]
    fn pressure_is_positive_and_bounded() {
        let ir = lower(
            "__global__ void k(float* a, float* b, int n) {\
               int i = blockIdx.x * blockDim.x + threadIdx.x;\
               float x = a[i]; float y = b[i];\
               a[i] = x * y + x - y;\
             }",
        );
        let p = ir.reg_pressure();
        assert!(p >= 4, "pressure {p} too low");
        assert!(p <= 64, "pressure {p} absurdly high");
    }

    #[test]
    fn kernel_with_return_value_rejected() {
        let k = parse_kernel("__global__ void k(int n) { return; }").expect("parse");
        assert!(lower_kernel(&k).is_ok());
        let tu = cuda_frontend::parse_translation_unit("__device__ int f(int n) { return n; }")
            .expect("parse");
        assert!(lower_kernel(&tu.functions[0]).is_err());
    }
}
