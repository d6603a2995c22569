//! Module verifier: structural and type well-formedness checks.
//!
//! Run after lifting and after every optimization pass in debug builds; a
//! verifier failure means a pass produced malformed IR.

use crate::func::{Function, Module};
use crate::inst::{BlockId, Callee, CastOp, InstKind, Operand, Terminator};
use crate::types::Ty;

/// A verifier diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name.
    pub func: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "in @{}: {}", self.func, self.message)
    }
}

impl std::error::Error for VerifyError {}

/// Verifies a whole module.
///
/// # Errors
///
/// Returns every diagnostic found (empty `Ok` when the module is
/// well-formed).
pub fn verify_module(m: &Module) -> Result<(), Vec<VerifyError>> {
    let mut errs = Vec::new();
    for f in &m.funcs {
        verify_function(m, f, &mut errs);
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

fn verify_function(m: &Module, f: &Function, errs: &mut Vec<VerifyError>) {
    fn err_in(errs: &mut Vec<VerifyError>, f: &Function, msg: String) {
        errs.push(VerifyError {
            func: f.name.clone(),
            message: msg,
        });
    }
    macro_rules! err {
        ($($arg:tt)*) => { err_in(errs, f, format!($($arg)*)) };
    }

    // No instruction id may appear in two blocks (or twice in one).
    let mut seen = vec![false; f.insts.len()];
    for b in f.block_ids() {
        for id in &f.block(b).insts {
            let slot = &mut seen[id.0 as usize];
            if *slot {
                err!("instruction %{} appears in layout twice", id.0);
            }
            *slot = true;
        }
    }

    for b in f.block_ids() {
        let blk = f.block(b);
        // Phis must lead the block and match predecessors.
        let mut in_phi_prefix = true;
        for (i, id) in blk.insts.iter().enumerate() {
            let inst = f.inst(*id);
            let is_phi = matches!(inst.kind, InstKind::Phi { .. });
            if is_phi && !in_phi_prefix {
                err!("phi %{} not at start of {b}", id.0);
            }
            if !is_phi {
                in_phi_prefix = false;
            }
            check_inst(m, f, b, i, *id, &seen, errs);
        }
        // Terminator operands must be in the layout too.
        blk.term.for_each_operand(|op| {
            if let Operand::Inst(i) = op {
                if !seen.get(i.0 as usize).copied().unwrap_or(false) {
                    let msg = format!("{b} terminator uses %{}, which is not in the layout", i.0);
                    err_in(errs, f, msg);
                }
            }
        });
        // Terminator targets must exist.
        for s in blk.term.successors() {
            if s.0 as usize >= f.blocks.len() {
                err!("{b} branches to nonexistent {s}");
            }
        }
        match &blk.term {
            Terminator::CondBr { cond, .. } => {
                if m.operand_ty(f, cond) != Ty::I1 {
                    err!("{b} condbr condition is not i1");
                }
            }
            Terminator::Ret { val } => match (val, f.ret) {
                (None, Ty::Void) => {}
                (Some(v), ret) => {
                    let ty = m.operand_ty(f, v);
                    if ret == Ty::Void {
                        err!("{b} returns a value from void function");
                    } else if ty != ret && !(ty.is_ptr() && ret.is_ptr()) {
                        err!("{b} returns {ty}, function declares {ret}");
                    }
                }
                (None, ret) => err!("{b} returns void, function declares {ret}"),
            },
            _ => {}
        }
    }
}

fn check_inst(
    m: &Module,
    f: &Function,
    b: BlockId,
    _pos: usize,
    id: crate::inst::InstId,
    placed: &[bool],
    errs: &mut Vec<VerifyError>,
) {
    let inst = f.inst(id);
    let mut err = |msg: String| {
        errs.push(VerifyError {
            func: f.name.clone(),
            message: format!("%{} in {b}: {msg}", id.0),
        })
    };
    let ty = |op: &Operand| m.operand_ty(f, op);

    // Operand references must be in range, and an instruction operand
    // must itself be in the layout (a removed instruction is dead).
    inst.kind.for_each_operand(|op| match op {
        Operand::Inst(i) => {
            if i.0 as usize >= f.insts.len() {
                err(format!("references out-of-range instruction %{}", i.0));
            } else if !placed[i.0 as usize] {
                err(format!("uses %{}, which is not in the layout", i.0));
            }
        }
        Operand::Param(p) => {
            if *p as usize >= f.params.len() {
                err(format!("references out-of-range parameter {p}"));
            }
        }
        Operand::Global(g) => {
            if g.0 as usize >= m.globals.len() {
                err("references out-of-range global".to_string());
            }
        }
        Operand::Func(fi) => {
            if fi.0 as usize >= m.funcs.len() {
                err("references out-of-range function".to_string());
            }
        }
        _ => {}
    });

    match &inst.kind {
        InstKind::Bin { op, lhs, rhs } => {
            let (lt, rt) = (ty(lhs), ty(rhs));
            if lt != rt {
                err(format!("binop operand types differ: {lt} vs {rt}"));
            }
            if op.is_float() && !(lt.is_float() || lt.is_vector()) {
                err(format!("float op {} on {lt}", op.mnemonic()));
            }
            if !op.is_float() && !(lt.is_int() || lt.is_vector()) {
                err(format!("int op {} on {lt}", op.mnemonic()));
            }
            if inst.ty != lt {
                err(format!(
                    "binop result {} differs from operand {lt}",
                    inst.ty
                ));
            }
        }
        InstKind::ICmp { lhs, rhs, .. } => {
            let (lt, rt) = (ty(lhs), ty(rhs));
            if lt != rt && !(lt.is_ptr() && rt.is_ptr()) {
                err(format!("icmp operand types differ: {lt} vs {rt}"));
            }
            if inst.ty != Ty::I1 {
                err("icmp result must be i1".to_string());
            }
        }
        InstKind::FCmp { lhs, rhs, .. } => {
            if !ty(lhs).is_float() || ty(lhs) != ty(rhs) {
                err("fcmp operands must be matching floats".to_string());
            }
            if inst.ty != Ty::I1 {
                err("fcmp result must be i1".to_string());
            }
        }
        InstKind::Load { ptr, .. } => {
            if !ty(ptr).is_ptr() && ty(ptr) != Ty::I64 {
                err(format!("load address has type {}", ty(ptr)));
            }
            if inst.ty == Ty::Void {
                err("load cannot produce void".to_string());
            }
        }
        InstKind::Store { ptr, .. } => {
            if !ty(ptr).is_ptr() && ty(ptr) != Ty::I64 {
                err(format!("store address has type {}", ty(ptr)));
            }
            if inst.ty != Ty::Void {
                err("store produces no value".to_string());
            }
        }
        InstKind::Fence { .. } => {
            if inst.ty != Ty::Void {
                err("fence produces no value".to_string());
            }
        }
        InstKind::AtomicRmw { ptr, val, .. } => {
            if !ty(ptr).is_ptr() {
                err("atomicrmw address must be a pointer".to_string());
            }
            if inst.ty != ty(val) {
                err("atomicrmw result type must match operand".to_string());
            }
        }
        InstKind::CmpXchg { ptr, expected, new } => {
            if !ty(ptr).is_ptr() {
                err("cmpxchg address must be a pointer".to_string());
            }
            if ty(expected) != ty(new) || inst.ty != ty(expected) {
                err("cmpxchg value types must agree".to_string());
            }
        }
        InstKind::Alloca { size } => {
            if !inst.ty.is_ptr() {
                err("alloca must produce a pointer".to_string());
            }
            if *size == 0 {
                err("zero-sized alloca".to_string());
            }
        }
        InstKind::Gep { base, offset, .. } => {
            if !ty(base).is_ptr() {
                err(format!("gep base has type {}", ty(base)));
            }
            if ty(offset) != Ty::I64 {
                err(format!("gep offset must be i64, got {}", ty(offset)));
            }
            if !inst.ty.is_ptr() {
                err("gep must produce a pointer".to_string());
            }
        }
        InstKind::Cast { op, val } => {
            let vt = ty(val);
            let ok = match op {
                CastOp::Trunc => {
                    vt.is_int() && inst.ty.is_int() && vt.int_bits() > inst.ty.int_bits()
                }
                CastOp::ZExt | CastOp::SExt => {
                    vt.is_int() && inst.ty.is_int() && vt.int_bits() < inst.ty.int_bits()
                }
                CastOp::FpToSi => vt.is_float() && inst.ty.is_int(),
                CastOp::SiToFp => vt.is_int() && inst.ty.is_float(),
                CastOp::FpExt => vt == Ty::F32 && inst.ty == Ty::F64,
                CastOp::FpTrunc => vt == Ty::F64 && inst.ty == Ty::F32,
                CastOp::BitCast => {
                    (vt.is_ptr() && inst.ty.is_ptr())
                        || (vt != Ty::Void && vt.size() == inst.ty.size())
                }
                CastOp::IntToPtr => vt == Ty::I64 && inst.ty.is_ptr(),
                CastOp::PtrToInt => vt.is_ptr() && inst.ty == Ty::I64,
            };
            if !ok {
                err(format!(
                    "invalid {} from {vt} to {}",
                    op.mnemonic(),
                    inst.ty
                ));
            }
        }
        InstKind::Select {
            cond,
            if_true,
            if_false,
        } => {
            if ty(cond) != Ty::I1 {
                err("select condition must be i1".to_string());
            }
            if ty(if_true) != ty(if_false) {
                err("select arms differ in type".to_string());
            }
        }
        InstKind::Call { callee, args } => {
            if let Callee::Extern(e) = callee {
                let decl = m.ext(*e);
                if !decl.variadic && args.len() != decl.params.len() {
                    err(format!(
                        "call to @{} passes {} args, declared {}",
                        decl.name,
                        args.len(),
                        decl.params.len()
                    ));
                }
            }
            if let Callee::Func(fi) = callee {
                let callee_f = m.func(*fi);
                if args.len() != callee_f.params.len() {
                    err(format!(
                        "call to @{} passes {} args, declared {}",
                        callee_f.name,
                        args.len(),
                        callee_f.params.len()
                    ));
                }
            }
        }
        InstKind::Phi { incoming } => {
            if incoming.is_empty() {
                err("phi with no incoming values".to_string());
            }
            for (pred, _) in incoming {
                if pred.0 as usize >= f.blocks.len() {
                    err(format!("phi references nonexistent {pred}"));
                }
            }
        }
        InstKind::ExtractElement { vec, .. } => {
            if !ty(vec).is_vector() {
                err("extractelement source must be a vector".to_string());
            }
        }
        InstKind::InsertElement { vec, .. } => {
            if !ty(vec).is_vector() || !inst.ty.is_vector() {
                err("insertelement must map vector to vector".to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, InstKind, Operand, Terminator};
    use crate::types::{Pointee, Ty};

    #[test]
    fn accepts_well_formed() {
        let mut m = Module::new();
        let mut f = Function::new("ok", vec![Ty::I64], Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::i64(1),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(a)),
            },
        );
        m.add_func(f);
        assert!(verify_module(&m).is_ok());
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut m = Module::new();
        let mut f = Function::new("bad", vec![Ty::I64], Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::i32(1),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(a)),
            },
        );
        m.add_func(f);
        let errs = verify_module(&m).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| e.message.contains("operand types differ")));
    }

    #[test]
    fn rejects_use_of_an_instruction_removed_from_the_layout() {
        let mut m = Module::new();
        let mut f = Function::new("bad", vec![Ty::I64], Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::i64(1),
            },
        );
        f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(a),
                rhs: Operand::i64(1),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(a)),
            },
        );
        f.block_mut(e).insts.retain(|i| *i != a);
        m.add_func(f);
        let errs = verify_module(&m).unwrap_err();
        let layout = format!("uses %{}, which is not in the layout", a.0);
        assert!(errs.iter().any(|e| e.message.contains(&layout)), "{errs:?}");
        assert!(
            errs.iter().any(|e| e.message.contains("terminator uses")),
            "{errs:?}"
        );
    }

    #[test]
    fn rejects_bad_return() {
        let mut m = Module::new();
        let mut f = Function::new("bad", vec![], Ty::I64);
        let e = f.entry();
        f.set_term(e, Terminator::Ret { val: None });
        m.add_func(f);
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_misplaced_phi() {
        let mut m = Module::new();
        let mut f = Function::new("bad", vec![Ty::I64], Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::i64(1),
            },
        );
        let p = f.push(
            e,
            Ty::I64,
            InstKind::Phi {
                incoming: vec![(e, Operand::Param(0))],
            },
        );
        let _ = a;
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(p)),
            },
        );
        m.add_func(f);
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("not at start")));
    }

    #[test]
    fn rejects_invalid_cast() {
        let mut m = Module::new();
        let mut f = Function::new("bad", vec![Ty::I32], Ty::Void);
        let e = f.entry();
        f.push(
            e,
            Ty::Ptr(Pointee::I8),
            InstKind::Cast {
                op: crate::inst::CastOp::IntToPtr,
                val: Operand::Param(0),
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        m.add_func(f);
        let errs = verify_module(&m).unwrap_err();
        assert!(errs.iter().any(|e| e.message.contains("invalid inttoptr")));
    }
}
