//! SSA construction: promotion of memory slots (`alloca`s) to SSA values
//! with φ-insertion — the classic `mem2reg` algorithm (iterated dominance
//! frontiers + dominator-tree renaming).
//!
//! The lifter uses this to turn its write-through register slots into the
//! SSA form mctoll produces; the optimizer re-exports it as the `mem2reg`
//! pass of Figure 17.

use crate::analysis::{Cfg, Dominators};
use crate::func::Function;
use crate::inst::{BlockId, InstId, InstKind, Operand, Ordering};
use crate::types::Ty;
use crate::uses::Uses;
use std::collections::{BTreeMap, BTreeSet};

/// No slot: the "none" entry of the instruction-indexed slot maps.
const NO_SLOT: u32 = u32::MAX;

/// A promotable slot: its alloca, value type, and the blocks (in block
/// order) that store to it.
struct Slot {
    id: InstId,
    ty: Ty,
    def_blocks: Vec<BlockId>,
}

/// What the candidate walk learns about one eligible alloca.
struct Scan {
    id: InstId,
    escapes: bool,
    loaded: Option<Ty>,
    stored: Option<Ty>,
    def_blocks: Vec<BlockId>,
}

/// Finds the promotable allocas among those `eligible` accepts, in layout
/// order, with one walk over the function. A slot is promotable when every
/// use is the direct pointer operand of a non-atomic load or store (which
/// must not store the pointer itself as a value) and all loads agree on
/// one loaded type; a store-only slot takes the type of its first stored
/// value. A terminator that reads the pointer makes it escape.
fn promotable_slots(
    f: &Function,
    mut eligible: impl FnMut(&Function, InstId) -> bool,
) -> Vec<Slot> {
    let mut slot_of = vec![NO_SLOT; f.insts.len()];
    let mut scans: Vec<Scan> = Vec::new();
    for (_, id) in f.iter_insts() {
        if matches!(f.inst(id).kind, InstKind::Alloca { .. }) && eligible(f, id) {
            slot_of[id.0 as usize] = scans.len() as u32;
            scans.push(Scan {
                id,
                escapes: false,
                loaded: None,
                stored: None,
                def_blocks: Vec::new(),
            });
        }
    }
    if scans.is_empty() {
        return Vec::new();
    }
    let scan_of = |op: &Operand| match op {
        Operand::Inst(p) => match slot_of[p.0 as usize] {
            NO_SLOT => None,
            si => Some(si as usize),
        },
        _ => None,
    };
    // The walk ends early once every candidate has escaped.
    let mut open = scans.len();
    for (b, iid) in f.iter_insts() {
        let inst = f.inst(iid);
        inst.kind.for_each_operand(|op| {
            let Some(si) = scan_of(op) else { return };
            let s = &mut scans[si];
            let escapes = match &inst.kind {
                InstKind::Load {
                    ptr,
                    order: Ordering::NotAtomic,
                } if ptr == op => match s.loaded {
                    None => {
                        s.loaded = Some(inst.ty);
                        false
                    }
                    Some(t) => t != inst.ty,
                },
                InstKind::Store {
                    ptr,
                    val,
                    order: Ordering::NotAtomic,
                } if ptr == op && val != op => {
                    if s.stored.is_none() {
                        s.stored = Some(local_operand_ty(f, val));
                    }
                    if s.def_blocks.last() != Some(&b) {
                        s.def_blocks.push(b);
                    }
                    false
                }
                _ => true,
            };
            if escapes && !s.escapes {
                s.escapes = true;
                open -= 1;
            }
        });
        if open == 0 {
            return Vec::new();
        }
    }
    for b in &f.blocks {
        b.term.for_each_operand(|op| {
            if let Some(si) = scan_of(op) {
                scans[si].escapes = true;
            }
        });
    }
    scans
        .into_iter()
        .filter(|s| !s.escapes)
        .filter_map(|s| {
            Some(Slot {
                id: s.id,
                ty: s.loaded.or(s.stored)?,
                def_blocks: s.def_blocks,
            })
        })
        .collect()
}

/// Operand type resolvable without a module (globals/functions are `i8*`).
fn local_operand_ty(f: &Function, op: &Operand) -> Ty {
    match op {
        Operand::Inst(id) => f.inst(*id).ty,
        Operand::Param(i) => f.params[*i as usize],
        Operand::ConstInt { ty, .. } => *ty,
        Operand::ConstF32(_) => Ty::F32,
        Operand::ConstF64(_) => Ty::F64,
        Operand::Global(_) | Operand::Func(_) => Ty::Ptr(crate::types::Pointee::I8),
        Operand::Undef(ty) => *ty,
    }
}

/// If `iid` loads or stores a promoted slot: the slot's index, plus the
/// stored value for a store.
fn slot_access(f: &Function, slot_of: &[u32], iid: InstId) -> Option<(usize, Option<Operand>)> {
    let (p, stored) = match &f.inst(iid).kind {
        InstKind::Load {
            ptr: Operand::Inst(p),
            ..
        } => (p, None),
        InstKind::Store {
            ptr: Operand::Inst(p),
            val,
            ..
        } => (p, Some(*val)),
        _ => return None,
    };
    match slot_of.get(p.0 as usize) {
        Some(&si) if si != NO_SLOT => Some((si as usize, stored)),
        _ => None,
    }
}

/// Promotes eligible `alloca`s in `f` to SSA, inserting φ-nodes.
///
/// `eligible` filters which allocas to consider (use `|_| true` for all).
/// Returns the number of promoted slots.
pub fn promote_allocas(f: &mut Function, eligible: impl FnMut(&Function, InstId) -> bool) -> usize {
    promote_allocas_with(f, eligible, &mut Uses::new())
}

/// [`promote_allocas`] rewriting uses through `uses`, which must be fresh
/// (or current for `f`); its counters then report the promotion's work.
///
/// Loads and stores of a promoted slot in blocks unreachable from the
/// entry have no dominating definition: the loads become `undef` of the
/// slot type and the stores are deleted, so no use of the deleted alloca
/// survives.
pub fn promote_allocas_with(
    f: &mut Function,
    eligible: impl FnMut(&Function, InstId) -> bool,
    uses: &mut Uses,
) -> usize {
    let slots = promotable_slots(f, eligible);
    if slots.is_empty() {
        return 0;
    }
    let cfg = Cfg::compute(f);
    let doms = Dominators::compute(&cfg);
    let df = doms.frontiers(&cfg);
    let mut slot_of = vec![NO_SLOT; f.insts.len()];
    for (si, s) in slots.iter().enumerate() {
        slot_of[s.id.0 as usize] = si as u32;
    }

    // Phase 1: place φs at iterated dominance frontiers of def (store) blocks.
    // phi_of[(block, slot)] = phi inst id.
    let mut phi_of: BTreeMap<(BlockId, usize), InstId> = BTreeMap::new();
    for (si, slot) in slots.iter().enumerate() {
        let mut work: Vec<BlockId> = slot.def_blocks.clone();
        let mut placed: BTreeSet<BlockId> = BTreeSet::new();
        while let Some(b) = work.pop() {
            if !cfg.reachable(b) {
                continue;
            }
            for &fb in &df[b.0 as usize] {
                if placed.insert(fb) {
                    let phi = f.insert(fb, 0, slot.ty, InstKind::Phi { incoming: vec![] });
                    phi_of.insert((fb, si), phi);
                    work.push(fb);
                }
            }
        }
    }

    // Phase 2: rename along the dominator tree.
    let mut dom_children: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
    for b in f.block_ids() {
        if let Some(d) = doms.idom[b.0 as usize] {
            dom_children[d.0 as usize].push(b);
        }
    }

    // Each stack frame: (block, incoming values per slot).
    let undef_vals: Vec<Operand> = slots.iter().map(|s| Operand::Undef(s.ty)).collect();
    let mut dead = vec![false; f.insts.len()];
    let mut stack: Vec<(BlockId, Vec<Operand>)> = vec![(BlockId(0), undef_vals)];

    // For filling phi incoming lists we need, per edge (pred→succ), the
    // value at pred exit. Record during the walk.
    let mut exit_vals: Vec<Option<Vec<Operand>>> = vec![None; f.blocks.len()];

    while let Some((b, mut vals)) = stack.pop() {
        // φs at block start define new values.
        for (si, val) in vals.iter_mut().enumerate() {
            if let Some(phi) = phi_of.get(&(b, si)) {
                *val = Operand::Inst(*phi);
            }
        }
        for k in 0..f.block(b).insts.len() {
            let iid = f.block(b).insts[k];
            match slot_access(f, &slot_of, iid) {
                Some((si, None)) => {
                    uses.replace(f, iid, vals[si]);
                    dead[iid.0 as usize] = true;
                }
                Some((si, Some(val))) => {
                    vals[si] = val;
                    dead[iid.0 as usize] = true;
                }
                None => {}
            }
        }
        for &c in &dom_children[b.0 as usize] {
            stack.push((c, vals.clone()));
        }
        exit_vals[b.0 as usize] = Some(vals);
    }

    // Accesses the renaming never reached (blocks outside the dominator
    // tree) read `undef` and write nothing.
    for b in f.block_ids() {
        if cfg.reachable(b) {
            continue;
        }
        for k in 0..f.block(b).insts.len() {
            let iid = f.block(b).insts[k];
            match slot_access(f, &slot_of, iid) {
                Some((si, None)) => {
                    uses.replace(f, iid, Operand::Undef(slots[si].ty));
                    dead[iid.0 as usize] = true;
                }
                Some((_, Some(_))) => dead[iid.0 as usize] = true,
                None => {}
            }
        }
    }

    // Phase 3: fill φ incoming lists from predecessor exit values.
    for ((b, si), phi) in &phi_of {
        let mut incoming = Vec::new();
        for &p in &cfg.preds[b.0 as usize] {
            if !cfg.reachable(p) {
                continue;
            }
            let v = exit_vals[p.0 as usize]
                .as_ref()
                .map_or(Operand::Undef(slots[*si].ty), |vs| vs[*si]);
            // A self-referencing phi through a loop: if the pred's exit val
            // is this very phi that's fine and correct.
            incoming.push((p, v));
        }
        if let InstKind::Phi { incoming: inc } = &mut f.inst_mut(*phi).kind {
            *inc = incoming;
        }
        uses.note_inst(f, *phi);
    }

    // Phase 4: delete promoted loads/stores and the allocas themselves.
    for s in &slots {
        dead[s.id.0 as usize] = true;
    }
    for b in &mut f.blocks {
        b.insts.retain(|i| !dead[i.0 as usize]);
    }

    // Prune trivial φs (single unique incoming value, or only self + one).
    prune_trivial_phis_with(f, uses);

    slots.len()
}

/// Removes φs whose incoming values are all identical (ignoring
/// self-references), replacing them with that value. Iterates to a fixpoint.
pub fn prune_trivial_phis(f: &mut Function) -> usize {
    prune_trivial_phis_with(f, &mut Uses::new())
}

/// [`prune_trivial_phis`] rewriting uses through `uses`, which must be
/// fresh or current for `f`.
fn prune_trivial_phis_with(f: &mut Function, uses: &mut Uses) -> usize {
    let mut removed = 0;
    loop {
        let mut did = false;
        for b in f.block_ids() {
            let ids: Vec<InstId> = f.block(b).insts.clone();
            for id in ids {
                let InstKind::Phi { incoming } = &f.inst(id).kind else {
                    continue;
                };
                let mut unique: Option<Operand> = None;
                let mut trivial = true;
                for (_, v) in incoming {
                    if *v == Operand::Inst(id) {
                        continue; // self-reference through loop
                    }
                    match unique {
                        None => unique = Some(*v),
                        Some(u) if u == *v => {}
                        _ => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial {
                    let rep = unique.unwrap_or(Operand::Undef(f.inst(id).ty));
                    uses.replace(f, id, rep);
                    let blk = f.block_mut(b);
                    blk.insts.retain(|i| *i != id);
                    removed += 1;
                    did = true;
                }
            }
        }
        if !did {
            break;
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Module;
    use crate::inst::{BinOp, IPred, Terminator};
    use crate::types::Pointee;
    use crate::verify::verify_module;

    /// Builds: slot = alloca; store 0; loop { v = load; store v+1 } while
    /// v+1 < n; return load slot.
    fn loop_through_slot() -> Function {
        let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
        let entry = f.entry();
        let body = f.add_block();
        let exit = f.add_block();
        let slot = f.push(entry, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        f.push(
            entry,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(0),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(entry, Terminator::Br { dest: body });
        let v = f.push(
            body,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        let v1 = f.push(
            body,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(v),
                rhs: Operand::i64(1),
            },
        );
        f.push(
            body,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::Inst(v1),
                order: Ordering::NotAtomic,
            },
        );
        let c = f.push(
            body,
            Ty::I1,
            InstKind::ICmp {
                pred: IPred::Ult,
                lhs: Operand::Inst(v1),
                rhs: Operand::Param(0),
            },
        );
        f.set_term(
            body,
            Terminator::CondBr {
                cond: Operand::Inst(c),
                if_true: body,
                if_false: exit,
            },
        );
        let fin = f.push(
            exit,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            exit,
            Terminator::Ret {
                val: Some(Operand::Inst(fin)),
            },
        );
        f
    }

    #[test]
    fn promotes_loop_slot_and_preserves_semantics() {
        let mut f = loop_through_slot();
        let promoted = promote_allocas(&mut f, |_, _| true);
        assert_eq!(promoted, 1);
        // No loads/stores/allocas remain.
        for (_, id) in f.iter_insts() {
            assert!(
                !matches!(
                    f.inst(id).kind,
                    InstKind::Alloca { .. } | InstKind::Load { .. } | InstKind::Store { .. }
                ),
                "leftover memory op: {:?}",
                f.inst(id).kind
            );
        }
        let mut m = Module::new();
        let id = m.add_func(f);
        verify_module(&m).unwrap();
        let mut machine = crate::interp::Machine::new(&m);
        let r = machine.run(id, &[crate::interp::Val::B64(10)]).unwrap();
        assert_eq!(r.ret, Some(crate::interp::Val::B64(10)));
    }

    #[test]
    fn escaping_alloca_not_promoted() {
        let mut f = Function::new("f", vec![], Ty::I64);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        // Address escapes through ptrtoint.
        let escaped = f.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: crate::inst::CastOp::PtrToInt,
                val: Operand::Inst(slot),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(escaped)),
            },
        );
        let mut g = f.clone();
        assert_eq!(promote_allocas(&mut g, |_, _| true), 0);
        assert_eq!(g, f, "function must be unchanged");
    }

    #[test]
    fn atomic_slot_not_promoted() {
        let mut f = Function::new("f", vec![], Ty::I64);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        let l = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::SeqCst,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        assert_eq!(promote_allocas(&mut f, |_, _| true), 0);
    }

    #[test]
    fn diamond_gets_phi() {
        // slot := alloca; if p { store 1 } else { store 2 }; ret load
        let mut f = Function::new("f", vec![Ty::I1], Ty::I64);
        let e = f.entry();
        let t = f.add_block();
        let el = f.add_block();
        let j = f.add_block();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        f.set_term(
            e,
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: t,
                if_false: el,
            },
        );
        f.push(
            t,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(1),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(t, Terminator::Br { dest: j });
        f.push(
            el,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(2),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(el, Terminator::Br { dest: j });
        let l = f.push(
            j,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            j,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );

        assert_eq!(promote_allocas(&mut f, |_, _| true), 1);
        let has_phi = f
            .iter_insts()
            .any(|(_, id)| matches!(f.inst(id).kind, InstKind::Phi { .. }));
        assert!(has_phi, "join block needs a phi");

        let mut m = Module::new();
        let id = m.add_func(f);
        verify_module(&m).unwrap();
        let mut machine = crate::interp::Machine::new(&m);
        assert_eq!(
            machine.run(id, &[crate::interp::Val::B64(1)]).unwrap().ret,
            Some(crate::interp::Val::B64(1))
        );
        let mut machine = crate::interp::Machine::new(&m);
        assert_eq!(
            machine.run(id, &[crate::interp::Val::B64(0)]).unwrap().ret,
            Some(crate::interp::Val::B64(2))
        );
    }

    #[test]
    fn trivial_phi_pruned() {
        let mut f = Function::new("f", vec![Ty::I1], Ty::I64);
        let e = f.entry();
        let t = f.add_block();
        let el = f.add_block();
        let j = f.add_block();
        f.set_term(
            e,
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: t,
                if_false: el,
            },
        );
        f.set_term(t, Terminator::Br { dest: j });
        f.set_term(el, Terminator::Br { dest: j });
        let p = f.push(
            j,
            Ty::I64,
            InstKind::Phi {
                incoming: vec![(t, Operand::i64(5)), (el, Operand::i64(5))],
            },
        );
        f.set_term(
            j,
            Terminator::Ret {
                val: Some(Operand::Inst(p)),
            },
        );
        assert_eq!(prune_trivial_phis(&mut f), 1);
        match &f.block(j).term {
            Terminator::Ret { val: Some(v) } => assert_eq!(v.as_const_int(), Some(5)),
            t => panic!("unexpected {t:?}"),
        }
    }

    /// A promoted slot read and written in a block no path reaches: the
    /// load becomes `undef`, the store goes, and no use of the deleted
    /// alloca survives (compaction used to panic on one).
    #[test]
    fn unreachable_access_is_promoted_to_undef() {
        let mut f = Function::new("f", vec![], Ty::I64);
        let e = f.entry();
        let dead = f.add_block();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(7),
                order: Ordering::NotAtomic,
            },
        );
        let l = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        let v = f.push(
            dead,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slot),
                order: Ordering::NotAtomic,
            },
        );
        let v1 = f.push(
            dead,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(v),
                rhs: Operand::i64(1),
            },
        );
        f.push(
            dead,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::Inst(v1),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            dead,
            Terminator::Ret {
                val: Some(Operand::Inst(v1)),
            },
        );

        assert_eq!(promote_allocas(&mut f, |_, _| true), 1);
        f.compact();
        let dead_insts: Vec<&InstKind> = f
            .block(dead)
            .insts
            .iter()
            .map(|i| &f.inst(*i).kind)
            .collect();
        assert_eq!(
            dead_insts,
            vec![&InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Undef(Ty::I64),
                rhs: Operand::i64(1),
            }]
        );
        let mut m = Module::new();
        let id = m.add_func(f);
        verify_module(&m).unwrap();
        let mut machine = crate::interp::Machine::new(&m);
        assert_eq!(
            machine.run(id, &[]).unwrap().ret,
            Some(crate::interp::Val::B64(7))
        );
    }

    /// A loop over 16 slots whose body makes `loads` load → add → store
    /// round trips, cycling through the slots.
    fn sixteen_slot_loop(loads: usize) -> Function {
        let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
        let entry = f.entry();
        let body = f.add_block();
        let exit = f.add_block();
        let slots: Vec<InstId> = (0..16)
            .map(|_| f.push(entry, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 }))
            .collect();
        for (k, s) in slots.iter().enumerate() {
            f.push(
                entry,
                Ty::Void,
                InstKind::Store {
                    ptr: Operand::Inst(*s),
                    val: Operand::i64(k as i64),
                    order: Ordering::NotAtomic,
                },
            );
        }
        f.set_term(entry, Terminator::Br { dest: body });
        let mut last = Operand::Param(0);
        for i in 0..loads {
            let s = Operand::Inst(slots[i % 16]);
            let v = f.push(
                body,
                Ty::I64,
                InstKind::Load {
                    ptr: s,
                    order: Ordering::NotAtomic,
                },
            );
            let w = f.push(
                body,
                Ty::I64,
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Operand::Inst(v),
                    rhs: last,
                },
            );
            f.push(
                body,
                Ty::Void,
                InstKind::Store {
                    ptr: s,
                    val: Operand::Inst(w),
                    order: Ordering::NotAtomic,
                },
            );
            last = Operand::Inst(w);
        }
        let c = f.push(
            body,
            Ty::I1,
            InstKind::ICmp {
                pred: IPred::Ult,
                lhs: last,
                rhs: Operand::Param(0),
            },
        );
        f.set_term(
            body,
            Terminator::CondBr {
                cond: Operand::Inst(c),
                if_true: body,
                if_false: exit,
            },
        );
        let fin = f.push(
            exit,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Inst(slots[0]),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            exit,
            Terminator::Ret {
                val: Some(Operand::Inst(fin)),
            },
        );
        f
    }

    /// Promotion does O(uses) work per promoted load: quadrupling the
    /// loads at most quadruples (plus slack for the fixed part) the use
    /// sites visited. A scan over the arena per load would grow ~16×.
    #[test]
    fn promotion_work_is_linear_in_loads() {
        let visited = |loads: usize| {
            let mut f = sixteen_slot_loop(loads);
            let mut uses = Uses::new();
            assert_eq!(promote_allocas_with(&mut f, |_, _| true, &mut uses), 16);
            assert!(f
                .iter_insts()
                .all(|(_, id)| !matches!(f.inst(id).kind, InstKind::Load { .. })));
            uses.visited()
        };
        let (n, n4) = (visited(256), visited(1024));
        assert!(n >= 256, "work must be counted: {n}");
        assert!(
            n4 as f64 <= 4.5 * n as f64,
            "use sites visited grew {n} → {n4} for 4× the loads"
        );
    }
}
