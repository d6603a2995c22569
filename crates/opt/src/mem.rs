//! `mem2reg` (alloca promotion, re-exported from `lasagne-lir`) and a
//! scalar-replacement pass (`sroa`) that splits multi-field allocas — the
//! lifter's 16-byte XMM slots in particular — into independently promotable
//! scalar slots.

use lasagne_lir::func::Function;
use lasagne_lir::inst::{CastOp, InstId, InstKind, Operand, Ordering};
use lasagne_lir::types::{Pointee, Ty};
use lasagne_lir::uses::{Site, Uses};
use std::collections::BTreeMap;

/// Promotes all eligible allocas to SSA (the classic `mem2reg`).
pub fn mem2reg(f: &mut Function) -> usize {
    lasagne_lir::ssa::promote_allocas(f, |_, _| true)
}

/// One access to an alloca at a constant byte offset.
struct Access {
    /// The load/store instruction.
    inst: InstId,
    /// The pointer-producing instruction feeding it (bitcast or gep+bitcast
    /// chain head) — rewritten to point at the split slot.
    ptr_inst: InstId,
    offset: u64,
    size: u64,
    pointee: Pointee,
}

/// Describes how an alloca's pointer flows to an access:
/// `alloca → [gep const]? → bitcast → load/store`.
fn classify_access(f: &Function, slot: InstId, mem_inst: InstId, ptr: &Operand) -> Option<Access> {
    let Operand::Inst(p0) = ptr else { return None };
    // Unwrap one bitcast.
    let (pointee, after_cast) = match &f.inst(*p0).kind {
        InstKind::Cast {
            op: CastOp::BitCast,
            val: Operand::Inst(v),
        } => {
            let pe = f.inst(*p0).ty.pointee()?;
            (pe, *v)
        }
        InstKind::Gep { .. } | InstKind::Alloca { .. } => {
            let pe = f.inst(*p0).ty.pointee()?;
            (pe, *p0)
        }
        _ => return None,
    };
    // Then either the alloca itself or a constant-offset gep from it.
    let offset = if after_cast == slot {
        0
    } else {
        match &f.inst(after_cast).kind {
            InstKind::Gep {
                base: Operand::Inst(b),
                offset,
                elem_size,
            } if *b == slot => offset.as_const_int()? * *elem_size,
            _ => return None,
        }
    };
    Some(Access {
        inst: mem_inst,
        ptr_inst: *p0,
        offset,
        size: pointee.size(),
        pointee,
    })
}

/// Layout position of an instruction that is in no block.
const NOT_IN_BLOCK: u32 = u32::MAX;

/// The pointers derived from `slot` (marked in `is_derived`, which the
/// caller clears) and every in-block instruction reading one of them, in
/// layout order.
fn slot_users(
    f: &Function,
    uses: &mut Uses,
    pos: &[u32],
    is_derived: &mut [bool],
    slot: InstId,
) -> (Vec<InstId>, Vec<InstId>) {
    let at = |id: InstId| pos.get(id.0 as usize).copied().unwrap_or(NOT_IN_BLOCK);
    let mut derived = vec![slot];
    is_derived[slot.0 as usize] = true;
    let mut users: Vec<InstId> = Vec::new();
    let mut next = 0;
    while next < derived.len() {
        let d = derived[next];
        next += 1;
        for site in uses.sites(f, d) {
            let Site::Inst(u) = site else { continue };
            if at(u) == NOT_IN_BLOCK {
                continue;
            }
            users.push(u);
            if is_derived[u.0 as usize] {
                continue;
            }
            let derives = match &f.inst(u).kind {
                InstKind::Gep {
                    base: Operand::Inst(b),
                    offset,
                    ..
                } => *b == slot && offset.as_const_int().is_some(),
                InstKind::Cast {
                    op: CastOp::BitCast,
                    val: Operand::Inst(v),
                } => *v == d && (d == slot || at(d) < at(u)),
                _ => false,
            };
            if derives {
                is_derived[u.0 as usize] = true;
                derived.push(u);
            }
        }
    }
    // Drop stale sites, then visit each user once, in layout order.
    users.retain(|u| {
        let mut reads = false;
        f.inst(*u).kind.for_each_operand(|op| {
            reads |= matches!(op, Operand::Inst(i) if is_derived[i.0 as usize]);
        });
        reads
    });
    users.sort_unstable_by_key(|u| at(*u));
    users.dedup();
    (derived, users)
}

/// Splits allocas whose every use is a fixed-offset scalar access into one
/// alloca per disjoint byte range. Returns the number of allocas split.
///
/// Each slot's derived pointers and accesses come from the function's
/// [`Uses`] index, visited in layout order. A pointer derives from the slot
/// when it is a constant-offset `gep` of the slot, or a `bitcast` of a
/// derived pointer that precedes it in the layout.
pub fn sroa(f: &mut Function) -> usize {
    // Layout position of every instruction in a block. Splitting only
    // inserts new allocas, which keeps the relative order of the rest.
    let mut pos = vec![NOT_IN_BLOCK; f.insts.len()];
    let mut slots: Vec<(InstId, u64)> = Vec::new();
    // Splitting needs accesses at two offsets, so one at a nonzero offset,
    // which only a constant-offset `gep` of the slot yields: a slot without
    // one is skipped before the index is consulted.
    let mut gep_base = vec![false; f.insts.len()];
    for (k, (_, id)) in f.iter_insts().enumerate() {
        pos[id.0 as usize] = k as u32;
        match &f.inst(id).kind {
            InstKind::Alloca { size } => slots.push((id, *size)),
            InstKind::Gep {
                base: Operand::Inst(b),
                offset,
                ..
            } if offset.as_const_int().is_some() => gep_base[b.0 as usize] = true,
            _ => {}
        }
    }
    slots.retain(|(id, _)| gep_base[id.0 as usize]);
    if slots.is_empty() {
        return 0;
    }
    let mut uses = Uses::new();
    let mut is_derived = vec![false; f.insts.len()];

    let mut split = 0;
    for (slot, size) in slots {
        // Earlier splits may have appended allocas to the arena.
        is_derived.resize(f.insts.len(), false);
        let (derived, users) = slot_users(f, &mut uses, &pos, &mut is_derived, slot);
        // Every user must be a classified scalar access or a derived
        // pointer computation.
        let mut accesses: Vec<Access> = Vec::new();
        let mut ok = true;
        for id in users {
            let inst = f.inst(id);
            match &inst.kind {
                InstKind::Load {
                    ptr,
                    order: Ordering::NotAtomic,
                } => match classify_access(f, slot, id, ptr) {
                    Some(a) => accesses.push(a),
                    None => {
                        ok = false;
                        break;
                    }
                },
                InstKind::Store {
                    ptr,
                    val,
                    order: Ordering::NotAtomic,
                } => {
                    // The value stored must not be the pointer itself.
                    if matches!(val, Operand::Inst(v) if is_derived[v.0 as usize]) {
                        ok = false;
                        break;
                    }
                    match classify_access(f, slot, id, ptr) {
                        Some(a) => accesses.push(a),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                // Derived pointer computations are fine.
                InstKind::Gep { .. }
                | InstKind::Cast {
                    op: CastOp::BitCast,
                    ..
                } => {}
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        for d in derived {
            is_derived[d.0 as usize] = false;
        }
        if !ok || accesses.is_empty() {
            continue;
        }
        // Partition into byte ranges; all accesses to a range must agree on
        // (offset, size) exactly (no partial overlap).
        let mut ranges: BTreeMap<u64, (u64, Pointee)> = BTreeMap::new();
        let mut consistent = true;
        for a in &accesses {
            if a.offset + a.size > size {
                consistent = false;
                break;
            }
            match ranges.get(&a.offset) {
                None => {
                    ranges.insert(a.offset, (a.size, a.pointee));
                }
                Some((s, _)) if *s == a.size => {}
                _ => {
                    consistent = false;
                    break;
                }
            }
        }
        // No overlaps between distinct ranges.
        let keys: Vec<u64> = ranges.keys().copied().collect();
        for w in keys.windows(2) {
            if w[0] + ranges[&w[0]].0 > w[1] {
                consistent = false;
            }
        }
        if !consistent || ranges.len() < 2 {
            continue;
        }

        // Create one alloca per range, right where the original lives.
        let mut new_slots: BTreeMap<u64, InstId> = BTreeMap::new();
        let (slot_block, slot_pos) = {
            let mut found = None;
            for b in f.block_ids() {
                if let Some(p) = f.block(b).insts.iter().position(|i| *i == slot) {
                    found = Some((b, p));
                    break;
                }
            }
            match found {
                Some(x) => x,
                None => continue,
            }
        };
        for (off, (sz, pe)) in &ranges {
            let id = f.insert(
                slot_block,
                slot_pos,
                Ty::Ptr(*pe),
                InstKind::Alloca { size: *sz },
            );
            new_slots.insert(*off, id);
        }
        // Rewrite each access: point the memory op directly at the new slot
        // (bitcast if the access pointee differs from the slot pointee).
        for a in &accesses {
            let ns = new_slots[&a.offset];
            let slot_ty = f.inst(ns).ty;
            let want_ty = Ty::Ptr(a.pointee);
            let ptr_op = if slot_ty == want_ty {
                Operand::Inst(ns)
            } else {
                // Reuse the old pointer instruction as the bitcast.
                f.inst_mut(a.ptr_inst).kind = InstKind::Cast {
                    op: CastOp::BitCast,
                    val: Operand::Inst(ns),
                };
                f.inst_mut(a.ptr_inst).ty = want_ty;
                Operand::Inst(a.ptr_inst)
            };
            match &mut f.inst_mut(a.inst).kind {
                InstKind::Load { ptr, .. } | InstKind::Store { ptr, .. } => *ptr = ptr_op,
                _ => unreachable!(),
            }
            uses.note_inst(f, a.ptr_inst);
            uses.note_inst(f, a.inst);
        }
        split += 1;
    }
    split
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::func::Module;
    use lasagne_lir::inst::Terminator;
    use lasagne_lir::verify::verify_module;

    /// A 16-byte slot accessed as two distinct f64 halves (the lifter's XMM
    /// slot shape) splits into two 8-byte slots, then promotes.
    #[test]
    fn splits_xmm_style_slot() {
        let mut f = Function::new("f", vec![Ty::F64, Ty::F64], Ty::F64);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 16 });
        // low half
        let lo_ptr = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(slot),
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(lo_ptr),
                val: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        // high half
        let hi = f.push(
            e,
            Ty::Ptr(Pointee::I8),
            InstKind::Gep {
                base: Operand::Inst(slot),
                offset: Operand::i64(8),
                elem_size: 1,
            },
        );
        let hi_ptr = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(hi),
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(hi_ptr),
                val: Operand::Param(1),
                order: Ordering::NotAtomic,
            },
        );
        // read back the low half
        let lo_ptr2 = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(slot),
            },
        );
        let l = f.push(
            e,
            Ty::F64,
            InstKind::Load {
                ptr: Operand::Inst(lo_ptr2),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );

        assert_eq!(sroa(&mut f), 1);
        crate::dce::dce(&mut f);
        let promoted = mem2reg(&mut f);
        assert!(promoted >= 2, "split slots should promote, got {promoted}");

        let mut m = Module::new();
        let id = m.add_func(f);
        verify_module(&m).unwrap();
        let mut machine = lasagne_lir::interp::Machine::new(&m);
        let r = machine
            .run(
                id,
                &[
                    lasagne_lir::interp::Val::B64(1.5f64.to_bits()),
                    lasagne_lir::interp::Val::B64(9.0f64.to_bits()),
                ],
            )
            .unwrap();
        assert_eq!(r.ret.unwrap().f64(), 1.5);
    }

    /// Overlapping accesses (0..8 and 4..12) block splitting.
    #[test]
    fn overlap_blocks_sroa() {
        let mut f = Function::new("f", vec![Ty::F64], Ty::Void);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 16 });
        let p0 = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(slot),
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(p0),
                val: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        let g = f.push(
            e,
            Ty::Ptr(Pointee::I8),
            InstKind::Gep {
                base: Operand::Inst(slot),
                offset: Operand::i64(4),
                elem_size: 1,
            },
        );
        let p1 = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(g),
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(p1),
                val: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        assert_eq!(sroa(&mut f), 0);
    }

    /// An escaping pointer blocks splitting.
    #[test]
    fn escape_blocks_sroa() {
        let mut f = Function::new("f", vec![], Ty::I64);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 16 });
        let p = f.push(
            e,
            Ty::I64,
            InstKind::Cast {
                op: CastOp::PtrToInt,
                val: Operand::Inst(slot),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(p)),
            },
        );
        assert_eq!(sroa(&mut f), 0);
    }

    /// Derived pointers follow the layout: a `bitcast` placed before the
    /// `gep` it casts is not derived from the slot, so the load through it
    /// is no access and keeps its pointer when the slot splits.
    #[test]
    fn derived_pointers_follow_layout_order() {
        let mut f = Function::new("f", vec![Ty::F64], Ty::Void);
        let e = f.entry();
        let late = f.add_block();
        let slot = f.push(e, Ty::Ptr(Pointee::I8), InstKind::Alloca { size: 16 });
        let cast = |f: &mut Function, b, v| {
            f.push(
                b,
                Ty::Ptr(Pointee::F64),
                InstKind::Cast {
                    op: CastOp::BitCast,
                    val: Operand::Inst(v),
                },
            )
        };
        let gep8 = |f: &mut Function, b| {
            f.push(
                b,
                Ty::Ptr(Pointee::I8),
                InstKind::Gep {
                    base: Operand::Inst(slot),
                    offset: Operand::i64(8),
                    elem_size: 1,
                },
            )
        };
        let store = |f: &mut Function, b, p| {
            f.push(
                b,
                Ty::Void,
                InstKind::Store {
                    ptr: Operand::Inst(p),
                    val: Operand::Param(0),
                    order: Ordering::NotAtomic,
                },
            )
        };
        let lo = cast(&mut f, e, slot);
        store(&mut f, e, lo);
        let hi = gep8(&mut f, e);
        let hi_ptr = cast(&mut f, e, hi);
        store(&mut f, e, hi_ptr);
        // A cast of a gep that only appears later in the layout.
        let early = f.insts.len() as u32 + 2;
        let early_cast = f.push(
            e,
            Ty::Ptr(Pointee::F64),
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(InstId(early)),
            },
        );
        let l = f.push(
            e,
            Ty::F64,
            InstKind::Load {
                ptr: Operand::Inst(early_cast),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(e, Terminator::Br { dest: late });
        let late_gep = gep8(&mut f, late);
        assert_eq!(late_gep, InstId(early));
        f.set_term(late, Terminator::Ret { val: None });

        assert_eq!(sroa(&mut f), 1);
        assert_eq!(
            f.inst(l).kind,
            InstKind::Load {
                ptr: Operand::Inst(early_cast),
                order: Ordering::NotAtomic,
            }
        );
        assert_eq!(
            f.inst(early_cast).kind,
            InstKind::Cast {
                op: CastOp::BitCast,
                val: Operand::Inst(late_gep),
            }
        );
    }
}
