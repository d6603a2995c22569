//! Dead-store elimination, gated by the Figure 11b WAW rules.

use lasagne_fences::legality::{elim_adjacent, elim_fenced, Elim, Label};
use lasagne_lir::func::Function;
use lasagne_lir::hash::FastMap;
use lasagne_lir::inst::{FenceKind, InstId, InstKind, Operand, Ordering};
use lasagne_lir::uses::{Site, Uses};
use lasagne_lir::Ty;

/// Eliminates overwritten non-atomic stores within basic blocks.
///
/// `store p, a; … ; store p, b` kills the first store when `a` and `b` have
/// the same type, nothing between them can read `p` (no loads, calls, or
/// RMWs at all, conservatively) and any intervening fences admit the
/// W-after-W elimination of Figure 11b (`Frm`/`Fww` do; `Fsc` does not).
pub fn dse(f: &mut Function) -> usize {
    let mut removed = 0;
    let mut dead = vec![false; f.insts.len()];
    // Pending store per (pointer, stored type): (inst id, strongest fence
    // since). One table serves every block, cleared at each block's start.
    let mut pending: FastMap<(Operand, Ty), (InstId, Option<FenceKind>)> = FastMap::default();
    for b in f.block_ids() {
        pending.clear();
        let mut killed = false;
        for &id in &f.block(b).insts {
            match f.inst(id).kind {
                InstKind::Store {
                    ptr,
                    val,
                    order: Ordering::NotAtomic,
                } => {
                    let key = (ptr, f.operand_ty(&val));
                    if let Some((prev, fence)) = pending.get(&key) {
                        let legal = match fence {
                            None => elim_adjacent(Label::Wna, Label::Wna) == Some(Elim::DropFirst),
                            Some(fk) => {
                                elim_fenced(Label::Wna, *fk, Label::Wna) == Some(Elim::DropFirst)
                            }
                        };
                        if legal {
                            dead[prev.0 as usize] = true;
                            killed = true;
                            removed += 1;
                        }
                    }
                    pending.insert(key, (id, None));
                }
                InstKind::Fence { kind } => {
                    for (_, fence) in pending.values_mut() {
                        *fence = Some(match fence {
                            None => kind,
                            Some(prev) => lasagne_fences::legality::merge_fence(*prev, kind),
                        });
                    }
                }
                ref k if k.touches_memory() => pending.clear(),
                _ => {}
            }
        }
        if killed {
            f.block_mut(b).insts.retain(|i| !dead[i.0 as usize]);
        }
    }
    removed
}

/// Removes stores to allocas that are never loaded anywhere in the function
/// (and whose address never escapes) — common after register promotion.
///
/// Stores are the only users this deletes, so a slot that any other
/// instruction reads can never qualify; one walk over the function sets
/// those aside, stopping once every slot is. The remaining slots take their
/// users from the function's [`Uses`] index, in layout order of the slots;
/// a user counts while it is still in a block.
pub fn dse_dead_slots(f: &mut Function) -> usize {
    let mut in_block = vec![false; f.insts.len()];
    let mut allocas: Vec<InstId> = Vec::new();
    for (_, id) in f.iter_insts() {
        in_block[id.0 as usize] = true;
        if matches!(f.inst(id).kind, InstKind::Alloca { .. }) {
            allocas.push(id);
        }
    }
    if allocas.is_empty() {
        return 0;
    }
    // Per instruction: 1 = an unread slot, 2 = a slot something reads.
    let mut state = vec![0u8; f.insts.len()];
    for a in &allocas {
        state[a.0 as usize] = 1;
    }
    let mut unread = allocas.len();
    for (_, id) in f.iter_insts() {
        let kind = &f.inst(id).kind;
        if !matches!(kind, InstKind::Store { .. }) {
            kind.for_each_operand(|op| {
                if let Operand::Inst(p) = op {
                    if state[p.0 as usize] == 1 {
                        state[p.0 as usize] = 2;
                        unread -= 1;
                    }
                }
            });
        }
        if unread == 0 {
            return 0;
        }
    }
    allocas.retain(|a| state[a.0 as usize] == 1);
    let mut uses = Uses::new();
    let mut removed = 0;
    for slot in allocas {
        let this = Operand::Inst(slot);
        let mut only_stores = true;
        let mut stores: Vec<InstId> = Vec::new();
        for site in uses.sites(f, slot) {
            let Site::Inst(id) = site else { continue };
            if !in_block[id.0 as usize] {
                continue;
            }
            match &f.inst(id).kind {
                InstKind::Store {
                    ptr,
                    val,
                    order: Ordering::NotAtomic,
                } if *ptr == this && *val != this => {
                    stores.push(id);
                }
                _ => {
                    only_stores = false;
                    break;
                }
            }
        }
        if only_stores && !stores.is_empty() {
            removed += stores.len();
            for id in stores {
                in_block[id.0 as usize] = false;
            }
        }
    }
    if removed > 0 {
        for b in &mut f.blocks {
            b.insts.retain(|i| in_block[i.0 as usize]);
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::inst::Terminator;
    use lasagne_lir::types::{Pointee, Ty};

    #[test]
    fn overwritten_store_removed() {
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::Void);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(1),
                order: Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(2),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        assert_eq!(dse(&mut f), 1);
        assert_eq!(f.live_inst_count(), 1);
    }

    #[test]
    fn waw_through_fww_removed_but_not_through_fsc() {
        for (kind, expect) in [
            (FenceKind::Fww, 1),
            (FenceKind::Frm, 1),
            (FenceKind::Fsc, 0),
        ] {
            let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::Void);
            let e = f.entry();
            f.push(
                e,
                Ty::Void,
                InstKind::Store {
                    ptr: Operand::Param(0),
                    val: Operand::i64(1),
                    order: Ordering::NotAtomic,
                },
            );
            f.push(e, Ty::Void, InstKind::Fence { kind });
            f.push(
                e,
                Ty::Void,
                InstKind::Store {
                    ptr: Operand::Param(0),
                    val: Operand::i64(2),
                    order: Ordering::NotAtomic,
                },
            );
            f.set_term(e, Terminator::Ret { val: None });
            assert_eq!(dse(&mut f), expect, "fence {kind:?}");
        }
    }

    #[test]
    fn intervening_load_blocks() {
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(1),
                order: Ordering::NotAtomic,
            },
        );
        let l = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(2),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        assert_eq!(dse(&mut f), 0);
    }

    #[test]
    fn store_of_another_width_does_not_kill() {
        // `store i64; store i32` to one address leaves the i64 store's
        // upper bytes live; only a same-typed store overwrites all of it.
        for (first, then, expect) in [
            (Ty::I64, Ty::I32, 0),
            (Ty::I32, Ty::I64, 0),
            (Ty::I32, Ty::I32, 1),
        ] {
            let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I8)], Ty::Void);
            let e = f.entry();
            for ty in [first, then] {
                f.push(
                    e,
                    Ty::Void,
                    InstKind::Store {
                        ptr: Operand::Param(0),
                        val: Operand::ConstInt { ty, val: 1 },
                        order: Ordering::NotAtomic,
                    },
                );
            }
            f.set_term(e, Terminator::Ret { val: None });
            assert_eq!(dse(&mut f), expect, "{first} then {then}");
        }
    }

    #[test]
    fn dead_slot_stores_removed() {
        let mut f = Function::new("f", vec![], Ty::Void);
        let e = f.entry();
        let slot = f.push(e, Ty::Ptr(Pointee::I64), InstKind::Alloca { size: 8 });
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(1),
                order: Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Inst(slot),
                val: Operand::i64(2),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        assert_eq!(dse_dead_slots(&mut f), 2);
    }

    #[test]
    fn seqcst_store_not_touched() {
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::Void);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(1),
                order: Ordering::SeqCst,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::i64(2),
                order: Ordering::SeqCst,
            },
        );
        f.set_term(e, Terminator::Ret { val: None });
        assert_eq!(dse(&mut f), 0);
    }

    /// Two stores to `ptr_a` then `ptr_b`: the first dies iff the pending
    /// table keys them equal.
    fn overwrites(ptr_a: Operand, ptr_b: Operand) -> usize {
        let mut f = Function::new("f", vec![], Ty::Void);
        let e = f.entry();
        for ptr in [ptr_a, ptr_b] {
            f.push(
                e,
                Ty::Void,
                InstKind::Store {
                    ptr,
                    val: Operand::i64(1),
                    order: Ordering::NotAtomic,
                },
            );
        }
        f.set_term(e, Terminator::Ret { val: None });
        dse(&mut f)
    }

    #[test]
    fn pending_keys_are_exact_operands() {
        let undef = |p| Operand::Undef(Ty::Ptr(p));
        assert_eq!(overwrites(undef(Pointee::I64), undef(Pointee::I64)), 1);
        assert_eq!(overwrites(undef(Pointee::I32), undef(Pointee::I64)), 0);
        // The key is the operand, not its value: a constant address of
        // another integer type is another key (the pass does not type-check
        // addresses, so the ill-typed spelling is fine here).
        let addr = |ty| Operand::ConstInt { ty, val: 4096 };
        assert_eq!(overwrites(addr(Ty::I64), addr(Ty::I64)), 1);
        assert_eq!(overwrites(addr(Ty::I32), addr(Ty::I64)), 0);
    }
}
