//! Global value numbering + redundant-load elimination.
//!
//! Pure expressions are numbered over the dominator tree; repeated
//! computations are replaced by their dominating occurrence. One value
//! table serves the whole walk: the walk logs every key a block inserts
//! and, on leaving that block's dominator subtree, removes exactly those
//! keys, so each block sees the keys of its dominators and nothing else.
//! Memory redundancy (read-after-read, read-after-write) is eliminated
//! *within blocks only*, gated by the Figure 11b legality rules from
//! `lasagne-fences` so that fences between accesses are respected.

use lasagne_fences::legality::{elim_adjacent, elim_fenced, Label};
use lasagne_lir::analysis::Dominators;
use lasagne_lir::func::{Function, Module};
use lasagne_lir::hash::FastMap;
use lasagne_lir::inst::{FenceKind, InstId, InstKind, Operand, Ordering};
use lasagne_lir::uses::Uses;
use lasagne_lir::BlockId;

/// A hashable key for pure instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Bin(lasagne_lir::inst::BinOp, OpKey, OpKey),
    ICmp(lasagne_lir::inst::IPred, OpKey, OpKey),
    FCmp(lasagne_lir::inst::FPred, OpKey, OpKey),
    Cast(lasagne_lir::inst::CastOp, lasagne_lir::Ty, OpKey),
    /// Geps of one address may differ in pointer type.
    Gep(OpKey, OpKey, u64, lasagne_lir::Ty),
    Select(OpKey, OpKey, OpKey),
    Extract(OpKey, u32),
}

/// An operand as a key. Ordered so commutative operands can be put in a
/// canonical order; any total order yields the same equivalence classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum OpKey {
    Inst(u32),
    Param(u32),
    CInt(u64, lasagne_lir::Ty),
    CF32(u32),
    CF64(u64),
    Global(u32),
    Func(u32),
    Undef(lasagne_lir::Ty),
}

fn op_key(op: &Operand) -> OpKey {
    match op {
        Operand::Inst(i) => OpKey::Inst(i.0),
        Operand::Param(p) => OpKey::Param(*p),
        Operand::ConstInt { ty, val } => OpKey::CInt(*val, *ty),
        Operand::ConstF32(b) => OpKey::CF32(*b),
        Operand::ConstF64(b) => OpKey::CF64(*b),
        Operand::Global(g) => OpKey::Global(g.0),
        Operand::Func(f) => OpKey::Func(f.0),
        Operand::Undef(ty) => OpKey::Undef(*ty),
    }
}

fn key_of(kind: &InstKind, ty: lasagne_lir::Ty) -> Option<Key> {
    Some(match kind {
        InstKind::Bin { op, lhs, rhs } => {
            // Canonicalise commutative operands.
            let (a, b) = (op_key(lhs), op_key(rhs));
            if op.commutative() && b < a {
                Key::Bin(*op, b, a)
            } else {
                Key::Bin(*op, a, b)
            }
        }
        InstKind::ICmp { pred, lhs, rhs } => Key::ICmp(*pred, op_key(lhs), op_key(rhs)),
        InstKind::FCmp { pred, lhs, rhs } => Key::FCmp(*pred, op_key(lhs), op_key(rhs)),
        InstKind::Cast { op, val } => Key::Cast(*op, ty, op_key(val)),
        InstKind::Gep {
            base,
            offset,
            elem_size,
        } => Key::Gep(op_key(base), op_key(offset), *elem_size, ty),
        InstKind::Select {
            cond,
            if_true,
            if_false,
        } => Key::Select(op_key(cond), op_key(if_true), op_key(if_false)),
        InstKind::ExtractElement { vec, idx } => Key::Extract(op_key(vec), *idx),
        _ => return None,
    })
}

/// The value table: one map plus a log of the keys inserted, in order.
/// A dominator-tree scope owns the log's suffix past the mark taken when
/// the scope opened; closing the scope removes those keys again.
#[derive(Clone, Default)]
struct ScopedTable {
    map: FastMap<Key, InstId>,
    log: Vec<Key>,
    /// Inserts plus removes so far: a deterministic work counter.
    ops: u64,
}

impl ScopedTable {
    fn get(&self, key: &Key) -> Option<InstId> {
        self.map.get(key).copied()
    }

    /// Inserts a key absent from the table.
    fn insert(&mut self, key: Key, id: InstId) {
        self.map.insert(key, id);
        self.log.push(key);
        self.ops += 1;
    }

    fn mark(&self) -> usize {
        self.log.len()
    }

    /// Removes every key inserted since `mark`.
    fn close(&mut self, mark: usize) {
        for key in self.log.drain(mark..) {
            self.map.remove(&key);
            self.ops += 1;
        }
    }
}

/// Runs GVN over a function. Returns the number of instructions replaced.
pub fn gvn(m: &Module, f: &mut Function) -> usize {
    gvn_with(m, f, &mut lasagne_lir::analysis::Analyses::new())
}

/// [`gvn`] against a shared analysis cache: the CFG and dominator tree
/// come from the cache, which is valid across every pass except sccp's
/// branch folds (GVN itself only rewrites instructions, never terminator
/// targets, so the cache survives its own run too). The walk itself is
/// linear: one value table, scoped by an undo log, no per-block copies.
pub fn gvn_with(m: &Module, f: &mut Function, an: &mut lasagne_lir::analysis::Analyses) -> usize {
    let _ = m;
    let (_, doms) = an.cfg_and_doms(f);
    number(f, doms).0
}

/// Dominator-tree children of every block, in block order.
fn dom_children(f: &Function, doms: &Dominators) -> Vec<Vec<BlockId>> {
    let mut children: Vec<Vec<BlockId>> = vec![Vec::new(); f.blocks.len()];
    for b in f.block_ids() {
        if let Some(d) = doms.idom[b.0 as usize] {
            children[d.0 as usize].push(b);
        }
    }
    children
}

/// Numbers `f` depth-first over its dominator tree, children last-first.
/// Returns the instructions replaced and the table operations it took.
fn number(f: &mut Function, doms: &Dominators) -> (usize, u64) {
    enum Step {
        Enter(BlockId),
        /// Close the scope whose log mark this is.
        Leave(usize),
    }
    let children = dom_children(f, doms);
    let mut table = ScopedTable::default();
    let mut replaced = 0;
    let mut uses = Uses::new();
    let mut dead = vec![false; f.insts.len()];
    let mut stack = vec![Step::Enter(BlockId(0))];
    while let Some(step) = stack.pop() {
        match step {
            Step::Enter(b) => {
                stack.push(Step::Leave(table.mark()));
                replaced += number_block(f, b, &mut table, &mut uses, &mut dead);
                stack.extend(children[b.0 as usize].iter().map(|&c| Step::Enter(c)));
            }
            Step::Leave(mark) => table.close(mark),
        }
    }
    (replaced, table.ops)
}

fn number_block(
    f: &mut Function,
    b: BlockId,
    table: &mut ScopedTable,
    uses: &mut Uses,
    dead: &mut [bool],
) -> usize {
    let mut replaced = 0;
    for k in 0..f.block(b).insts.len() {
        let id = f.block(b).insts[k];
        let inst = f.inst(id);
        let Some(key) = key_of(&inst.kind, inst.ty) else {
            continue;
        };
        match table.get(&key) {
            Some(prev) => {
                uses.replace(f, id, Operand::Inst(prev));
                dead[id.0 as usize] = true;
                replaced += 1;
            }
            None => table.insert(key, id),
        }
    }
    if replaced > 0 {
        f.block_mut(b).insts.retain(|i| !dead[i.0 as usize]);
    }
    replaced
}

/// Redundant load elimination within blocks, honouring Figure 11b.
///
/// Tracks, per pointer SSA value, the most recent load result or stored
/// value; an intervening store/RMW/call to *any* pointer invalidates the
/// whole table (no alias analysis); fences invalidate according to the
/// fenced-elimination rules. One table serves every block, cleared at
/// each block's start.
pub fn load_elim(f: &mut Function) -> usize {
    // Available value per pointer: (value operand and its type, producing
    // label, fence seen since (strongest first)). A value forwards only to
    // a load of its own type: a narrower or wider access is another value.
    struct Avail {
        val: Operand,
        ty: lasagne_lir::Ty,
        label: Label,
        fence: Option<FenceKind>,
    }
    let mut replaced = 0;
    let mut uses = Uses::new();
    let mut dead = vec![false; f.insts.len()];
    let mut avail: FastMap<OpKey, Avail> = FastMap::default();
    for b in f.block_ids() {
        avail.clear();
        let mut killed = false;
        for k in 0..f.block(b).insts.len() {
            let id = f.block(b).insts[k];
            match f.inst(id).kind {
                InstKind::Load {
                    ptr,
                    order: Ordering::NotAtomic,
                } => {
                    let key = op_key(&ptr);
                    let ty = f.inst(id).ty;
                    if let Some(a) = avail.get(&key).filter(|a| a.ty == ty) {
                        let ok = match a.fence {
                            None => elim_adjacent(a.label, Label::Rna).is_some(),
                            Some(fk) => elim_fenced(a.label, fk, Label::Rna).is_some(),
                        };
                        if ok {
                            uses.replace(f, id, a.val);
                            dead[id.0 as usize] = true;
                            killed = true;
                            replaced += 1;
                            continue;
                        }
                    }
                    avail.insert(
                        key,
                        Avail {
                            val: Operand::Inst(id),
                            ty,
                            label: Label::Rna,
                            fence: None,
                        },
                    );
                }
                InstKind::Store {
                    ptr,
                    val,
                    order: Ordering::NotAtomic,
                } => {
                    // A store to one pointer may alias others: drop
                    // everything except this pointer's entry.
                    avail.clear();
                    avail.insert(
                        op_key(&ptr),
                        Avail {
                            val,
                            ty: f.operand_ty(&val),
                            label: Label::Wna,
                            fence: None,
                        },
                    );
                }
                InstKind::Fence { kind: fk } => {
                    for a in avail.values_mut() {
                        a.fence = Some(match a.fence {
                            None => fk,
                            Some(prev) => lasagne_fences::legality::merge_fence(prev, fk),
                        });
                    }
                }
                ref k if k.touches_memory() => avail.clear(),
                _ => {}
            }
        }
        if killed {
            f.block_mut(b).insts.retain(|i| !dead[i.0 as usize]);
        }
    }
    replaced
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne_lir::analysis::Cfg;
    use lasagne_lir::inst::{BinOp, Ordering, Terminator};
    use lasagne_lir::inst::{CastOp, GlobalId, IPred};
    use lasagne_lir::types::{Pointee, Ty};
    use lasagne_lir::verify::verify_module;
    use lasagne_lir::FuncId;
    use lasagne_qc::prelude::*;

    /// The numbering before scoping, kept as the oracle for [`number`]:
    /// every dominator-tree child gets its own copy of its parent's table.
    fn number_clone_per_child(f: &mut Function, doms: &Dominators) -> usize {
        let children = dom_children(f, doms);
        let mut replaced = 0;
        let mut uses = Uses::new();
        let mut dead = vec![false; f.insts.len()];
        let mut stack = vec![(BlockId(0), ScopedTable::default())];
        while let Some((b, mut table)) = stack.pop() {
            replaced += number_block(f, b, &mut table, &mut uses, &mut dead);
            for &c in &children[b.0 as usize] {
                stack.push((c, table.clone()));
            }
        }
        replaced
    }

    /// splitmix64, so a case is a pure function of its seed.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }

        fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
            xs[self.below(xs.len())]
        }
    }

    /// A verified function over a random CFG whose dominator tree nests:
    /// a random spanning tree (up to two children per block) plus forward
    /// cross edges, which hoist idoms above tree parents, and back edges.
    /// Each block computes pure i64/i32/i1 expressions over a small pool
    /// of parameters, constants, `undef`s and values of its dominators, so
    /// equal expressions recur across the tree.
    fn random_cfg(seed: u64) -> Function {
        let mut rng = Rng(seed);
        let mut f = Function::new("f", vec![Ty::I64, Ty::I64, Ty::I1], Ty::I64);
        let n = 2 + rng.below(15);
        let mut kids: Vec<Vec<BlockId>> = vec![Vec::new(); n];
        for b in 1..n {
            f.add_block();
            let open: Vec<usize> = (0..b).filter(|&p| kids[p].len() < 2).collect();
            kids[rng.pick(&open)].push(BlockId(b as u32));
        }
        for b in 0..n {
            let bb = BlockId(b as u32);
            let extra = BlockId(rng.below(n) as u32);
            let term = match kids[b][..] {
                [] => Terminator::Ret {
                    val: Some(Operand::Param(0)),
                },
                [c] if extra != bb && rng.below(2) == 0 => Terminator::CondBr {
                    cond: Operand::Param(2),
                    if_true: c,
                    if_false: extra,
                },
                [c] => Terminator::Br { dest: c },
                [c, d, ..] => Terminator::CondBr {
                    cond: Operand::Param(2),
                    if_true: c,
                    if_false: d,
                },
            };
            f.set_term(bb, term);
        }
        let cfg = Cfg::compute(&f);
        let doms = Dominators::compute(&cfg);
        let mut defs: Vec<Vec<(Ty, Operand)>> = vec![Vec::new(); n];
        for b in 0..n {
            let bb = BlockId(b as u32);
            let mut avail: Vec<(Ty, Operand)> = vec![
                (Ty::I64, Operand::Param(0)),
                (Ty::I64, Operand::Param(1)),
                (Ty::I64, Operand::i64(1)),
                (Ty::I64, Operand::Undef(Ty::I64)),
                (
                    Ty::I32,
                    Operand::ConstInt {
                        ty: Ty::I32,
                        val: 1,
                    },
                ),
                (Ty::I32, Operand::Undef(Ty::I32)),
                (Ty::I1, Operand::Param(2)),
            ];
            let mut d = doms.idom[b];
            while let Some(p) = d {
                avail.extend_from_slice(&defs[p.0 as usize]);
                d = doms.idom[p.0 as usize];
            }
            for _ in 0..rng.below(10) {
                let of = |rng: &mut Rng, avail: &[(Ty, Operand)], ty: Ty| {
                    let pool: Vec<Operand> = avail
                        .iter()
                        .filter(|(t, _)| *t == ty)
                        .map(|&(_, o)| o)
                        .collect();
                    rng.pick(&pool)
                };
                let ty = rng.pick(&[Ty::I64, Ty::I32]);
                let (rty, kind) = match rng.below(5) {
                    0 => (
                        Ty::I1,
                        InstKind::ICmp {
                            pred: IPred::Ult,
                            lhs: of(&mut rng, &avail, ty),
                            rhs: of(&mut rng, &avail, ty),
                        },
                    ),
                    1 => (
                        ty,
                        InstKind::Select {
                            cond: of(&mut rng, &avail, Ty::I1),
                            if_true: of(&mut rng, &avail, ty),
                            if_false: of(&mut rng, &avail, ty),
                        },
                    ),
                    2 => (
                        Ty::I32,
                        InstKind::Cast {
                            op: CastOp::Trunc,
                            val: of(&mut rng, &avail, Ty::I64),
                        },
                    ),
                    _ => (
                        ty,
                        InstKind::Bin {
                            op: rng.pick(&[BinOp::Add, BinOp::Mul, BinOp::Sub]),
                            lhs: of(&mut rng, &avail, ty),
                            rhs: of(&mut rng, &avail, ty),
                        },
                    ),
                };
                let id = f.push(bb, rty, kind);
                avail.push((rty, Operand::Inst(id)));
                defs[b].push((rty, Operand::Inst(id)));
            }
        }
        f
    }

    fn verified(f: &Function) -> Result<(), String> {
        let mut m = Module::new();
        m.add_func(f.clone());
        verify_module(&m).map_err(|e| format!("{e:?}"))
    }

    properties! {
        config = Config::with_cases(256);

        /// The scoped table replaces exactly what a per-child copy of the
        /// table did, leaving identical IR, on nested dominator trees.
        fn scoped_table_matches_clone_per_child(seed in any::<u64>()) {
            let f = random_cfg(seed);
            verified(&f).expect("generator builds valid functions");
            let doms = Dominators::compute(&Cfg::compute(&f));
            let (mut fast, mut slow) = (f.clone(), f);
            let (replaced, _) = number(&mut fast, &doms);
            prop_assert_eq!(replaced, number_clone_per_child(&mut slow, &doms));
            prop_assert_eq!(&fast, &slow);
            verified(&fast).map_err(TestCaseError::fail)?;
        }
    }

    #[test]
    fn random_cfgs_have_nested_dominator_trees() {
        // The property above is only as good as its trees: some cases
        // must have a block with two dominator children below the entry,
        // and some must have an idom above the spanning-tree parent.
        let nested = (0..256u64)
            .filter(|&s| {
                let f = random_cfg(s);
                let doms = Dominators::compute(&Cfg::compute(&f));
                dom_children(&f, &doms).iter().skip(1).any(|c| c.len() >= 2)
            })
            .count();
        assert!(nested >= 64, "only {nested}/256 cases nest");
    }

    /// A chain of `n` blocks, each dominating the next, each computing
    /// four fresh expressions plus one its dominator already computed.
    fn dominator_chain(n: usize) -> Function {
        let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
        for b in 0..n {
            let bb = BlockId(b as u32);
            for j in 0..5u64 {
                let k = if j == 4 && b > 0 {
                    5 * (b as u64 - 1)
                } else {
                    5 * b as u64 + j
                };
                f.push(
                    bb,
                    Ty::I64,
                    InstKind::Bin {
                        op: BinOp::Add,
                        lhs: Operand::Param(0),
                        rhs: Operand::i64(k as i64),
                    },
                );
            }
            let term = if b + 1 == n {
                Terminator::Ret {
                    val: Some(Operand::Param(0)),
                }
            } else {
                Terminator::Br {
                    dest: f.add_block(),
                }
            };
            f.set_term(bb, term);
        }
        f
    }

    #[test]
    fn table_work_is_linear_on_a_dominator_chain() {
        let work = |n: usize| {
            let mut f = dominator_chain(n);
            let doms = Dominators::compute(&Cfg::compute(&f));
            let (replaced, ops) = number(&mut f, &doms);
            assert_eq!(replaced, n - 1);
            ops
        };
        let (w, w4) = (work(64), work(256));
        assert!(w >= 2 * 4 * 64, "work must be counted: {w}");
        assert!(
            w4 as f64 <= 4.5 * w as f64,
            "table inserts + removes grew {w} → {w4} for 4× the blocks"
        );
    }

    #[test]
    fn undef_keys_keep_their_type() {
        // `add i32 undef, undef` and `add i64 undef, undef` are different
        // values; merging them would hand an i64 user an i32.
        let m = Module::new();
        let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
        let e = f.entry();
        for ty in [Ty::I32, Ty::I64] {
            f.push(
                e,
                ty,
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Operand::Undef(ty),
                    rhs: Operand::Undef(ty),
                },
            );
        }
        let sum = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(InstId(1)),
                rhs: Operand::Param(0),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(sum)),
            },
        );
        verified(&f).expect("input verifies");
        assert_eq!(gvn(&m, &mut f), 0);
        verified(&f).expect("gvn output verifies");
    }

    #[test]
    fn gep_keys_keep_their_result_type() {
        // Two geps of one address with different pointer types are
        // different values: merging them mistypes the select below.
        let m = Module::new();
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I8), Ty::I1], Ty::I32);
        let e = f.entry();
        let gep = |offset| InstKind::Gep {
            base: Operand::Param(0),
            offset: Operand::i64(offset),
            elem_size: 1,
        };
        f.push(e, Ty::Ptr(Pointee::I64), gep(8));
        let a = f.push(e, Ty::Ptr(Pointee::I32), gep(8));
        let b = f.push(e, Ty::Ptr(Pointee::I32), gep(16));
        let s = f.push(
            e,
            Ty::Ptr(Pointee::I32),
            InstKind::Select {
                cond: Operand::Param(1),
                if_true: Operand::Inst(a),
                if_false: Operand::Inst(b),
            },
        );
        let l = f.push(
            e,
            Ty::I32,
            InstKind::Load {
                ptr: Operand::Inst(s),
                order: Ordering::NotAtomic,
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        verified(&f).expect("input verifies");
        assert_eq!(gvn(&m, &mut f), 0);
        verified(&f).expect("gvn output verifies");
    }

    #[test]
    fn load_elim_forwards_only_to_loads_of_its_type() {
        // `first` then `then` through one i8* pointer: a value of another
        // width must not stand in for the second access.
        for (store_first, first, then) in [
            (false, Ty::I32, Ty::I64),
            (false, Ty::I64, Ty::I32),
            (true, Ty::I64, Ty::I32),
            (true, Ty::I32, Ty::I64),
        ] {
            let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I8), Ty::I64], Ty::I64);
            let e = f.entry();
            let first_val = if store_first {
                let v = f.push(
                    e,
                    first,
                    InstKind::Bin {
                        op: BinOp::Add,
                        lhs: Operand::Undef(first),
                        rhs: Operand::Undef(first),
                    },
                );
                f.push(
                    e,
                    Ty::Void,
                    InstKind::Store {
                        ptr: Operand::Param(0),
                        val: Operand::Inst(v),
                        order: Ordering::NotAtomic,
                    },
                );
                v
            } else {
                f.push(
                    e,
                    first,
                    InstKind::Load {
                        ptr: Operand::Param(0),
                        order: Ordering::NotAtomic,
                    },
                )
            };
            let second = f.push(
                e,
                then,
                InstKind::Load {
                    ptr: Operand::Param(0),
                    order: Ordering::NotAtomic,
                },
            );
            let widen = |f: &mut Function, v: InstId, ty: Ty| match ty {
                Ty::I64 => Operand::Inst(v),
                _ => Operand::Inst(f.push(
                    e,
                    Ty::I64,
                    InstKind::Cast {
                        op: CastOp::ZExt,
                        val: Operand::Inst(v),
                    },
                )),
            };
            let (x, y) = (widen(&mut f, first_val, first), widen(&mut f, second, then));
            let sum = f.push(
                e,
                Ty::I64,
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: x,
                    rhs: y,
                },
            );
            f.set_term(
                e,
                Terminator::Ret {
                    val: Some(Operand::Inst(sum)),
                },
            );
            verified(&f).expect("input verifies");
            assert_eq!(
                load_elim(&mut f),
                0,
                "store first {store_first}: {first} then {then}"
            );
            verified(&f).expect("load_elim output verifies");
        }
    }

    #[test]
    fn commutative_keys_across_operand_kinds() {
        let pool = [
            Operand::Inst(InstId(9)),
            Operand::Inst(InstId(10)),
            Operand::Param(0),
            Operand::Param(10),
            Operand::ConstInt {
                ty: Ty::I32,
                val: 9,
            },
            Operand::ConstInt {
                ty: Ty::I64,
                val: 9,
            },
            Operand::ConstF32(9),
            Operand::ConstF64(9),
            Operand::Global(GlobalId(9)),
            Operand::Func(FuncId(9)),
            Operand::Undef(Ty::I32),
            Operand::Undef(Ty::I64),
        ];
        let key = |op, lhs, rhs| key_of(&InstKind::Bin { op, lhs, rhs }, Ty::I64);
        for &a in &pool {
            for &b in &pool {
                assert_eq!(
                    key(BinOp::Add, a, b),
                    key(BinOp::Add, b, a),
                    "{a:?} + {b:?}"
                );
                for &c in &pool {
                    for &d in &pool {
                        let same_pair = (a, b) == (c, d) || (a, b) == (d, c);
                        assert_eq!(
                            key(BinOp::Add, a, b) == key(BinOp::Add, c, d),
                            same_pair,
                            "{a:?} + {b:?} vs {c:?} + {d:?}"
                        );
                        assert_eq!(
                            key(BinOp::Sub, a, b) == key(BinOp::Sub, c, d),
                            (a, b) == (c, d),
                            "{a:?} - {b:?} vs {c:?} - {d:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn gvn_merges_commutated_inst_operands_nine_and_ten() {
        // The Debug-string order put `Inst(10)` before `Inst(9)`; the
        // structural order puts 9 first. Either way both spellings merge.
        let m = Module::new();
        let mut f = Function::new("f", vec![Ty::I64], Ty::I64);
        let e = f.entry();
        for k in 0..11 {
            f.push(
                e,
                Ty::I64,
                InstKind::Bin {
                    op: BinOp::Add,
                    lhs: Operand::Param(0),
                    rhs: Operand::i64(k),
                },
            );
        }
        let (nine, ten) = (Operand::Inst(InstId(9)), Operand::Inst(InstId(10)));
        let x = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: nine,
                rhs: ten,
            },
        );
        let y = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: ten,
                rhs: nine,
            },
        );
        let s = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Sub,
                lhs: Operand::Inst(x),
                rhs: Operand::Inst(y),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(s)),
            },
        );
        assert_eq!(gvn(&m, &mut f), 1);
        assert!(!f.block(e).insts.contains(&y));
        assert_eq!(
            f.inst(s).kind,
            InstKind::Bin {
                op: BinOp::Sub,
                lhs: Operand::Inst(x),
                rhs: Operand::Inst(x),
            }
        );
    }

    #[test]
    fn gvn_dedups_pure_expressions() {
        let mut m = Module::new();
        let mut f = Function::new("f", vec![Ty::I64, Ty::I64], Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::Param(1),
            },
        );
        let b = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::Param(1),
            },
        );
        let c = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Mul,
                lhs: Operand::Inst(a),
                rhs: Operand::Inst(b),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(c)),
            },
        );
        assert_eq!(gvn(&m, &mut f), 1);
        let _ = &mut m;
        match &f.inst(c).kind {
            InstKind::Bin { lhs, rhs, .. } => assert_eq!(lhs, rhs),
            _ => unreachable!(),
        }
    }

    #[test]
    fn gvn_commutative_canonicalisation() {
        let m = Module::new();
        let mut f = Function::new("f", vec![Ty::I64, Ty::I64], Ty::I64);
        let e = f.entry();
        let a = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(0),
                rhs: Operand::Param(1),
            },
        );
        let b = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(1),
                rhs: Operand::Param(0),
            },
        );
        let c = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Sub,
                lhs: Operand::Inst(a),
                rhs: Operand::Inst(b),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(c)),
            },
        );
        assert_eq!(gvn(&m, &mut f), 1, "a+b and b+a must value-number equal");
    }

    #[test]
    fn gvn_respects_dominance() {
        // Same expression in two sibling branches must NOT be deduped.
        let m = Module::new();
        let mut f = Function::new("f", vec![Ty::I1, Ty::I64], Ty::I64);
        let e = f.entry();
        let t = f.add_block();
        let el = f.add_block();
        f.set_term(
            e,
            Terminator::CondBr {
                cond: Operand::Param(0),
                if_true: t,
                if_false: el,
            },
        );
        let a = f.push(
            t,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(1),
                rhs: Operand::i64(1),
            },
        );
        f.set_term(
            t,
            Terminator::Ret {
                val: Some(Operand::Inst(a)),
            },
        );
        let b = f.push(
            el,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Param(1),
                rhs: Operand::i64(1),
            },
        );
        f.set_term(
            el,
            Terminator::Ret {
                val: Some(Operand::Inst(b)),
            },
        );
        assert_eq!(gvn(&m, &mut f), 0);
    }

    #[test]
    fn load_elim_raw() {
        // store p, v; x = load p  ⇒ x = v
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64), Ty::I64], Ty::I64);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::Param(1),
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
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        assert_eq!(load_elim(&mut f), 1);
        match f.block(e).term {
            Terminator::Ret {
                val: Some(Operand::Param(1)),
            } => {}
            ref t => panic!("load not forwarded: {t:?}"),
        }
    }

    #[test]
    fn load_elim_rar_through_frm() {
        // x = load p; Frm; y = load p ⇒ y = x (F-RAR with o = rm is legal).
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
        let e = f.entry();
        let x = f.push(
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
            InstKind::Fence {
                kind: FenceKind::Frm,
            },
        );
        let y = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        let s = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(x),
                rhs: Operand::Inst(y),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(s)),
            },
        );
        assert_eq!(load_elim(&mut f), 1);
    }

    #[test]
    fn load_elim_blocked_by_fsc_after_read() {
        // x = load p; Fsc; y = load p — F-RAR with Fsc is NOT in Figure 11b.
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64)], Ty::I64);
        let e = f.entry();
        let x = f.push(
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
            InstKind::Fence {
                kind: FenceKind::Fsc,
            },
        );
        let y = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        let s = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(x),
                rhs: Operand::Inst(y),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(s)),
            },
        );
        assert_eq!(load_elim(&mut f), 0);
    }

    #[test]
    fn load_elim_raw_through_fww() {
        // store p, v; Fww; x = load p ⇒ x = v (F-RAW with τ = ww).
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64), Ty::I64], Ty::I64);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::Param(1),
                order: Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Fww,
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
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        assert_eq!(load_elim(&mut f), 1);
    }

    #[test]
    fn load_elim_raw_blocked_by_frm() {
        // store p, v; Frm; x = load p — F-RAW with Frm is NOT legal.
        let mut f = Function::new("f", vec![Ty::Ptr(Pointee::I64), Ty::I64], Ty::I64);
        let e = f.entry();
        f.push(
            e,
            Ty::Void,
            InstKind::Store {
                ptr: Operand::Param(0),
                val: Operand::Param(1),
                order: Ordering::NotAtomic,
            },
        );
        f.push(
            e,
            Ty::Void,
            InstKind::Fence {
                kind: FenceKind::Frm,
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
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(l)),
            },
        );
        assert_eq!(load_elim(&mut f), 0);
    }

    #[test]
    fn load_elim_invalidated_by_other_store() {
        let mut f = Function::new(
            "f",
            vec![Ty::Ptr(Pointee::I64), Ty::Ptr(Pointee::I64)],
            Ty::I64,
        );
        let e = f.entry();
        let x = f.push(
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
                ptr: Operand::Param(1),
                val: Operand::i64(0),
                order: Ordering::NotAtomic,
            },
        );
        let y = f.push(
            e,
            Ty::I64,
            InstKind::Load {
                ptr: Operand::Param(0),
                order: Ordering::NotAtomic,
            },
        );
        let s = f.push(
            e,
            Ty::I64,
            InstKind::Bin {
                op: BinOp::Add,
                lhs: Operand::Inst(x),
                rhs: Operand::Inst(y),
            },
        );
        f.set_term(
            e,
            Terminator::Ret {
                val: Some(Operand::Inst(s)),
            },
        );
        assert_eq!(
            load_elim(&mut f),
            0,
            "potentially aliasing store blocks reuse"
        );
    }
}
