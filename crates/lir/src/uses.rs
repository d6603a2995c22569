//! The def → use index: for every instruction result, the instructions and
//! block terminators that read it.
//!
//! Passes that rewrite uses go through [`Uses::replace`], which touches
//! only the sites of the replaced value — O(uses) per replacement instead
//! of a scan over the whole instruction arena. One index lives for one
//! pass call: it is built on the call's first replacement (calls that
//! replace nothing pay nothing) and maintained by the replacements
//! themselves.
//!
//! The index is exact for replacements: every instruction (live or dead
//! arena garbage) and every terminator that holds `Operand::Inst(d)` is on
//! `d`'s site list. A site list may also hold *stale* sites — users that
//! no longer read `d` after an in-place edit — and duplicates; both are
//! harmless, because a replacement only rewrites operands that still
//! equal the replaced value. Instructions appended to the arena after the
//! build are indexed on the next call. A pass that rewrites an existing
//! instruction's operands in place must report it through
//! [`Uses::note_inst`] before its next replacement; terminators are
//! indexed once, at the build, so a pass that installs a terminator with
//! operands starts a fresh index afterwards.

use crate::func::Function;
use crate::inst::{BlockId, InstId, Operand};

/// A place that reads operands: an instruction or a block's terminator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// An instruction (by arena id).
    Inst(InstId),
    /// The terminator of a block.
    Term(BlockId),
}

impl Site {
    /// Packs the site into one word: terminators set the top bit.
    fn pack(self) -> u32 {
        match self {
            Site::Inst(i) => i.0,
            Site::Term(b) => b.0 | TERM,
        }
    }

    fn unpack(w: u32) -> Site {
        if w & TERM == 0 {
            Site::Inst(InstId(w))
        } else {
            Site::Term(BlockId(w & !TERM))
        }
    }
}

/// End of a site list.
const NIL: u32 = u32::MAX;
/// Tag bit of a packed terminator site.
const TERM: u32 = 1 << 31;

/// Lazily built def → use index over one function.
///
/// Stored flat: one node vector of `[packed site, next]` links plus a head
/// and a tail per definition, so moving a replaced value's sites onto its
/// replacement is an O(1) splice.
#[derive(Debug, Default)]
pub struct Uses {
    built: bool,
    /// Arena prefix already indexed.
    indexed: usize,
    head: Vec<u32>,
    tail: Vec<u32>,
    nodes: Vec<[u32; 2]>,
    visited: u64,
    rewritten: u64,
}

impl Uses {
    /// An empty index; it is built from the function on first use.
    pub fn new() -> Uses {
        Uses::default()
    }

    /// Use sites examined so far: operands read while indexing plus sites
    /// walked by replacements and queries. A deterministic work counter.
    pub fn visited(&self) -> u64 {
        self.visited
    }

    /// Operands rewritten by [`Uses::replace`] so far.
    pub fn rewritten(&self) -> u64 {
        self.rewritten
    }

    /// Builds the index on first call; afterwards indexes any instructions
    /// appended to the arena since the last call.
    fn ensure(&mut self, f: &Function) {
        let n = f.insts.len();
        if !self.built {
            // About two operands per instruction on lifted code.
            self.nodes.reserve(2 * n);
        }
        self.head.resize(n.max(self.head.len()), NIL);
        self.tail.resize(n.max(self.tail.len()), NIL);
        for i in self.indexed..n {
            self.index_inst(f, InstId(i as u32));
        }
        self.indexed = n;
        if !self.built {
            self.built = true;
            for b in f.block_ids() {
                self.index_term(f, b);
            }
        }
    }

    /// Records `id`'s current operands after an in-place rewrite of its
    /// kind. A no-op before the index is built.
    pub fn note_inst(&mut self, f: &Function, id: InstId) {
        if !self.built {
            return;
        }
        // An instruction appended since the last call is indexed (once,
        // with its current operands) by `ensure`.
        let appended = id.0 as usize >= self.indexed;
        self.ensure(f);
        if !appended {
            self.index_inst(f, id);
        }
    }

    /// The recorded use sites of `def`, building the index if needed. The
    /// list may hold stale sites and duplicates (see the module docs):
    /// callers filter on the operands the site holds now.
    pub fn sites(&mut self, f: &Function, def: InstId) -> Vec<Site> {
        self.ensure(f);
        let mut out = Vec::new();
        let mut n = self.head[def.0 as usize];
        while n != NIL {
            let [site, next] = self.nodes[n as usize];
            self.visited += 1;
            out.push(Site::unpack(site));
            n = next;
        }
        out
    }

    /// Replaces every use of `from` (in instructions and terminators) with
    /// `to`, exactly like a scan over the whole arena would, but visiting
    /// only `from`'s sites. Those sites then become `to`'s.
    pub fn replace(&mut self, f: &mut Function, from: InstId, to: Operand) {
        if to == Operand::Inst(from) {
            return;
        }
        self.ensure(f);
        let old = Operand::Inst(from);
        let (head, tail) = (self.head[from.0 as usize], self.tail[from.0 as usize]);
        let mut n = head;
        while n != NIL {
            let [site, next] = self.nodes[n as usize];
            self.visited += 1;
            let mut swap = |op: &mut Operand| {
                if *op == old {
                    *op = to;
                    self.rewritten += 1;
                }
            };
            match Site::unpack(site) {
                Site::Inst(u) => f.inst_mut(u).kind.for_each_operand_mut(&mut swap),
                Site::Term(b) => f.block_mut(b).term.for_each_operand_mut(&mut swap),
            }
            n = next;
        }
        self.head[from.0 as usize] = NIL;
        self.tail[from.0 as usize] = NIL;
        if let (Operand::Inst(to), true) = (to, head != NIL) {
            let t = to.0 as usize;
            match self.tail[t] {
                NIL => self.head[t] = head,
                last => self.nodes[last as usize][1] = head,
            }
            self.tail[t] = tail;
        }
    }

    fn index_inst(&mut self, f: &Function, id: InstId) {
        let site = Site::Inst(id).pack();
        f.inst(id).kind.for_each_operand(|op| {
            self.visited += 1;
            if let Operand::Inst(d) = op {
                self.link(d.0, site);
            }
        });
    }

    fn index_term(&mut self, f: &Function, b: BlockId) {
        f.block(b).term.for_each_operand(|op| {
            self.visited += 1;
            if let Operand::Inst(d) = op {
                self.link(d.0, Site::Term(b).pack());
            }
        });
    }

    /// Appends `site` to `def`'s list (once per consecutive user, so an
    /// instruction reading `def` twice is one site).
    fn link(&mut self, def: u32, site: u32) {
        let d = def as usize;
        let last = self.tail[d];
        if last != NIL && self.nodes[last as usize][0] == site {
            return;
        }
        let node = self.nodes.len() as u32;
        self.nodes.push([site, NIL]);
        match last {
            NIL => self.head[d] = node,
            last => self.nodes[last as usize][1] = node,
        }
        self.tail[d] = node;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::func::Module;
    use crate::inst::{BinOp, IPred, InstKind, Terminator};
    use crate::types::Ty;
    use crate::verify::verify_module;
    use lasagne_qc::prelude::*;

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
    }

    const OPS: [BinOp; 3] = [BinOp::Add, BinOp::Mul, BinOp::Xor];

    /// Any operand of `f`: an instruction result (possibly one no longer
    /// in a block), a parameter, a constant or `undef`.
    fn any_operand(rng: &mut Rng, f: &Function) -> Operand {
        match rng.below(6) {
            0 => Operand::Param(rng.below(2) as u32),
            1 => Operand::i64(rng.below(4) as i64),
            2 => Operand::Undef(Ty::I64),
            _ if f.insts.is_empty() => Operand::i64(0),
            _ => Operand::Inst(InstId(rng.below(f.insts.len()) as u32)),
        }
    }

    fn any_bin(rng: &mut Rng, f: &Function) -> InstKind {
        InstKind::Bin {
            op: OPS[rng.below(3)],
            lhs: any_operand(rng, f),
            rhs: any_operand(rng, f),
        }
    }

    /// A verified function: a chain of blocks (each dominating the next)
    /// of i64 arithmetic over earlier values, with compare-fed branches.
    fn random_function(rng: &mut Rng) -> Function {
        let mut f = Function::new("f", vec![Ty::I64, Ty::I64], Ty::I64);
        let nblocks = 1 + rng.below(4);
        for _ in 1..nblocks {
            f.add_block();
        }
        let mut vals = vec![Operand::Param(0), Operand::Param(1), Operand::i64(3)];
        for b in 0..nblocks {
            let bb = BlockId(b as u32);
            for _ in 0..1 + rng.below(12) {
                let lhs = vals[rng.below(vals.len())];
                let rhs = vals[rng.below(vals.len())];
                let id = f.push(
                    bb,
                    Ty::I64,
                    InstKind::Bin {
                        op: OPS[rng.below(3)],
                        lhs,
                        rhs,
                    },
                );
                vals.push(Operand::Inst(id));
            }
            let term = if b + 1 == nblocks {
                Terminator::Ret {
                    val: Some(vals[rng.below(vals.len())]),
                }
            } else if rng.below(2) == 0 {
                let c = f.push(
                    bb,
                    Ty::I1,
                    InstKind::ICmp {
                        pred: IPred::Ult,
                        lhs: vals[rng.below(vals.len())],
                        rhs: vals[rng.below(vals.len())],
                    },
                );
                Terminator::CondBr {
                    cond: Operand::Inst(c),
                    if_true: BlockId(b as u32 + 1),
                    if_false: BlockId(b as u32 + 1),
                }
            } else {
                Terminator::Br {
                    dest: BlockId(b as u32 + 1),
                }
            };
            f.set_term(bb, term);
        }
        let mut m = Module::new();
        m.add_func(f.clone());
        verify_module(&m).expect("generated function verifies");
        f
    }

    properties! {
        config = Config::with_cases(256);

        /// Replacements through the index leave the function equal to the
        /// full-scan oracle, also across the edits the index must absorb:
        /// appended instructions, reported in-place rewrites, and
        /// instructions dropped from their block.
        fn replace_matches_full_scan(seed in any::<u64>()) {
            let mut rng = Rng(seed);
            let mut fast = random_function(&mut rng);
            let mut slow = fast.clone();
            let mut uses = Uses::new();
            for step in 0..40 {
                let n = fast.insts.len();
                match rng.below(7) {
                    0 => {
                        let kind = any_bin(&mut rng, &fast);
                        let b = BlockId(rng.below(fast.blocks.len()) as u32);
                        fast.push(b, Ty::I64, kind.clone());
                        slow.push(b, Ty::I64, kind);
                    }
                    1 => {
                        let id = InstId(rng.below(n) as u32);
                        let kind = any_bin(&mut rng, &fast);
                        fast.inst_mut(id).kind = kind.clone();
                        slow.inst_mut(id).kind = kind;
                        uses.note_inst(&fast, id);
                    }
                    2 => {
                        let id = InstId(rng.below(n) as u32);
                        for g in [&mut fast, &mut slow] {
                            for blk in &mut g.blocks {
                                blk.insts.retain(|i| *i != id);
                            }
                        }
                    }
                    _ => {
                        let from = InstId(rng.below(n) as u32);
                        let to = any_operand(&mut rng, &fast);
                        uses.replace(&mut fast, from, to);
                        slow.replace_all_uses_scan(from, to);
                    }
                }
                prop_assert_eq!(&fast, &slow, "diverged at step {}", step);
            }
        }
    }

    #[test]
    fn replaced_sites_move_to_the_replacement() {
        let mut rng = Rng(7);
        let mut f = random_function(&mut rng);
        let mut uses = Uses::new();
        let (a, b) = (InstId(0), InstId(1));
        let a_sites = uses.sites(&f, a).len();
        let b_sites = uses.sites(&f, b).len();
        uses.replace(&mut f, a, Operand::Inst(b));
        assert!(uses.sites(&f, a).is_empty());
        assert_eq!(uses.sites(&f, b).len(), a_sites + b_sites);
        uses.replace(&mut f, b, Operand::i64(9));
        assert!(uses.sites(&f, b).is_empty());
        assert!(f.iter_insts().all(|(_, id)| {
            let mut clean = true;
            f.inst(id).kind.for_each_operand(|op| {
                clean &= *op != Operand::Inst(a) && *op != Operand::Inst(b);
            });
            clean
        }));
    }
}
