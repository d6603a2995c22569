//! The verified mapping schemes of Figure 8, as program-to-program
//! transformations, plus the empirical correctness checker for
//! Theorem 7.1: every consistent target outcome must be a consistent
//! source outcome.

use crate::exec::{FenceTy, Op, Outcome, Program};
use crate::models::Model;
use std::collections::BTreeSet;

/// Figure 8a: x86 → IR.
///
/// * `ld  ⇒ ld_na ; Frm`
/// * `st  ⇒ Fww ; st_na`
/// * `RMW ⇒ RMWsc` (unchanged op, seq_cst semantics)
/// * `MFENCE ⇒ Fsc`
pub fn x86_to_limm(p: &Program) -> Program {
    let threads = p
        .threads
        .iter()
        .map(|ops| {
            let mut out = Vec::new();
            for op in ops {
                match op {
                    Op::Ld { .. } => {
                        out.push(*op);
                        out.push(Op::Fence(FenceTy::Frm));
                    }
                    Op::St { .. } => {
                        out.push(Op::Fence(FenceTy::Fww));
                        out.push(*op);
                    }
                    Op::Rmw { .. } => out.push(*op),
                    Op::Fence(FenceTy::Mfence) => out.push(Op::Fence(FenceTy::Fsc)),
                    Op::Fence(other) => out.push(Op::Fence(*other)),
                    // Arm-only accesses never appear in x86 sources.
                    Op::LdA { .. } | Op::StR { .. } | Op::RmwAr { .. } => out.push(*op),
                }
            }
            out
        })
        .collect();
    Program {
        locs: p.locs,
        threads,
    }
}

/// Figure 8b: IR → Arm.
///
/// * `ld_na ⇒ ld`, `st_na ⇒ st`
/// * `RMWsc ⇒ DMBFF ; RMW ; DMBFF`
/// * `Frm ⇒ DMBLD`, `Fww ⇒ DMBST`, `Fsc ⇒ DMBFF`
pub fn limm_to_arm(p: &Program) -> Program {
    let threads = p
        .threads
        .iter()
        .map(|ops| {
            let mut out = Vec::new();
            for op in ops {
                match op {
                    Op::Ld { .. } | Op::St { .. } => out.push(*op),
                    Op::Rmw { .. } => {
                        out.push(Op::Fence(FenceTy::DmbFf));
                        out.push(*op);
                        out.push(Op::Fence(FenceTy::DmbFf));
                    }
                    Op::Fence(FenceTy::Frm) => out.push(Op::Fence(FenceTy::DmbLd)),
                    Op::Fence(FenceTy::Fww) => out.push(Op::Fence(FenceTy::DmbSt)),
                    Op::Fence(FenceTy::Fsc) => out.push(Op::Fence(FenceTy::DmbFf)),
                    Op::Fence(other) => out.push(Op::Fence(*other)),
                    Op::LdA { .. } | Op::StR { .. } | Op::RmwAr { .. } => out.push(*op),
                }
            }
            out
        })
        .collect();
    Program {
        locs: p.locs,
        threads,
    }
}

/// Figure 8c: the composed x86 → Arm mapping.
pub fn x86_to_arm(p: &Program) -> Program {
    limm_to_arm(&x86_to_limm(p))
}

/// Appendix A ablation: lower `RMWsc` to an acquire/release exclusive pair
/// (`ldaxr`/`stlxr`) instead of surrounding `DMBFF`s. Release/acquire are
/// only *half* fences, so this mapping is **incorrect** for x86 sources —
/// the Figure 10 programs witness it (see the tests) — which is why
/// Lasagne's Figure 8b uses full barriers.
pub fn limm_to_arm_acqrel(p: &Program) -> Program {
    let threads = p
        .threads
        .iter()
        .map(|ops| {
            let mut out = Vec::new();
            for op in ops {
                match op {
                    Op::Rmw { r, x, expect, new } => {
                        out.push(Op::RmwAr {
                            r: *r,
                            x: *x,
                            expect: *expect,
                            new: *new,
                        });
                    }
                    Op::Fence(FenceTy::Frm) => out.push(Op::Fence(FenceTy::DmbLd)),
                    Op::Fence(FenceTy::Fww) => out.push(Op::Fence(FenceTy::DmbSt)),
                    Op::Fence(FenceTy::Fsc) => out.push(Op::Fence(FenceTy::DmbFf)),
                    other => out.push(*other),
                }
            }
            out
        })
        .collect();
    Program {
        locs: p.locs,
        threads,
    }
}

/// Appendix B, step 1: Arm → IR.
///
/// * `ld ⇒ ld_na`, `st ⇒ st_na`, `ldar ⇒ ld_na;Fsc`-style strengthening is
///   *not* needed — the IR target only has to preserve Arm behaviours, and
///   weakening accesses can only add behaviours, so ordered Arm accesses
///   must carry their orderings across: `DMBLD ⇒ Frm`, `DMBST ⇒ Fww`,
///   `DMBFF ⇒ Fsc`, `ldar/stlr ⇒` leading/trailing `Fsc` (conservative),
///   `RMW ⇒ RMWsc`.
pub fn arm_to_limm(p: &Program) -> Program {
    let threads = p
        .threads
        .iter()
        .map(|ops| {
            let mut out = Vec::new();
            for op in ops {
                match op {
                    Op::Ld { .. } | Op::St { .. } | Op::Rmw { .. } => out.push(*op),
                    Op::LdA { r, x } => {
                        // Acquire: the read is ordered before all later
                        // accesses — an Frm after the plain load suffices.
                        out.push(Op::Ld { r: *r, x: *x });
                        out.push(Op::Fence(FenceTy::Frm));
                    }
                    Op::StR { x, v } => {
                        // Release orders *all* earlier accesses before the
                        // write; only Fsc is strong enough in LIMM.
                        out.push(Op::Fence(FenceTy::Fsc));
                        out.push(Op::St { x: *x, v: *v });
                    }
                    Op::RmwAr { r, x, expect, new } => {
                        out.push(Op::Rmw {
                            r: *r,
                            x: *x,
                            expect: *expect,
                            new: *new,
                        });
                    }
                    Op::Fence(FenceTy::DmbFf) => out.push(Op::Fence(FenceTy::Fsc)),
                    Op::Fence(FenceTy::DmbLd) => out.push(Op::Fence(FenceTy::Frm)),
                    Op::Fence(FenceTy::DmbSt) => out.push(Op::Fence(FenceTy::Fww)),
                    Op::Fence(other) => out.push(Op::Fence(*other)),
                }
            }
            out
        })
        .collect();
    Program {
        locs: p.locs,
        threads,
    }
}

/// Appendix B, step 2: IR → x86.
///
/// x86-TSO already orders ld-ld, ld-st and st-st pairs, so `Frm` and `Fww`
/// map to *nothing*; only `Fsc` (which also orders st-ld) needs an
/// `MFENCE`. This is the precision claim in the weak→strong direction: no
/// stronger fence is necessary.
pub fn limm_to_x86(p: &Program) -> Program {
    let threads = p
        .threads
        .iter()
        .map(|ops| {
            let mut out = Vec::new();
            for op in ops {
                match op {
                    Op::Ld { .. } | Op::St { .. } | Op::Rmw { .. } => out.push(*op),
                    Op::Fence(FenceTy::Fsc) => out.push(Op::Fence(FenceTy::Mfence)),
                    Op::Fence(FenceTy::Frm | FenceTy::Fww) => {} // free on TSO
                    Op::Fence(other) => out.push(Op::Fence(*other)),
                    Op::LdA { .. } | Op::StR { .. } | Op::RmwAr { .. } => out.push(*op),
                }
            }
            out
        })
        .collect();
    Program {
        locs: p.locs,
        threads,
    }
}

/// Checks the Appendix B chain Arm → IR → x86 on one program.
pub fn check_reverse_chain(p: &Program) -> Result<(), String> {
    check_reverse_chain_within(p, 1)
}

/// [`check_reverse_chain`] with each enumeration partitioned across up to
/// `jobs` worker threads ([`check_mapping_within`]). Same verdict for any
/// `jobs`.
pub fn check_reverse_chain_within(p: &Program, jobs: usize) -> Result<(), String> {
    check_reverse_chain_on(lasagne_pool::Pool::shared(), p, jobs)
}

/// [`check_reverse_chain_within`] on an explicit work-stealing pool.
pub fn check_reverse_chain_on(
    pool: &lasagne_pool::Pool,
    p: &Program,
    jobs: usize,
) -> Result<(), String> {
    let ir = arm_to_limm(p);
    let x86 = limm_to_x86(&ir);
    check_mapping_on(pool, jobs, Model::Arm, p, Model::Limm, &ir)
        .map_err(|e| format!("Arm→IR introduces {} outcome(s): {e:?}", e.len()))?;
    check_mapping_on(pool, jobs, Model::Limm, &ir, Model::X86, &x86)
        .map_err(|e| format!("IR→x86 introduces {} outcome(s): {e:?}", e.len()))?;
    check_mapping_on(pool, jobs, Model::Arm, p, Model::X86, &x86)
        .map_err(|e| format!("Arm→x86 introduces {} outcome(s): {e:?}", e.len()))?;
    Ok(())
}

/// The empirical statement of Theorem 7.1 for a mapping `Ps → Pt`:
/// `outcomes(Mt, Pt) ⊆ outcomes(Ms, Ps)`.
///
/// Returns `Ok(())` or the set of target outcomes with no source
/// counterpart.
pub fn check_mapping(
    src_model: Model,
    src: &Program,
    tgt_model: Model,
    tgt: &Program,
) -> Result<(), BTreeSet<Outcome>> {
    check_mapping_within(1, src_model, src, tgt_model, tgt)
}

/// [`check_mapping`] with both outcome enumerations partitioned across up
/// to `jobs` worker threads ([`crate::models::outcomes_par`]). Outcomes
/// are canonical `BTreeSet`s, so the verdict is identical for any `jobs`.
pub fn check_mapping_within(
    jobs: usize,
    src_model: Model,
    src: &Program,
    tgt_model: Model,
    tgt: &Program,
) -> Result<(), BTreeSet<Outcome>> {
    check_mapping_on(
        lasagne_pool::Pool::shared(),
        jobs,
        src_model,
        src,
        tgt_model,
        tgt,
    )
}

/// [`check_mapping_within`] on an explicit work-stealing pool.
pub fn check_mapping_on(
    pool: &lasagne_pool::Pool,
    jobs: usize,
    src_model: Model,
    src: &Program,
    tgt_model: Model,
    tgt: &Program,
) -> Result<(), BTreeSet<Outcome>> {
    let src_out = crate::models::outcomes_on(pool, src_model, src, jobs);
    let tgt_out = crate::models::outcomes_on(pool, tgt_model, tgt, jobs);
    let extra: BTreeSet<Outcome> = tgt_out.difference(&src_out).cloned().collect();
    if extra.is_empty() {
        Ok(())
    } else {
        Err(extra)
    }
}

/// Checks the full x86 → IR → Arm chain on one program: each stage must not
/// introduce new behaviors (Theorems 7.3, 7.4 and their composition).
pub fn check_chain(p: &Program) -> Result<(), String> {
    check_chain_within(p, 1)
}

/// [`check_chain`] with each enumeration partitioned across up to `jobs`
/// worker threads ([`check_mapping_within`]). Same verdict for any `jobs`.
pub fn check_chain_within(p: &Program, jobs: usize) -> Result<(), String> {
    check_chain_on(lasagne_pool::Pool::shared(), p, jobs)
}

/// [`check_chain_within`] on an explicit work-stealing pool.
pub fn check_chain_on(pool: &lasagne_pool::Pool, p: &Program, jobs: usize) -> Result<(), String> {
    let ir = x86_to_limm(p);
    let arm = limm_to_arm(&ir);
    check_mapping_on(pool, jobs, Model::X86, p, Model::Limm, &ir)
        .map_err(|extra| format!("x86→IR introduces {} outcome(s): {extra:?}", extra.len()))?;
    check_mapping_on(pool, jobs, Model::Limm, &ir, Model::Arm, &arm)
        .map_err(|extra| format!("IR→Arm introduces {} outcome(s): {extra:?}", extra.len()))?;
    check_mapping_on(pool, jobs, Model::X86, p, Model::Arm, &arm)
        .map_err(|extra| format!("x86→Arm introduces {} outcome(s): {extra:?}", extra.len()))?;
    Ok(())
}

/// [`check_chain`] over many programs on up to `jobs` worker threads (via
/// [`lasagne_pool::par_map`]). Verdicts come back in input order —
/// the parallel sweep is indistinguishable from mapping `check_chain`
/// serially.
pub fn check_chain_all(jobs: usize, programs: Vec<Program>) -> Vec<Result<(), String>> {
    lasagne_pool::par_map(jobs, programs, |_, p| check_chain(&p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus;
    use crate::models::outcomes;

    #[test]
    fn mapping_shapes_match_figure8() {
        let p = Program {
            locs: 1,
            threads: vec![vec![
                Op::Ld { r: 0, x: 0 },
                Op::St { x: 0, v: 1 },
                Op::Fence(FenceTy::Mfence),
                Op::Rmw {
                    r: 1,
                    x: 0,
                    expect: 1,
                    new: 2,
                },
            ]],
        };
        let ir = x86_to_limm(&p);
        assert_eq!(
            ir.threads[0],
            vec![
                Op::Ld { r: 0, x: 0 },
                Op::Fence(FenceTy::Frm),
                Op::Fence(FenceTy::Fww),
                Op::St { x: 0, v: 1 },
                Op::Fence(FenceTy::Fsc),
                Op::Rmw {
                    r: 1,
                    x: 0,
                    expect: 1,
                    new: 2
                },
            ]
        );
        let arm = limm_to_arm(&ir);
        assert_eq!(
            arm.threads[0],
            vec![
                Op::Ld { r: 0, x: 0 },
                Op::Fence(FenceTy::DmbLd),
                Op::Fence(FenceTy::DmbSt),
                Op::St { x: 0, v: 1 },
                Op::Fence(FenceTy::DmbFf),
                Op::Fence(FenceTy::DmbFf),
                Op::Rmw {
                    r: 1,
                    x: 0,
                    expect: 1,
                    new: 2
                },
                Op::Fence(FenceTy::DmbFf),
            ]
        );
    }

    /// Theorem 7.3/7.4 checked on the paper's own litmus programs.
    #[test]
    fn chain_correct_on_paper_litmus() {
        for (name, p) in litmus::paper_suite() {
            check_chain(&p).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    /// Precision: mapping MP *without* the paper's fences (i.e. the naive
    /// identity mapping) is incorrect — Arm shows an outcome x86 forbids.
    #[test]
    fn identity_mapping_is_incorrect() {
        let mp = litmus::mp();
        let err = check_mapping(Model::X86, &mp, Model::Arm, &mp);
        assert!(err.is_err(), "unfenced Arm MP must exhibit extra outcomes");
    }

    /// Appendix B: the reverse chain (Arm → IR → x86) is correct on the
    /// paper suite; the weak→strong direction needs no fences for
    /// DMBLD/DMBST (TSO's implicit ordering covers them).
    #[test]
    fn reverse_chain_correct_on_paper_litmus() {
        for (name, p) in litmus::paper_suite() {
            // Interpret each program as Arm source (its fences already use
            // x86 mnemonics; swap mfence → dmb ff).
            let arm_src = Program {
                locs: p.locs,
                threads: p
                    .threads
                    .iter()
                    .map(|ops| {
                        ops.iter()
                            .map(|op| match op {
                                Op::Fence(FenceTy::Mfence) => Op::Fence(FenceTy::DmbFf),
                                o => *o,
                            })
                            .collect()
                    })
                    .collect(),
            };
            check_reverse_chain(&arm_src).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    /// Appendix B precision: Frm/Fww map to nothing on x86, and that is
    /// sufficient — the fenced-MP Arm program keeps its guarantee on x86
    /// even with the fences erased.
    #[test]
    fn tso_implicit_ordering_subsumes_half_fences() {
        let arm = Program {
            locs: 2,
            threads: vec![
                vec![
                    Op::St { x: 0, v: 1 },
                    Op::Fence(FenceTy::DmbSt),
                    Op::St { x: 1, v: 1 },
                ],
                vec![
                    Op::Ld { r: 0, x: 1 },
                    Op::Fence(FenceTy::DmbLd),
                    Op::Ld { r: 1, x: 0 },
                ],
            ],
        };
        let x86 = limm_to_x86(&arm_to_limm(&arm));
        // No fences remain…
        let fence_count: usize = x86
            .threads
            .iter()
            .flatten()
            .filter(|o| matches!(o, Op::Fence(_)))
            .count();
        assert_eq!(fence_count, 0);
        // …and the weak outcome stays forbidden on x86.
        let weak = |o: &Outcome| {
            let a = o
                .regs
                .iter()
                .find(|((t, r), _)| *t == 2 && *r == 0)
                .unwrap()
                .1;
            let b = o
                .regs
                .iter()
                .find(|((t, r), _)| *t == 2 && *r == 1)
                .unwrap()
                .1;
            a == 1 && b == 0
        };
        assert!(!outcomes(Model::X86, &x86).iter().any(weak));
    }

    /// Appendix A: acquire/release accesses order correctly in the Arm
    /// model — MP with stlr/ldar forbids the weak outcome.
    #[test]
    fn acquire_release_mp() {
        let arm = Program {
            locs: 2,
            threads: vec![
                vec![Op::St { x: 0, v: 1 }, Op::StR { x: 1, v: 1 }],
                vec![Op::LdA { r: 0, x: 1 }, Op::Ld { r: 1, x: 0 }],
            ],
        };
        let weak = |o: &Outcome| {
            let a = o
                .regs
                .iter()
                .find(|((t, r), _)| *t == 2 && *r == 0)
                .unwrap()
                .1;
            let b = o
                .regs
                .iter()
                .find(|((t, r), _)| *t == 2 && *r == 1)
                .unwrap()
                .1;
            a == 1 && b == 0
        };
        assert!(
            !outcomes(Model::Arm, &arm).iter().any(weak),
            "release/acquire MP must be tight"
        );
        // And the reverse chain carries the guarantee to x86.
        check_reverse_chain(&arm).unwrap();
    }

    /// Appendix A ablation: lowering RMWsc to acquire/release exclusives
    /// instead of DMBFF pairs is *incorrect* — the Figure 10 program
    /// witnesses an x86-forbidden outcome. This is why Figure 8b uses full
    /// barriers.
    #[test]
    fn acqrel_rmw_lowering_is_insufficient() {
        let p = litmus::fig10_rmw_load();
        let ir = x86_to_limm(&p);
        let correct = limm_to_arm(&ir);
        let acqrel = limm_to_arm_acqrel(&ir);
        assert!(check_mapping(Model::X86, &p, Model::Arm, &correct).is_ok());
        assert!(
            check_mapping(Model::X86, &p, Model::Arm, &acqrel).is_err(),
            "ldaxr/stlxr RMWs must leak an x86-forbidden outcome on Figure 10"
        );
    }

    /// Precision: weakening the RMW mapping (dropping the DMBFFs) breaks
    /// the Figure 10 example.
    #[test]
    fn rmw_mapping_needs_full_fences() {
        let p = Program {
            locs: 2,
            threads: vec![
                vec![
                    Op::Rmw {
                        r: 1,
                        x: 0,
                        expect: 0,
                        new: 2,
                    },
                    Op::Ld { r: 0, x: 1 },
                ],
                vec![
                    Op::Rmw {
                        r: 1,
                        x: 1,
                        expect: 0,
                        new: 2,
                    },
                    Op::Ld { r: 0, x: 0 },
                ],
            ],
        };
        // Weak mapping: RMW without surrounding DMBFF.
        let ir = x86_to_limm(&p);
        let weak_arm = Program {
            locs: ir.locs,
            threads: ir
                .threads
                .iter()
                .map(|ops| {
                    ops.iter()
                        .map(|op| match op {
                            Op::Fence(FenceTy::Frm) => Op::Fence(FenceTy::DmbLd),
                            Op::Fence(FenceTy::Fww) => Op::Fence(FenceTy::DmbSt),
                            Op::Fence(FenceTy::Fsc) => Op::Fence(FenceTy::DmbFf),
                            o => *o,
                        })
                        .collect()
                })
                .collect(),
        };
        let correct = limm_to_arm(&ir);
        assert!(check_mapping(Model::X86, &p, Model::Arm, &correct).is_ok());
        assert!(
            check_mapping(Model::X86, &p, Model::Arm, &weak_arm).is_err(),
            "dropping the DMBFF pair around RMWs must be observable"
        );
    }
}
