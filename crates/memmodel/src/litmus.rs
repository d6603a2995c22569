//! The paper's litmus programs (Figures 1, 2, 9 and 10) plus a few
//! classics, as x86-level [`Program`]s.

use crate::exec::{FenceTy, Op, Program};

/// SB — store buffering (Figure 1 left).
pub fn sb() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }, Op::Ld { r: 0, x: 1 }],
            vec![Op::St { x: 1, v: 1 }, Op::Ld { r: 0, x: 0 }],
        ],
    }
}

/// MP — message passing (Figure 1 right).
pub fn mp() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }, Op::St { x: 1, v: 1 }],
            vec![Op::Ld { r: 0, x: 1 }, Op::Ld { r: 1, x: 0 }],
        ],
    }
}

/// SB with `mfence` between store and load on both threads.
pub fn sb_fenced() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![
                Op::St { x: 0, v: 1 },
                Op::Fence(FenceTy::Mfence),
                Op::Ld { r: 0, x: 1 },
            ],
            vec![
                Op::St { x: 1, v: 1 },
                Op::Fence(FenceTy::Mfence),
                Op::Ld { r: 0, x: 0 },
            ],
        ],
    }
}

/// LB — load buffering.
pub fn lb() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::Ld { r: 0, x: 0 }, Op::St { x: 1, v: 1 }],
            vec![Op::Ld { r: 0, x: 1 }, Op::St { x: 0, v: 1 }],
        ],
    }
}

/// Figure 10 (left): stores then RMWs on the opposite locations.
pub fn fig10_store_rmw() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![
                Op::St { x: 0, v: 1 },
                Op::Rmw {
                    r: 0,
                    x: 1,
                    expect: 0,
                    new: 2,
                },
            ],
            vec![
                Op::St { x: 1, v: 1 },
                Op::Rmw {
                    r: 0,
                    x: 0,
                    expect: 0,
                    new: 2,
                },
            ],
        ],
    }
}

/// Figure 10 (right): RMWs then loads of the opposite locations.
pub fn fig10_rmw_load() -> Program {
    Program {
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
    }
}

/// 2+2W: write pairs to two locations in opposite orders.
pub fn two_plus_two_w() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }, Op::St { x: 1, v: 2 }],
            vec![Op::St { x: 1, v: 1 }, Op::St { x: 0, v: 2 }],
        ],
    }
}

/// CoRR: coherence of read-read pairs on one location.
pub fn corr() -> Program {
    Program {
        locs: 1,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }],
            vec![Op::Ld { r: 0, x: 0 }, Op::Ld { r: 1, x: 0 }],
        ],
    }
}

/// Atomic increment race: two fetch-and-modify style RMWs.
pub fn rmw_race() -> Program {
    Program {
        locs: 1,
        threads: vec![
            vec![Op::Rmw {
                r: 0,
                x: 0,
                expect: 0,
                new: 1,
            }],
            vec![Op::Rmw {
                r: 0,
                x: 0,
                expect: 0,
                new: 2,
            }],
        ],
    }
}

/// S: store/store vs read–write pair.
pub fn s_test() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 2 }, Op::St { x: 1, v: 1 }],
            vec![Op::Ld { r: 0, x: 1 }, Op::St { x: 0, v: 1 }],
        ],
    }
}

/// R: two writers, one also reads.
pub fn r_test() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }, Op::St { x: 1, v: 1 }],
            vec![Op::St { x: 1, v: 2 }, Op::Ld { r: 0, x: 0 }],
        ],
    }
}

/// WRC: write → read → causal chain across three threads.
pub fn wrc() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }],
            vec![Op::Ld { r: 0, x: 0 }, Op::St { x: 1, v: 1 }],
            vec![Op::Ld { r: 0, x: 1 }, Op::Ld { r: 1, x: 0 }],
        ],
    }
}

/// IRIW: two writers, two readers observing in opposite orders.
pub fn iriw() -> Program {
    Program {
        locs: 2,
        threads: vec![
            vec![Op::St { x: 0, v: 1 }],
            vec![Op::St { x: 1, v: 1 }],
            vec![Op::Ld { r: 0, x: 0 }, Op::Ld { r: 1, x: 1 }],
            vec![Op::Ld { r: 0, x: 1 }, Op::Ld { r: 1, x: 0 }],
        ],
    }
}

/// The full suite used by the mapping checker.
pub fn paper_suite() -> Vec<(&'static str, Program)> {
    vec![
        ("SB", sb()),
        ("MP", mp()),
        ("SB+mfence", sb_fenced()),
        ("LB", lb()),
        ("Fig10-store-rmw", fig10_store_rmw()),
        ("Fig10-rmw-load", fig10_rmw_load()),
        ("2+2W", two_plus_two_w()),
        ("CoRR", corr()),
        ("RMW-race", rmw_race()),
        ("S", s_test()),
        ("R", r_test()),
        ("WRC", wrc()),
        ("IRIW", iriw()),
    ]
}

/// One row of [`sweep_suite`]: a named litmus program with its per-model
/// outcome counts and the forward/reverse mapping-chain verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteRow {
    /// Litmus test name (as in [`paper_suite`]).
    pub name: &'static str,
    /// The x86-level program.
    pub program: Program,
    /// Number of consistent outcomes under the x86 model.
    pub x86_outcomes: usize,
    /// Number of consistent outcomes under the Arm model.
    pub arm_outcomes: usize,
    /// Number of consistent outcomes under the LIMM model.
    pub limm_outcomes: usize,
    /// Verdict of the forward x86 → IR → Arm chain ([`check_chain`]).
    ///
    /// [`check_chain`]: crate::mapping::check_chain
    pub chain: Result<(), String>,
    /// Verdict of the reverse Arm → IR → x86 chain
    /// ([`check_reverse_chain`]).
    ///
    /// [`check_reverse_chain`]: crate::mapping::check_reverse_chain
    pub reverse: Result<(), String>,
}

/// Runs the exhaustive mapping sweep over the whole [`paper_suite`] on up
/// to `jobs` worker threads (via [`lasagne_pool::par_map`]). Each
/// program's outcome enumeration is independent of every other's, so the
/// result is order-identical to the serial sweep for any `jobs`.
pub fn sweep_suite(jobs: usize) -> Vec<SuiteRow> {
    sweep_suite_on(lasagne_pool::Pool::shared(), jobs)
}

/// [`sweep_suite`] on an explicit work-stealing pool: the per-program
/// fan-out submits to `pool` instead of the process-wide shared one, so a
/// caller that already owns worker threads (the pipeline, `report`'s
/// whole sweep) reuses them.
pub fn sweep_suite_on(pool: &lasagne_pool::Pool, jobs: usize) -> Vec<SuiteRow> {
    pool.par_map(jobs, paper_suite(), |_, (name, program)| {
        sweep_row_on(pool, name, program, 1)
    })
}

/// Builds one [`SuiteRow`], spending up to `jobs` worker threads *inside*
/// the program: outcome enumeration is partitioned by candidate-execution
/// prefix ([`crate::exec::execution_partitions`]) and the mapping chains
/// run through [`crate::mapping::check_chain_within`]. Outcome sets are
/// canonical, so the row is identical to the serial one for any `jobs`.
pub fn sweep_row(name: &'static str, program: Program, jobs: usize) -> SuiteRow {
    sweep_row_on(lasagne_pool::Pool::shared(), name, program, jobs)
}

/// [`sweep_row`] on an explicit work-stealing pool.
pub fn sweep_row_on(
    pool: &lasagne_pool::Pool,
    name: &'static str,
    program: Program,
    jobs: usize,
) -> SuiteRow {
    let x86_outcomes =
        crate::models::outcomes_on(pool, crate::models::Model::X86, &program, jobs).len();
    let arm_outcomes =
        crate::models::outcomes_on(pool, crate::models::Model::Arm, &program, jobs).len();
    let limm_outcomes =
        crate::models::outcomes_on(pool, crate::models::Model::Limm, &program, jobs).len();
    let chain = crate::mapping::check_chain_on(pool, &program, jobs);
    let reverse = crate::mapping::check_reverse_chain_on(pool, &program, jobs);
    SuiteRow {
        name,
        program,
        x86_outcomes,
        arm_outcomes,
        limm_outcomes,
        chain,
        reverse,
    }
}

/// Runs the mapping sweep with the parallelism turned *inward*: programs
/// are visited serially, in suite order, and each program's own
/// candidate-execution space fans out across up to `jobs` workers
/// ([`sweep_row`]). This is the schedule the `litmus` CLI uses at
/// `--jobs > 1` — it keeps the worker pool busy even on a suite whose
/// wall time is dominated by one large program (e.g. IRIW), where
/// per-program parallelism ([`sweep_suite`]) would leave all but one
/// worker idle on the tail. Row-identical to `sweep_suite` for any
/// `jobs`.
pub fn sweep_suite_within(jobs: usize) -> Vec<SuiteRow> {
    sweep_suite_within_on(lasagne_pool::Pool::shared(), jobs)
}

/// [`sweep_suite_within`] on an explicit work-stealing pool.
pub fn sweep_suite_within_on(pool: &lasagne_pool::Pool, jobs: usize) -> Vec<SuiteRow> {
    paper_suite()
        .into_iter()
        .map(|(name, program)| sweep_row_on(pool, name, program, jobs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{outcomes, Model};

    #[test]
    fn parallel_sweep_is_order_identical_to_serial() {
        let serial = sweep_suite(1);
        assert_eq!(serial.len(), paper_suite().len());
        for jobs in [2, 4, 8] {
            assert_eq!(serial, sweep_suite(jobs), "sweep diverged at jobs={jobs}");
        }
        for row in &serial {
            assert!(row.chain.is_ok(), "{}: {:?}", row.name, row.chain);
        }
    }

    #[test]
    fn within_program_sweep_is_row_identical_to_serial() {
        let serial = sweep_suite(1);
        for jobs in [1, 2, 4, 8] {
            assert_eq!(
                serial,
                sweep_suite_within(jobs),
                "within-program sweep diverged at jobs={jobs}"
            );
        }
    }

    #[test]
    fn suite_programs_have_executions_under_every_model() {
        for (name, p) in paper_suite() {
            for model in [Model::X86, Model::Arm, Model::Limm] {
                let os = outcomes(model, &p);
                assert!(
                    !os.is_empty(),
                    "{name} has no consistent executions under {model:?}"
                );
            }
        }
    }

    #[test]
    fn lb_forbidden_on_x86() {
        // x86 never reorders a load with a later store: r0=r0=1 impossible.
        let os = outcomes(Model::X86, &lb());
        let weak = os.iter().any(|o| o.regs.iter().all(|(_, v)| *v == 1));
        assert!(!weak);
    }

    #[test]
    fn wrc_forbidden_on_x86_allowed_on_arm_without_deps() {
        // WRC with r0=1 (saw the write), then writes flag; reader sees flag
        // but stale X. On x86 this is forbidden (read-read + write ordering
        // is cumulative under TSO); multicopy-atomic Armv8 *also* forbids it
        // when the reads are ordered, but our litmus reads are unordered so
        // Arm allows it.
        let weak = |o: &crate::exec::Outcome| {
            // Outcome threads are 1-based (0 is the init pseudo-thread):
            // 2 = the middle forwarder, 3 = the final reader.
            let t2r0 = o
                .regs
                .iter()
                .find(|((t, r), _)| *t == 2 && *r == 0)
                .unwrap()
                .1;
            let t3r0 = o
                .regs
                .iter()
                .find(|((t, r), _)| *t == 3 && *r == 0)
                .unwrap()
                .1;
            let t3r1 = o
                .regs
                .iter()
                .find(|((t, r), _)| *t == 3 && *r == 1)
                .unwrap()
                .1;
            t2r0 == 1 && t3r0 == 1 && t3r1 == 0
        };
        assert!(
            !outcomes(Model::X86, &wrc()).iter().any(weak),
            "x86 forbids WRC"
        );
        assert!(
            outcomes(Model::Arm, &wrc()).iter().any(weak),
            "unordered Arm allows WRC"
        );
        // The mapped program restores the guarantee.
        let mapped = crate::mapping::x86_to_arm(&wrc());
        assert!(
            !outcomes(Model::Arm, &mapped).iter().any(weak),
            "translated WRC is tight"
        );
    }

    #[test]
    fn iriw_forbidden_on_x86() {
        // Readers disagreeing on the write order is forbidden under TSO.
        let weak = |o: &crate::exec::Outcome| {
            let g = |t: usize, r: u8| {
                o.regs
                    .iter()
                    .find(|((tt, rr), _)| *tt == t && *rr == r)
                    .unwrap()
                    .1
            };
            // Outcome threads are 1-based: readers are threads 3 and 4.
            g(3, 0) == 1 && g(3, 1) == 0 && g(4, 0) == 1 && g(4, 1) == 0
        };
        assert!(!outcomes(Model::X86, &iriw()).iter().any(weak));
        // And the translation keeps it forbidden on (multicopy-atomic) Arm.
        let mapped = crate::mapping::x86_to_arm(&iriw());
        assert!(!outcomes(Model::Arm, &mapped).iter().any(weak));
    }

    #[test]
    fn corr_reads_never_go_backwards() {
        for model in [Model::X86, Model::Arm, Model::Limm] {
            let os = outcomes(model, &corr());
            // Second read cannot see an older value than the first.
            let backwards = os.iter().any(|o| {
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
            });
            assert!(!backwards, "{model:?} allows CoRR violation");
        }
    }
}
