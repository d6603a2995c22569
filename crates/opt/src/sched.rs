//! Change-driven pass scheduling.
//!
//! The blind fixpoint driver reruns all 13 pipeline slots over every
//! function every round until a whole-round fixpoint. Most of that work is
//! provably idle: a pass that ran clean on a function stays clean until
//! some *other* pass that can feed it new opportunities mutates the
//! function. This module tracks exactly that, per function × pass:
//!
//! * [`PassEffect`] — what a pass invocation did to a function, with
//!   mutation flags decoupled from the reported change count (a pass may
//!   mutate without counting, e.g. sccp's φ pruning; it must never count
//!   without mutating... it may, but never mutate while reporting clean).
//! * [`feeds`] — the static pass→pass invalidation matrix: `feeds(p, q)`
//!   says a non-clean run of `p` can expose new work for `q`.
//! * [`FuncState`] — per-function dirty bits over the 11 [`PassKind`]s
//!   plus the function's lazily maintained [`Analyses`] cache.
//! * [`SchedStats`] — counters proving the scheduler skips work
//!   (`ran + skipped` reconciles exactly with the blind driver's
//!   invocation count, and all counters are jobs-invariant).
//!
//! The driver itself is [`optimize`]: the only implementation of the
//! Figure 17 round loop, shared by `lasagne::pipeline` (at any `--jobs`
//! value, on the pipeline's pool) and by [`crate::scheduled_pipeline`]
//! (its serial entry point).
//!
//! Soundness argument for byte-identity with the blind driver: a (function,
//! pass) pair is skipped only if the pass previously ran *clean* (zero
//! mutation) on that function and no pass with a `feeds` edge into it has
//! mutated the function since. By the matrix's correctness, rerunning the
//! pass would mutate nothing and report 0 changes — so the round's change
//! sum, the round count, and the final module bytes all match the blind
//! driver exactly. Scheduling decisions depend only on per-function pass
//! results, never on cross-function timing, so counters are identical at
//! any `--jobs` value.

use std::time::Instant;

use crate::sccp::{self, IpsccpFact};
use crate::{run_pass_on_function_eff, PassKind, OPT_ORDER};
pub use lasagne_lir::analysis::Analyses;
use lasagne_lir::func::{Function, Module};
use lasagne_pool::Pool;
use lasagne_trace::{ArgVal, TraceCtx};

/// Number of distinct passes ([`PassKind::ALL`]).
pub const NPASS: usize = 11;

/// Position of `k` in [`PassKind::ALL`] (the matrix row/column order).
pub fn pass_index(k: PassKind) -> usize {
    PassKind::ALL
        .iter()
        .position(|p| *p == k)
        .expect("every PassKind appears in ALL")
}

/// What one pass invocation did to one function.
///
/// `changes` is the legacy reported change count (what the `usize` API
/// returns); the flags are the scheduler's ground truth. The invariant each
/// pass must uphold: **if `is_clean()` the pass made zero mutations** —
/// the function is byte-identical to its state before the call. The
/// converse need not hold (a pass may mutate more than it counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassEffect {
    /// Reported change count (legacy `usize` return).
    pub changes: usize,
    /// Instructions were added, removed, or rewritten.
    pub changed_insts: bool,
    /// A terminator target changed (branch folded, block unreachable).
    pub changed_cfg: bool,
}

impl PassEffect {
    /// No changes, no mutation.
    pub fn clean() -> PassEffect {
        PassEffect::default()
    }

    /// An instruction-level effect: `n` reported changes, instructions
    /// mutated iff `n > 0`, CFG untouched.
    pub fn insts(n: usize) -> PassEffect {
        PassEffect {
            changes: n,
            changed_insts: n > 0,
            changed_cfg: false,
        }
    }

    /// True iff the pass is known to have made zero mutations.
    pub fn is_clean(&self) -> bool {
        !self.changed_insts && !self.changed_cfg
    }
}

/// Static invalidation matrix: can a non-clean run of `src` expose new
/// opportunities for `dst` on the same function?
///
/// Rows err conservative (`true`) unless there is an argument for `false`.
/// The arguments, per `false` row (see ARCHITECTURE.md "Optimization
/// scheduling" for the full table):
///
/// * **Dce / Adce** only delete instructions with zero uses (resp. no
///   transitive side-effecting use). Deletion cannot create constants to
///   fold (`InstCombine`, `Reassociate`, `Sccp`/`IpSccp`), cannot make a
///   loop-invariant computation appear (`Licm`), and cannot change which
///   scalars dominate (`Gvn` numbering keys never mention use counts) —
///   but deleting a load/store *use* of an alloca can make a slot
///   promotable (`Mem2Reg`, `Sroa`) and can kill the last load between two
///   stores (`Dse`), and `Gvn`'s `load_elim` availability walk sees the
///   deleted memory ops, so those edges stay `true`. Self-edges are
///   `false`: both run an internal fixpoint to closure.
/// * **Licm** moves instructions between blocks and LVN-dedups the
///   preheader — value-level rewrites (`true` into the dead-value passes,
///   `Gvn`, `Dse` via reordered memory ops, `InstCombine`, and itself) but
///   it never changes an alloca use's *kind* (`Mem2Reg`/`Sroa` classify
///   use shapes, which moves preserve; dedup replaces a duplicate with an
///   identical original, leaving shapes intact), creates no constants
///   (`Sccp`), and cannot make `(x∘c1)∘c2` match when it didn't
///   (`Reassociate` — a dedup swaps one instruction id for an identical
///   instruction).
/// * **Reassociate** rewrites `(x∘c1)∘c2` in place to `x∘(c1∘c2)` — pure
///   scalar restructuring: no memory ops touched (`Mem2Reg`, `Sroa`, `Dse`
///   stay clean), no constants materialize that sccp's lattice could use
///   that `InstCombine` wouldn't fold first, but the freed inner value can
///   become dead (`Dce`/`Adce`) and the new shape re-keys `Gvn` and chains
///   for another `InstCombine`/`Reassociate`/`Licm` look.
/// * **Dse** deletes dead stores and dead-slot accesses: deletion can
///   unblock promotion (a deleted store may have been the one storing an
///   alloca's pointer *as a value*, so `Mem2Reg` and `Sroa` stay `true`)
///   and feeds the dead-value passes, `Gvn`'s availability walk, `Licm`'s
///   loop-writes check, and itself — but it creates no scalar structure
///   (`Reassociate`, `Sccp` stay `false`).
///
/// If a future pass invalidates these arguments, flip the edge to `true`;
/// the qc byte-identity suite (`sched_equiv.rs`) is the enforcement.
pub fn feeds(src: PassKind, dst: PassKind) -> bool {
    use PassKind::*;
    match src {
        // Structural rewriters: assume worst case.
        InstCombine | Gvn | Mem2Reg | Sroa | Sccp | IpSccp => true,
        Dce | Adce => matches!(dst, Gvn | Mem2Reg | Sroa | Dse),
        Licm => matches!(dst, InstCombine | Dce | Adce | Licm | Gvn | Dse),
        Reassociate => matches!(dst, InstCombine | Dce | Adce | Licm | Reassociate | Gvn),
        Dse => matches!(
            dst,
            InstCombine | Dce | Adce | Licm | Gvn | Mem2Reg | Sroa | Dse
        ),
    }
}

/// Per-function scheduling state: which passes must still run, plus the
/// function's analysis cache.
#[derive(Debug, Default)]
pub struct FuncState {
    dirty: [bool; NPASS],
    /// Lazily built analyses, threaded through every pass invocation on
    /// this function and invalidated by reported effects.
    pub analyses: Analyses,
}

impl FuncState {
    /// Fresh state: every pass is dirty (must run at least once).
    pub fn new() -> FuncState {
        FuncState {
            dirty: [true; NPASS],
            analyses: Analyses::new(),
        }
    }

    /// Whether pass `p` has pending work on this function.
    pub fn should_run(&self, p: PassKind) -> bool {
        self.dirty[pass_index(p)]
    }

    /// Records that `p` ran with effect `eff`: clears `p`'s dirty bit
    /// (and its twin's — `Sccp` and `IpSccp` dispatch to the same
    /// per-function computation, so either run discharges both), then
    /// re-dirties every pass `q` with `feeds(p, q)` if the run mutated.
    pub fn note_ran(&mut self, p: PassKind, eff: &PassEffect) {
        self.dirty[pass_index(p)] = false;
        match p {
            PassKind::Sccp => self.dirty[pass_index(PassKind::IpSccp)] = false,
            PassKind::IpSccp => self.dirty[pass_index(PassKind::Sccp)] = false,
            _ => {}
        }
        if !eff.is_clean() {
            for (qi, q) in PassKind::ALL.iter().enumerate() {
                if feeds(p, *q) {
                    self.dirty[qi] = true;
                }
            }
            // A mutating pass never discharges itself unless its own
            // self-edge is false (Dce/Adce run to internal fixpoint).
        }
    }

    /// An external mutation (ipSCCP fact substitution) touched the
    /// function: everything must be reconsidered, and cached analyses are
    /// stale.
    pub fn note_external_change(&mut self) {
        self.dirty = [true; NPASS];
        self.analyses.invalidate_all();
    }

    /// Whether every pass has run clean: the function is converged and
    /// whole rounds over it can be skipped.
    pub fn is_converged(&self) -> bool {
        self.dirty.iter().all(|d| !d)
    }
}

/// Scheduler counters. All are jobs-invariant (scheduling depends only on
/// per-function results) and reconcile with the blind driver:
/// `ran + skipped == 13 × nfuncs × rounds`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Total reported changes.
    pub changes: usize,
    /// (function, pass-slot) pairs actually executed.
    pub ran: u64,
    /// (function, pass-slot) pairs skipped as provably clean.
    pub skipped: u64,
    /// Function-rounds fully skipped because the function was converged
    /// at round start.
    pub retired: u64,
    /// Rounds executed (matches the blind driver's round count).
    pub rounds: u64,
    /// Functions compacted at pipeline end.
    pub compacted: u64,
    /// Functions whose `compact()` was skipped as a provable no-op.
    pub compact_skipped: u64,
}

/// Number of changes-per-invocation histogram buckets
/// (see [`hist_bucket`]).
pub const HIST_BUCKETS: usize = 5;

/// Maps a pass invocation's reported change count to its histogram
/// bucket: `0`, `1`, `2–3`, `4–7`, `≥8`.
pub fn hist_bucket(changes: usize) -> usize {
    match changes {
        0 => 0,
        1 => 1,
        2..=3 => 2,
        4..=7 => 3,
        _ => 4,
    }
}

impl SchedStats {
    /// Accumulates `other` into `self` (for merging per-shard stats).
    pub fn merge(&mut self, other: &SchedStats) {
        self.changes += other.changes;
        self.ran += other.ran;
        self.skipped += other.skipped;
        self.retired += other.retired;
        self.rounds = self.rounds.max(other.rounds);
        self.compacted += other.compacted;
        self.compact_skipped += other.compact_skipped;
    }
}

/// Timing of one `ipsccp` superstep: the parallel gather of per-function
/// call summaries, the serial join that decides lattice facts, and the
/// parallel apply of the substitutions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpsccpRoundTiming {
    /// Optimization round index (0-based).
    pub round: u32,
    /// Wall time of the parallel summary-gather phase.
    pub gather_nanos: u128,
    /// Wall time of the serial lattice join (the only serial remnant).
    pub join_nanos: u128,
    /// Wall time of the parallel substitution phase.
    pub apply_nanos: u128,
    /// Lattice facts newly decided this round.
    pub facts: u64,
    /// Textual substitutions applied this round.
    pub substitutions: u64,
}

/// One executed (function, pass) invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassRun {
    /// The pass that ran.
    pub pass: PassKind,
    /// Wall time of the invocation.
    pub nanos: u128,
    /// Reported change count.
    pub changes: usize,
}

/// Opt work done on one function, summed over every pass block of every
/// round plus its compaction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuncOpt {
    /// Wall time spent on the function.
    pub nanos: u128,
    /// Reported changes.
    pub changes: usize,
}

/// Everything one [`optimize`] run reports.
#[derive(Debug, Clone, Default)]
pub struct OptRun {
    /// Scheduler counters.
    pub sched: SchedStats,
    /// Every executed (function, pass) invocation, in schedule order:
    /// round by round, block by block, function by function.
    pub passes: Vec<PassRun>,
    /// Per function index.
    pub funcs: Vec<FuncOpt>,
    /// One entry per `ipsccp` superstep, in round order.
    pub ipsccp_rounds: Vec<IpsccpRoundTiming>,
    /// Every `ipsccp` substitution decision, in decision order — the
    /// interprocedural facts a function's cache key digests.
    pub facts: Vec<IpsccpFact>,
    /// Per-slot barrier waits of each parallel section that formed (one
    /// entry per section; none when every section ran serially).
    pub sections: Vec<Vec<u128>>,
}

/// The Figure 17 optimization driver: up to `max_rounds` rounds of
/// [`OPT_ORDER`], stopping early after a round that changed nothing, then
/// compaction of every function not already compacted.
///
/// Each round splits [`OPT_ORDER`] at its interprocedural pass. Between
/// the barriers, each function runs its block of passes back to back as
/// one work item on `pool` with up to `jobs` workers. A pass whose dirty
/// bit is clear is skipped ([`FuncState`]). At the barrier, `ipsccp` runs
/// as a superstep: a parallel gather of call summaries, a serial lattice
/// join, and a parallel apply of the substitutions (see [`sccp`]). Results
/// are merged by function index and every pass reads only its own
/// function and the module's shell, so the module, the counters and the
/// facts are the same for every `jobs` value.
///
/// Traced runs get an `opt` span per round, per superstep and per
/// function work item, the `opt.ipsccp.*` and `opt.sched.*` counters,
/// and a `lattice-fact` instant per decided fact.
pub fn optimize(
    m: &mut Module,
    max_rounds: usize,
    pool: &Pool,
    jobs: usize,
    trace: &TraceCtx,
) -> OptRun {
    let driver = Driver { pool, jobs, trace };
    let mut run = OptRun {
        funcs: vec![FuncOpt::default(); m.funcs.len()],
        ..OptRun::default()
    };
    let mut states: Vec<FuncState> = m.funcs.iter().map(|_| FuncState::new()).collect();
    for round in 0..max_rounds {
        run.sched.rounds += 1;
        run.sched.retired += states.iter().filter(|s| s.is_converged()).count() as u64;
        let mut sp = trace.span("opt", "round");
        sp.arg("round", round as u64);
        let mut changes = 0;
        for block in OPT_ORDER.chunk_by(|_, next| !next.is_interprocedural()) {
            if block[0].is_interprocedural() {
                changes += driver.ipsccp(&mut run, m, round as u32, &mut states);
            }
            changes += driver.block(&mut run, m, block, &mut states);
        }
        sp.arg("changes", changes as u64);
        run.sched.changes += changes;
        if changes == 0 {
            break;
        }
    }
    driver.compact(&mut run, m);
    trace.add("opt.sched.ran", run.sched.ran);
    trace.add("opt.sched.skipped", run.sched.skipped);
    trace.add("opt.sched.retired", run.sched.retired);
    run
}

struct Driver<'a> {
    pool: &'a Pool,
    jobs: usize,
    trace: &'a TraceCtx,
}

impl Driver<'_> {
    /// A fan-out over `items`, recording its barrier waits when a
    /// parallel section actually formed.
    fn section<T, R, F>(&self, run: &mut OptRun, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let (out, waits) = self.pool.par_map_waits(self.jobs, items, f);
        if !waits.is_empty() {
            run.sections.push(waits);
        }
        out
    }

    /// Runs `passes` back to back on every function, one work item per
    /// function carrying its [`FuncState`]. The functions are taken out of
    /// `m` for the section, so passes see only the module's shell.
    /// Returns the summed change count.
    fn block(
        &self,
        run: &mut OptRun,
        m: &mut Module,
        passes: &[PassKind],
        states: &mut Vec<FuncState>,
    ) -> usize {
        let items: Vec<(Function, FuncState)> = std::mem::take(&mut m.funcs)
            .into_iter()
            .zip(std::mem::take(states))
            .collect();
        let shell: &Module = m;
        let trace = self.trace;
        let results = self.section(run, items, |_, (mut f, mut st)| {
            let mut sp = trace.span("opt", &f.name);
            let t0 = Instant::now();
            let mut runs = Vec::with_capacity(passes.len());
            for &pass in passes {
                if !st.should_run(pass) {
                    continue;
                }
                let tp = Instant::now();
                let eff = run_pass_on_function_eff(pass, shell, &mut f, &mut st.analyses);
                st.note_ran(pass, &eff);
                runs.push(PassRun {
                    pass,
                    nanos: tp.elapsed().as_nanos(),
                    changes: eff.changes,
                });
            }
            let changes: usize = runs.iter().map(|r| r.changes).sum();
            sp.arg("changes", changes as u64);
            (f, st, runs, changes, t0.elapsed().as_nanos())
        });
        let mut total = 0;
        for (i, (f, st, runs, changes, nanos)) in results.into_iter().enumerate() {
            run.sched.ran += runs.len() as u64;
            run.sched.skipped += (passes.len() - runs.len()) as u64;
            run.funcs[i].nanos += nanos;
            run.funcs[i].changes += changes;
            run.passes.extend(runs);
            total += changes;
            m.funcs.push(f);
            states.push(st);
        }
        total
    }

    /// One `ipsccp` superstep: gather per-function call summaries in
    /// parallel, decide the lattice facts in a serial join that replays
    /// the serial algorithm's `(target, param)` order, and apply the
    /// substitutions in parallel. A function that received substitutions
    /// was mutated from outside its own pass runs, so its [`FuncState`]
    /// is reset. Returns the substitution count.
    fn ipsccp(
        &self,
        run: &mut OptRun,
        m: &mut Module,
        round: u32,
        states: &mut [FuncState],
    ) -> usize {
        let mut sp = self.trace.span("opt", "ipsccp");
        let tg = Instant::now();
        let mut summaries = {
            let funcs = &m.funcs;
            self.section(run, (0..funcs.len()).collect(), |_, i| {
                sccp::summarize_calls(&funcs[i])
            })
        };
        let gather_nanos = tg.elapsed().as_nanos();

        let tj = Instant::now();
        let param_counts: Vec<usize> = m.funcs.iter().map(|f| f.params.len()).collect();
        let new_facts = sccp::ipsccp_join(&param_counts, &mut summaries, &mut run.facts);
        let join_nanos = tj.elapsed().as_nanos();

        // Skipped when the round decided nothing new — the common case
        // from round 1 on.
        let ta = Instant::now();
        let mut subs = 0;
        if !new_facts.is_empty() {
            let facts: &[IpsccpFact] = &new_facts;
            let results = self.section(run, std::mem::take(&mut m.funcs), |i, mut f| {
                let n = sccp::apply_ipsccp_facts(&mut f, i as u32, facts);
                (f, n)
            });
            for (i, (f, n)) in results.into_iter().enumerate() {
                if n > 0 {
                    states[i].note_external_change();
                }
                subs += n;
                m.funcs.push(f);
            }
        }
        let apply_nanos = ta.elapsed().as_nanos();

        self.trace.add("opt.ipsccp.facts", new_facts.len() as u64);
        self.trace.add("opt.ipsccp.substitutions", subs as u64);
        if self.trace.is_enabled() {
            for fact in &new_facts {
                self.trace.instant(
                    "opt",
                    "lattice-fact",
                    vec![
                        (
                            "func",
                            ArgVal::from(m.funcs[fact.func as usize].name.as_str()),
                        ),
                        ("param", ArgVal::from(fact.param as u64)),
                        ("value", ArgVal::from(format!("{:?}", fact.value))),
                    ],
                );
            }
        }
        run.ipsccp_rounds.push(IpsccpRoundTiming {
            round,
            gather_nanos,
            join_nanos,
            apply_nanos,
            facts: new_facts.len() as u64,
            substitutions: subs as u64,
        });
        sp.arg("changes", subs as u64);
        subs
    }

    /// Compacts every function whose arena is not already dense and in
    /// block order; `is_compacted()` proves the skipped rebuilds would be
    /// no-ops.
    fn compact(&self, run: &mut OptRun, m: &mut Module) {
        let trace = self.trace;
        let results = self.section(run, std::mem::take(&mut m.funcs), |_, mut f| {
            let mut sp = trace.span("opt", &f.name);
            let t0 = Instant::now();
            let compacted = !f.is_compacted();
            if compacted {
                f.compact();
            }
            sp.arg("changes", 0u64);
            (f, compacted, t0.elapsed().as_nanos())
        });
        for (i, (f, compacted, nanos)) in results.into_iter().enumerate() {
            if compacted {
                run.sched.compacted += 1;
            } else {
                run.sched.compact_skipped += 1;
            }
            run.funcs[i].nanos += nanos;
            m.funcs.push(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_index_covers_all() {
        for (i, p) in PassKind::ALL.iter().enumerate() {
            assert_eq!(pass_index(*p), i);
        }
    }

    #[test]
    fn clean_run_clears_dirty_bit() {
        let mut st = FuncState::new();
        assert!(st.should_run(PassKind::Dce));
        st.note_ran(PassKind::Dce, &PassEffect::clean());
        assert!(!st.should_run(PassKind::Dce));
    }

    #[test]
    fn sccp_and_ipsccp_are_twins() {
        let mut st = FuncState::new();
        st.note_ran(PassKind::Sccp, &PassEffect::clean());
        assert!(!st.should_run(PassKind::IpSccp));
        let mut st = FuncState::new();
        st.note_ran(PassKind::IpSccp, &PassEffect::clean());
        assert!(!st.should_run(PassKind::Sccp));
    }

    #[test]
    fn mutation_redirties_fed_passes_only() {
        let mut st = FuncState::new();
        // Run everything clean first.
        for p in PassKind::ALL {
            st.note_ran(p, &PassEffect::clean());
        }
        assert!(st.is_converged());
        // A mutating Dce re-dirties exactly its fed set.
        st.note_ran(PassKind::Dce, &PassEffect::insts(1));
        for q in PassKind::ALL {
            assert_eq!(
                st.should_run(q),
                feeds(PassKind::Dce, q),
                "dirty({q:?}) after mutating Dce"
            );
        }
    }

    #[test]
    fn dce_self_edge_is_false_structural_rewriters_worst_case() {
        assert!(!feeds(PassKind::Dce, PassKind::Dce));
        assert!(!feeds(PassKind::Adce, PassKind::Adce));
        for q in PassKind::ALL {
            assert!(feeds(PassKind::InstCombine, q));
            assert!(feeds(PassKind::Sccp, q));
            assert!(feeds(PassKind::Gvn, q));
            assert!(feeds(PassKind::Mem2Reg, q));
            assert!(feeds(PassKind::Sroa, q));
            assert!(feeds(PassKind::IpSccp, q));
        }
    }

    #[test]
    fn sccp_and_ipsccp_matrix_columns_match() {
        // note_ran clears both twins at once, which is only sound if every
        // row dirties them in lockstep.
        for p in PassKind::ALL {
            assert_eq!(
                feeds(p, PassKind::Sccp),
                feeds(p, PassKind::IpSccp),
                "{p:?}"
            );
        }
    }

    #[test]
    fn external_change_dirties_everything() {
        let mut st = FuncState::new();
        for p in PassKind::ALL {
            st.note_ran(p, &PassEffect::clean());
        }
        st.note_external_change();
        for p in PassKind::ALL {
            assert!(st.should_run(p));
        }
    }
}
