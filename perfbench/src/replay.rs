//! The traced per-layer run of the in-process workloads.
//!
//! Each request runs three ways. A *traced replay* rebuilds the pipeline
//! from each layer's public entry points, with a span around every call.
//! An *untraced replay* makes the same calls on a disabled trace context,
//! so tracing overhead is the difference between the two. `Pipeline::run`
//! gives the opt stage's own per-pass figures from its `PipelineReport`.
//! Every request, every way, must print exactly the assembly
//! `Pipeline::run` printed in set-up; otherwise the per-layer numbers
//! would describe a different program.
//!
//! Cold replay: `LiftPlan::prepare / lift_function / finish` →
//! `refine_module` (PPOpt) → `place_fences_module(StackAware)` →
//! `merge_fences_module` (POpt, PPOpt) → `scheduled_pipeline(m, 3)` (Opt
//! and up) → `lower_module_raw` → `peephole_module`.
//! Warm replay (`phoenix-warm`): `module_key` → `TranslationCache::load`
//! → the same two armgen calls.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use lasagne::pipeline::module_key;
use lasagne::{PipelineReport, Version};
use lasagne_armgen::print::print_module;
use lasagne_armgen::AModule;
use lasagne_cache::TranslationCache;
use lasagne_fences::Strategy;
use lasagne_lifter::{LiftPlan, TranslateOptions};
use lasagne_lir::Module;
use lasagne_opt::PassKind;
use lasagne_trace::TraceCtx;

use crate::batch::{run_pipeline, Kind, Setup};
use crate::inputs::asm_hash;
use crate::stats::median;

/// Rounds the pipeline's opt stage runs at most.
const OPT_ROUNDS: usize = 3;

/// Outcome of a traced run: per-layer values by metric name.
pub struct Traced {
    pub values: BTreeMap<String, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

fn armgen(ctx: &TraceCtx, m: &Module) -> AModule {
    let mut arm = {
        let _s = ctx.span("armgen", "lower");
        lasagne_armgen::lower_module_raw(m)
    };
    {
        let _s = ctx.span("armgen", "peephole");
        lasagne_armgen::peephole_module(&mut arm);
    }
    ctx.add("armgen.insts", arm.inst_count() as u64);
    arm
}

fn replay_cold(
    ctx: &TraceCtx,
    bin: &lasagne_x86::binary::Binary,
    v: Version,
) -> Result<String, String> {
    let plan = {
        let _s = ctx.span("lifter", "prepare");
        LiftPlan::prepare(bin, TranslateOptions::default())
    }
    .map_err(|e| e.to_string())?;
    let mut bodies = Vec::with_capacity(plan.num_functions());
    for i in 0..plan.num_functions() {
        let _s = ctx.span("lifter", "lift_function");
        bodies.push(plan.lift_function(i).map_err(|e| e.to_string())?);
    }
    ctx.add(
        "lifter.lir_insts",
        bodies.iter().map(|f| f.live_inst_count() as u64).sum(),
    );
    let mut m = {
        let _s = ctx.span("lifter", "finish");
        plan.finish(bodies)
    }
    .map_err(|e| e.to_string())?;
    if v == Version::PPOpt {
        let _s = ctx.span("refine", "refine_module");
        let st = lasagne_refine::refine_module(&mut m);
        ctx.add(
            "refine.changes",
            (st.inttoptr_rewritten + st.params_promoted) as u64,
        );
    }
    {
        let _s = ctx.span("fences", "place");
        let st = lasagne_fences::place_fences_module(&mut m, Strategy::StackAware);
        ctx.add("fences.placed", st.total() as u64);
    }
    if matches!(v, Version::POpt | Version::PPOpt) {
        let _s = ctx.span("fences", "merge");
        ctx.add(
            "fences.merged",
            lasagne_fences::merge_fences_module(&mut m) as u64,
        );
    }
    if v != Version::Lifted {
        let _s = ctx.span("opt", "scheduled_pipeline");
        lasagne_opt::scheduled_pipeline(&mut m, OPT_ROUNDS);
    }
    Ok(print_module(&armgen(ctx, &m)))
}

fn replay_warm(
    ctx: &TraceCtx,
    bin: &lasagne_x86::binary::Binary,
    v: Version,
    dir: &Path,
) -> Result<String, String> {
    let key = {
        let _s = ctx.span("cache", "key");
        module_key(bin, v)
    };
    let cached = {
        let _s = ctx.span("cache", "load");
        TranslationCache::open(dir).ok().and_then(|c| c.load(key))
    };
    ctx.add("cache.loads", 1);
    let cached = cached.ok_or("disk cache miss")?;
    ctx.add("cache.hits", 1);
    Ok(print_module(&armgen(ctx, &cached.module)))
}

/// Per-pass opt figures summed over the reports of `Pipeline::run`.
#[derive(Default)]
struct OptTotals {
    /// Per pass name: (nanos, invocations, invocations with no change).
    passes: BTreeMap<&'static str, (u128, u64, u64)>,
    ran: u64,
    skipped: u64,
    changes: u64,
}

impl OptTotals {
    fn add(&mut self, report: &PipelineReport) {
        for p in &report.opt_passes {
            let e = self.passes.entry(p.pass).or_default();
            e.0 += p.nanos;
            e.1 += p.invocations;
            e.2 += p.hist[0];
        }
        if let Some(st) = &report.opt_sched {
            self.ran += st.ran;
            self.skipped += st.skipped;
            self.changes += st.changes as u64;
        }
    }
}

/// One replay of request `i` on `ctx`: whether it printed the reference
/// assembly, and how long it took (ms).
fn replay(setup: &Setup, i: usize, ctx: &TraceCtx) -> (Result<bool, String>, f64) {
    let r = &setup.reqs[i];
    let t0 = Instant::now();
    let _s = ctx.span("request", &r.label);
    let asm = match setup.kind {
        Kind::PhoenixWarm => {
            let dir = setup.cache_dir.as_deref().expect("warm set-up has a cache");
            replay_warm(ctx, &r.bin, r.version, dir)
        }
        _ => replay_cold(ctx, &r.bin, r.version),
    };
    let ok = asm.map(|a| a == setup.reference[i]);
    (ok, t0.elapsed().as_secs_f64() * 1e3)
}

/// Runs every request in `setup.order` three ways for `seconds`, rounded
/// up to whole passes over the requests: the traced replay and the
/// untraced replay back to back, which of the two goes first alternating,
/// then `Pipeline::run`. Writes the span trace to `trace_out` and returns
/// per-pass layer values.
pub fn traced(setup: &Setup, seconds: f64, trace_out: &Path) -> Traced {
    let (on, off) = (TraceCtx::collecting(), TraceCtx::disabled());
    let n = setup.reqs.len();
    let mut out = Traced {
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    // Per request, traced time ÷ untraced time − 1.
    let mut overheads = Vec::new();
    let mut opt = OptTotals::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done = 0;
    // Whole passes only, so counts are exact per-pass figures.
    while done == 0 || done % n != 0 || Instant::now() < deadline {
        let i = setup.order[done % setup.order.len()];
        let r = &setup.reqs[i];
        let ((traced_ok, t), (untraced_ok, u)) = if done % 2 == 0 {
            let a = replay(setup, i, &on);
            (a, replay(setup, i, &off))
        } else {
            let b = replay(setup, i, &off);
            (replay(setup, i, &on), b)
        };
        overheads.push(t / u - 1.0);
        let pipeline_ok = run_pipeline(r, setup.cache_dir.as_deref()).map(|(t, report)| {
            opt.add(&report);
            asm_hash(&print_module(&t.arm)) == setup.hashes[i]
        });
        for (what, ok) in [
            ("traced replay", traced_ok),
            ("untraced replay", untraced_ok),
            ("pipeline", pipeline_ok),
        ] {
            out.attempted += 1;
            match ok {
                Ok(true) => {}
                Ok(false) => {
                    out.failed += 1;
                    out.problems.push(format!(
                        "{}: {what} output differs from Pipeline::run",
                        r.label
                    ));
                }
                Err(e) => {
                    out.failed += 1;
                    out.problems.push(format!("{}: {e}", r.label));
                }
            }
        }
        done += 1;
    }

    let col = on.collector().expect("collecting context");
    // Values are per pass over the `n` distinct requests.
    let passes = done as f64 / n as f64;
    let mut span_ns: BTreeMap<String, u64> = BTreeMap::new();
    for e in col.all_events() {
        if let Some(d) = e.dur_nanos {
            *span_ns.entry(format!("{}.{}", e.cat, e.name)).or_default() += d;
        }
    }
    let ms = |k: &str| span_ns.get(k).copied().unwrap_or(0) as f64 / 1e6 / passes;
    let snap = on.metrics_snapshot().expect("collecting context");
    let count = |k: &str| snap.counter(k) as f64 / passes;
    let v = &mut out.values;
    for (name, span) in [
        ("lifter.prepare_ms", "lifter.prepare"),
        ("lifter.lift_function_ms", "lifter.lift_function"),
        ("lifter.finish_ms", "lifter.finish"),
        ("refine.ms", "refine.refine_module"),
        ("fences.place_ms", "fences.place"),
        ("fences.merge_ms", "fences.merge"),
        ("opt.ms", "opt.scheduled_pipeline"),
        ("armgen.lower_ms", "armgen.lower"),
        ("armgen.peephole_ms", "armgen.peephole"),
        ("cache.key_ms", "cache.key"),
        ("cache.load_ms", "cache.load"),
    ] {
        v.insert(name.into(), ms(span));
    }
    for name in [
        "lifter.lir_insts",
        "refine.changes",
        "fences.placed",
        "fences.merged",
        "armgen.insts",
    ] {
        v.insert(name.into(), count(name));
    }
    // Opt counts and per-pass figures come from the pipeline's own report.
    v.insert("opt.sched.ran".into(), opt.ran as f64 / passes);
    v.insert("opt.sched.skipped".into(), opt.skipped as f64 / passes);
    v.insert("opt.changes".into(), opt.changes as f64 / passes);
    for k in PassKind::ALL {
        let (nanos, calls, idle) = opt.passes.get(k.name()).copied().unwrap_or_default();
        v.insert(format!("opt.{}.ms", k.name()), nanos as f64 / 1e6 / passes);
        v.insert(
            format!("opt.{}.useful_ratio", k.name()),
            if calls == 0 {
                0.0
            } else {
                1.0 - idle as f64 / calls as f64
            },
        );
    }
    let loads = snap.counter("cache.loads");
    v.insert(
        "cache.hit_ratio".into(),
        if loads == 0 {
            0.0
        } else {
            snap.counter("cache.hits") as f64 / loads as f64
        },
    );
    // Paired per request, so slow drift of the host's speed cancels.
    v.insert("trace.overhead_pct".into(), 100.0 * median(&overheads));
    if let Some(json) = on.chrome_json() {
        if let Err(e) = std::fs::write(trace_out, json) {
            out.problems
                .push(format!("writing {}: {e}", trace_out.display()));
        }
    }
    out
}
