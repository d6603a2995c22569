//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. With `--trace 0` it sets the workload up
//! several times (reporting the median time each set-up spent in the
//! program), drives it for `--seconds`, checks every output, and prints
//! the end-to-end metrics.
//! With `--trace 1` it instead measures each layer through the benchmark's
//! own spans (see `replay.rs`) and prints the per-layer metrics. The last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! a `{"detail": ...}` object with the sample counts, input statistics and
//! host CPU count behind the numbers. Diagnostics go to standard error.
//! The exit code is 0 only when every check passed.

mod batch;
mod calib;
mod inputs;
mod quality;
mod replay;
mod serve_mixed;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use lasagne::pipeline::pool::Pool;
use lasagne_phoenix::all_benchmarks;
use lasagne_trace::{MetricsSnapshot, TraceCtx};

use batch::{InputStats, Kind};
use calib::Scaled;
use inputs::PHOENIX_SCALE;
use quality::Quality;
use stats::{host_cpus, json_num, median, peak_rss_mb, percentile, reset_peak_rss, Metrics};

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["phoenix-cold", "gen-large", "phoenix-warm", "serve-mixed"];

/// End-to-end metrics (`--trace 0`), reported by every workload.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("arm_insts", "count"),
    ("arm_fences", "count"),
    ("arm_cycles_gmean", "ratio"),
];

/// Opt passes, by `PassKind::name`.
const PASSES: [&str; 11] = [
    "instcombine",
    "dce",
    "adce",
    "licm",
    "reassociate",
    "gvn",
    "mem2reg",
    "sroa",
    "sccp",
    "ipsccp",
    "dse",
];

/// Per-layer metrics (`--trace 1`), reported by every workload; a layer
/// the workload does not exercise reads 0. Pipeline-layer values are per
/// pass over the workload's distinct requests; serve and pool values
/// cover the whole traced load.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("inputs.binaries", "count"),
        ("inputs.functions", "count"),
        ("inputs.x86_insts", "count"),
        ("inputs.lir_insts", "count"),
        ("lifter.prepare_ms", "ms"),
        ("lifter.lift_function_ms", "ms"),
        ("lifter.finish_ms", "ms"),
        ("lifter.lir_insts", "count"),
        ("refine.ms", "ms"),
        ("refine.changes", "count"),
        ("fences.place_ms", "ms"),
        ("fences.merge_ms", "ms"),
        ("fences.placed", "count"),
        ("fences.merged", "count"),
        ("opt.ms", "ms"),
        ("opt.sched.ran", "count"),
        ("opt.sched.skipped", "count"),
        ("opt.changes", "count"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for p in PASSES {
        v.push((format!("opt.{p}.ms"), "ms"));
        v.push((format!("opt.{p}.useful_ratio"), "ratio"));
    }
    v.extend(
        [
            ("armgen.lower_ms", "ms"),
            ("armgen.peephole_ms", "ms"),
            ("armgen.insts", "count"),
            ("cache.key_ms", "ms"),
            ("cache.load_ms", "ms"),
            ("cache.hit_ratio", "ratio"),
            ("serve.client.hot_us_p50", "us"),
            ("serve.client.hot_us_p99", "us"),
            ("serve.client.cold_ms_p50", "ms"),
            ("serve.hot.service_us_p50", "us"),
            ("serve.cold.service_ms_p50", "ms"),
            ("serve.queue_wait_us_p50", "us"),
            ("serve.wire_us_p50", "us"),
            ("serve.hits.hot", "count"),
            ("serve.hits.coalesced", "count"),
            ("serve.hits.disk", "count"),
            ("serve.hits.cold", "count"),
            ("serve.shed", "count"),
            ("serve.timeouts", "count"),
            ("serve.hot.evictions", "count"),
            ("pool.submitted", "count"),
            ("pool.steals", "count"),
            ("pool.parks", "count"),
            ("trace.overhead_pct", "%"),
        ]
        .iter()
        .map(|&(n, u)| (n.to_string(), u)),
    );
    v
}

/// Set-ups per `--trace 0` run; `setup_s` is the median of the time each
/// spent in the program.
const SETUPS: usize = 7;

const USAGE: &str =
    "usage: perfbench --workload <phoenix-cold|gen-large|phoenix-warm|serve-mixed> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == val)
                        .ok_or_else(|| format!("unknown workload {val}"))?,
                );
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run reports.
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Metrics,
    detail: BTreeMap<&'static str, String>,
}

fn inputs_json(st: &InputStats) -> String {
    format!(
        "{{\"binaries\": {}, \"functions\": {}, \"x86_insts\": {}, \"lir_insts\": {}}}",
        st.binaries, st.functions, st.x86_insts, st.lir_insts
    )
}

fn put_inputs(v: &mut BTreeMap<String, f64>, st: &InputStats) {
    v.insert("inputs.binaries".into(), st.binaries as f64);
    v.insert("inputs.functions".into(), st.functions as f64);
    v.insert("inputs.x86_insts".into(), st.x86_insts as f64);
    v.insert("inputs.lir_insts".into(), st.lir_insts as f64);
}

fn put_quality(m: &mut Metrics, q: &Quality) {
    m.put("arm_insts", q.arm_insts as f64, "count");
    m.put("arm_fences", q.arm_fences as f64, "count");
    m.put("arm_cycles_gmean", q.arm_cycles_gmean, "ratio");
}

/// The end-to-end metrics common to every workload, in `END_TO_END` order,
/// from speed-scaled set-up times and slices (see `calib`).
fn end_to_end(setup_s: &[f64], ok: u64, sc: &Scaled, q: &Quality) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", median(setup_s), "s");
    m.put("ops_per_s", ok as f64 / sc.wall_s.max(1e-9), "1/s");
    m.put("op_ms_p50", median(&sc.lat_ms), "ms");
    m.put("op_ms_p90", percentile(&sc.lat_ms, 90.0), "ms");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    put_quality(&mut m, q);
    m
}

/// Unscaled figures and speed factors, for the detail line.
fn raw_json(ok: u64, sc: &Scaled, setup_raw: &[f64]) -> String {
    let fields = [
        ("setup_s", median(setup_raw)),
        ("ops_per_s", ok as f64 / sc.raw_wall_s.max(1e-9)),
        ("op_ms_p50", median(&sc.raw_lat_ms)),
        ("op_ms_p90", percentile(&sc.raw_lat_ms, 90.0)),
        ("speed_mean", sc.mean_speed()),
        ("speed_min", percentile(&sc.speeds, 0.0)),
        ("speed_max", percentile(&sc.speeds, 100.0)),
        ("calib_discarded", calib::discarded() as f64),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", json_num(*v)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The host's speed factor now, or 1 with the reason recorded in
/// `problems` (which fails the run) when it cannot be measured.
fn calibrate(problems: &mut Vec<String>) -> f64 {
    calib::speed().unwrap_or_else(|e| {
        problems.push(e);
        1.0
    })
}

/// Length of one workload slice between calibrations, and of one traced
/// or untraced slice of a traced `serve-mixed` run.
const SLICE_S: f64 = 0.5;

/// Runs `seconds` of workload as short slices, `slice(k, d)` running slice
/// `k` for `d` seconds and returning its latencies (ms) and wall time
/// (s). The host speed is measured before the first slice and after each.
fn sliced(
    seconds: f64,
    problems: &mut Vec<String>,
    mut slice: impl FnMut(usize, f64) -> (Vec<f64>, f64),
) -> Scaled {
    let n = (seconds / SLICE_S).ceil().max(1.0) as usize;
    let mut cals = vec![calibrate(problems)];
    let mut slices = Vec::with_capacity(n);
    for k in 0..n {
        slices.push(slice(k, seconds / n as f64));
        cals.push(calibrate(problems));
    }
    Scaled::new(slices, &cals)
}

/// Runs `f` `SETUPS` times, each in a fresh directory, keeping the last
/// result (`drop_old` releases the others before the next starts). `f`
/// returns its set-up and the seconds of it spent in the program. Returns
/// those times and the calibrations made before, between and after the
/// set-ups (see `setup_seconds`).
fn timed_setups<S>(
    work: &Path,
    problems: &mut Vec<String>,
    mut f: impl FnMut(&Path) -> (S, f64),
    mut drop_old: impl FnMut(S),
) -> (S, Vec<f64>, Vec<f64>) {
    let mut raw = Vec::new();
    let mut cals = vec![calibrate(problems)];
    let mut last = None;
    for k in 0..SETUPS {
        if let Some(s) = last.take() {
            drop_old(s);
        }
        let (s, t) = f(&work.join(format!("setup-{k}")));
        raw.push(t);
        last = Some(s);
        cals.push(calibrate(problems));
    }
    (last.expect("SETUPS > 0"), raw, cals)
}

/// Set-up times scaled by one factor: the median of every calibration of
/// the run, set-up and load alike. The set-ups take a few seconds, too
/// short for their own calibrations to outvote a burst from other tenants.
fn setup_seconds(raw: &[f64], setup_cals: &[f64], sc: &Scaled) -> Vec<f64> {
    let all: Vec<f64> = setup_cals.iter().chain(&sc.cals).copied().collect();
    let factor = median(&all);
    raw.iter().map(|t| t * factor).collect()
}

fn kind_of(workload: &str) -> Option<Kind> {
    match workload {
        "phoenix-cold" => Some(Kind::PhoenixCold),
        "gen-large" => Some(Kind::GenLarge),
        "phoenix-warm" => Some(Kind::PhoenixWarm),
        _ => None,
    }
}

fn run_batch(kind: Kind, args: &Args, work: &Path, trace_out: &Path) -> Report {
    let mut detail = BTreeMap::new();
    if args.trace {
        let setup = batch::setup(kind, args.seed, &work.join("setup"));
        let pool0 = Pool::shared().stats();
        let t = replay::traced(&setup, args.seconds, trace_out);
        let pool = Pool::shared().stats().since(&pool0);
        let mut values = t.values;
        put_inputs(&mut values, &setup.inputs);
        values.insert("pool.submitted".into(), pool.submitted as f64);
        values.insert("pool.steals".into(), pool.steals as f64);
        values.insert("pool.parks".into(), pool.parks as f64);
        detail.insert("inputs", inputs_json(&setup.inputs));
        detail.insert("trace_file", format!("\"{}\"", trace_out.display()));
        let mut problems = setup.problems;
        problems.extend(t.problems);
        return Report {
            attempted: t.attempted,
            failed: t.failed,
            problems,
            metrics: layer_metrics(values),
            detail,
        };
    }
    let mut problems = Vec::new();
    let (setup, setup_raw, setup_cals) = timed_setups(
        work,
        &mut problems,
        |d| {
            let s = batch::setup(kind, args.seed, d);
            let t = s.program_s;
            (s, t)
        },
        drop,
    );
    problems.extend(setup.problems.iter().cloned());
    if let Err(e) = reset_peak_rss() {
        problems.push(e);
    }
    let (mut attempted, mut failed, mut pos) = (0u64, 0u64, 0usize);
    let mut load_problems = Vec::new();
    let sc = if problems.is_empty() {
        sliced(args.seconds, &mut problems, |_, d| {
            let r = batch::run(&setup, d, pos);
            pos = r.next;
            attempted += r.attempted;
            failed += r.failed;
            load_problems.extend(r.problems);
            (r.lat_ms, r.wall_s)
        })
    } else {
        Scaled::default()
    };
    // Set-up, memory-reset and calibration problems each fail one
    // operation; load problems are already counted in `failed`.
    let other_failures = problems.len() as u64;
    problems.append(&mut load_problems);
    let ok = attempted - failed;
    let setup_s = setup_seconds(&setup_raw, &setup_cals, &sc);
    detail.insert("inputs", inputs_json(&setup.inputs));
    detail.insert(
        "samples",
        format!(
            "{{\"op_ms\": {}, \"setup_s\": {}, \"slices\": {}}}",
            sc.lat_ms.len(),
            setup_s.len(),
            sc.speeds.len()
        ),
    );
    detail.insert("raw", raw_json(ok, &sc, &setup_raw));
    Report {
        attempted: attempted.max(1),
        failed: failed + other_failures,
        problems,
        metrics: end_to_end(&setup_s, ok, &sc, &setup.quality),
        detail,
    }
}

fn hist_p50(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    match (after.histos.get(name), before.histos.get(name)) {
        (Some(a), Some(b)) => a.diff(b).percentile(50.0) as f64,
        (Some(a), None) => a.percentile(50.0) as f64,
        _ => 0.0,
    }
}

/// Per-layer serve and pool values of a traced load.
fn serve_layers(l: &serve_mixed::Load, v: &mut BTreeMap<String, f64>) {
    let (hot_p50, hot_p99, cold_p50) = serve_mixed::split(l);
    v.insert("serve.client.hot_us_p50".into(), hot_p50);
    v.insert("serve.client.hot_us_p99".into(), hot_p99);
    v.insert("serve.client.cold_ms_p50".into(), cold_p50);
    v.insert("serve.wire_us_p50".into(), median(&l.wire_us));
    let (m0, m1) = &l.metrics;
    v.insert(
        "serve.hot.service_us_p50".into(),
        hist_p50(m0, m1, "serve.latency.hot") / 1e3,
    );
    v.insert(
        "serve.cold.service_ms_p50".into(),
        hist_p50(m0, m1, "serve.latency.cold") / 1e6,
    );
    v.insert(
        "serve.queue_wait_us_p50".into(),
        hist_p50(m0, m1, "serve.queue_wait") / 1e3,
    );
    let (s0, s1) = &l.server;
    for (name, d) in [
        ("serve.hits.hot", s1.hot - s0.hot),
        ("serve.hits.coalesced", s1.coalesced - s0.coalesced),
        ("serve.hits.disk", s1.disk - s0.disk),
        ("serve.hits.cold", s1.cold - s0.cold),
        ("serve.shed", s1.shed - s0.shed),
        ("serve.timeouts", s1.timeouts - s0.timeouts),
        ("serve.hot.evictions", s1.hot_evictions - s0.hot_evictions),
    ] {
        v.insert(name.into(), d as f64);
    }
    v.insert("pool.submitted".into(), l.pool.submitted as f64);
    v.insert("pool.steals".into(), l.pool.steals as f64);
    v.insert("pool.parks".into(), l.pool.parks as f64);
}

fn run_serve(args: &Args, work: &Path, trace_out: &Path) -> Report {
    let mut detail = BTreeMap::new();
    let benches = all_benchmarks(PHOENIX_SCALE);
    let streams = serve_mixed::streams(args.seed, args.seconds, &serve_mixed::hot_keys(&benches));
    let setup_once = |d: &Path| {
        let s = std::fs::create_dir_all(d)
            .map_err(|e| format!("{}: {e}", d.display()))
            .and_then(|()| serve_mixed::setup(&benches, d));
        let t = s.as_ref().map_or(0.0, |s| s.program_s);
        (s, t)
    };
    let mut problems = Vec::new();
    let (setup, setup_raw, setup_cals) = if args.trace {
        (setup_once(&work.join("setup")).0, Vec::new(), Vec::new())
    } else {
        timed_setups(work, &mut problems, setup_once, |s| {
            if let Ok(s) = s {
                s.shutdown();
            }
        })
    };
    let setup = match setup {
        Ok(s) => s,
        Err(e) => {
            problems.push(e);
            return Report {
                attempted: 1,
                failed: problems.len() as u64,
                problems,
                metrics: Metrics::default(),
                detail,
            };
        }
    };
    problems.extend(setup.problems.iter().cloned());
    if let Err(e) = reset_peak_rss() {
        problems.push(e);
    }
    let (off, on) = (TraceCtx::disabled(), TraceCtx::collecting());
    let mut pos = vec![0; serve_mixed::CLIENTS];
    let mut total: Option<serve_mixed::Load> = None;
    let mut slice = |ctx: &TraceCtx, d: f64| {
        let l = serve_mixed::run(&setup, &streams, d, &pos, ctx);
        pos.clone_from(&l.consumed);
        let out = (l.lat_ms.clone(), l.wall_s);
        match &mut total {
            Some(t) => t.absorb(l),
            None => total = Some(l),
        }
        out
    };
    // A traced run alternates untraced and traced slices, without
    // calibration; the difference in mean latency between the two is the
    // tracing overhead.
    let (sc, overhead_pct) = if args.trace {
        let n = (args.seconds / SLICE_S).ceil().max(2.0) as usize;
        let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
        for k in 0..n {
            let d = args.seconds / n as f64;
            if k % 2 == 1 {
                traced_ms.extend(slice(&on, d).0);
            } else {
                plain_ms.extend(slice(&off, d).0);
            }
        }
        let mean = |x: &[f64]| x.iter().sum::<f64>() / x.len().max(1) as f64;
        let (p, t) = (mean(&plain_ms), mean(&traced_ms));
        (Scaled::default(), 100.0 * (t - p) / p)
    } else {
        let sc = sliced(args.seconds, &mut problems, |_, d| slice(&off, d));
        (sc, 0.0)
    };
    let load = total.expect("at least one slice");
    let setup_s = setup_seconds(&setup_raw, &setup_cals, &sc);
    let (fresh_inputs, mut fresh_problems) = serve_mixed::verify_fresh(&streams, &load.fresh_out);
    let mut inputs = setup.hot_inputs;
    inputs.merge(&fresh_inputs);
    // Set-up, memory-reset and calibration problems each fail one
    // operation; load problems are already counted in `load.failed`.
    let failed = load.failed + problems.len() as u64 + fresh_problems.len() as u64;
    problems.extend(load.problems.iter().cloned());
    problems.append(&mut fresh_problems);
    detail.insert("inputs", inputs_json(&inputs));
    let ok = load.attempted - load.failed;
    let metrics = if args.trace {
        let mut v = BTreeMap::new();
        serve_layers(&load, &mut v);
        v.insert("trace.overhead_pct".into(), overhead_pct);
        put_inputs(&mut v, &inputs);
        if let Some(json) = on.chrome_json() {
            if let Err(e) = std::fs::write(trace_out, json) {
                problems.push(format!("writing {}: {e}", trace_out.display()));
            }
        }
        detail.insert("trace_file", format!("\"{}\"", trace_out.display()));
        layer_metrics(v)
    } else {
        let (hot_p50, hot_p99, cold_p50) = serve_mixed::split(&load);
        let hits: Vec<String> = load
            .client_hits
            .iter()
            .map(|(k, n)| format!("\"{k}\": {n}"))
            .collect();
        detail.insert(
            "serve",
            format!(
                "{{\"hot_us_p50\": {}, \"hot_us_p99\": {}, \"cold_ms_p50\": {}, \"hits\": {{{}}}}}",
                json_num(hot_p50),
                json_num(hot_p99),
                json_num(cold_p50),
                hits.join(", ")
            ),
        );
        detail.insert(
            "samples",
            format!(
                "{{\"op_ms\": {}, \"hot_us\": {}, \"cold_ms\": {}, \"setup_s\": {}, \"slices\": {}}}",
                load.lat_ms.len(),
                load.hot_us.len(),
                load.cold_ms.len(),
                setup_s.len(),
                sc.speeds.len()
            ),
        );
        detail.insert("raw", raw_json(ok, &sc, &setup_raw));
        end_to_end(&setup_s, ok, &sc, &setup.quality)
    };
    setup.shutdown();
    Report {
        attempted: load.attempted.max(1),
        failed,
        problems,
        metrics,
        detail,
    }
}

/// Every declared per-layer metric, in declaration order (0 if absent).
fn layer_metrics(values: BTreeMap<String, f64>) -> Metrics {
    let mut m = Metrics::default();
    for (name, unit) in per_layer() {
        let v = values.get(&name).copied().unwrap_or(0.0);
        m.put(name, v, unit);
    }
    m
}

fn main() {
    // The calibration kernel's child process (see `calib`).
    if std::env::args().nth(1).as_deref() == Some("--calibrate") {
        println!("{}", calib::kernel_ns());
        return;
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if !Path::new("perfbench/Cargo.toml").is_file() {
        eprintln!("perfbench: run from the repository root");
        std::process::exit(2);
    }
    let target = Path::new("perfbench/target");
    let work: PathBuf = target.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        std::process::exit(2);
    }
    let trace_out = target.join(format!("trace-{}-{}.json", args.workload, args.seed));
    let report = match kind_of(args.workload) {
        Some(kind) => run_batch(kind, &args, &work, &trace_out),
        None => run_serve(&args, &work, &trace_out),
    };
    let _ = std::fs::remove_dir_all(&work);

    for p in report.problems.iter().take(20) {
        eprintln!("perfbench: {p}");
    }
    let correct = report.problems.is_empty() && report.failed == 0;
    let mut detail = format!(
        "{{\"detail\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host_cpus\": {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host_cpus()
    );
    for (k, v) in &report.detail {
        let _ = write!(detail, ", \"{k}\": {v}");
    }
    detail.push_str("}}");
    println!("{detail}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        report.metrics.to_json()
    );
    std::process::exit(if correct { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use lasagne::pipeline::module_key;
    use std::collections::HashSet;

    fn scratch(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join(format!("test-{name}-{}", std::process::id()))
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_outputs() {
        for kind in [Kind::PhoenixCold, Kind::GenLarge] {
            let dir = scratch("same");
            let a = batch::setup(kind, 7, &dir.join("a"));
            let b = batch::setup(kind, 7, &dir.join("b"));
            let _ = std::fs::remove_dir_all(&dir);
            assert!(a.problems.is_empty(), "{:?}", a.problems);
            let bins = |s: &batch::Setup| -> Vec<_> {
                s.reqs.iter().map(|r| (r.bin.clone(), r.version)).collect()
            };
            assert_eq!(bins(&a), bins(&b), "{kind:?} inputs");
            assert_eq!(a.order, b.order, "{kind:?} request order");
            assert_eq!(a.hashes, b.hashes, "{kind:?} output hashes");
            assert_eq!(a.inputs, b.inputs);
        }
        let hot = HashSet::new();
        let (a, b) = (
            serve_mixed::streams(7, 1.0, &hot),
            serve_mixed::streams(7, 1.0, &hot),
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.slots, y.slots);
            assert_eq!(x.fresh, y.fresh);
        }
    }

    #[test]
    fn another_seed_gives_other_inputs() {
        assert_ne!(inputs::gen_large_binaries(1), inputs::gen_large_binaries(2));
        let hot = HashSet::new();
        let (a, b) = (
            serve_mixed::streams(1, 1.0, &hot),
            serve_mixed::streams(2, 1.0, &hot),
        );
        assert_ne!(a[0].slots, b[0].slots);
        assert_ne!(a[0].fresh, b[0].fresh);
    }

    #[test]
    fn fresh_requests_are_unique_keys() {
        let s = serve_mixed::streams(3, 2.0, &HashSet::new());
        let keys: Vec<u64> = s
            .iter()
            .flat_map(|st| st.fresh.iter().map(|(bin, v)| module_key(bin, *v)))
            .collect();
        let n = keys.len();
        assert!(n > 0);
        assert_eq!(keys.into_iter().collect::<HashSet<_>>().len(), n);
    }

    #[test]
    fn gen_large_has_the_same_composition_for_every_seed() {
        let sizes: HashSet<usize> = (0..4)
            .map(|seed| {
                inputs::x86_insts(&inputs::generated_binary(seed, inputs::GEN_LARGE_SEGMENTS))
            })
            .collect();
        assert_eq!(sizes.len(), 1, "{sizes:?}");
    }

    /// `(name, unit)` of every metric of one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let body = text
            .split(&format!("\"{section}\": ["))
            .nth(1)
            .and_then(|t| t.split(']').next())
            .expect("section present");
        let field = |line: &str, key: &str| -> String {
            line.split(&format!("\"{key}\": \""))
                .nth(1)
                .and_then(|t| t.split('"').next())
                .unwrap_or("")
                .to_string()
        };
        body.lines()
            .filter(|l| l.contains("\"name\""))
            .map(|l| (field(l, "name"), field(l, "unit")))
            .collect()
    }

    #[test]
    fn metric_names_are_valid_and_match_benchmark_json() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        for (n, _) in e2e.iter().chain(&layers) {
            assert!(stats::valid_name(n), "{n}");
        }
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
