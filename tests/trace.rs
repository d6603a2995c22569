//! End-to-end tests for the observability layer: `--trace-out` traces,
//! the `explain-fences` provenance table, and the `trace-check` validator,
//! exercised through the `lasagne` binary and the library pipeline.

use std::process::Command;

use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::trace::{json, TraceCtx};
use lasagne_repro::translator::{FuncFenceRecord, Pipeline, Version};

fn lasagne(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_lasagne"))
        .args(args)
        .output()
        .expect("spawn lasagne binary")
}

fn stdout(args: &[&str]) -> String {
    let out = lasagne(args);
    assert!(
        out.status.success(),
        "lasagne {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("lasagne-trace-test-{}-{name}", std::process::id()))
}

/// Span/instant categories present in a trace file.
fn categories(trace_json: &str) -> Vec<String> {
    let doc = json::parse(trace_json).expect("trace file parses");
    let mut cats: Vec<String> = doc
        .get("traceEvents")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) != Some("M"))
        .filter_map(|e| e.get("cat").and_then(|c| c.as_str()).map(str::to_owned))
        .collect();
    cats.sort();
    cats.dedup();
    cats
}

#[test]
fn cold_trace_covers_all_six_stages_and_warm_trace_is_one_cache_hit() {
    let cache_dir = tmp("cache");
    let cold_path = tmp("cold.json");
    let warm_path = tmp("warm.json");
    let _ = std::fs::remove_dir_all(&cache_dir);

    let base = [
        "translate",
        "HT",
        "--scale",
        "24",
        "--jobs",
        "4",
        "--cache-dir",
        cache_dir.to_str().unwrap(),
        "--trace-out",
    ];
    let mut cold_args: Vec<&str> = base.to_vec();
    cold_args.push(cold_path.to_str().unwrap());
    let cold_asm = stdout(&cold_args);
    let mut warm_args: Vec<&str> = base.to_vec();
    warm_args.push(warm_path.to_str().unwrap());
    let warm_asm = stdout(&warm_args);
    assert_eq!(cold_asm, warm_asm, "warm run changed the emitted assembly");

    let cold = std::fs::read_to_string(&cold_path).expect("cold trace written");
    let cold_cats = categories(&cold);
    for cat in ["lift", "refine", "fences", "merge", "opt", "armgen"] {
        assert!(
            cold_cats.iter().any(|c| c == cat),
            "cold trace has no {cat} events (saw {cold_cats:?})"
        );
    }
    assert!(
        !cold_cats.iter().any(|c| c == "cache"),
        "cold trace contains cache events: {cold_cats:?}"
    );
    // Lifting shows its sub-phases, and the promote span its work counts.
    let cold_doc = json::parse(&cold).unwrap();
    let cold_events = cold_doc.get("traceEvents").unwrap().as_arr().unwrap();
    for phase in ["lift.translate", "lift.promote", "lift.compact"] {
        assert!(
            cold_events
                .iter()
                .any(|e| e.get("name").and_then(|n| n.as_str()) == Some(phase)),
            "cold trace has no {phase} span"
        );
    }
    assert!(
        cold_events.iter().any(|e| {
            e.get("name").and_then(|n| n.as_str()) == Some("lift.promote")
                && e.get("args")
                    .and_then(|a| a.get("uses_rewritten"))
                    .is_some()
        }),
        "lift.promote spans carry no uses_rewritten count"
    );

    let warm = std::fs::read_to_string(&warm_path).expect("warm trace written");
    let warm_cats = categories(&warm);
    assert!(
        warm_cats.iter().any(|c| c == "cache"),
        "warm trace has no cache-hit span (saw {warm_cats:?})"
    );
    for cat in ["lift", "refine", "fences", "merge", "opt"] {
        assert!(
            !warm_cats.iter().any(|c| c == cat),
            "warm trace fabricated {cat} events: {warm_cats:?}"
        );
    }
    let doc = json::parse(&warm).unwrap();
    assert!(
        doc.get("traceEvents")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("cache-hit")),
        "no event named cache-hit in warm trace"
    );

    // The shipped validator accepts both files.
    for path in [&cold_path, &warm_path] {
        let out = lasagne(&["trace-check", path.to_str().unwrap(), "--jobs", "4"]);
        assert!(
            out.status.success(),
            "trace-check rejected {}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // And rejects garbage.
    let bad = tmp("bad.json");
    std::fs::write(&bad, "{\"traceEvents\":[]}").unwrap();
    let out = lasagne(&["trace-check", bad.to_str().unwrap()]);
    assert!(!out.status.success(), "trace-check accepted an empty trace");

    for p in [&cold_path, &warm_path, &bad] {
        std::fs::remove_file(p).ok();
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn explain_fences_is_byte_identical_serial_vs_parallel() {
    let serial = stdout(&["explain-fences", "KM", "--scale", "24"]);
    let parallel = stdout(&["explain-fences", "KM", "--scale", "24", "--jobs", "4"]);
    assert_eq!(
        serial, parallel,
        "--jobs 4 changed the explain-fences table"
    );
    for col in ["function", "rule", "fate", "reduction"] {
        assert!(serial.contains(col), "missing `{col}` in:\n{serial}");
    }
}

#[test]
fn provenance_totals_match_placement_stats_for_every_benchmark() {
    for b in &all_benchmarks(24) {
        let trace = TraceCtx::collecting();
        let (traced_t, report) = Pipeline::new(Version::PPOpt)
            .with_trace(trace)
            .run(&b.binary)
            .unwrap();
        let (t, records) = Pipeline::new(Version::PPOpt)
            .explain_fences(&b.binary)
            .unwrap();
        assert_eq!(
            lasagne_repro::armgen::print::print_module(&traced_t.arm),
            lasagne_repro::armgen::print::print_module(&t.arm),
            "{}: explain path diverged from the traced run",
            b.name
        );
        let inserted: usize = records.iter().map(FuncFenceRecord::inserted).sum();
        assert_eq!(inserted, t.stats.fences_placed, "{}", b.name);
        let merged: usize = records.iter().map(FuncFenceRecord::merged).sum();
        assert_eq!(
            merged,
            t.stats.fences_placed - t.stats.fences_final,
            "{}",
            b.name
        );
        let m = report.metrics.expect("metrics on traced run");
        assert_eq!(
            (m.counter("fences.placed.frm") + m.counter("fences.placed.fww")) as usize,
            inserted,
            "{}",
            b.name
        );
        let elided: usize = records.iter().map(FuncFenceRecord::elided).sum();
        assert_eq!(
            m.counter("fences.elided.stack") as usize,
            elided,
            "{}",
            b.name
        );
    }
}
