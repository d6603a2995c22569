//! The in-process workloads: `phoenix-cold`, `gen-large` and
//! `phoenix-warm`, each a closed loop of `Pipeline::run` calls on one
//! thread (jobs = 1), the next request issued when the previous returns.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use lasagne::{Pipeline, Translation, Version};
use lasagne_armgen::print::print_module;
use lasagne_phoenix::all_benchmarks;

use crate::inputs::{
    asm_hash, gen_large_binaries, pass_orders, phoenix_requests, x86_insts, Request, Rng,
    ORDER_PASSES, PHOENIX_SCALE,
};
use crate::quality::{self, Quality};

/// Which in-process workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PhoenixCold,
    GenLarge,
    PhoenixWarm,
}

/// Size of a workload's distinct input set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InputStats {
    pub binaries: u64,
    pub functions: u64,
    pub x86_insts: u64,
    /// LIR instructions straight out of the lifter, summed over binaries.
    pub lir_insts: u64,
}

impl InputStats {
    /// Statistics of every `per_bin`-th request's binary (`outs[i]`
    /// translates `reqs[i]`).
    pub fn of(reqs: &[Request], outs: &[Translation], per_bin: usize) -> InputStats {
        let mut st = InputStats::default();
        for (r, t) in reqs.iter().zip(outs).step_by(per_bin) {
            st.add(&r.bin, t);
        }
        st
    }

    pub fn add(&mut self, bin: &lasagne_x86::binary::Binary, t: &Translation) {
        self.binaries += 1;
        self.functions += bin.functions.len() as u64;
        self.x86_insts += x86_insts(bin) as u64;
        self.lir_insts += t.stats.insts_lifted as u64;
    }

    pub fn merge(&mut self, o: &InputStats) {
        self.binaries += o.binaries;
        self.functions += o.functions;
        self.x86_insts += o.x86_insts;
        self.lir_insts += o.lir_insts;
    }
}

/// Everything a timed run needs, built from the seed.
pub struct Setup {
    pub kind: Kind,
    pub reqs: Vec<Request>,
    /// Request indices in issue order: seeded permutations, one per pass.
    pub order: Vec<usize>,
    /// The verified first output of each request.
    pub reference: Vec<String>,
    pub hashes: Vec<u64>,
    /// The disk cache `phoenix-warm` reads from.
    pub cache_dir: Option<PathBuf>,
    pub quality: Quality,
    pub inputs: InputStats,
    /// Time spent in the program during set-up (first translations, and
    /// for `phoenix-warm` the warm re-reads), in seconds. Input generation
    /// and the output checks are the benchmark's own work and not counted.
    pub program_s: f64,
    pub problems: Vec<String>,
}

/// One request through the public pipeline: assembly text plus whether
/// the disk cache served it.
pub fn translate_once(r: &Request, cache: Option<&Path>) -> Result<(String, bool), String> {
    let (t, report) = run_pipeline(r, cache)?;
    let warm = report.cache.is_some_and(|c| c.warm);
    Ok((print_module(&t.arm), warm))
}

/// One request through `Pipeline::run`, with the pipeline's report.
pub fn run_pipeline(
    r: &Request,
    cache: Option<&Path>,
) -> Result<(Translation, lasagne::PipelineReport), String> {
    let mut p = Pipeline::new(r.version);
    if let Some(dir) = cache {
        p = p.with_cache(dir);
    }
    p.run(&r.bin).map_err(|e| format!("{}: {e}", r.label))
}

/// Builds the inputs of `kind` for `seed`, translates each request once,
/// and checks those first outputs against references outside the
/// translator. `dir` is a scratch directory this set-up owns.
pub fn setup(kind: Kind, seed: u64, dir: &Path) -> Setup {
    let mut problems = Vec::new();
    let benches = match kind {
        Kind::GenLarge => Vec::new(),
        _ => all_benchmarks(PHOENIX_SCALE),
    };
    let gen = match kind {
        Kind::GenLarge => gen_large_binaries(seed),
        _ => Vec::new(),
    };
    let reqs: Vec<Request> = match kind {
        Kind::GenLarge => gen
            .iter()
            .enumerate()
            .map(|(i, b)| Request {
                label: format!("gen#{i}"),
                bin: b.clone(),
                version: Version::PPOpt,
            })
            .collect(),
        _ => phoenix_requests(&benches),
    };
    let order = pass_orders(reqs.len(), ORDER_PASSES, &mut Rng::new(seed, 1));
    let cache_dir = (kind == Kind::PhoenixWarm).then(|| dir.join("cache"));

    // First outputs. For `phoenix-warm` these runs are the cold misses
    // that fill the cache.
    let t0 = Instant::now();
    let mut outs = Vec::with_capacity(reqs.len());
    for r in &reqs {
        match run_pipeline(r, cache_dir.as_deref()) {
            Ok((t, _)) => outs.push(t),
            Err(e) => problems.push(e),
        }
    }
    let mut program_s = t0.elapsed().as_secs_f64();
    if !problems.is_empty() {
        return Setup {
            kind,
            reqs,
            order,
            reference: Vec::new(),
            hashes: Vec::new(),
            cache_dir,
            quality: Quality::default(),
            inputs: InputStats::default(),
            program_s,
            problems,
        };
    }
    let reference: Vec<String> = outs.iter().map(|t| print_module(&t.arm)).collect();
    let hashes = reference.iter().map(|a| asm_hash(a)).collect();
    if let Some(cache) = &cache_dir {
        let t0 = Instant::now();
        let warm: Vec<_> = reqs
            .iter()
            .map(|r| translate_once(r, Some(cache)))
            .collect();
        program_s += t0.elapsed().as_secs_f64();
        for ((r, want), got) in reqs.iter().zip(&reference).zip(warm) {
            match got {
                Ok((asm, true)) if asm == *want => {}
                Ok((_, warm)) => problems.push(format!(
                    "{}: warm replay differs from the cold output (disk hit: {warm})",
                    r.label
                )),
                Err(e) => problems.push(e),
            }
        }
    }

    let (quality, mut checks) = match kind {
        Kind::GenLarge => quality::generated(&gen, &outs),
        _ => quality::phoenix(&benches, &reqs, &outs),
    };
    problems.append(&mut checks);

    // Phoenix requests come four versions per binary, generated ones one each.
    let per_bin = if kind == Kind::GenLarge {
        1
    } else {
        Version::ALL.len()
    };
    let inputs = InputStats::of(&reqs, &outs, per_bin);

    Setup {
        kind,
        reqs,
        order,
        reference,
        hashes,
        cache_dir,
        quality,
        inputs,
        program_s,
        problems,
    }
}

/// Per-request latencies and counts of a closed loop.
#[derive(Debug, Default)]
pub struct LoopResult {
    pub lat_ms: Vec<f64>,
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Position in `Setup::order` where a following slice resumes.
    pub next: usize,
}

/// Issues requests in `setup.order` from position `from` for `seconds`,
/// checking each output's hash against the verified first output (and,
/// for `phoenix-warm`, that the disk cache served it).
pub fn run(setup: &Setup, seconds: f64, from: usize) -> LoopResult {
    let want_warm = setup.kind == Kind::PhoenixWarm;
    let cache = setup.cache_dir.as_deref();
    let mut res = LoopResult::default();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut k = from;
    loop {
        let i = setup.order[k % setup.order.len()];
        k += 1;
        let r = &setup.reqs[i];
        let t0 = Instant::now();
        let out = translate_once(r, cache);
        res.lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        res.attempted += 1;
        match out {
            Ok((asm, warm)) if warm == want_warm && asm_hash(&asm) == setup.hashes[i] => {}
            Ok((_, warm)) => {
                res.failed += 1;
                res.problems
                    .push(format!("{}: output differs (disk hit: {warm})", r.label));
            }
            Err(e) => {
                res.failed += 1;
                res.problems.push(e);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    res.wall_s = start.elapsed().as_secs_f64();
    res.next = k;
    res
}
