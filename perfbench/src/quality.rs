//! Output quality of the emitted Arm code, and the execution checks that
//! compare it against references the translator does not produce: the
//! Phoenix Rust checksums and native baselines, and the x86 interpreter.

use lasagne::difftest::{self, REGION, REGION_SLOTS};
use lasagne::{Translation, Version};
use lasagne_armgen::{AModule, ArmMachine};
use lasagne_phoenix::Benchmark;
use lasagne_x86::binary::Binary;
use lasagne_x86::interp::X86Machine;

use crate::inputs::Request;
use crate::stats::gmean;

/// Deterministic quality of one pass over a workload's distinct outputs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    /// Emitted AArch64 instructions, all outputs of one pass.
    pub arm_insts: u64,
    /// Static `dmb` barriers in the PPOpt outputs.
    pub arm_fences: u64,
    /// Geometric mean of PPOpt critical-path cycles ÷ reference cycles.
    pub arm_cycles_gmean: f64,
}

fn fences(arm: &AModule) -> u64 {
    let (ld, st, ff) = arm.count_dmbs();
    (ld + st + ff) as u64
}

/// Runs `main` on a Phoenix workload: `(checksum, critical-path cycles)`.
fn run_phoenix(arm: &AModule, b: &Benchmark) -> Result<(u64, u64), String> {
    let idx = arm
        .func_by_name("main")
        .ok_or_else(|| format!("{}: no main", b.abbrev))?;
    let mut m = ArmMachine::new(arm);
    for (addr, bytes) in &b.workload.mem_init {
        m.mem.write(*addr, bytes);
    }
    let r = m
        .run(idx, &b.workload.args, &[])
        .map_err(|e| format!("{}: {e}", b.abbrev))?;
    Ok((r.ret, r.critical_path_cycles()))
}

/// Checks every Phoenix PPOpt output and native baseline against the Rust
/// reference checksum and computes the Figure 12/14/16 quality numbers.
/// `outs[i]` is the translation of `reqs[i]`.
pub fn phoenix(
    benches: &[Benchmark],
    reqs: &[Request],
    outs: &[Translation],
) -> (Quality, Vec<String>) {
    let mut problems = Vec::new();
    let mut ratios = Vec::new();
    let mut q = Quality {
        arm_insts: outs.iter().map(|t| t.arm.inst_count() as u64).sum(),
        ..Quality::default()
    };
    for b in benches {
        let Some(i) = reqs.iter().position(|r| {
            r.version == Version::PPOpt && r.label.starts_with(&format!("{}/", b.abbrev))
        }) else {
            problems.push(format!("{}: no PPOpt request", b.abbrev));
            continue;
        };
        q.arm_fences += fences(&outs[i].arm);
        let native = lasagne_armgen::lower_module(&b.native);
        match (run_phoenix(&outs[i].arm, b), run_phoenix(&native, b)) {
            (Ok((ret, cyc)), Ok((nret, ncyc))) => {
                let want = b.workload.expected_ret;
                if ret != want || nret != want {
                    problems.push(format!(
                        "{}: checksum PPOpt {ret:#x} native {nret:#x}, expected {want:#x}",
                        b.abbrev
                    ));
                }
                ratios.push(cyc as f64 / ncyc.max(1) as f64);
            }
            (a, n) => problems.push(format!("{}: run failed: {a:?} / {n:?}", b.abbrev)),
        }
    }
    q.arm_cycles_gmean = gmean(&ratios);
    (q, problems)
}

fn x86_cycles(bin: &Binary) -> Result<u64, String> {
    let mut m = X86Machine::new(bin);
    for i in 0..REGION_SLOTS as u64 {
        m.mem
            .write_u64(REGION + 8 * i, i.wrapping_mul(0x0101_0101) + 3);
    }
    m.run("fuzz", &[REGION, 5], &[])
        .map(|r| r.stats.cycles)
        .map_err(|e| format!("x86-interp: {e}"))
}

fn arm_cycles(arm: &AModule) -> Result<u64, String> {
    let idx = arm.func_by_name("fuzz").ok_or("no fuzz")?;
    let mut m = ArmMachine::new(arm);
    for i in 0..REGION_SLOTS as u64 {
        m.mem
            .write_u64(REGION + 8 * i, i.wrapping_mul(0x0101_0101) + 3);
    }
    m.run(idx, &[REGION, 5], &[])
        .map(|r| r.critical_path_cycles())
        .map_err(|e| format!("arm: {e:?}"))
}

/// Checks one generated binary's translation: the Arm result (return
/// value and final shared memory) must equal the x86 interpreter's.
pub fn check_generated(bin: &Binary, t: &Translation) -> Result<(), String> {
    let want = difftest::run_x86(bin)?;
    let got = difftest::run_arm(&t.arm)?;
    if want != got {
        return Err(format!("x86 {want:x?} vs arm {got:x?}"));
    }
    Ok(())
}

/// Checks generated binaries and computes their quality numbers; the cycle
/// reference is the x86 interpreter's count for the same program.
pub fn generated(bins: &[Binary], outs: &[Translation]) -> (Quality, Vec<String>) {
    let mut problems = Vec::new();
    let mut ratios = Vec::new();
    let mut q = Quality::default();
    for (i, (bin, t)) in bins.iter().zip(outs).enumerate() {
        q.arm_insts += t.arm.inst_count() as u64;
        q.arm_fences += fences(&t.arm);
        if let Err(e) = check_generated(bin, t) {
            problems.push(format!("gen#{i}: {e}"));
        }
        match (arm_cycles(&t.arm), x86_cycles(bin)) {
            (Ok(a), Ok(x)) => ratios.push(a as f64 / x.max(1) as f64),
            (a, x) => problems.push(format!("gen#{i}: cycles {a:?} / {x:?}")),
        }
    }
    q.arm_cycles_gmean = gmean(&ratios);
    (q, problems)
}
