//! Golden output pin: FNV-64 digests of the emitted AArch64 assembly for
//! every Phoenix binary under all four §9.1 versions, plus eight large
//! generated functions under PPOpt.
//!
//! Optimisation-pass refactors claim byte-identical output; this test
//! turns that claim into a standing gate. A digest changes only when the
//! emitted code changes. When a change is meant to alter code, the failure
//! message prints the whole new table in the form below, ready to paste
//! back.

use lasagne_qc::collection;
use lasagne_qc::source::Source;
use lasagne_qc::strategy::Strategy;
use lasagne_repro::armgen::print::print_module;
use lasagne_repro::cache::fnv64;
use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::translator::difftest::{any_op, any_shape, build_cfg_binary, Shape};
use lasagne_repro::translator::{translate, Version};
use lasagne_repro::x86::binary::Binary;
use lasagne_repro::x86::inst::Inst;

/// `(label, digest)` for Phoenix × Version, in suite order.
const PHOENIX: &[(&str, u64)] = &[
    ("HT/Lifted", 0xe4f5170e875286f7),
    ("HT/Opt", 0x4225b53bc2f3b11b),
    ("HT/POpt", 0x123a85335f68eac5),
    ("HT/PPOpt", 0x09dd4395fbe0fb0c),
    ("KM/Lifted", 0xd5e22ec0dad5093b),
    ("KM/Opt", 0x938878ca3a2abdc8),
    ("KM/POpt", 0x98b626f1b3fc39e0),
    ("KM/PPOpt", 0x2940fc33dcb8a83b),
    ("LR/Lifted", 0xa7645f1f020062d3),
    ("LR/Opt", 0x70be1ea64e969d87),
    ("LR/POpt", 0x70be1ea64e969d87),
    ("LR/PPOpt", 0x7c701e223824575c),
    ("MM/Lifted", 0xe339393d3b0f2fab),
    ("MM/Opt", 0x6f271afe13c812af),
    ("MM/POpt", 0xcca0ff29c527c283),
    ("MM/PPOpt", 0xfc3ee9276119e663),
    ("PCA/Lifted", 0x373904fa388332eb),
    ("PCA/Opt", 0xaee31899f48e0027),
    ("PCA/POpt", 0x728beddf7166e5b7),
    ("PCA/PPOpt", 0x608f7802c6dbf1b1),
    ("SM/Lifted", 0x8e463ed3c92f7b1f),
    ("SM/Opt", 0xed14387e3a49a439),
    ("SM/POpt", 0xed14387e3a49a439),
    ("SM/PPOpt", 0xa42dba88b34bc986),
    ("WC/Lifted", 0x6522f8a42d4690b3),
    ("WC/Opt", 0x123550b9b3333d9a),
    ("WC/POpt", 0x81cde5ed2a7bed36),
    ("WC/PPOpt", 0x98bc55920959cfdb),
];

/// Seeds of the generated functions.
const GEN_SEEDS: [u64; 8] = [1, 2, 3, 4, 5, 6, 7, 8];

/// Shaped segments per generated function (~450 x86 instructions).
const GEN_SEGMENTS: usize = 112;

/// `(seed, digest)` for the generated functions under PPOpt.
const GENERATED: &[(u64, u64)] = &[
    (1, 0x12b8a2a2d5799732),
    (2, 0xda14c5f3bb8069ef),
    (3, 0x713a09ea54f56a35),
    (4, 0x5c84627c9dd39471),
    (5, 0x519cd26c033304ba),
    (6, 0x0410c91171e0711c),
    (7, 0x822c7f65d4dd5f74),
    (8, 0xa6ca63f12bbb0216),
];

fn digest(bin: &Binary, v: Version) -> u64 {
    let t = translate(bin, v).expect("golden input translates");
    fnv64(print_module(&t.arm).as_bytes())
}

/// A one-function binary of `GEN_SEGMENTS` segments drawn from the
/// differential-testing generators.
fn generated(seed: u64) -> Binary {
    let seg = (collection::vec(any_op(), 1..8), any_shape());
    let mut src = Source::random(seed);
    let segs: Vec<(Vec<Inst>, Shape)> = (0..GEN_SEGMENTS)
        .map(|_| loop {
            if let Ok(s) = seg.generate(&mut src) {
                break s;
            }
        })
        .collect();
    build_cfg_binary(&segs)
}

#[test]
fn emitted_assembly_matches_golden_digests() {
    let mut phoenix = Vec::new();
    for b in all_benchmarks(64) {
        for v in Version::ALL {
            let label = format!("{}/{}", b.abbrev, v.name());
            phoenix.push((label, digest(&b.binary, v)));
        }
    }
    let generated: Vec<(u64, u64)> = GEN_SEEDS
        .iter()
        .map(|&s| (s, digest(&generated(s), Version::PPOpt)))
        .collect();

    let want_phoenix: Vec<(String, u64)> =
        PHOENIX.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    if phoenix != want_phoenix || generated != GENERATED {
        let mut table = String::from("const PHOENIX: &[(&str, u64)] = &[\n");
        for (l, d) in &phoenix {
            table += &format!("    (\"{l}\", {d:#018x}),\n");
        }
        table += "];\nconst GENERATED: &[(u64, u64)] = &[\n";
        for (s, d) in &generated {
            table += &format!("    ({s}, {d:#018x}),\n");
        }
        table += "];\n";
        panic!("emitted assembly differs from the golden digests; actual:\n{table}");
    }
}
