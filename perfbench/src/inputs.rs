//! Seeded inputs. Everything a workload sends is built here, in set-up,
//! from the `--seed` argument; timed loops only index into it.

use lasagne::difftest::{any_op, any_shape, build_cfg_binary, Shape};
use lasagne::Version;
use lasagne_phoenix::Benchmark;
use lasagne_qc::collection;
use lasagne_qc::rng::SplitMix64;
use lasagne_qc::source::Source;
use lasagne_qc::strategy::Strategy;
use lasagne_x86::binary::Binary;
use lasagne_x86::inst::{Inst, Rm};

/// Phoenix workload scale for the Arm runs behind the quality metrics
/// (the `report` figures use the same value).
pub const PHOENIX_SCALE: usize = 256;

/// Shaped segments per `gen-large` function: ~700 x86 instructions,
/// ~12× the largest Phoenix function once lifted.
pub const GEN_LARGE_SEGMENTS: usize = 128;

/// Distinct `gen-large` binaries per seed. Optimization removes a
/// different share of each program (emitted code size varies ~8% between
/// binaries), so sums over 24 keep code size within a few percent across
/// seeds.
pub const GEN_LARGE_BINARIES: usize = 24;

/// Request-order permutations drawn per pass-based workload.
pub const ORDER_PASSES: usize = 64;

/// Small deterministic PRNG over qc's splitmix64.
pub struct Rng(SplitMix64);

impl Rng {
    /// The stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(SplitMix64::new(
            seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// One translation request: an x86 image and the configuration to
/// translate it under.
#[derive(Clone)]
pub struct Request {
    pub label: String,
    pub bin: Binary,
    pub version: Version,
}

/// The 7 Phoenix binaries × 4 versions, in suite order.
pub fn phoenix_requests(benches: &[Benchmark]) -> Vec<Request> {
    benches
        .iter()
        .flat_map(|b| {
            Version::ALL.iter().map(|&v| Request {
                label: format!("{}/{}", b.abbrev, v.name()),
                bin: b.binary.clone(),
                version: v,
            })
        })
        .collect()
}

/// `passes` concatenated seeded permutations of `0..n`.
pub fn pass_orders(n: usize, passes: usize, rng: &mut Rng) -> Vec<usize> {
    let mut out = Vec::with_capacity(n * passes);
    for _ in 0..passes {
        let mut p: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut p);
        out.extend(p);
    }
    out
}

fn draw<S: Strategy>(s: &S, src: &mut Source) -> S::Value {
    loop {
        if let Ok(v) = s.generate(src) {
            return v;
        }
    }
}

/// The arm of `difftest::any_op` an instruction was drawn from (18 arms,
/// equally weighted).
fn op_arm(i: &Inst) -> usize {
    match i {
        Inst::MovRmI { .. } => 0,
        Inst::MovRRm {
            src: Rm::Reg(_), ..
        } => 1,
        Inst::MovRRm { .. } => 2,
        Inst::AluRRm { .. } => 3,
        Inst::IMul2 { .. } => 4,
        Inst::ShiftI { .. } => 5,
        Inst::ShiftCl { .. } => 6,
        Inst::MovZx { .. } => 7,
        Inst::MovSx { .. } => 8,
        Inst::Lea { .. } => 9,
        Inst::MovRmR { .. } => 10,
        Inst::Setcc { .. } => 11,
        Inst::Cmovcc { .. } => 12,
        Inst::LockXadd { .. } => 13,
        Inst::Mfence => 14,
        Inst::CvtSi2F { .. } => 15,
        Inst::SseScalar { .. } => 16,
        _ => 17,
    }
}

const OP_ARMS: usize = 18;

fn shape_arm(s: &Shape) -> usize {
    match s {
        Shape::Straight => 0,
        Shape::Guarded(..) => 1,
        Shape::Loop(_) => 2,
    }
}

/// A one-function binary of `segments` shaped segments drawn from the
/// differential-testing generator (`any_op`, `any_shape`), stratified:
/// segment lengths (1–7), instruction arms and shape arms come in the
/// generators' own proportions, exactly, in seeded order, and each slot
/// is filled by drawing from the generator until the arm matches. Every
/// binary of a given size therefore has the same composition, and the
/// seed moves operands, order and control flow — so code size and
/// translation cost depend little on which seed a run uses.
pub fn generated_binary(seed: u64, segments: usize) -> Binary {
    let mut src = Source::random(seed);
    let mut rng = Rng::new(seed, 3);
    let mut lens: Vec<usize> = (0..segments).map(|i| 1 + i % 7).collect();
    rng.shuffle(&mut lens);
    let mut arms: Vec<usize> = (0..lens.iter().sum::<usize>())
        .map(|i| i % OP_ARMS)
        .collect();
    rng.shuffle(&mut arms);
    // any_shape's weights: 3 straight : 1 guarded : 1 loop.
    let mut shapes: Vec<usize> = (0..segments).map(|i| [0, 0, 0, 1, 2][i % 5]).collect();
    rng.shuffle(&mut shapes);
    let (op, shape) = (any_op(), any_shape());
    let mut arms = arms.into_iter();
    let segs: Vec<(Vec<Inst>, Shape)> = lens
        .iter()
        .zip(&shapes)
        .map(|(&len, &want_shape)| {
            let ops = (0..len)
                .map(|_| {
                    let want = arms.next().expect("one arm per op");
                    loop {
                        let i = draw(&op, &mut src);
                        if op_arm(&i) == want {
                            break i;
                        }
                    }
                })
                .collect();
            let sh = loop {
                let s = draw(&shape, &mut src);
                if shape_arm(&s) == want_shape {
                    break s;
                }
            };
            (ops, sh)
        })
        .collect();
    build_cfg_binary(&segs)
}

/// A small generated binary (1–4 segments), as the property tests draw.
pub fn small_binary(seed: u64) -> Binary {
    let mut src = Source::random(seed);
    let n = 1 + (src.next() % 4) as usize;
    let seg = (collection::vec(any_op(), 1..8), any_shape());
    let segs: Vec<(Vec<Inst>, Shape)> = (0..n).map(|_| draw(&seg, &mut src)).collect();
    build_cfg_binary(&segs)
}

/// The `gen-large` binaries of `seed`.
pub fn gen_large_binaries(seed: u64) -> Vec<Binary> {
    let mut rng = Rng::new(seed, 2);
    (0..GEN_LARGE_BINARIES)
        .map(|_| generated_binary(rng.next_u64(), GEN_LARGE_SEGMENTS))
        .collect()
}

/// x86 instructions in the image's functions.
pub fn x86_insts(bin: &Binary) -> usize {
    bin.functions
        .iter()
        .map(|f| lasagne_x86::decode::decode_all(bin.code_of(f), f.addr).map_or(0, |d| d.len()))
        .sum()
}

/// FNV-1a digest of an assembly listing.
pub fn asm_hash(asm: &str) -> u64 {
    lasagne_cache::fnv64(asm.as_bytes())
}
