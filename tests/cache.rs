//! Integration tests for the content-addressed translation cache: cold
//! and warm runs agree byte-for-byte, invalidation is exactly as fine as
//! the per-function content keys (including interprocedural facts), and
//! on-disk corruption degrades to a miss instead of an error.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use lasagne::pipeline::{module_key, pass_list};
use lasagne::{Pipeline, Stage, Version};
use lasagne_cache::TranslationCache;
use lasagne_phoenix::all_benchmarks;
use lasagne_phoenix::builders::{alui, call, loadq, mem_b, movri, movrr};
use lasagne_x86::asm::Asm;
use lasagne_x86::binary::{Binary, BinaryBuilder};
use lasagne_x86::inst::{AluOp, Inst};
use lasagne_x86::reg::Gpr;

fn temp_cache_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU32 = AtomicU32::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lasagne-cache-it-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn translate_cached(
    bin: &Binary,
    v: Version,
    dir: &std::path::Path,
) -> (String, lasagne::Translation, lasagne::CacheReport) {
    let (t, report) = Pipeline::new(v)
        .with_jobs(2)
        .with_cache(dir)
        .run(bin)
        .unwrap();
    let text = lasagne_armgen::print::print_module(&t.arm);
    (text, t, report.cache.expect("cache was configured"))
}

/// Issue satellite (a): for every Phoenix benchmark under every version,
/// a warm run reproduces the cold run's Arm output byte for byte while
/// executing zero lift/refine/fence/merge/opt passes.
#[test]
fn warm_run_is_byte_identical_across_suite_and_versions() {
    for b in all_benchmarks(48) {
        for v in Version::ALL {
            let dir = temp_cache_dir("suite");
            let nfuncs = b.binary.functions.len() as u64;

            let (cold_text, cold_t, cc) = translate_cached(&b.binary, v, &dir);
            assert!(!cc.warm, "{} {v:?}: first run cannot be warm", b.name);
            assert_eq!(cc.misses, 1);
            assert_eq!(cc.writes, nfuncs);

            let (warm_text, warm_t, wc) = translate_cached(&b.binary, v, &dir);
            assert!(wc.warm, "{} {v:?}: second run should be warm", b.name);
            assert_eq!(wc.misses, 0);
            assert_eq!(wc.hits, nfuncs);
            assert_eq!(cold_text, warm_text, "{} {v:?}", b.name);
            assert_eq!(cold_t.stats, warm_t.stats, "{} {v:?}", b.name);

            // The warm run must not have executed a single non-backend
            // pass: every stage but ArmGen is empty and unpaid-for.
            let (_, report) = Pipeline::new(v)
                .with_jobs(2)
                .with_cache(&dir)
                .run(&b.binary)
                .unwrap();
            for st in &report.stages {
                if st.stage != Stage::ArmGen {
                    assert!(
                        st.funcs.is_empty() && st.nanos == 0 && st.module_nanos == 0,
                        "{} {v:?}: stage {:?} ran on a warm hit",
                        b.name,
                        st.stage
                    );
                }
            }
        }
    }
}

/// A leaf, a caller passing it a constant, and an unrelated function.
/// `k` is the immediate added inside the leaf; flipping it changes only
/// the leaf's machine code (same encoding length, so every symbol keeps
/// its address).
fn three_func_binary(k: i32) -> Binary {
    let mut bin = BinaryBuilder::new();

    let mut a = Asm::new();
    a.push(movrr(Gpr::Rax, Gpr::Rdi));
    a.push(alui(AluOp::Add, Gpr::Rax, k));
    a.push(Inst::Ret);
    let leaf_addr = bin.next_function_addr();
    bin.add_function("leaf", a.finish(leaf_addr).unwrap());

    let mut a = Asm::new();
    a.push(movri(Gpr::Rdi, 10));
    a.push(call(leaf_addr));
    a.push(Inst::Ret);
    bin.add_function("caller", a.finish(bin.next_function_addr()).unwrap());

    let mut a = Asm::new();
    a.push(movri(Gpr::Rax, 42));
    a.push(Inst::Ret);
    bin.add_function("other", a.finish(bin.next_function_addr()).unwrap());

    bin.finish()
}

/// Issue satellite (b): flipping one byte of one function's machine code
/// invalidates exactly that function's cache entries — the other
/// functions' artifacts are shared with the previous module entry.
#[test]
fn one_byte_flip_invalidates_only_that_function() {
    let v = Version::PPOpt;
    let dir = temp_cache_dir("flip");
    let bin_a = three_func_binary(3);
    let bin_b = three_func_binary(5);

    let (_, _, ca) = translate_cached(&bin_a, v, &dir);
    assert_eq!((ca.misses, ca.writes, ca.unchanged), (1, 3, 0));

    // Different leaf bytes → different module key → miss; but only the
    // leaf's artifact is new, the caller and `other` are shared.
    let (_, _, cb) = translate_cached(&bin_b, v, &dir);
    assert_eq!((cb.misses, cb.writes, cb.unchanged), (1, 1, 2));

    let cache = TranslationCache::open(&dir).unwrap();
    let man_a = cache.load_manifest(module_key(&bin_a, v)).unwrap();
    let man_b = cache.load_manifest(module_key(&bin_b, v)).unwrap();
    for (ea, eb) in man_a.entries.iter().zip(&man_b.entries) {
        assert_eq!(ea.name, eb.name);
        if ea.name == "leaf" {
            assert_ne!(ea.key, eb.key, "changed function must get a new key");
        } else {
            assert_eq!(ea.key, eb.key, "{} was not touched by the flip", ea.name);
        }
    }

    // Both module entries stay independently warm.
    let (_, _, wa) = translate_cached(&bin_a, v, &dir);
    let (_, _, wb) = translate_cached(&bin_b, v, &dir);
    assert!(wa.warm && wb.warm);
}

/// A callee whose signature depends on `two_params`, a caller whose bytes
/// never change, and an unrelated function. Both callee bodies encode to
/// 7 bytes, so every symbol keeps its address and size.
fn call_chain_binary(two_params: bool) -> Binary {
    let mut bin = BinaryBuilder::new();

    let mut a = Asm::new();
    if two_params {
        a.push(movrr(Gpr::Rax, Gpr::Rdi));
        a.push(Inst::AluRRm {
            op: AluOp::Add,
            w: lasagne_x86::reg::Width::W64,
            dst: Gpr::Rax,
            src: lasagne_x86::inst::Rm::Reg(Gpr::Rsi),
        });
    } else {
        a.push(movrr(Gpr::Rax, Gpr::Rdi));
        a.push(movrr(Gpr::Rax, Gpr::Rax));
    }
    a.push(Inst::Ret);
    let callee_addr = bin.next_function_addr();
    let bytes = a.finish(callee_addr).unwrap();
    assert_eq!(bytes.len(), 7, "both callee bodies must encode identically");
    bin.add_function("callee", bytes);

    let mut a = Asm::new();
    a.push(movri(Gpr::Rdi, 5));
    a.push(movri(Gpr::Rsi, 6));
    a.push(call(callee_addr));
    a.push(Inst::Ret);
    bin.add_function("caller", a.finish(bin.next_function_addr()).unwrap());

    let mut a = Asm::new();
    a.push(loadq(Gpr::Rax, mem_b(Gpr::Rdi)));
    a.push(Inst::Ret);
    bin.add_function("other", a.finish(bin.next_function_addr()).unwrap());

    bin.finish()
}

/// Issue satellite (c): changing a callee so its *signature* changes
/// invalidates the caller's entry too — the caller's own bytes are
/// untouched, but its key folds in the callee's signature row.
#[test]
fn callee_signature_change_invalidates_dependent_caller() {
    let v = Version::PPOpt;
    let dir = temp_cache_dir("sig");
    let two = call_chain_binary(true);
    let one = call_chain_binary(false);

    let (_, t_two, c2) = translate_cached(&two, v, &dir);
    assert_eq!((c2.misses, c2.writes), (1, 3));
    let (_, t_one, c1) = translate_cached(&one, v, &dir);
    assert_eq!(c1.misses, 1);

    // Sanity: the edit really changed the callee's lifted signature.
    let sig = |t: &lasagne::Translation| {
        let id = t.module.func_by_name("callee").unwrap();
        t.module.funcs[id.0 as usize].params.clone()
    };
    assert_ne!(sig(&t_two), sig(&t_one), "edit must change the signature");

    let cache = TranslationCache::open(&dir).unwrap();
    let man_two = cache.load_manifest(module_key(&two, v)).unwrap();
    let man_one = cache.load_manifest(module_key(&one, v)).unwrap();
    let key = |m: &lasagne_cache::Manifest, name: &str| {
        m.entries.iter().find(|e| e.name == name).unwrap().key
    };
    assert_ne!(key(&man_two, "callee"), key(&man_one, "callee"));
    assert_ne!(
        key(&man_two, "caller"),
        key(&man_one, "caller"),
        "caller consumes the callee's signature, so it must be invalidated"
    );
    assert_eq!(
        key(&man_two, "other"),
        key(&man_one, "other"),
        "a function with no edge to the callee must keep its entry"
    );
}

/// Issue satellite (d): a truncated artifact or a bit-flipped manifest is
/// a miss, never an error; the corrupt file is healed by the re-store and
/// the next run is fully warm again — with byte-identical output
/// throughout.
#[test]
fn corruption_degrades_to_miss_and_self_heals() {
    let b = &all_benchmarks(32)[0];
    let v = Version::PPOpt;
    let dir = temp_cache_dir("corrupt");
    let nfuncs = b.binary.functions.len() as u64;

    let (cold_text, _, cc) = translate_cached(&b.binary, v, &dir);
    assert_eq!(cc.writes, nfuncs);

    // Truncate one artifact.
    let obj = std::fs::read_dir(dir.join("obj"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let bytes = std::fs::read(&obj).unwrap();
    std::fs::write(&obj, &bytes[..bytes.len() / 2]).unwrap();

    let (text2, _, c2) = translate_cached(&b.binary, v, &dir);
    assert_eq!(text2, cold_text);
    assert!(!c2.warm);
    assert_eq!(c2.misses, 1);
    assert_eq!(
        (c2.writes, c2.unchanged),
        (1, nfuncs - 1),
        "only the corrupted artifact is rewritten"
    );

    // Flip one byte in the manifest.
    let man = dir
        .join(format!("man-{:016x}.bin", module_key(&b.binary, v)))
        .into_os_string();
    let mut bytes = std::fs::read(&man).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&man, &bytes).unwrap();

    let (text3, _, c3) = translate_cached(&b.binary, v, &dir);
    assert_eq!(text3, cold_text);
    assert!(!c3.warm);
    assert_eq!(
        (c3.writes, c3.unchanged),
        (0, nfuncs),
        "every artifact survived; only the manifest is rebuilt"
    );

    let (text4, _, c4) = translate_cached(&b.binary, v, &dir);
    assert_eq!(text4, cold_text);
    assert!(c4.warm);
    assert_eq!((c4.hits, c4.misses), (nfuncs, 0));
}

/// The pass list feeds every cache key: a change to it must be a
/// deliberate one, made together with this pin.
#[test]
fn pass_list_is_pinned_for_every_version() {
    const OPT: &str = "opt[mem2reg+sroa+mem2reg+instcombine+reassociate+instcombine+\
                       sccp+ipsccp+gvn+licm+dse+adce+dce]x3,compact";
    assert_eq!(
        pass_list(Version::Lifted),
        "lift,fences-naive,fences-stack,armgen"
    );
    assert_eq!(
        pass_list(Version::Opt),
        format!("lift,fences-naive,fences-stack,{OPT},armgen")
    );
    assert_eq!(
        pass_list(Version::POpt),
        format!("lift,fences-naive,fences-stack,merge,{OPT},armgen")
    );
    assert_eq!(
        pass_list(Version::PPOpt),
        format!("lift,fences-naive,refine[refine,promote,sweep]x3,fences-stack,merge,{OPT},armgen")
    );
}
