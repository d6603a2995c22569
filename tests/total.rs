//! The translator is total on untrusted machine code: every image either
//! translates or is rejected with an error, and none makes it panic.
//!
//! The inputs are mutants of the Phoenix images: 1–3 bytes of the text
//! section XORed with random non-zero values, each translated under a
//! random Version. The mutants come from a fixed xorshift64 seed, so every
//! run checks the same 10,000 images.

use lasagne_repro::phoenix::all_benchmarks;
use lasagne_repro::translator::{translate, Version};
use std::panic::{catch_unwind, AssertUnwindSafe};

const MUTANTS: usize = 10_000;
const SEED: u64 = 0x5eed_1a5a_67e5_0014;

#[test]
fn mutated_images_translate_or_error_and_never_panic() {
    let benches = all_benchmarks(16);
    let mut state = SEED;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let (mut translated, mut rejected) = (0, 0);
    let mut panicked = Vec::new();
    for i in 0..MUTANTS {
        let b = &benches[(next() % benches.len() as u64) as usize];
        let mut bin = b.binary.clone();
        for _ in 0..1 + next() % 3 {
            let at = (next() % bin.text.len() as u64) as usize;
            bin.text[at] ^= 1 + (next() % 255) as u8;
        }
        let version = Version::ALL[(next() % 4) as usize];
        match catch_unwind(AssertUnwindSafe(|| translate(&bin, version))) {
            Ok(Ok(_)) => translated += 1,
            Ok(Err(_)) => rejected += 1,
            Err(_) => panicked.push(format!("mutant {i}: {} {}", b.abbrev, version.name())),
        }
    }
    assert!(
        panicked.is_empty(),
        "{} of {MUTANTS} mutants panicked ({translated} translated, {rejected} rejected): {:?}",
        panicked.len(),
        &panicked[..panicked.len().min(10)]
    );
    // The mutants exercise both outcomes, not just the error path.
    assert!(
        translated > 0 && rejected > 0,
        "{translated} translated, {rejected} rejected"
    );
}
