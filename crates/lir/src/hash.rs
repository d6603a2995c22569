//! A small multiplicative hasher for per-pass tables.
//!
//! Pass tables key on small structural values (operands, expression keys)
//! that no adversary chooses, so SipHash's flooding resistance buys
//! nothing there. [`FastHasher`] folds each word in with a rotate, xor and
//! multiply (the FxHash scheme). Iteration order of a [`FastMap`] is
//! arbitrary: passes only look entries up, never walk the table for output.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed by [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Rotate–xor–multiply word hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{InstId, Operand};
    use crate::types::Ty;

    #[test]
    fn structural_keys_stay_distinct() {
        let mut m: FastMap<Operand, u32> = FastMap::default();
        let keys = [
            Operand::Undef(Ty::I32),
            Operand::Undef(Ty::I64),
            Operand::ConstInt {
                ty: Ty::I32,
                val: 7,
            },
            Operand::ConstInt {
                ty: Ty::I64,
                val: 7,
            },
            Operand::Inst(InstId(9)),
            Operand::Inst(InstId(10)),
            Operand::Param(9),
        ];
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(m.insert(*k, i as u32), None);
        }
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(m[k], i as u32);
        }
    }
}
