//! The benchmark's only source of randomness, and the digest that proves
//! two runs saw the same inputs.
//!
//! `--seed` feeds one SplitMix64 stream; series seeds, statement
//! parameters and op order are all drawn from forks of it, so the engine
//! only ever sees generated inputs and equal seeds give equal loads.

/// SplitMix64: tiny, stateless between calls apart from one word, and
/// good enough to spread benchmark parameters.
#[derive(Debug, Clone)]
pub struct Prng(u64);

impl Prng {
    pub fn new(seed: u64) -> Self {
        Prng(seed)
    }

    /// An independent stream for one purpose (`label` keeps the streams of
    /// different purposes apart, so adding a draw to one never shifts
    /// another).
    pub fn fork(&self, label: &str) -> Prng {
        let mut d = Digest::new();
        d.u64(self.0);
        d.bytes(label.as_bytes());
        Prng(d.0)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is irrelevant at
    /// benchmark-parameter ranges.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// FNV-1a over everything a workload feeds the engine; printed as the
/// workload's `input_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.u64(v.to_bits());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams_and_forks_differ() {
        let mut a = Prng::new(7);
        let mut b = Prng::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let root = Prng::new(7);
        assert_ne!(
            root.fork("series").next_u64(),
            root.fork("order").next_u64()
        );
        assert_eq!(
            root.fork("series").next_u64(),
            Prng::new(7).fork("series").next_u64()
        );
        assert!(a.below(10) < 10);
    }

    #[test]
    fn digest_depends_on_every_byte() {
        let mut a = Digest::new();
        a.f64s(&[1.0, 2.0]);
        let mut b = Digest::new();
        b.f64s(&[1.0, 2.000000001]);
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
