//! Seeded input generation. Every input a workload passes to the program
//! comes from here; the same `--seed` gives the same inputs.

/// SplitMix64: small, fast, and independent of the program's own RNG, so
/// a change to the simulator's random streams cannot change the inputs.
pub struct Rng(u64);

impl Rng {
    /// The generator for one pass of one workload: pass `p`'s inputs do
    /// not depend on how many passes ran before it.
    pub fn for_pass(seed: u64, workload: &str, pass: u64) -> Rng {
        let tag = crate::check::fnv(workload.as_bytes());
        let mut r = Rng(seed ^ tag.rotate_left(17) ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// A seed small enough that the program's `seed + k` offsets never
    /// wrap.
    pub fn small_seed(&mut self) -> u64 {
        self.next_u64() >> 24
    }
}

/// Threads this machine offers; thread-count inputs never exceed it.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}
