//! The benchmark's own seeded generator.
//!
//! Inputs come from this file alone, not from `compat/rand` or the
//! simulator's generators, so a later change to the program's RNG cannot
//! change what the benchmark feeds it.

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed` alone.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// An independent stream for `label`, derived from `seed` without
    /// consuming from any other stream: inputs generated for one purpose
    /// stay fixed when another purpose draws more or fewer numbers.
    pub fn derive(seed: u64, label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in label.as_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng::new(seed ^ h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`, sampled by inverting its CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_labels() {
        let draw = |seed, label| {
            let mut r = Rng::derive(seed, label);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, "a"), draw(7, "a"));
        assert_ne!(draw(7, "a"), draw(7, "b"));
        assert_ne!(draw(7, "a"), draw(8, "a"));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut r = Rng::new(1);
        let mut counts = [0u32; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }
}
