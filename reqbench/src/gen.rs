//! Seeded input generation. Every random choice a workload makes — request
//! order, the order of delta pairs, burst entry order — comes from here, so
//! one `--seed` always yields one request sequence and the library only
//! ever sees the generated inputs.

use whale_sim::SplitMix64;

/// A SplitMix64 stream derived from the workload seed and a purpose tag, so
/// each purpose draws independently of how much another consumed.
pub struct Gen(SplitMix64);

impl Gen {
    pub fn new(seed: u64, purpose: &str) -> Gen {
        let tag = purpose.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
        let mut mix = SplitMix64::seed_from_u64(seed ^ tag);
        Gen(SplitMix64::seed_from_u64(mix.next_u64()))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }

    /// Uniform index in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "draw from an empty range");
        self.0.index(n)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(seed: u64) -> Vec<usize> {
        let mut g = Gen::new(seed, "order");
        let mut order: Vec<usize> = (0..32).collect();
        g.shuffle(&mut order);
        order.extend((0..32).map(|_| g.below(1000)));
        order
    }

    #[test]
    fn one_seed_yields_one_sequence() {
        assert_eq!(sequence(7), sequence(7));
        assert_ne!(sequence(7), sequence(8));
    }

    #[test]
    fn purposes_draw_independent_streams() {
        assert_ne!(Gen::new(1, "a").next_u64(), Gen::new(1, "b").next_u64());
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut g = Gen::new(3, "perm");
        let mut xs: Vec<usize> = (0..100).collect();
        g.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(xs, sorted);
    }
}
