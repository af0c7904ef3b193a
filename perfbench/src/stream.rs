//! Seeded inputs: the mapping-request stream and per-plan fault seeds.

/// SplitMix64: a small, well-mixed generator; the benchmark needs only
/// reproducible shuffles and seed derivation.
#[derive(Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A seed for item `i` derived from `seed`, independent across items.
pub fn derive_seed(seed: u64, i: u64) -> u64 {
    SplitMix64::new(seed ^ i.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// FNV-1a over `bytes`, continuing from `h` (start with [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a initial state.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// How often each of `labels.len()` kernels is requested in one epoch.
///
/// Popularity is Zipf-like: the kernel of rank `r` is requested
/// `max(1, hot / (r + 1))` times. Ranks come from a hash of the kernel's
/// label, not from the seed, so every seed requests the same multiset —
/// the same cold misses and the same hits — and only the order differs.
/// That keeps the work per epoch equal across seeds.
pub fn request_counts(labels: &[String], hot: usize) -> Vec<usize> {
    let mut by_rank: Vec<usize> = (0..labels.len()).collect();
    by_rank.sort_by_key(|&k| (fnv1a(FNV_OFFSET, labels[k].as_bytes()), k));
    let mut counts = vec![0; labels.len()];
    for (rank, &k) in by_rank.iter().enumerate() {
        counts[k] = (hot / (rank + 1)).max(1);
    }
    counts
}

/// One epoch's request order: kernel `k` appears `counts[k]` times, and the
/// seed shuffles the order (Fisher-Yates).
pub fn request_order(counts: &[usize], seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = counts
        .iter()
        .enumerate()
        .flat_map(|(k, &c)| std::iter::repeat_n(k, c))
        .collect();
    let mut rng = SplitMix64::new(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("kernel-{i}")).collect()
    }

    #[test]
    fn seeded_stream_reproduces_exactly() {
        let counts = request_counts(&labels(58), 40);
        let a = request_order(&counts, 11);
        let b = request_order(&counts, 11);
        assert_eq!(a, b, "same seed, same stream");
        let c = request_order(&counts, 12);
        assert_ne!(a, c, "another seed reorders the stream");
        // Every seed requests the same multiset.
        let (mut sa, mut sc) = (a.clone(), c.clone());
        sa.sort_unstable();
        sc.sort_unstable();
        assert_eq!(sa, sc);
        // Pinned prefix: a change to the generator changes every input.
        assert_eq!(&a[..6], &[11, 5, 9, 17, 8, 9]);
    }

    #[test]
    fn counts_are_skewed_and_cover_every_kernel() {
        let counts = request_counts(&labels(58), 40);
        assert!(
            counts.iter().all(|&c| c >= 1),
            "every kernel misses cold once"
        );
        assert_eq!(*counts.iter().max().unwrap(), 40);
        assert!(
            counts.iter().filter(|&&c| c == 1).count() > 20,
            "a long tail of one-offs"
        );
        assert_eq!(counts, request_counts(&labels(58), 40));
    }

    #[test]
    fn derived_seeds_differ() {
        let s: Vec<u64> = (0..8).map(|i| derive_seed(5, i)).collect();
        for i in 0..s.len() {
            for j in i + 1..s.len() {
                assert_ne!(s[i], s[j]);
            }
        }
        assert_eq!(derive_seed(5, 3), derive_seed(5, 3));
    }
}
