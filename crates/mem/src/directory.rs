//! Sharer directory for MOESI-lite coherence.
//!
//! Tracks, per cache line, which cores' L1s hold a copy. The simulator
//! consults it to generate invalidation traffic when a core writes a line
//! that other cores cache. The workloads in the paper are parallel loop
//! nests with mostly disjoint write sets, so the directory is small and
//! sparse; we use a hash map of 64-bit sharer masks (up to 64 cores; larger
//! meshes chunk the mask).

use std::collections::HashMap;

/// A sparse full-map directory: line index → sharer bitmask(s).
#[derive(Debug, Clone, Default)]
pub struct Directory {
    sharers: HashMap<u64, Vec<u64>>,
    cores: usize,
}

impl Directory {
    /// Creates a directory for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Directory { sharers: HashMap::new(), cores }
    }

    fn words(&self) -> usize {
        self.cores.div_ceil(64).max(1)
    }

    /// Records that `core` now holds `line`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn add_sharer(&mut self, line: u64, core: usize) {
        assert!(core < self.cores, "core {core} out of range");
        let words = self.words();
        let mask = self.sharers.entry(line).or_insert_with(|| vec![0; words]);
        mask[core / 64] |= 1 << (core % 64);
    }

    /// Records that `core` dropped `line` (eviction or invalidation).
    pub fn remove_sharer(&mut self, line: u64, core: usize) {
        if let Some(mask) = self.sharers.get_mut(&line) {
            mask[core / 64] &= !(1 << (core % 64));
            if mask.iter().all(|&w| w == 0) {
                self.sharers.remove(&line);
            }
        }
    }

    /// The cores (other than `writer`) holding `line`; these must be
    /// invalidated when `writer` stores to it.
    pub fn sharers_excluding(&self, line: u64, writer: usize) -> Vec<usize> {
        match self.sharers.get(&line) {
            None => Vec::new(),
            Some(mask) => {
                let mut out = Vec::new();
                for (w, &word) in mask.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        let core = w * 64 + b;
                        if core != writer {
                            out.push(core);
                        }
                        bits &= bits - 1;
                    }
                }
                out
            }
        }
    }

    /// Whether any core other than `writer` holds `line`.
    pub fn is_shared_beyond(&self, line: u64, writer: usize) -> bool {
        match self.sharers.get(&line) {
            None => false,
            Some(mask) => mask.iter().enumerate().any(|(w, &word)| {
                let mut word = word;
                if writer / 64 == w {
                    word &= !(1 << (writer % 64));
                }
                word != 0
            }),
        }
    }

    /// Drops all sharers of `line` (after a write, the writer re-adds
    /// itself).
    pub fn clear_line(&mut self, line: u64) {
        self.sharers.remove(&line);
    }

    /// Forgets every line `core` holds — the bookkeeping for a core whose
    /// router died: its L1 contents are gone with it, and no invalidation
    /// can (or need) ever be delivered to it again.
    pub fn purge_core(&mut self, core: usize) {
        let (w, bit) = (core / 64, 1u64 << (core % 64));
        self.sharers.retain(|_, mask| {
            if let Some(word) = mask.get_mut(w) {
                *word &= !bit;
            }
            mask.iter().any(|&word| word != 0)
        });
    }

    /// Number of lines with at least one sharer.
    pub fn tracked_lines(&self) -> usize {
        self.sharers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_query_sharers() {
        let mut d = Directory::new(36);
        d.add_sharer(100, 3);
        d.add_sharer(100, 7);
        d.add_sharer(100, 35);
        let mut s = d.sharers_excluding(100, 7);
        s.sort_unstable();
        assert_eq!(s, vec![3, 35]);
        assert!(d.is_shared_beyond(100, 7));
        assert!(!d.is_shared_beyond(100, 3) || d.sharers_excluding(100, 3).len() == 2);
    }

    #[test]
    fn remove_sharer_cleans_up() {
        let mut d = Directory::new(8);
        d.add_sharer(5, 0);
        d.add_sharer(5, 1);
        d.remove_sharer(5, 0);
        assert_eq!(d.sharers_excluding(5, 9999), vec![1]);
        d.remove_sharer(5, 1);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn sole_sharer_is_not_shared_beyond_itself() {
        let mut d = Directory::new(8);
        d.add_sharer(9, 2);
        assert!(!d.is_shared_beyond(9, 2));
        assert!(d.is_shared_beyond(9, 0));
    }

    #[test]
    fn clear_line() {
        let mut d = Directory::new(8);
        d.add_sharer(1, 0);
        d.add_sharer(1, 1);
        d.clear_line(1);
        assert!(d.sharers_excluding(1, 5).is_empty());
    }

    #[test]
    fn large_core_counts_use_multiple_words() {
        let mut d = Directory::new(72); // KNL-sized
        d.add_sharer(42, 70);
        d.add_sharer(42, 1);
        let mut s = d.sharers_excluding(42, 99999);
        s.sort_unstable();
        assert_eq!(s, vec![1, 70]);
    }

    #[test]
    #[should_panic]
    fn out_of_range_core_panics() {
        Directory::new(4).add_sharer(0, 4);
    }

    #[test]
    fn purge_core_forgets_every_line_it_held() {
        let mut d = Directory::new(72);
        d.add_sharer(1, 70);
        d.add_sharer(1, 2);
        d.add_sharer(9, 70);
        d.purge_core(70);
        assert_eq!(d.sharers_excluding(1, 9999), vec![2]);
        assert_eq!(d.tracked_lines(), 1, "line 9 had no other sharer");
    }
}
