//! Iteration spaces and iteration sets.
//!
//! The paper schedules *iteration sets* — runs of consecutive iterations
//! (default 0.25 % of the nest) — rather than single iterations, because
//! consecutive iterations share spatial locality and thus have near-equal
//! affinity vectors (§3.2).

use crate::affine::ParamEnv;
use crate::nest::LoopNest;

/// An iteration vector: the values of all loop indices, outermost first.
pub type IterVec = Vec<i64>;

/// The enumerated iteration space of a nest, in lexicographic (execution)
/// order. Stored flat for cache-friendly random access.
#[derive(Debug, Clone)]
pub struct IterationSpace {
    depth: usize,
    flat: Vec<i64>,
}

impl IterationSpace {
    /// Enumerates all iterations of `nest` under parameter bindings `env`.
    pub fn enumerate(nest: &LoopNest, env: &ParamEnv) -> Self {
        let depth = nest.depth();
        let mut flat = Vec::new();
        let mut iv = vec![0i64; depth];
        Self::rec(nest, env, 0, &mut iv, &mut flat);
        IterationSpace { depth, flat }
    }

    fn rec(nest: &LoopNest, env: &ParamEnv, level: usize, iv: &mut Vec<i64>, flat: &mut Vec<i64>) {
        if level == nest.depth() {
            flat.extend_from_slice(iv);
            return;
        }
        let lo = nest.bounds[level].lower.eval(&iv[..level], env);
        let hi = nest.bounds[level].upper.eval(&iv[..level], env);
        for i in lo..hi {
            iv[level] = i;
            Self::rec(nest, env, level + 1, iv, flat);
        }
    }

    /// Number of iterations.
    pub fn len(&self) -> usize {
        self.flat.len().checked_div(self.depth).unwrap_or(0)
    }

    /// True when the space is empty.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// Loop-nest depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The `k`-th iteration vector in execution order.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn get(&self, k: usize) -> &[i64] {
        &self.flat[k * self.depth..(k + 1) * self.depth]
    }

    /// Iterator over iteration vectors in execution order.
    pub fn iter(&self) -> impl Iterator<Item = &[i64]> {
        self.flat.chunks_exact(self.depth)
    }

    /// Splits the space into [`IterationSet`]s of `set_size` consecutive
    /// iterations (the final set may be smaller).
    ///
    /// # Panics
    ///
    /// Panics if `set_size` is zero.
    pub fn split(&self, set_size: usize) -> Vec<IterationSet> {
        assert!(set_size > 0, "iteration set size must be positive");
        let n = self.len();
        let mut sets = Vec::with_capacity(n.div_ceil(set_size));
        let mut start = 0;
        let mut id = 0;
        while start < n {
            let end = (start + set_size).min(n);
            sets.push(IterationSet { id, start, end });
            id += 1;
            start = end;
        }
        sets
    }

    /// Splits using the paper's parameterization: set size = `fraction`
    /// of the total iteration count (default 0.25 % ⇒ `fraction = 0.0025`),
    /// with a minimum of one iteration per set.
    pub fn split_by_fraction(&self, fraction: f64) -> Vec<IterationSet> {
        assert!(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
        let size = ((self.len() as f64 * fraction).round() as usize).max(1);
        self.split(size)
    }
}

/// A set of consecutive iterations `[start, end)` of one nest — the unit of
/// computation scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IterationSet {
    /// Dense id of this set within its nest.
    pub id: usize,
    /// First iteration index (into the enumerated space).
    pub start: usize,
    /// One past the last iteration index.
    pub end: usize,
}

impl IterationSet {
    /// Number of iterations in the set.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the set is empty (never produced by `split`).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Iterator over the iteration indices in this set.
    pub fn indices(&self) -> std::ops::Range<usize> {
        self.start..self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;
    use crate::nest::LoopBound;

    #[test]
    fn enumerate_rectangular_in_lex_order() {
        let nest = LoopNest::rectangular("r", &[2, 3]);
        let s = IterationSpace::enumerate(&nest, &ParamEnv::new());
        assert_eq!(s.len(), 6);
        let all: Vec<Vec<i64>> = s.iter().map(|v| v.to_vec()).collect();
        assert_eq!(
            all,
            vec![vec![0, 0], vec![0, 1], vec![0, 2], vec![1, 0], vec![1, 1], vec![1, 2]]
        );
    }

    #[test]
    fn enumerate_triangular() {
        let bounds = vec![
            LoopBound::range(3),
            LoopBound { lower: AffineExpr::var(0, 1), upper: AffineExpr::constant(3) },
        ];
        let nest = LoopNest::with_bounds("tri", bounds);
        let s = IterationSpace::enumerate(&nest, &ParamEnv::new());
        let all: Vec<Vec<i64>> = s.iter().map(|v| v.to_vec()).collect();
        assert_eq!(
            all,
            vec![vec![0, 0], vec![0, 1], vec![0, 2], vec![1, 1], vec![1, 2], vec![2, 2]]
        );
    }

    #[test]
    fn split_exact_and_remainder() {
        let nest = LoopNest::rectangular("r", &[10]);
        let s = IterationSpace::enumerate(&nest, &ParamEnv::new());
        let sets = s.split(4);
        assert_eq!(sets.len(), 3);
        assert_eq!(sets[0].len(), 4);
        assert_eq!(sets[2].len(), 2);
        assert_eq!(sets[2].id, 2);
        // Sets tile the space.
        let covered: usize = sets.iter().map(IterationSet::len).sum();
        assert_eq!(covered, 10);
    }

    #[test]
    fn split_by_fraction_quarter_percent() {
        let nest = LoopNest::rectangular("r", &[10_000]);
        let s = IterationSpace::enumerate(&nest, &ParamEnv::new());
        let sets = s.split_by_fraction(0.0025);
        assert_eq!(sets.len(), 400);
        assert!(sets.iter().all(|st| st.len() == 25));
    }

    #[test]
    fn split_by_fraction_clamps_to_one() {
        let nest = LoopNest::rectangular("r", &[10]);
        let s = IterationSpace::enumerate(&nest, &ParamEnv::new());
        let sets = s.split_by_fraction(0.0001);
        assert_eq!(sets.len(), 10);
    }

    #[test]
    fn get_matches_iter() {
        let nest = LoopNest::rectangular("r", &[4, 4]);
        let s = IterationSpace::enumerate(&nest, &ParamEnv::new());
        for (k, iv) in s.iter().enumerate() {
            assert_eq!(s.get(k), iv);
        }
    }

    #[test]
    #[should_panic]
    fn split_zero_panics() {
        let nest = LoopNest::rectangular("r", &[4]);
        IterationSpace::enumerate(&nest, &ParamEnv::new()).split(0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn iteration_set_indices_match_bounds() {
        let s = IterationSet { id: 3, start: 30, end: 40 };
        assert_eq!(s.len(), 10);
        assert!(!s.is_empty());
        assert_eq!(s.indices().collect::<Vec<_>>(), (30..40).collect::<Vec<_>>());
    }

    #[test]
    fn split_ids_are_dense_and_ordered() {
        let nest = LoopNest::rectangular("r", &[100]);
        let space = IterationSpace::enumerate(&nest, &ParamEnv::new());
        for (i, s) in space.split(7).iter().enumerate() {
            assert_eq!(s.id, i);
        }
    }

    #[test]
    fn empty_space_has_no_sets() {
        let nest = LoopNest::with_bounds(
            "z",
            vec![crate::nest::LoopBound::range(0)],
        );
        let space = IterationSpace::enumerate(&nest, &ParamEnv::new());
        assert!(space.is_empty());
        assert!(space.split(5).is_empty());
    }

    #[test]
    fn depth_matches_nest() {
        let nest = LoopNest::rectangular("r", &[2, 3, 4]);
        let space = IterationSpace::enumerate(&nest, &ParamEnv::new());
        assert_eq!(space.depth(), 3);
        assert_eq!(space.len(), 24);
    }
}
