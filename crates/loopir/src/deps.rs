//! Data-dependence testing for parallel-safety.
//!
//! The mapping pass only reorders iterations *across cores* of loops the
//! program already declared parallel; this module provides the classic
//! ZIV/SIV/GCD dependence tests a compiler would run to validate that
//! declaration. Indirect (index-array) references cannot be analyzed
//! statically and yield [`DependenceKind::Unknown`] — exactly why the paper
//! falls back to the inspector–executor for irregular codes.

use crate::affine::AffineExpr;
use crate::nest::{Access, LoopNest, RefKind};
use crate::program::Program;

/// Result of testing a pair of references for dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependenceKind {
    /// Provably no dependence.
    None,
    /// Dependence exists but only within a single iteration of the parallel
    /// loop (loop-independent) — safe to run iterations on different cores.
    LoopIndependent,
    /// Dependence carried by the loop at `depth` — unsafe to parallelize
    /// that loop.
    Carried {
        /// Loop level carrying the dependence, 0 = outermost.
        depth: usize,
    },
    /// Cannot be analyzed (indirect subscript).
    Unknown,
}

/// Dependence tester for a loop nest.
#[derive(Debug, Clone, Copy)]
pub struct DependenceTest<'a> {
    program: &'a Program,
    nest: &'a LoopNest,
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl<'a> DependenceTest<'a> {
    /// Creates a tester for `nest` in `program`.
    pub fn new(program: &'a Program, nest: &'a LoopNest) -> Self {
        DependenceTest { program, nest }
    }

    /// Tests references `r1` and `r2` (indices into `nest.refs`) for a
    /// dependence carried by loop level `depth`.
    ///
    /// Implementation: the two subscripts conflict iff
    /// `e1(iv) == e2(iv')` has a solution with `iv[depth] != iv'[depth]`.
    /// We apply the GCD test on `e1 - e2` treating the two iteration
    /// vectors independently, plus the ZIV/strong-SIV shortcuts.
    pub fn test_pair(&self, r1: usize, r2: usize, depth: usize) -> DependenceKind {
        let (a, b) = (&self.nest.refs[r1], &self.nest.refs[r2]);
        if a.array != b.array {
            return DependenceKind::None;
        }
        if a.access == Access::Read && b.access == Access::Read {
            return DependenceKind::None;
        }
        let (e1, e2) = match (&a.kind, &b.kind) {
            (RefKind::Affine(e1), RefKind::Affine(e2)) => (e1, e2),
            _ => return DependenceKind::Unknown,
        };
        self.test_affine_pair(e1, e2, depth)
    }

    fn test_affine_pair(&self, e1: &AffineExpr, e2: &AffineExpr, depth: usize) -> DependenceKind {
        // Symbolic parameter terms: require identical parameter parts, else
        // be conservative.
        let mut p1 = e1.params.clone();
        let mut p2 = e2.params.clone();
        p1.sort_unstable();
        p2.sort_unstable();
        p1.retain(|&(_, c)| c != 0);
        p2.retain(|&(_, c)| c != 0);
        if p1 != p2 {
            return DependenceKind::Unknown;
        }

        let d = self.nest.depth();
        let c1: Vec<i64> = (0..d).map(|s| e1.coeff(s)).collect();
        let c2: Vec<i64> = (0..d).map(|s| e2.coeff(s)).collect();
        let k = e2.constant - e1.constant;

        // ZIV: both subscripts invariant in every loop. Equal constants
        // mean every iteration of the tested loop touches the same element,
        // so the dependence is carried by that loop.
        if c1.iter().all(|&c| c == 0) && c2.iter().all(|&c| c == 0) {
            return if k == 0 { DependenceKind::Carried { depth } } else { DependenceKind::None };
        }

        // GCD test over all index terms (two independent iteration
        // vectors: coefficients c1[s] and -c2[s] are separate unknowns).
        let g = c1.iter().chain(c2.iter()).fold(0, |acc, &c| gcd(acc, c));
        if g != 0 && k % g != 0 {
            return DependenceKind::None;
        }

        // Strong SIV on the tested depth: identical coefficient `c` on
        // `depth` and no other varying terms ⇒ dependence distance is
        // k / c; distance 0 means loop-independent.
        let only_depth_varies = (0..d).all(|s| s == depth || (c1[s] == c2[s] && c1[s] == 0));
        if only_depth_varies && c1[depth] == c2[depth] && c1[depth] != 0 {
            let c = c1[depth];
            if k % c != 0 {
                return DependenceKind::None;
            }
            let dist = k / c;
            return if dist == 0 {
                DependenceKind::LoopIndependent
            } else {
                // Distance must be realizable within the loop bounds; we
                // conservatively assume it is.
                DependenceKind::Carried { depth }
            };
        }

        // Same subscript expression entirely ⇒ same element iff same
        // iteration: loop-independent.
        if c1 == c2 && k == 0 {
            // If the expression does not vary with `depth`, two different
            // iterations of `depth` touch the same element ⇒ carried.
            if c1[depth] == 0 {
                return DependenceKind::Carried { depth };
            }
            return DependenceKind::LoopIndependent;
        }

        // Could not disprove: conservative.
        DependenceKind::Carried { depth }
    }

    /// Whether the nest's declared parallel loop is provably safe: no pair
    /// of references (one a write) has a dependence carried by that loop.
    ///
    /// Irregular nests return `false` (statically unknown) — the paper
    /// handles them with the runtime inspector instead.
    pub fn parallel_loop_is_safe(&self) -> bool {
        let depth = self.nest.parallel_depth;
        let n = self.nest.refs.len();
        for i in 0..n {
            for j in i..n {
                match self.test_pair(i, j, depth) {
                    DependenceKind::None | DependenceKind::LoopIndependent => {}
                    DependenceKind::Carried { .. } | DependenceKind::Unknown => return false,
                }
            }
        }
        true
    }

    /// The program this tester refers to (exposed so callers can keep a
    /// single borrow).
    pub fn program(&self) -> &Program {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::LoopNest;

    fn single_loop_prog(build: impl FnOnce(&mut Program, &mut LoopNest)) -> (Program, LoopNest) {
        let mut p = Program::new("t");
        let mut nest = LoopNest::rectangular("n", &[100]);
        build(&mut p, &mut nest);
        (p, nest)
    }

    #[test]
    fn disjoint_writes_are_parallel() {
        // A[i] = B[i]: write A[i], read B[i] — independent iterations.
        let (p, nest) = single_loop_prog(|p, nest| {
            let a = p.add_array("A", 8, 100);
            let b = p.add_array("B", 8, 100);
            nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
            nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        });
        assert!(DependenceTest::new(&p, &nest).parallel_loop_is_safe());
    }

    #[test]
    fn shifted_read_write_is_carried() {
        // A[i] = A[i-1]: classic flow dependence carried by the loop.
        let (p, nest) = single_loop_prog(|p, nest| {
            let a = p.add_array("A", 8, 101);
            nest.add_ref(a, AffineExpr::var(0, 1).plus(1), Access::Write);
            nest.add_ref(a, AffineExpr::var(0, 1), Access::Read);
        });
        let t = DependenceTest::new(&p, &nest);
        assert_eq!(t.test_pair(0, 1, 0), DependenceKind::Carried { depth: 0 });
        assert!(!t.parallel_loop_is_safe());
    }

    #[test]
    fn same_subscript_read_write_is_loop_independent() {
        // A[i] = A[i] + 1.
        let (p, nest) = single_loop_prog(|p, nest| {
            let a = p.add_array("A", 8, 100);
            nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
            nest.add_ref(a, AffineExpr::var(0, 1), Access::Read);
        });
        let t = DependenceTest::new(&p, &nest);
        assert_eq!(t.test_pair(0, 1, 0), DependenceKind::LoopIndependent);
        assert!(t.parallel_loop_is_safe());
    }

    #[test]
    fn gcd_disproves_even_odd() {
        // A[2i] = A[2i'+1]: 2i = 2i'+1 has no integer solution.
        let (p, nest) = single_loop_prog(|p, nest| {
            let a = p.add_array("A", 8, 201);
            nest.add_ref(a, AffineExpr::var(0, 2), Access::Write);
            nest.add_ref(a, AffineExpr::var(0, 2).plus(1), Access::Read);
        });
        let t = DependenceTest::new(&p, &nest);
        assert_eq!(t.test_pair(0, 1, 0), DependenceKind::None);
    }

    #[test]
    fn scalar_write_blocks_parallelism() {
        // A[0] = B[i]: every iteration writes the same element.
        let (p, nest) = single_loop_prog(|p, nest| {
            let a = p.add_array("A", 8, 1);
            let b = p.add_array("B", 8, 100);
            nest.add_ref(a, AffineExpr::constant(0), Access::Write);
            nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
        });
        let t = DependenceTest::new(&p, &nest);
        // Write-write on the scalar across iterations: e1==e2 constant,
        // coeff on depth 0 is 0 ⇒ carried.
        assert_eq!(t.test_pair(0, 0, 0), DependenceKind::Carried { depth: 0 });
        assert!(!t.parallel_loop_is_safe());
    }

    #[test]
    fn reads_never_conflict() {
        let (p, nest) = single_loop_prog(|p, nest| {
            let b = p.add_array("B", 8, 100);
            nest.add_ref(b, AffineExpr::var(0, 1), Access::Read);
            nest.add_ref(b, AffineExpr::constant(0), Access::Read);
        });
        let t = DependenceTest::new(&p, &nest);
        assert_eq!(t.test_pair(0, 1, 0), DependenceKind::None);
    }

    #[test]
    fn indirect_is_unknown() {
        let (p, nest) = single_loop_prog(|p, nest| {
            let a = p.add_array("A", 8, 100);
            let idx = p.add_array("idx", 4, 100);
            nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Write);
            nest.add_ref(a, AffineExpr::var(0, 1), Access::Read);
        });
        let t = DependenceTest::new(&p, &nest);
        assert_eq!(t.test_pair(0, 1, 0), DependenceKind::Unknown);
        assert!(!t.parallel_loop_is_safe());
    }

    #[test]
    fn outer_parallel_inner_reduction() {
        // for i (parallel) for j: A[i] += B[j]; write A[i] invariant in j
        // but varies with i ⇒ safe across i.
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 10);
        let b = p.add_array("B", 8, 10);
        let mut nest = LoopNest::rectangular("n", &[10, 10]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Write);
        nest.add_ref(b, AffineExpr::var(1, 1), Access::Read);
        let t = DependenceTest::new(&p, &nest);
        assert!(t.parallel_loop_is_safe());
    }
}
