//! Loop nests and array references.

use crate::affine::{AffineExpr, ParamEnv};
use crate::program::ArrayId;

/// Identifier of a loop nest within a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NestId(pub u32);

/// Identifier of an array reference within a nest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefId(pub u32);

/// Read or write access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// A load from the array.
    Read,
    /// A store to the array.
    Write,
}

/// How a reference computes its element index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RefKind {
    /// Affine subscript: element = expr(iteration vector). Regular
    /// applications are built entirely from these.
    Affine(AffineExpr),
    /// Index-array subscript: element = index_array[expr(iv)] + offset.
    /// This is the paper's irregular case (`A[idx[i]]`): the compiler
    /// cannot resolve the target at compile time and must use the
    /// inspector-executor.
    Indirect {
        /// The index array being read to compute the subscript.
        index_array: ArrayId,
        /// Affine position within the index array.
        position: AffineExpr,
        /// Constant offset added to the fetched index.
        offset: i64,
    },
}

impl RefKind {
    /// True for [`RefKind::Indirect`].
    pub fn is_indirect(&self) -> bool {
        matches!(self, RefKind::Indirect { .. })
    }
}

/// A single array reference in the nest body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ArrayRef {
    /// The array being accessed.
    pub array: ArrayId,
    /// Subscript computation.
    pub kind: RefKind,
    /// Read or write.
    pub access: Access,
}

/// Bounds of one loop level: `lower <= i < upper`, where both bounds are
/// affine in the *outer* loop indices and program parameters (supporting
/// triangular nests like LU and Cholesky).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopBound {
    /// Inclusive lower bound.
    pub lower: AffineExpr,
    /// Exclusive upper bound.
    pub upper: AffineExpr,
}

impl LoopBound {
    /// The constant range `0 <= i < n`.
    pub fn range(n: i64) -> Self {
        LoopBound { lower: AffineExpr::constant(0), upper: AffineExpr::constant(n) }
    }
}

/// A (possibly parallel) loop nest with its array references.
///
/// The paper's unit of optimization: each parallel nest is independently
/// analyzed and its iterations mapped to cores.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LoopNest {
    /// Human-readable name (for reports).
    pub name: String,
    /// One bound per loop level, outermost first.
    pub bounds: Vec<LoopBound>,
    /// Array references executed by each iteration.
    pub refs: Vec<ArrayRef>,
    /// Non-memory instructions per iteration (compute work), used by the
    /// simulator's core model.
    pub work_per_iter: u32,
    /// Which loop level is parallel (iterations of this level may run on
    /// different cores). Usually 0 (outermost).
    pub parallel_depth: usize,
}

impl LoopNest {
    /// A rectangular nest `for i0 in 0..extents[0] { for i1 in ... }`.
    pub fn rectangular(name: impl Into<String>, extents: &[i64]) -> Self {
        assert!(!extents.is_empty(), "nest must have at least one loop");
        LoopNest {
            name: name.into(),
            bounds: extents.iter().map(|&n| LoopBound::range(n)).collect(),
            refs: Vec::new(),
            work_per_iter: 8,
            parallel_depth: 0,
        }
    }

    /// A nest with explicit (possibly triangular / symbolic) bounds.
    pub fn with_bounds(name: impl Into<String>, bounds: Vec<LoopBound>) -> Self {
        assert!(!bounds.is_empty(), "nest must have at least one loop");
        LoopNest { name: name.into(), bounds, refs: Vec::new(), work_per_iter: 8, parallel_depth: 0 }
    }

    /// Number of loop levels.
    pub fn depth(&self) -> usize {
        self.bounds.len()
    }

    /// Adds an affine reference `array[expr]`, returning its id.
    pub fn add_ref(&mut self, array: ArrayId, expr: AffineExpr, access: Access) -> RefId {
        self.refs.push(ArrayRef { array, kind: RefKind::Affine(expr), access });
        RefId(self.refs.len() as u32 - 1)
    }

    /// Adds an indirect reference `array[index_array[pos] + offset]`,
    /// returning its id.
    pub fn add_indirect_ref(
        &mut self,
        array: ArrayId,
        index_array: ArrayId,
        position: AffineExpr,
        access: Access,
    ) -> RefId {
        self.refs.push(ArrayRef {
            array,
            kind: RefKind::Indirect { index_array, position, offset: 0 },
            access,
        });
        RefId(self.refs.len() as u32 - 1)
    }

    /// Sets the per-iteration compute work (builder style).
    pub fn work(mut self, ops: u32) -> Self {
        self.work_per_iter = ops;
        self
    }

    /// True if any reference uses an index array — the nest is *irregular*
    /// in the paper's classification and needs the inspector-executor.
    pub fn is_irregular(&self) -> bool {
        self.refs.iter().any(|r| r.kind.is_indirect())
    }

    /// Total number of iterations, honoring triangular/symbolic bounds.
    pub fn iteration_count(&self, env: &ParamEnv) -> u64 {
        let mut count = 0u64;
        let mut iv = vec![0i64; self.depth()];
        self.count_rec(0, &mut iv, env, &mut count);
        count
    }

    fn count_rec(&self, level: usize, iv: &mut Vec<i64>, env: &ParamEnv, count: &mut u64) {
        if level == self.depth() {
            *count += 1;
            return;
        }
        let lo = self.bounds[level].lower.eval(&iv[..level], env);
        let hi = self.bounds[level].upper.eval(&iv[..level], env);
        // Fast path: remaining levels rectangular and this is the last.
        if level + 1 == self.depth() {
            *count += (hi - lo).max(0) as u64;
            return;
        }
        for i in lo..hi {
            iv[level] = i;
            self.count_rec(level + 1, iv, env, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::affine::AffineExpr;

    #[test]
    fn rectangular_count() {
        let n = LoopNest::rectangular("r", &[10, 20]);
        assert_eq!(n.iteration_count(&ParamEnv::new()), 200);
        assert_eq!(n.depth(), 2);
    }

    #[test]
    fn triangular_count() {
        // for i in 0..10 { for j in i..10 }  => 10+9+...+1 = 55
        let bounds = vec![
            LoopBound::range(10),
            LoopBound { lower: AffineExpr::var(0, 1), upper: AffineExpr::constant(10) },
        ];
        let n = LoopNest::with_bounds("tri", bounds);
        assert_eq!(n.iteration_count(&ParamEnv::new()), 55);
    }

    #[test]
    fn symbolic_bound() {
        use crate::affine::ParamId;
        let p = ParamId(0);
        let bounds = vec![LoopBound { lower: AffineExpr::constant(0), upper: AffineExpr::param(p, 1) }];
        let n = LoopNest::with_bounds("sym", bounds);
        let env = ParamEnv::new().bind(p, 77);
        assert_eq!(n.iteration_count(&env), 77);
    }

    #[test]
    fn irregular_detection() {
        let mut n = LoopNest::rectangular("irr", &[4]);
        assert!(!n.is_irregular());
        n.add_indirect_ref(ArrayId(0), ArrayId(1), AffineExpr::var(0, 1), Access::Read);
        assert!(n.is_irregular());
    }

    #[test]
    fn empty_bounds_give_zero_iterations() {
        let bounds = vec![LoopBound::range(0), LoopBound::range(5)];
        let n = LoopNest::with_bounds("empty", bounds);
        assert_eq!(n.iteration_count(&ParamEnv::new()), 0);
    }
}
