//! Reuse analysis: classifies how each reference reuses cache lines.
//!
//! This is the "data access and reuse patterns" stage of Figure 4. The
//! classification follows Wolf & Lam's taxonomy (self/group ×
//! temporal/spatial) and feeds the CME-style miss estimator: a reference
//! with short-distance reuse will usually hit, one with no reuse will
//! usually miss.

use crate::affine::AffineExpr;
use crate::nest::{LoopNest, RefKind};
use crate::program::Program;

/// The dominant reuse a reference enjoys, with an estimate of the reuse
/// distance in iterations of the innermost loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReuseKind {
    /// Subscript invariant in the innermost loop: the same element is
    /// touched every iteration.
    SelfTemporal,
    /// Consecutive iterations touch consecutive elements within one line:
    /// `stride_bytes` per iteration, hitting `line/stride` times per line.
    SelfSpatial {
        /// Byte stride between consecutive innermost iterations.
        stride_bytes: u64,
    },
    /// Another reference touches the same or a nearby element a constant
    /// number of iterations earlier.
    Group {
        /// Iteration distance to the leading reference.
        distance: u64,
    },
    /// No analyzable reuse (large stride or indirect subscript).
    None,
}

/// Per-reference reuse classification for one nest.
#[derive(Debug, Clone)]
pub struct ReuseAnalysis {
    kinds: Vec<ReuseKind>,
}

impl ReuseAnalysis {
    /// Analyzes every reference of `nest`, assuming `line_bytes` cache
    /// lines.
    pub fn analyze(program: &Program, nest: &LoopNest, line_bytes: u64) -> Self {
        let innermost = nest.depth() - 1;
        let n = nest.refs.len();
        let mut kinds = Vec::with_capacity(n);

        for (i, r) in nest.refs.iter().enumerate() {
            let expr = match &r.kind {
                RefKind::Affine(e) => e,
                RefKind::Indirect { .. } => {
                    kinds.push(ReuseKind::None);
                    continue;
                }
            };
            let elem = program.array(r.array).element_bytes as u64;
            let stride = expr.coeff(innermost).unsigned_abs() * elem;

            if stride == 0 {
                kinds.push(ReuseKind::SelfTemporal);
                continue;
            }
            if stride < line_bytes {
                kinds.push(ReuseKind::SelfSpatial { stride_bytes: stride });
                continue;
            }
            // Group reuse: a leading reference to the same array whose
            // subscript differs by a constant.
            let mut group: Option<u64> = None;
            for (j, other) in nest.refs.iter().enumerate() {
                if i == j || other.array != r.array {
                    continue;
                }
                if let RefKind::Affine(oe) = &other.kind {
                    if let Some(d) = constant_difference(expr, oe) {
                        let c = expr.coeff(innermost);
                        if c != 0 && d % c == 0 {
                            let iters = (d / c).unsigned_abs();
                            if iters > 0 {
                                group = Some(group.map_or(iters, |g: u64| g.min(iters)));
                            }
                        }
                    }
                }
            }
            kinds.push(match group {
                Some(distance) => ReuseKind::Group { distance },
                None => ReuseKind::None,
            });
        }
        ReuseAnalysis { kinds }
    }

    /// The classification of reference `r` (index into `nest.refs`).
    pub fn kind(&self, r: usize) -> ReuseKind {
        self.kinds[r]
    }

    /// All classifications, in reference order.
    pub fn kinds(&self) -> &[ReuseKind] {
        &self.kinds
    }
}

/// If `a - b` is a constant (identical coefficients on every index and
/// parameter), returns that constant.
fn constant_difference(a: &AffineExpr, b: &AffineExpr) -> Option<i64> {
    let d = a.coeffs.len().max(b.coeffs.len());
    for s in 0..d {
        if a.coeff(s) != b.coeff(s) {
            return None;
        }
    }
    let mut pa = a.params.clone();
    let mut pb = b.params.clone();
    pa.retain(|&(_, c)| c != 0);
    pb.retain(|&(_, c)| c != 0);
    pa.sort_unstable();
    pb.sort_unstable();
    if pa != pb {
        return None;
    }
    Some(a.constant - b.constant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::Access;

    #[test]
    fn unit_stride_is_self_spatial() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100);
        let mut nest = LoopNest::rectangular("n", &[100]);
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Read);
        let ra = ReuseAnalysis::analyze(&p, &nest, 64);
        assert_eq!(ra.kind(0), ReuseKind::SelfSpatial { stride_bytes: 8 });
    }

    #[test]
    fn invariant_is_self_temporal() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100);
        let mut nest = LoopNest::rectangular("n", &[10, 10]);
        // A[i0]: invariant in innermost loop i1.
        nest.add_ref(a, AffineExpr::var(0, 1), Access::Read);
        let ra = ReuseAnalysis::analyze(&p, &nest, 64);
        assert_eq!(ra.kind(0), ReuseKind::SelfTemporal);
    }

    #[test]
    fn large_stride_is_none() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 10_000);
        let mut nest = LoopNest::rectangular("n", &[100]);
        // A[100*i]: 800-byte stride, no spatial reuse in a 64 B line.
        nest.add_ref(a, AffineExpr::var(0, 100), Access::Read);
        let ra = ReuseAnalysis::analyze(&p, &nest, 64);
        assert_eq!(ra.kind(0), ReuseKind::None);
    }

    #[test]
    fn group_reuse_between_shifted_refs() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 10_000);
        let mut nest = LoopNest::rectangular("n", &[100]);
        // A[16*i] and A[16*i + 32]: same line only 2 iterations apart
        // via the leading ref (32/16 = 2). Strides are 128 B (> line).
        nest.add_ref(a, AffineExpr::var(0, 16), Access::Read);
        nest.add_ref(a, AffineExpr::var(0, 16).plus(32), Access::Read);
        let ra = ReuseAnalysis::analyze(&p, &nest, 64);
        assert_eq!(ra.kind(0), ReuseKind::Group { distance: 2 });
        assert_eq!(ra.kind(1), ReuseKind::Group { distance: 2 });
    }

    #[test]
    fn indirect_is_none() {
        let mut p = Program::new("t");
        let a = p.add_array("A", 8, 100);
        let idx = p.add_array("idx", 4, 100);
        let mut nest = LoopNest::rectangular("n", &[100]);
        nest.add_indirect_ref(a, idx, AffineExpr::var(0, 1), Access::Read);
        let ra = ReuseAnalysis::analyze(&p, &nest, 64);
        assert_eq!(ra.kind(0), ReuseKind::None);
    }

    #[test]
    fn constant_difference_detects_shift() {
        let a = AffineExpr::var(0, 4).plus(12);
        let b = AffineExpr::var(0, 4);
        assert_eq!(constant_difference(&a, &b), Some(12));
        let c = AffineExpr::var(0, 5);
        assert_eq!(constant_difference(&a, &c), None);
    }
}
