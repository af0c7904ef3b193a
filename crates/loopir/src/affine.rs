//! Affine expressions over loop indices and symbolic parameters.
//!
//! An [`AffineExpr`] is `Σ c_s·i_s + Σ d_p·P_p + k` where `i_s` are loop
//! indices (0 = outermost), `P_p` are symbolic program parameters (e.g. a
//! runtime matrix dimension — the paper's "limited symbolic analysis"), and
//! `k` is a constant.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a symbolic program parameter (e.g. `N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ParamId(pub u32);

/// Runtime bindings for symbolic parameters.
#[derive(Debug, Clone, Default)]
pub struct ParamEnv {
    values: HashMap<ParamId, i64>,
}

impl ParamEnv {
    /// An empty environment (fine for fully constant programs).
    pub fn new() -> Self {
        ParamEnv::default()
    }

    /// Binds parameter `p` to `value`, returning `self` for chaining.
    pub fn bind(mut self, p: ParamId, value: i64) -> Self {
        self.values.insert(p, value);
        self
    }

    /// Sets parameter `p` to `value` in place.
    pub fn set(&mut self, p: ParamId, value: i64) {
        self.values.insert(p, value);
    }

    /// Looks up parameter `p`.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is unbound — using a symbolic value without
    /// binding it is a compiler bug, not a user input error.
    pub fn value(&self, p: ParamId) -> i64 {
        *self
            .values
            .get(&p)
            .unwrap_or_else(|| panic!("unbound parameter {p:?}"))
    }

    /// All bindings in ascending [`ParamId`] order. The deterministic
    /// ordering makes the environment content-hashable (the underlying
    /// map iterates in arbitrary order).
    pub fn entries(&self) -> Vec<(ParamId, i64)> {
        let mut v: Vec<(ParamId, i64)> = self.values.iter().map(|(&p, &x)| (p, x)).collect();
        v.sort_unstable_by_key(|&(p, _)| p);
        v
    }
}

/// An affine expression `Σ c_s·i_s + Σ d_p·P_p + constant`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    /// Coefficient on each loop index; trailing zeros may be omitted.
    pub coeffs: Vec<i64>,
    /// Coefficients on symbolic parameters.
    pub params: Vec<(ParamId, i64)>,
    /// Constant term.
    pub constant: i64,
}

impl AffineExpr {
    /// The constant expression `k`.
    pub fn constant(k: i64) -> Self {
        AffineExpr { coeffs: Vec::new(), params: Vec::new(), constant: k }
    }

    /// The expression `c · i_depth`.
    pub fn var(depth: usize, c: i64) -> Self {
        let mut coeffs = vec![0; depth + 1];
        coeffs[depth] = c;
        AffineExpr { coeffs, params: Vec::new(), constant: 0 }
    }

    /// The expression `c · P`.
    pub fn param(p: ParamId, c: i64) -> Self {
        AffineExpr { coeffs: Vec::new(), params: vec![(p, c)], constant: 0 }
    }

    /// Builds `Σ coeffs[s]·i_s + constant` directly.
    pub fn linear(coeffs: &[i64], constant: i64) -> Self {
        AffineExpr { coeffs: coeffs.to_vec(), params: Vec::new(), constant }
    }

    /// Adds a constant, returning the result.
    pub fn plus(mut self, k: i64) -> Self {
        self.constant += k;
        self
    }

    /// Scales every term by `k`, returning the result.
    pub fn scale(mut self, k: i64) -> Self {
        self.coeffs.iter_mut().for_each(|c| *c *= k);
        self.params.iter_mut().for_each(|(_, c)| *c *= k);
        self.constant *= k;
        self
    }

    /// Evaluates at iteration vector `iv` with parameter bindings `env`.
    ///
    /// Loop indices beyond `iv.len()` contribute zero only if their
    /// coefficient is zero.
    ///
    /// # Panics
    ///
    /// Panics if a nonzero coefficient refers past `iv` or a parameter is
    /// unbound.
    pub fn eval(&self, iv: &[i64], env: &ParamEnv) -> i64 {
        let mut v = self.constant;
        for (s, &c) in self.coeffs.iter().enumerate() {
            if c != 0 {
                assert!(s < iv.len(), "coefficient on i{s} but iteration vector has {} entries", iv.len());
                v += c * iv[s];
            }
        }
        for &(p, c) in &self.params {
            if c != 0 {
                v += c * env.value(p);
            }
        }
        v
    }

    /// The coefficient on loop index `depth` (0 when omitted).
    pub fn coeff(&self, depth: usize) -> i64 {
        self.coeffs.get(depth).copied().unwrap_or(0)
    }

    /// True when the expression contains no loop-index terms (it may still
    /// reference parameters).
    pub fn is_loop_invariant(&self) -> bool {
        self.coeffs.iter().all(|&c| c == 0)
    }

    /// The deepest loop index with a nonzero coefficient, if any.
    pub fn deepest_var(&self) -> Option<usize> {
        self.coeffs.iter().rposition(|&c| c != 0)
    }
}

impl std::ops::Add<&AffineExpr> for AffineExpr {
    type Output = AffineExpr;

    /// Adds `other` into `self`, returning the sum.
    fn add(mut self, other: &AffineExpr) -> AffineExpr {
        if other.coeffs.len() > self.coeffs.len() {
            self.coeffs.resize(other.coeffs.len(), 0);
        }
        for (s, c) in other.coeffs.iter().enumerate() {
            self.coeffs[s] += c;
        }
        for &(p, c) in &other.params {
            match self.params.iter_mut().find(|(q, _)| *q == p) {
                Some((_, existing)) => *existing += c,
                None => self.params.push((p, c)),
            }
        }
        self.constant += other.constant;
        self
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (s, &c) in self.coeffs.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            if c == 1 {
                write!(f, "i{s}")?;
            } else {
                write!(f, "{c}*i{s}")?;
            }
            first = false;
        }
        for &(p, c) in &self.params {
            if c == 0 {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            if c == 1 {
                write!(f, "P{}", p.0)?;
            } else {
                write!(f, "{c}*P{}", p.0)?;
            }
            first = false;
        }
        if self.constant != 0 || first {
            if !first {
                write!(f, " + ")?;
            }
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_linear() {
        // 2*i0 + 3*i1 + 5
        let e = AffineExpr::linear(&[2, 3], 5);
        assert_eq!(e.eval(&[10, 100], &ParamEnv::new()), 325);
    }

    #[test]
    fn eval_with_params() {
        let n = ParamId(0);
        // i0*N + i1
        let e = AffineExpr::var(0, 1).scale(1) + &AffineExpr::var(1, 1);
        // multiply i0 coefficient by N symbolically is not expressible;
        // instead model row-major as param-scaled: N*i0 is non-affine in
        // (i0, N) jointly, so workloads bind N at construction. Here we
        // just check param terms evaluate.
        let e2 = e + &AffineExpr::param(n, 4);
        let env = ParamEnv::new().bind(n, 7);
        assert_eq!(e2.eval(&[2, 3], &env), 2 + 3 + 28);
    }

    #[test]
    fn add_merges_params() {
        let p = ParamId(1);
        let a = AffineExpr::param(p, 2).plus(1);
        let b = AffineExpr::param(p, 5);
        let s = a + &b;
        assert_eq!(s.params, vec![(p, 7)]);
        assert_eq!(s.constant, 1);
    }

    #[test]
    fn scale_all_terms() {
        let e = AffineExpr::linear(&[1, 2], 3).scale(-2);
        assert_eq!(e.coeffs, vec![-2, -4]);
        assert_eq!(e.constant, -6);
    }

    #[test]
    fn invariant_and_deepest() {
        assert!(AffineExpr::constant(9).is_loop_invariant());
        assert!(AffineExpr::param(ParamId(0), 1).is_loop_invariant());
        assert!(!AffineExpr::var(2, 1).is_loop_invariant());
        assert_eq!(AffineExpr::linear(&[1, 0, 4], 0).deepest_var(), Some(2));
        assert_eq!(AffineExpr::constant(1).deepest_var(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(AffineExpr::linear(&[2, 1], 3).to_string(), "2*i0 + i1 + 3");
        assert_eq!(AffineExpr::constant(0).to_string(), "0");
    }

    #[test]
    #[should_panic]
    fn unbound_param_panics() {
        AffineExpr::param(ParamId(9), 1).eval(&[], &ParamEnv::new());
    }

    #[test]
    #[should_panic]
    fn short_iteration_vector_panics() {
        AffineExpr::var(3, 1).eval(&[0, 0], &ParamEnv::new());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;

    #[test]
    fn add_resizes_coefficient_vectors() {
        let a = AffineExpr::var(0, 2);
        let b = AffineExpr::var(3, 5);
        let s = a + &b;
        assert_eq!(s.coeffs, vec![2, 0, 0, 5]);
    }

    #[test]
    fn plus_and_scale_compose() {
        let e = AffineExpr::var(0, 1).plus(10).scale(3);
        assert_eq!(e.eval(&[4], &ParamEnv::new()), 42);
    }

    #[test]
    fn param_env_set_overwrites() {
        let p = ParamId(0);
        let mut env = ParamEnv::new();
        env.set(p, 1);
        env.set(p, 9);
        assert_eq!(env.value(p), 9);
    }

    #[test]
    fn display_param_terms() {
        let e = AffineExpr::param(ParamId(2), 3).plus(-1);
        let s = e.to_string();
        assert!(s.contains("3*P2"), "{s}");
    }

    #[test]
    fn coeff_beyond_length_is_zero() {
        let e = AffineExpr::var(1, 7);
        assert_eq!(e.coeff(5), 0);
        assert_eq!(e.coeff(1), 7);
    }
}
