//! Workload descriptors: scale, paper metadata, and the bundled program.

use locmap_loopir::{DataEnv, Program};

/// Input-size scaling (Figure 17 runs the original, ~2× and ~4× inputs).
///
/// The factor multiplies the *total* input size; builders convert it to
/// linear-dimension factors as appropriate for their dimensionality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    factor: f64,
}

impl Scale {
    /// A custom scale factor.
    ///
    /// # Panics
    ///
    /// Panics unless `0.1 <= factor <= 16`.
    pub fn new(factor: f64) -> Self {
        assert!((0.1..=16.0).contains(&factor), "scale factor {factor} out of range");
        Scale { factor }
    }

    /// ~2× input size.
    pub fn x2() -> Self {
        Scale { factor: 2.0 }
    }

    /// ~4× input size.
    pub fn x4() -> Self {
        Scale { factor: 4.0 }
    }

    /// The total-size factor.
    pub fn factor(self) -> f64 {
        self.factor
    }

    /// Scales a 1-D element count.
    pub fn dim1(self, n: u64) -> u64 {
        ((n as f64 * self.factor).round() as u64).max(1)
    }

    /// Scales the linear dimension of a 2-D problem (area × factor).
    pub fn dim2(self, n: u64) -> u64 {
        ((n as f64 * self.factor.sqrt()).round() as u64).max(1)
    }

    /// Scales the linear dimension of a 3-D problem (volume × factor).
    pub fn dim3(self, n: u64) -> u64 {
        ((n as f64 * self.factor.cbrt()).round() as u64).max(1)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale { factor: 1.0 }
    }
}

/// The paper's Table 3 row for a benchmark (reported values, kept as
/// metadata so harnesses can print paper-vs-measured).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Table3Info {
    /// "Number of Loop Nests" column.
    pub loop_nests: u32,
    /// "Number of Arrays" column.
    pub arrays: u32,
    /// "Number of Iteration Groups" column.
    pub iteration_groups: u64,
    /// "Frac." column: % of iteration sets moved by load balancing.
    pub frac_moved_pct: f64,
}

/// A ready-to-map-and-simulate benchmark.
#[derive(Debug)]
pub struct Workload {
    /// Benchmark name (paper spelling).
    pub name: &'static str,
    /// The modeled program: arrays + parallel nests.
    pub program: Program,
    /// Index-array contents for irregular references.
    pub data: DataEnv,
    /// Whether the paper classifies it as irregular (inspector–executor).
    pub irregular: bool,
    /// Outer timing-loop trip count: irregular codes run this many
    /// executor iterations after the inspector.
    pub timing_iters: u32,
    /// The paper's Table 3 row.
    pub table3: Table3Info,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_dims() {
        let s = Scale::x4();
        assert_eq!(s.dim1(100), 400);
        assert_eq!(s.dim2(100), 200);
        assert!((s.dim3(100) as i64 - 159).abs() <= 1);
        let d = Scale::default();
        assert_eq!(d.dim1(77), 77);
        assert_eq!(d.dim2(77), 77);
        assert_eq!(d.dim3(77), 77);
    }

    #[test]
    #[should_panic]
    fn absurd_scale_rejected() {
        Scale::new(1000.0);
    }
}
