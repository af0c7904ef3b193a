//! The diagnostics layer: stable `LM####` codes, severities, entities, and
//! the sink that collects findings.
//!
//! Codes are append-only and never renumbered — CI configurations, test
//! assertions and suppression lists refer to them by number. The registry
//! lives in [`Code`]'s associated constants; DESIGN.md §9 mirrors it in
//! prose.

use locmap_loopir::NestId;
use locmap_noc::{Link, NodeId, RegionId};
use std::fmt;

/// How seriously a diagnostic should be taken.
///
/// Ordered: `Allow < Warn < Deny`, so severity comparisons and "worst
/// finding" folds work with the derived `Ord`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Recorded but not reported by default — a suppressed finding.
    Allow,
    /// Suspicious but not provably wrong; never fails a build.
    Warn,
    /// A proven invariant violation; `locmap verify` exits nonzero.
    Deny,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Allow => write!(f, "allow"),
            Severity::Warn => write!(f, "warning"),
            Severity::Deny => write!(f, "error"),
        }
    }
}

/// A stable diagnostic code, printed as `LM####`.
///
/// The hundreds digit groups codes by pass: `LM00xx` loop-nest lints,
/// `LM01xx` affinity-vector invariants, `LM02xx` mapping verification,
/// `LM03xx` routing/topology verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Code(pub u16);

impl Code {
    // ---- LM00xx: loop-nest lints ----------------------------------------
    /// The nest's iteration space is empty (zero iterations).
    pub const EMPTY_NEST: Code = Code(1);
    /// An array access falls outside the array's declared extent.
    pub const OOB_ACCESS: Code = Code(2);
    /// An indirect reference's index array is not installed, so its access
    /// pattern (and parallel legality) is unknowable at compile time.
    pub const UNRESOLVED_INDIRECT: Code = Code(3);
    /// Tiling the declared-parallel loop into iteration sets splits a
    /// dependence carried by that loop (proven by exact enumeration).
    pub const CARRIED_DEPENDENCE: Code = Code(4);
    /// A dependence could not be analyzed (irregular nest) — the static
    /// mapping is only safe if the runtime inspector re-checks it.
    pub const UNKNOWN_DEPENDENCE: Code = Code(5);

    // ---- LM01xx: affinity-vector invariants -----------------------------
    /// An affinity weight (or α) is negative.
    pub const NEGATIVE_WEIGHT: Code = Code(101);
    /// An affinity vector's mass exceeds its documented bound (1 for
    /// MAI/CAI; exactly 1 for the unit-mass MAC/CAC rows).
    pub const EXCESS_MASS: Code = Code(102);
    /// A MAC row disagrees with the Manhattan distances independently
    /// recomputed from region centroids and MC coordinates.
    pub const MAC_MISMATCH: Code = Code(103);
    /// A CAC row disagrees with the self-weight/neighbor-share rule
    /// independently recomputed from the region grid.
    pub const CAC_MISMATCH: Code = Code(104);
    /// A degraded-mode vector carries weight on a component the active
    /// fault state says is dead.
    pub const DEAD_WEIGHT: Code = Code(105);
    /// An affinity vector has the wrong length for its component space.
    pub const VECTOR_SHAPE: Code = Code(106);

    // ---- LM02xx: mapping verification -----------------------------------
    /// Iterations of the nest are covered by no iteration set.
    pub const COVERAGE_GAP: Code = Code(201);
    /// An iteration is covered by more than one set (double-assigned).
    pub const SET_OVERLAP: Code = Code(202);
    /// The mapping's parallel arrays disagree in shape (set/region/core/
    /// vector counts, set ids, or out-of-range components).
    pub const SHAPE_MISMATCH: Code = Code(203);
    /// A set is assigned to a region with no surviving core.
    pub const DEAD_REGION: Code = Code(204);
    /// A set's core lies outside its assigned region, or is dead.
    pub const CORE_REGION_MISMATCH: Code = Code(205);
    /// Independent η recomputation found a strictly better region than the
    /// one the mapping chose.
    pub const ETA_NOT_MINIMAL: Code = Code(206);
    /// Per-region loads exceed the balancer's documented max−min ≤ 1
    /// tolerance over surviving regions.
    pub const LOAD_IMBALANCE: Code = Code(207);
    /// Independent recomputation of the whole pipeline diverges from the
    /// stored mapping — the signature of memo-cache staleness or a mapping
    /// produced under different options.
    pub const STALE_MAPPING: Code = Code(208);

    // ---- LM03xx: routing / topology verification ------------------------
    /// An enumerated X-Y route is non-minimal, discontiguous, or takes a
    /// vertical-before-horizontal turn — the dimension-order deadlock-
    /// freedom proof fails.
    pub const XY_ROUTE_INVALID: Code = Code(301);
    /// Under some fault-plan arm, a surviving core cannot reach any
    /// surviving memory controller or LLC bank.
    pub const STRANDED_CORE: Code = Code(302);
    /// A fault-plan arm leaves an entire region with no serviceable core
    /// (the degraded mapper will evacuate it).
    pub const REGION_ISOLATED: Code = Code(303);
    /// The fault plan itself fails validation.
    pub const FAULT_PLAN_INVALID: Code = Code(304);

    /// The severity this code carries unless overridden by
    /// [`crate::VerifyConfig::overrides`].
    pub fn default_severity(self) -> Severity {
        match self {
            Code::EMPTY_NEST
            | Code::UNRESOLVED_INDIRECT
            | Code::UNKNOWN_DEPENDENCE
            | Code::REGION_ISOLATED => Severity::Warn,
            _ => Severity::Deny,
        }
    }

    /// Short identifier for reports (stable, kebab-case).
    pub fn name(self) -> &'static str {
        match self {
            Code::EMPTY_NEST => "empty-nest",
            Code::OOB_ACCESS => "out-of-bounds-access",
            Code::UNRESOLVED_INDIRECT => "unresolved-indirect",
            Code::CARRIED_DEPENDENCE => "carried-dependence-split",
            Code::UNKNOWN_DEPENDENCE => "unknown-dependence",
            Code::NEGATIVE_WEIGHT => "negative-weight",
            Code::EXCESS_MASS => "excess-mass",
            Code::MAC_MISMATCH => "mac-mismatch",
            Code::CAC_MISMATCH => "cac-mismatch",
            Code::DEAD_WEIGHT => "dead-component-weight",
            Code::VECTOR_SHAPE => "vector-shape",
            Code::COVERAGE_GAP => "coverage-gap",
            Code::SET_OVERLAP => "set-overlap",
            Code::SHAPE_MISMATCH => "shape-mismatch",
            Code::DEAD_REGION => "dead-region-assigned",
            Code::CORE_REGION_MISMATCH => "core-region-mismatch",
            Code::ETA_NOT_MINIMAL => "eta-not-minimal",
            Code::LOAD_IMBALANCE => "load-imbalance",
            Code::STALE_MAPPING => "stale-mapping",
            Code::XY_ROUTE_INVALID => "xy-route-invalid",
            Code::STRANDED_CORE => "stranded-core",
            Code::REGION_ISOLATED => "region-isolated",
            Code::FAULT_PLAN_INVALID => "fault-plan-invalid",
            _ => "unknown",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LM{:04}", self.0)
    }
}

/// What a diagnostic is about — the verifier's analogue of a source span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entity {
    /// A whole loop nest.
    Nest(NestId),
    /// One array reference of a nest.
    Ref {
        /// The nest the reference belongs to.
        nest: NestId,
        /// Index into `nest.refs`.
        index: usize,
    },
    /// One iteration set (by dense id within its nest).
    Set(usize),
    /// A region of the platform's region grid.
    Region(RegionId),
    /// A core / mesh node.
    Core(NodeId),
    /// A memory controller, by index.
    Mc(usize),
    /// The LLC bank at a node.
    Bank(NodeId),
    /// A directed mesh link.
    Link(Link),
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Entity::Nest(n) => write!(f, "nest {}", n.0),
            Entity::Ref { nest, index } => write!(f, "nest {} ref #{index}", nest.0),
            Entity::Set(s) => write!(f, "set {s}"),
            Entity::Region(r) => write!(f, "region R{}", r.index() + 1),
            Entity::Core(n) => write!(f, "core {n}"),
            Entity::Mc(k) => write!(f, "MC{k}"),
            Entity::Bank(n) => write!(f, "bank {n}"),
            Entity::Link(l) => write!(f, "link {}:{:?}", l.from, l.dir),
        }
    }
}

/// One verifier finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// Effective severity (default of the code, or an override).
    pub severity: Severity,
    /// Human-readable statement of what is wrong.
    pub message: String,
    /// What the finding is about, when attributable.
    pub entity: Option<Entity>,
    /// An actionable hint, when one exists.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// A diagnostic for `code` at its default severity.
    pub fn new(code: Code, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.default_severity(),
            message: message.into(),
            entity: None,
            suggestion: None,
        }
    }

    /// Attaches the entity the finding is about.
    pub fn entity(mut self, e: Entity) -> Self {
        self.entity = Some(e);
        self
    }

    /// Attaches an actionable hint.
    pub fn suggest(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{} {}]", self.severity, self.code, self.code.name())?;
        if let Some(e) = &self.entity {
            write!(f, " {e}")?;
        }
        write!(f, ": {}", self.message)?;
        if let Some(s) = &self.suggestion {
            write!(f, " (help: {s})")?;
        }
        Ok(())
    }
}

/// Collects diagnostics across passes, applying severity overrides at emit
/// time so every count and report reflects the effective levels.
#[derive(Debug, Clone, Default)]
pub struct DiagnosticSink {
    diags: Vec<Diagnostic>,
    overrides: Vec<(Code, Severity)>,
}

impl DiagnosticSink {
    /// An empty sink with no overrides.
    pub fn new() -> Self {
        DiagnosticSink::default()
    }

    /// An empty sink applying `overrides` (last entry for a code wins).
    pub fn with_overrides(overrides: &[(Code, Severity)]) -> Self {
        DiagnosticSink { diags: Vec::new(), overrides: overrides.to_vec() }
    }

    /// Records a diagnostic, applying any severity override for its code.
    pub fn emit(&mut self, mut d: Diagnostic) {
        for &(code, sev) in &self.overrides {
            if code == d.code {
                d.severity = sev;
            }
        }
        self.diags.push(d);
    }

    /// All recorded diagnostics, in emission order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Moves every diagnostic of `other` into this sink (severities were
    /// already resolved by the emitting sink and are kept as-is).
    pub fn merge(&mut self, other: DiagnosticSink) {
        self.diags.extend(other.diags);
    }

    /// Number of Deny-level findings.
    pub fn deny_count(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Deny).count()
    }

    /// Number of Warn-level findings.
    pub fn warn_count(&self) -> usize {
        self.diags.iter().filter(|d| d.severity == Severity::Warn).count()
    }

    /// True when no Deny-level finding was recorded.
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// True when at least one finding carries `code`.
    pub fn has(&self, code: Code) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Number of findings carrying `code`.
    pub fn count(&self, code: Code) -> usize {
        self.diags.iter().filter(|d| d.code == code).count()
    }

    /// Multi-line report: every non-Allow finding, then a summary line.
    pub fn report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for d in &self.diags {
            if d.severity > Severity::Allow {
                let _ = writeln!(out, "{d}");
            }
        }
        let _ = write!(
            out,
            "verify: {} finding(s), {} error(s), {} warning(s)",
            self.diags.len(),
            self.deny_count(),
            self.warn_count()
        );
        out
    }
}

impl fmt::Display for DiagnosticSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_format_as_lm_numbers() {
        assert_eq!(Code::EMPTY_NEST.to_string(), "LM0001");
        assert_eq!(Code::STALE_MAPPING.to_string(), "LM0208");
        assert_eq!(Code::FAULT_PLAN_INVALID.to_string(), "LM0304");
    }

    #[test]
    fn severity_orders_allow_warn_deny() {
        assert!(Severity::Allow < Severity::Warn);
        assert!(Severity::Warn < Severity::Deny);
    }

    #[test]
    fn sink_counts_and_cleanliness() {
        let mut sink = DiagnosticSink::new();
        assert!(sink.is_clean());
        sink.emit(Diagnostic::new(Code::EMPTY_NEST, "empty"));
        assert!(sink.is_clean(), "warn-level findings do not dirty the sink");
        sink.emit(Diagnostic::new(Code::OOB_ACCESS, "oob").entity(Entity::Set(3)));
        assert!(!sink.is_clean());
        assert_eq!(sink.deny_count(), 1);
        assert_eq!(sink.warn_count(), 1);
        assert!(sink.has(Code::OOB_ACCESS));
        assert_eq!(sink.count(Code::EMPTY_NEST), 1);
    }

    #[test]
    fn overrides_apply_at_emit_time() {
        let mut sink = DiagnosticSink::with_overrides(&[(Code::OOB_ACCESS, Severity::Allow)]);
        sink.emit(Diagnostic::new(Code::OOB_ACCESS, "suppressed"));
        assert!(sink.is_clean());
        assert_eq!(sink.diagnostics()[0].severity, Severity::Allow);
    }

    #[test]
    fn report_mentions_counts() {
        let mut sink = DiagnosticSink::new();
        sink.emit(Diagnostic::new(Code::LOAD_IMBALANCE, "lopsided").suggest("rebalance"));
        let r = sink.report();
        assert!(r.contains("LM0207"), "{r}");
        assert!(r.contains("1 error(s)"), "{r}");
    }
}
