//! Diagnostics: stable codes, severities, provenance and JSON emission.
//!
//! Codes are append-only: `E0xx` are errors (the program is ill-formed or a
//! merge invariant is broken), `W1xx` are warnings (suspicious but linkable),
//! `L2xx` are lints (advisory; e.g. missed-optimization opportunities). The
//! verifier's own `E001`–`E007` codes live in [`ssa_ir::verifier::codes`] and
//! are re-exported through [`CODE_TABLE`] so `salssa lint` documents one
//! unified table.

use std::fmt;
use telemetry::json_escape;

/// Severity of a diagnostic, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The program is ill-formed, will not link, or a merge invariant is
    /// broken. `salssa lint` exits non-zero when any error is reported.
    Error,
    /// Suspicious but not ill-formed; deniable with `--deny warnings`.
    Warning,
    /// Advisory finding (dead code, missed dedup); never affects the exit
    /// code unless denied by code.
    Lint,
}

impl Severity {
    /// Lowercase name used in human and JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Lint => "lint",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Analysis-crate diagnostic codes (the verifier's `E001`–`E007` are defined
/// in [`ssa_ir::verifier::codes`]).
pub mod codes {
    /// Input file could not be parsed at all.
    pub const PARSE: &str = "E000";
    /// A call to a symbol in the reserved `merged.` namespace that the
    /// module neither defines nor declares. Merged functions are
    /// compiler-generated, so an unresolvable reference to one is always a
    /// merge-pipeline bug, never a legitimate external.
    pub const DANGLING_MERGED_CALLEE: &str = "E010";
    /// A call site disagrees with the in-module definition or declaration
    /// of its callee (argument count, argument types, or return type).
    pub const CALL_SIGNATURE: &str = "E011";
    /// A forwarding thunk (single block tail-calling a `merged.` function)
    /// violates the thunk shape: wrong argument count, non-constant
    /// discriminator, or a return type disagreeing with the merged callee.
    pub const THUNK_SHAPE: &str = "E020";
    /// A merged function's discriminator parameter is missing, not `i1`, or
    /// escapes into something other than a branch/select condition (so the
    /// dispatch would not constant-fold at a thunk's constant call site).
    pub const DISCRIMINATOR: &str = "E021";
    /// A `declare` disagrees with the definition it resolves to under
    /// linker resolution (own module first, then the first externally
    /// visible definition in corpus order).
    pub const DECL_SIGNATURE: &str = "E030";
    /// Two externally visible definitions of the same symbol have different
    /// bodies or signatures — an ODR violation the linker would reject (or
    /// silently resolve arbitrarily).
    pub const ODR_CLASH: &str = "E031";
    /// A cross-module reference resolves only to internal-linkage
    /// definitions, which never participate in cross-module resolution.
    pub const INTERNAL_LEAK: &str = "E032";
    /// A basic block is unreachable from the entry block.
    pub const UNREACHABLE_BLOCK: &str = "W101";
    /// A function parameter is never used (forwarding thunks and the
    /// discriminator parameter of merged functions are exempt).
    pub const DEAD_PARAM: &str = "L201";
    /// The same externally visible function is defined identically in
    /// several modules — a dedup opportunity for `salssa xmerge`.
    pub const DUPLICATE_DEFINITION: &str = "L202";
}

/// The documented code table: `(code, severity, summary)` for every
/// diagnostic the engine can produce, in code order.
pub const CODE_TABLE: &[(&str, Severity, &str)] = &[
    (codes::PARSE, Severity::Error, "input file failed to parse"),
    (
        ssa_ir::verifier::codes::NO_ENTRY,
        Severity::Error,
        "function has no entry block",
    ),
    (
        ssa_ir::verifier::codes::CFG,
        Severity::Error,
        "malformed control-flow structure",
    ),
    (
        ssa_ir::verifier::codes::TYPES,
        Severity::Error,
        "instruction type-rule violation",
    ),
    (
        ssa_ir::verifier::codes::DANGLING_VALUE,
        Severity::Error,
        "operand references a dangling value",
    ),
    (
        ssa_ir::verifier::codes::PHI,
        Severity::Error,
        "phi incoming edges disagree with predecessors",
    ),
    (
        ssa_ir::verifier::codes::LANDING_PAD,
        Severity::Error,
        "landing-pad placement violation",
    ),
    (
        ssa_ir::verifier::codes::DOMINANCE,
        Severity::Error,
        "SSA dominance violation",
    ),
    (
        codes::DANGLING_MERGED_CALLEE,
        Severity::Error,
        "call to an undefined, undeclared merged.* function",
    ),
    (
        codes::CALL_SIGNATURE,
        Severity::Error,
        "call site disagrees with its in-module callee signature",
    ),
    (
        codes::THUNK_SHAPE,
        Severity::Error,
        "forwarding thunk violates the thunk shape invariant",
    ),
    (
        codes::DISCRIMINATOR,
        Severity::Error,
        "merged-function discriminator is malformed or escapes",
    ),
    (
        codes::DECL_SIGNATURE,
        Severity::Error,
        "declaration disagrees with its linker-resolved definition",
    ),
    (
        codes::ODR_CLASH,
        Severity::Error,
        "conflicting externally visible definitions (ODR violation)",
    ),
    (
        codes::INTERNAL_LEAK,
        Severity::Error,
        "cross-module reference resolves only to internal definitions",
    ),
    (
        codes::UNREACHABLE_BLOCK,
        Severity::Warning,
        "basic block unreachable from entry",
    ),
    (codes::DEAD_PARAM, Severity::Lint, "parameter is never used"),
    (
        codes::DUPLICATE_DEFINITION,
        Severity::Lint,
        "identical external definition duplicated across modules",
    ),
];

/// The severity of a known code; `None` for unknown codes.
pub fn severity_of(code: &str) -> Option<Severity> {
    CODE_TABLE
        .iter()
        .find(|(c, _, _)| *c == code)
        .map(|(_, s, _)| *s)
}

/// One analysis finding with stable code, severity and full provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code (`E0xx`/`W1xx`/`L2xx`).
    pub code: &'static str,
    /// Severity derived from the code's tier.
    pub severity: Severity,
    /// Module provenance; empty only for cached entries before re-homing.
    pub module: String,
    /// Function provenance; empty for module- and program-scope findings.
    pub function: String,
    /// Human-readable description of the finding.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic, deriving the severity from the code table.
    pub fn new(
        code: &'static str,
        module: impl Into<String>,
        function: impl Into<String>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity: severity_of(code).unwrap_or(Severity::Error),
            module: module.into(),
            function: function.into(),
            message: message.into(),
        }
    }

    /// Stable identity used for new-vs-baseline delta tracking in paranoid
    /// mode: two runs report "the same" diagnostic iff the fingerprints
    /// match.
    pub fn fingerprint(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.code, self.module, self.function, self.message
        )
    }

    /// Serializes the diagnostic as one JSON object.
    pub fn json(&self) -> String {
        format!(
            r#"{{"code":"{}","severity":"{}","module":"{}","function":"{}","message":"{}"}}"#,
            self.code,
            self.severity,
            json_escape(&self.module),
            json_escape(&self.function),
            json_escape(&self.message)
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: ", self.severity, self.code)?;
        if !self.module.is_empty() {
            write!(f, "{}: ", self.module)?;
        }
        if !self.function.is_empty() {
            write!(f, "@{}: ", self.function)?;
        }
        f.write_str(&self.message)
    }
}

/// The set of diagnostics a lint run refuses to tolerate: errors always, an
/// optional escalation of all `W1xx` warnings, and any explicitly denied
/// codes (`--deny <code>` accepts warnings and lints alike).
#[derive(Debug, Clone, Default)]
pub struct DenySet {
    /// Escalate every warning to a failure (`--deny warnings`). Lints
    /// (`L2xx`) are *not* covered — deny those by code.
    pub warnings: bool,
    /// Individually denied codes.
    pub codes: std::collections::BTreeSet<String>,
}

impl DenySet {
    /// Returns `true` when `d` should fail the run: every error does, plus
    /// whatever the set escalates.
    pub fn rejects(&self, d: &Diagnostic) -> bool {
        match d.severity {
            Severity::Error => true,
            Severity::Warning => self.warnings || self.codes.contains(d.code),
            Severity::Lint => self.codes.contains(d.code),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_table_is_unique_and_tier_consistent() {
        let mut seen = std::collections::HashSet::new();
        for (code, severity, _) in CODE_TABLE {
            assert!(seen.insert(*code), "duplicate code {code}");
            let expected = match code.as_bytes()[0] {
                b'E' => Severity::Error,
                b'W' => Severity::Warning,
                b'L' => Severity::Lint,
                _ => panic!("code {code} outside the E/W/L tiers"),
            };
            assert_eq!(*severity, expected, "{code} severity disagrees with tier");
        }
    }

    #[test]
    fn display_and_fingerprint_carry_provenance() {
        let d = Diagnostic::new(codes::THUNK_SHAPE, "m1", "f", "bad thunk");
        assert_eq!(d.to_string(), "error[E020]: m1: @f: bad thunk");
        assert_eq!(d.fingerprint(), "E020|m1|f|bad thunk");
        let p = Diagnostic::new(codes::ODR_CLASH, "m1", "", "clash");
        assert_eq!(p.to_string(), "error[E031]: m1: clash");
    }

    #[test]
    fn json_is_escaped() {
        let d = Diagnostic::new(codes::PARSE, "m\"1", "", "bad\nline");
        assert!(d.json().contains(r#""module":"m\"1""#));
        assert!(d.json().contains(r#""message":"bad\nline""#));
    }
}
