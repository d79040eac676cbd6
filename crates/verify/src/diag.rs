//! The diagnostic model: severities, pass classes, diagnostics, and the
//! structured [`Report`] every verification run produces.
//!
//! Diagnostics are deliberately rustc-shaped: a severity, a stable code
//! (`RE0xxx`), a one-line message, and a location given as the instruction
//! index path into the program (nested for inception branches). [`Report`]
//! renders them as a compiler-style listing and can be serialized for
//! tooling.

use serde::Serialize;
use std::collections::BTreeSet;
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Severity {
    /// Informational; never blocks compilation or execution.
    Note,
    /// Suspicious but executable (wasted energy, untuned operating point).
    Warning,
    /// The program violates a hard envelope and must not execute.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Note => write!(f, "note"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Which verification pass produced a diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum DiagClass {
    /// Symbolic `(C, H, W)` propagation through the instruction chain.
    ShapeDataflow,
    /// Weight codes, scales, and biases vs. the 8-bit DAC envelope.
    CodeRange,
    /// Per-layer SNR and ADC bit depth vs. the analog admissibility bands.
    NoiseAdmission,
    /// SRAM budgets, duplicate names, dead instructions.
    ResourceBudget,
    /// Program vs. the network spec it claims to implement.
    SpecConformance,
    /// Interval/noise abstract interpretation of the analog signal chain.
    SignalRange,
    /// Static per-frame energy/latency bounds vs. the configured budget.
    CostModel,
}

impl fmt::Display for DiagClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagClass::ShapeDataflow => write!(f, "shape-dataflow"),
            DiagClass::CodeRange => write!(f, "code-range"),
            DiagClass::NoiseAdmission => write!(f, "noise-admission"),
            DiagClass::ResourceBudget => write!(f, "resource-budget"),
            DiagClass::SpecConformance => write!(f, "spec-conformance"),
            DiagClass::SignalRange => write!(f, "signal-range"),
            DiagClass::CostModel => write!(f, "cost-model"),
        }
    }
}

/// One finding of the verifier.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Diagnostic {
    /// Severity of the finding.
    pub severity: Severity,
    /// The pass that produced it.
    pub class: DiagClass,
    /// Stable diagnostic code (`"RE0101"`, …).
    pub code: &'static str,
    /// One-line human-readable message.
    pub message: String,
    /// Name of the offending layer, when the finding is layer-scoped.
    pub layer: Option<String>,
    /// Instruction index path into the program: `[3]` is top-level
    /// instruction 3; `[3, 1, 0]` is instruction 0 of branch 1 of the
    /// inception at index 3. Empty for program-scoped findings.
    pub path: Vec<usize>,
    /// Optional follow-on explanation rendered as a `= note:` line.
    pub note: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic with no layer, path, or note attached.
    pub fn new(
        severity: Severity,
        class: DiagClass,
        code: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity,
            class,
            code,
            message: message.into(),
            layer: None,
            path: Vec::new(),
            note: None,
        }
    }

    /// Attaches the offending layer name.
    #[must_use]
    pub fn at_layer(mut self, layer: impl Into<String>) -> Self {
        self.layer = Some(layer.into());
        self
    }

    /// Attaches the instruction index path.
    #[must_use]
    pub fn at_path(mut self, path: &[usize]) -> Self {
        self.path = path.to_vec();
        self
    }

    /// Attaches a follow-on note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.note = Some(note.into());
        self
    }

    /// Renders the index path as `#3` / `#3.1.0`.
    fn path_display(&self) -> String {
        if self.path.is_empty() {
            return String::from("program");
        }
        let joined: Vec<String> = self.path.iter().map(ToString::to_string).collect();
        format!("#{}", joined.join("."))
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        match &self.layer {
            Some(layer) => writeln!(f, "  --> instruction {} (`{layer}`)", self.path_display())?,
            None => writeln!(f, "  --> {}", self.path_display())?,
        }
        if let Some(note) = &self.note {
            writeln!(f, "  = note: {note}")?;
        }
        Ok(())
    }
}

/// The structured result of verifying one program: every diagnostic from
/// every pass, in program order within each pass.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct Report {
    /// Name of the verified program.
    pub program: String,
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Creates an empty report for the named program.
    pub fn new(program: impl Into<String>) -> Self {
        Report {
            program: program.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, diag: Diagnostic) {
        self.diagnostics.push(diag);
    }

    /// Number of diagnostics at the given severity.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == severity)
            .count()
    }

    /// Whether any error-severity diagnostic was produced.
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// Whether any warning-severity diagnostic was produced.
    pub fn has_warnings(&self) -> bool {
        self.count(Severity::Warning) > 0
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// The set of pass classes that produced at least one diagnostic at or
    /// above the given severity.
    pub fn classes_at(&self, severity: Severity) -> BTreeSet<DiagClass> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity >= severity)
            .map(|d| d.class)
            .collect()
    }

    /// Sorts diagnostics into the canonical presentation order and drops
    /// exact duplicates.
    ///
    /// The order is `(code, path, severity, layer, message, note)`: code
    /// first so related findings group together, then the instruction index
    /// path (the program-order "span"). Because the order is a pure function
    /// of diagnostic content, rendering is stable no matter which pass ran
    /// first or how passes interleave — the property the golden-snapshot
    /// suite and `redeye-lint` JSON artifacts rely on. Entry points call
    /// this before returning; it is idempotent and safe to call again.
    pub fn normalize(&mut self) {
        self.diagnostics.sort_by(|a, b| {
            (a.code, &a.path, a.severity, &a.layer, &a.message, &a.note)
                .cmp(&(b.code, &b.path, b.severity, &b.layer, &b.message, &b.note))
        });
        self.diagnostics.dedup();
    }

    /// Renders the full rustc-style listing, ending with a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
        }
        let (e, w, n) = (
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Note),
        );
        if self.diagnostics.is_empty() {
            out.push_str(&format!("`{}`: verified clean\n", self.program));
        } else {
            out.push_str(&format!(
                "`{}`: {e} error(s), {w} warning(s), {n} note(s)\n",
                self.program
            ));
        }
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(severity: Severity) -> Diagnostic {
        Diagnostic::new(severity, DiagClass::ShapeDataflow, "RE0101", "boom")
            .at_layer("conv1")
            .at_path(&[2, 0])
            .with_note("kernel larger than padded input")
    }

    #[test]
    fn severity_orders_note_warning_error() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
    }

    #[test]
    fn rendering_is_rustc_shaped() {
        let text = diag(Severity::Error).to_string();
        assert!(text.starts_with("error[RE0101]: boom"), "{text}");
        assert!(text.contains("--> instruction #2.0 (`conv1`)"), "{text}");
        assert!(text.contains("= note: kernel larger"), "{text}");
    }

    #[test]
    fn report_counts_and_classes() {
        let mut r = Report::new("p");
        assert!(!r.has_errors() && !r.has_warnings());
        r.push(diag(Severity::Warning));
        r.push(diag(Severity::Error));
        r.push(Diagnostic::new(
            Severity::Note,
            DiagClass::ResourceBudget,
            "RE0405",
            "empty",
        ));
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert!(r.has_errors() && r.has_warnings());
        assert_eq!(r.errors().count(), 1);
        let classes = r.classes_at(Severity::Warning);
        assert!(classes.contains(&DiagClass::ShapeDataflow));
        assert!(!classes.contains(&DiagClass::ResourceBudget));
        assert!(r.render().contains("1 error(s), 1 warning(s), 1 note(s)"));
    }

    #[test]
    fn normalize_sorts_by_code_then_path_and_dedups() {
        let mut r = Report::new("p");
        let late = Diagnostic::new(Severity::Warning, DiagClass::NoiseAdmission, "RE0302", "w")
            .at_path(&[2]);
        let early =
            Diagnostic::new(Severity::Error, DiagClass::ShapeDataflow, "RE0101", "e").at_path(&[5]);
        let mid = Diagnostic::new(Severity::Error, DiagClass::ShapeDataflow, "RE0101", "e")
            .at_path(&[1, 0]);
        r.push(late.clone());
        r.push(early.clone());
        r.push(mid.clone());
        r.push(early.clone()); // duplicate
        r.normalize();
        assert_eq!(r.diagnostics, vec![mid, early, late]);
    }

    #[test]
    fn clean_report_renders_summary() {
        let r = Report::new("tidy");
        assert!(r.render().contains("`tidy`: verified clean"));
    }
}
