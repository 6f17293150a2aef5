//! The diagnostic model: stable codes, severities, and the report.

use std::fmt;

/// How severe a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational note; nothing to fix.
    Info,
    /// Legal but dubious: performance loss, wasted buffer, or a bound met
    /// with no margin.
    Warning,
    /// The configuration violates a soundness condition (a theorem
    /// precondition, a lossless invariant, or a deadlock precondition is
    /// met by a hard-gated scheme).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes. Numbers are append-only: a code never changes
/// meaning once released (tools and docs key off them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// Conceptual GFC violates Theorem 4.1 (`B0 ≤ Bm − 4·C·τ`).
    Gfc001,
    /// Buffer-based GFC violates the §4.2 bound (`B1 ≤ Bm − 2·C·τ`).
    Gfc002,
    /// Time-based GFC violates Theorem 5.1
    /// (`B0 ≤ Bm − (√(τ/T)+1)²·C·T`).
    Gfc003,
    /// PFC XOFF threshold leaves too little headroom above XOFF.
    Gfc004,
    /// PFC XON/XOFF hysteresis is degenerate or too narrow.
    Gfc005,
    /// CBFC credit sizing cannot cover the bandwidth–delay product.
    Gfc006,
    /// The buffer-GFC stage table is malformed (non-monotone thresholds,
    /// rates off the `R_k = C·ratio^k` law, or a ratio beyond Eq. (3)'s
    /// 3/4 admissibility limit).
    Gfc007,
    /// Rate-limiter register ranges are unsound (§5.3/§7 minimum unit).
    Gfc008,
    /// `Bm` is inconsistent with the physical buffer size.
    Gfc009,
    /// Feedback period is out of its sane range (control-message flood or
    /// stale feedback).
    Gfc010,
    /// Cyclic-buffer-dependency susceptibility verdict for the
    /// topology + routing + scheme combination (per-SCC findings from the
    /// conservative all-pairs union).
    Gfc011,
    /// Exact deadlock-freedom verdict by iterative peeling of the
    /// host-realizable dependency graph (the Mendlovic–Matias condition:
    /// deadlock-free iff the residual graph empties).
    Gfc012,
    /// Break-set advisory for genuinely susceptible fabrics: the directed
    /// links whose removal (re-routing) acyclifies each residual
    /// component, ranked by component size.
    Gfc013,
}

impl Code {
    /// Every code, in numeric order (the SARIF rule table).
    pub const ALL: [Code; 13] = [
        Code::Gfc001,
        Code::Gfc002,
        Code::Gfc003,
        Code::Gfc004,
        Code::Gfc005,
        Code::Gfc006,
        Code::Gfc007,
        Code::Gfc008,
        Code::Gfc009,
        Code::Gfc010,
        Code::Gfc011,
        Code::Gfc012,
        Code::Gfc013,
    ];

    /// The stable string form, e.g. `"GFC004"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Gfc001 => "GFC001",
            Code::Gfc002 => "GFC002",
            Code::Gfc003 => "GFC003",
            Code::Gfc004 => "GFC004",
            Code::Gfc005 => "GFC005",
            Code::Gfc006 => "GFC006",
            Code::Gfc007 => "GFC007",
            Code::Gfc008 => "GFC008",
            Code::Gfc009 => "GFC009",
            Code::Gfc010 => "GFC010",
            Code::Gfc011 => "GFC011",
            Code::Gfc012 => "GFC012",
            Code::Gfc013 => "GFC013",
        }
    }

    /// One-line description of what the code checks (the DESIGN.md table).
    pub fn title(self) -> &'static str {
        match self {
            Code::Gfc001 => "conceptual GFC Theorem 4.1 precondition",
            Code::Gfc002 => "buffer-based GFC B1 bound (Bm − 2·C·τ)",
            Code::Gfc003 => "time-based GFC Theorem 5.1 precondition",
            Code::Gfc004 => "PFC XOFF headroom soundness",
            Code::Gfc005 => "PFC XON/XOFF hysteresis",
            Code::Gfc006 => "CBFC credit sizing vs. round-trip",
            Code::Gfc007 => "stage-table geometry (monotonicity, rate law)",
            Code::Gfc008 => "rate-limiter register ranges",
            Code::Gfc009 => "Bm vs. physical buffer consistency",
            Code::Gfc010 => "feedback-period sanity",
            Code::Gfc011 => "cyclic-buffer-dependency susceptibility (per SCC)",
            Code::Gfc012 => "exact deadlock-freedom (dependency peeling)",
            Code::Gfc013 => "break-set advisory for susceptible fabrics",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a stable code, a severity, the offending parameter or
/// link, what is wrong, and a one-line fix hint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (`GFC001`…).
    pub code: Code,
    /// Severity of the finding.
    pub severity: Severity,
    /// The offending parameter or link, e.g. `fc.xoff = 286720 B` or
    /// `routing: S1→S2 → S2→S3 → S3→S1`.
    pub subject: String,
    /// One-line statement of the problem.
    pub message: String,
    /// One-line fix hint.
    pub hint: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        writeln!(f, "  --> {}", self.subject)?;
        write!(f, "  = help: {}", self.hint)
    }
}

/// The condensed outcome the experiments record next to their runtime
/// deadlock verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticVerdict {
    /// The topology + routing admits a cyclic buffer dependency in the
    /// conservative all-pairs union graph (the Table 1 prefilter).
    pub cbd_prone: bool,
    /// Deadlock is actually reachable: the host-realizable dependency
    /// graph does not peel empty *and* the scheme hold-and-waits.
    pub deadlock_susceptible: bool,
    /// The exact GFC012 result: the host-realizable dependency graph
    /// peels empty, so no deadlock is reachable under any scheme.
    pub exact_deadlock_free: bool,
    /// Error-level findings.
    pub errors: usize,
    /// Warning-level findings.
    pub warnings: usize,
}

impl fmt::Display for StaticVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let shape = match (self.cbd_prone, self.deadlock_susceptible, self.exact_deadlock_free) {
            (_, true, _) => "CBD + hard gate: deadlock reachable",
            (true, false, true) => "CBD-prone but exactly deadlock-free (peeling empties)",
            (true, false, false) => "CBD present, scheme immune",
            (false, false, _) => "no CBD: deadlock-free",
        };
        write!(f, "{shape} ({} errors, {} warnings)", self.errors, self.warnings)
    }
}

/// The ordered list of findings from one preflight run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    diags: Vec<Diagnostic>,
    /// Set by the CBD check; folded into [`Report::verdict`].
    pub(crate) cbd_prone: bool,
    pub(crate) deadlock_susceptible: bool,
    pub(crate) exact_deadlock_free: bool,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diags.push(d);
    }

    /// All findings, in check order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// Number of findings at `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity == sev).count()
    }

    /// Whether any Error-level finding is present.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// The condensed verdict for experiment tables.
    pub fn verdict(&self) -> StaticVerdict {
        StaticVerdict {
            cbd_prone: self.cbd_prone,
            deadlock_susceptible: self.deadlock_susceptible,
            exact_deadlock_free: self.exact_deadlock_free,
            errors: self.count(Severity::Error),
            warnings: self.count(Severity::Warning),
        }
    }

    /// One-line summary, e.g. for a table cell.
    pub fn summary(&self) -> String {
        format!("static: {}", self.verdict())
    }

    /// Render the full lint-style report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "preflight: {} errors, {} warnings, {} notes — {}\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
            self.verdict(),
        ));
        out
    }

    /// Stable machine-readable JSON: the verdict plus every finding, in
    /// check order. Field names are part of the tool's output contract.
    pub fn to_json(&self) -> String {
        let v = self.verdict();
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"verdict\": {{\"cbd_prone\": {}, \"deadlock_susceptible\": {}, \
             \"exact_deadlock_free\": {}, \"errors\": {}, \"warnings\": {}}},\n",
            v.cbd_prone, v.deadlock_susceptible, v.exact_deadlock_free, v.errors, v.warnings
        ));
        out.push_str("  \"diagnostics\": [");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"code\": \"{}\", \"severity\": \"{}\", \"subject\": {}, \
                 \"message\": {}, \"hint\": {}}}",
                d.code,
                d.severity,
                json_string(&d.subject),
                json_string(&d.message),
                json_string(&d.hint)
            ));
        }
        if !self.diags.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// SARIF 2.1.0: one run of the `gfc-verify` driver, every [`Code`] as
    /// a rule, every finding as a result whose logical location names the
    /// offending parameter or link.
    pub fn to_sarif(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(
            "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
             \"driver\": {\n          \"name\": \"gfc-verify\",\n          \"rules\": [",
        );
        for (i, code) in Code::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": {}}}}}",
                code,
                json_string(code.title())
            ));
        }
        out.push_str("\n          ]\n        }\n      },\n      \"results\": [");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let level = match d.severity {
                Severity::Info => "note",
                Severity::Warning => "warning",
                Severity::Error => "error",
            };
            out.push_str(&format!(
                "\n        {{\"ruleId\": \"{}\", \"level\": \"{}\", \
                 \"message\": {{\"text\": {}}}, \"locations\": [{{\"logicalLocations\": \
                 [{{\"name\": {}}}]}}]}}",
                d.code,
                level,
                json_string(&format!("{} (help: {})", d.message, d.hint)),
                json_string(&d.subject)
            ));
        }
        if !self.diags.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }\n  ]\n}\n");
        out
    }
}

/// Escape `s` as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shape() {
        let mut r = Report::new();
        r.push(Diagnostic {
            code: Code::Gfc004,
            severity: Severity::Error,
            subject: "fc.xoff = 300000 B".into(),
            message: "headroom above XOFF is 0 B, below C·τ".into(),
            hint: "lower XOFF".into(),
        });
        let text = r.render();
        assert!(text.contains("error[GFC004]"), "{text}");
        assert!(text.contains("--> fc.xoff"), "{text}");
        assert!(text.contains("= help: lower XOFF"), "{text}");
        assert!(r.has_errors());
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 0);
    }

    #[test]
    fn verdict_wording() {
        let mut r = Report::new();
        assert!(r.summary().contains("no CBD"));
        r.cbd_prone = true;
        assert!(r.summary().contains("scheme immune"));
        r.exact_deadlock_free = true;
        assert!(r.summary().contains("exactly deadlock-free"));
        r.deadlock_susceptible = true;
        assert!(r.summary().contains("deadlock reachable"));
    }

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::Gfc001.as_str(), "GFC001");
        assert_eq!(Code::Gfc011.as_str(), "GFC011");
        assert_eq!(Code::Gfc012.as_str(), "GFC012");
        assert_eq!(Code::Gfc013.as_str(), "GFC013");
        assert_eq!(format!("{}", Code::Gfc007), "GFC007");
        assert_eq!(Code::ALL.len(), 13);
    }

    fn sample_report() -> Report {
        let mut r = Report::new();
        r.cbd_prone = true;
        r.exact_deadlock_free = true;
        r.push(Diagnostic {
            code: Code::Gfc011,
            severity: Severity::Info,
            subject: "routing: S1→S2 ⇒ S2→S3".into(),
            message: "SCC of 2 directed links is \"cyclic\"".into(),
            hint: "see GFC012: the realizable graph peels empty".into(),
        });
        r
    }

    #[test]
    fn json_shape_and_escaping() {
        let text = sample_report().to_json();
        assert!(text.contains("\"cbd_prone\": true"), "{text}");
        assert!(text.contains("\"exact_deadlock_free\": true"), "{text}");
        assert!(text.contains("\"code\": \"GFC011\""), "{text}");
        assert!(text.contains("\"severity\": \"info\""), "{text}");
        // The inner quotes of the message must be escaped.
        assert!(text.contains("\\\"cyclic\\\""), "{text}");
        assert!(!text.contains(": \"SCC of 2 directed links is \"cyclic\""), "{text}");
    }

    #[test]
    fn sarif_shape() {
        let text = sample_report().to_sarif();
        assert!(text.contains("\"version\": \"2.1.0\""), "{text}");
        assert!(text.contains("sarif-2.1.0.json"), "{text}");
        assert!(text.contains("\"name\": \"gfc-verify\""), "{text}");
        // Every rule is listed once, findings map severity to SARIF level.
        for code in Code::ALL {
            assert!(text.contains(&format!("\"id\": \"{code}\"")), "{text}");
        }
        assert!(text.contains("\"ruleId\": \"GFC011\""), "{text}");
        assert!(text.contains("\"level\": \"note\""), "{text}");
        assert!(text.contains("\"logicalLocations\""), "{text}");
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let r = Report::new();
        assert!(r.to_json().contains("\"diagnostics\": []"), "{}", r.to_json());
        assert!(r.to_sarif().contains("\"results\": []"), "{}", r.to_sarif());
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
