//! Preflight: the unified lint driver. Runs **every** static pass over a
//! program — compile/stratification checks, reorder-safety proofs, dead
//! program detection, CALM, tone, metaconsistency, and the partition
//! analysis — and folds their findings into one sorted, deterministic
//! [`Diagnostic`] list.
//!
//! The driving idea (§8.2 of the paper): a compiler that can *typecheck*
//! semantic properties replaces runtime coordination and hand-audited
//! correctness. Preflight is the gate that makes those checks mechanical:
//! ci.sh runs it over every `.hydro` example and fails on any
//! error-severity finding, and the reorder-safety verdicts it surfaces
//! are the per-rule license recorded on the compiled plan
//! ([`hydro_core::interp::ProgramCore::rule_reorder_safe`]) that future
//! join-reordering/SIP/counting-maintenance passes consume.
//!
//! See the crate docs ([`crate`]) for the full lint-code table.

use crate::diag::{json_escape, sort_diagnostics, Diagnostic, Loc, Severity};
use crate::{calm, dead, meta, partition, tone};
use hydro_core::ast::Program;
use hydro_core::eval::{EvalError, ProgramPlan};
use hydro_core::reorder::{Provenance, ReorderIssue, ReorderReport, RuleKind};

/// Everything preflight found, plus the raw reorder-safety report for
/// callers that want the per-rule verdicts rather than rendered lints.
#[derive(Clone, Debug)]
pub struct PreflightReport {
    /// All findings from all passes, in canonical sorted order.
    pub diagnostics: Vec<Diagnostic>,
    /// The static reorder-safety verdicts (also summarized as `HY004`).
    pub reorder: ReorderReport,
}

impl PreflightReport {
    /// Error-severity findings (the CI gate).
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// Whether the program passes: no error-severity diagnostic. This is
    /// the lint-soundness contract: a passing program never raises
    /// `UnboundVar`/`UnknownRelation`/`ArityMismatch` at runtime on
    /// well-formed inputs (pinned by `tests/lint_soundness.rs`).
    pub fn passes(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Render the whole report as the canonical multi-line text form,
    /// one diagnostic per paragraph, followed by a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.render());
            out.push('\n');
        }
        let errors = self.errors().count();
        let warnings = self.warnings().count();
        let infos = self.diagnostics.len() - errors - warnings;
        out.push_str(&format!(
            "preflight: {errors} error(s), {warnings} warning(s), {infos} info(s) — {}\n",
            if self.passes() { "pass" } else { "FAIL" }
        ));
        out
    }

    /// Render as a JSON object `{"pass": bool, "diagnostics": [...]}`
    /// with stable key order (hand-rolled; the analysis crate carries no
    /// serde).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"pass\":{},\"diagnostics\":[", self.passes());
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push_str("]}");
        out
    }
}

/// Run every pass over `program`. Never fails: un-compilable programs
/// surface as error diagnostics, not a `Result`.
pub fn preflight(program: &Program) -> PreflightReport {
    let mut diags: Vec<Diagnostic> = Vec::new();

    // -- Compile / stratification (HY007, HY008). --
    if let Err(e) = ProgramPlan::compile(program) {
        diags.push(match &e {
            EvalError::NotStratifiable(head) => Diagnostic::new(
                "HY007",
                Severity::Error,
                Loc::View(head.clone()),
                "program is not stratifiable: this head depends on itself through \
                 negation or aggregation",
            )
            .because("stratified evaluation requires negation/aggregation cycles to be broken"),
            EvalError::AggPlainHead(head) => Diagnostic::new(
                "HY008",
                Severity::Error,
                Loc::View(head.clone()),
                "head is derived by both a plain rule and an aggregation rule",
            )
            .because("a head must be all-plain or all-aggregate for stratification"),
            other => Diagnostic::new(
                "HY007",
                Severity::Error,
                Loc::Program,
                format!("program failed to compile: {other}"),
            ),
        });
    }

    // -- Reorder safety (HY001/HY002/HY003 + the HY004 summary). --
    let reorder = ReorderReport::analyze(program);
    let loc_of = |p: &Provenance| match p.kind {
        RuleKind::Rule => Loc::Rule {
            head: p.head.clone(),
            index: p.index,
        },
        RuleKind::AggRule => Loc::AggRule {
            head: p.head.clone(),
            index: p.index,
        },
        RuleKind::Handler => Loc::Handler(p.head.clone()),
    };
    for verdict in reorder.iter() {
        for issue in &verdict.issues {
            let code = match issue {
                ReorderIssue::UnknownRelation { .. } => "HY001",
                ReorderIssue::PatternArity { .. } | ReorderIssue::HeadArityConflict { .. } => {
                    "HY002"
                }
                ReorderIssue::UnboundVar { .. } => "HY003",
            };
            diags.push(
                Diagnostic::new(code, Severity::Error, loc_of(&verdict.provenance), issue.to_string())
                    .because(
                        "reorder safety requires every relation to exist at its declared \
                         arity and every variable to be bound; without it, join order \
                         changes which errors are reachable",
                    ),
            );
        }
    }
    let total = reorder.rules.len() + reorder.agg_rules.len();
    let safe = reorder
        .rules
        .iter()
        .chain(reorder.agg_rules.iter())
        .filter(|v| v.reorder_safe())
        .count();
    let handlers_safe = reorder.handlers.iter().filter(|v| v.reorder_safe()).count();
    let mut summary = Diagnostic::new(
        "HY004",
        Severity::Info,
        Loc::Program,
        format!(
            "reorder safety: {safe}/{total} rules and {handlers_safe}/{} handlers proven \
             free of binding/arity errors under any admissible atom order",
            reorder.handlers.len()
        ),
    )
    .because(
        "proven-safe rules are eligible for join reordering, sideways information \
         passing, and counting maintenance (see the module docs of `hydro_core::eval`)",
    );
    for v in reorder.iter().filter(|v| !v.reorder_safe()) {
        summary = summary.because(format!("not safe: {}", v.provenance));
    }
    diags.push(summary);

    // -- Dead program detection + static reference checks. --
    diags.extend(dead::analyze(program));

    // -- CALM, tone, metaconsistency, partition. --
    // The semantic passes assume a structurally well-formed program
    // (every relation resolves, every column exists, every variable is
    // bound); once structural errors are on record, skip them rather
    // than let their lookups trip over the same defects.
    if !diags.iter().any(|d| d.severity == Severity::Error) {
        diags.extend(calm::classify(program).diagnostics());
        diags.extend(tone::diagnostics(program));
        diags.extend(meta::analyze(program).diagnostics());
        diags.extend(partition::partition(program).diagnostics);
    }

    sort_diagnostics(&mut diags);
    PreflightReport {
        diagnostics: diags,
        reorder,
    }
}

/// Render a list of per-file preflight results as one JSON array (the
/// `--json` mode of `examples/preflight.rs`).
pub fn reports_to_json(results: &[(String, PreflightReport)]) -> String {
    let mut out = String::from("[");
    for (i, (file, report)) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"file\":\"{}\",\"pass\":{},\"diagnostics\":[",
            json_escape(file),
            report.passes()
        ));
        for (j, d) in report.diagnostics.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json());
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}
