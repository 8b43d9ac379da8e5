//! Typed diagnostics emitted by the linter.

use sbrp_core::json::Json;
use sbrp_core::scope::Scope;
use std::fmt;
// Writing to a `String` cannot fail; the `let _ =` at the `write!`
// call sites discard the vacuous `fmt::Result`.
use std::fmt::Write as _;

/// How bad a finding is.
///
/// Only [`Severity::Error`] diagnostics indicate a kernel that can corrupt
/// persistent state on a crash; the other levels are hygiene and
/// performance advice and never fail CI.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Crash-consistency hazard: recovery can observe states the kernel
    /// author did not intend.
    Error,
    /// Suspicious but not provably unsafe (e.g. a release no acquire in
    /// the same kernel ever matches — common for cross-kernel handoff).
    Warning,
    /// Correct but slower than necessary.
    Perf,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Perf => "perf",
        })
    }
}

/// The lint rule that produced a diagnostic.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LintCode {
    /// P001: two dependent persistent stores to distinct objects with no
    /// intra-thread ordering point (`oFence`/`dFence`/`pRel`/`pAcq`/
    /// epoch barrier) between them.
    UnorderedPersists,
    /// P002: a release/acquire pair whose effective scope is `Block`
    /// while the launch geometry lets the two sides run in different
    /// blocks (§5.3 of the paper).
    InsufficientScope,
    /// P003: a `pRel` with no matching `pAcq` in the kernel, or vice
    /// versa.
    UnmatchedSync,
    /// P004: back-to-back fences with no persist in between.
    RedundantFence,
    /// P005: a `dFence` (full durability drain) inside a loop body.
    DFenceInLoop,
    /// P006: a persistent store with no reachable fence before kernel
    /// exit on some path.
    TrailingPersist,
    /// P007: two threads' conflicting persists with no synchronizing
    /// release/acquire chain (or barrier + drain) between them in either
    /// direction.
    CrossThreadRace,
    /// P008: a release/acquire chain *does* connect the racing pair, but
    /// its effective scope is narrower than the pair's least common
    /// scope, so no persist-order edge crosses it (§5.3).
    PairScopeTooNarrow,
    /// P009: the racing pair is execution-ordered (barrier, lockstep, or
    /// volatile handshake) but carries no persist-order edge — the
    /// durable outcome depends on drain order.
    DrainOrderRace,
    /// P010: a cross-thread read of another thread's persist with no
    /// covering release/acquire chain and no durability point on the
    /// producer side — the recovery-read races the persist.
    UnsyncRecoveryRead,
    /// P011: a fence provably dominated by an adjacent stronger (or
    /// equal-strength) fence with nothing to order in between; carries a
    /// machine-applicable fix that drops it.
    DominatedFence,
    /// P012: a release/acquire chain whose scope is wider than any pair
    /// it actually orders; carries a fix narrowing the scope.
    OverwideScope,
}

impl LintCode {
    /// Stable short code, e.g. `P001`.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            LintCode::UnorderedPersists => "P001",
            LintCode::InsufficientScope => "P002",
            LintCode::UnmatchedSync => "P003",
            LintCode::RedundantFence => "P004",
            LintCode::DFenceInLoop => "P005",
            LintCode::TrailingPersist => "P006",
            LintCode::CrossThreadRace => "P007",
            LintCode::PairScopeTooNarrow => "P008",
            LintCode::DrainOrderRace => "P009",
            LintCode::UnsyncRecoveryRead => "P010",
            LintCode::DominatedFence => "P011",
            LintCode::OverwideScope => "P012",
        }
    }

    /// The severity this rule reports at.
    #[must_use]
    pub fn severity(self) -> Severity {
        match self {
            LintCode::UnorderedPersists
            | LintCode::InsufficientScope
            | LintCode::CrossThreadRace
            | LintCode::PairScopeTooNarrow
            | LintCode::DrainOrderRace
            | LintCode::UnsyncRecoveryRead => Severity::Error,
            LintCode::UnmatchedSync => Severity::Warning,
            LintCode::RedundantFence
            | LintCode::DFenceInLoop
            | LintCode::TrailingPersist
            | LintCode::DominatedFence
            | LintCode::OverwideScope => Severity::Perf,
        }
    }
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One machine-applicable kernel edit of a [`Fix`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Delete the instruction at the pre-order location.
    DropInstr {
        /// Pre-order instruction index to delete.
        loc: usize,
    },
    /// Replace the scope qualifier of the `pRel`/`pAcq` at the location.
    SetScope {
        /// Pre-order instruction index of the scoped operation.
        loc: usize,
        /// The scope to install.
        scope: Scope,
    },
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edit::DropInstr { loc } => write!(f, "drop #{loc}"),
            Edit::SetScope { loc, scope } => write!(f, "set scope of #{loc} to {scope}"),
        }
    }
}

/// A machine-applicable rewrite suggestion attached to a diagnostic.
/// Applied with [`crate::apply_fix`]; the mc crate verifies that fixed
/// kernels model-check clean.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fix {
    /// One-line description, e.g. `widen both scopes to device`.
    pub title: String,
    /// The edits, in any order (locations refer to the *original*
    /// kernel).
    pub edits: Vec<Edit>,
}

/// The concrete crash outcome an error diagnostic claims is reachable —
/// the model checker's search target when cross-validating.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Hazard {
    /// A crash can observe the persist named by `durable` (as the
    /// `(block, tid, nth)` mark of [`sbrp-mc`]'s schedule-independent
    /// naming) durable while `lost` is not.
    ///
    /// [`sbrp-mc`]: https://docs.rs
    MarkOrder {
        /// `(block, tid_in_block, nth-persist-of-thread)` that is durable.
        durable: (u32, u32, u32),
        /// The mark that is lost in the same crash cut.
        lost: (u32, u32, u32),
    },
    /// A crash can observe a durable write at `durable` while `lost`
    /// holds no durable write (address-level fallback when per-thread
    /// persist counts are not statically definite).
    AddrOrder {
        /// Address durable in the target crash cut.
        durable: u64,
        /// Address not durable in the same cut.
        lost: u64,
    },
}

impl fmt::Display for Hazard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hazard::MarkOrder { durable, lost } => write!(
                f,
                "blk{}:t{}#{} durable while blk{}:t{}#{} lost",
                durable.0, durable.1, durable.2, lost.0, lost.1, lost.2
            ),
            Hazard::AddrOrder { durable, lost } => {
                write!(f, "{durable:#x} durable while {lost:#x} lost")
            }
        }
    }
}

/// A single finding, anchored to an instruction in the kernel.
///
/// Locations are pre-order instruction indices into the statement tree
/// (the numbering [`Kernel::disassemble`] would produce if it numbered
/// lines), paired with the disassembled instruction text.
///
/// [`Kernel::disassemble`]: sbrp_isa::Kernel::disassemble
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which rule fired.
    pub code: LintCode,
    /// Pre-order instruction index the finding is anchored to.
    pub loc: usize,
    /// Disassembled instruction at `loc`.
    pub instr: String,
    /// Optional second site (e.g. the earlier store of an unordered
    /// pair, or the release matched to an under-scoped acquire).
    pub related: Option<(usize, String)>,
    /// Human-readable explanation.
    pub message: String,
    /// Machine-applicable rewrite, when the rule can compute one.
    pub fix: Option<Fix>,
    /// The crash outcome this error claims reachable, when expressible
    /// (drives MC witness search; `None` for non-error rules).
    pub hazard: Option<Hazard>,
    /// True when the finding rests on a *may*-alias (the analysis could
    /// not prove the accesses overlap, only that they share a base
    /// object). May-findings of error-class rules demote to warnings:
    /// they are worth surfacing but must not fail a build on their own.
    pub may: bool,
}

impl Diagnostic {
    /// A diagnostic with no fix and no hazard (the common case for the
    /// intra-thread rules).
    #[must_use]
    pub fn new(
        code: LintCode,
        loc: usize,
        instr: String,
        related: Option<(usize, String)>,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            code,
            loc,
            instr,
            related,
            message,
            fix: None,
            hazard: None,
            may: false,
        }
    }

    /// The severity of this diagnostic: the code's severity, except
    /// that may-alias findings of error-class rules demote to
    /// [`Severity::Warning`].
    #[must_use]
    pub fn severity(&self) -> Severity {
        match self.code.severity() {
            Severity::Error if self.may => Severity::Warning,
            s => s,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] at #{} `{}`: {}",
            self.severity(),
            self.code,
            self.loc,
            self.instr,
            self.message
        )?;
        if let Some((loc, instr)) = &self.related {
            write!(f, " (related: #{loc} `{instr}`)")?;
        }
        if let Some(h) = &self.hazard {
            write!(f, " [hazard: {h}]")?;
        }
        if let Some(fix) = &self.fix {
            write!(f, " [fix: {}]", fix.title)?;
        }
        Ok(())
    }
}

/// All findings for one kernel, ordered by location then code.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Name of the linted kernel.
    pub kernel: String,
    /// Findings, sorted by `(loc, code)`.
    pub diags: Vec<Diagnostic>,
}

impl LintReport {
    /// Builds a report from raw findings: sorts by `(loc, code)` and
    /// drops exact duplicates (path-sensitive and pair-based passes can
    /// derive the same finding several times).
    #[must_use]
    pub fn from_diags(kernel: String, mut diags: Vec<Diagnostic>) -> LintReport {
        diags.sort_by(|a, b| (a.loc, a.code, &a.message).cmp(&(b.loc, b.code, &b.message)));
        diags.dedup();
        LintReport { kernel, diags }
    }

    /// Number of error-severity findings.
    #[must_use]
    pub fn errors(&self) -> usize {
        self.count(Severity::Error)
    }

    /// Number of warning-severity findings.
    #[must_use]
    pub fn warnings(&self) -> usize {
        self.count(Severity::Warning)
    }

    /// Number of findings at `sev`.
    #[must_use]
    pub fn count(&self, sev: Severity) -> usize {
        self.diags.iter().filter(|d| d.severity() == sev).count()
    }

    /// True when no rule fired at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.diags.is_empty()
    }

    /// True when some diagnostic with `code` is present.
    #[must_use]
    pub fn has(&self, code: LintCode) -> bool {
        self.diags.iter().any(|d| d.code == code)
    }

    /// Renders the report as stable, diffable text (used by the golden
    /// tests and the `lint` binary).
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!("kernel {}: {} finding(s)\n", self.kernel, self.diags.len());
        for d in &self.diags {
            let _ = writeln!(out, "  {d}");
        }
        out
    }

    /// Renders the report as one compact JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().render()
    }

    /// The report as a JSON object, in [`LintReport::to_json`]'s layout.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        let diags = self.diags.iter().map(|d| {
            let mut fields = vec![
                ("code", Json::Str(d.code.to_string())),
                ("severity", Json::Str(d.severity().to_string())),
                ("may", Json::Bool(d.may)),
                ("loc", Json::U64(d.loc as u64)),
                ("instr", Json::Str(d.instr.clone())),
                ("message", Json::Str(d.message.clone())),
            ];
            if let Some((loc, instr)) = &d.related {
                let related = [
                    ("loc", Json::U64(*loc as u64)),
                    ("instr", Json::Str(instr.clone())),
                ];
                fields.push(("related", Json::obj(related)));
            }
            if let Some(h) = &d.hazard {
                fields.push(("hazard", Json::Str(h.to_string())));
            }
            if let Some(fix) = &d.fix {
                let edits = fix.edits.iter().map(|e| Json::Str(e.to_string()));
                fields.push((
                    "fix",
                    Json::obj([
                        ("title", Json::Str(fix.title.clone())),
                        ("edits", Json::Arr(edits.collect())),
                    ]),
                ));
            }
            Json::obj(fields)
        });
        Json::obj([
            ("kernel", Json::Str(self.kernel.clone())),
            ("errors", Json::U64(self.errors() as u64)),
            ("diags", Json::Arr(diags.collect())),
        ])
    }
}

/// SARIF 2.1.0 severity level for a lint severity.
fn sarif_level(sev: Severity) -> &'static str {
    match sev {
        Severity::Error => "error",
        Severity::Warning => "warning",
        Severity::Perf => "note",
    }
}

/// Renders a set of reports as a single SARIF 2.1.0 log, one result per
/// diagnostic. Kernels are addressed as virtual artifacts
/// `kernel/<name>` with the pre-order instruction index as the
/// (1-based) line number, so CI annotators can anchor findings without
/// a source file on disk. Output is deterministic: results appear in
/// report order, then `(loc, code)` order within a report.
#[must_use]
pub fn sarif(reports: &[LintReport]) -> String {
    let mut rules: Vec<LintCode> = reports
        .iter()
        .flat_map(|r| r.diags.iter().map(|d| d.code))
        .collect();
    rules.sort_unstable();
    rules.dedup();
    let rules = rules.iter().map(|code| {
        Json::obj([
            ("id", Json::Str(code.to_string())),
            ("shortDescription", text(format!("{code:?}"))),
        ])
    });
    let physical = |kernel: &str, loc: usize| {
        let artifact = Json::obj([("uri", Json::Str(format!("kernel/{kernel}")))]);
        let region = Json::obj([("startLine", Json::U64(loc as u64 + 1))]);
        (
            "physicalLocation",
            Json::obj([("artifactLocation", artifact), ("region", region)]),
        )
    };
    let results = reports.iter().flat_map(|r| {
        r.diags.iter().map(move |d| {
            let mut message = d.message.clone();
            if let Some(fix) = &d.fix {
                let _ = write!(message, " (fix: {})", fix.title);
            }
            let mut fields = vec![
                ("ruleId", Json::Str(d.code.to_string())),
                ("level", Json::Str(sarif_level(d.severity()).into())),
                ("message", text(message)),
                (
                    "locations",
                    Json::Arr(vec![Json::obj([physical(&r.kernel, d.loc)])]),
                ),
            ];
            if let Some((loc, instr)) = &d.related {
                let related =
                    Json::obj([physical(&r.kernel, *loc), ("message", text(instr.clone()))]);
                fields.push(("relatedLocations", Json::Arr(vec![related])));
            }
            Json::obj(fields)
        })
    });
    let driver = Json::obj([
        ("name", Json::Str("sbrp-lint".into())),
        (
            "informationUri",
            Json::Str("https://github.com/sbrp/sbrp".into()),
        ),
        ("rules", Json::Arr(rules.collect())),
    ]);
    let run = Json::obj([
        ("tool", Json::obj([("driver", driver)])),
        ("results", Json::Arr(results.collect())),
    ]);
    Json::obj([
        ("version", Json::Str("2.1.0".into())),
        (
            "$schema",
            Json::Str("https://json.schemastore.org/sarif-2.1.0.json".into()),
        ),
        ("runs", Json::Arr(vec![run])),
    ])
    .render()
}

/// A SARIF message object: `{"text": ...}`.
fn text(s: String) -> Json {
    Json::obj([("text", Json::Str(s))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LintReport {
        LintReport {
            kernel: "k".into(),
            diags: vec![
                Diagnostic::new(
                    LintCode::UnorderedPersists,
                    7,
                    "st.8[r1+0] = r2".into(),
                    Some((3, "st.8[r0+0] = r2".into())),
                    "no ordering point".into(),
                ),
                Diagnostic::new(
                    LintCode::RedundantFence,
                    9,
                    "oFence".into(),
                    None,
                    "nothing to order".into(),
                ),
            ],
        }
    }

    #[test]
    fn severity_mapping() {
        assert_eq!(LintCode::UnorderedPersists.severity(), Severity::Error);
        assert_eq!(LintCode::InsufficientScope.severity(), Severity::Error);
        assert_eq!(LintCode::UnmatchedSync.severity(), Severity::Warning);
        assert_eq!(LintCode::TrailingPersist.severity(), Severity::Perf);
        assert_eq!(LintCode::CrossThreadRace.severity(), Severity::Error);
        assert_eq!(LintCode::UnsyncRecoveryRead.severity(), Severity::Error);
        assert_eq!(LintCode::DominatedFence.severity(), Severity::Perf);
        assert_eq!(LintCode::OverwideScope.severity(), Severity::Perf);
    }

    #[test]
    fn codes_are_stable() {
        assert_eq!(LintCode::CrossThreadRace.code(), "P007");
        assert_eq!(LintCode::PairScopeTooNarrow.code(), "P008");
        assert_eq!(LintCode::DrainOrderRace.code(), "P009");
        assert_eq!(LintCode::UnsyncRecoveryRead.code(), "P010");
        assert_eq!(LintCode::DominatedFence.code(), "P011");
        assert_eq!(LintCode::OverwideScope.code(), "P012");
    }

    #[test]
    fn report_counts_and_text() {
        let r = sample();
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 0);
        assert_eq!(r.count(Severity::Perf), 1);
        assert!(!r.is_clean());
        assert!(r.has(LintCode::RedundantFence));
        let text = r.to_text();
        assert!(text.contains("error [P001] at #7"));
        assert!(text.contains("related: #3"));
    }

    #[test]
    fn fix_and_hazard_render_in_text_and_json() {
        let mut d = Diagnostic::new(
            LintCode::DominatedFence,
            4,
            "oFence".into(),
            None,
            "dominated".into(),
        );
        d.fix = Some(Fix {
            title: "drop the oFence".into(),
            edits: vec![Edit::DropInstr { loc: 4 }],
        });
        d.hazard = Some(Hazard::AddrOrder {
            durable: 0x100,
            lost: 0x200,
        });
        let r = LintReport {
            kernel: "k".into(),
            diags: vec![d],
        };
        let text = r.to_text();
        assert!(text.contains("[fix: drop the oFence]"), "{text}");
        assert!(
            text.contains("[hazard: 0x100 durable while 0x200 lost]"),
            "{text}"
        );
        let json = r.to_json();
        assert!(
            json.contains("\"fix\":{\"title\":\"drop the oFence\""),
            "{json}"
        );
        assert!(json.contains("\"edits\":[\"drop #4\"]"), "{json}");
    }

    #[test]
    fn from_diags_sorts_and_dedups() {
        let d = |loc| {
            Diagnostic::new(
                LintCode::RedundantFence,
                loc,
                "oFence".into(),
                None,
                "m".into(),
            )
        };
        let r = LintReport::from_diags("k".into(), vec![d(9), d(3), d(9)]);
        assert_eq!(r.diags.len(), 2);
        assert_eq!(r.diags[0].loc, 3);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let j = sample().to_json();
        assert!(j.starts_with("{\"kernel\":\"k\""));
        assert!(j.contains("\"errors\":1"));
        assert!(j.contains("\"code\":\"P004\""));
        assert!(j.ends_with("]}"));
    }

    #[test]
    fn sarif_contains_rules_results_and_regions() {
        let s = sarif(&[sample()]);
        assert!(s.starts_with("{\"version\":\"2.1.0\""));
        assert!(s.contains("\"id\":\"P001\""));
        assert!(s.contains("\"ruleId\":\"P004\""));
        assert!(s.contains("\"uri\":\"kernel/k\""));
        // loc 7 -> startLine 8 (SARIF lines are 1-based).
        assert!(s.contains("\"startLine\":8"));
        assert!(s.contains("relatedLocations"));
        assert!(s.ends_with("]}]}"));
    }

    #[test]
    fn json_escapes_specials() {
        let r = LintReport {
            kernel: "a\"b\\c\nd".into(),
            diags: Vec::new(),
        };
        assert_eq!(
            r.to_json(),
            "{\"kernel\":\"a\\\"b\\\\c\\nd\",\"errors\":0,\"diags\":[]}"
        );
    }
}
