//! Golden-diagnostic tests: one `.expected` file per mutant kernel,
//! pinning the exact linter output (codes, locations, messages).
//!
//! Regenerate after an intentional diagnostic change with:
//! `SBRP_UPDATE_GOLDEN=1 cargo test -p sbrp-lint --test golden`

use sbrp_lint::mutants::suite;
use sbrp_lint::{lint_all, lint_kernel, LintConfig};
use std::path::PathBuf;

const PM_BASE: u64 = 1 << 40;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.expected"))
}

#[test]
fn mutant_diagnostics_match_golden_files() {
    let update = std::env::var("SBRP_UPDATE_GOLDEN").is_ok();
    let mut mismatches = Vec::new();
    for m in suite(PM_BASE) {
        let mut cfg = LintConfig::with_launch(m.launch);
        cfg.pm_base = PM_BASE;
        let report = lint_all(&m.kernel, &cfg);
        let text = format!("# {}: {}\n{}", m.name, m.what, report.to_text());
        let path = golden_path(m.name);
        if update {
            std::fs::write(&path, &text).expect("write golden");
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
        if want != text {
            mismatches.push(format!(
                "--- {} ---\nexpected:\n{want}\nactual:\n{text}",
                m.name
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden mismatches (SBRP_UPDATE_GOLDEN=1 to regenerate):\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn sarif_output_matches_golden_snapshot() {
    let update = std::env::var("SBRP_UPDATE_GOLDEN").is_ok();
    let reports: Vec<_> = suite(PM_BASE)
        .iter()
        .map(|m| {
            let mut cfg = LintConfig::with_launch(m.launch);
            cfg.pm_base = PM_BASE;
            lint_all(&m.kernel, &cfg)
        })
        .collect();
    let log = sbrp_lint::sarif(&reports);
    let path = golden_path("mutants.sarif");
    if update {
        std::fs::write(&path, &log).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(
        want, log,
        "SARIF snapshot drifted (SBRP_UPDATE_GOLDEN=1 to regenerate)"
    );
}

#[test]
fn json_output_is_stable_for_a_mutant() {
    let m = suite(PM_BASE)
        .into_iter()
        .find(|m| m.name == "wal_fence_deleted")
        .expect("mutant");
    let mut cfg = LintConfig::with_launch(m.launch);
    cfg.pm_base = PM_BASE;
    assert_eq!(
        lint_kernel(&m.kernel, &cfg).to_json(),
        "{\"kernel\":\"wal_fence_deleted\",\"errors\":1,\
         \"diags\":[{\"code\":\"P001\",\"severity\":\"error\",\"may\":false,\
         \"loc\":10,\"instr\":\"st.8[r8+0] = r6\",\
         \"message\":\"dependent persistent stores to distinct objects with no ordering point between them; a crash may persist the second without the first (missing oFence?)\",\
         \"related\":{\"loc\":8,\"instr\":\"st.8[r7+0] = r6\"}}]}"
    );
}
