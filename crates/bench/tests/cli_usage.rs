//! The bench binaries' command-line contract: a malformed command line
//! is a usage error (exit 2, `error: …` and the usage line on stderr),
//! never a panic, and `--help` prints the usage line and exits 0. Every
//! case fails while parsing, so no simulation runs.

use std::path::PathBuf;
use std::process::{Command, Output};

const BINS: [(&str, &str); 5] = [
    ("figure6", env!("CARGO_BIN_EXE_figure6")),
    ("serve", env!("CARGO_BIN_EXE_serve")),
    ("campaign", env!("CARGO_BIN_EXE_campaign")),
    ("mc", env!("CARGO_BIN_EXE_mc")),
    ("lint", env!("CARGO_BIN_EXE_lint")),
];

fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe).args(args).output().expect("spawn binary")
}

fn assert_usage_error(name: &str, out: &Output, error: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
    assert!(
        stderr.starts_with(&format!("error: {error}")),
        "{name}: {stderr}"
    );
    assert!(
        stderr.contains(&format!("usage: {name} ")),
        "{name}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    assert!(out.stdout.is_empty(), "{name} wrote to stdout");
}

#[test]
fn unknown_flags_exit_2_with_the_usage_line() {
    for (name, exe) in BINS {
        assert_usage_error(name, &run(exe, &["--bogus"]), "unknown flag --bogus");
    }
}

#[test]
fn removed_resume_flags_exit_2() {
    // Rerunning a command resumes it from the result cache; the journal
    // flags that used to do so are gone.
    for (name, exe) in BINS {
        for args in [
            &["--resume"][..],
            &["--journal-dir", "x"],
            &["--retry-seed", "7"],
        ] {
            let error = format!("unknown flag {}", args[0]);
            assert_usage_error(name, &run(exe, args), &error);
        }
    }
}

#[test]
fn help_exits_0_with_the_usage_line_on_stdout() {
    for (name, exe) in BINS {
        let out = run(exe, &["--help"]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{name}");
        assert!(
            stdout.starts_with(&format!("usage: {name} ")),
            "{name}: {stdout}"
        );
    }
}

#[test]
fn conflicting_output_flags_exit_2() {
    // `table1` shares the figure binaries' flags but simulates nothing
    // when it does accept them.
    let table1 = env!("CARGO_BIN_EXE_table1");
    let out = run(table1, &["--csv", "--json"]);
    assert_usage_error("table1", &out, "--csv and --json");
    let (name, exe) = BINS[4];
    assert_usage_error(
        name,
        &run(exe, &["--json", "--sarif"]),
        "--json and --sarif",
    );
}

#[test]
fn an_invalid_serve_value_writes_nothing() {
    let dir: PathBuf = std::env::temp_dir().join(format!("sbrp-cli-usage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (name, exe) = BINS[1];
    let out = run(
        exe,
        &["--rate", "0", "--out-dir", dir.to_str().expect("utf-8")],
    );
    assert_usage_error(name, &out, "invalid value \"0\" for --rate");
    assert!(!dir.exists(), "serve created {}", dir.display());
}
