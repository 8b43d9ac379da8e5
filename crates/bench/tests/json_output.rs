//! `--json` prints one JSON document, also from a binary that renders
//! several tables: `microbench` prints one array of its per-system
//! tables.

use sbrp_core::json::Json;
use std::process::Command;

#[test]
fn multi_table_json_is_one_document() {
    let out = Command::new(env!("CARGO_BIN_EXE_microbench"))
        .args(["--small", "--scale", "2", "--no-cache", "--json"])
        .output()
        .expect("spawn microbench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let doc = Json::parse(&stdout).unwrap_or_else(|e| panic!("{e}:\n{stdout}"));
    let titles: Vec<&str> = doc
        .as_arr()
        .expect("an array of tables")
        .iter()
        .map(|t| t.get("title").and_then(Json::as_str).expect("titled"))
        .collect();
    assert_eq!(
        titles,
        [
            "Microbenchmarks on PM-near (cycles; epoch=1.0)",
            "Microbenchmarks on PM-far (cycles; epoch=1.0)"
        ]
    );
}
