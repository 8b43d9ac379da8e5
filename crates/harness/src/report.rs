//! Table rendering for the figure binaries: fixed-width text for the
//! terminal plus CSV and JSON, mirroring the artifact's `*_output.txt`
//! files. Also the shared column scheme for stall-breakdown tables
//! (the `breakdown` binary's Fig. 6-style stacked-bar data).

use sbrp_core::json::Json;
use sbrp_core::stall::StallCause;
use sbrp_gpu_sim::stats::SimStats;
use std::fmt::Write as _;

/// Column headers for a stall-breakdown table: total stall cycles, then
/// one column per [`StallCause`] in reporting order. Prepend your
/// identifying columns (app/model/system/cycles).
#[must_use]
pub fn stall_headers() -> Vec<&'static str> {
    let mut h = vec!["stall_total"];
    h.extend(StallCause::ALL.iter().map(|c| c.label()));
    h
}

/// Renders a sweep's failing cells as a table (cell name, failure) —
/// the shared format strict sweeps print before exiting nonzero, so
/// every failing cell is named, not just the first.
#[must_use]
pub fn failures_table(failures: &[(String, String)]) -> Table {
    let mut table = Table::new("failed cells", &["cell", "failure"]);
    for (cell, err) in failures {
        table.row(vec![cell.clone(), err.clone()]);
    }
    table
}

/// The cells matching [`stall_headers`] for one run's stats.
#[must_use]
pub fn stall_cells(stats: &SimStats) -> Vec<String> {
    let mut cells = vec![stats.stall.total.to_string()];
    cells.extend(stats.stall.iter().map(|(_, v)| v.to_string()));
    cells
}

/// A simple column-oriented table of figure results.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(ToString::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Convenience: a row of a label plus f64 values rendered to 3
    /// decimal places.
    pub fn row_f64(&mut self, label: &str, values: &[f64]) {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.3}")));
        self.row(cells);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as an aligned text table.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let render = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", render(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render(row, &widths));
        }
        out
    }

    /// Renders as CSV (title as a comment line).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }

    /// Renders as JSON: `{"title", "headers", "rows"}` with every cell
    /// a string (deterministic; no float re-formatting), laid out by
    /// [`Json::pretty`].
    #[must_use]
    pub fn to_json(&self) -> String {
        self.to_json_value().pretty()
    }

    /// The table as a JSON object, in [`Table::to_json`]'s layout.
    #[must_use]
    pub fn to_json_value(&self) -> Json {
        let strings = |cells: &[String]| Json::Arr(cells.iter().cloned().map(Json::Str).collect());
        Json::Obj(vec![
            ("title".into(), Json::Str(self.title.clone())),
            ("headers".into(), strings(&self.headers)),
            (
                "rows".into(),
                Json::Arr(self.rows.iter().map(|r| strings(r)).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_text_and_csv() {
        let mut t = Table::new("Fig X", &["app", "a", "b"]);
        t.row_f64("Red", &[1.0, 2.5]);
        t.row(vec!["MQ".into(), "0.5".into(), "9".into()]);
        let text = t.to_text();
        assert!(text.contains("# Fig X"));
        assert!(text.contains("Red"));
        assert!(text.contains("2.500"));
        let csv = t.to_csv();
        assert!(csv.contains("app,a,b"));
        assert!(csv.contains("MQ,0.5,9"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn render_json() {
        let mut t = Table::new("Fig \"J\"", &["app", "x"]);
        t.row(vec!["Red".into(), "1".into()]);
        t.row(vec!["MQ".into(), "2".into()]);
        assert_eq!(
            t.to_json(),
            "{\n  \"title\": \"Fig \\\"J\\\"\",\n  \"headers\": [\"app\", \"x\"],\n  \"rows\": [\n    \
             [\"Red\", \"1\"],\n    [\"MQ\", \"2\"]\n  ]\n}\n"
        );
        let empty = Table::new("e", &["a"]);
        assert_eq!(
            empty.to_json(),
            "{\n  \"title\": \"e\",\n  \"headers\": [\"a\"],\n  \"rows\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn stall_columns_line_up() {
        let headers = stall_headers();
        let stats = SimStats::default();
        let cells = stall_cells(&stats);
        assert_eq!(headers.len(), cells.len());
        assert_eq!(headers[0], "stall_total");
        assert_eq!(headers.len(), 1 + StallCause::ALL.len());
        assert!(cells.iter().all(|c| c == "0"));
    }
}
