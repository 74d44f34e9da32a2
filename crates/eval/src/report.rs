//! Report data structures and writers (CSV + Markdown) used by the benchmark binaries.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::Path;

use p2h_core::{Error, Result};

/// One point of a query-time/recall curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Mean recall in percent (x-axis of the paper's figures).
    pub recall_pct: f64,
    /// Average query time in milliseconds (y-axis, log scale in the paper).
    pub time_ms: f64,
    /// The candidate budget that produced this point (0 = exact).
    pub budget: usize,
}

/// A labelled query-time/recall curve (one line of a figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    /// Method label (e.g. `"BC-Tree"`).
    pub label: String,
    /// Curve points, ordered by increasing budget.
    pub points: Vec<CurvePoint>,
}

impl Curve {
    /// Creates an empty curve with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), points: Vec::new() }
    }

    /// Appends a point.
    pub fn push(&mut self, recall_pct: f64, time_ms: f64, budget: usize) {
        self.points.push(CurvePoint { recall_pct, time_ms, budget });
    }

    /// The query time (ms) of the first point reaching `recall_pct`, if any.
    pub fn time_at_recall(&self, recall_pct: f64) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.recall_pct >= recall_pct)
            .map(|p| p.time_ms)
            .fold(None, |best, t| Some(best.map_or(t, |b: f64| b.min(t))))
    }
}

/// One row of Table III: indexing time and index size for one method.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexingReport {
    /// Method label.
    pub label: String,
    /// Wall-clock build time in seconds.
    pub build_time_s: f64,
    /// Index structure size in bytes (excluding the raw data points).
    pub index_size_bytes: usize,
}

impl IndexingReport {
    /// Index size in mebibytes, the unit of Table III.
    pub fn index_size_mb(&self) -> f64 {
        self.index_size_bytes as f64 / (1024.0 * 1024.0)
    }
}

/// Writes rows of strings as a CSV file, creating parent directories as needed.
///
/// # Errors
///
/// Returns an error if the file or its parent directory cannot be created or written.
pub fn write_csv(path: &Path, headers: &[&str], rows: &[Vec<String>]) -> Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| Error::Io(e.to_string()))?;
    }
    let mut writer = BufWriter::new(File::create(path)?);
    writeln!(writer, "{}", headers.join(","))?;
    for row in rows {
        writeln!(writer, "{}", row.join(","))?;
    }
    writer.flush()?;
    Ok(())
}

/// Renders a Markdown table from headers and rows (used for the stdout reports of the
/// benchmark binaries and for EXPERIMENTS.md).
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_accumulates_points_and_finds_recall_targets() {
        let mut curve = Curve::new("BC-Tree");
        curve.push(40.0, 0.5, 100);
        curve.push(85.0, 2.0, 1_000);
        curve.push(99.0, 5.0, 10_000);
        assert_eq!(curve.points.len(), 3);
        assert_eq!(curve.time_at_recall(80.0), Some(2.0));
        assert_eq!(curve.time_at_recall(99.5), None);
        assert_eq!(curve.time_at_recall(10.0), Some(0.5));
    }

    #[test]
    fn indexing_report_converts_units() {
        let report = IndexingReport {
            label: "Ball-Tree".into(),
            build_time_s: 1.5,
            index_size_bytes: 3 * 1024 * 1024,
        };
        assert!((report.index_size_mb() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn csv_round_trip_on_disk() {
        let mut path = std::env::temp_dir();
        path.push(format!("p2h-eval-report-{}.csv", std::process::id()));
        write_csv(
            &path,
            &["method", "recall", "time_ms"],
            &[
                vec!["BC-Tree".into(), "85.0".into(), "2.0".into()],
                vec!["NH".into(), "85.0".into(), "9.1".into()],
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("method,recall,time_ms\n"));
        assert!(text.contains("BC-Tree,85.0,2.0"));
        assert_eq!(text.lines().count(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn markdown_table_is_well_formed() {
        let table = markdown_table(
            &["Data Set", "Time"],
            &[vec!["Sift".into(), "1.2".into()], vec!["Gist".into(), "3.4".into()]],
        );
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| Data Set | Time |");
        assert_eq!(lines[1], "|---|---|");
        assert!(lines[2].contains("Sift"));
    }
}
