//! Text-table rendering for experiment output.
//!
//! The harness prints aligned plain-text tables — one per paper artifact —
//! so harness output can be recorded verbatim and diffs stay readable.

use std::fmt::Write as _;

/// A simple column-aligned text table.
#[derive(Debug, Clone, Default)]
pub(crate) struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub(crate) fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub(crate) fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "TextTable: row arity mismatch"
        );
        self.rows.push(cells);
    }

    /// Renders with right-aligned columns.
    pub(crate) fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for i in 0..cols {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>w$}", cells[i], w = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let rule: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(rule));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Formats a `Duration` in the unit that keeps 3-4 significant digits.
pub(crate) fn fmt_duration(d: std::time::Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Formats a byte count as KB with one decimal (the paper's Fig. 14b unit).
pub(crate) fn fmt_kb(bytes: usize) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(["a", "metric"]);
        t.row(["1", "x"]);
        t.row(["2222", "yy"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines share the same width.
        assert!(lines.iter().all(|l| l.len() == lines[0].len()));
        assert!(lines[0].contains("metric"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn duration_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(120)), "120 ns");
        assert_eq!(fmt_duration(Duration::from_micros(35)), "35.0 µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.0 ms");
        assert_eq!(fmt_duration(Duration::from_secs(75)), "75.00 s");
    }

    #[test]
    fn kb_formatting() {
        assert_eq!(fmt_kb(1024), "1.0");
        assert_eq!(fmt_kb(1536), "1.5");
    }
}
