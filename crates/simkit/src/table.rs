//! Plain-text table rendering for experiment output.
//!
//! The harness prints every reproduced table/figure as an aligned text table
//! and as CSV; both renderers live here so formatting is consistent across
//! experiments.

use std::fmt::Write as _;

/// A simple column-aligned text table.
///
/// ```
/// use simkit::table::Table;
/// let mut t = Table::new(vec!["group".into(), "speedup".into()]);
/// t.row(vec!["G2-1".into(), "1.13".into()]);
/// let s = t.render();
/// assert!(s.contains("G2-1"));
/// assert!(s.lines().count() >= 3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Table {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row. Rows shorter than the header are right-padded with
    /// empty cells; longer rows extend the column count.
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }

    /// Convenience: append a row of `f64` values after a label, formatted
    /// with `prec` decimal places.
    pub fn row_f64(&mut self, label: &str, values: &[f64], prec: usize) {
        let mut cells = vec![label.to_string()];
        cells.extend(values.iter().map(|v| format!("{v:.prec$}")));
        self.row(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows, as appended.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let ncols = self
            .rows
            .iter()
            .map(|r| r.len())
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; ncols];
        let consider = |widths: &mut Vec<usize>, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        };
        consider(&mut widths, &self.headers);
        for r in &self.rows {
            consider(&mut widths, r);
        }

        let mut out = String::new();
        let write_row = |out: &mut String, cells: &[String]| {
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                if i + 1 == widths.len() {
                    let _ = write!(out, "{cell}");
                } else {
                    let _ = write!(out, "{cell:<w$}  ");
                }
            }
            out.push('\n');
        };
        write_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total.max(1)));
        out.push('\n');
        for r in &self.rows {
            write_row(&mut out, r);
        }
        out
    }

    /// Renders the table as CSV (RFC-4180-style quoting for cells containing
    /// commas or quotes).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |c: &str| -> String {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let line = |cells: &[String]| cells.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",");
        out.push_str(&line(&self.headers));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&line(r));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["x".into(), "1".into()]);
        t.row_f64("y", &[2.5], 2);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let s = sample().render();
        let lines: Vec<_> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[3].contains("2.50"));
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new(vec!["h".into()]);
        t.row(vec!["a,b".into()]);
        t.row(vec!["q\"q".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    fn ragged_rows_are_tolerated() {
        let mut t = Table::new(vec!["h1".into()]);
        t.row(vec!["a".into(), "extra".into()]);
        t.row(vec![]);
        let s = t.render();
        assert!(s.contains("extra"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
