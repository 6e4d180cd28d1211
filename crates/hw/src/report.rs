//! Plain-text table rendering for experiment reports.
//!
//! Every `repro_*` binary prints its results through [`Table`] so the output
//! lines up with the paper's tables and is easy to diff between runs.

use std::fmt;

/// A simple column-aligned text table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn add_row<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width {} != header width {}",
            row.len(),
            self.headers.len()
        );
        self.rows.push(row);
    }

    /// The cell at `(row, col)`.
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        widths
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        let write_line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            let mut first = true;
            for (cell, w) in cells.iter().zip(&widths) {
                if !first {
                    write!(f, "  ")?;
                }
                first = false;
                write!(f, "{cell:<w$}")?;
            }
            writeln!(f)
        };
        write_line(f, &self.headers)?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            write_line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["Module", "Area"]);
        t.add_row(vec!["Switching module", "0.065"]);
        t.add_row(vec!["BE router", "0.033"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Module"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // All "Area" column entries start at the same offset.
        let col = lines[0].find("Area").unwrap();
        assert_eq!(lines[2].find("0.065").unwrap(), col);
        assert_eq!(lines[3].find("0.033").unwrap(), col);
    }

    #[test]
    fn cell_access_and_row_count() {
        let mut t = Table::new(vec!["a", "b"]);
        t.add_row(vec!["1", "2"]);
        assert_eq!(t.cell(0, 1), "2");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_width_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.add_row(vec!["only one"]);
    }
}
