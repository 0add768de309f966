//! Column-aligned plain-text tables: how every command prints its results.

use std::fmt;

/// A header and rows of cells, printed (`{table}`) left-aligned under a
/// separator line, each column as wide as its widest cell. The header is
/// one string, `|` between its cells.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    pub fn new(header: &str) -> Self {
        Table {
            header: header.split('|').map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row; missing cells print empty, extra cells are kept.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        self.rows.push(cells.into_iter().map(Into::into).collect());
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lines = || std::iter::once(&self.header).chain(&self.rows);
        let cols = lines().map(Vec::len).max().unwrap_or(0);
        let mut widths = vec![0usize; cols];
        for line in lines() {
            for (w, cell) in widths.iter_mut().zip(line) {
                *w = (*w).max(cell.chars().count());
            }
        }
        let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * cols.saturating_sub(1));
        for (i, line) in lines().enumerate() {
            let mut out = String::new();
            for (c, &w) in widths.iter().enumerate() {
                let cell = line.get(c).map_or("", String::as_str);
                out.push_str(&format!("{}{cell:<w$}", if c > 0 { "  " } else { "" }));
            }
            writeln!(f, "{}", out.trim_end_matches(' '))?;
            if i == 0 {
                writeln!(f, "{rule}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::Table;

    #[test]
    fn columns_align_and_ragged_rows_render() {
        let mut t = Table::new("a|bbbb");
        t.row(["xxxxx", "1"]);
        t.row(["y", "2", "extra"]);
        t.row::<&str>([]);
        let lines: Vec<String> = t.to_string().lines().map(str::to_string).collect();
        assert_eq!(
            lines,
            [
                "a      bbbb",
                "-".repeat(18).as_str(),
                "xxxxx  1",
                "y      2     extra",
                ""
            ]
        );
    }
}
