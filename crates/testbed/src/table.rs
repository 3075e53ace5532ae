//! ASCII table rendering for the experiment harnesses.
//!
//! Every `table*` binary prints its results through this renderer so
//! paper-vs-measured comparisons line up consistently.

use fsmon_telemetry::json::Json;

/// A simple column-aligned table.
#[derive(Debug, Default, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Table {
    /// A table with a title.
    pub fn new(title: impl Into<String>) -> Table {
        Table {
            title: title.into(),
            ..Table::default()
        }
    }

    /// Set the column headers.
    pub fn header<I, S>(mut self, cols: I) -> Table
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.header = cols.into_iter().map(Into::into).collect();
        self
    }

    /// Append a data row.
    pub fn row<I, S>(&mut self, cols: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.rows.push(cols.into_iter().map(Into::into).collect());
    }

    /// Append a footnote printed under the table.
    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let ncols = self
            .header
            .len()
            .max(self.rows.iter().map(|r| r.len()).max().unwrap_or(0));
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| format!("+{}", "-".repeat(w + 2)))
            .collect::<String>()
            + "+";
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, width) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("| {cell:<width$} "));
            }
            line.push('|');
            line
        };
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("\n=== {} ===\n", self.title));
        }
        out.push_str(&sep);
        out.push('\n');
        if !self.header.is_empty() {
            out.push_str(&fmt_row(&self.header));
            out.push('\n');
            out.push_str(&sep);
            out.push('\n');
        }
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out.push_str(&sep);
        out.push('\n');
        for note in &self.notes {
            out.push_str(&format!("  * {note}\n"));
        }
        out
    }

    /// Render to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }

    /// Render as a JSON document:
    /// `{"title": …, "header": […], "rows": [[…]…], "notes": […]}`.
    pub fn to_json(&self) -> String {
        let arr = |items: &[String]| Json::Arr(items.iter().cloned().map(Json::Str).collect());
        Json::Obj(vec![
            ("title".into(), Json::Str(self.title.clone())),
            ("header".into(), arr(&self.header)),
            (
                "rows".into(),
                Json::Arr(self.rows.iter().map(|r| arr(r)).collect()),
            ),
            ("notes".into(), arr(&self.notes)),
        ])
        .render()
    }

    /// Print the table; when `--json` is among the process arguments,
    /// also write the JSON rendering to `BENCH_<name>.json` in the
    /// current directory (the machine-readable lane of every table
    /// binary).
    pub fn emit(&self, name: &str) {
        self.print();
        if std::env::args().any(|a| a == "--json") {
            let path = format!("BENCH_{name}.json");
            match std::fs::write(&path, self.to_json()) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("cannot write {path}: {e}"),
            }
        }
    }
}

/// Format a float with one decimal place.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Format a float with two decimal places.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a rate as an integer events/sec.
pub fn rate(x: f64) -> String {
    format!("{}", x.round() as i64)
}

/// Format bytes as MB with one decimal place.
pub fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo").header(["name", "value"]);
        t.row(["a", "1"]);
        t.row(["long-name", "22222"]);
        let out = t.render();
        assert!(out.contains("=== Demo ==="));
        assert!(out.contains("| name      | value |"));
        assert!(out.contains("| long-name | 22222 |"));
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn notes_appear_below() {
        let mut t = Table::new("T").header(["c"]);
        t.row(["x"]);
        t.note("calibrated at 20x time scale");
        assert!(t.render().contains("* calibrated"));
    }

    #[test]
    fn ragged_rows_do_not_panic() {
        let mut t = Table::new("").header(["a", "b", "c"]);
        t.row(["only-one"]);
        let out = t.render();
        assert!(out.contains("only-one"));
    }

    #[test]
    fn json_rendering_escapes_and_structures() {
        let mut t = Table::new("T \"quoted\"").header(["a", "b"]);
        t.row(["x\n", "1"]);
        t.note("50% \\ done");
        let json = t.to_json();
        assert_eq!(
            json,
            "{\"title\":\"T \\\"quoted\\\"\",\"header\":[\"a\",\"b\"],\
             \"rows\":[[\"x\\n\",\"1\"]],\"notes\":[\"50% \\\\ done\"]}"
        );
    }

    #[test]
    fn format_helpers() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(rate(1234.6), "1235");
        assert_eq!(mb(55_400_000), "55.4");
    }
}
