//! Small table/series printing and fitting utilities shared by all
//! experiments.

use sepdc_core::report::json_str;

/// One printed row: label plus formatted cells.
#[derive(Clone, Debug)]
pub struct Row {
    /// Row label (first column).
    pub label: String,
    /// Remaining cells, already formatted.
    pub cells: Vec<String>,
}

/// A fixed-column table that prints aligned and can serialize to JSON.
#[derive(Clone, Debug)]
pub struct Table {
    /// Table title (printed as a heading).
    pub title: String,
    /// Column headers, including the label column.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Row>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

impl Table {
    /// New table with the given title and headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row; `cells` must match `headers.len() - 1`.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        let label = label.into();
        assert_eq!(
            cells.len() + 1,
            self.headers.len(),
            "row '{label}' has {} cells for {} headers",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(Row { label, cells });
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Print aligned to stdout. When the environment variable
    /// `SEPDC_EXP_JSON` names a directory, a machine-readable JSON copy of
    /// the table is also written there (file name slugged from the title).
    pub fn print(&self) {
        if let Ok(dir) = std::env::var("SEPDC_EXP_JSON") {
            if let Err(e) = self.write_json(&dir) {
                eprintln!("warning: could not write JSON table: {e}");
            }
        }
        println!("\n### {}\n", self.title);
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            widths[0] = widths[0].max(r.label.len());
            for (i, c) in r.cells.iter().enumerate() {
                widths[i + 1] = widths[i + 1].max(c.len());
            }
        }
        let line = |cells: Vec<String>| {
            let mut s = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i == 0 {
                    s.push_str(&format!("{:<w$}  ", c, w = widths[0]));
                } else {
                    s.push_str(&format!("{:>w$}  ", c, w = widths[i]));
                }
            }
            s
        };
        println!("{}", line(self.headers.clone()));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for r in &self.rows {
            let mut cells = vec![r.label.clone()];
            cells.extend(r.cells.iter().cloned());
            println!("{}", line(cells));
        }
        for n in &self.notes {
            println!("  • {n}");
        }
    }

    /// Serialize to `<dir>/<slug>.json`.
    pub fn write_json(&self, dir: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let slug: String = self
            .title
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_");
        let path = std::path::Path::new(dir).join(format!("{slug}.json"));
        std::fs::write(path, self.to_json())
    }

    /// Hand-rolled pretty JSON (the build is offline; no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        s.push_str(&format!(
            "  \"headers\": {},\n",
            json_str_array(&self.headers)
        ));
        s.push_str("  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            s.push_str(&format!(
                "    {{ \"label\": {}, \"cells\": {} }}{}\n",
                json_str(&r.label),
                json_str_array(&r.cells),
                if i + 1 < self.rows.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!("  \"notes\": {}\n", json_str_array(&self.notes)));
        s.push_str("}\n");
        s
    }
}

fn json_str_array(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| json_str(s)).collect();
    format!("[{}]", inner.join(", "))
}

/// Least-squares fit of `y = c · x^e` via log-log regression; returns the
/// exponent `e`, or `None` when fewer than two strictly positive points
/// exist (e.g. a series that is identically zero).
pub fn fit_power_law(xs: &[f64], ys: &[f64]) -> Option<f64> {
    assert_eq!(xs.len(), ys.len());
    let pts: Vec<(f64, f64)> = xs
        .iter()
        .zip(ys)
        .filter(|(&x, &y)| x > 0.0 && y > 0.0)
        .map(|(&x, &y)| (x.ln(), y.ln()))
        .collect();
    if pts.len() < 2 {
        return None;
    }
    let n = pts.len() as f64;
    let sx: f64 = pts.iter().map(|p| p.0).sum();
    let sy: f64 = pts.iter().map(|p| p.1).sum();
    let sxx: f64 = pts.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pts.iter().map(|p| p.0 * p.1).sum();
    Some((n * sxy - sx * sy) / (n * sxx - sx * sx))
}

/// Format a [`fit_power_law`] result for a table note.
pub fn fmt_exponent(e: Option<f64>) -> String {
    match e {
        Some(v) => format!("n^{v:.2}"),
        None => "~0 (degenerate series)".to_string(),
    }
}

/// Wall-clock one closure, returning (result, seconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_recovers_exponent() {
        let xs: Vec<f64> = (1..=6).map(|i| (1 << i) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(0.5)).collect();
        assert!((fit_power_law(&xs, &ys).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn power_law_linear() {
        let xs = [1.0, 2.0, 4.0, 8.0];
        let ys = [2.0, 4.0, 8.0, 16.0];
        assert!((fit_power_law(&xs, &ys).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn power_law_degenerate_is_none() {
        assert!(fit_power_law(&[1.0, 2.0], &[0.0, 0.0]).is_none());
    }

    #[test]
    fn table_shape_enforced() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row("x", vec!["1".into()]);
        assert_eq!(t.rows.len(), 1);
    }

    #[test]
    #[should_panic(expected = "cells")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row("x", vec!["1".into(), "2".into()]);
    }
}
