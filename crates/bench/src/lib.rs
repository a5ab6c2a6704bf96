//! Shared infrastructure for the `repro` binary: table/figure
//! formatting, result persistence, and the workload builders its
//! commands share.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Where [`Table::emit`] additionally appends its markdown (beyond
/// stdout + the per-table CSV), when the caller asked for a single
/// artifact file — `repro`'s `--out=<path>` flag sets this once at
/// startup.
static ARTIFACT_SINK: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Route every subsequent [`Table::emit`]'s markdown into `path` as
/// well (appending — one run's tables accumulate into one artifact).
/// `None` restores stdout-only emission.
pub fn set_artifact_sink(path: Option<PathBuf>) {
    *ARTIFACT_SINK.lock().expect("artifact sink mutex") = path;
}

fn append_artifact(text: &str) {
    let sink = ARTIFACT_SINK.lock().expect("artifact sink mutex");
    let Some(path) = sink.as_ref() else {
        return;
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        let _ = std::fs::create_dir_all(dir);
    }
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, text.as_bytes()));
    if let Err(e) = appended {
        eprintln!("(could not append to {}: {e})", path.display());
    }
}

/// Print `line` under the tables and append it to the artifact sink, if
/// one is set ([`set_artifact_sink`]).
pub fn emit_line(line: &str) {
    println!("{line}");
    append_artifact(&format!("\n{line}\n"));
}

/// A simple markdown/CSV table builder.
#[derive(Clone, Debug, Default)]
pub struct Table {
    /// Table title (printed as a heading).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as aligned markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n## {}\n", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                let _ = write!(line, " {cell:>w$} |", w = w);
            }
            line
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<w$}|", "", w = w + 2);
        }
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| -> String {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        );
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            );
        }
        out
    }

    /// Print to stdout and persist a CSV under `results/`. When an
    /// artifact sink is set ([`set_artifact_sink`]), the markdown is
    /// also appended there.
    pub fn emit(&self, slug: &str) {
        println!("{}", self.to_markdown());
        append_artifact(&self.to_markdown());
        let dir = Path::new("results");
        if std::fs::create_dir_all(dir).is_ok() {
            let path = dir.join(format!("{slug}.csv"));
            if let Err(e) = std::fs::write(&path, self.to_csv()) {
                eprintln!("(could not write {}: {e})", path.display());
            } else {
                println!("[saved results/{slug}.csv]");
            }
        }
    }
}

/// Format seconds with two decimals, as Table 5 prints them.
pub fn s2(v: f64) -> String {
    format!("{v:.2}")
}

/// Format a percentage with two decimals.
pub fn pct2(v: f64) -> String {
    format!("{v:.2}")
}

/// Deterministic random feature map for kernel timings and fixtures.
pub fn random_tensor(shape: tensor::Shape4, seed: u64) -> tensor::Tensor<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    tensor::Tensor::from_fn(shape, |_, _, _, _| rng.random::<f32>() * 2.0 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders() {
        let mut t = Table::new("Demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("## Demo"));
        assert!(md.contains("| 1 |"));
    }

    #[test]
    fn csv_escapes() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["v,w".into()]);
        assert!(t.to_csv().contains("\"v,w\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn artifact_sink_appends_markdown() {
        let path = std::env::temp_dir().join("bench-artifact-sink-test.md");
        let _ = std::fs::remove_file(&path);
        set_artifact_sink(Some(path.clone()));
        append_artifact("first\n");
        append_artifact("second\n");
        set_artifact_sink(None);
        append_artifact("dropped\n");
        let got = std::fs::read_to_string(&path).expect("sink file written");
        let _ = std::fs::remove_file(&path);
        assert_eq!(got, "first\nsecond\n");
    }
}
