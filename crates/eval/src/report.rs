//! Experiment reports: named tables of labelled rows, rendered as one
//! Markdown section with the paper's values and claims beside them.

use crate::artifact::Artifact;
use crate::metrics::MatchQuality;

/// One experiment's output table.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Title, e.g. `Table 2. Matching DBLP-ACM publications using attribute matchers`.
    pub title: String,
    /// Column headers (first column is the row label).
    pub columns: Vec<String>,
    /// Rows: label + one cell per non-label column.
    pub rows: Vec<(String, Vec<String>)>,
    /// Free-form notes printed under the table.
    pub notes: Vec<String>,
}

/// The leading number of a cell (`95.5%`, `(81296)`, `100.0% (3)`) and
/// how many decimals it is printed with.
fn leading_number(cell: &str) -> Option<(f64, usize)> {
    let s = cell.trim_start_matches('(');
    let end = s
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(s.len());
    let token = &s[..end];
    let decimals = token.split_once('.').map_or(0, |(_, frac)| frac.len());
    token.parse().ok().map(|v| (v, decimals))
}

impl Report {
    /// New empty report.
    pub fn new(title: impl Into<String>, columns: Vec<&str>) -> Self {
        Self {
            title: title.into(),
            columns: columns.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) -> &mut Self {
        self.rows.push((label.into(), cells));
        self
    }

    /// Append a note.
    pub fn note(&mut self, note: impl Into<String>) -> &mut Self {
        self.notes.push(note.into());
        self
    }

    /// Append the `Precision` / `Recall` / `F-Measure` rows of a table
    /// with one column per evaluated mapping.
    pub fn quality_rows(&mut self, columns: &[MatchQuality]) -> &mut Self {
        let metrics: [(&str, fn(&MatchQuality) -> f64); 3] = [
            ("Precision", MatchQuality::precision),
            ("Recall", MatchQuality::recall),
            ("F-Measure", MatchQuality::f1),
        ];
        for (label, metric) in metrics {
            let cells = columns.iter().map(|q| Self::pct(metric(q) * 100.0));
            self.row(label, cells.collect());
        }
        self
    }

    /// Format a percentage cell like the paper (`95.5%`).
    pub fn pct(v: f64) -> String {
        format!("{v:.1}%")
    }

    /// Look up a cell by row label and column name.
    pub fn cell(&self, row: &str, column: &str) -> Option<&str> {
        let col = self.columns.iter().position(|c| c == column)?;
        if col == 0 {
            return None;
        }
        self.rows
            .iter()
            .find(|(label, _)| label == row)
            .and_then(|(_, cells)| cells.get(col - 1))
            .map(String::as_str)
    }

    /// The number a cell starts with; NaN for a missing or non-numeric
    /// cell, so a claim comparing it is false rather than a panic.
    pub fn num(&self, row: &str, column: &str) -> f64 {
        self.cell(row, column)
            .and_then(leading_number)
            .map_or(f64::NAN, |(v, _)| v)
    }

    /// Whether every cell `paper` names is within `tolerance` of its
    /// paper value (the worked-example figures: half a unit of the
    /// paper's last printed digit).
    pub fn agrees_with(&self, paper: &[(&str, &str, f64)], tolerance: f64) -> bool {
        paper
            .iter()
            .all(|&(row, column, value)| (self.num(row, column) - value).abs() <= tolerance)
    }

    /// Render as one Markdown section: the table, each cell that has a
    /// value in `artifact.paper` as `measured / paper / Δ`, the notes,
    /// then one `claim: … — holds|FAILS` line per claim.
    pub fn render(&self, artifact: &Artifact) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(label, cells)| {
                let mut line = vec![label.clone()];
                line.extend(
                    self.columns
                        .iter()
                        .skip(1)
                        .zip(cells)
                        .map(|(column, cell)| {
                            let paper = artifact
                                .paper
                                .iter()
                                .find(|(r, c, _)| r == label && c == column);
                            match (paper, leading_number(cell)) {
                                (Some((_, _, p)), Some((v, decimals))) => {
                                    format!("{cell} / {p} / {:+.decimals$}", v - p)
                                }
                                _ => cell.clone(),
                            }
                        }),
                );
                line
            })
            .collect();
        let widths: Vec<usize> = (0..self.columns.len())
            .map(|i| {
                let cells = rows.iter().filter_map(|line| line.get(i));
                let widest = cells.map(|c| c.chars().count()).max().unwrap_or(0);
                widest.max(self.columns[i].chars().count())
            })
            .collect();
        let line = |cells: &[String]| {
            let padded = cells.iter().zip(&widths).map(|(c, w)| format!(" {c:<w$} "));
            format!("|{}|\n", padded.collect::<Vec<_>>().join("|"))
        };
        let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();

        let mut out = format!("## {}\n\n", self.title);
        out.push_str(&line(&self.columns));
        out.push_str(&line(&rule));
        rows.iter().for_each(|cells| out.push_str(&line(cells)));
        out.push('\n');
        for note in &self.notes {
            out.push_str(&format!("- note: {note}\n"));
        }
        for claim in artifact.claims {
            let verdict = if (claim.holds)(self) {
                "holds"
            } else {
                "FAILS"
            };
            out.push_str(&format!("- claim: {} — {verdict}\n", claim.text));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::{Claim, Group};

    fn sample() -> Report {
        let mut r = Report::new("Table X. Demo", vec!["Matcher", "Precision", "Recall"]);
        r.row("Title", vec![Report::pct(86.7), Report::pct(97.7)]);
        r.row("Year", vec!["(12)".into(), "-".into()]);
        r.note("threshold 0.8");
        r
    }

    const DEMO: Artifact = Artifact {
        id: "demo",
        group: Group::Extra,
        run: |_| sample(),
        paper: &[("Title", "Precision", 85.0), ("Year", "Precision", 14.0)],
        claims: &[
            Claim {
                text: "title precision is high",
                holds: |r| r.num("Title", "Precision") > 80.0,
            },
            Claim {
                text: "a missing cell never holds",
                holds: |r| r.num("Year", "Recall") >= 0.0,
            },
        ],
    };

    #[test]
    fn cells_lookup() {
        let r = sample();
        assert_eq!(r.cell("Title", "Precision"), Some("86.7%"));
        assert_eq!(r.num("Title", "Recall"), 97.7);
        assert_eq!(r.num("Year", "Precision"), 12.0);
        assert!(r.num("Year", "Recall").is_nan());
        assert_eq!(r.cell("Title", "Matcher"), None);
        assert!(r.num("Nope", "Precision").is_nan());
        assert!(r.num("Title", "Nope").is_nan());
    }

    #[test]
    fn render_puts_paper_values_and_verdicts_beside_the_cells() {
        let s = sample().render(&DEMO);
        assert!(s.starts_with("## Table X. Demo\n\n| Matcher "), "{s}");
        assert!(s.contains("| 86.7% / 85 / +1.7 "), "{s}");
        assert!(s.contains("| (12) / 14 / -2 "), "{s}");
        assert!(s.contains("| 97.7% "), "{s}");
        assert!(s.contains("- note: threshold 0.8\n"));
        assert!(s.contains("- claim: title precision is high — holds\n"));
        assert!(s.contains("- claim: a missing cell never holds — FAILS\n"));
        // Aligned: every table line has the same width.
        let lines: Vec<&str> = s.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(lines.len(), 4);
        let len = lines[0].chars().count();
        assert!(lines.iter().all(|l| l.chars().count() == len));
    }

    #[test]
    fn agreement_is_within_the_tolerance() {
        let r = sample();
        assert!(r.agrees_with(&[("Title", "Precision", 86.7)], 0.05));
        assert!(!r.agrees_with(DEMO.paper, 0.05));
        assert!(!r.agrees_with(&[("Year", "Recall", 0.0)], 1e9));
    }

    #[test]
    fn pct_formatting() {
        assert_eq!(Report::pct(95.55), "95.5%");
        assert_eq!(Report::pct(0.351), "0.4%");
        assert_eq!(Report::pct(100.0), "100.0%");
    }
}
