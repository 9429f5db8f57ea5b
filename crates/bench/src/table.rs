//! One table value under every `repro` artifact, and its two renderers.
//!
//! An artifact builds a [`Table`]: title lines, column specs, rows of
//! typed [`Cell`]s and note lines. [`Table::text`] writes the table
//! `repro` prints; [`Table::csv`] writes the same rows as CSV, one column
//! per column spec, with numbers undecorated and missing values empty.

use rb_core::{Cost, SimDuration};

/// One column: its text header and CSV key, its width, its alignment
/// and the separator before it.
#[derive(Debug, Clone)]
pub struct Column {
    /// The text header.
    pub header: String,
    /// The CSV header: the text header unless [`Table::with_csv`] names it.
    pub key: String,
    /// Minimum width in chars; a longer cell overflows it.
    pub width: usize,
    /// Pads on the right rather than on the left.
    pub left: bool,
    /// Puts ` | ` rather than one space before the column.
    pub bar: bool,
}

/// A right-aligned column.
pub fn right(header: &str, width: usize) -> Column {
    Column {
        header: header.into(),
        key: header.into(),
        width,
        left: false,
        bar: false,
    }
}

/// A left-aligned column.
pub fn left(header: &str, width: usize) -> Column {
    Column {
        left: true,
        ..right(header, width)
    }
}

impl Column {
    /// Puts ` | ` before the column.
    pub fn bar(self) -> Column {
        Column { bar: true, ..self }
    }
}

/// One typed table cell. The text form is what `repro` prints; the CSV
/// form drops the decoration (`$`, a unit suffix) and writes every
/// non-integer number at 6 decimals.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Text, written as is.
    Text(String),
    /// An integer, then a text-only unit suffix (e.g. `m` for minutes).
    Int(u64, &'static str),
    /// A real at this many decimals, then a text-only unit suffix.
    Real(f64, usize, &'static str),
    /// Dollars as `$x.xx`.
    Money(f64),
    /// A metered cost, in its own `$x.xx` rounding.
    Cost(Cost),
    /// A duration as `[H:]MM:SS.mmm`; seconds in CSV.
    Duration(SimDuration),
    /// `mean ± std`, each half right-aligned to its width (0 = as is).
    Pm(Box<[Cell; 2]>, [usize; 2]),
    /// No value: this text, and an empty CSV field.
    Missing(&'static str),
}

impl Cell {
    /// A text cell.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    /// A plain integer.
    pub fn int(value: impl Into<u64>) -> Cell {
        Cell::Int(value.into(), "")
    }

    /// A count.
    pub fn count(value: usize) -> Cell {
        Cell::Int(value as u64, "")
    }

    /// `yes` if `flag` holds, else `no`.
    pub fn flag(flag: bool, yes: &str, no: &str) -> Cell {
        Cell::text(if flag { yes } else { no })
    }

    /// A real at `prec` decimals.
    pub fn real(value: f64, prec: usize) -> Cell {
        Cell::Real(value, prec, "")
    }

    /// A duration given in seconds.
    pub fn secs(secs: f64) -> Cell {
        Cell::Duration(SimDuration::from_secs_f64(secs))
    }

    /// `$mean ± $std` dollars.
    pub fn money_pm((mean, std): (f64, f64)) -> Cell {
        Cell::Pm(Box::new([Cell::Money(mean), Cell::Money(std)]), [0, 0])
    }

    /// `mean ± std` seconds, as durations.
    pub fn time_pm((mean, std): (f64, f64)) -> Cell {
        Cell::Pm(Box::new([Cell::secs(mean), Cell::secs(std)]), [0, 0])
    }

    /// The text `repro` prints.
    pub fn text_form(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(value, unit) => format!("{value}{unit}"),
            Cell::Real(value, prec, unit) => format!("{value:.prec$}{unit}"),
            Cell::Money(dollars) => format!("${dollars:.2}"),
            Cell::Cost(cost) => cost.to_string(),
            Cell::Duration(d) => d.to_string(),
            Cell::Pm(parts, [w0, w1]) => {
                let mean = pad(&parts[0].text_form(), *w0, false);
                format!("{mean} ± {}", pad(&parts[1].text_form(), *w1, false))
            }
            Cell::Missing(s) => (*s).to_owned(),
        }
    }

    /// The CSV field.
    pub fn csv_form(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Int(value, _) => value.to_string(),
            Cell::Real(value, ..) | Cell::Money(value) => format!("{value:.6}"),
            Cell::Cost(cost) => format!("{:.6}", cost.as_dollars()),
            Cell::Duration(d) => format!("{:.6}", d.as_secs_f64()),
            Cell::Pm(parts, _) => format!("{} ± {}", parts[0].csv_form(), parts[1].csv_form()),
            Cell::Missing(_) => String::new(),
        }
    }
}

/// `s` padded to `width` chars, as `format!` pads.
fn pad(s: &str, width: usize, left: bool) -> String {
    let fill = " ".repeat(width.saturating_sub(s.chars().count()));
    if left {
        s.to_owned() + &fill
    } else {
        fill + s
    }
}

/// A column spec and the function that makes its cell from a row.
pub type ColumnOf<R> = (Column, fn(&R) -> Cell);

/// One artifact table: the title, a blank line, the header, the rows,
/// then the notes.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// The lines before the blank line that precedes the header.
    pub title: String,
    /// The columns, in order.
    pub columns: Vec<Column>,
    /// One cell per column in each row.
    pub rows: Vec<Vec<Cell>>,
    /// Text after the rows, written as is (newline-terminated lines).
    pub notes: String,
    /// The file name `repro --csv` writes this table to, if any.
    pub csv: Option<String>,
}

impl Table {
    /// A table of one row per element of `rows`: each column pairs its
    /// spec with the function that makes its cell.
    pub fn of<R>(title: impl Into<String>, rows: &[R], columns: &[ColumnOf<R>]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|(c, _)| c.clone()).collect(),
            rows: rows
                .iter()
                .map(|r| columns.iter().map(|(_, cell)| cell(r)).collect())
                .collect(),
            ..Table::default()
        }
    }

    /// Sets the text after the rows.
    pub fn with_notes(self, notes: impl Into<String>) -> Table {
        Table {
            notes: notes.into(),
            ..self
        }
    }

    /// Names the file `repro --csv` writes this table to, and the
    /// columns' CSV keys in order.
    pub fn with_csv(
        mut self,
        name: String,
        keys: impl IntoIterator<Item = impl Into<String>>,
    ) -> Table {
        for (column, key) in self.columns.iter_mut().zip(keys) {
            column.key = key.into();
        }
        Table {
            csv: Some(name),
            ..self
        }
    }

    /// The stdout text.
    pub fn text(&self) -> String {
        let mut out = format!("{}\n\n", self.title);
        let header: Vec<String> = self.columns.iter().map(|c| c.header.clone()).collect();
        self.text_line(&mut out, &header);
        for row in &self.rows {
            debug_assert_eq!(row.len(), self.columns.len(), "ragged table row");
            let cells: Vec<String> = row.iter().map(Cell::text_form).collect();
            self.text_line(&mut out, &cells);
        }
        out.push_str(&self.notes);
        out
    }

    fn text_line(&self, out: &mut String, cells: &[String]) {
        for (i, (column, cell)) in self.columns.iter().zip(cells).enumerate() {
            if i > 0 {
                out.push_str(if column.bar { " | " } else { " " });
            }
            out.push_str(&pad(cell, column.width, column.left));
        }
        out.push('\n');
    }

    /// The CSV text: a header of column keys, then one line per row.
    pub fn csv(&self) -> String {
        let keys: Vec<&str> = self.columns.iter().map(|c| c.key.as_str()).collect();
        let mut out = format!("{}\n", keys.join(","));
        for row in &self.rows {
            let fields: Vec<String> = row.iter().map(Cell::csv_form).collect();
            out.push_str(&fields.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;

    #[test]
    fn padding_counts_chars_as_format_does() {
        for s in ["σ (s)", "—", "✓", "plain"] {
            for width in [0, 1, 5, 8, 12] {
                assert_eq!(pad(s, width, false), format!("{s:>width$}"));
                assert_eq!(pad(s, width, true), format!("{s:<width$}"));
            }
        }
    }

    #[test]
    fn text_renders_separators_missing_cells_and_notes() {
        let rows = [(1.0, Some(6.913), true), (10.0, None, false)];
        let table = Table::of(
            "Title\n(subtitle)",
            &rows,
            &[
                (right("σ (s)", 6), |r| Cell::real(r.0, 1)),
                (right("cost", 8).bar(), |r| {
                    r.1.map_or(Cell::Missing("—"), Cell::Money)
                }),
                (left("ok", 3), |r| Cell::flag(r.2, "✓", "")),
            ],
        )
        .with_notes("\nsummary: rows=2\n");
        assert_eq!(
            table.text(),
            "Title\n(subtitle)\n\n σ (s) |     cost ok \n   1.0 |    $6.91 ✓  \n  10.0 |        —    \n\
             \nsummary: rows=2\n"
        );
        assert_eq!(
            table.csv(),
            "σ (s),cost,ok\n1.000000,6.913000,✓\n10.000000,,\n"
        );
    }

    #[test]
    fn cells_render_todays_text() {
        assert_eq!(
            Cell::time_pm((61.0, 1.5)).text_form(),
            "01:01.000 ± 00:01.500"
        );
        assert_eq!(
            Cell::money_pm((15.678, 0.021)).text_form(),
            "$15.68 ± $0.02"
        );
        assert_eq!(Cell::Int(90, "m").text_form(), "90m");
        assert_eq!(Cell::Real(1.0625, 2, "x").text_form(), "1.06x");
        assert_eq!(Cell::Real(501.4, 0, "s").text_form(), "501s");
        assert_eq!(
            Cell::Cost(Cost::from_micros(48_735_000)).text_form(),
            "$48.74"
        );
        let aligned = Cell::Pm(
            Box::new([Cell::real(678.554, 2), Cell::real(5.671, 2)]),
            [9, 8],
        );
        assert_eq!(aligned.text_form(), "   678.55 ±     5.67");
    }

    #[test]
    fn csv_writes_money_integers_reals_and_missing_values() {
        let rows = vec![figures::Fig11Row {
            trials: 64,
            static_cost: Some(7.1),
            elastic_cost: None,
        }];
        let table = figures::fig11_table(false, &rows);
        assert_eq!(table.csv.as_deref(), Some("fig11_per_instance.csv"));
        assert_eq!(
            table.csv(),
            "trials,static_cost,elastic_cost,ratio\n64,7.100000,,\n"
        );
        let text = table.text();
        assert!(
            text.ends_with("      64 |        $7.10            —        —\n\n"),
            "{text}"
        );
        assert_eq!(Cell::Int(90, "m").csv_form(), "90");
        assert_eq!(Cell::Real(1.0625, 2, "x").csv_form(), "1.062500");
    }

    #[test]
    fn fig4_csv_is_wide_with_one_row_per_model() {
        let table = figures::fig4_table(&figures::fig4(&[1, 2]));
        let csv = table.csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "model,speedup_1gpu,speedup_2gpu");
        assert_eq!(lines.len(), 1 + rb_scaling::zoo::ZOO.len());
        assert!(
            lines[1].starts_with("ResNet-50,1.000000,1.9"),
            "{}",
            lines[1]
        );
    }
}
