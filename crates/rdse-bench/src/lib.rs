//! Shared helpers for the experiment harness: tiny CSV writer, ASCII
//! plotting, summary statistics, and the fixed evaluator walks that the
//! `ratios` bench times and the `quality` tests count. Each
//! figure/table of the paper has a dedicated binary in `src/bin/`.

use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub mod walk;

/// An experiment's CSV output file. It is created before the
/// experiment runs, so an unwritable path fails at once instead of
/// after the whole run.
pub struct CsvOut {
    path: PathBuf,
    file: File,
}

impl CsvOut {
    /// Creates (or truncates) the file at `path`, creating its parent
    /// directory if needed.
    ///
    /// # Errors
    ///
    /// Returns the I/O error, with the path in its message, if the
    /// directory or the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<CsvOut> {
        let path = path.as_ref();
        path.parent()
            .map_or(Ok(()), fs::create_dir_all)
            .and_then(|()| File::create(path))
            .map(|file| CsvOut {
                path: path.to_path_buf(),
                file,
            })
            .map_err(|e| cannot_write(path, e))
    }

    /// Writes rows as CSV (first row = header).
    ///
    /// # Errors
    ///
    /// Returns the I/O error, with the path in its message, if the file
    /// cannot be written.
    pub fn write(mut self, header: &[&str], rows: &[Vec<f64>]) -> io::Result<()> {
        let mut out = String::new();
        out.push_str(&header.join(","));
        out.push('\n');
        for row in rows {
            let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        self.file
            .write_all(out.as_bytes())
            .map_err(|e| cannot_write(&self.path, e))?;
        eprintln!("wrote {}", self.path.display());
        Ok(())
    }
}

fn cannot_write(path: &Path, e: io::Error) -> io::Error {
    io::Error::new(e.kind(), format!("cannot write '{}': {e}", path.display()))
}

/// The exit code of an experiment binary: success, or one `error:`
/// line on stderr and exit code 1, as `rdse` reports a runtime
/// failure.
pub fn exit_code(result: io::Result<()>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Renders a rough ASCII scatter/line plot of `series` (label, points).
///
/// All series share the axes; x and y ranges are computed over the
/// union. Each series is drawn with its own glyph.
pub fn ascii_plot(
    title: &str,
    series: &[(&str, &[(f64, f64)])],
    width: usize,
    height: usize,
) -> String {
    const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
    let (mut xmin, mut xmax) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut ymin, mut ymax) = (f64::INFINITY, f64::NEG_INFINITY);
    for (_, pts) in series {
        for &(x, y) in *pts {
            xmin = xmin.min(x);
            xmax = xmax.max(x);
            ymin = ymin.min(y);
            ymax = ymax.max(y);
        }
    }
    if !xmin.is_finite() || xmax <= xmin {
        xmax = xmin + 1.0;
    }
    if !ymin.is_finite() || ymax <= ymin {
        ymax = ymin + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in *pts {
            let col = (((x - xmin) / (xmax - xmin)) * (width as f64 - 1.0)).round() as usize;
            let row = (((y - ymin) / (ymax - ymin)) * (height as f64 - 1.0)).round() as usize;
            let row = height - 1 - row.min(height - 1);
            grid[row][col.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "y: [{ymin:.2} .. {ymax:.2}]");
    for row in grid {
        let _ = writeln!(out, "|{}|", row.into_iter().collect::<String>());
    }
    let _ = writeln!(out, "x: [{xmin:.2} .. {xmax:.2}]");
    for (si, (label, _)) in series.iter().enumerate() {
        let _ = writeln!(out, "  {} = {label}", GLYPHS[si % GLYPHS.len()]);
    }
    out
}

/// Mean of a slice (0.0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sample standard deviation (0.0 with fewer than two samples).
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    (values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_dev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert!((std_dev(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) - 2.138).abs() < 0.01);
    }

    #[test]
    fn plot_contains_glyphs_and_ranges() {
        let pts_a = [(0.0, 0.0), (1.0, 1.0)];
        let pts_b = [(0.5, 0.5)];
        let p = ascii_plot("demo", &[("A", &pts_a), ("B", &pts_b)], 20, 10);
        assert!(p.contains('*') && p.contains('o'));
        assert!(p.contains("x: [0.00 .. 1.00]"));
        assert!(p.contains("demo"));
    }
}
