//! Small plain-text table rendering helpers shared by all harnesses.

/// Render a table with a header row, column alignment by width.
#[must_use]
pub(crate) fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    let header_line: Vec<String> = header
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:width$}", width = widths[i]))
        .collect();
    out.push_str(&header_line.join("  "));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, cell)| format!("{cell:width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        out.push_str(&line.join("  "));
        out.push('\n');
    }
    out
}

/// Format a GFLOP/s value the way the paper's tables do (no decimals,
/// thousands separator omitted).
#[must_use]
pub(crate) fn gflops(value: f64) -> String {
    format!("{value:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_columns() {
        let s = render_table(
            "Demo",
            &["name", "value"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["longer".to_string(), "2".to_string()],
            ],
        );
        assert!(s.contains("== Demo =="));
        assert!(s.contains("name    value"));
        assert!(s.contains("longer  2"));
    }

    #[test]
    fn numeric_formatting() {
        assert_eq!(gflops(6318.7), "6319");
    }
}
