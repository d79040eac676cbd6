//! Plain-text paper-vs-measured report formatting.

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints a table: header row then aligned data rows.
pub fn table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let mut out = String::new();
        for (w, cell) in widths.iter().zip(cells) {
            out.push_str(&format!("{cell:<width$}  ", width = w));
        }
        println!("{}", out.trim_end());
    };
    line(
        &headers
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>(),
    );
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

/// Formats a fraction as a percentage.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

/// Formats joules with an adaptive SI prefix (mJ … fJ).
pub fn energy(j: redeye_analog::Joules) -> String {
    let v = j.value();
    if v >= 1e-3 {
        format!("{:.2} mJ", v * 1e3)
    } else if v >= 1e-6 {
        format!("{:.1} µJ", v * 1e6)
    } else if v >= 1e-9 {
        format!("{:.2} nJ", v * 1e9)
    } else if v >= 1e-12 {
        format!("{:.2} pJ", v * 1e12)
    } else {
        format!("{:.1} fJ", v * 1e15)
    }
}

/// Formats seconds as adaptive s/ms.
pub fn time(s: redeye_analog::Seconds) -> String {
    let v = s.value();
    if v >= 1.0 {
        format!("{v:.2} s")
    } else {
        format!("{:.1} ms", v * 1e3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeye_analog::{Joules, Seconds};

    #[test]
    fn adaptive_energy_units() {
        assert_eq!(energy(Joules::from_milli(1.4)), "1.40 mJ");
        assert_eq!(energy(Joules::new(170e-6)), "170.0 µJ");
        assert_eq!(energy(Joules::from_pico(1280.0)), "1.28 nJ");
    }

    #[test]
    fn adaptive_time_units() {
        assert_eq!(time(Seconds::new(1.54)), "1.54 s");
        assert_eq!(time(Seconds::from_milli(32.0)), "32.0 ms");
    }

    #[test]
    fn percentage_formatting() {
        assert_eq!(pct(0.845), "84.5%");
    }
}
