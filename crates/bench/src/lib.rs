//! # distme-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (§6 + appendix),
//! each printing the paper's reported values next to the values this
//! reproduction measures on the simulated cluster:
//!
//! | target | regenerates |
//! |---|---|
//! | `table4` | Table 4 — optimal (P\*, Q\*, R\*) per input shape |
//! | `fig6`   | Fig. 6(a–f) — BMM/CPMM/RMM/CuboidMM elapsed + communication |
//! | `fig7`   | Fig. 7(a–g) — systems comparison, step ratios, comm, GPU util |
//! | `fig8`   | Fig. 8(a–d) — GNMF on MovieLens/Netflix/YahooMusic |
//! | `fig9`   | Fig. 9(a–b) — (P, Q, R) sweep around the optimum |
//! | `table5` | Table 5 — ScaLAPACK/SciDB/DistME(C) |
//!
//! Run with `cargo run -p distme-bench --release --bin <target>`. The
//! real-execution hot paths are measured by the repository's benchmark,
//! the stand-alone `e2e/` package, not here.
//!
//! Absolute paper numbers come from a Spark cluster whose shuffle
//! compression, serialization, and scheduler we can only calibrate, so the
//! contract (per EXPERIMENTS.md) is *shape*: orderings, crossovers, and
//! failure annotations must match; absolute times should land within a
//! small factor.

use distme_cluster::{JobError, JobStats};

/// A measured cell: seconds/bytes, or the failure annotation.
#[derive(Debug, Clone)]
pub enum Cell {
    /// Measured value.
    Value(f64),
    /// Job failed with the paper-style annotation ("O.O.M.", "T.O.", ...).
    Failed(&'static str),
    /// Not applicable / not reported.
    Blank,
}

impl Cell {
    /// From a simulation result, extracting elapsed seconds.
    pub fn elapsed(r: &Result<JobStats, JobError>) -> Cell {
        match r {
            Ok(s) => Cell::Value(s.elapsed_secs),
            Err(e) => Cell::Failed(e.annotation()),
        }
    }

    /// From a simulation result, extracting communication megabytes.
    pub fn comm_mb(r: &Result<JobStats, JobError>) -> Cell {
        match r {
            Ok(s) => Cell::Value(s.communication_bytes() as f64 / 1e6),
            Err(e) => Cell::Failed(e.annotation()),
        }
    }

    /// Renders with the given precision.
    pub fn render(&self, precision: usize) -> String {
        match self {
            Cell::Value(v) => format!("{v:.precision$}"),
            Cell::Failed(a) => (*a).to_string(),
            Cell::Blank => "-".to_string(),
        }
    }
}

/// A paper-reported reference cell.
#[derive(Debug, Clone, Copy)]
pub enum Paper {
    /// Value as printed in the paper.
    Reported(f64),
    /// The paper annotates a failure here.
    Fails(&'static str),
    /// Not reported / unreadable from the figure.
    Unreported,
}

impl Paper {
    /// Renders for table output.
    pub fn render(&self, precision: usize) -> String {
        match self {
            Paper::Reported(v) => format!("{v:.precision$}"),
            Paper::Fails(a) => (*a).to_string(),
            Paper::Unreported => "?".to_string(),
        }
    }

    /// True when both sides agree on success-vs-failure, and (for
    /// failures) on the annotation.
    pub fn outcome_matches(&self, cell: &Cell) -> bool {
        match (self, cell) {
            (Paper::Reported(_), Cell::Value(_)) => true,
            (Paper::Fails(a), Cell::Failed(b)) => a == b,
            (Paper::Unreported, _) => true,
            _ => false,
        }
    }
}

/// Prints one comparison table: rows of `label, [paper, ours] per column`.
pub fn print_comparison(
    title: &str,
    column_names: &[&str],
    rows: &[(String, Vec<(Paper, Cell)>)],
    precision: usize,
) {
    println!("\n== {title} ==");
    print!("{:<16}", "");
    for c in column_names {
        print!("{:>24}", format!("{c} (paper/ours)"));
    }
    println!();
    let mut mismatches = 0;
    for (label, cells) in rows {
        print!("{label:<16}");
        for (paper, ours) in cells {
            print!(
                "{:>24}",
                format!("{} / {}", paper.render(precision), ours.render(precision))
            );
            if !paper.outcome_matches(ours) {
                mismatches += 1;
            }
        }
        println!();
    }
    if mismatches > 0 {
        println!("!! {mismatches} outcome mismatches (success-vs-failure) against the paper");
    } else {
        println!("ok: all success/failure outcomes match the paper");
    }
}

/// Geometric-mean ratio of ours/paper over comparable (both-succeeded)
/// cells — the harness's headline "calibration factor" per figure.
pub fn geometric_calibration(rows: &[(String, Vec<(Paper, Cell)>)]) -> Option<f64> {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for (_, cells) in rows {
        for (paper, ours) in cells {
            if let (Paper::Reported(p), Cell::Value(o)) = (paper, ours) {
                if *p > 0.0 && *o > 0.0 {
                    log_sum += (o / p).ln();
                    n += 1;
                }
            }
        }
    }
    (n > 0).then(|| (log_sum / n as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_rendering() {
        assert_eq!(Cell::Value(12.345).render(1), "12.3");
        assert_eq!(Cell::Failed("O.O.M.").render(0), "O.O.M.");
        assert_eq!(Cell::Blank.render(0), "-");
    }

    #[test]
    fn outcome_matching() {
        assert!(Paper::Reported(5.0).outcome_matches(&Cell::Value(6.0)));
        assert!(Paper::Fails("O.O.M.").outcome_matches(&Cell::Failed("O.O.M.")));
        assert!(!Paper::Fails("O.O.M.").outcome_matches(&Cell::Value(1.0)));
        assert!(!Paper::Reported(5.0).outcome_matches(&Cell::Failed("T.O.")));
        assert!(Paper::Unreported.outcome_matches(&Cell::Failed("T.O.")));
    }

    #[test]
    fn calibration_factor() {
        let rows = vec![(
            "x".to_string(),
            vec![
                (Paper::Reported(100.0), Cell::Value(200.0)),
                (Paper::Reported(100.0), Cell::Value(50.0)),
                (Paper::Fails("O.O.M."), Cell::Failed("O.O.M.")),
            ],
        )];
        let g = geometric_calibration(&rows).unwrap();
        assert!((g - 1.0).abs() < 1e-12);
        assert!(geometric_calibration(&[]).is_none());
    }
}
