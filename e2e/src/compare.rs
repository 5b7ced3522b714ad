//! `--compare <parent.jsonl> <change.jsonl>`: two sets of runs, as written
//! by `--out`, judged metric by metric against the bounds in
//! `BENCHMARK.json`.

use crate::json::Json;
use crate::spec::{Declared, Spec};
use crate::stats::{summarize, Summary};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is better by more than the parent's own
    /// inter-quartile distance and it wins at least nine tenths of the
    /// run pairs.
    Better,
    Unchanged,
    /// The change's median is worse by more than the bound.
    Worse,
    /// The runs' own spread is wider than the bound and the two sides'
    /// runs interleave, so a regression of the bound's size could hide.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric on one workload. Runs pair up in file order (run *i*
/// of the parent with run *i* of the change).
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let (p, c) = (summarize(parent), summarize(change));
    // Positive when the change is worse.
    let worse_by = |from: f64, to: f64| {
        if lower_is_better {
            to - from
        } else {
            from - to
        }
    };
    let worsening = worse_by(p.median, c.median) / p.median.abs();
    let every_pairing = |pred: &dyn Fn(f64) -> bool| {
        change
            .iter()
            .all(|&c| parent.iter().all(|&p| pred(worse_by(p, c))))
    };
    let separated = every_pairing(&|d| d < 0.0) || every_pairing(&|d| d > 0.0);
    if p.iqr_share().max(c.iqr_share()) > bound && !separated {
        return Verdict::Unresolved;
    }
    if worsening > bound {
        return Verdict::Worse;
    }
    let (mut wins, mut losses) = (0, 0);
    for (&p, &c) in parent.iter().zip(change) {
        match worse_by(p, c) {
            d if d < 0.0 => wins += 1,
            d if d > 0.0 => losses += 1,
            _ => {}
        }
    }
    if -worsening > p.iqr_share() && wins > 0 && wins * 10 >= (wins + losses) * 9 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Metrics that count what the plan moved. They must repeat exactly
/// between runs on one seed; a change that moves them changed the plan.
const EXACT_COUNTS: [&str; 5] = [
    "cluster.transport.moves",
    "cluster.transport.payload_bytes",
    "cluster.shuffle.model_bytes",
    "cluster.rebalance.moves",
    "cluster.coding.parity_blocks",
];

/// `(workload, traced) -> metric -> (seed, value)` of every run, in file
/// order.
type Runs = BTreeMap<(String, bool), BTreeMap<String, Vec<(u64, f64)>>>;

fn read_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{path}:{}: {what}", n + 1);
        let doc = Json::parse(line).map_err(|e| at(&e))?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no \"workload\""))?;
        let traced = doc
            .get("trace")
            .and_then(Json::as_bool)
            .ok_or_else(|| at("no \"trace\""))?;
        let seed = doc
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or_else(|| at("no \"seed\""))? as u64;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| at("no \"metrics\""))?;
        let run = runs.entry((workload.to_string(), traced)).or_default();
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at("a metric without a \"value\""))?;
            run.entry(name.clone()).or_default().push((seed, value));
        }
    }
    Ok(runs)
}

fn values(samples: &[(u64, f64)]) -> Vec<f64> {
    samples.iter().map(|&(_, v)| v).collect()
}

fn show(s: &Summary) -> String {
    // Six decimals for measurements, none for counts.
    let digits = if [s.q1, s.median, s.q3].iter().all(|v| v.fract() == 0.0) {
        0
    } else {
        6
    };
    format!(
        "{:.digits$} [{:.digits$}, {:.digits$}] n={}",
        s.median, s.q1, s.q3, s.n
    )
}

/// Whether runs on the same seed read the same value, on both sides.
fn repeats_exactly(parent: &[(u64, f64)], change: &[(u64, f64)]) -> bool {
    let mut by_seed: BTreeMap<u64, f64> = BTreeMap::new();
    parent
        .iter()
        .chain(change)
        .all(|&(seed, v)| *by_seed.entry(seed).or_insert(v) == v)
}

/// Prints the comparison; `Ok(true)` when no end-to-end metric is worse or
/// unresolved and every exact count repeats.
pub fn run(parent_path: &str, change_path: &str) -> Result<bool, String> {
    let spec = Spec::load();
    let (parent, change) = (read_runs(parent_path)?, read_runs(change_path)?);
    let mut clean = true;
    let mut compared = 0;
    println!("# parent: {parent_path}   change: {change_path}");
    println!("# workload metric verdict | change of median | parent median [q1, q3] n | change median [q1, q3] n");
    for workload in &spec.workloads {
        for (traced, declared) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
            let key = (workload.clone(), traced);
            let (Some(p), Some(c)) = (parent.get(&key), change.get(&key)) else {
                continue;
            };
            for Declared {
                name,
                unit,
                lower_is_better,
                bound,
            } in declared
            {
                let (Some(pv), Some(cv)) = (p.get(name), c.get(name)) else {
                    continue;
                };
                compared += 1;
                let (pvals, cvals) = (values(pv), values(cv));
                let (ps, cs) = (summarize(&pvals), summarize(&cvals));
                let delta = if ps.median == 0.0 {
                    0.0
                } else {
                    (cs.median / ps.median - 1.0) * 100.0
                };
                let label = if let Some(bound) = bound {
                    let v = verdict(&pvals, &cvals, *lower_is_better, *bound);
                    clean &= !matches!(v, Verdict::Worse | Verdict::Unresolved);
                    v.label()
                } else if EXACT_COUNTS.contains(&name.as_str()) {
                    let same = repeats_exactly(pv, cv);
                    clean &= same;
                    if same {
                        "identical"
                    } else {
                        "differs"
                    }
                } else {
                    "layer"
                };
                println!(
                    "{workload} {name} {label} | {delta:+.2}% | {} | {} {unit}",
                    show(&ps),
                    show(&cs)
                );
            }
        }
    }
    if compared == 0 {
        return Err("the two files share no workload and metric".into());
    }
    println!(
        "# {}",
        if clean {
            "no end-to-end metric is worse or unresolved; exact counts repeat"
        } else {
            "at least one end-to-end metric is worse or unresolved, or an exact count differs"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT: [f64; 10] = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0, 10.05];

    fn scaled(values: &[f64], by: f64) -> Vec<f64> {
        values.iter().map(|v| v * by).collect()
    }

    #[test]
    fn a_median_worse_by_more_than_the_bound_is_worse() {
        assert_eq!(
            verdict(&TIGHT, &scaled(&TIGHT, 1.08), true, 0.05),
            Verdict::Worse
        );
        // The same numbers as a throughput are an improvement.
        assert_eq!(
            verdict(&TIGHT, &scaled(&TIGHT, 1.08), false, 0.05),
            Verdict::Better
        );
        assert_eq!(
            verdict(&TIGHT, &scaled(&TIGHT, 0.92), false, 0.05),
            Verdict::Worse
        );
    }

    #[test]
    fn a_shift_inside_the_bound_is_unchanged_unless_it_clears_the_parents_spread() {
        assert_eq!(verdict(&TIGHT, &TIGHT, true, 0.05), Verdict::Unchanged);
        // 3 % worse: inside a 5 % bound.
        assert_eq!(
            verdict(&TIGHT, &scaled(&TIGHT, 1.03), true, 0.05),
            Verdict::Unchanged
        );
        // 0.5 % better: wins every pair but is inside the parent's
        // inter-quartile distance (1.25 %).
        assert_eq!(
            verdict(&TIGHT, &scaled(&TIGHT, 0.995), true, 0.05),
            Verdict::Unchanged
        );
        // 3 % better: clears it.
        assert_eq!(
            verdict(&TIGHT, &scaled(&TIGHT, 0.97), true, 0.05),
            Verdict::Better
        );
    }

    #[test]
    fn better_needs_nine_wins_in_ten() {
        let parent = [10.0; 10];
        let mut change = [9.0; 10];
        assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Better);
        change[0] = 10.5;
        assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Better);
        change[1] = 10.5;
        assert_eq!(verdict(&parent, &change, true, 0.05), Verdict::Unchanged);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_while_the_sides_interleave() {
        let noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0];
        assert_eq!(
            verdict(&noisy, &scaled(&noisy, 1.02), true, 0.05),
            Verdict::Unresolved
        );
        // Even a median past the bound is not a verdict through that noise.
        assert_eq!(
            verdict(&noisy, &scaled(&noisy, 1.10), true, 0.05),
            Verdict::Unresolved
        );
        // Every run of the change beats every run of the parent: resolved.
        assert_eq!(
            verdict(&noisy, &scaled(&noisy, 0.5), true, 0.05),
            Verdict::Better
        );
        assert_eq!(
            verdict(&noisy, &scaled(&noisy, 2.0), true, 0.05),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_counts_repeat_per_seed() {
        assert!(repeats_exactly(
            &[(11, 4.0), (12, 5.0)],
            &[(11, 4.0), (12, 5.0)]
        ));
        assert!(!repeats_exactly(&[(11, 4.0)], &[(11, 5.0)]));
        assert!(!repeats_exactly(&[(11, 4.0), (11, 5.0)], &[]));
    }
}
