//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the harness that
//! accepts or rejects a change computes over this benchmark's runs; the
//! spreads printed here and by `--compare` are the ones it will see.

/// Median and quartiles of a sample, with its size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    /// Distance between the quartiles as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The three quartile cut points of `values`. A single sample is its own
/// quartiles.
///
/// # Panics
/// On an empty sample: every caller measures at least one operation.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return Summary {
            n,
            q1: v[0],
            median: v[0],
            q3: v[0],
        };
    }
    let cut = |i: usize| {
        // statistics.quantiles, method="exclusive", n=4.
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Summary {
        n,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
    }
}

pub fn median(values: &[f64]) -> f64 {
    summarize(values).median
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile: the smallest sample with at least `pct` % of
/// the sample at or below it.
pub fn percentile(values: &[f64], pct: u32) -> f64 {
    let v = sorted(values);
    v[rank(v.len(), pct) - 1]
}

fn rank(n: usize, pct: u32) -> usize {
    (n * pct as usize).div_ceil(100).clamp(1, n)
}

/// Samples strictly beyond the `pct` percentile's rank.
pub fn samples_beyond(n: usize, pct: u32) -> usize {
    n - rank(n, pct)
}

/// The tail percentiles `op_tail_ms` chooses from, highest first. None
/// above p90: on a shared host one 200 ms burst from a neighbour is 25
/// service jobs, which is all of a p99's samples beyond it in an 18 s run,
/// and two sets of runs of one binary had p99s a fifth apart.
const TAIL_PERCENTILES: [u32; 3] = [90, 75, 50];

/// Samples a tail percentile must have beyond it to be a distribution and
/// not one or two outliers.
const SAMPLES_BEYOND: usize = 10;

/// Windows a run is cut into, at least, for [`windowed_percentile`]: the
/// median of fewer is one of them.
const MIN_WINDOWS: usize = 2;

/// The fewest samples in which `pct` has [`SAMPLES_BEYOND`] beyond it.
pub fn window_len(pct: u32) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, pct) >= SAMPLES_BEYOND)
        .expect("pct is below 100")
}

/// The highest tail percentile for which `n` samples make at least
/// [`MIN_WINDOWS`] windows of [`window_len`], or `None` when not even the
/// median does.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|&p| n >= MIN_WINDOWS * window_len(p))
}

/// How many windows `n` samples make for `pct`: as many as hold
/// [`window_len`] samples each, one when there are fewer.
pub fn window_count(n: usize, pct: u32) -> usize {
    (n / window_len(pct)).max(1)
}

/// `values`, in the order they were measured, cut into [`window_count`]
/// equal consecutive windows.
fn windows(values: &[f64], pct: u32) -> impl Iterator<Item = &[f64]> {
    let n = values.len();
    let k = window_count(n, pct);
    (0..k).map(move |i| &values[i * n / k..(i + 1) * n / k])
}

/// The median, over consecutive windows of the run, of each window's `pct`
/// percentile. Every window has ten samples beyond its percentile; a burst
/// of interference spoils the windows it falls in and leaves the median of
/// windows alone, where it would own the tail of the whole sample.
pub fn windowed_percentile(values: &[f64], pct: u32) -> f64 {
    let tails: Vec<f64> = windows(values, pct).map(|w| percentile(w, pct)).collect();
    median(&tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = summarize(&[20.0, 10.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let s = summarize(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.0, 4.0, 4.0));
        assert_eq!(s.iqr_share(), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 99), 99.0);
        assert_eq!(percentile(&v, 100), 100.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
    }

    #[test]
    fn tail_percentile_needs_two_windows_of_ten_samples_beyond_it() {
        assert_eq!(
            [window_len(50), window_len(75), window_len(90)],
            [20, 40, 100]
        );
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40), Some(50));
        assert_eq!(highest_supported_percentile(79), Some(50));
        assert_eq!(highest_supported_percentile(80), Some(75));
        assert_eq!(highest_supported_percentile(199), Some(75));
        assert_eq!(highest_supported_percentile(200), Some(90));
        assert_eq!(highest_supported_percentile(100_000), Some(90));
        assert_eq!(samples_beyond(1500, 99), 15);
    }

    #[test]
    fn windowed_percentile_is_the_median_of_the_windows_tails() {
        // Fewer samples than a window: the plain percentile.
        let few: Vec<f64> = (1..=30).map(f64::from).collect();
        assert_eq!(window_count(few.len(), 90), 1);
        assert_eq!(windowed_percentile(&few, 90), percentile(&few, 90));
        // Three windows of 100 whose p90s are 90, 1090 and 90: a burst that
        // owns one window moves the plain p90 and not the windowed one.
        let calm = (1..=100).map(f64::from);
        let burst = (1..=100).map(|i| f64::from(i) + 1000.0);
        let run: Vec<f64> = calm.clone().chain(burst).chain(calm).collect();
        assert_eq!(window_count(run.len(), 90), 3);
        assert_eq!(windowed_percentile(&run, 90), 90.0);
        assert!(percentile(&run, 90) > 1000.0);
        // 250 samples make two windows of 125, not two of 100 and a rest.
        assert_eq!(window_count(250, 90), 2);
        let sizes: Vec<usize> = windows(&[0.0; 250], 90).map(<[f64]>::len).collect();
        assert_eq!(sizes, [125, 125]);
    }
}
