//! Sample summaries: the percentile rule and the run-to-run spread.

/// Percentiles the tail rule may pick, highest first, each with the
/// number of samples of which one lies beyond it.
const TAIL_LADDER: [(f64, usize); 6] = [
    (99.99, 10_000),
    (99.9, 1_000),
    (99.0, 100),
    (95.0, 20),
    (90.0, 10),
    (75.0, 4),
];

/// Median, the tail the sample supports, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    /// The percentile reported as the tail (0 when the sample supports
    /// none), and its value.
    pub tail_pct: f64,
    pub tail: f64,
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile with at least ten samples beyond it.
pub fn supported_tail(count: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .find(|(_, one_in)| count / one_in >= 10)
        .map(|&(pct, _)| pct)
}

/// The percentile rule: report the median and the highest percentile with
/// at least ten samples beyond it, with the count.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_pct = supported_tail(sorted.len()).unwrap_or(0.0);
    Summary {
        count: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail_pct,
        tail: if tail_pct > 0.0 {
            percentile(&sorted, tail_pct)
        } else {
            0.0
        },
    }
}

pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).p50
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Running means by name, one per thread, merged after the run.
#[derive(Debug, Clone, Default)]
pub struct Means(std::collections::BTreeMap<&'static str, (f64, u64)>);

impl Means {
    pub fn add(&mut self, name: &'static str, value: f64) {
        let slot = self.0.entry(name).or_insert((0.0, 0));
        slot.0 += value;
        slot.1 += 1;
    }

    pub fn merge(&mut self, other: &Means) {
        for (name, (sum, n)) in &other.0 {
            let slot = self.0.entry(name).or_insert((0.0, 0));
            slot.0 += sum;
            slot.1 += n;
        }
    }

    /// 0 when nothing was added under `name`.
    pub fn mean(&self, name: &str) -> f64 {
        match self.0.get(name) {
            Some(&(sum, n)) if n > 0 => sum / n as f64,
            _ => 0.0,
        }
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |s| s.0)
    }
}

/// Nanosecond samples as milliseconds.
pub fn ns_to_ms(samples: &[u64]) -> Vec<f64> {
    samples.iter().map(|&ns| ns as f64 / 1e6).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_tail(39), None);
        assert_eq!(supported_tail(40), Some(75.0));
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.count, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        let few = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail_pct, few.tail), (2.0, 0.0, 0.0));
        assert_eq!(summarize(&[]).p50, 0.0);
    }

    #[test]
    fn means_merge_across_threads() {
        let mut a = Means::default();
        a.add("x", 1.0);
        let mut b = Means::default();
        b.add("x", 3.0);
        b.add("y", 5.0);
        a.merge(&b);
        assert_eq!(
            (a.mean("x"), a.sum("x"), a.mean("y"), a.mean("z")),
            (2.0, 4.0, 5.0, 0.0)
        );
    }
}
