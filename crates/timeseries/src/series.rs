//! Time-series containers.
//!
//! A [`TimeSeries`] is the paper's `S = ⟨r_1, r_2, …, r_t⟩`: a sequence of
//! timestamped raw (imprecise) values. Timestamps are `i64` ticks (the unit
//! is up to the producer — seconds for the GPS dataset, 2-minute slots for
//! the campus dataset) and are required to be strictly increasing.

use std::fmt;

/// A timestamped sequence of raw values.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    name: String,
    timestamps: Vec<i64>,
    values: Vec<f64>,
}

/// One `(time, value)` observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Timestamp tick.
    pub time: i64,
    /// Raw (imprecise) value `r_t`.
    pub value: f64,
}

impl TimeSeries {
    /// Creates a series from parallel timestamp/value vectors.
    ///
    /// # Panics
    /// Panics if the vectors have different lengths or timestamps are not
    /// strictly increasing.
    pub fn from_parts(name: impl Into<String>, timestamps: Vec<i64>, values: Vec<f64>) -> Self {
        assert_eq!(
            timestamps.len(),
            values.len(),
            "TimeSeries: timestamp/value length mismatch"
        );
        assert!(
            timestamps.windows(2).all(|w| w[0] < w[1]),
            "TimeSeries: timestamps must be strictly increasing"
        );
        TimeSeries {
            name: name.into(),
            timestamps,
            values,
        }
    }

    /// Creates a regularly sampled series starting at `t0` with the given
    /// tick interval.
    pub fn regular(name: impl Into<String>, t0: i64, interval: i64, values: Vec<f64>) -> Self {
        assert!(
            interval > 0,
            "TimeSeries::regular: interval must be positive"
        );
        let timestamps = (0..values.len() as i64)
            .map(|i| t0 + i * interval)
            .collect();
        TimeSeries {
            name: name.into(),
            timestamps,
            values,
        }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw values `r_1 .. r_t`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (used by error injection).
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The timestamps.
    pub fn timestamps(&self) -> &[i64] {
        &self.timestamps
    }

    /// Positional sub-range `[start, end)` as a borrowed slice of values.
    pub fn value_slice(&self, start: usize, end: usize) -> &[f64] {
        &self.values[start..end]
    }

    /// Iterator over observations.
    pub fn iter(&self) -> impl Iterator<Item = Observation> + '_ {
        self.timestamps
            .iter()
            .zip(&self.values)
            .map(|(&time, &value)| Observation { time, value })
    }

    /// Returns a positionally truncated copy with at most `n` leading
    /// observations (used to build experiment workloads of graded size).
    pub fn head(&self, n: usize) -> TimeSeries {
        let n = n.min(self.len());
        TimeSeries {
            name: self.name.clone(),
            timestamps: self.timestamps[..n].to_vec(),
            values: self.values[..n].to_vec(),
        }
    }
}

impl fmt::Display for TimeSeries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TimeSeries[{}; {} obs", self.name, self.len())?;
        if !self.is_empty() {
            write!(
                f,
                "; t ∈ [{}, {}]",
                self.timestamps[0],
                self.timestamps[self.len() - 1]
            )?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeSeries {
        TimeSeries::regular("temp", 0, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0])
    }

    #[test]
    fn regular_series_timestamps() {
        let s = sample();
        assert_eq!(s.timestamps(), &[0, 2, 4, 6, 8]);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn head_truncates() {
        let s = sample();
        assert_eq!(s.head(2).values(), &[1.0, 2.0]);
        assert_eq!(s.head(99).len(), 5);
    }

    #[test]
    fn iter_yields_observations() {
        let s = sample();
        let obs: Vec<Observation> = s.iter().collect();
        assert_eq!(
            obs[1],
            Observation {
                time: 2,
                value: 2.0
            }
        );
        assert_eq!(obs.len(), 5);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_rejects_duplicates() {
        TimeSeries::from_parts("x", vec![0, 1, 1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn display_is_informative() {
        let s = sample();
        let d = format!("{s}");
        assert!(d.contains("temp"));
        assert!(d.contains("5 obs"));
    }
}
