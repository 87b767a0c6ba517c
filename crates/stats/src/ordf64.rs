//! A totally ordered `f64` newtype usable as a key in ordered containers.
//!
//! The σ-cache stores pre-computed distributions in "a sorted container like
//! a B-tree" keyed by standard deviation (paper, Section VI-B). Rust's
//! `BTreeMap` requires `Ord` keys, which `f64` does not provide; [`OrdF64`]
//! supplies the total order defined by `f64::total_cmp` while rejecting NaN
//! at construction so that the order over cache keys is the familiar numeric
//! one.

use std::cmp::Ordering;
use std::fmt;

/// An `f64` wrapper with a total order, guaranteed non-NaN.
#[derive(Clone, Copy, PartialEq)]
pub struct OrdF64(f64);

impl OrdF64 {
    /// Wraps a finite (or infinite, but not NaN) float.
    ///
    /// # Panics
    /// Panics if `v` is NaN — ordered containers keyed by NaN silently
    /// misbehave, so this is rejected eagerly.
    pub fn new(v: f64) -> Self {
        assert!(!v.is_nan(), "OrdF64 cannot hold NaN");
        OrdF64(v)
    }
}

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Debug for OrdF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for OrdF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<OrdF64> for f64 {
    fn from(v: OrdF64) -> f64 {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn orders_numerically() {
        let mut m = BTreeMap::new();
        for v in [3.0, 1.0, 2.5, -4.0, 0.0] {
            m.insert(OrdF64::new(v), v);
        }
        let keys: Vec<f64> = m.keys().map(|&k| f64::from(k)).collect();
        assert_eq!(keys, vec![-4.0, 0.0, 1.0, 2.5, 3.0]);
    }

    #[test]
    fn range_queries_work() {
        let mut m = BTreeMap::new();
        for v in [0.5, 1.0, 2.0, 4.0, 8.0] {
            m.insert(OrdF64::new(v), ());
        }
        // Largest key ≤ 3.0 must be 2.0 (the σ-cache lookup pattern).
        let below = m.range(..=OrdF64::new(3.0)).next_back().unwrap().0;
        let below = f64::from(*below);
        assert_eq!(below, 2.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn rejects_nan() {
        OrdF64::new(f64::NAN);
    }
}
