//! Sample summaries: medians, quartiles and tail percentiles that refuse
//! to report a tail the sample cannot support.

/// A tail percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// A set of measurements (any unit), kept in full.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

/// Why a percentile could not be reported.
#[derive(Debug, Clone, PartialEq)]
pub enum PercentileError {
    /// No samples at all.
    Empty,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the percentile.
    TooFewBeyond { count: usize, beyond: usize },
}

impl std::fmt::Display for PercentileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PercentileError::Empty => write!(f, "no samples"),
            PercentileError::TooFewBeyond { count, beyond } => write!(
                f,
                "{count} samples leave {beyond} beyond the percentile; {MIN_BEYOND} are needed"
            ),
        }
    }
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// The number of samples.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    fn sorted(&mut self) -> &[f64] {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.values
    }

    /// The `p`-quantile (0 < p < 1) by linear interpolation between the
    /// closest ranks; no tail check.
    fn quantile(&mut self, p: f64) -> Option<f64> {
        let v = self.sorted();
        if v.is_empty() {
            return None;
        }
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
    }

    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// First quartile, median and third quartile.
    pub fn quartiles(&mut self) -> Option<(f64, f64, f64)> {
        Some((self.quantile(0.25)?, self.quantile(0.5)?, self.quantile(0.75)?))
    }

    /// A tail percentile (`p` ≥ 0.5), refused unless at least
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn tail(&mut self, p: f64) -> Result<f64, PercentileError> {
        let count = self.count();
        if count == 0 {
            return Err(PercentileError::Empty);
        }
        let beyond = ((1.0 - p) * count as f64).floor() as usize;
        if beyond < MIN_BEYOND {
            return Err(PercentileError::TooFewBeyond { count, beyond });
        }
        Ok(self.quantile(p).expect("non-empty"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.quartiles(), Some((2.0, 3.0, 4.0)));
    }

    #[test]
    fn tail_percentile_reports_count_and_refuses_thin_tails() {
        let mut s = Samples::default();
        for i in 0..999 {
            s.push(f64::from(i));
        }
        // 999 samples leave 9 beyond p99: refused, with the count.
        assert_eq!(s.tail(0.99), Err(PercentileError::TooFewBeyond { count: 999, beyond: 9 }));
        s.push(999.0);
        assert_eq!(s.count(), 1000);
        let p99 = s.tail(0.99).expect("1000 samples leave 10 beyond p99");
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
        assert_eq!(Samples::default().tail(0.5), Err(PercentileError::Empty));
    }
}
