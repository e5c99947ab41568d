//! Order statistics and the result record.
//!
//! Timings are reported as a median and a tail percentile. The tail is
//! the highest percentile (capped at the nominal one, e.g. 99) that has
//! at least [`TAIL_MIN_BEYOND`] samples beyond it, so a short sample
//! never reports its maximum as a "p99"; the percentile actually used
//! and the sample count travel with the value.

use std::fmt::Write as _;

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The `q`-quantile of ascending `sorted` by the nearest-rank rule: the
/// sample of rank `⌈q·n⌉` (1-based), clamped to the first sample.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "nearest_rank: empty sample");
    sorted[rank(sorted.len(), q) - 1]
}

/// The 1-based nearest rank `⌈q·n⌉`, clamped to `1..=n`. The tiny
/// offset keeps `0.95 · 200` from rounding up to rank 191.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    n.saturating_sub(rank(n, q))
}

/// The highest quantile at most `cap` with at least
/// [`TAIL_MIN_BEYOND`] of `n` samples beyond it, in steps of 0.001; or
/// `None` when even the median lacks that many.
pub fn supported_quantile(n: usize, cap: f64) -> Option<f64> {
    let mut q = (cap * 1000.0).round() / 1000.0;
    while q >= 0.5 {
        if beyond(n, q) >= TAIL_MIN_BEYOND {
            return Some(q);
        }
        q = ((q - 0.001) * 1000.0).round() / 1000.0;
    }
    None
}

/// A summarized timing sample: median and supported tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at the tail quantile [`Summary::tail_q`].
    pub tail: f64,
    /// The tail quantile actually used (≤ the requested cap).
    pub tail_q: f64,
}

impl Summary {
    /// Summarizes `samples` with a tail capped at `cap` (e.g. 0.99).
    /// Returns `None` when even the median lacks [`TAIL_MIN_BEYOND`]
    /// samples beyond it (fewer than 20 samples).
    pub fn of(samples: &[f64], cap: f64) -> Option<Self> {
        let tail_q = supported_quantile(samples.len(), cap)?;
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Self {
            n: sorted.len(),
            p50: nearest_rank(&sorted, 0.5),
            tail: nearest_rank(&sorted, tail_q),
            tail_q,
        })
    }
}

/// Median of `samples` (nearest rank), or 0 for an empty sample — the
/// value the per-layer metrics carry for a layer a workload never
/// touches.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, 0.5)
}

/// Whether `name` is a legal metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`, replacing an earlier value.
    ///
    /// # Panics
    ///
    /// Panics on an illegal name or a non-finite value: both are bugs
    /// in the benchmark, not measurements.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "illegal metric name {name:?}");
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => *entry = (name.to_string(), value, unit),
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// The recorded value of `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Keeps only the metrics named in `wanted`, in that order, and
    /// returns the names of the wanted ones that were never recorded.
    pub fn select(&mut self, wanted: &[(String, &'static str)]) -> Vec<String> {
        let mut missing = Vec::new();
        let mut kept = Vec::with_capacity(wanted.len());
        for (name, unit) in wanted {
            match self.entries.iter().find(|(n, _, _)| n == name) {
                Some((_, value, got)) if got == unit => kept.push((name.clone(), *value, *unit)),
                Some((_, _, got)) => missing.push(format!("{name} (unit {got}, want {unit})")),
                None => missing.push(name.clone()),
            }
        }
        self.entries = kept;
        missing
    }

    /// The `"metrics"` JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // `{:?}` prints the shortest round-trip form with every
            // significant digit (and `1.0`, never `1`, for integers).
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Escapes `s` for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond it.
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(supported_quantile(1000, 0.99), Some(0.99));
        // 200 samples: p95 is the highest with 10 beyond.
        assert_eq!(supported_quantile(200, 0.99), Some(0.95));
        assert_eq!(beyond(200, 0.951), 9);
        // 150 samples: ⌈0.933·150⌉ = 140 leaves 10.
        assert_eq!(supported_quantile(150, 0.99), Some(0.933));
        // The cap wins when the sample is large.
        assert_eq!(supported_quantile(1_000_000, 0.99), Some(0.99));
        // Too few for even the median.
        assert_eq!(supported_quantile(19, 0.99), None);
        assert_eq!(supported_quantile(20, 0.99), Some(0.5));
    }

    #[test]
    fn summary_reports_count_and_quantile_used() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&samples, 0.99).expect("enough samples");
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.tail_q, 0.95);
        assert_eq!(s.tail, 190.0);
        assert_eq!(
            samples.iter().filter(|&&v| v > s.tail).count(),
            TAIL_MIN_BEYOND
        );
        assert!(Summary::of(&samples[..5], 0.99).is_none());
    }

    #[test]
    fn nearest_rank_matches_the_definition() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(nearest_rank(&sorted, 0.5), 2.0);
        assert_eq!(nearest_rank(&sorted, 0.51), 3.0);
        assert_eq!(nearest_rank(&sorted, 1.0), 4.0);
        assert_eq!(nearest_rank(&sorted, 0.0), 1.0);
        assert_eq!(median_or_zero(&[]), 0.0);
    }

    #[test]
    fn metric_name_grammar() {
        for good in [
            "setup_s",
            "api.run_ms.3-majority",
            "sim.push_pop_ns",
            "a",
            "9x",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".lead",
            "_lead",
            "-lead",
            "has space",
            "p99%",
            "ü",
            "a/b",
            &long,
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn metrics_json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.set("latency_ms", 1.203_456_789_012_3, "ms");
        m.set("count", 3.0, "count");
        m.set("latency_ms", 1.5, "ms");
        assert_eq!(
            m.to_json(),
            "{\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \
             \"count\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
        let missing = m.select(&[("count".into(), "count"), ("gone".into(), "s")]);
        assert_eq!(missing, vec!["gone".to_string()]);
        assert_eq!(
            m.to_json(),
            "{\"count\": {\"value\": 3.0, \"unit\": \"count\"}}"
        );
    }

    #[test]
    #[should_panic(expected = "illegal metric name")]
    fn illegal_names_are_refused() {
        Metrics::default().set("bad name", 1.0, "s");
    }
}
