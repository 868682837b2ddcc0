//! Metric rows, the result line, and the statistics behind them.

use eirene_sim::CycleHistogram;
use eirene_telemetry::JsonValue;

/// One named metric. `value` is `None` when the quantity could not be
/// measured on this host (the row then prints as unavailable and is left
/// out of the result line rather than reported as zero).
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: Option<f64>,
    pub unit: &'static str,
    /// How many samples the value summarizes, in words.
    pub samples: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value: Some(value),
            unit,
            samples: samples.into(),
        }
    }

    pub fn maybe(
        name: &'static str,
        value: Option<f64>,
        unit: &'static str,
        samples: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples: samples.into(),
        }
    }
}

/// Outcome of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Requests submitted across the run.
    pub attempted: u64,
    /// Requests whose outcome was wrong, refused, timed out or never
    /// resolved, plus one per failed whole-run check (structure, final
    /// contents, phase-row sums).
    pub failed: u64,
    /// A line per failure kind, for the log.
    pub failures: Vec<String>,
    /// The metrics of the run: end-to-end rows for an untraced run,
    /// per-layer rows for a traced one.
    pub metrics: Vec<Metric>,
    /// Rows printed in the table but left out of the result line.
    pub notes: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty() && self.attempted > 0
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Records `count` failed operations with a reason.
    pub fn fail(&mut self, count: u64, reason: String) {
        self.failed += count.max(1);
        if self.failures.len() < 32 {
            self.failures.push(reason);
        }
    }

    /// The final result line: one JSON object with `correct`,
    /// `attempted`, `failed` and the measured metrics.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .filter_map(|m| {
                m.value.map(|v| {
                    (
                        m.name.to_string(),
                        JsonValue::obj(vec![
                            ("value", JsonValue::from(v)),
                            ("unit", JsonValue::from(m.unit)),
                        ]),
                    )
                })
            })
            .collect();
        JsonValue::obj(vec![
            ("correct", JsonValue::from(self.correct())),
            ("attempted", JsonValue::from(self.attempted)),
            ("failed", JsonValue::from(self.failed)),
            ("metrics", JsonValue::Obj(metrics)),
        ])
        .to_json()
    }

    /// Human-readable table: every metric with its unit and sample count,
    /// plus `failed_frac`.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.notes) {
            let value = match m.value {
                Some(v) => format!("{v:>14.6}"),
                None => format!("{:>14}", "unavailable"),
            };
            out.push_str(&format!(
                "{:<42} {value} {:<12} {}\n",
                m.name, m.unit, m.samples
            ));
        }
        out.push_str(&format!(
            "{:<42} {:>14.6} {:<12} {} failed of {} attempted\n",
            "failed_frac",
            self.failed_frac(),
            "ratio",
            self.failed,
            self.attempted
        ));
        for f in &self.failures {
            out.push_str(&format!("FAILED: {f}\n"));
        }
        out
    }
}

/// Median of the values (mean of the middle two for an even count);
/// 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile of a [`CycleHistogram`], linearly interpolated inside
/// its bucket.
///
/// `CycleHistogram::quantile` answers with the midpoint of the bucket
/// holding the rank, so two runs whose quantiles fall in the same ~6 %
/// bucket report the same number. This recovers the rank's position
/// inside the bucket (by bisecting ranks for the bucket's first and last
/// member) and interpolates, clamped to the exact observed min and max.
pub fn interp_quantile(h: &CycleHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let at = |rank: u64| CycleHistogram::bucket_index(h.quantile((rank as f64 - 0.5) / n as f64));
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    let bucket = at(rank);
    // First rank in the bucket: ranks are sorted, so buckets are monotone.
    let (mut lo, mut hi) = (1, rank);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if at(mid) < bucket {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    let first = lo;
    let (mut lo, mut hi) = (rank, n);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if at(mid) > bucket {
            hi = mid - 1;
        } else {
            lo = mid;
        }
    }
    let last = lo;
    let (low, high) = CycleHistogram::bucket_bounds(bucket);
    let width = (high - low + 1) as f64;
    let pos = (rank - first) as f64 + 0.5;
    let est = low as f64 + pos / (last - first + 1) as f64 * width;
    est.clamp(h.min() as f64, h.max() as f64)
}

/// The paper's QoS metric (§8.2): `max(|max - avg|, |avg - min|) / avg`.
pub fn qos_spread(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let avg = values.iter().sum::<f64>() / values.len() as f64;
    if avg == 0.0 {
        return 0.0;
    }
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - avg).max(avg - min) / avg
}

/// Ratio that reads 0 when the denominator is 0 (a layer that did no
/// work on this workload).
pub fn per(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn interpolated_quantile_tracks_exact_quantile() {
        let mut h = CycleHistogram::new();
        let values: Vec<u64> = (0..10_000u64).map(|i| 1_000 + i * 7).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = values[((q * values.len() as f64).ceil() as usize) - 1] as f64;
            let est = interp_quantile(&h, q);
            assert!(
                (est - exact).abs() / exact < 0.01,
                "q={q}: {est} vs {exact}"
            );
        }
        // Inside one bucket, a shifted distribution moves the estimate
        // even where the bucket midpoint would not.
        let mut h2 = CycleHistogram::new();
        for &v in &values {
            h2.record(v + 3);
        }
        assert_eq!(h.p50(), h2.p50());
        assert!(interp_quantile(&h2, 0.5) > interp_quantile(&h, 0.5));
    }

    #[test]
    fn interpolated_quantile_handles_unit_buckets_and_singletons() {
        let mut h = CycleHistogram::new();
        for v in [5u64, 6, 7, 8] {
            h.record(v);
        }
        // A unit-wide bucket is read as the interval [v, v + 1).
        assert_eq!(interp_quantile(&h, 0.5), 6.0 + 0.5);
        let mut one = CycleHistogram::new();
        one.record(123_456);
        assert_eq!(interp_quantile(&one, 0.99), 123_456.0);
        assert_eq!(interp_quantile(&CycleHistogram::new(), 0.5), 0.0);
    }

    #[test]
    fn qos_spread_matches_definition() {
        assert!((qos_spread(&[8.0, 10.0, 12.0]) - 0.2).abs() < 1e-12);
        assert!((qos_spread(&[10.0, 10.0, 13.0]) - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(qos_spread(&[]), 0.0);
    }

    #[test]
    fn result_line_drops_unavailable_rows() {
        let r = Report {
            attempted: 10,
            failed: 0,
            failures: vec![],
            metrics: vec![
                Metric::new("a", 1.5, "ms", "x"),
                Metric::maybe("b", None, "s", "y"),
            ],
            notes: vec![Metric::new("c", 2.0, "ratio", "z")],
        };
        let doc = JsonValue::parse(&r.json_line()).unwrap();
        assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
        let m = doc.get("metrics").unwrap();
        assert_eq!(
            m.get("a")
                .and_then(|a| a.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.5)
        );
        assert!(m.get("b").is_none());
        assert!(m.get("c").is_none());
        assert!(r.table().contains("c "));
    }
}
