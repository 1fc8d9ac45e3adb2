//! Sample statistics, named metrics and the result line.

use tpharness::wire::Value;

/// A tail percentile needs at least this many samples beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The median of `samples` (mean of the middle pair for even counts).
/// `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// A tail percentile together with the samples it rests on.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at the reported rank.
    pub value: f64,
    /// The percentile actually reported (at most the one asked for).
    pub pct: f64,
    /// How many samples the percentile was taken over.
    pub samples: usize,
}

/// The nearest-rank `want`-th percentile of `samples`, lowered to the
/// highest percentile that still has [`TAIL_MIN_BEYOND`] samples beyond
/// it. `None` when fewer than `TAIL_MIN_BEYOND + 1` samples exist.
pub fn tail(samples: &[f64], want: f64) -> Option<Tail> {
    let s = sorted(samples);
    let n = s.len();
    if n <= TAIL_MIN_BEYOND {
        return None;
    }
    let wanted = ((want / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = wanted.min(n - 1 - TAIL_MIN_BEYOND);
    Some(Tail {
        value: s[idx],
        pct: (idx + 1) as f64 * 100.0 / n as f64,
        samples: n,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// True for a metric name the result line may carry.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// True for a unit the result line may carry.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

/// One named, unit-carrying measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Dotted name, `layer.quantity[.qualifier]`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, e.g. `ms` or `count`.
    pub unit: &'static str,
    /// How the value was taken (sample count, percentile used), if it
    /// is a statistic over samples.
    pub note: String,
}

/// The metrics one run emits, in emission order.
#[derive(Default, Debug)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Records a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.put_noted(name, value, unit, String::new());
    }

    /// Records a metric with a note on how it was taken.
    pub fn put_noted(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: String,
    ) {
        self.items.push(Metric {
            name: name.into(),
            value,
            unit,
            note,
        });
    }

    /// Records a tail percentile (see [`tail`]), or the median, noted as
    /// such, when too few samples exist for any tail.
    pub fn put_tail(&mut self, name: &str, samples: &[f64], want: f64, unit: &'static str) {
        match tail(samples, want) {
            Some(t) => self.put_noted(
                name,
                t.value,
                unit,
                format!("p{:.1} of {} samples", t.pct, t.samples),
            ),
            None => self.put_noted(
                name,
                median(samples).unwrap_or(0.0),
                unit,
                format!("median of {} samples (too few for a tail)", samples.len()),
            ),
        }
    }

    /// Records a median over samples.
    pub fn put_median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let s = sorted(samples);
        let range = match (s.first(), s.last()) {
            (Some(lo), Some(hi)) => format!(", range {lo:.6}..{hi:.6}"),
            _ => String::new(),
        };
        self.put_noted(
            name,
            median(samples).unwrap_or(0.0),
            unit,
            format!("median of {} samples{range}", samples.len()),
        );
    }

    /// Records the mean of repeated whole-workload times: a throughput,
    /// which averages the host's speed phases where a median of a few
    /// samples would jump between them.
    pub fn put_mean(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        let mean = samples.iter().sum::<f64>() / samples.len().max(1) as f64;
        self.put_noted(
            name,
            mean,
            unit,
            format!("mean of {} samples", samples.len()),
        );
    }

    /// Records the mean of per-segment medians (`medians`) taken over
    /// `samples` samples in all.
    pub fn put_mean_of_medians(
        &mut self,
        name: &str,
        medians: &[f64],
        samples: usize,
        unit: &'static str,
    ) {
        let mean = medians.iter().sum::<f64>() / medians.len().max(1) as f64;
        self.put_noted(
            name,
            mean,
            unit,
            format!(
                "mean of the medians of {} segments, {samples} samples",
                medians.len()
            ),
        );
    }

    /// The recorded metrics.
    pub fn items(&self) -> &[Metric] {
        &self.items
    }

    /// Checks every name, unit and value the result line would carry.
    ///
    /// # Errors
    /// The first offending metric, described.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::HashSet::new();
        for m in &self.items {
            if !valid_name(&m.name) {
                return Err(format!("bad metric name {:?}", m.name));
            }
            if !valid_unit(m.unit) {
                return Err(format!("bad unit {:?} on {}", m.unit, m.name));
            }
            if !m.value.is_finite() {
                return Err(format!("non-finite value {} for {}", m.value, m.name));
            }
            if !seen.insert(m.name.as_str()) {
                return Err(format!("metric {} emitted twice", m.name));
            }
        }
        Ok(())
    }

    /// The `metrics` object of the result line.
    pub fn to_value(&self) -> Value {
        Value::Obj(
            self.items
                .iter()
                .map(|m| {
                    let v = Value::Obj(vec![
                        ("value".to_string(), Value::f64(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]);
                    (m.name.clone(), v)
                })
                .collect(),
        )
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    Value::Obj(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::u64(attempted)),
        ("failed".to_string(), Value::u64(failed)),
        ("metrics".to_string(), metrics.to_value()),
    ])
    .encode()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_the_reported_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = tail(&xs, 99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.pct, 99.0);
        assert_eq!(p99.samples, 1000);

        // 100 samples: p99 would leave 1 beyond, so it drops to p90.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, 99.0).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), 10);

        // The asked-for percentile is kept when it has room.
        let t = tail(&xs, 50.0).unwrap();
        assert_eq!((t.value, t.pct), (50.0, 50.0));
    }

    #[test]
    fn tail_refuses_too_few_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs, 90.0), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&xs, 99.0).unwrap().value, 1.0);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=500).map(f64::from).collect();
        xs.reverse();
        assert_eq!(tail(&xs, 99.0).unwrap().value, 490.0);
    }

    #[test]
    fn names_and_units_follow_the_result_grammar() {
        assert!(valid_name("tpsim.run_ns_per_access.ipcp_streamline"));
        assert!(valid_name("hit_p99_us"));
        assert!(!valid_name(""));
        assert!(!valid_name(".leading_dot"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("brace{x}"));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("µs"));
    }

    #[test]
    fn validate_rejects_duplicates_and_non_finite_values() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "ms");
        assert!(m.validate().is_ok());
        m.put("a", 2.0, "ms");
        assert!(m.validate().is_err());
        let mut m = Metrics::default();
        m.put("a", f64::NAN, "ms");
        assert!(m.validate().is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.put("latency_ms", 1.25, "ms");
        let line = result_line(true, 3, 0, &m);
        let v = tpharness::wire::parse(&line).unwrap();
        let Value::Obj(fields) = &v else {
            panic!("object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let lat = v.get("metrics").unwrap().get("latency_ms").unwrap();
        assert_eq!(lat.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(lat.get("unit").unwrap().as_str(), Some("ms"));
    }
}
