//! Aggregation over repeats and the JSON the benchmark writes.

/// Median and quartiles of one metric over the repeats of a run.
#[derive(Clone)]
pub struct Stat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub values: Vec<f64>,
}

impl Stat {
    /// `None` for an empty sample (a metric with no samples is absent).
    pub fn of(values: Vec<f64>) -> Option<Stat> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let (q1, q3) = quartiles(&sorted);
        Some(Stat {
            median,
            q1,
            q3,
            values,
        })
    }

    pub fn json(&self, unit: &str) -> Json {
        obj([
            ("unit", text(unit)),
            ("median", Json::Float(self.median)),
            ("q1", Json::Float(self.q1)),
            ("q3", Json::Float(self.q3)),
            (
                "values",
                Json::Array(self.values.iter().map(|v| Json::Float(*v)).collect()),
            ),
        ])
    }
}

/// First and third quartiles by the "exclusive" method (the default of
/// Python's `statistics.quantiles(values, n=4)`), on sorted input.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        // Unclamped, as in Python: with a clamped `j` this extrapolates.
        let delta = (i * m) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (q(1), q(3))
}

pub use serde::Json;

pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn text(s: impl Into<String>) -> Json {
    Json::String(s.into())
}

pub fn int(v: u64) -> Json {
    Json::Uint(v as u128)
}

/// Renders `j` on one line with the workspace's JSON writer.
pub fn render(j: &Json) -> String {
    struct Raw<'a>(&'a Json);
    impl serde::Serialize for Raw<'_> {
        fn serialize_json(&self) -> Json {
            self.0.clone()
        }
    }
    serde_json::to_string(&Raw(j)).expect("a JSON tree always renders")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Stat::of((1..=10).map(|v| v as f64).collect()).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Stat::of(vec![4.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        assert!(Stat::of(Vec::new()).is_none());
    }

    #[test]
    fn renders_on_one_line() {
        let j = obj([
            ("a", text("x\"y")),
            ("b", Json::Array(vec![int(1), Json::Bool(true)])),
        ]);
        assert_eq!(render(&j), r#"{"a":"x\"y","b":[1,true]}"#);
    }
}
