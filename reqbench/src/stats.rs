//! Order statistics and the JSON metric map.

use std::fmt::Write as _;

/// Median (mean of the middle two for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The highest percentile with at least ten samples beyond it: returns
/// the value and which percentile it is. Below eleven samples, the
/// maximum (the 100th percentile).
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (f64::NAN, f64::NAN);
    }
    if n < 11 {
        return (v[n - 1], 100.0);
    }
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64)
}

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        println!("metric: {name:<34} {value:>14.6} {unit}");
        self.0.push((name.to_string(), value, unit.to_string()));
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (k, (name, value, unit)) in self.0.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN or infinity; a missing value is null.
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}
