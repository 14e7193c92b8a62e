//! Order statistics, metric records and the result line.

use std::fmt::Write as _;

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile of `n` samples: the
/// smallest rank with at least `pct` % of the samples at or below it.
/// Integer arithmetic, so `pct = 90, n = 100` is rank 90 exactly.
pub fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n.max(1))
}

/// Samples strictly beyond the `pct`-th percentile's rank.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - rank(n, pct)
}

/// The `pct`-th percentile of `samples` by the nearest-rank order
/// statistic, or `None` for an empty sample.
pub fn percentile(samples: &[f64], pct: usize) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), pct) - 1])
}

/// Like [`percentile`], but `None` unless at least [`MIN_BEYOND`] samples
/// lie beyond it: a tail percentile is only reported when the sample
/// supports it.
pub fn tail_percentile(samples: &[f64], pct: usize) -> Option<f64> {
    if beyond(samples.len(), pct) < MIN_BEYOND {
        return None;
    }
    percentile(samples, pct)
}

/// The median (50th percentile, nearest rank).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50)
}

/// Whether `name` is a valid metric name: a letter or digit first, then
/// letters, digits, `_`, `.` and `-`, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarizes (1 for a single measurement).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64, samples: usize) -> Self {
        debug_assert!(valid_name(name), "bad metric name {name:?}");
        Metric {
            name,
            unit,
            value,
            samples,
        }
    }
}

/// A JSON number: finite values print in full (shortest round-trip
/// form), anything else as 0 so the line always parses.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0".into()
    }
}

/// JSON string literal for names and messages (escapes quotes,
/// backslashes and control characters).
pub fn json_string(s: &str) -> String {
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

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": …, "unit": …}}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Human-readable metric table: name, value, unit and sample count (for
/// a ratio, its base).
pub fn metric_table(metrics: &[Metric]) -> String {
    let mut out = format!(
        "  {:<26} {:>16}  {:<14} {:>10}\n",
        "metric", "value", "unit", "samples/base"
    );
    for m in metrics {
        let _ = writeln!(
            out,
            "  {:<26} {:>16.6}  {:<14} {:>10}",
            m.name, m.value, m.unit, m.samples
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_order_statistic() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50), Some(50.0));
        assert_eq!(percentile(&xs, 90), Some(90.0));
        assert_eq!(percentile(&xs, 99), Some(99.0));
        assert_eq!(percentile(&xs, 100), Some(100.0));
        // Unsorted input, odd count: the median is the middle sample.
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        // Even count: the lower middle (nearest rank, no interpolation).
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(percentile(&[7.0], 90), Some(7.0));
        assert_eq!(percentile(&[], 50), None);
        assert_eq!(rank(10, 0), 1);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(beyond(1000, 99), 10);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs, 90), Some(90.0));
        assert_eq!(tail_percentile(&xs[..99], 90), None);
        assert_eq!(tail_percentile(&xs[..40], 75), Some(30.0));
        assert_eq!(tail_percentile(&xs[..39], 75), None);
    }

    #[test]
    fn metric_names_use_the_allowed_charset() {
        for ok in ["ingest_ms.p50", "setup_s", "wire.reread_share", "a-b", "9x"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".x",
            "_x",
            "-x",
            "a b",
            "route_µs",
            "a/b",
            "a\"b",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let line = result_line(
            true,
            3,
            0,
            &[
                Metric::new("a.b", "ms", 1.25, 7),
                Metric::new("c", "1/s", f64::NAN, 1),
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a.b\": \
             {\"value\": 1.25, \"unit\": \"ms\"}, \"c\": {\"value\": 0, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(json_string("a\"\\\n"), "\"a\\\"\\\\\\u000a\"");
    }
}
