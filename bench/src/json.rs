//! The few lines of JSON the benchmark writes, and the rule its names obey.

use std::fmt::Write as _;

/// Whether `name` may name a metric or a workload: it starts with a letter
/// or a digit and holds at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` as a JSON number with all its digits. JSON has no NaN or infinity;
/// those become `null`, which a reader rejects instead of trusting.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed there.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The result line the driver reads: one JSON object on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        for good in ["virt_p50_us", "crypto.sha256_ns_64b", "a-b", "9lives", &"x".repeat(64)] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", ".hidden", "_x", "has space", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("plain"), "\"plain\"");
        assert_eq!(quote("a\"b\\c\nd\u{1}"), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn numbers_keep_their_digits_and_reject_non_finite() {
        assert_eq!(number(1.25), "1.25");
        assert_eq!(number(8.766666666666667), "8.766666666666667");
        assert_eq!(number(3.0), "3");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn result_line_has_the_four_keys_on_one_line() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric { name: "latency_ms", unit: "ms", value: 1.2034 },
                Metric { name: "setup_s", unit: "s", value: 0.8127 },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
    }
}
