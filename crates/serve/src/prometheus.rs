//! Prometheus text exposition: rendering helpers and a mini-parser.
//!
//! [`crate::metrics::Metrics::render_prometheus`] walks the metrics table
//! and writes each family through this module's primitives (samples with
//! escaped labels, cumulative histograms). The parser for the text format
//! (version 0.0.4) is what the e2e tests and the smoke tooling use to
//! validate scrapes. The parser accepts exactly the subset
//! the renderer emits plus comments: `name{label="v",...} value`, one
//! sample per line, no timestamps.

use std::fmt::Write as _;

/// The content type of the text exposition format.
pub const CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// One parsed sample: metric name, label pairs, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (`evcap_requests_total`).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// Sample value (`+Inf`/`-Inf`/`NaN` accepted).
    pub value: f64,
}

impl Sample {
    /// The value of a label, if present.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Appends `# TYPE` metadata for a family.
pub(crate) fn type_line(out: &mut String, name: &str, kind: &str) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Appends one sample; `labels` are raw `(name, value)` pairs, values
/// escaped per the exposition format.
pub(crate) fn sample<'a>(
    out: &mut String,
    name: &str,
    labels: impl IntoIterator<Item = (&'a str, &'a str)>,
    value: f64,
) {
    out.push_str(name);
    let mut open = false;
    for (k, v) in labels {
        out.push(if open { ',' } else { '{' });
        open = true;
        let _ = write!(out, "{k}=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if open {
        out.push('}');
    }
    end_line(out, value);
}

/// Renders a full histogram (cumulative `_bucket` series, `_sum`,
/// `_count`) from nanosecond buckets, in seconds. `+Inf` and `_count` are
/// the snapshot's last cumulative count, so a scrape that races an
/// observation stays monotone.
pub(crate) fn histogram(out: &mut String, name: &str, buckets_ns: &[(u64, u64)], sum_ns: u64) {
    let count = buckets_ns.last().map_or(0, |&(_, cumulative)| cumulative);
    for &(upper_ns, cumulative) in buckets_ns {
        if upper_ns != u64::MAX {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                upper_ns as f64 / 1e9
            );
        }
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {count}");
    let _ = write!(out, "{name}_sum");
    end_line(out, sum_ns as f64 / 1e9);
    let _ = writeln!(out, "{name}_count {count}");
}

/// Ends a sample line with its value (`+Inf`, `-Inf` and `NaN` spelled out).
fn end_line(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str(" NaN\n");
    } else if v.is_infinite() {
        out.push_str(if v > 0.0 { " +Inf\n" } else { " -Inf\n" });
    } else {
        let _ = writeln!(out, " {v}");
    }
}

fn is_name_char(c: char, first: bool) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':' || (!first && c.is_ascii_digit())
}

/// Parses one exposition document into samples (comments skipped).
///
/// # Errors
///
/// Returns a description naming the offending line on any malformed
/// sample.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        out.push(parse_sample(line).map_err(|e| format!("line {}: {e}: `{line}`", lineno + 1))?);
    }
    Ok(out)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let mut chars = line.char_indices().peekable();
    let mut name_end = 0;
    let mut first = true;
    for (i, c) in chars.by_ref() {
        if is_name_char(c, first) {
            name_end = i + c.len_utf8();
            first = false;
        } else {
            break;
        }
    }
    if name_end == 0 {
        return Err("missing metric name".to_owned());
    }
    let name = line[..name_end].to_owned();
    let rest = &line[name_end..];
    let (labels, rest) = if let Some(body) = rest.strip_prefix('{') {
        parse_labels(body)?
    } else {
        (Vec::new(), rest)
    };
    let value_text = rest.trim();
    if value_text.is_empty() {
        return Err("missing value".to_owned());
    }
    if value_text.split_ascii_whitespace().count() > 1 {
        return Err("unexpected trailing fields (timestamps unsupported)".to_owned());
    }
    let value = match value_text {
        "+Inf" | "Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        other => other
            .parse()
            .map_err(|_| format!("invalid value `{other}`"))?,
    };
    Ok(Sample {
        name,
        labels,
        value,
    })
}

type Labels = Vec<(String, String)>;

/// Parses `k="v",...}` (the opening brace already consumed); returns the
/// labels and the text after the closing brace.
fn parse_labels(body: &str) -> Result<(Labels, &str), String> {
    let mut labels = Vec::new();
    let mut rest = body.trim_start();
    loop {
        if let Some(after) = rest.strip_prefix('}') {
            return Ok((labels, after));
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| "label without `=`".to_owned())?;
        let key = rest[..eq].trim().to_owned();
        if key.is_empty()
            || !key
                .chars()
                .enumerate()
                .all(|(i, c)| is_name_char(c, i == 0))
        {
            return Err(format!("invalid label name `{key}`"));
        }
        rest = rest[eq + 1..]
            .strip_prefix('"')
            .ok_or_else(|| "label value must be quoted".to_owned())?;
        let mut value = String::new();
        let mut bytes = rest.char_indices();
        let mut consumed = None;
        while let Some((i, c)) = bytes.next() {
            match c {
                '"' => {
                    consumed = Some(i + 1);
                    break;
                }
                '\\' => match bytes.next() {
                    Some((_, '\\')) => value.push('\\'),
                    Some((_, '"')) => value.push('"'),
                    Some((_, 'n')) => value.push('\n'),
                    _ => return Err("bad escape in label value".to_owned()),
                },
                c => value.push(c),
            }
        }
        let end = consumed.ok_or_else(|| "unterminated label value".to_owned())?;
        labels.push((key, value));
        rest = rest[end..].trim_start();
        if let Some(after_comma) = rest.strip_prefix(',') {
            rest = after_comma.trim_start();
        }
    }
}

/// Finds the value of a sample by name and a label subset (every pair in
/// `labels` must match; extra labels on the sample are allowed).
pub fn find(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
        .map(|s| s.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_samples() {
        let mut out = String::new();
        type_line(&mut out, "evcap_requests_total", "counter");
        sample(&mut out, "evcap_requests_total", [], 42.0);
        sample(
            &mut out,
            "evcap_cache_hits_total",
            [("cache", "solve"), ("shard", "0")],
            7.0,
        );
        sample(&mut out, "evcap_weird", [("v", "a\"b\\c\nd")], 1.5);
        let samples = parse(&out).expect("round trip");
        assert_eq!(samples.len(), 3);
        assert_eq!(find(&samples, "evcap_requests_total", &[]), Some(42.0));
        assert_eq!(
            find(
                &samples,
                "evcap_cache_hits_total",
                &[("cache", "solve"), ("shard", "0")]
            ),
            Some(7.0)
        );
        assert_eq!(samples[2].label("v"), Some("a\"b\\c\nd"));
    }

    #[test]
    fn histogram_is_cumulative_with_inf_terminal() {
        let mut out = String::new();
        // The last bucket is the unbounded one: `+Inf` and `_count` read it.
        histogram(
            &mut out,
            "evcap_request_latency_seconds",
            &[(1023, 2), (2047, 5), (u64::MAX, 6)],
            12_000,
        );
        let samples = parse(&out).expect("valid");
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.name == "evcap_request_latency_seconds_bucket")
            .collect();
        assert_eq!(buckets.len(), 3);
        assert_eq!(buckets.last().and_then(|s| s.label("le")), Some("+Inf"));
        assert_eq!(buckets.last().map(|s| s.value), Some(6.0));
        assert!(buckets.windows(2).all(|w| w[0].value <= w[1].value));
        assert_eq!(
            find(&samples, "evcap_request_latency_seconds_sum", &[]),
            Some(12e-6)
        );
        assert_eq!(
            find(&samples, "evcap_request_latency_seconds_count", &[]),
            Some(6.0)
        );
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse("1bad_name 1").is_err());
        assert!(parse("name").is_err());
        assert!(parse("name{k=v} 1").is_err());
        assert!(parse("name{k=\"v} 1").is_err());
        assert!(parse("name{k=\"v\"} x").is_err());
        assert!(parse("name 1 1234567890").is_err());
        // Comments and blanks are fine.
        assert_eq!(parse("# HELP x y\n\n# TYPE x counter\n").unwrap().len(), 0);
        // Special values parse.
        let s = parse("x{le=\"+Inf\"} +Inf").unwrap();
        assert!(s[0].value.is_infinite());
    }
}
