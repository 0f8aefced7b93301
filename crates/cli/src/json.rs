//! Minimal JSON emission for CLI outputs.
//!
//! The offline dependency set includes `serde` but not `serde_json`, so
//! Serialize impls alone could not produce any bytes; instead the CLI
//! hand-writes the few JSON shapes it needs (simulation reports and
//! figures) on the shared `evcap_obs::jsonl` primitives, which escape
//! strings per RFC 8259 and render non-finite floats as `null`.

use std::fmt::Write as _;

use evcap_bench::Figure;
use evcap_obs::jsonl::{escape, num};
use evcap_sim::{BatchReport, SimReport};
use evcap_spec::Objective;

/// Serializes a simulation report. Age fields appear only under a
/// non-default objective, so pre-objective output stays byte-identical.
pub fn sim_report(report: &SimReport, objective: Objective) -> String {
    let mut out = String::with_capacity(512);
    let _ = write!(
        out,
        "{{\"slots\":{},\"events\":{},\"captures\":{},\"qom\":{},\"discharge_rate\":{},\"forced_idle\":{},\"load_balance\":{}",
        report.slots,
        report.events,
        report.captures,
        num(report.qom()),
        num(report.discharge_rate()),
        report.total_forced_idle(),
        num(report.load_balance()),
    );
    if !objective.is_default() {
        let _ = write!(
            out,
            ",\"objective\":\"{objective}\",\"mean_age\":{},\"peak_age\":{}",
            num(report.mean_age()),
            report.peak_age,
        );
    }
    out.push_str(",\"sensors\":[");
    for (i, s) in report.sensors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"activations\":{},\"captures\":{},\"forced_idle\":{},\"outage_slots\":{},\"consumed\":{},\"recharged\":{},\"overflow\":{},\"initial_level\":{},\"final_level\":{}}}",
            s.activations,
            s.captures,
            s.forced_idle,
            s.outage_slots,
            num(s.consumed.as_units()),
            num(s.recharged.as_units()),
            num(s.overflow.as_units()),
            num(s.initial_level.as_units()),
            num(s.final_level.as_units()),
        );
    }
    out.push_str("]}");
    out
}

/// Serializes a batched replication report: cross-seed summaries plus one
/// compact object per replication (full per-sensor detail stays available
/// through `--replications 1` runs or the JSONL export). Age fields appear
/// only under a non-default objective.
pub fn batch_report(report: &BatchReport, objective: Objective) -> String {
    let mut out = String::with_capacity(1024);
    let (qlo, qhi) = report.qom.ci95();
    let _ = write!(
        out,
        "{{\"slots\":{},\"replications\":{},\"qom\":{{\"mean\":{},\"std_dev\":{},\"ci95\":[{},{}]}},\"discharge\":{{\"mean\":{},\"std_dev\":{}}},\"events\":{},\"captures\":{},\"pooled_qom\":{},\"activations\":{},\"forced_idle\":{},\"mean_final_fill\":{},\"mean_capture_gap\":{}",
        report.slots,
        report.replications(),
        num(report.qom.mean),
        num(report.qom.std_dev),
        num(qlo),
        num(qhi),
        num(report.discharge.mean),
        num(report.discharge.std_dev),
        report.events,
        report.captures,
        num(report.pooled_qom()),
        report.activations,
        report.forced_idle,
        num(report.mean_final_fill),
        report.mean_capture_gap.map_or_else(|| "null".to_owned(), num),
    );
    if !objective.is_default() {
        let _ = write!(
            out,
            ",\"objective\":\"{objective}\",\"mean_age\":{{\"mean\":{},\"std_dev\":{}}},\"peak_age\":{}",
            num(report.mean_age.mean),
            num(report.mean_age.std_dev),
            report.peak_age,
        );
    }
    out.push_str(",\"reports\":[");
    for (i, (seed, rep)) in report.seeds.iter().zip(&report.reports).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"seed\":{seed},\"events\":{},\"captures\":{},\"qom\":{},\"discharge_rate\":{}}}",
            rep.events,
            rep.captures,
            num(rep.qom()),
            num(rep.discharge_rate()),
        );
    }
    out.push_str("]}");
    out
}

/// Serializes a figure (id, title, x label, and all series).
pub fn figure(fig: &Figure) -> String {
    let mut out = String::with_capacity(1024);
    let _ = write!(
        out,
        "{{\"id\":\"{}\",\"title\":\"{}\",\"x_label\":\"{}\",\"series\":[",
        escape(&fig.id),
        escape(&fig.title),
        escape(&fig.x_label),
    );
    for (i, series) in fig.series.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{}\",\"points\":[", escape(&series.name));
        for (j, &(x, y)) in series.points.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{}]", num(x), num(y));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use evcap_bench::Series;
    use evcap_sim::SensorStats;

    #[test]
    fn escapes_special_characters() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
        assert_eq!(escape("\r\t"), "\\r\\t");
        // Non-ASCII passes through unescaped (JSON strings are Unicode).
        assert_eq!(escape("µ-QoM π*"), "µ-QoM π*");
        assert_eq!(escape(""), "");
    }

    #[test]
    fn every_control_character_round_trips_through_the_obs_parser() {
        // Cross-validate this writer against the strict RFC 8259 parser in
        // evcap-obs: every C0 control character must come back intact.
        for code in 0u32..0x20 {
            let c = char::from_u32(code).unwrap();
            let line = format!("{{\"s\":\"{}\"}}", escape(&format!("x{c}y")));
            let value = evcap_obs::parse_line(&line)
                .unwrap_or_else(|e| panic!("U+{code:04X} fails to parse: {e}"));
            assert_eq!(
                value.get("s").and_then(evcap_obs::JsonValue::as_str),
                Some(format!("x{c}y").as_str()),
                "U+{code:04X} round-trips"
            );
        }
    }

    #[test]
    fn figure_json_parses_with_the_obs_parser() {
        let mut fig = Figure::new("figX", "control \u{7} title \"q\" \\ \n", "x µ");
        let mut s = Series::new("a\tb");
        s.push(1.0, f64::NAN);
        s.push(2.0, 0.5);
        fig.series.push(s);
        let value = evcap_obs::parse_line(&figure(&fig)).expect("valid JSON");
        assert_eq!(
            value.get("title").and_then(evcap_obs::JsonValue::as_str),
            Some("control \u{7} title \"q\" \\ \n")
        );
        let series = value
            .get("series")
            .and_then(evcap_obs::JsonValue::as_array)
            .unwrap();
        assert_eq!(
            series[0].get("name").and_then(evcap_obs::JsonValue::as_str),
            Some("a\tb")
        );
        // NaN was rendered as null: the first point's y is not a number.
        let points = series[0]
            .get("points")
            .and_then(evcap_obs::JsonValue::as_array)
            .unwrap();
        let first = points[0].as_array().unwrap();
        assert_eq!(first[0].as_f64(), Some(1.0));
        assert_eq!(first[1].as_f64(), None);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(num(1.5), "1.5");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(num(f64::INFINITY), "null");
    }

    #[test]
    fn sim_report_shape() {
        let report = SimReport {
            slots: 100,
            events: 10,
            captures: 7,
            measured_slots: 100,
            age_sum: 450,
            peak_age: 12,
            sensors: vec![SensorStats::default()],
            trace: vec![],
            battery_trace: vec![],
        };
        let json = sim_report(&report, Objective::Qom);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"qom\":0.7"));
        assert!(json.contains("\"sensors\":[{"));
        // The default objective leaves the report age-free…
        assert!(!json.contains("objective"));
        // Balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        // …while an age objective names itself and adds both age fields.
        let aged = sim_report(&report, Objective::AoiMean);
        assert!(aged.contains("\"objective\":\"aoi-mean\""));
        assert!(aged.contains("\"mean_age\":4.5"));
        assert!(aged.contains("\"peak_age\":12"));
        let value = evcap_obs::parse_line(&aged).expect("valid JSON");
        assert_eq!(
            value.get("mean_age").and_then(evcap_obs::JsonValue::as_f64),
            Some(4.5)
        );
    }

    #[test]
    fn figure_shape() {
        let mut fig = Figure::new("figX", "title \"quoted\"", "c");
        let mut s = Series::new("alpha");
        s.push(0.5, 0.25);
        fig.series.push(s);
        let json = figure(&fig);
        assert!(json.contains("\"id\":\"figX\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("[0.5,0.25]"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
