//! Exposition: a unified snapshot [`Frame`] rendered as Prometheus
//! text or JSON.
//!
//! `pic-obs` has zero dependencies (no serde), so both renderers are
//! hand-rolled. The JSON renderer emits a stable, schema'd document;
//! the Prometheus renderer follows the text exposition format
//! (`# TYPE` lines, cumulative `le` buckets for histograms) so the
//! output can be scraped or pushed without an HTTP endpoint — write it
//! to a file or pipe it wherever a scraper can read it.
//!
//! A [`Frame`] is cumulative; [`Frame::delta`] subtracts an earlier
//! frame to produce a windowed view for rate computation. Gauges are
//! instantaneous and pass through a delta unchanged.

use std::collections::HashSet;

use crate::hist::HistogramSnapshot;
use crate::span::StageSnapshot;

/// Escapes a string for use as a Prometheus label *value*: `\` → `\\`,
/// `"` → `\"`, newline → `\n`. Use this whenever an external id (model
/// name, client id) is interpolated into `name{label="<value>"}` —
/// a raw `"` would otherwise break the exposition line.
#[must_use]
pub fn prom_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// One stage row in a frame.
#[derive(Debug, Clone, PartialEq)]
pub struct StageFrame {
    /// Stable stage label (`"write"`, `"compute"`, ...).
    pub stage: &'static str,
    /// Wall-clock samples of the stage (self time).
    pub hist: HistogramSnapshot,
    /// Modeled energy attributed to the stage, J.
    pub energy_j: f64,
}

impl From<StageSnapshot> for StageFrame {
    fn from(s: StageSnapshot) -> StageFrame {
        StageFrame {
            stage: s.stage.label(),
            hist: s.hist,
            energy_j: s.energy_j,
        }
    }
}

/// A unified, renderable snapshot of counters, gauges, stage
/// statistics, and named histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Frame {
    /// Seconds since some fixed origin (typically registry creation).
    pub at_s: f64,
    /// Monotone cumulative counters, `(name, value)`.
    pub counters: Vec<(&'static str, u64)>,
    /// Instantaneous gauges, `(name, value)`. Names are owned so
    /// per-instance gauges (e.g. per-device residency) can be emitted.
    pub gauges: Vec<(String, f64)>,
    /// Per-stage latency/energy rows, lifecycle order.
    pub stages: Vec<StageFrame>,
    /// Additional named histograms (e.g. end-to-end latency).
    pub hists: Vec<(&'static str, HistogramSnapshot)>,
}

impl Frame {
    /// The windowed difference `self - earlier`: counters and
    /// histogram buckets subtract (saturating), stage energy
    /// subtracts, gauges and `at_s` keep `self`'s instantaneous
    /// values. Entries are matched by name; names present only in
    /// `self` pass through unchanged.
    #[must_use]
    pub fn delta(&self, earlier: &Frame) -> Frame {
        let counter = |name: &str| earlier.counters.iter().find(|(n, _)| *n == name);
        let stage = |name: &str| earlier.stages.iter().find(|s| s.stage == name);
        let hist = |name: &str| earlier.hists.iter().find(|(n, _)| *n == name);
        Frame {
            at_s: self.at_s,
            counters: self
                .counters
                .iter()
                .map(|&(n, v)| (n, v.saturating_sub(counter(n).map_or(0, |&(_, e)| e))))
                .collect(),
            gauges: self.gauges.clone(),
            stages: self
                .stages
                .iter()
                .map(|s| match stage(s.stage) {
                    Some(e) => StageFrame {
                        stage: s.stage,
                        hist: s.hist.delta(&e.hist),
                        energy_j: (s.energy_j - e.energy_j).max(0.0),
                    },
                    None => s.clone(),
                })
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| match hist(n) {
                    Some((_, e)) => (*n, h.delta(e)),
                    None => (*n, h.clone()),
                })
                .collect(),
        }
    }

    /// Renders the frame in the Prometheus text exposition format.
    /// Metric names are `{prefix}_{name}`; histograms emit cumulative
    /// `le` buckets in seconds plus `_sum`/`_count`. A name may embed
    /// a `{label="value"}` suffix (escape values with
    /// [`prom_label_value`]); the `# TYPE` line then uses the bare
    /// metric name and is emitted once per family, not per series.
    #[must_use]
    pub fn to_prometheus(&self, prefix: &str) -> String {
        let mut out = String::with_capacity(4096);
        let mut typed = HashSet::new();
        for &(name, value) in &self.counters {
            prom_scalar(&mut out, &mut typed, prefix, name, "counter", value as f64);
        }
        for (name, value) in &self.gauges {
            prom_scalar(&mut out, &mut typed, prefix, name, "gauge", *value);
        }
        for stage in &self.stages {
            let name = format!("stage_{}_seconds", stage.stage);
            prom_hist(&mut out, prefix, &name, &stage.hist);
            prom_scalar(
                &mut out,
                &mut typed,
                prefix,
                &format!("stage_{}_energy_joules", stage.stage),
                "counter",
                stage.energy_j,
            );
        }
        for (name, hist) in &self.hists {
            prom_hist(&mut out, prefix, &format!("{name}_seconds"), hist);
        }
        out
    }

    /// Renders the frame as a JSON object:
    /// `{"at_s", "counters": {..}, "gauges": {..}, "stages": [..],
    /// "hists": {..}}`. Stage/histogram objects carry `count`,
    /// `mean_s`, `p50_s`, `p99_s`, `p999_s`, `max_s` (and stage rows
    /// `energy_j`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push('{');
        push_key(&mut out, "at_s");
        push_f64(&mut out, self.at_s);
        out.push(',');
        push_key(&mut out, "counters");
        out.push('{');
        for (i, &(name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            out.push_str(&value.to_string());
        }
        out.push_str("},");
        push_key(&mut out, "gauges");
        out.push('{');
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            push_f64(&mut out, *value);
        }
        out.push_str("},");
        push_key(&mut out, "stages");
        out.push('[');
        for (i, stage) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            push_key(&mut out, "stage");
            push_json_str(&mut out, stage.stage);
            out.push(',');
            json_hist_fields(&mut out, &stage.hist);
            out.push(',');
            push_key(&mut out, "energy_j");
            push_f64(&mut out, stage.energy_j);
            out.push('}');
        }
        out.push_str("],");
        push_key(&mut out, "hists");
        out.push('{');
        for (i, (name, hist)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_key(&mut out, name);
            out.push('{');
            json_hist_fields(&mut out, hist);
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

fn prom_scalar(
    out: &mut String,
    typed: &mut HashSet<String>,
    prefix: &str,
    name: &str,
    kind: &str,
    value: f64,
) {
    // Series of one family share a bare metric name up to the label
    // block; the TYPE header belongs to the family, once.
    let family = name.split('{').next().unwrap_or(name);
    if typed.insert(family.to_string()) {
        out.push_str(&format!("# TYPE {prefix}_{family} {kind}\n"));
    }
    out.push_str(&format!("{prefix}_{name} {}\n", fmt_f64(value)));
}

fn prom_hist(out: &mut String, prefix: &str, name: &str, hist: &HistogramSnapshot) {
    out.push_str(&format!("# TYPE {prefix}_{name} histogram\n"));
    let mut cumulative = 0u64;
    for (i, &count) in hist.buckets.iter().enumerate() {
        if count == 0 {
            continue; // sparse: log2 rings have ~60 empty buckets
        }
        cumulative += count;
        let le = 2f64.powi(i as i32 + 1) / 1e9;
        out.push_str(&format!(
            "{prefix}_{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            fmt_f64(le)
        ));
    }
    out.push_str(&format!(
        "{prefix}_{name}_bucket{{le=\"+Inf\"}} {}\n",
        hist.count()
    ));
    out.push_str(&format!(
        "{prefix}_{name}_sum {}\n",
        fmt_f64(hist.sum_ns as f64 / 1e9)
    ));
    out.push_str(&format!("{prefix}_{name}_count {}\n", hist.count()));
}

fn json_hist_fields(out: &mut String, hist: &HistogramSnapshot) {
    push_key(out, "count");
    out.push_str(&hist.count().to_string());
    for (key, q) in [("p50_s", 0.50), ("p99_s", 0.99), ("p999_s", 0.999)] {
        out.push(',');
        push_key(out, key);
        push_f64(out, hist.quantile_s(q));
    }
    out.push(',');
    push_key(out, "mean_s");
    push_f64(out, hist.mean_s());
    out.push(',');
    push_key(out, "max_s");
    push_f64(out, hist.max_s());
}

fn push_key(out: &mut String, key: &str) {
    push_json_str(out, key);
    out.push(':');
}

/// Appends `s` as a quoted, escaped JSON string (shared by the trace
/// and series renderers — `pic-obs` has no serde).
pub(crate) fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    out.push_str(&fmt_f64(v));
}

/// Finite floats via `{:?}` (shortest round-trip repr, always has a
/// decimal point or exponent so JSON parsers keep it a float);
/// non-finite map to 0 (JSON has no NaN/Inf).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::LatencyHistogram;
    use crate::span::{Stage, StageStats};

    fn sample_frame() -> Frame {
        let stats = StageStats::new();
        stats.record_ns(Stage::Write, 1_000);
        stats.record_ns(Stage::Write, 3_000);
        stats.add_energy_j(Stage::Write, 2.5e-12);
        let e2e = LatencyHistogram::new();
        e2e.record(10_000);
        Frame {
            at_s: 1.25,
            counters: vec![("requests_completed", 42), ("tile_writes", 7)],
            gauges: vec![
                ("pending_depth".to_owned(), 3.0),
                ("worker_busy_fraction".to_owned(), 0.5),
            ],
            stages: stats.snapshot().into_iter().map(StageFrame::from).collect(),
            hists: vec![("latency", e2e.snapshot())],
        }
    }

    #[test]
    fn prometheus_output_has_types_buckets_and_values() {
        let text = sample_frame().to_prometheus("pic");
        assert!(text.contains("# TYPE pic_requests_completed counter"));
        assert!(text.contains("pic_requests_completed 42"));
        assert!(text.contains("# TYPE pic_pending_depth gauge"));
        assert!(text.contains("# TYPE pic_stage_write_seconds histogram"));
        assert!(text.contains("pic_stage_write_energy_joules"));
        assert!(text.contains("pic_latency_seconds_bucket{le=\"+Inf\"} 1"));
        assert!(text.contains("pic_latency_seconds_count 1"));
        assert!(text.contains("pic_stage_write_seconds_count 2"));
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let h = LatencyHistogram::new();
        h.record(1_000); // bucket 9
        h.record(1_000);
        h.record(100_000); // bucket 16
        let frame = Frame {
            hists: vec![("t", h.snapshot())],
            ..Frame::default()
        };
        let text = frame.to_prometheus("x");
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("x_t_seconds_bucket"))
            .collect();
        assert_eq!(lines.len(), 3); // two non-empty buckets + +Inf
        assert!(lines[0].ends_with(" 2"), "{lines:?}");
        assert!(lines[1].ends_with(" 3"), "{lines:?}");
        assert!(lines[2].ends_with(" 3"), "{lines:?}");
    }

    #[test]
    fn json_output_is_parseable_shape() {
        let json = sample_frame().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"counters\":{\"requests_completed\":42"));
        assert!(json.contains("\"gauges\":{\"pending_depth\":3.0"));
        assert!(json.contains("\"stages\":[{\"stage\":\"submit\""));
        assert!(json.contains("\"hists\":{\"latency\":{\"count\":1"));
        assert!(!json.contains("NaN"));
        // Balanced braces/brackets (cheap well-formedness check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "{json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_reserved_characters() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}");
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn label_values_escape_and_type_lines_dedupe() {
        assert_eq!(prom_label_value("plain-id_9"), "plain-id_9");
        assert_eq!(prom_label_value("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let frame = Frame {
            gauges: vec![
                (
                    format!("model_requests{{model=\"{}\"}}", prom_label_value("m\"1")),
                    4.0,
                ),
                ("model_requests{model=\"m2\"}".to_owned(), 6.0),
            ],
            ..Frame::default()
        };
        let text = frame.to_prometheus("pic");
        // One TYPE header for the family, bare name, then both series.
        assert_eq!(
            text.matches("# TYPE pic_model_requests gauge\n").count(),
            1,
            "{text}"
        );
        assert!(!text.contains("# TYPE pic_model_requests{"), "{text}");
        assert!(text.contains("pic_model_requests{model=\"m\\\"1\"} 4.0"));
        assert!(text.contains("pic_model_requests{model=\"m2\"} 6.0"));
    }

    #[test]
    fn delta_subtracts_counters_and_buckets_but_not_gauges() {
        let earlier = sample_frame();
        let mut later = earlier.clone();
        later.at_s = 2.25;
        later.counters[0].1 = 52;
        later.gauges[0].1 = 9.0;
        let d = later.delta(&earlier);
        assert_eq!(d.at_s, 2.25);
        assert_eq!(d.counters[0], ("requests_completed", 10));
        assert_eq!(d.counters[1], ("tile_writes", 0));
        assert_eq!(d.gauges[0], ("pending_depth".to_owned(), 9.0));
        assert!(d.stages.iter().all(|s| s.hist.count() == 0));
        assert_eq!(d.hists[0].1.count(), 0);
        // A name missing from the earlier frame passes through.
        let fresh = later.delta(&Frame::default());
        assert_eq!(fresh.counters[0], ("requests_completed", 52));
    }
}
