//! Small helpers shared by the parent and the child: JSON value
//! building, the process's peak memory, and the output directory.

use serde::{Map, Number, Value};
use std::path::PathBuf;

/// Where run files and traces are written, relative to the working
/// directory (the checkout root).
pub const OUT_DIR: &str = "target/benchmark";

/// A JSON number (non-finite values become `null`).
#[must_use]
pub fn num(v: f64) -> Value {
    if v.is_finite() {
        Value::Number(Number::from_f64(v))
    } else {
        Value::Null
    }
}

/// A JSON object from key/value pairs.
#[must_use]
pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.into(), v))
            .collect::<Map>(),
    )
}

/// A JSON string.
#[must_use]
pub fn text(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// The process's peak resident set (`VmHWM`), MB; 0 if unreadable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Writes `value` as pretty JSON under [`OUT_DIR`] and returns the path.
///
/// # Errors
///
/// Directory creation or write failures.
pub fn write_out(file_name: &str, value: &Value) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file_name);
    let body = serde_json::to_string_pretty(value).map_err(std::io::Error::other)?;
    std::fs::write(&path, body + "\n")?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process_peak_memory() {
        let mb = peak_rss_mb();
        assert!(mb > 0.1 && mb < 64.0 * 1024.0, "{mb} MB");
    }

    #[test]
    fn builds_json_values() {
        let v = obj([("a", num(1.5)), ("b", num(f64::INFINITY)), ("c", text("x"))]);
        assert_eq!(
            serde_json::to_string(&v).expect("json"),
            r#"{"a":1.5,"b":null,"c":"x"}"#
        );
    }
}
