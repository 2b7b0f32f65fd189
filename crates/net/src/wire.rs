//! The JSON wire protocol: request/reply bodies and the typed-error →
//! HTTP status mapping.
//!
//! Numbers ride the vendored `serde_json`, which prints `f64` in its
//! shortest round-tripping form and parses it back exactly — so a
//! served [`OutputElement`] crosses the wire bit-identical to the
//! in-process value, and the networked path can be spot-checked
//! against a solo executor with plain equality.
//!
//! The request body is parsed by hand from the JSON value tree so the
//! optional fields (`deadline_ms`) may simply be omitted by foreign
//! clients; replies are emitted through the derive path.

use pic_runtime::{OutputElement, RuntimeError};
use serde::Value;

/// A matmul request body: `POST /v1/matmul`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct MatmulWire {
    /// Which registered model to apply.
    pub model: String,
    /// Input vectors, each of the model's input dimension, values in
    /// `[0, 1]`.
    pub inputs: Vec<Vec<f64>>,
    /// Optional deadline, milliseconds from server receipt. Zero or
    /// negative means already expired (the request rejects with `504`
    /// without touching the runtime's queue).
    pub deadline_ms: Option<f64>,
}

impl MatmulWire {
    /// Parses a request body, tolerating an omitted `deadline_ms`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first shape problem.
    pub fn parse(body: &[u8]) -> Result<MatmulWire, String> {
        let text = std::str::from_utf8(body).map_err(|e| format!("body is not UTF-8: {e}"))?;
        let value: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
        let model = value
            .get("model")
            .and_then(Value::as_str)
            .ok_or("missing string field `model`")?
            .to_owned();
        let inputs = value
            .get("inputs")
            .and_then(Value::as_array)
            .ok_or("missing array field `inputs`")?
            .iter()
            .enumerate()
            .map(|(i, row)| {
                row.as_array()
                    .ok_or(format!("inputs[{i}] is not an array"))?
                    .iter()
                    .enumerate()
                    .map(|(j, v)| {
                        v.as_f64()
                            .ok_or(format!("inputs[{i}][{j}] is not a number"))
                    })
                    .collect::<Result<Vec<f64>, String>>()
            })
            .collect::<Result<Vec<Vec<f64>>, String>>()?;
        let deadline_ms = match value.get("deadline_ms") {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_f64().ok_or("`deadline_ms` is not a number")?),
        };
        Ok(MatmulWire {
            model,
            inputs,
            deadline_ms,
        })
    }
}

/// A successful matmul reply body.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MatmulReply {
    /// Per input sample, per logical output row — bit-identical to the
    /// in-process [`Response::outputs`](pic_runtime::Response).
    pub outputs: Vec<Vec<OutputElement>>,
    /// Device that executed the request.
    pub device: u64,
    /// Requests sharing the dispatch batch (1 = unbatched).
    pub batched_with: u64,
    /// Tiles streamed through the optical write path for this batch.
    pub tiles_written: u64,
    /// Tiles already resident (writes skipped).
    pub tiles_resident: u64,
    /// This request's share of modeled hardware energy, J.
    pub energy_j: f64,
}

/// A typed error reply body.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ErrorReply {
    /// Stable machine-readable kind (`"deadline_expired"`, ...).
    pub kind: String,
    /// Human-readable description.
    pub error: String,
}

/// The HTTP rendering of a [`RuntimeError`]: status code, stable kind,
/// and an optional `Retry-After` hint in seconds.
#[must_use]
pub fn error_status(e: &RuntimeError) -> (u16, &'static str, Option<u64>) {
    match e {
        RuntimeError::DeadlineExpired => (504, "deadline_expired", None),
        RuntimeError::QueueFull => (429, "queue_full", Some(1)),
        RuntimeError::ShuttingDown => (503, "shutting_down", None),
        RuntimeError::InvalidRequest(_) => (400, "invalid_request", None),
        RuntimeError::WorkerLost => (500, "worker_lost", None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_and_tolerates_missing_deadline() {
        let full = MatmulWire {
            model: "rank-0".to_owned(),
            inputs: vec![vec![0.25, 0.5], vec![1.0, 0.0]],
            deadline_ms: Some(50.0),
        };
        let json = serde_json::to_string(&full).expect("serialises");
        assert_eq!(MatmulWire::parse(json.as_bytes()), Ok(full));
        let bare = br#"{"model":"m","inputs":[[0.125]]}"#;
        let parsed = MatmulWire::parse(bare).expect("optional fields may be omitted");
        assert_eq!(parsed.deadline_ms, None);
        assert_eq!(parsed.inputs, vec![vec![0.125]]);
    }

    #[test]
    fn request_parse_names_the_broken_field() {
        // 10 000 nested arrays: past the parser's nesting limit, so the
        // parse refuses instead of recursing off the end of the stack.
        let deep = format!(r#"{{"model":"m","inputs":{}"#, "[".repeat(10_000));
        for (body, needle) in [
            (&br#"{"inputs":[[0.1]]}"#[..], "model"),
            (&br#"{"model":"m"}"#[..], "inputs"),
            (&br#"{"model":"m","inputs":[0.1]}"#[..], "inputs[0]"),
            (&br#"{"model":"m","inputs":[["x"]]}"#[..], "inputs[0][0]"),
            (&br#"not json"#[..], "JSON"),
            (deep.as_bytes(), "recursion limit"),
        ] {
            let err = MatmulWire::parse(body).expect_err("must reject");
            assert!(err.contains(needle), "{err:?} should mention {needle:?}");
        }
    }

    #[test]
    fn a_one_mebibyte_model_name_parses_in_linear_time() {
        let name = "m".repeat(1 << 20);
        let body = format!(r#"{{"model":"{name}","inputs":[[0.5]]}}"#);
        let started = std::time::Instant::now();
        let wire = MatmulWire::parse(body.as_bytes()).expect("parses");
        let took = started.elapsed();
        assert_eq!(wire.model.len(), 1 << 20);
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn outputs_cross_the_wire_bit_identical() {
        // Values chosen to stress the shortest-round-trip printer: a
        // subnormal-ish fraction, an irrational-looking quotient, and a
        // code_sum near u32 range.
        let reply = MatmulReply {
            outputs: vec![vec![
                OutputElement {
                    code_sum: 4_294_967_290,
                    value: 1.0 / 3.0,
                },
                OutputElement {
                    code_sum: 7,
                    value: 0.123_456_789_012_345_67,
                },
            ]],
            device: 3,
            batched_with: 2,
            tiles_written: 5,
            tiles_resident: 1,
            energy_j: 1.5e-9,
        };
        let json = serde_json::to_string(&reply).expect("serialises");
        let back: MatmulReply = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, reply, "wire round-trip must be exact");
    }

    #[test]
    fn every_runtime_error_maps_to_a_distinct_contractual_status() {
        assert_eq!(error_status(&RuntimeError::DeadlineExpired).0, 504);
        let (status, kind, retry) = error_status(&RuntimeError::QueueFull);
        assert_eq!(
            (status, retry),
            (429, Some(1)),
            "backpressure advertises retry"
        );
        assert_eq!(kind, "queue_full");
        assert_eq!(error_status(&RuntimeError::ShuttingDown).0, 503);
        assert_eq!(
            error_status(&RuntimeError::InvalidRequest(String::new())).0,
            400
        );
        assert_eq!(error_status(&RuntimeError::WorkerLost).0, 500);
    }
}
