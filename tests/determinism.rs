//! Reproducibility and serialisation guarantees.
//!
//! Every stochastic path in the workspace takes an explicit RNG, so
//! seeded runs must be bit-identical; every configuration and report type
//! is a serde data structure, so artefacts round-trip through JSON.

use photonic_tensor_core::eoadc::{monte_carlo, EoAdcConfig};
use photonic_tensor_core::photonics::NoiseModel;
use photonic_tensor_core::psram::PsramConfig;
use photonic_tensor_core::tensor::performance::PerformanceModel;
use photonic_tensor_core::tensor::{TensorCore, TensorCoreConfig};
use photonic_tensor_core::units::{Current, Voltage};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn loaded_core() -> TensorCore {
    let mut core = TensorCore::new(TensorCoreConfig::small_demo());
    core.load_weight_codes(&[
        vec![7, 0, 0, 0],
        vec![0, 7, 0, 0],
        vec![3, 3, 3, 3],
        vec![1, 2, 4, 6],
    ]);
    core
}

#[test]
fn seeded_noise_sampling_is_reproducible() {
    let model = NoiseModel::paper_receiver();
    let draw = |seed: u64| -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..100)
            .map(|_| {
                model
                    .sample(Current::from_microamps(50.0), &mut rng)
                    .as_amps()
            })
            .collect()
    };
    assert_eq!(draw(42), draw(42));
    assert_ne!(draw(42), draw(43));
}

#[test]
fn seeded_monte_carlo_is_reproducible() {
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        monte_carlo(
            EoAdcConfig::paper(),
            Voltage::from_millivolts(40.0),
            8,
            181,
            &mut rng,
        )
    };
    assert_eq!(run(7), run(7));
}

/// Structural JSON comparison with a relative tolerance on numbers —
/// serde_json's default float parsing may land one ULP off the source.
fn json_approx_eq(a: &serde_json::Value, b: &serde_json::Value) -> bool {
    use serde_json::Value;
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => {
            let (x, y) = (
                x.as_f64().unwrap_or(f64::NAN),
                y.as_f64().unwrap_or(f64::NAN),
            );
            (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1.0)
        }
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .all(|(k, v)| y.get(k).is_some_and(|w| json_approx_eq(v, w)))
        }
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(v, w)| json_approx_eq(v, w))
        }
        _ => a == b,
    }
}

#[test]
fn configs_round_trip_through_json() {
    let psram = PsramConfig::paper();
    let json = serde_json::to_value(psram).expect("serialise");
    let back: PsramConfig = serde_json::from_value(json.clone()).expect("deserialise");
    assert!(json_approx_eq(
        &json,
        &serde_json::to_value(back).expect("re-serialise")
    ));
    back.validate();

    let adc = EoAdcConfig::paper();
    let json = serde_json::to_value(adc).expect("serialise");
    let back: EoAdcConfig = serde_json::from_value(json.clone()).expect("deserialise");
    assert!(json_approx_eq(
        &json,
        &serde_json::to_value(back).expect("re-serialise")
    ));
    back.validate();
}

#[test]
fn performance_report_serialises_with_headline_fields() {
    let report = PerformanceModel::paper().report();
    let json = serde_json::to_string(&report).expect("serialise");
    assert!(json.contains("tops"));
    assert!(json.contains("tops_per_watt"));
    assert!(json.contains("comb_w"));
    let value: serde_json::Value = serde_json::from_str(&json).expect("parse");
    let tops = value["tops"].as_f64().expect("tops is a number");
    assert!((tops - 4.096).abs() < 0.01);
}

#[test]
fn weight_cache_invalidates_on_every_mutation_path() {
    let x = [0.9, 0.1, 0.5, 0.7];
    let codes = vec![
        vec![2, 4, 6, 0],
        vec![7, 1, 3, 5],
        vec![0, 0, 7, 7],
        vec![5, 5, 5, 5],
    ];

    // After a preset-path reload, the cached engine must answer exactly
    // like a core that never had the stale weights.
    let mut reloaded = loaded_core();
    reloaded.load_weight_codes(&codes);
    let mut fresh = TensorCore::new(TensorCoreConfig::small_demo());
    fresh.load_weight_codes(&codes);
    assert_eq!(reloaded.matvec_analog(&x), fresh.matvec_analog(&x));
    assert_eq!(reloaded.matvec(&x), fresh.matvec(&x));

    // Same after the full optical write transient.
    let mut rewritten = loaded_core();
    let _ = rewritten.write_weights_transient(&codes);
    assert_eq!(rewritten.matvec_analog(&x), fresh.matvec_analog(&x));
    assert_eq!(rewritten.matvec(&x), fresh.matvec(&x));
}

#[test]
fn prbs_generator_is_deterministic_across_calls() {
    use photonic_tensor_core::signal::generate::prbs;
    use photonic_tensor_core::units::Seconds;
    let a = prbs(
        Seconds::from_picoseconds(1.0),
        Seconds::from_picoseconds(4.0),
        128,
        0xBEEF,
        0.0,
        1.0,
    );
    let b = prbs(
        Seconds::from_picoseconds(1.0),
        Seconds::from_picoseconds(4.0),
        128,
        0xBEEF,
        0.0,
        1.0,
    );
    assert_eq!(a, b);
}
