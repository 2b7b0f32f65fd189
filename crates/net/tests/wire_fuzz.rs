//! Hostile request bodies against the wire parser and everything a
//! parsed body reaches before a device runs it.
//!
//! Three properties feed `MatmulWire::parse` arbitrary bytes, valid
//! bodies with one byte swapped for a JSON metacharacter, and valid
//! bodies with a long run of `[` spliced in. Whatever parses is then
//! walked down the server's path: a body naming the registered 4×4
//! model is validated as a `MatmulRequest`, which must answer `Ok` or
//! a typed `InvalidRequest`, and every body that validates runs on a
//! solo `TileExecutor`. So no wire input reaches a panic in the parser,
//! in validation, or in the kernel's out-of-range check.

use pic_net::MatmulWire;
use pic_runtime::{MatmulRequest, RuntimeError, TileExecutor, TileShape, TiledMatrix};
use pic_tensor::TensorCoreConfig;
use proptest::collection;
use proptest::prelude::*;
use std::sync::Arc;

/// The name the valid bodies address.
const MODEL: &str = "m";

/// The bytes a mutation may write: JSON structure, string and number
/// syntax.
const META: &[u8] = b"[]{}\"\\-e9.,";

fn model() -> Arc<TiledMatrix> {
    let codes: Vec<Vec<u32>> = (0..4)
        .map(|r| (0..4).map(|c| ((r + 2 * c) % 8) as u32).collect())
        .collect();
    Arc::new(TiledMatrix::from_codes(&codes, 3, TileShape::new(4, 4)))
}

prop_compose! {
    /// A well-formed request for [`MODEL`]: 1–3 samples of 4 inputs in
    /// `[0, 1]`, with or without a deadline.
    fn valid_body()(
        values in collection::vec(any::<u64>(), 4..=12),
        deadline in any::<u64>(),
    ) -> Vec<u8> {
        let samples = values.len() / 4;
        let inputs = values[..samples * 4]
            .chunks(4)
            .map(|row| row.iter().map(|&v| (v % 1001) as f64 / 1000.0).collect())
            .collect();
        let wire = MatmulWire {
            model: MODEL.to_owned(),
            inputs,
            deadline_ms: deadline.is_multiple_of(2).then_some((deadline % 100_000) as f64),
        };
        serde_json::to_string(&wire).expect("serialises").into_bytes()
    }
}

/// Walks `body` down the server's path: parse, look the model up,
/// validate, execute. Panics only if one of those steps does.
fn serve_like_the_server(body: &[u8], model: &Arc<TiledMatrix>) {
    let Ok(wire) = MatmulWire::parse(body) else {
        return;
    };
    if wire.model != MODEL {
        return; // the server answers 404 before building a request
    }
    let request = MatmulRequest::new(Arc::clone(model), wire.inputs);
    match request.validate() {
        Ok(()) => {
            let mut solo = TileExecutor::new(TensorCoreConfig::small_demo(), 0);
            let executed = solo.execute(model, &request.inputs);
            assert!(executed.is_ok(), "validated body failed: {executed:?}");
        }
        Err(RuntimeError::InvalidRequest(_)) => {}
        Err(other) => panic!("validation answered {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(body in collection::vec(any::<u8>(), 0..=2048)) {
        serve_like_the_server(&body, &model());
    }

    #[test]
    fn one_swapped_metacharacter_never_panics(
        body in valid_body(),
        at in any::<u64>(),
        pick in any::<u8>(),
    ) {
        let model = model();
        serve_like_the_server(&body, &model);
        let mut mutated = body.clone();
        let at = (at % body.len() as u64) as usize;
        mutated[at] = META[usize::from(pick) % META.len()];
        serve_like_the_server(&mutated, &model);
    }

    #[test]
    fn a_spliced_run_of_brackets_never_panics(
        body in valid_body(),
        at in any::<u64>(),
        run in 1usize..=4096,
    ) {
        let at = (at % (body.len() as u64 + 1)) as usize;
        let mut spliced = body[..at].to_vec();
        spliced.extend(std::iter::repeat_n(b'[', run));
        spliced.extend_from_slice(&body[at..]);
        serve_like_the_server(&spliced, &model());
    }
}
