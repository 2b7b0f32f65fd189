//! Seeded inputs: each workload's model set and its request streams.
//!
//! Everything here is a pure function of (workload, seed, lane), so the
//! same seed replays byte-identical traffic and the program under test
//! only ever sees the generated inputs.

use pic_runtime::{TileShape, TiledMatrix};
use pic_tensor::TensorCoreConfig;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::Arc;

/// One request in 50 carries an already-expired deadline; the stack must
/// answer it with a typed 504 / `DeadlineExpired`, never serve it.
pub const PRE_EXPIRED_EVERY: u64 = 50;

/// The serving demo's 12-model shape mix (`serve_demo`'s `SHAPE_MIX`), by
/// popularity rank: single-tile 16×16 and 16×12 models with a multi-tile
/// tail of 32×32, 40×24 and 48×16.
const SHAPE_MIX: &[(usize, usize)] = &[
    (16, 16),
    (16, 16),
    (16, 16),
    (16, 12),
    (32, 32),
    (16, 16),
    (40, 24),
    (16, 16),
    (48, 16),
    (16, 16),
    (16, 16),
    (32, 32),
];

/// Which traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Zipf over the 12-model shape mix, over HTTP.
    ServeHot,
    /// Uniform over 24 four-tile models, over HTTP.
    ServeCold,
    /// 128-sample requests on 4 single-tile models, in process.
    BatchResident,
    /// 4 two-shard models on a 2-node cluster, over HTTP.
    ClusterShard,
}

impl Kind {
    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kind> {
        match name {
            "serve-hot" => Some(Kind::ServeHot),
            "serve-cold" => Some(Kind::ServeCold),
            "batch-resident" => Some(Kind::BatchResident),
            "cluster-shard" => Some(Kind::ClusterShard),
            _ => None,
        }
    }

    /// Whether requests travel over the HTTP front-end.
    #[must_use]
    pub fn networked(self) -> bool {
        self != Kind::BatchResident
    }

    fn tag(self) -> u64 {
        match self {
            Kind::ServeHot => 1,
            Kind::ServeCold => 2,
            Kind::BatchResident => 3,
            Kind::ClusterShard => 4,
        }
    }
}

/// Mixes the seed with a workload tag and a lane number into one RNG
/// seed (SplitMix64 finaliser), so lanes draw independent streams.
fn mix(seed: u64, kind: Kind, lane: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(kind.tag() << 32)
        .wrapping_add(lane);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A workload's models and how requests pick among them.
#[derive(Debug)]
pub struct ModelSet {
    /// The kind these models serve.
    pub kind: Kind,
    /// Wire names, `m0`, `m1`, …
    pub names: Vec<String>,
    /// The tiled weight matrices, index-aligned with `names`.
    pub matrices: Vec<Arc<TiledMatrix>>,
    /// Cumulative popularity over the models.
    cdf: Vec<f64>,
    /// Inclusive sample-count range per request.
    samples: (usize, usize),
}

impl ModelSet {
    /// Builds the seeded model set of `kind` on the paper's 16×16 core.
    #[must_use]
    pub fn generate(kind: Kind, seed: u64) -> ModelSet {
        let (shapes, zipf_s, samples): (Vec<(usize, usize)>, f64, (usize, usize)) = match kind {
            Kind::ServeHot => (SHAPE_MIX.to_vec(), 1.1, (1, 2)),
            Kind::ServeCold => (vec![(32, 32); 24], 0.0, (1, 2)),
            Kind::BatchResident => (vec![(16, 16); 4], 0.0, (128, 128)),
            Kind::ClusterShard => (vec![(32, 16); 4], 0.0, (1, 2)),
        };
        let cfg = TensorCoreConfig::paper();
        let shape = TileShape::new(cfg.rows, cfg.cols);
        let max_code = (1u32 << cfg.weight_bits) - 1;
        let mut rng = StdRng::seed_from_u64(mix(seed, kind, u64::MAX));
        let matrices = shapes
            .iter()
            .map(|&(out, inp)| {
                let codes: Vec<Vec<u32>> = (0..out)
                    .map(|_| (0..inp).map(|_| rng.gen_range(0..=max_code)).collect())
                    .collect();
                Arc::new(TiledMatrix::from_codes(&codes, cfg.weight_bits, shape))
            })
            .collect();
        // Rank k carries weight 1/(k+1)^s; s = 0 is uniform popularity.
        let weights: Vec<f64> = (0..shapes.len())
            .map(|k| 1.0 / ((k + 1) as f64).powf(zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        ModelSet {
            kind,
            names: (0..shapes.len()).map(|i| format!("m{i}")).collect(),
            matrices,
            cdf,
            samples,
        }
    }

    /// Each model's expected share of traffic.
    #[must_use]
    pub fn shares(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.cdf
            .iter()
            .map(|&c| {
                let share = c - prev;
                prev = c;
                share
            })
            .collect()
    }

    /// The name → matrix table a front-end serves.
    #[must_use]
    pub fn table(&self) -> std::collections::HashMap<String, Arc<TiledMatrix>> {
        self.names
            .iter()
            .cloned()
            .zip(self.matrices.iter().cloned())
            .collect()
    }

    /// Modeled multiply-accumulate operations of one request:
    /// `2 · out · in · samples`.
    #[must_use]
    pub fn ops(&self, model: usize, samples: usize) -> u64 {
        let m = &self.matrices[model];
        2 * (m.out_dim() * m.in_dim() * samples) as u64
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRequest {
    /// Position in its lane's stream.
    pub seq: u64,
    /// Index into the model set.
    pub model: usize,
    /// Input vectors in `[0, 1]`.
    pub inputs: Vec<Vec<f64>>,
    /// Whether the request carries an already-expired deadline.
    pub pre_expired: bool,
}

/// An endless seeded request stream for one lane (one phase of one
/// client thread).
#[derive(Debug)]
pub struct RequestStream<'a> {
    models: &'a ModelSet,
    rng: StdRng,
    seq: u64,
}

impl<'a> RequestStream<'a> {
    /// The stream of `lane` under `seed`.
    #[must_use]
    pub fn new(models: &'a ModelSet, seed: u64, lane: u64) -> Self {
        RequestStream {
            models,
            rng: StdRng::seed_from_u64(mix(seed, models.kind, lane)),
            seq: 0,
        }
    }

    /// The model set requests are drawn from.
    #[must_use]
    pub fn models(&self) -> &'a ModelSet {
        self.models
    }

    /// Draws the next request.
    pub fn next_request(&mut self) -> GenRequest {
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let model = self
            .models
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.models.cdf.len() - 1);
        let (lo, hi) = self.models.samples;
        let samples = self.rng.gen_range(lo..=hi);
        let in_dim = self.models.matrices[model].in_dim();
        let inputs = (0..samples)
            .map(|_| (0..in_dim).map(|_| self.rng.gen_range(0.0..=1.0)).collect())
            .collect();
        let seq = self.seq;
        self.seq += 1;
        GenRequest {
            seq,
            model,
            inputs,
            pre_expired: seq % PRE_EXPIRED_EVERY == PRE_EXPIRED_EVERY / 3,
        }
    }
}

/// One servable request per model, in popularity-rank order, drawn from
/// `lane`'s seeded stream with the fewest samples the workload sends.
#[must_use]
pub fn one_per_model(models: &ModelSet, seed: u64, lane: u64) -> Vec<GenRequest> {
    let mut rng = StdRng::seed_from_u64(mix(seed, models.kind, lane));
    (0..models.matrices.len())
        .map(|model| {
            let in_dim = models.matrices[model].in_dim();
            GenRequest {
                seq: model as u64,
                model,
                inputs: (0..models.samples.0)
                    .map(|_| (0..in_dim).map(|_| rng.gen_range(0.0..=1.0)).collect())
                    .collect(),
                pre_expired: false,
            }
        })
        .collect()
}

/// The `POST /v1/matmul` body of a request, in the front-end's own wire
/// type.
#[must_use]
pub fn wire_body(models: &ModelSet, req: &GenRequest) -> String {
    let wire = pic_net::MatmulWire {
        model: models.names[req.model].clone(),
        inputs: req.inputs.clone(),
        deadline_ms: req.pre_expired.then_some(-1.0),
    };
    serde_json::to_string(&wire).expect("wire requests serialise")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bodies(kind: Kind, seed: u64, lane: u64, n: usize) -> Vec<String> {
        let models = ModelSet::generate(kind, seed);
        let mut stream = RequestStream::new(&models, seed, lane);
        (0..n)
            .map(|_| wire_body(&models, &stream.next_request()))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_bodies_and_another_seed_differs() {
        for kind in [
            Kind::ServeHot,
            Kind::ServeCold,
            Kind::BatchResident,
            Kind::ClusterShard,
        ] {
            let a = bodies(kind, 42, 3, 200);
            assert_eq!(a, bodies(kind, 42, 3, 200), "{kind:?} replays");
            assert_ne!(a, bodies(kind, 7, 3, 200), "{kind:?} held-out seed");
            assert_ne!(a, bodies(kind, 42, 4, 200), "{kind:?} lanes differ");
        }
        // The model weights follow the seed too.
        let codes = |seed| {
            ModelSet::generate(Kind::ServeHot, seed).matrices[0]
                .tile(0, 0)
                .codes()
                .to_vec()
        };
        assert_eq!(codes(42), codes(42));
        assert_ne!(codes(42), codes(7));
    }

    #[test]
    fn exactly_one_in_fifty_requests_is_pre_expired() {
        let models = ModelSet::generate(Kind::ServeHot, 42);
        let mut stream = RequestStream::new(&models, 42, 0);
        let expired = (0..5000)
            .filter(|_| stream.next_request().pre_expired)
            .count();
        assert_eq!(expired, 100);
        let body = bodies(Kind::ServeHot, 42, 0, 17).pop().expect("17th body");
        assert!(body.contains("\"deadline_ms\":-1.0"), "{body}");
    }

    #[test]
    fn model_sets_match_the_workload_definitions() {
        let hot = ModelSet::generate(Kind::ServeHot, 42);
        let tiles: Vec<usize> = hot.matrices.iter().map(|m| m.tile_count()).collect();
        assert_eq!(
            tiles,
            [1, 1, 1, 1, 4, 1, 6, 1, 3, 1, 1, 4],
            "the serving mix"
        );
        let shares = hot.shares();
        assert!(shares.windows(2).all(|w| w[0] > w[1]), "Zipf ranks descend");
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);

        let cold = ModelSet::generate(Kind::ServeCold, 42);
        assert_eq!(cold.matrices.len(), 24);
        assert!(cold.matrices.iter().all(|m| m.tile_count() == 4));

        let batch = ModelSet::generate(Kind::BatchResident, 42);
        assert_eq!(batch.matrices.len(), 4);
        assert!(batch.matrices.iter().all(|m| m.tile_count() == 1));
        let mut stream = RequestStream::new(&batch, 42, 0);
        assert_eq!(stream.next_request().inputs.len(), 128);

        let cluster = ModelSet::generate(Kind::ClusterShard, 42);
        let shards: usize = cluster
            .matrices
            .iter()
            .map(|m| pic_cluster::plan::shard_specs(m, 2).len())
            .sum();
        assert_eq!(shards, 8, "4 models x 2 one-tile shards");
        assert!(cluster.matrices.iter().all(|m| m.tile_count() == 2));
    }

    #[test]
    fn priming_sends_one_servable_request_per_model_in_rank_order() {
        let models = ModelSet::generate(Kind::ServeHot, 42);
        let reqs = one_per_model(&models, 42, 1);
        let order: Vec<usize> = reqs.iter().map(|r| r.model).collect();
        assert_eq!(order, (0..12).collect::<Vec<_>>());
        assert!(reqs.iter().all(|r| !r.pre_expired && r.inputs.len() == 1));
        assert_eq!(reqs, one_per_model(&models, 42, 1), "seeded");
        assert_ne!(reqs, one_per_model(&models, 7, 1));
    }

    #[test]
    fn uniform_streams_visit_every_model() {
        let models = ModelSet::generate(Kind::ServeCold, 42);
        let mut stream = RequestStream::new(&models, 42, 0);
        let mut seen = vec![false; models.matrices.len()];
        for _ in 0..2000 {
            seen[stream.next_request().model] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
