//! Serial replays of the traced run's own requests through each layer's
//! public calls, one span per replay. Each returns a unit cost measured
//! from outside the layer; nothing here reaches into a crate's internals.

use crate::client::{http_request, ReplayItem};
use crate::trace::SpanRing;
use crate::workload::{GenRequest, Kind, ModelSet};
use pic_cluster::{plan, ClusterConfig, Coordinator};
use pic_net::http::{Parse, RequestParser};
use pic_net::{FairAdmission, FairnessConfig, MatmulWire};
use pic_runtime::{MatmulRequest, Runtime, RuntimeConfig, TileExecutor, TiledMatrix};
use pic_tensor::{FlatBatch, FlatCodes, TensorCore, TensorCoreConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The runtime configuration every workload serves with: the paper's
/// four-device pool with a 10 ms reordering bound.
#[must_use]
pub fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        max_delay: Duration::from_millis(10),
        ..RuntimeConfig::paper()
    }
}

/// The cluster every `cluster-shard` run serves with: 2 nodes × 4 devices.
#[must_use]
pub fn cluster_config() -> ClusterConfig {
    ClusterConfig {
        nodes: 2,
        node: runtime_config(),
    }
}

/// Unit costs measured by the replays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Costs {
    /// `RequestParser::feed` + `poll` per request, µs.
    pub http_parse_us: f64,
    /// `MatmulWire::parse` per request, µs.
    pub wire_parse_us: f64,
    /// `serde_json::to_string(&MatmulReply)` per reply, µs.
    pub reply_encode_us: f64,
    /// `FairAdmission::try_admit` + `release`, ns.
    pub fair_ns: f64,
    /// `TileExecutor::execute` of the median request.
    pub execute: MedianExecute,
    /// `TensorCore::matmul_into` per sample row, ns.
    pub matmul_ns_per_sample: f64,
    /// `TensorCore::write_weights_transient` per tile, µs.
    pub write_us_per_tile: f64,
    /// Modeled switching energy per written tile, pJ.
    pub write_pj_per_tile: f64,
    /// `TensorCore::digitize_slice` per code, ns.
    pub digitize_ns_per_code: f64,
    /// `Coordinator::submit_blocking` minus the same shard calls through
    /// one runtime, µs.
    pub coord_us: f64,
}

/// How much replaying a traced run affords.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Kept requests the replays run over.
    pub requests: usize,
    /// How long each per-call timing runs.
    pub timed: Duration,
}

impl Budget {
    /// A smoke run's budget, or a measured run's.
    #[must_use]
    pub fn of(smoke: bool) -> Budget {
        if smoke {
            Budget {
                requests: 48,
                timed: Duration::from_millis(8),
            }
        } else {
            Budget {
                requests: 400,
                timed: Duration::from_millis(40),
            }
        }
    }
}

/// Calls `call` on `items` round-robin, a few calls per clock reading,
/// until `budget` has passed (at least once round the few); returns ns
/// per call.
fn per_call_ns<T>(items: &[T], budget: Duration, mut call: impl FnMut(&T)) -> f64 {
    const CHUNK: usize = 8;
    let start = Instant::now();
    let mut calls = 0usize;
    while calls == 0 || start.elapsed() < budget {
        for _ in 0..CHUNK {
            call(&items[calls % items.len()]);
            calls += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Runs `f` under a named replay span.
fn spanned<T>(spans: &Mutex<SpanRing>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    spans
        .lock()
        .expect("span ring lock")
        .span(u64::MAX, name, None, start, Instant::now());
    out
}

/// A calibrated core, as a pool device holds it.
fn device_core() -> TensorCore {
    TileExecutor::new(TensorCoreConfig::paper(), 0)
        .core()
        .clone()
}

/// Replays `items` through every layer's public calls. Every workload
/// replays through every layer, including the ones it does not pass
/// through when served (the front-end for `batch-resident`, the
/// coordinator for all but `cluster-shard`): that reads as what the
/// layer would cost this traffic.
#[must_use]
pub fn run(
    models: &ModelSet,
    items: &[ReplayItem],
    budget: Budget,
    spans: &Mutex<SpanRing>,
) -> Costs {
    let mut costs = Costs::default();
    let items = &items[..items.len().min(budget.requests)];
    if items.is_empty() {
        return costs;
    }
    let timed = budget.timed;
    // In-process requests never went out as bytes: frame them as the
    // front-end would have received them.
    let bytes: Vec<Vec<u8>> = items
        .iter()
        .map(|i| {
            i.bytes.clone().unwrap_or_else(|| {
                let req = GenRequest {
                    seq: 0,
                    model: i.model,
                    inputs: i.inputs.clone(),
                    pre_expired: false,
                };
                http_request("bench-0", models, &req)
            })
        })
        .collect();
    costs.http_parse_us = spanned(spans, "replay.http_parse", || {
        per_call_ns(&bytes, timed, |b| {
            let mut parser = RequestParser::new();
            parser.feed(b);
            assert!(matches!(black_box(parser.poll()), Parse::Request(_)));
        })
    }) / 1e3;
    let bodies: Vec<&[u8]> = bytes
        .iter()
        .filter_map(|b| {
            let at = b.windows(4).position(|w| w == b"\r\n\r\n")?;
            Some(&b[at + 4..])
        })
        .collect();
    costs.wire_parse_us = spanned(spans, "replay.wire_parse", || {
        per_call_ns(&bodies, timed, |b| {
            black_box(MatmulWire::parse(b).expect("sent bodies parse"));
        })
    }) / 1e3;
    costs.reply_encode_us = spanned(spans, "replay.reply_encode", || {
        per_call_ns(items, timed, |i| {
            black_box(serde_json::to_string(&i.reply).expect("replies encode"));
        })
    }) / 1e3;
    let fair = FairAdmission::new(&FairnessConfig::default());
    costs.fair_ns = spanned(spans, "replay.fair", || {
        per_call_ns(items, timed, |_| {
            fair.try_admit("bench-0")
                .expect("a lone client is admitted");
            fair.release("bench-0");
        })
    });
    costs.execute = spanned(spans, "replay.execute", || execute(models, items));
    costs.matmul_ns_per_sample =
        spanned(spans, "replay.matmul", || matmul_ns(models, items, timed));
    (costs.write_us_per_tile, costs.write_pj_per_tile) =
        spanned(spans, "replay.psram_write", || writes(models, items));
    costs.digitize_ns_per_code = spanned(spans, "replay.digitize", || {
        digitize_ns(models, items, timed)
    });
    costs.coord_us = spanned(spans, "replay.coordinator", || coord_us(models, items));
    costs
}

/// One model's shard matrices with their input ranges, as the planner
/// cuts it for the benchmark's 2-node cluster.
fn shards(matrix: &TiledMatrix) -> Vec<(Arc<TiledMatrix>, std::ops::Range<usize>)> {
    plan::shard_specs(matrix, cluster_config().nodes)
        .into_iter()
        .map(|s| {
            (
                Arc::new(matrix.shard(s.block_rows, s.block_cols)),
                s.in_range,
            )
        })
        .collect()
}

fn slice_inputs(inputs: &[Vec<f64>], range: &std::ops::Range<usize>) -> Vec<Vec<f64>> {
    inputs.iter().map(|x| x[range.clone()].to_vec()).collect()
}

/// The median request of the execute replay: its time and the work it
/// did, which the waterfall splits by unit cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MedianExecute {
    /// `TileExecutor::execute` time, µs (summed over shards).
    pub us: f64,
    /// Tiles it streamed through the write path.
    pub tiles_written: f64,
    /// Tile passes it ran (each over every sample).
    pub tile_passes: f64,
    /// Input samples.
    pub samples: f64,
}

/// One `TileExecutor::execute` call of a replayed request.
struct Call {
    /// The executor that runs it: a device (under the cluster, a model)
    /// and a shard.
    executor: (u64, usize),
    matrix: Arc<TiledMatrix>,
    inputs: Vec<Vec<f64>>,
}

/// `TileExecutor::execute` per request with one executor per device,
/// routed by each reply's device so residency replays as it was served;
/// under the cluster, one executor per shard (each shard sits on its own
/// device). One untimed pass warms residency first; the median request
/// of the timed pass is returned.
fn execute(models: &ModelSet, items: &[ReplayItem]) -> MedianExecute {
    let cfg = TensorCoreConfig::paper();
    // Shards are cut once: a fresh cut is a fresh matrix id, which no
    // device would hold resident.
    let shard_sets: Vec<_> = models.matrices.iter().map(|m| shards(m)).collect();
    let mut execs: HashMap<(u64, usize), TileExecutor> = HashMap::new();
    let mut timed = Vec::with_capacity(items.len());
    for pass in 0..2 {
        timed.clear();
        for item in items {
            let matrix = &models.matrices[item.model];
            let calls: Vec<Call> = if models.kind == Kind::ClusterShard {
                shard_sets[item.model]
                    .iter()
                    .enumerate()
                    .map(|(s, (m, range))| Call {
                        executor: (item.model as u64, s),
                        matrix: Arc::clone(m),
                        inputs: slice_inputs(&item.inputs, range),
                    })
                    .collect()
            } else {
                vec![Call {
                    executor: (item.reply.device, 0),
                    matrix: Arc::clone(matrix),
                    inputs: item.inputs.clone(),
                }]
            };
            let mut run = MedianExecute {
                samples: item.inputs.len() as f64,
                ..MedianExecute::default()
            };
            for call in calls {
                let exec = execs
                    .entry(call.executor)
                    .or_insert_with(|| TileExecutor::new(cfg, call.executor.0 as usize));
                let start = Instant::now();
                let (_, cost) = black_box(
                    exec.execute(&call.matrix, &call.inputs)
                        .expect("served requests execute"),
                );
                run.us += start.elapsed().as_nanos() as f64 / 1e3;
                run.tiles_written += cost.tiles_written as f64;
                run.tile_passes += cost.tiles as f64;
            }
            if pass == 1 {
                timed.push(run);
            }
        }
    }
    timed.sort_by(|a, b| a.us.total_cmp(&b.us));
    timed[timed.len() / 2]
}

/// `TensorCore::matmul_into` on the workload's own tiles and input
/// splits, per sample row.
fn matmul_ns(models: &ModelSet, items: &[ReplayItem], budget: Duration) -> f64 {
    /// Tiles timed, each for an equal share of the budget.
    const TILES: usize = 16;
    let mut work: Vec<(&[Vec<u32>], Vec<FlatBatch>)> = Vec::new();
    for (model, matrix) in models.matrices.iter().enumerate() {
        let mine: Vec<&ReplayItem> = items.iter().filter(|i| i.model == model).collect();
        if mine.is_empty() {
            continue;
        }
        for br in 0..matrix.block_rows() {
            for bc in 0..matrix.block_cols() {
                let batches = mine
                    .iter()
                    .map(|i| {
                        let mut batch = FlatBatch::new();
                        batch.reset(i.inputs.len(), matrix.shape().cols);
                        for (s, x) in i.inputs.iter().enumerate() {
                            matrix.split_column_into(x, bc, batch.row_mut(s));
                        }
                        batch
                    })
                    .collect();
                work.push((matrix.tile(br, bc).codes(), batches));
            }
        }
    }
    work.truncate(TILES);
    let share = budget / work.len().max(1) as u32;
    let mut core = device_core();
    let mut codes = FlatCodes::new();
    let (mut spent, mut rows) = (0.0, 0usize);
    for (tile, batches) in &work {
        core.load_weight_codes(tile);
        let samples: usize = batches.iter().map(FlatBatch::samples).sum();
        spent += per_call_ns(batches, share, |b| {
            core.matmul_into(b.view(), &mut codes);
            black_box(&codes);
        }) * batches.len() as f64;
        rows += samples;
    }
    spent / rows.max(1) as f64
}

/// `TensorCore::write_weights_transient` over the tile-switch sequence
/// the requests imply (consecutive repeats of one tile skipped). Returns
/// µs and modeled pJ per written tile.
fn writes(models: &ModelSet, items: &[ReplayItem]) -> (f64, f64) {
    let mut sequence = Vec::new();
    let mut last = None;
    for item in items {
        let m = &models.matrices[item.model];
        for br in 0..m.block_rows() {
            for bc in 0..m.block_cols() {
                let key = m.tile(br, bc).key();
                if last != Some(key) {
                    sequence.push(m.tile(br, bc).codes());
                    last = Some(key);
                }
            }
        }
    }
    if sequence.is_empty() {
        return (0.0, 0.0);
    }
    let mut core = device_core();
    let start = Instant::now();
    let mut energy = 0.0;
    for codes in &sequence {
        energy += core.write_weights_transient(codes).0.as_joules();
    }
    let n = sequence.len() as f64;
    (
        start.elapsed().as_nanos() as f64 / n / 1e3,
        energy / n * 1e12,
    )
}

/// `TensorCore::digitize_slice`, one sample's row outputs per call, over
/// the analog outputs the workload's own tiles and inputs produce.
fn digitize_ns(models: &ModelSet, items: &[ReplayItem], budget: Duration) -> f64 {
    let mut core = device_core();
    let rows = core.config().rows;
    let mut ys = Vec::new();
    for item in items {
        let m = &models.matrices[item.model];
        core.load_weight_codes(m.tile(0, 0).codes());
        for x in item.inputs.iter().take(16) {
            let mut split = vec![0.0; m.shape().cols];
            m.split_column_into(x, 0, &mut split);
            ys.extend(core.matvec_analog(&split));
        }
    }
    let slices: Vec<&[f64]> = ys.chunks_exact(rows).collect();
    let mut codes = vec![0u16; rows];
    per_call_ns(&slices, budget, |ys| {
        core.digitize_slice(ys, &mut codes);
        black_box(&codes);
    }) / rows as f64
}

/// The coordinator's own cost per request: `Coordinator::submit_blocking`
/// minus the same shard calls submitted straight to one runtime with as
/// many devices, both warmed by one untimed pass.
fn coord_us(models: &ModelSet, items: &[ReplayItem]) -> f64 {
    let coordinator = Coordinator::start(cluster_config());
    for (matrix, share) in models.matrices.iter().zip(models.shares()) {
        coordinator.register(matrix, share);
    }
    let devices = cluster_config().nodes * runtime_config().devices;
    let runtime = Runtime::start(RuntimeConfig {
        devices,
        ..runtime_config()
    });
    let shard_sets: Vec<_> = models.matrices.iter().map(|m| shards(m)).collect();
    let timed = |timed: bool| -> (Duration, Duration) {
        let (mut coord, mut direct) = (Duration::ZERO, Duration::ZERO);
        for item in items {
            let matrix = Arc::clone(&models.matrices[item.model]);
            let req = MatmulRequest::new(matrix, item.inputs.clone());
            let start = Instant::now();
            black_box(coordinator.submit_blocking(req).expect("cluster serves"));
            let mid = Instant::now();
            let handles: Vec<_> = shard_sets[item.model]
                .iter()
                .map(|(m, range)| {
                    let req = MatmulRequest::new(Arc::clone(m), slice_inputs(&item.inputs, range));
                    runtime.submit(req).expect("runtime accepts")
                })
                .collect();
            for h in handles {
                black_box(h.wait().expect("runtime serves"));
            }
            if timed {
                coord += mid - start;
                direct += mid.elapsed();
            }
        }
        (coord, direct)
    };
    timed(false);
    let (coord, direct) = timed(true);
    (coord.as_nanos() as f64 - direct.as_nanos() as f64) / items.len() as f64 / 1e3
}
