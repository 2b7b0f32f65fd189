//! What the benchmark measures: its workloads with their fixed offered
//! loads, and every metric with its layer, unit, basis and direction.
//!
//! `BENCHMARK.json` at the repository root repeats the names, units,
//! directions and `why` lines for the tools that read it, and holds the
//! regression bounds; a test keeps the two in step.

/// The seed the offered loads and bounds were derived on.
pub const SEED: u64 = 42;
/// A seed kept out of tuning, for confirming a claim on fresh inputs.
pub const HELD_OUT_SEED: u64 = 7;

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Stable name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layer it stresses.
    pub why: &'static str,
    /// Offered load of the `low` phase, requests/s over both clients —
    /// about a quarter of seed 42's `saturate` goodput, rounded down to
    /// 100 req/s. Fixed once so a faster program meets the same load.
    pub low_rps: u32,
    /// Offered load of the `high` phase: about 45 % of that goodput. (At
    /// 60 % the queueing that builds behind the shared host's stalls made
    /// `batch-resident`'s p50 spread by a third of its median across
    /// seeds.)
    pub high_rps: u32,
}

/// The workloads, in run order.
pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "serve-hot",
        why: "Zipf 1.1 over the serving demo's 12-model shape mix, 1-2 samples: today's traffic, hot single-tile models beside a multi-tile tail that rewrites pSRAM",
        low_rps: 1300,
        high_rps: 2400,
    },
    WorkloadSpec {
        name: "serve-cold",
        why: "24 four-tile models at uniform popularity rewrite pSRAM on every request: the write path and runtime queueing dominate, net barely matters",
        low_rps: 400,
        high_rps: 700,
    },
    WorkloadSpec {
        name: "batch-resident",
        why: "128-sample requests on 4 resident single-tile models, in process: the tensor kernel and eoADC digitise dominate and no net layer runs",
        low_rps: 4700,
        high_rps: 8400,
    },
    WorkloadSpec {
        name: "cluster-shard",
        why: "2 nodes x 4 devices behind the HTTP front-end serve 4 two-shard models: coordinator fan-out and the blocking offload path run on every request",
        low_rps: 3900,
        high_rps: 7100,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Whether a smaller or a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, costs, counts of trouble).
    Lower,
    /// Larger is better (rates, hit rates).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whether a number is what this host spent, or what the paper's
/// hardware model would spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Basis {
    /// Measured on this host (wall time, memory, counts).
    Host,
    /// Charged by the hardware cost model (20 GHz writes, 2.32 pJ/conv).
    Modeled,
}

impl Basis {
    /// Printed label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Basis::Host => "host",
            Basis::Modeled => "modeled",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    /// Stable name.
    pub name: &'static str,
    /// Unit, as printed and written.
    pub unit: &'static str,
    /// `e2e`, or the layer the number belongs to.
    pub layer: &'static str,
    /// Host or modeled.
    pub basis: Basis,
    /// Direction of improvement.
    pub better: Better,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    basis: Basis,
    better: Better,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        layer,
        basis,
        better,
    }
}

use Basis::{Host, Modeled};
use Better::{Higher, Lower};

/// What a user of the stack sees, from the untraced run. Host times and
/// rates are scaled to the reference host speed, slice by slice (see
/// `child.rs`), and each rate and p50 is the median over the slices of
/// its phase that lost the least CPU time to the hypervisor.
///
/// `ok_frac` is 1 − `fail_frac`: the share of requests that ended as an
/// OK or as the 504 a pre-expired request must get. A share that is 0 on
/// every healthy run cannot carry a bound relative to its median, while
/// its complement, 1, can: a bound of 0.001 on `ok_frac` is the absolute
/// +0.001 on `fail_frac`. The p99 latencies are not here: they spread by
/// 40–240 % of their median across seeds on a two-core shared host, wider
/// than any bound a regression gate can use. They are reported with
/// their sample counts among the per-layer numbers instead.
pub const END_TO_END: &[MetricSpec] = &[
    m("setup_s", "s", "e2e", Host, Lower),
    m("goodput_rps", "1/s", "e2e", Host, Higher),
    m("sim_gops", "GOP/s", "e2e", Host, Higher),
    m("lat_p50_ms.low", "ms", "e2e", Host, Lower),
    m("lat_p50_ms.high", "ms", "e2e", Host, Lower),
    m("ok_frac", "frac", "e2e", Host, Higher),
    m("modeled_nj_per_req", "nJ", "e2e", Modeled, Lower),
    m("peak_rss_mb", "MB", "e2e", Host, Lower),
];

/// How an end-to-end metric's regression bound was set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundRule {
    /// The metric.
    pub metric: &'static str,
    /// The least bound the metric gets, however steady it measured.
    pub floor: f64,
    /// Its widest measured spread: the quartile distance over the median
    /// of ten seeds, the largest over the workloads and over three sets
    /// of runs made at different times.
    pub spread: f64,
}

/// The largest bound a regression gate may use; `setup_s` carries it.
pub const MAX_BOUND: f64 = 0.25;

impl BoundRule {
    /// The bound: the larger of twice the spread and the floor, rounded
    /// up to a whole percent (a tenth of a percent below 1 %), and at
    /// most [`MAX_BOUND`]. `setup_s` carries [`MAX_BOUND`], the largest:
    /// its spread is not held to the bound, but work moved into set-up
    /// must still show.
    #[must_use]
    pub fn bound(&self) -> f64 {
        if self.metric == "setup_s" {
            return MAX_BOUND;
        }
        let raw = (2.0 * self.spread).max(self.floor);
        let step = if raw < 0.01 { 1000.0 } else { 100.0 };
        ((raw * step - 1e-9).ceil() / step).min(MAX_BOUND)
    }
}

/// The regression bound of an end-to-end metric.
#[must_use]
pub fn bound_of(metric: &str) -> Option<f64> {
    BOUNDS
        .iter()
        .find(|r| r.metric == metric)
        .map(BoundRule::bound)
}

/// The bound of each end-to-end metric, in [`END_TO_END`] order. Spreads
/// are from the tables in `README.md`.
pub const BOUNDS: &[BoundRule] = &[
    BoundRule {
        metric: "setup_s",
        floor: 0.15,
        spread: 0.177,
    },
    BoundRule {
        metric: "goodput_rps",
        floor: 0.05,
        spread: 0.083,
    },
    BoundRule {
        metric: "sim_gops",
        floor: 0.05,
        spread: 0.082,
    },
    BoundRule {
        metric: "lat_p50_ms.low",
        floor: 0.10,
        spread: 0.182,
    },
    BoundRule {
        metric: "lat_p50_ms.high",
        floor: 0.10,
        spread: 0.144,
    },
    BoundRule {
        metric: "ok_frac",
        floor: 0.001,
        spread: 0.0,
    },
    BoundRule {
        metric: "modeled_nj_per_req",
        floor: 0.03,
        spread: 0.013,
    },
    BoundRule {
        metric: "peak_rss_mb",
        floor: 0.05,
        spread: 0.042,
    },
];

/// Single-layer numbers from the traced run, measured from outside by
/// timing each layer's public calls or reading its `/metrics`. A counter
/// of a layer the workload does not pass through reads 0; the replayed
/// unit costs are measured on every workload's own requests.
pub const PER_LAYER: &[MetricSpec] = &[
    m("bench.host_speed", "ratio", "bench", Host, Higher),
    m("bench.gen_lag_ms.p99", "ms", "bench", Host, Lower),
    m("bench.client_us", "us", "bench", Host, Lower),
    m("bench.lat_p99_ms.low", "ms", "bench", Host, Lower),
    m("bench.lat_p99_ms.high", "ms", "bench", Host, Lower),
    m("bench.lat_samples.low", "count", "bench", Host, Higher),
    m("bench.lat_samples.high", "count", "bench", Host, Higher),
    m("net.http_parse_us", "us", "net", Host, Lower),
    m("net.wire_parse_us", "us", "net", Host, Lower),
    m("net.reply_encode_us", "us", "net", Host, Lower),
    m("net.fair_ns", "ns", "net", Host, Lower),
    m("net.front_us.p50", "us", "net", Host, Lower),
    m("net.shed", "count", "net", Host, Lower),
    m("net.replies_error", "count", "net", Host, Lower),
    m("runtime.latency_ms.p50", "ms", "runtime", Host, Lower),
    m("runtime.queue_ms.p99", "ms", "runtime", Host, Lower),
    m("runtime.worker_busy_frac", "frac", "runtime", Host, Lower),
    m("runtime.batch_size", "count", "runtime", Host, Higher),
    m("runtime.tile_hit_rate", "frac", "runtime", Host, Higher),
    m(
        "runtime.tile_writes_per_req",
        "count",
        "runtime",
        Host,
        Lower,
    ),
    m("runtime.deadline_misses", "count", "runtime", Host, Lower),
    m("runtime.execute_us", "us", "runtime", Host, Lower),
    m("runtime.sched_us", "us", "runtime", Host, Lower),
    m("cluster.coord_us", "us", "cluster", Host, Lower),
    m("cluster.shards_per_req", "count", "cluster", Host, Lower),
    m("cluster.retried_shards", "count", "cluster", Host, Lower),
    m("cluster.shard_balance", "ratio", "cluster", Host, Lower),
    m("tensor.matmul_ns_per_sample", "ns", "tensor", Host, Lower),
    m("tensor.samples_per_call", "count", "tensor", Host, Higher),
    m("tensor.modeled_tops", "TOPS", "tensor", Modeled, Higher),
    m(
        "tensor.modeled_tops_per_w",
        "TOPS/W",
        "tensor",
        Modeled,
        Higher,
    ),
    m("psram.write_us_per_tile", "us", "psram", Host, Lower),
    m("psram.modeled_pj_per_tile", "pJ", "psram", Modeled, Lower),
    m("eoadc.digitize_ns_per_code", "ns", "eoadc", Host, Lower),
    m("eoadc.modeled_energy_frac", "frac", "eoadc", Modeled, Lower),
    m("obs.bench_trace_overhead_frac", "frac", "obs", Host, Lower),
    m("obs.head_sample_cost_frac", "frac", "obs", Host, Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(json: &'a Value, key: &str) -> &'a Vec<Value> {
        json.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = benchmark_json();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = entries(&json, key);
            assert_eq!(listed.len(), table.len(), "{key} count");
            for (entry, spec) in listed.iter().zip(table) {
                assert_eq!(entry["name"].as_str(), Some(spec.name));
                assert_eq!(entry["unit"].as_str(), Some(spec.unit), "{}", spec.name);
                assert_eq!(
                    entry["better"].as_str(),
                    Some(spec.better.label()),
                    "{}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn every_bound_follows_its_rule() {
        let json = benchmark_json();
        let listed = entries(&json, "end_to_end");
        assert_eq!(listed.len(), BOUNDS.len());
        for (entry, rule) in listed.iter().zip(BOUNDS) {
            assert_eq!(entry["name"].as_str(), Some(rule.metric));
            assert_eq!(entry["bound"].as_f64(), Some(rule.bound()), "{rule:?}");
            // Every spread but set-up's fits inside its bound, or two
            // sets of runs of the same code could not be told apart.
            assert!(
                rule.metric == "setup_s" || rule.spread < rule.bound(),
                "{rule:?}"
            );
        }
    }

    #[test]
    fn the_bound_rule_takes_twice_the_spread_over_the_floor() {
        let rule = |metric, floor, spread| BoundRule {
            metric,
            floor,
            spread,
        };
        assert_eq!(rule("goodput_rps", 0.05, 0.078).bound(), 0.16);
        assert_eq!(rule("goodput_rps", 0.05, 0.01).bound(), 0.05);
        assert_eq!(rule("ok_frac", 0.001, 0.0).bound(), 0.001);
        assert_eq!(rule("lat_p50_ms.low", 0.10, 0.19).bound(), MAX_BOUND);
        assert_eq!(rule("setup_s", 0.15, 0.02).bound(), MAX_BOUND);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads() {
        let json = benchmark_json();
        let listed = entries(&json, "workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, spec) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(entry["name"].as_str(), Some(spec.name));
            assert_eq!(entry["why"].as_str(), Some(spec.why));
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
    }

    #[test]
    fn names_and_units_fit_the_schema() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        let unit_ok = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for spec in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(spec.name), "{}", spec.name);
            assert!(unit_ok(spec.unit), "{}", spec.unit);
            assert!(seen.insert(spec.name), "{} listed twice", spec.name);
        }
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.low_rps % 100 == 0 && w.high_rps % 100 == 0 && w.low_rps < w.high_rps);
        }
    }
}
