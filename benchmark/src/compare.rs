//! `benchmark compare`: applies `BENCHMARK.json`'s bounds to a parent and
//! a change run, metric by metric and workload by workload.
//!
//! A metric regressed when the change's median is worse than the
//! parent's by more than its bound. It improved only when the change
//! wins at least nine pairs in ten (same seed on both sides, ties for
//! neither) and the medians differ by more than the parent's own
//! quartile distance. When either side's spread exceeds the bound the
//! runs cannot tell, so the metric is unresolved — unless every change
//! run beats (or trails) every parent run.

use crate::spec::Better;
use crate::stats::{iqr_share, quartiles};
use serde::Value;
use std::collections::BTreeMap;

/// What a comparison concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better beyond noise, by the pair-win rule.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// Run-to-run spread wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Printed label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

fn summary(values: &[f64]) -> Summary {
    let (q1, median, q3) = if values.len() >= 2 {
        quartiles(values)
    } else {
        (values[0], values[0], values[0])
    };
    Summary { q1, median, q3 }
}

/// One metric × workload comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Parent side.
    pub parent: Summary,
    /// Change side.
    pub change: Summary,
    /// How much worse the change's median is, as a share of the
    /// parent's (negative = better).
    pub worse_share: f64,
    /// Pairs the change won, of pairs compared.
    pub wins: (usize, usize),
    /// The conclusion.
    pub verdict: Verdict,
}

/// Relative difference below which two runs of a metric tie.
const TIE: f64 = 1e-9;

/// Compares two sets of runs of one metric. `parent[i]` and `change[i]`
/// are a pair (same seed).
///
/// # Panics
///
/// Panics if either side is empty.
#[must_use]
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    assert!(
        !parent.is_empty() && !change.is_empty(),
        "both sides need runs"
    );
    // Values within float rounding of each other tie: a modeled metric
    // that differs only in its summation order wins nothing.
    let beats = |a: f64, b: f64| {
        let clear = (a - b).abs() > TIE * a.abs().max(b.abs());
        clear
            && match better {
                Better::Lower => a < b,
                Better::Higher => a > b,
            }
    };
    let (p, c) = (summary(parent), summary(change));
    let worse_share = match better {
        Better::Lower => (c.median - p.median) / p.median.abs(),
        Better::Higher => (p.median - c.median) / p.median.abs(),
    };
    let pairs = parent.len().min(change.len());
    let wins = (0..pairs).filter(|&i| beats(change[i], parent[i])).count();
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| beats(cv, pv)));
    let all_worse = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| beats(pv, cv)));
    let spread = iqr_share(parent).max(iqr_share(change));
    let verdict = if spread > bound {
        if all_better {
            Verdict::Improved
        } else if all_worse {
            Verdict::Regressed
        } else {
            Verdict::Unresolved
        }
    } else if worse_share > bound {
        Verdict::Regressed
    } else if worse_share < 0.0
        && wins * 10 >= pairs * 9
        && (c.median - p.median).abs() > p.q3 - p.q1
    {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    Comparison {
        parent: p,
        change: c,
        worse_share,
        wins: (wins, pairs),
        verdict,
    }
}

/// Every end-to-end metric's value per workload in a run file, ordered
/// by seed: `(workload, metric) → values`.
///
/// # Errors
///
/// When the file is not a run file.
pub fn samples(run: &Value) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let records = run
        .get("records")
        .and_then(Value::as_array)
        .ok_or("not a run file: no `records` array")?;
    let mut rows: Vec<(String, f64, &Value)> = Vec::new();
    for r in records {
        if r["trace"].as_bool() == Some(true) {
            continue;
        }
        let workload = r["workload"].as_str().ok_or("record without a workload")?;
        let seed = r["seed"].as_f64().ok_or("record without a seed")?;
        rows.push((workload.to_owned(), seed, &r["metrics"]));
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (workload, _, metrics) in rows {
        for (name, m) in metrics.as_object().into_iter().flatten() {
            if let Some(v) = m["value"].as_f64() {
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// The `compare` subcommand: prints one row per metric × workload and
/// returns whether nothing regressed.
///
/// # Errors
///
/// Unreadable or malformed inputs.
pub fn run(benchmark_json: &Value, parent: &Value, change: &Value) -> Result<bool, String> {
    if parent["smoke"].as_bool() != change["smoke"].as_bool() {
        return Err("one run file is a smoke run and the other is not: their phases differ".into());
    }
    let (p, c) = (samples(parent)?, samples(change)?);
    let workloads: Vec<&str> = benchmark_json["workloads"]
        .as_array()
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| w["name"].as_str())
        .collect();
    println!(
        "{:<15} {:<19} {:>28} {:>28} {:>8} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "parent median [q1, q3]",
        "change median [q1, q3]",
        "worse",
        "bound",
        "wins"
    );
    let mut clean = true;
    for metric in benchmark_json["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end metrics")?
    {
        let name = metric["name"].as_str().ok_or("metric without a name")?;
        let bound = metric["bound"].as_f64().ok_or("metric without a bound")?;
        let better = [Better::Lower, Better::Higher]
            .into_iter()
            .find(|b| metric["better"].as_str() == Some(b.label()))
            .ok_or_else(|| format!("{name}: `better` is neither lower nor higher"))?;
        for &w in &workloads {
            let key = (w.to_owned(), name.to_owned());
            let (Some(pv), Some(cv)) = (p.get(&key), c.get(&key)) else {
                continue;
            };
            let cmp = compare(pv, cv, better, bound);
            clean &= cmp.verdict != Verdict::Regressed;
            let side = |s: Summary| format!("{:.4} [{:.4}, {:.4}]", s.median, s.q1, s.q3);
            println!(
                "{w:<15} {name:<19} {:>28} {:>28} {:>7.1}% {:>5.1}% {:>3}/{:<2}  {}",
                side(cmp.parent),
                side(cmp.change),
                cmp.worse_share * 100.0,
                bound * 100.0,
                cmp.wins.0,
                cmp.wins.1,
                cmp.verdict.label()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten runs scattered ±1 % around `centre`.
    fn runs(centre: f64) -> Vec<f64> {
        (0..10)
            .map(|i| centre * (1.0 + (f64::from(i % 5) - 2.0) * 0.005))
            .collect()
    }

    #[test]
    fn the_same_distribution_is_unchanged() {
        let c = compare(&runs(100.0), &runs(100.0), Better::Lower, 0.05);
        assert_eq!(c.verdict, Verdict::Unchanged);
        assert_eq!(c.worse_share, 0.0);
    }

    #[test]
    fn a_shift_beyond_the_bound_regresses_in_either_direction() {
        let c = compare(&runs(100.0), &runs(110.0), Better::Lower, 0.05);
        assert_eq!(c.verdict, Verdict::Regressed, "{c:?}");
        let c = compare(&runs(100.0), &runs(90.0), Better::Higher, 0.05);
        assert_eq!(c.verdict, Verdict::Regressed, "{c:?}");
        // Worse, but within the bound: not a regression.
        let c = compare(&runs(100.0), &runs(103.0), Better::Lower, 0.05);
        assert_eq!(c.verdict, Verdict::Unchanged, "{c:?}");
    }

    #[test]
    fn an_improvement_needs_nine_pair_wins_in_ten() {
        let parent = runs(100.0);
        let better: Vec<f64> = parent.iter().map(|v| v * 0.96).collect();
        let c = compare(&parent, &better, Better::Lower, 0.05);
        assert_eq!((c.verdict, c.wins), (Verdict::Improved, (10, 10)));
        // Two pairs lost: 8/10 wins is not enough, whatever the median.
        let mut mixed = better.clone();
        mixed[0] = parent[0] * 1.01;
        mixed[1] = parent[1] * 1.01;
        let c = compare(&parent, &mixed, Better::Lower, 0.05);
        assert_eq!((c.verdict, c.wins), (Verdict::Unchanged, (8, 10)));
        // One lost pair still passes the 9/10 rule.
        let mut one = better;
        one[3] = parent[3] * 1.001;
        assert_eq!(
            compare(&parent, &one, Better::Lower, 0.05).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn rounding_differences_tie() {
        let parent = vec![21.757_139_478_261_5; 10];
        let change: Vec<f64> = parent.iter().map(|v| v * (1.0 - 1e-13)).collect();
        let c = compare(&parent, &change, Better::Lower, 0.03);
        assert_eq!((c.verdict, c.wins), (Verdict::Unchanged, (0, 10)));
    }

    #[test]
    fn an_improvement_within_the_parents_own_spread_is_unchanged() {
        let parent = runs(100.0);
        // Wins every pair by a hair, but the median moves less than the
        // parent's quartile distance.
        let nudged: Vec<f64> = parent.iter().map(|v| v - 0.01).collect();
        let c = compare(&parent, &nudged, Better::Lower, 0.05);
        assert_eq!((c.verdict, c.wins), (Verdict::Unchanged, (10, 10)));
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved_unless_every_run_is_better() {
        let wide = vec![
            60.0, 80.0, 100.0, 120.0, 140.0, 70.0, 90.0, 110.0, 130.0, 100.0,
        ];
        let shifted: Vec<f64> = wide.iter().map(|v| v * 0.95).collect();
        let c = compare(&wide, &shifted, Better::Lower, 0.10);
        assert_eq!(c.verdict, Verdict::Unresolved, "{c:?}");
        let far: Vec<f64> = wide.iter().map(|v| v * 0.3).collect();
        assert_eq!(
            compare(&wide, &far, Better::Lower, 0.10).verdict,
            Verdict::Improved,
            "every change run beats every parent run"
        );
        let worse: Vec<f64> = wide.iter().map(|v| v * 3.0).collect();
        assert_eq!(
            compare(&wide, &worse, Better::Lower, 0.10).verdict,
            Verdict::Regressed
        );
    }

    #[test]
    fn a_smoke_run_is_never_compared_with_a_full_one() {
        let bench: Value =
            serde_json::from_str(r#"{"workloads":[],"end_to_end":[]}"#).expect("json");
        let file = |smoke: bool| -> Value {
            serde_json::from_str(&format!(r#"{{"smoke":{smoke},"records":[]}}"#)).expect("json")
        };
        assert!(run(&bench, &file(true), &file(false)).is_err());
        assert!(run(&bench, &file(false), &file(true)).is_err());
        assert_eq!(run(&bench, &file(false), &file(false)), Ok(true));
    }

    #[test]
    fn a_drop_in_the_ok_share_past_its_bound_regresses() {
        // `ok_frac` is 1 on a healthy run; its 0.001 bound is the
        // absolute +0.001 on the failed share.
        let parent = vec![1.0; 10];
        let few: Vec<f64> = (0..10).map(|i| 1.0 - f64::from(i % 2) * 2e-5).collect();
        let c = compare(&parent, &few, Better::Higher, 0.001);
        assert_eq!(c.verdict, Verdict::Unchanged, "{c:?}");
        let many = vec![0.995; 10];
        let c = compare(&parent, &many, Better::Higher, 0.001);
        assert_eq!(c.verdict, Verdict::Regressed, "{c:?}");
    }

    #[test]
    fn samples_group_by_workload_and_order_by_seed() {
        let run: Value = serde_json::from_str(
            r#"{"records":[
                {"workload":"a","seed":8,"trace":false,"metrics":{"x":{"value":2.0,"unit":"s"}}},
                {"workload":"a","seed":7,"trace":false,"metrics":{"x":{"value":1.0,"unit":"s"}}},
                {"workload":"a","seed":7,"trace":true,"metrics":{"y":{"value":5.0,"unit":"s"}}},
                {"workload":"b","seed":7,"trace":false,"metrics":{"x":{"value":9.0,"unit":"s"}}}
            ]}"#,
        )
        .expect("json");
        let s = samples(&run).expect("run file");
        assert_eq!(s[&("a".to_owned(), "x".to_owned())], vec![1.0, 2.0]);
        assert_eq!(s[&("b".to_owned(), "x".to_owned())], vec![9.0]);
        assert!(
            !s.contains_key(&("a".to_owned(), "y".to_owned())),
            "traced runs skipped"
        );
        assert!(samples(&Value::Null).is_err());
    }
}
