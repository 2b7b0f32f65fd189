//! `benchmark` — one seeded benchmark of the photonic serving stack.
//!
//! ```text
//! benchmark [run] [--workload NAME]... [--seed N] [--seconds 22]
//!                 [--trace [0|1]] [--smoke] [--repeat K]
//! benchmark compare PARENT.json CHANGE.json
//! ```
//!
//! `run` (the default) runs each workload in a child process of this
//! binary, prints every metric with its unit and basis, writes the run
//! to `target/benchmark/`, and ends with one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` (the
//! default) reports the end-to-end metrics; `--trace 1` repeats the load
//! with the benchmark's own spans and reports the per-layer metrics and
//! the waterfall; a bare `--trace` does both.
//! The phase plan is fixed (2 s warm-up, 6 s low, 6 s high, 8 s
//! saturate), so that two commits always run the same lengths;
//! `--seconds` may only name its 22 s.
//! `--smoke` shortens every phase to 0.5 s and, unless `--trace` says
//! otherwise, runs the traced pass, which runs the correctness checks
//! too. A failed check exits non-zero before any number is printed.
//!
//! `compare` applies the bounds in `BENCHMARK.json` (read from the
//! working directory) to two run files and exits non-zero if any
//! metric regressed.

mod calib;
mod check;
mod child;
mod client;
mod compare;
mod replay;
mod report;
mod scrape;
mod spec;
mod stats;
mod trace;
mod workload;

use child::Fault;
use report::{num, obj, text, write_out};
use serde::Value;
use spec::{MetricSpec, WorkloadSpec, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{SystemTime, UNIX_EPOCH};

/// Extra cold set-ups per workload, each in its own process, so
/// `setup_s` is a median rather than one sample.
const SETUP_REPEATS: usize = 3;

/// Which passes to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Passes {
    Untraced,
    Traced,
    Both,
}

/// Parsed command line.
#[derive(Debug)]
struct Options {
    workloads: Vec<&'static WorkloadSpec>,
    seed: u64,
    passes: Passes,
    smoke: bool,
    repeat: u64,
    fault: Option<Fault>,
    setup_only: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: spec::SEED,
        passes: Passes::Untraced,
        smoke: false,
        repeat: 1,
        fault: None,
        setup_only: false,
    };
    let mut trace_given = false;
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                for name in value("--workload")?.split(',') {
                    o.workloads.push(
                        spec::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
            }
            "--seed" => {
                o.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes an integer")?
            }
            "--seconds" => {
                let plan = child::plan_seconds();
                if value("--seconds")?.parse::<f64>().ok() != Some(plan) {
                    return Err(format!("--seconds must be {plan}: the phase plan is fixed"));
                }
            }
            "--trace" => {
                trace_given = true;
                o.passes = match it.peek().map(|s| s.as_str()) {
                    Some("0") => Passes::Untraced,
                    Some("1") => Passes::Traced,
                    _ => {
                        o.passes = Passes::Both;
                        continue;
                    }
                };
                it.next();
            }
            "--smoke" => o.smoke = true,
            "--repeat" => {
                o.repeat = value("--repeat")?
                    .parse()
                    .ok()
                    .filter(|&k| k > 0)
                    .ok_or("--repeat takes a positive integer")?;
            }
            "--inject-fault" => {
                let f = value("--inject-fault")?;
                o.fault = Some(Fault::parse(&f).ok_or_else(|| format!("unknown fault {f:?}"))?);
            }
            "--setup-only" => o.setup_only = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if o.smoke && !trace_given {
        o.passes = Passes::Traced;
    }
    if o.workloads.is_empty() {
        o.workloads = spec::WORKLOADS.iter().collect();
    }
    Ok(o)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare_files(&args[1..]),
        Some("child") => run_child(&args[1..]),
        Some("run") => parse(&args[1..]).and_then(|o| run(&o)),
        _ => parse(&args).and_then(|o| run(&o)),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `child …`: runs one workload in this process and prints its result.
fn run_child(args: &[String]) -> Result<bool, String> {
    let o = parse(args)?;
    let [spec] = o.workloads[..] else {
        return Err("a child runs exactly one workload".to_owned());
    };
    let line = child::run(&child::Args {
        spec,
        kind: workload::Kind::from_name(spec.name).expect("specs name known kinds"),
        seed: o.seed,
        trace: o.passes == Passes::Traced,
        smoke: o.smoke,
        fault: o.fault,
        setup_only: o.setup_only,
    })
    .map_err(|e| format!("{}: {e}", spec.name))?;
    println!("{}", serde_json::to_string(&line).expect("json"));
    Ok(true)
}

/// Spawns this binary as a child for one workload and parses its line.
fn spawn_child(
    o: &Options,
    spec: &WorkloadSpec,
    seed: u64,
    traced: bool,
    setup_only: bool,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", spec.name])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if o.smoke {
        cmd.arg("--smoke");
    }
    if let Some(f) = o.fault {
        cmd.args(["--inject-fault", f.label()]);
    }
    if setup_only {
        cmd.arg("--setup-only");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning the {} child: {e}", spec.name))?;
    if !out.status.success() {
        return Err(format!("the {} child failed ({})", spec.name, out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(last)
        .map_err(|e| format!("the {} child printed no result: {e}", spec.name))
}

/// One workload pass: set-up repeats, then the measured child.
fn run_workload(
    o: &Options,
    spec: &WorkloadSpec,
    seed: u64,
    traced: bool,
) -> Result<Value, String> {
    let mut setups = Vec::new();
    if !traced && !o.smoke {
        for _ in 0..SETUP_REPEATS {
            let r = spawn_child(o, spec, seed, false, true)?;
            setups.push(
                r["setup_s"]
                    .as_f64()
                    .ok_or("set-up child gave no setup_s")?,
            );
        }
    }
    let mut result = spawn_child(o, spec, seed, traced, false)?;
    if let Value::Object(map) = &mut result {
        if let Some(Value::Object(metrics)) = map.get_mut("metrics") {
            if let Some(own) = metrics.get("setup_s").and_then(Value::as_f64) {
                setups.push(own);
                metrics.insert("setup_s".into(), num(stats::median(&setups)));
            }
        }
        map.insert(
            "setup_s_samples".into(),
            Value::Array(setups.iter().map(|&s| num(s)).collect()),
        );
    }
    Ok(result)
}

fn table(traced: bool) -> &'static [MetricSpec] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Prints one workload's numbers for a human.
fn print_result(spec: &WorkloadSpec, seed: u64, traced: bool, r: &Value) {
    println!(
        "== {} (seed {seed}, {}) ==",
        spec.name,
        if traced {
            "traced: per-layer"
        } else {
            "untraced: end-to-end"
        }
    );
    let counts = &r["counts"];
    for m in table(traced) {
        let value = r["metrics"][m.name].as_f64().unwrap_or(f64::NAN);
        let mut note = String::new();
        if m.name == "setup_s" {
            note = format!(
                "median of {} cold set-ups",
                r["setup_s_samples"].as_array().map_or(0, Vec::len)
            );
        } else if let Some(phase) = m
            .name
            .strip_prefix("lat_p50_ms.")
            .or_else(|| m.name.strip_prefix("bench.lat_p99_ms."))
        {
            note = tail_note(counts, phase);
        } else if m.name == "ok_frac" {
            note = format!("fail_frac {:.6}", 1.0 - value);
        } else if m.name == "tensor.modeled_tops" {
            note = "paper: 4.10 peak".to_owned();
        } else if m.name == "tensor.modeled_tops_per_w" {
            note = "paper: 3.02 peak".to_owned();
        }
        if let Some(bound) = spec::bound_of(m.name) {
            note = format!("bound {:.1}%  {note}", bound * 100.0);
        }
        println!(
            "  {:<32} {:>14.4} {:<7} {:<8} {:<10} {note}",
            m.name,
            value,
            m.unit,
            m.basis.label(),
            m.layer
        );
    }
    if traced {
        print_waterfall(&r["waterfall"]);
        if let Some(path) = r["trace_file"].as_str() {
            println!("  spans: {path}");
        }
    } else {
        for phase in ["low", "high"] {
            let p99 = counts[format!("lat_p99_ms.{phase}").as_str()]
                .as_f64()
                .unwrap_or(0.0);
            println!(
                "  {:<32} {p99:>14.4} {:<7} {:<8} {:<10} {} (not bounded: too noisy on a shared host)",
                format!("lat_p99_ms.{phase}"),
                "ms",
                "host",
                "e2e",
                tail_note(counts, phase)
            );
        }
        println!(
            "  host speed {:.3} of the reference, {:.1} % of CPU time stolen; unscaled goodput {:.0} 1/s, set-up {:.4} s",
            counts["host_speed"].as_f64().unwrap_or(0.0),
            counts["stolen_share"].as_f64().unwrap_or(0.0) * 100.0,
            counts["host_goodput_rps"].as_f64().unwrap_or(0.0),
            counts["host_setup_s"].as_f64().unwrap_or(0.0),
        );
        let c = &r["checks"];
        println!(
            "  checks: {} attempted = {} ok + {} typed errors; {} pre-expired answered 504; {} replies bit-identical to a solo executor",
            c["attempted"].as_f64().unwrap_or(0.0),
            c["ok"].as_f64().unwrap_or(0.0),
            c["typed_errors"].as_f64().unwrap_or(0.0),
            c["pre_expired"].as_f64().unwrap_or(0.0),
            c["bit_identical_replies"].as_f64().unwrap_or(0.0),
        );
    }
}

/// A latency's sample count, and whether its phase supports p99 (at
/// least ten samples beyond it) or only a lower percentile.
fn tail_note(counts: &Value, phase: &str) -> String {
    let n = counts[format!("lat_samples.{phase}").as_str()]
        .as_f64()
        .unwrap_or(0.0);
    let pct = counts[format!("lat_tail_pct.{phase}").as_str()]
        .as_f64()
        .unwrap_or(0.0);
    if counts[format!("lat_p99_supported.{phase}").as_str()].as_f64() == Some(1.0) {
        format!("n={n}")
    } else {
        format!("n={n}: p99 unsupported, highest supported p{pct}")
    }
}

/// The low-rate p50 broken into layers, outermost first.
fn print_waterfall(w: &Value) {
    let p50 = w["p50_us"].as_f64().unwrap_or(0.0);
    println!("  waterfall of the low-rate p50 ({p50:.1} us, host time):");
    let mut sum = 0.0;
    for (key, label) in child::WATERFALL_ROWS {
        let v = w[key].as_f64().unwrap_or(0.0);
        sum += v;
        let flag = if v < 0.0 {
            "  <- negative: the rows do not close"
        } else {
            ""
        };
        println!(
            "    {label:<36} {v:>10.1} us {:>6.1}%{flag}",
            100.0 * v / p50.max(f64::MIN_POSITIVE)
        );
    }
    println!("    {:<36} {sum:>10.1} us", "sum");
}

/// The `run` subcommand.
fn run(o: &Options) -> Result<bool, String> {
    let passes: &[bool] = match o.passes {
        Passes::Untraced => &[false],
        Passes::Traced => &[true],
        Passes::Both => &[false, true],
    };
    let single = o.workloads.len() == 1 && o.repeat == 1;
    let mut records = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut finals: BTreeMap<String, (Vec<f64>, &'static str)> = BTreeMap::new();
    for rep in 0..o.repeat {
        let seed = o.seed + rep;
        for &spec in &o.workloads {
            for &traced in passes {
                let mut r = run_workload(o, spec, seed, traced)?;
                print_result(spec, seed, traced, &r);
                attempted += r["attempted"].as_f64().unwrap_or(0.0) as u64;
                failed += r["failed"].as_f64().unwrap_or(0.0) as u64;
                // Attach each metric's unit, layer and basis.
                let metrics = table(traced)
                    .iter()
                    .map(|m| {
                        let v = r["metrics"][m.name].as_f64().unwrap_or(f64::NAN);
                        let key = if single {
                            m.name.to_owned()
                        } else {
                            format!("{}:{}", spec.name, m.name)
                        };
                        finals
                            .entry(key)
                            .or_insert_with(|| (Vec::new(), m.unit))
                            .0
                            .push(v);
                        (
                            m.name,
                            obj([
                                ("value", num(v)),
                                ("unit", text(m.unit)),
                                ("layer", text(m.layer)),
                                ("basis", text(m.basis.label())),
                            ]),
                        )
                    })
                    .collect::<Vec<_>>();
                if let Value::Object(map) = &mut r {
                    map.insert("metrics".into(), obj(metrics));
                }
                records.push(r);
            }
        }
    }
    let created = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let path = write_out(
        &format!("run-{created}-seed{}.json", o.seed),
        &obj([
            ("seed", num(o.seed as f64)),
            ("held_out_seed", num(spec::HELD_OUT_SEED as f64)),
            ("smoke", Value::Bool(o.smoke)),
            ("repeat", num(o.repeat as f64)),
            ("created_unix_s", num(created as f64)),
            ("records", Value::Array(records)),
        ]),
    )
    .map_err(|e| format!("writing the run file: {e}"))?;
    println!("run file: {}", path.display());
    let metrics = obj(finals.into_iter().map(|(k, (values, unit))| {
        (
            k,
            obj([("value", num(stats::median(&values))), ("unit", text(unit))]),
        )
    }));
    // Written by hand: the counts must print as JSON integers.
    println!(
        "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        serde_json::to_string(&metrics).expect("json")
    );
    Ok(true)
}

/// The `compare` subcommand.
fn compare_files(args: &[String]) -> Result<bool, String> {
    let [parent, change] = args else {
        return Err("usage: benchmark compare PARENT.json CHANGE.json".to_owned());
    };
    let read = |path: &str| -> Result<Value, String> {
        let body = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&body).map_err(|e| format!("{path}: {e}"))
    };
    compare::run(&read("BENCHMARK.json")?, &read(parent)?, &read(change)?)
}
