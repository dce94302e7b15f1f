//! The tinysdr benchmark: three workloads, end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run.
//!
//! ```text
//! tinysdr-perfbench --workload <phy_sweep|fleet_campaign|testbed_service>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! tinysdr-perfbench --self-test
//! tinysdr-perfbench --capacity
//! ```
//!
//! A run prints one stamp line (host, inputs and workload facts) and,
//! last, one JSON result line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! `perfbench/run.py` builds this binary and runs it from the
//! repository root.

// a benchmark measures wall time: every `Instant::now` here is the
// measurement itself, never an input to a result
#![allow(clippy::disallowed_methods)]

mod fleet;
mod measure;
mod phy;
mod service;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use measure::{peak_rss_mb, Outcome, Run, Size, Tracer};
use tinysdr_ota::json::Value;

const WORKLOADS: [&str; 3] = ["phy_sweep", "fleet_campaign", "testbed_service"];

/// End-to-end metrics every untraced run emits, with units.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("turnaround_p90_ms", "ms"),
];

/// Per-layer metrics every traced run emits, with units.
const PER_LAYER: [(&str, &str); 54] = [
    ("rf.prepare_pass_s", "s"),
    ("rf.prepare_pass_calls", "count"),
    ("rf.apply_prepared_s", "s"),
    ("lora.per.demod_s", "s"),
    ("lora.per.demod_msps", "Msps"),
    ("lora.per.rx_realtime_x", "x"),
    ("lora.per.decoded_frac", "ratio"),
    ("lora.per.filter_s", "s"),
    ("lora.ser_sf8.demod_s", "s"),
    ("lora.ser_sf8.demod_msps", "Msps"),
    ("lora.ser_sf10.demod_s", "s"),
    ("lora.ser_sf10.demod_msps", "Msps"),
    ("ble.demod_s", "s"),
    ("ble.demod_msps", "Msps"),
    ("zigbee.demod_s", "s"),
    ("zigbee.demod_msps", "Msps"),
    ("phy.modulate_s", "s"),
    ("phy.count_errors_s", "s"),
    ("bench.waterfall.parallel_efficiency", "ratio"),
    ("core.layout_s", "s"),
    ("ota.session_s", "s"),
    ("ota.sessions", "count"),
    ("ota.retx_per_packet", "ratio"),
    ("ota.aggregate_s", "s"),
    ("ota.checkpoint_s", "s"),
    ("ota.checkpoint_writes", "count"),
    ("ota.checkpoint_bytes", "B"),
    ("ota.report_json_s", "s"),
    ("ota.report_memory_bytes", "B"),
    ("core.parallel_efficiency", "ratio"),
    ("http.submit_ms_p50", "ms"),
    ("http.submit_ms_p90", "ms"),
    ("http.status_ms_p50", "ms"),
    ("http.status_ms_p90", "ms"),
    ("http.health_ms_p50", "ms"),
    ("http.health_ms_p90", "ms"),
    ("http.artifact_ms_p50", "ms"),
    ("queue.wait_ms_p50", "ms"),
    ("queue.wait_ms_p90", "ms"),
    ("queue.stale_start_stamps", "count"),
    ("queue.backlog_max", "count"),
    ("runner.run_ms_p50.campaign", "ms"),
    ("runner.run_ms_p50.link", "ms"),
    ("runner.run_ms_p50.energy", "ms"),
    ("runner.run_ms_p50.waterfall", "ms"),
    ("generator.lag_ms_max", "ms"),
    ("trace.traced_wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.untraced_frac", "ratio"),
    // sizes of the traced inputs, so a reader can turn times into rates
    ("phy.points", "count"),
    ("ota.blocks", "count"),
    ("service.jobs", "count"),
    ("service.requests", "count"),
    ("trace.iterations", "count"),
];

/// Parsed command line of a measured run.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A fresh scratch directory for one workload run, under the working
/// directory (the checkout root when run through `run.py`).
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_run").join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create the run's scratch directory");
    dir
}

fn untraced(workload: &str, run: &Run) -> Outcome {
    let mut out = match workload {
        "phy_sweep" => phy::untraced(run),
        "fleet_campaign" => fleet::untraced(run),
        _ => service::untraced(run),
    };
    out.metric("peak_rss_mb", peak_rss_mb(), "MB");
    out
}

fn traced_own(workload: &str, run: &Run) -> (Outcome, Tracer) {
    match workload {
        "phy_sweep" => phy::traced(run),
        "fleet_campaign" => fleet::traced(run),
        _ => service::traced(run),
    }
}

/// The traced run of `workload`, completed with the layers it never
/// enters: those come from tiny-size traced probes of the workloads
/// that do, so every traced run lists every layer (and the end-to-end
/// prediction for this workload stays "no change" for them).
fn traced(workload: &str, run: &Run) -> (Outcome, Tracer) {
    let (mut out, tracer) = traced_own(workload, run);
    let mut probed = Vec::new();
    for other in WORKLOADS.iter().filter(|w| **w != workload) {
        let probe_run = Run {
            size: Size::Tiny,
            window: Duration::ZERO,
            scratch: run.scratch.join(format!("probe-{other}")),
            ..run.clone()
        };
        std::fs::create_dir_all(&probe_run.scratch).expect("create the probe's scratch directory");
        let (probe, _) = traced_own(other, &probe_run);
        out.attempted += probe.attempted;
        out.failed += probe.failed;
        for (name, v, unit) in probe.metrics {
            if !name.starts_with("trace.") && out.get(&name).is_none() {
                out.metrics.push((name, v, unit));
            }
        }
        probed.push(*other);
    }
    out.note("trace.probed_tiny", probed.join(","));
    (out, tracer)
}

/// The metrics a result line must carry, in output order.
fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// Every expected metric present, finite, and in its declared unit.
fn complete(out: &Outcome, trace: bool) -> Result<(), String> {
    for (name, unit) in expected(trace) {
        match out.metrics.iter().find(|(n, _, _)| n == name) {
            None => return Err(format!("metric {name} missing")),
            Some((_, v, u)) if !v.is_finite() || u != unit => {
                return Err(format!(
                    "metric {name} = {v} {u}, want a finite value in {unit}"
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

fn env_or(key: &str, default: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| default.to_string())
}

/// The stamp line: host, inputs, and the workload's own facts.
fn stamp_line(workload: &str, args_seed: u64, seconds: f64, trace: bool, out: &Outcome) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload".to_string(), Value::str(workload)),
        ("seed".to_string(), Value::str(args_seed.to_string())),
        ("seconds".to_string(), Value::num(seconds)),
        ("trace".to_string(), Value::Bool(trace)),
        ("nproc".to_string(), Value::num(nproc as f64)),
        (
            "rustc".to_string(),
            Value::str(env_or("PERFBENCH_RUSTC", "unknown")),
        ),
        (
            "git_rev".to_string(),
            Value::str(env_or("PERFBENCH_GIT_REV", "none")),
        ),
        (
            "source_digest".to_string(),
            Value::str(env_or("PERFBENCH_SOURCE_DIGEST", "unknown")),
        ),
        (
            "failed_frac".to_string(),
            Value::num(out.failed as f64 / out.attempted.max(1) as f64),
        ),
    ];
    fields.extend(
        out.stamp
            .iter()
            .map(|(k, v)| (k.clone(), Value::str(v.clone()))),
    );
    Value::Obj(vec![("stamp".to_string(), Value::Obj(fields))]).write()
}

/// The result line, metrics in declared order.
fn result_line(out: &Outcome, trace: bool, correct: bool) -> String {
    let metrics: Vec<String> = expected(trace)
        .iter()
        .filter_map(|(name, _)| out.metrics.iter().find(|(n, _, _)| n == name))
        // a non-finite value already failed `complete`; keep the line JSON
        .map(|(name, v, unit)| (name, if v.is_finite() { *v } else { 0.0 }, unit))
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}

fn measured_run(args: &Args) -> ExitCode {
    let run = Run {
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
        size: Size::Full,
        corrupt_expected: false,
        scratch: scratch(&args.workload),
    };
    let out = if args.trace {
        let (out, tracer) = traced(&args.workload, &run);
        let dump =
            PathBuf::from(".bench_run").join(format!("spans-{}-{}.tsv", args.workload, args.seed));
        std::fs::write(dump, tracer.dump()).ok();
        out
    } else {
        untraced(&args.workload, &run)
    };
    std::fs::remove_dir_all(&run.scratch).ok();
    let shape = complete(&out, args.trace);
    if let Err(e) = &shape {
        eprintln!("perfbench: {e}");
    }
    let correct = shape.is_ok() && out.failed == 0 && out.attempted > 0;
    println!(
        "{}",
        stamp_line(&args.workload, args.seed, args.seconds, args.trace, &out)
    );
    println!("{}", result_line(&out, args.trace, correct));
    ExitCode::SUCCESS
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// Tiny-size run of every workload, untraced and traced: each must be
/// correct, emit exactly the metrics `BENCHMARK.json` declares with
/// their units, and count a deliberately wrong expectation as failed.
fn self_test() -> ExitCode {
    let doc = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| e.to_string())
        .and_then(|t| Value::parse(&t).map_err(|e| format!("{e:?}")));
    let doc = match doc {
        Ok(d) => d,
        Err(e) => {
            eprintln!("self-test: cannot read BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut problems = Vec::new();
    for (key, list) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let ours: Vec<(String, String)> = list
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if declared(&doc, key) != ours {
            problems.push(format!(
                "BENCHMARK.json {key} differs from the metrics the benchmark emits"
            ));
        }
    }
    let declared_workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| Some(w.get("name")?.as_str()?.to_string()))
        .collect();
    if declared_workloads != WORKLOADS {
        problems.push("BENCHMARK.json workloads differ from the benchmark's".into());
    }
    for workload in WORKLOADS {
        let run = Run {
            seed: 7,
            window: Duration::from_millis(200),
            size: Size::Tiny,
            corrupt_expected: false,
            scratch: scratch(&format!("selftest-{workload}")),
        };
        for trace in [false, true] {
            let out = if trace {
                traced(workload, &run).0
            } else {
                untraced(workload, &run)
            };
            if let Err(e) = complete(&out, trace) {
                problems.push(format!("{workload} trace={trace}: {e}"));
            }
            if out.failed != 0 || out.attempted == 0 {
                problems.push(format!(
                    "{workload} trace={trace}: {} of {} operations failed",
                    out.failed, out.attempted
                ));
            }
            println!("{}", stamp_line(workload, run.seed, 0.2, trace, &out));
            println!(
                "self-test {workload} trace={trace}: {}",
                result_line(&out, trace, out.failed == 0)
            );
        }
        let corrupt = Run {
            corrupt_expected: true,
            ..run.clone()
        };
        let out = untraced(workload, &corrupt);
        if out.failed == 0 {
            problems.push(format!(
                "{workload}: a wrong expected digest was not counted as a failure"
            ));
        }
        println!(
            "self-test {workload} wrong-expectation: {} of {} failed",
            out.failed, out.attempted
        );
        std::fs::remove_dir_all(&run.scratch).ok();
    }
    if problems.is_empty() {
        println!("self-test ok");
        ExitCode::SUCCESS
    } else {
        for p in &problems {
            eprintln!("self-test: {p}");
        }
        ExitCode::FAILURE
    }
}

/// Measure the service's closed-burst capacity (the figure its offered
/// rate is derived from).
fn capacity() -> ExitCode {
    let mut rates = Vec::new();
    for seed in 1..=3 {
        let run = Run {
            seed,
            window: Duration::ZERO,
            size: Size::Full,
            corrupt_expected: false,
            scratch: scratch("capacity"),
        };
        rates.push(service::capacity(&run, 64));
        std::fs::remove_dir_all(&run.scratch).ok();
    }
    println!(
        "capacity jobs/s per seed: {rates:?}; median {}",
        measure::median(&rates)
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--self-test") => return self_test(),
        Some("--capacity") => return capacity(),
        _ => {}
    }
    match parse(&argv) {
        Ok(args) => measured_run(&args),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
