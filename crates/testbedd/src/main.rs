//! `tinysdr-testbedd` — the testbed control-plane daemon.
//!
//! ```text
//! tinysdr-testbedd [--root DIR] [--addr HOST:PORT] [--workers N]   serve until POST /v1/shutdown
//! tinysdr-testbedd --smoke [--root DIR]                            end-to-end self-test (CI gate)
//! tinysdr-testbedd --bench [--root DIR]                            queue throughput -> BENCH_testbedd.json
//! ```
//!
//! `--smoke` boots the daemon on an ephemeral loopback port, submits a
//! small campaign over real HTTP, waits for completion, verifies the
//! stored report is byte-identical to a direct
//! `tinysdr_bench::campaign::campaign_json` call, and shuts the daemon
//! down over the API. Exit status is the verdict.

#![forbid(unsafe_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use tinysdr_dsp::cancel::CancelToken;
use tinysdr_ota::json::Value;
use tinysdr_testbedd::clock::{Clock, SystemClock};
use tinysdr_testbedd::daemon::{serve, DaemonConfig};
use tinysdr_testbedd::queue::JobQueue;
use tinysdr_testbedd::runner::worker_loop;
use tinysdr_testbedd::spec::{JobSpec, JobState};
use tinysdr_testbedd::store::ArtifactStore;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!(
            "tinysdr-testbedd: testbed campaign scheduler daemon\n\
             \n\
             usage:\n\
             \x20 tinysdr-testbedd [--root DIR] [--addr HOST:PORT] [--workers N]\n\
             \x20 tinysdr-testbedd --smoke [--root DIR]\n\
             \x20 tinysdr-testbedd --bench [--root DIR]\n"
        );
        return ExitCode::SUCCESS;
    }
    let root = flag_value(&args, "--root")
        .map(PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("tinysdr-testbedd"));
    if args.iter().any(|a| a == "--smoke") {
        return smoke(&root);
    }
    if args.iter().any(|a| a == "--bench") {
        return bench(&root);
    }
    let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:8070".to_string());
    let mut cfg = DaemonConfig::new(root);
    if let Some(n) = flag_value(&args, "--workers").and_then(|w| w.parse().ok()) {
        cfg.workers = n;
    }
    let listener = match TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("tinysdr-testbedd: cannot bind {addr}: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "tinysdr-testbedd: serving on {addr}, root {}",
        cfg.root.display()
    );
    match serve(&cfg, &listener, &SystemClock) {
        Ok(()) => {
            println!("tinysdr-testbedd: shutdown complete");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("tinysdr-testbedd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--flag value` lookup.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// One request/response exchange against the daemon (the API is
/// one-shot per connection). Returns `(status, body)`.
fn http_call(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let attempt = || -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: testbedd\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(req.as_bytes())?;
        let mut raw = String::new();
        stream.read_to_string(&mut raw)?;
        let status = raw
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let payload = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        Ok((status, payload))
    };
    attempt().unwrap_or((0, String::new()))
}

/// The CI smoke gate: full client-visible lifecycle over real TCP plus
/// the byte-identity contract.
fn smoke(root: &Path) -> ExitCode {
    std::fs::remove_dir_all(root).ok();
    let listener = match TcpListener::bind("127.0.0.1:0") {
        Ok(l) => l,
        Err(e) => {
            eprintln!("smoke: bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Ok(addr) = listener.local_addr() else {
        eprintln!("smoke: no local addr");
        return ExitCode::FAILURE;
    };
    let cfg = DaemonConfig::new(root.to_path_buf());
    let server = std::thread::spawn(move || serve(&cfg, &listener, &SystemClock));

    let (status, health) = http_call(addr, "GET", "/v1/health", "");
    println!("smoke: health {status}: {}", health.trim_end());
    let mut ok = status == 200;

    let spec = r#"{"spec":{"kind":"campaign","nodes":256,"seed":"000000000000002a"},"priority":7}"#;
    let (status, submitted) = http_call(addr, "POST", "/v1/jobs", spec);
    ok &= status == 202;
    let id = Value::parse(&submitted)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_str).map(String::from))
        .unwrap_or_default();
    println!("smoke: submitted {id} ({status})");
    ok &= !id.is_empty();

    // poll by iteration count (bounded), not wall-clock arithmetic
    let mut state = String::new();
    for _ in 0..600 {
        let (_, got) = http_call(addr, "GET", &format!("/v1/jobs/{id}"), "");
        state = Value::parse(&got)
            .ok()
            .and_then(|v| v.get("state").and_then(Value::as_str).map(String::from))
            .unwrap_or_default();
        if JobState::parse(&state).is_some_and(JobState::is_terminal) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    println!("smoke: job state {state}");
    ok &= state == "done";

    let (status, stored) = http_call(
        addr,
        "GET",
        &format!("/v1/jobs/{id}/artifacts/report.json"),
        "",
    );
    ok &= status == 200;
    let direct = tinysdr_bench::campaign::campaign_json(256, 42).write_pretty();
    let identical = stored == direct;
    println!(
        "smoke: report bytes {} direct library run",
        if identical { "==" } else { "!=" }
    );
    ok &= identical;

    let (status, _) = http_call(addr, "POST", "/v1/shutdown", "");
    ok &= status == 202;
    ok &= matches!(server.join(), Ok(Ok(())));
    println!("smoke: {}", if ok { "PASS" } else { "FAIL" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Queue throughput across worker counts; writes `BENCH_testbedd.json`
/// in the current directory.
#[allow(clippy::disallowed_methods)] // bench harness: wall time is the measurement
fn bench(root: &Path) -> ExitCode {
    const JOBS: usize = 48;
    let mut points = Vec::new();
    for workers in [1usize, 2, 4] {
        let run_root = root.join(format!("bench-w{workers}"));
        std::fs::remove_dir_all(&run_root).ok();
        let store = match ArtifactStore::open(&run_root) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("bench: store: {e}");
                return ExitCode::FAILURE;
            }
        };
        let queue = Arc::new(JobQueue::new());
        let clock = SystemClock;
        let shutdown = CancelToken::new();
        let t0 = std::time::Instant::now(); // lint: allow(ambient-time, bench harness measures wall time)
        for i in 0..JOBS {
            queue.submit(
                JobSpec::EnergyRepro {
                    nodes: 16,
                    seed: i as u64,
                },
                5,
                clock.now_ms(),
            );
        }
        queue.close_after_drain();
        crossbeam::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|_| worker_loop(&queue, &store, &clock, &shutdown));
            }
        })
        .expect("bench worker pool"); // lint: allow(unjustified-panic, bench must abort loudly on a worker panic)
        let wall_s = t0.elapsed().as_secs_f64();
        let records = queue.list();
        let done = records.iter().filter(|r| r.state == JobState::Done).count();
        if done != JOBS {
            eprintln!("bench: only {done}/{JOBS} jobs finished");
            return ExitCode::FAILURE;
        }
        let wait_ms_sum: u64 = records
            .iter()
            .map(|r| r.started_ms.saturating_sub(r.submitted_ms))
            .sum();
        let queue_wait_ms_mean = wait_ms_sum as f64 / JOBS as f64;
        println!(
            "bench: workers={workers} jobs={JOBS} wall={wall_s:.3}s rate={:.1} jobs/s wait={queue_wait_ms_mean:.1}ms",
            JOBS as f64 / wall_s
        );
        points.push(Value::Obj(vec![
            ("workers".into(), Value::num(workers as f64)),
            ("jobs".into(), Value::num(JOBS as f64)),
            ("wall_s".into(), Value::num(wall_s)),
            ("jobs_per_s".into(), Value::num(JOBS as f64 / wall_s)),
            ("queue_wait_ms_mean".into(), Value::num(queue_wait_ms_mean)),
        ]));
    }
    match tinysdr_bench::trajectory::write("BENCH_testbedd.json", "testbedd_queue", points) {
        Ok(()) => {
            println!("bench: wrote BENCH_testbedd.json");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench: write: {e}");
            ExitCode::FAILURE
        }
    }
}
