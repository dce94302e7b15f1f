//! `testbed_service`: an open-loop load against `testbedd::daemon::serve`
//! in this process, on an ephemeral loopback port, with the daemon's
//! default two workers.
//!
//! One generator thread submits a fixed rotation of small `campaign`,
//! `link`, `energy-repro` and quick `waterfall` jobs at a fixed offered
//! rate, and on a fixed cadence polls every outstanding job and
//! `/v1/health`. A job's turnaround runs from its submit's *due* time
//! to the terminal timestamp in its record, so a late generator counts
//! against the service. Every `done` job's `report.json` is compared
//! byte for byte with its direct library builder, computed after the
//! load stops.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tinysdr_bench::waterfall::{run_waterfall, WaterfallConfig};
use tinysdr_ota::json::Value;
use tinysdr_ota::seed::stream_seed;
use tinysdr_testbedd::clock::Clock;
use tinysdr_testbedd::daemon::{serve, DaemonConfig};
use tinysdr_testbedd::spec::{job_id, JobRecord, JobSpec, JobState};
use tinysdr_testbedd::store::ArtifactStore;

use crate::measure::{median, quantile, timed, Outcome, Run, Size, Tracer};

/// Closed-burst capacity of the two-worker daemon on this job rotation,
/// jobs/s: `--capacity` (a 64-job burst, median over seeds 1–3) on the
/// 2-core x86-64 host the benchmark was defined on.
pub const CAPACITY_PER_S: f64 = 9.1;
/// Offered rate, about 0.4 of [`CAPACITY_PER_S`]: a faster job shows as
/// shorter turnaround and a slower one as overlap and queueing, without
/// a growing backlog. At 5.5 jobs/s jobs overlapped so often that the
/// p90 turnaround spread 26% across seeds; at 3.8 jobs/s it spread
/// 2–8%.
pub const OFFERED_PER_S: f64 = 3.8;
/// Poll cadence for outstanding jobs and `/v1/health`.
pub const POLL_EVERY: Duration = Duration::from_millis(10);
/// Set-up samples per run: daemons booted over the history store (and
/// stopped) once before the load and then on a fixed cadence during
/// it, at moments no job is outstanding, so the samples span the run;
/// their median is `setup_s`. The
/// serving daemon boots on a fresh store, so the load starts from an
/// empty job table.
const SETUP_SAMPLES: usize = 20;
/// Finished jobs in the store the set-up boots restore.
const HISTORY: u64 = 128;
/// Give up on jobs still running this long after the last submit.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// The daemon's injected clock. It counts **microseconds** since the
/// benchmark's epoch (the daemon only stores, subtracts and compares
/// its readings), so record timestamps resolve sub-millisecond queue
/// waits.
#[derive(Debug, Clone, Copy)]
struct MicroClock {
    epoch: Instant,
}

impl MicroClock {
    fn ticks_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }
}

impl Clock for MicroClock {
    fn now_ms(&self) -> u64 {
        self.ticks_at(Instant::now())
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the daemon closes each
/// connection after its response). Returns status and body.
fn http(port: u16, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(10))).ok();
    s.set_nodelay(true).ok();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf)
        .map_err(|e| format!("receive: {e}"))?;
    let head_end = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response without head")?;
    let status = std::str::from_utf8(&buf[..head_end])
        .ok()
        .and_then(|h| h.split(' ').nth(1))
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or("malformed status line")?;
    Ok((status, buf[head_end + 4..].to_vec()))
}

/// A daemon serving on its own thread.
struct Daemon {
    port: u16,
    handle: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Boot over `root` and wait for the first `200` from health.
    fn boot(root: &Path, clock: MicroClock) -> Result<Daemon, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let port = listener.local_addr().map_err(|e| e.to_string())?.port();
        let cfg = DaemonConfig::new(root.to_path_buf());
        let handle = std::thread::spawn(move || serve(&cfg, &listener, &clock));
        let daemon = Daemon {
            port,
            handle: Some(handle),
        };
        match http(port, "GET", "/v1/health", "")? {
            (200, _) => Ok(daemon),
            (status, _) => Err(format!("health answered {status}")),
        }
    }

    /// Graceful shutdown; `true` when the daemon stopped cleanly.
    fn stop(mut self) -> bool {
        self.shutdown()
    }

    fn shutdown(&mut self) -> bool {
        let Some(handle) = self.handle.take() else {
            return true;
        };
        // without an acknowledged shutdown the serve thread may never
        // return; leave it detached rather than block on it
        if !matches!(http(self.port, "POST", "/v1/shutdown", ""), Ok((202, _))) {
            return false;
        }
        matches!(handle.join(), Ok(Ok(())))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The job rotation of a run: eight specs of each kind at full size
/// (one at tiny size), seeded from the workload seed.
fn rotation(seed: u64, size: Size) -> Vec<JobSpec> {
    let rounds = match size {
        Size::Full => 8,
        Size::Tiny => 1,
    };
    let s = |k: u64| stream_seed(seed, 0x5E41_0000 + k);
    let mut specs = Vec::new();
    for round in 0..rounds {
        let k = 4 * round;
        specs.push(JobSpec::Campaign {
            nodes: 64,
            seed: s(k),
            stop_after_blocks: None,
        });
        specs.push(JobSpec::Link {
            seed: s(k + 1),
            quick: true,
        });
        specs.push(JobSpec::EnergyRepro {
            nodes: 24,
            seed: s(k + 2),
        });
        specs.push(JobSpec::Waterfall {
            seed: s(k + 3),
            quick: true,
        });
    }
    specs
}

/// The report the daemon must store for `spec`, from its direct
/// library builder.
fn reference_report(spec: &JobSpec) -> Vec<u8> {
    let doc = match spec {
        JobSpec::Campaign { nodes, seed, .. } => {
            tinysdr_bench::campaign::campaign_json(*nodes as usize, *seed)
        }
        JobSpec::Link { seed, quick } => tinysdr_bench::link::link_json(*seed, *quick),
        JobSpec::EnergyRepro { nodes, seed } => {
            tinysdr_bench::system_experiments::energy_json(*nodes as usize, *seed)
        }
        JobSpec::Waterfall { seed, quick } => {
            let cfg = if *quick {
                WaterfallConfig::quick(*seed)
            } else {
                WaterfallConfig::full(*seed)
            };
            run_waterfall(&cfg).to_json()
        }
        JobSpec::Perf { .. } => Value::Null,
    };
    doc.write_pretty().into_bytes()
}

/// Layer name of a job kind's run time.
fn kind_key(spec: &JobSpec) -> &'static str {
    match spec {
        JobSpec::Campaign { .. } => "campaign",
        JobSpec::Link { .. } => "link",
        JobSpec::EnergyRepro { .. } => "energy",
        JobSpec::Waterfall { .. } => "waterfall",
        JobSpec::Perf { .. } => "perf",
    }
}

/// One submitted job as the generator tracks it.
struct Job {
    spec_idx: usize,
    due_tick: u64,
    id: Option<String>,
    record: Option<JobRecord>,
    report: Option<Vec<u8>>,
}

/// What one open-loop load produced.
struct Load {
    jobs: Vec<Job>,
    requests: u64,
    failed_requests: u64,
    lag_max_s: f64,
    /// Most jobs `/v1/health` reported queued at one poll.
    backlog_max: u64,
    wall_s: f64,
}

/// The load generator's client side: one daemon port, the request
/// tally, and the span recorder of a traced run.
struct Client<'a> {
    port: u16,
    load: Load,
    tr: Option<&'a mut Tracer>,
}

impl Client<'_> {
    /// One request, timed; a refused request or a non-2xx reply fails.
    fn call(
        &mut self,
        layer: &'static str,
        group: usize,
        method: &str,
        path: &str,
        body: &str,
    ) -> Option<Vec<u8>> {
        self.load.requests += 1;
        let start = Instant::now();
        let res = http(self.port, method, path, body);
        if let Some(t) = self.tr.as_deref_mut() {
            t.record(layer, group as u64, start, Instant::now());
        }
        match res {
            Ok((status, body)) if (200..300).contains(&status) => Some(body),
            _ => {
                self.load.failed_requests += 1;
                None
            }
        }
    }

    /// A request whose body is a JSON document.
    fn call_json(
        &mut self,
        layer: &'static str,
        group: usize,
        method: &str,
        path: &str,
        body: &str,
    ) -> Option<Value> {
        let bytes = self.call(layer, group, method, path, body)?;
        Value::parse(std::str::from_utf8(&bytes).ok()?).ok()
    }
}

/// A set-up sampler the load generator calls on a fixed cadence.
type Sampler<'a> = (Duration, &'a mut dyn FnMut());

/// Drive the open loop: `n` submits at `rate`, polling on
/// [`POLL_EVERY`], until every job is terminal (or the drain limit);
/// between events, call the sampler on its cadence whenever no job is
/// outstanding.
fn drive(
    port: u16,
    clock: MicroClock,
    specs: &[JobSpec],
    (n, rate): (usize, f64),
    tr: Option<&mut Tracer>,
    sampler: Option<Sampler<'_>>,
) -> Load {
    let mut c = Client {
        port,
        load: Load {
            jobs: Vec::with_capacity(n),
            requests: 0,
            failed_requests: 0,
            lag_max_s: 0.0,
            backlog_max: 0,
            wall_s: 0.0,
        },
        tr,
    };
    let bodies: Vec<String> = specs
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("spec".into(), s.to_json()),
                ("priority".into(), Value::num(5.0)),
            ])
            .write()
        })
        .collect();
    let t0 = Instant::now();
    let due = |i: usize| t0 + Duration::from_secs_f64(i as f64 / rate);
    let mut next_poll = t0;
    let mut next_sample = t0;
    let mut sampler = sampler;
    let mut outstanding: Vec<usize> = Vec::new();
    let mut last_submit = t0;
    loop {
        let now = Instant::now();
        let submitting = c.load.jobs.len() < n;
        if submitting && now >= due(c.load.jobs.len()) {
            let i = c.load.jobs.len();
            let spec_idx = i % specs.len();
            c.load.lag_max_s = c
                .load
                .lag_max_s
                .max(now.duration_since(due(i)).as_secs_f64());
            let id = c
                .call_json("http.submit", i, "POST", "/v1/jobs", &bodies[spec_idx])
                .and_then(|v| v.get("id")?.as_str().map(str::to_string));
            if id.is_some() {
                outstanding.push(i);
            }
            c.load.jobs.push(Job {
                spec_idx,
                due_tick: clock.ticks_at(due(i)),
                id,
                record: None,
                report: None,
            });
            last_submit = now;
            continue;
        }
        if now >= next_poll {
            next_poll += POLL_EVERY;
            let mut still = Vec::with_capacity(outstanding.len());
            for &i in &outstanding {
                let id = c.load.jobs[i].id.clone().unwrap_or_default();
                let rec = c
                    .call_json("http.status", i, "GET", &format!("/v1/jobs/{id}"), "")
                    .and_then(|v| JobRecord::from_json(&v));
                match rec {
                    Some(r) if r.state.is_terminal() => {
                        if r.state == JobState::Done {
                            let path = format!("/v1/jobs/{id}/artifacts/report.json");
                            c.load.jobs[i].report = c.call("http.artifact", i, "GET", &path, "");
                        }
                        c.load.jobs[i].record = Some(r);
                    }
                    _ => still.push(i),
                }
            }
            outstanding = still;
            let queued = c
                .call_json("http.health", 0, "GET", "/v1/health", "")
                .and_then(|v| v.get("queued")?.as_u64());
            c.load.backlog_max = c.load.backlog_max.max(queued.unwrap_or(0));
            continue;
        }
        if let Some((every, sample)) = sampler.as_mut() {
            // sample only while no job is in the daemon, so a set-up
            // sample never competes with the load for the CPU
            if now >= next_sample && outstanding.is_empty() {
                next_sample += *every;
                sample();
                continue;
            }
        }
        if !submitting && (outstanding.is_empty() || now.duration_since(last_submit) > DRAIN_LIMIT)
        {
            break;
        }
        let mut wake = next_poll;
        if submitting {
            wake = wake.min(due(c.load.jobs.len()));
        }
        if sampler.is_some() && outstanding.is_empty() {
            wake = wake.min(next_sample);
        }
        let start = Instant::now();
        std::thread::sleep(wake.saturating_duration_since(start));
        if let Some(t) = c.tr.as_deref_mut() {
            t.record("generator.wait", 0, start, Instant::now());
        }
    }
    c.load.wall_s = t0.elapsed().as_secs_f64();
    c.load
}

/// Jobs in a run of `window` at `rate` (at least the rotation once).
fn job_count(run: &Run, rate: f64, specs: usize) -> usize {
    ((run.window.as_secs_f64() * rate).ceil() as usize).max(specs)
}

fn rate(size: Size) -> f64 {
    match size {
        Size::Full => OFFERED_PER_S,
        Size::Tiny => 2.0 * OFFERED_PER_S,
    }
}

/// A store holding [`HISTORY`] finished jobs of the rotation: what a
/// restarting daemon restores before it answers.
fn write_history(root: &Path, specs: &[JobSpec]) -> Result<(), String> {
    std::fs::remove_dir_all(root).ok();
    let store = ArtifactStore::open(root).map_err(|e| format!("history store: {e}"))?;
    for seq in 1..=HISTORY {
        let spec = specs[seq as usize % specs.len()].clone();
        let mut rec = JobRecord::new(job_id(seq, spec.fingerprint()), spec, 5, seq);
        rec.state = JobState::Done;
        rec.attempts = 1;
        rec.started_ms = seq;
        rec.finished_ms = seq + 1;
        store
            .save_record(&rec)
            .map_err(|e| format!("history record: {e}"))?;
    }
    Ok(())
}

/// Boot a daemon over the history store, timed to its first healthy
/// answer (one set-up sample), and stop it again.
fn boot_sample(
    history: &Path,
    clock: MicroClock,
    boots: &mut Vec<f64>,
    out: &mut Outcome,
) -> Result<(), String> {
    let (daemon, wall) = timed(|| Daemon::boot(history, clock));
    boots.push(wall);
    out.tally(1, daemon?.stop());
    Ok(())
}

/// Check every job: terminal `done`, and a stored report byte-identical
/// to the direct builder. Returns the failed-job count.
fn verify(load: &Load, specs: &[JobSpec], corrupt: bool) -> u64 {
    let mut refs: Vec<Option<Vec<u8>>> = vec![None; specs.len()];
    let mut failed = 0;
    for job in &load.jobs {
        let done = job
            .record
            .as_ref()
            .is_some_and(|r| r.state == JobState::Done);
        let want = refs[job.spec_idx].get_or_insert_with(|| {
            let mut r = reference_report(&specs[job.spec_idx]);
            if corrupt {
                r.push(b'\n');
            }
            r
        });
        if !(done && job.report.as_deref() == Some(want.as_slice())) {
            failed += 1;
        }
    }
    failed
}

fn ms(ticks: u64) -> f64 {
    ticks as f64 / 1e3
}

/// One full load with timed set-up boots before and after it, then the
/// correctness check. Returns the median boot and the load.
fn load_once(run: &Run, tr: Option<&mut Tracer>, out: &mut Outcome) -> Option<(f64, Load)> {
    let clock = MicroClock {
        epoch: Instant::now(),
    };
    let specs = rotation(run.seed, run.size);
    let rate = rate(run.size);
    let n = job_count(run, rate, specs.len());
    let mut boots = Vec::new();
    let history = run.scratch.join("history");
    let serving = run.scratch.join("daemon");
    let mut load_with = |tr: Option<&mut Tracer>, out: &mut Outcome| -> Result<Load, String> {
        write_history(&history, &specs)?;
        boot_sample(&history, clock, &mut boots, out)?;
        std::fs::remove_dir_all(&serving).ok();
        let daemon = Daemon::boot(&serving, clock)?;
        let mut sample_failed = None;
        let mut sample = || {
            if let Err(e) = boot_sample(&history, clock, &mut boots, out) {
                sample_failed = Some(e);
            }
        };
        let every = Duration::from_secs_f64(n as f64 / rate / SETUP_SAMPLES as f64);
        let load = drive(
            daemon.port,
            clock,
            &specs,
            (n, rate),
            tr,
            Some((every, &mut sample)),
        );
        out.tally(1, daemon.stop());
        match sample_failed {
            Some(e) => Err(e),
            None => Ok(load),
        }
    };
    let load = match load_with(tr, out) {
        Ok(load) => load,
        Err(e) => {
            eprintln!("testbed_service: {e}");
            out.tally(1, false);
            return None;
        }
    };
    let failed_jobs = verify(&load, &specs, run.corrupt_expected);
    out.attempted += load.jobs.len() as u64 + load.requests;
    out.failed += failed_jobs + load.failed_requests;
    out.note("service.jobs", load.jobs.len());
    out.note("service.offered_per_s", rate);
    out.note("service.poll_every_ms", POLL_EVERY.as_millis());
    out.note("service.capacity_per_s", CAPACITY_PER_S);
    let us: Vec<String> = boots.iter().map(|w| format!("{:.0}", w * 1e6)).collect();
    out.note("service.boots_us", us.join(" "));
    Some((median(&boots), load))
}

fn turnarounds_ms(load: &Load) -> Vec<f64> {
    load.jobs
        .iter()
        .filter_map(|j| {
            Some(ms(j
                .record
                .as_ref()?
                .finished_ms
                .saturating_sub(j.due_tick)))
        })
        .collect()
}

/// End-to-end run: one open-loop load of the window's length.
pub fn untraced(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let Some((setup_s, load)) = load_once(run, None, &mut out) else {
        return out;
    };
    let turn = turnarounds_ms(&load);
    let first_due = load.jobs.first().map_or(0, |j| j.due_tick);
    let last_done = load
        .jobs
        .iter()
        .filter_map(|j| j.record.as_ref().map(|r| r.finished_ms))
        .max()
        .unwrap_or(first_due);
    let done = load
        .jobs
        .iter()
        .filter(|j| j.record.as_ref().is_some_and(|r| r.state == JobState::Done))
        .count();
    out.metric("setup_s", setup_s, "s");
    out.metric(
        "ops_per_s",
        done as f64 / (ms(last_done - first_due) / 1e3).max(1e-9),
        "1/s",
    );
    out.metric("turnaround_p90_ms", quantile(&turn, 0.9), "ms");
    out.note("turnaround_p50_ms", median(&turn));
    out.note(
        "turnaround_mean_ms",
        turn.iter().sum::<f64>() / turn.len().max(1) as f64,
    );
    out.note("turnaround_samples", turn.len());
    out
}

/// Traced run: the same schedule, half a window long, untraced and
/// then traced, with every request timed at the client and the
/// queue/runner split read back from the job records.
pub fn traced(run: &Run) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let half = Run {
        window: run.window / 2,
        ..run.clone()
    };
    let untraced_wall = load_once(&half, None, &mut out).map_or(0.0, |(_, l)| l.wall_s);
    let mut tr = Tracer::new();
    let Some((_, load)) = load_once(&half, Some(&mut tr), &mut out) else {
        return (out, tr);
    };
    let specs = rotation(run.seed, run.size);
    let records: Vec<(&JobRecord, &'static str)> = load
        .jobs
        .iter()
        .filter_map(|j| Some((j.record.as_ref()?, kind_key(&specs[j.spec_idx]))))
        .collect();
    let mut m = |name: &str, v: f64, unit: &'static str| out.metric(name, v, unit);
    for (layer, name) in [
        ("http.submit", "http.submit_ms"),
        ("http.status", "http.status_ms"),
        ("http.health", "http.health_ms"),
    ] {
        let d: Vec<f64> = tr.durations_s(layer).iter().map(|s| s * 1e3).collect();
        m(&format!("{name}_p50"), median(&d), "ms");
        m(&format!("{name}_p90"), quantile(&d, 0.9), "ms");
    }
    let art: Vec<f64> = tr
        .durations_s("http.artifact")
        .iter()
        .map(|s| s * 1e3)
        .collect();
    m("http.artifact_ms_p50", median(&art), "ms");
    // `started_ms` is stamped when the worker *entered* its claim call,
    // so a job taken by an idle worker reads as started before it was
    // submitted. The wait is reported as recorded (negative for those
    // jobs) and the stale stamps are counted; run time starts at the
    // later of the two stamps, the true claim time to within wake-up.
    let signed = |a: u64, b: u64| ms(a) - ms(b);
    let waits: Vec<f64> = records
        .iter()
        .map(|(r, _)| signed(r.started_ms, r.submitted_ms))
        .collect();
    m("queue.wait_ms_p50", median(&waits), "ms");
    m("queue.wait_ms_p90", quantile(&waits, 0.9), "ms");
    m(
        "queue.stale_start_stamps",
        waits.iter().filter(|w| **w < 0.0).count() as f64,
        "count",
    );
    m("queue.backlog_max", load.backlog_max as f64, "count");
    for kind in ["campaign", "link", "energy", "waterfall"] {
        let runs: Vec<f64> = records
            .iter()
            .filter(|(_, k)| *k == kind)
            .map(|(r, _)| {
                ms(r.finished_ms
                    .saturating_sub(r.started_ms.max(r.submitted_ms)))
            })
            .collect();
        m(&format!("runner.run_ms_p50.{kind}"), median(&runs), "ms");
    }
    m("generator.lag_ms_max", load.lag_max_s * 1e3, "ms");
    m("service.jobs", load.jobs.len() as f64, "count");
    m("service.requests", load.requests as f64, "count");
    m("trace.iterations", 1.0, "count");
    m("trace.traced_wall_s", load.wall_s, "s");
    m("trace.untraced_wall_s", untraced_wall, "s");
    m(
        "trace.untraced_frac",
        tr.untraced_frac(load.wall_s),
        "ratio",
    );
    (out, tr)
}

/// Closed-burst capacity: submit `n` jobs of the rotation at once and
/// time until every job is terminal. Jobs/s.
pub fn capacity(run: &Run, n: usize) -> f64 {
    let clock = MicroClock {
        epoch: Instant::now(),
    };
    let specs = rotation(run.seed, run.size);
    let root = run.scratch.join("capacity");
    std::fs::remove_dir_all(&root).ok();
    let daemon = Daemon::boot(&root, clock).expect("daemon boots");
    let load = drive(daemon.port, clock, &specs, (n, 1e9), None, None);
    daemon.stop();
    let first = load
        .jobs
        .iter()
        .filter_map(|j| j.record.as_ref().map(|r| r.submitted_ms))
        .min()
        .unwrap_or(0);
    let last = load
        .jobs
        .iter()
        .filter_map(|j| j.record.as_ref().map(|r| r.finished_ms))
        .max()
        .unwrap_or(0);
    n as f64 / (ms(last - first) / 1e3)
}
