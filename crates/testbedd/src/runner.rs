//! The worker pool: claim a job, dispatch to the owning experiment
//! engine, persist its artifacts, report the outcome.
//!
//! The runner adds **no serialization of its own** — every report it
//! stores comes from the same `to_json` builder the corresponding
//! `repro <cmd> --json` invocation calls, which is what makes a
//! daemon-run report byte-identical to a direct library run.
//!
//! Cancellation discipline: the runner never kills a thread. Each
//! claimed job gets a child of the daemon's shutdown token; campaign
//! jobs observe it at block boundaries (checkpointing first), sweeps
//! at curve boundaries. When a token trips, the *reason* decides the
//! terminal state: a user cancel request ends the job `Cancelled`,
//! a graceful shutdown re-queues it so the next daemon start resumes
//! from the checkpoint.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tinysdr_bench::campaign::{bench_campaign_config, bench_update};
use tinysdr_bench::perf::measure_perf;
use tinysdr_bench::system_experiments::energy_setup;
use tinysdr_bench::waterfall::{run_waterfall_cancellable, SweepRun, WaterfallConfig};
use tinysdr_core::testbed::{CampaignConfig, CampaignRun, CheckpointConfig, RunControl, Testbed};
use tinysdr_dsp::cancel::CancelToken;
use tinysdr_ota::blocks::BlockedUpdate;
use tinysdr_ota::json::Value;

use crate::clock::Clock;
use crate::queue::{JobQueue, Outcome};
use crate::spec::{JobRecord, JobSpec};
use crate::store::ArtifactStore;

/// Distribution tables are thinned to this many steps before landing
/// in `ecdf.json` — plenty for plotting, bounded for million-node
/// campaigns.
const ECDF_MAX_POINTS: usize = 256;

/// What one execution leg of a job produced.
enum RunResult {
    /// Artifacts written; the job is complete.
    Done,
    /// Interrupted at the spec's `stop_after_blocks` test knob with a
    /// checkpoint on disk — goes back in line for its resume leg.
    Interrupted,
    /// The job's cancel token tripped at a safe boundary.
    Cancelled,
    /// Engine or I/O failure.
    Failed(String),
}

/// The per-worker loop: runs until the queue closes. Persists the
/// `Running` transition before executing and the terminal (or
/// re-queued) transition after, so `state.json` never lags the
/// scheduler by more than one step.
pub fn worker_loop(
    queue: &JobQueue,
    store: &ArtifactStore,
    clock: &dyn Clock,
    shutdown: &CancelToken,
) {
    while let Some((rec, token)) = queue.claim(shutdown, clock) {
        store.save_record(&rec).ok();
        let result = run_job(&rec, &token, store);
        let outcome = match result {
            RunResult::Done => Outcome::Done,
            RunResult::Failed(err) => Outcome::Failed(err),
            RunResult::Interrupted => Outcome::Requeue,
            RunResult::Cancelled => {
                // user cancel => terminal; shutdown => resume later
                let user_cancel = queue.get(&rec.id).is_some_and(|r| r.cancel_requested);
                if user_cancel {
                    Outcome::Cancelled
                } else {
                    Outcome::Requeue
                }
            }
        };
        if let Some(updated) = queue.finish(&rec.id, outcome, clock.now_ms()) {
            store.save_record(&updated).ok();
        }
    }
}

/// Execute one claimed job. Panics from the engines (contract-gate
/// asserts) are converted to `Failed` so one bad job cannot take a
/// worker down.
fn run_job(rec: &JobRecord, cancel: &CancelToken, store: &ArtifactStore) -> RunResult {
    let outcome = catch_unwind(AssertUnwindSafe(|| dispatch(rec, cancel, store)));
    match outcome {
        Ok(result) => result,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("engine panicked");
            RunResult::Failed(format!("panic: {msg}"))
        }
    }
}

fn dispatch(rec: &JobRecord, cancel: &CancelToken, store: &ArtifactStore) -> RunResult {
    match &rec.spec {
        JobSpec::Campaign {
            nodes,
            seed,
            stop_after_blocks,
        } => run_campaign_job(rec, *nodes, *seed, *stop_after_blocks, cancel, store),
        JobSpec::Waterfall { seed, quick } => run_waterfall_job(rec, *seed, *quick, cancel, store),
        // the same (testbed, update, config) `repro energy --json` runs
        JobSpec::EnergyRepro { nodes, seed } => {
            let setup = energy_setup(*nodes as usize, *seed);
            run_engine(rec, setup, None, cancel, store)
        }
        JobSpec::Perf { quick } => run_perf_job(rec, *quick, cancel, store),
        JobSpec::Link { seed, quick } => run_link_job(rec, *seed, *quick, cancel, store),
    }
}

/// The benchmark fleet campaign, checkpointed into the job directory.
/// The completed report is the same object `repro campaign --json`
/// serializes (`tinysdr_bench::campaign::campaign_json`).
fn run_campaign_job(
    rec: &JobRecord,
    nodes: u64,
    seed: u64,
    stop_after_blocks: Option<u64>,
    cancel: &CancelToken,
    store: &ArtifactStore,
) -> RunResult {
    let nodes = nodes as usize;
    let setup = (
        Testbed::with_nodes(nodes, seed),
        bench_update(),
        bench_campaign_config(seed),
    );
    // the checkpoint writer renames into the job directory; make sure
    // it exists even if the Running state.json write failed
    if let Err(e) = std::fs::create_dir_all(store.job_dir(&rec.id)) {
        return RunResult::Failed(format!("job dir: {e}"));
    }
    // ~1% checkpoint cadence, same as the repro harness
    let every = (nodes / CampaignConfig::default().block_len / 100).max(64);
    let mut ckpt = CheckpointConfig::new(store.checkpoint_path(&rec.id), every);
    if rec.attempts == 1 {
        // the deterministic-kill test knob applies to the first leg
        // only; the resume leg runs to completion
        if let Some(n) = stop_after_blocks {
            ckpt = ckpt.stop_after(n as usize);
        }
    }
    run_engine(rec, setup, Some(ckpt), cancel, store)
}

/// Run a campaign-engine job (fleet campaign or energy repro) under the
/// job's token and map the engine's outcome onto the job's: a complete
/// run stores its report and ECDF tables and drops the job's
/// checkpoint; a stop or a tripped token goes back to the worker loop.
fn run_engine(
    rec: &JobRecord,
    (tb, upd, cfg): (Testbed, BlockedUpdate, CampaignConfig),
    checkpoint: Option<CheckpointConfig>,
    cancel: &CancelToken,
    store: &ArtifactStore,
) -> RunResult {
    let ctl = RunControl {
        checkpoint,
        cancel: Some(cancel.clone()),
    };
    match tb.run_campaign_with(&upd, &cfg, &ctl) {
        Ok(CampaignRun::Complete(report)) => {
            if let Err(e) = store.save_json(&rec.id, "report.json", &report.to_json()) {
                return RunResult::Failed(format!("report write: {e}"));
            }
            if let Err(e) = save_tables(store, &rec.id, report.ecdf_tables(ECDF_MAX_POINTS)) {
                return RunResult::Failed(format!("table write: {e}"));
            }
            std::fs::remove_file(store.checkpoint_path(&rec.id)).ok();
            RunResult::Done
        }
        Ok(CampaignRun::Interrupted { .. }) => RunResult::Interrupted,
        Ok(CampaignRun::Cancelled { .. }) => RunResult::Cancelled,
        Err(e) => RunResult::Failed(format!("checkpoint: {e}")),
    }
}

/// The PHY conformance sweep; sharding follows the repro harness
/// (machine parallelism, floor 2 — the report is shard-invariant).
fn run_waterfall_job(
    rec: &JobRecord,
    seed: u64,
    quick: bool,
    cancel: &CancelToken,
    store: &ArtifactStore,
) -> RunResult {
    let cfg = if quick {
        WaterfallConfig::quick(seed)
    } else {
        WaterfallConfig::full(seed)
    };
    let shards = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2);
    match run_waterfall_cancellable(&cfg.sharded(shards), cancel) {
        SweepRun::Complete(report) => {
            match store.save_json(&rec.id, "report.json", &report.to_json()) {
                Ok(()) => RunResult::Done,
                Err(e) => RunResult::Failed(format!("report write: {e}")),
            }
        }
        SweepRun::Cancelled { .. } => RunResult::Cancelled,
    }
}

/// The hot-path perf measurement. Timings are wall-clock (not
/// deterministic); the bit-identity gates inside still abort on a
/// contract violation, surfacing as a `Failed` job.
fn run_perf_job(
    rec: &JobRecord,
    quick: bool,
    cancel: &CancelToken,
    store: &ArtifactStore,
) -> RunResult {
    // perf has no internal safe point; honor a token that tripped
    // while the job sat queued, then run to completion
    if cancel.is_cancelled() {
        return RunResult::Cancelled;
    }
    let report = measure_perf(quick);
    match store.save_json(&rec.id, "report.json", &report.to_json()) {
        Ok(()) => RunResult::Done,
        Err(e) => RunResult::Failed(format!("report write: {e}")),
    }
}

/// The packet-data-plane experiment. The stored `report.json` is the
/// same document `repro link --json` prints for the same `(seed,
/// quick)` — one builder, bit-identical bytes. The contract gates run
/// inside the builder's measurement functions' callers, not here; a
/// determinism violation would surface in the `repro` CI step.
fn run_link_job(
    rec: &JobRecord,
    seed: u64,
    quick: bool,
    cancel: &CancelToken,
    store: &ArtifactStore,
) -> RunResult {
    // no internal safe point (the full run is minutes, not hours);
    // honor a token that tripped while the job sat queued
    if cancel.is_cancelled() {
        return RunResult::Cancelled;
    }
    let report = tinysdr_bench::link::link_json(seed, quick);
    match store.save_json(&rec.id, "report.json", &report) {
        Ok(()) => RunResult::Done,
        Err(e) => RunResult::Failed(format!("report write: {e}")),
    }
}

fn save_tables(
    store: &ArtifactStore,
    id: &str,
    tables: Vec<tinysdr_ota::json::EcdfTable>,
) -> std::io::Result<()> {
    let doc = Value::Arr(tables.iter().map(|t| t.to_json()).collect());
    store.save_json(id, "ecdf.json", &doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::FakeClock;
    use std::sync::Arc;

    fn harness(tag: &str) -> (Arc<JobQueue>, ArtifactStore, FakeClock, CancelToken) {
        let root = std::env::temp_dir().join(format!("tinysdr_testbedd_runner_{tag}"));
        std::fs::remove_dir_all(&root).ok();
        (
            Arc::new(JobQueue::new()),
            ArtifactStore::open(&root).expect("store opens"),
            FakeClock::at(1_000),
            CancelToken::new(),
        )
    }

    /// Drain the queue on the current thread until it closes.
    fn drain(queue: &JobQueue, store: &ArtifactStore, clock: &FakeClock, shutdown: &CancelToken) {
        worker_loop(queue, store, clock, shutdown);
    }

    #[test]
    fn energy_job_report_matches_direct_library_run() {
        let (queue, store, clock, shutdown) = harness("energy");
        let rec = queue.submit(
            JobSpec::EnergyRepro { nodes: 24, seed: 7 },
            5,
            clock.now_ms(),
        );
        queue.close_after_drain();
        drain(&queue, &store, &clock, &shutdown);
        let done = queue.get(&rec.id).expect("record");
        assert_eq!(done.state, crate::spec::JobState::Done);
        let stored = store.read_artifact(&rec.id, "report.json").expect("report");
        let direct = tinysdr_bench::system_experiments::energy_json(24, 7)
            .write_pretty()
            .into_bytes();
        assert_eq!(stored, direct, "daemon-run report must be byte-identical");
        assert!(store.read_artifact(&rec.id, "ecdf.json").is_some());
    }

    #[test]
    fn campaign_stop_after_requeues_then_resumes_bit_identically() {
        let (queue, store, clock, shutdown) = harness("resume");
        let rec = queue.submit(
            JobSpec::Campaign {
                nodes: 256,
                seed: 11,
                stop_after_blocks: Some(2),
            },
            5,
            clock.now_ms(),
        );
        // first leg: claim, run, observe the interrupt-requeue
        let (leg1, token1) = queue.claim(&shutdown, &clock).expect("claim");
        assert_eq!(leg1.attempts, 1);
        assert!(matches!(
            run_job(&leg1, &token1, &store),
            RunResult::Interrupted
        ));
        assert!(
            store.checkpoint_path(&rec.id).is_file(),
            "checkpoint written"
        );
        queue.finish(&rec.id, Outcome::Requeue, clock.now_ms());
        // resume leg runs to completion
        queue.close_after_drain();
        drain(&queue, &store, &clock, &shutdown);
        let done = queue.get(&rec.id).expect("record");
        assert_eq!(done.state, crate::spec::JobState::Done);
        assert_eq!(done.attempts, 2);
        assert!(
            !store.checkpoint_path(&rec.id).exists(),
            "checkpoint cleaned"
        );
        // the interrupted-and-resumed report equals the uninterrupted one
        let stored = store.read_artifact(&rec.id, "report.json").expect("report");
        let direct = tinysdr_bench::campaign::campaign_json(256, 11)
            .write_pretty()
            .into_bytes();
        assert_eq!(stored, direct, "resume must be bit-identical to one-shot");
    }

    #[test]
    fn shutdown_mid_campaign_checkpoints_and_requeues() {
        let (queue, store, clock, shutdown) = harness("shutdown");
        let rec = queue.submit(
            JobSpec::Campaign {
                nodes: 256,
                seed: 3,
                stop_after_blocks: None,
            },
            5,
            clock.now_ms(),
        );
        let (leg1, _token1) = queue.claim(&shutdown, &clock).expect("claim");
        // a shutdown-shaped interruption mid-run: the fuse trips on the
        // second cancel poll, i.e. after the first block claim, so the
        // engine has a merged frontier to checkpoint when it stops
        let fuse = CancelToken::cancelled_after(2);
        assert!(matches!(
            run_job(&leg1, &fuse, &store),
            RunResult::Cancelled
        ));
        assert!(
            store.checkpoint_path(&rec.id).is_file(),
            "checkpoint written"
        );
        // not a user cancel, so the worker would requeue — and a fresh
        // daemon run resumes to the bit-identical report
        let requeued = queue
            .finish(&rec.id, Outcome::Requeue, clock.now_ms())
            .expect("known");
        assert_eq!(requeued.state, crate::spec::JobState::Queued);
        let fresh_shutdown = CancelToken::new();
        queue.close_after_drain();
        drain(&queue, &store, &clock, &fresh_shutdown);
        let stored = store.read_artifact(&rec.id, "report.json").expect("report");
        let direct = tinysdr_bench::campaign::campaign_json(256, 3)
            .write_pretty()
            .into_bytes();
        assert_eq!(stored, direct);
    }

    #[test]
    fn user_cancel_of_running_sweep_lands_terminal_cancelled() {
        let (queue, store, clock, shutdown) = harness("cancel");
        let rec = queue.submit(
            JobSpec::Waterfall {
                seed: 5,
                quick: true,
            },
            5,
            clock.now_ms(),
        );
        let (leg, token) = queue.claim(&shutdown, &clock).expect("claim");
        // cancel arrives while the job is "running": it trips the
        // job's claim token, which the sweep observes before a curve
        queue.cancel(&rec.id, clock.now_ms());
        assert!(token.is_cancelled());
        assert!(matches!(
            run_job(&leg, &token, &store),
            RunResult::Cancelled
        ));
        let done = queue
            .finish(&rec.id, Outcome::Cancelled, clock.now_ms())
            .expect("known");
        assert_eq!(done.state, crate::spec::JobState::Cancelled);
        assert!(store.read_artifact(&rec.id, "report.json").is_none());
    }

    #[test]
    fn failed_engine_is_contained_as_a_failed_job() {
        let (queue, store, clock, shutdown) = harness("failed");
        // nodes=0 makes the campaign engine panic (empty testbed)
        let rec = queue.submit(
            JobSpec::Campaign {
                nodes: 0,
                seed: 1,
                stop_after_blocks: None,
            },
            5,
            clock.now_ms(),
        );
        queue.close_after_drain();
        drain(&queue, &store, &clock, &shutdown);
        let done = queue.get(&rec.id).expect("record");
        // contained: worker survived; job is terminal one way or another
        assert!(done.state.is_terminal(), "state: {:?}", done.state);
    }
}
