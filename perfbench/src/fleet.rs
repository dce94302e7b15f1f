//! `fleet_campaign`: a unicast OTA campaign on `bench_update()` through
//! `Testbed::run_campaign_checkpointed` — sketch retention, 2 shards,
//! periodic checkpoints into the run's scratch directory.
//!
//! The traced run re-drives the scheduler's block loop single-threaded
//! through public calls (`LinkModel::from_downlink`,
//! `Testbed::interference_loss`/`session_seed`, `run_session`,
//! `NodeAggregate::push_session`/`merge`,
//! `CampaignCheckpoint::encode`/`write_atomic`, the summary's
//! `to_json`) and must reproduce the engine's aggregate, report and
//! final checkpoint bit for bit.

use std::path::Path;
use std::time::Instant;

use tinysdr_bench::campaign::bench_update;
use tinysdr_core::testbed::{
    CampaignConfig, CampaignReport, CampaignRun, CampaignSummary, CheckpointConfig, DistSummary,
    Node, Testbed,
};
use tinysdr_ota::aggregate::{NodeAggregate, RetainMode};
use tinysdr_ota::blocks::BlockedUpdate;
use tinysdr_ota::checkpoint::{chain_mix, CampaignCheckpoint, VERSION};
use tinysdr_ota::session::{run_session, LinkModel, SessionConfig};

use crate::measure::{
    fnv1a64, median, median_by_name, quantile, timed, Outcome, Run, Size, Tracer,
};

/// Seed of the reference campaign whose report digest is pinned below.
const REFERENCE_SEED: u64 = 1;
/// FNV-1a of the reference campaign's `to_json().write_pretty()` at
/// full size, recorded when the benchmark was defined.
const REFERENCE_DIGEST_FULL: u64 = 0x9650_f3d9_9b7f_0e2e;
/// The same at tiny (self-test) size.
const REFERENCE_DIGEST_TINY: u64 = 0x87a6_c90b_3b2d_eb2d;

/// Campaign shards, as the workload definition fixes them.
const SHARDS: usize = 2;
/// Checkpoint cadence, merged blocks per write.
const CHECKPOINT_EVERY_BLOCKS: usize = 4;

fn nodes(size: Size) -> usize {
    match size {
        Size::Full => 500,
        Size::Tiny => 48,
    }
}

fn campaign_config(seed: u64, shards: usize) -> CampaignConfig {
    CampaignConfig::sharded(seed, shards).with_retain(RetainMode::sketch())
}

/// One engine campaign from a clean checkpoint path.
fn engine(tb: &Testbed, upd: &BlockedUpdate, cfg: &CampaignConfig, ckpt: &Path) -> CampaignReport {
    std::fs::remove_file(ckpt).ok();
    match tb.run_campaign_checkpointed(
        upd,
        cfg,
        &CheckpointConfig::new(ckpt, CHECKPOINT_EVERY_BLOCKS),
    ) {
        Ok(CampaignRun::Complete(rep)) => rep,
        Ok(other) => panic!("campaign stopped early: {other:?}"),
        Err(e) => panic!("campaign checkpoint failed: {e}"),
    }
}

fn report_digest(rep: &CampaignReport) -> u64 {
    fnv1a64(rep.to_json().write_pretty().as_bytes())
}

fn expected_digest(run: &Run) -> u64 {
    let pinned = match run.size {
        Size::Full => REFERENCE_DIGEST_FULL,
        Size::Tiny => REFERENCE_DIGEST_TINY,
    };
    if run.corrupt_expected {
        !pinned
    } else {
        pinned
    }
}

/// The reference campaign at the pinned seed, digest-checked outside
/// the timed window.
fn check_reference(run: &Run, upd: &BlockedUpdate, out: &mut Outcome) {
    let n = nodes(run.size);
    let tb = Testbed::with_nodes(n, REFERENCE_SEED);
    let ckpt = run.scratch.join("reference.ckpt");
    let rep = engine(&tb, upd, &campaign_config(REFERENCE_SEED, SHARDS), &ckpt);
    let digest = report_digest(&rep);
    out.note("fleet.reference_digest", format!("{digest:016x}"));
    out.tally(n as u64, digest == expected_digest(run) && rep.len() == n);
}

/// End-to-end run: repeated 2-shard checkpointed campaigns for the
/// window, each after its own timed set-up (testbed layout and update
/// image), so set-up samples span the window too.
pub fn untraced(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let n = nodes(run.size);
    check_reference(run, &bench_update(), &mut out);
    let cfg = campaign_config(run.seed, SHARDS);
    let ckpt = run.scratch.join("campaign.ckpt");
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<u64> = None;
    let mut memory_bytes = 0;
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed() < run.window {
        let ((tb, upd), setup_s) = timed(|| (Testbed::with_nodes(n, run.seed), bench_update()));
        setups.push(setup_s);
        let (rep, wall) = timed(|| engine(&tb, &upd, &cfg, &ckpt));
        walls.push(wall);
        let digest = report_digest(&rep);
        let want = *first.get_or_insert(digest);
        out.tally(n as u64, digest == want && rep.len() == n);
        memory_bytes = rep.memory_bytes();
    }
    let walls_ms: Vec<String> = walls.iter().map(|w| format!("{:.1}", w * 1e3)).collect();
    out.note("fleet.walls_ms", walls_ms.join(" "));
    out.metric("setup_s", median(&setups), "s");
    // the host's speed comes in phases, so the mean and median wall
    // follow whichever phase a run happened to catch; the p90 wall is
    // what a user can count on, and throughput is quoted at it
    let p90 = quantile(&walls, 0.9);
    out.metric("ops_per_s", n as f64 / p90, "1/s");
    out.metric("turnaround_p90_ms", p90 * 1e3, "ms");
    out.note("turnaround_p50_ms", median(&walls) * 1e3);
    out.note(
        "turnaround_mean_ms",
        walls.iter().sum::<f64>() / walls.len() as f64 * 1e3,
    );
    out.note("fleet.campaigns", walls.len());
    out.note("fleet.nodes", n);
    out.note("campaign_report_bytes", memory_bytes);
    if let Some(digest) = first {
        out.note("fleet.report_digest", format!("{digest:016x}"));
    }
    out
}

/// The engine's campaign fingerprint, rebuilt from public data (it
/// keys the checkpoint file, so the final checkpoint bytes only match
/// if this matches too).
fn fingerprint(nodes: &[Node], update: &BlockedUpdate, cfg: &CampaignConfig) -> u64 {
    let mut h = chain_mix(0xCA3B_A160_0000_0000, VERSION as u64);
    h = chain_mix(h, cfg.seed);
    h = chain_mix(h, cfg.max_attempts as u64);
    h = chain_mix(h, cfg.block_len as u64);
    match cfg.retain {
        RetainMode::Exact => h = chain_mix(h, 0),
        RetainMode::Sketch { alpha } => {
            h = chain_mix(h, 1);
            h = chain_mix(h, alpha.to_bits());
        }
    }
    // the workload runs without a battery projection
    h = chain_mix(h, 0);
    h = chain_mix(h, nodes.len() as u64);
    for n in nodes {
        h = chain_mix(h, n.id as u64);
        h = chain_mix(h, n.rssi_dbm.to_bits());
    }
    h = chain_mix(h, update.raw_len as u64);
    h = chain_mix(h, update.image_crc32 as u64);
    h = chain_mix(h, update.compressed_len() as u64);
    h = chain_mix(h, update.blocks.len() as u64);
    h
}

/// What the traced reconstruction produced.
struct Rebuilt {
    agg: NodeAggregate,
    report_json: String,
    final_checkpoint: Vec<u8>,
    metrics: Vec<(String, f64, &'static str)>,
}

/// Single-threaded reconstruction of the checkpointed block scheduler
/// with a span around every layer call.
fn reconstruct(run: &Run, upd: &BlockedUpdate, cfg: &CampaignConfig, tr: &mut Tracer) -> Rebuilt {
    let n = nodes(run.size);
    let tb = tr.span("core.layout", 0, || Testbed::with_nodes(n, run.seed));
    let ckpt = run.scratch.join("traced.ckpt");
    let nblocks = n.div_ceil(cfg.block_len);
    let fp = fingerprint(&tb.nodes, upd, cfg);
    let mut acc = NodeAggregate::new(cfg.retain, cfg.projection);
    let (mut retx, mut packets) = (0u64, 0u64);
    let (mut writes, mut last_written) = (0u64, 0usize);
    let mut final_checkpoint = Vec::new();
    let mut write = |merged: usize, acc: &NodeAggregate, tr: &mut Tracer| {
        let snapshot = CampaignCheckpoint {
            fingerprint: fp,
            merged_blocks: merged as u64,
            total_blocks: nblocks as u64,
            agg: acc.clone(),
            reports: Vec::new(),
        };
        tr.span("ota.checkpoint", merged as u64, || {
            final_checkpoint = snapshot.encode();
            snapshot
                .write_atomic(&ckpt)
                .expect("traced checkpoint write");
        });
        writes += 1;
    };
    for (b, block) in tb.nodes.chunks(cfg.block_len).enumerate() {
        let mut block_agg = NodeAggregate::new(cfg.retain, cfg.projection);
        for node in block {
            let mut link = LinkModel::from_downlink(node.rssi_dbm);
            link.base_loss_prob = Testbed::interference_loss(cfg.seed, node.id);
            let scfg = SessionConfig {
                max_attempts: cfg.max_attempts,
                seed: Testbed::session_seed(cfg.seed, node.id),
            };
            let rep = tr.span("ota.session", b as u64, || run_session(upd, &link, &scfg));
            retx += u64::from(rep.retransmissions);
            packets += u64::from(rep.data_packets);
            tr.span("ota.aggregate", b as u64, || block_agg.push_session(&rep));
        }
        tr.span("ota.aggregate", b as u64, || acc.merge(&block_agg));
        let merged = b + 1;
        if merged - last_written >= CHECKPOINT_EVERY_BLOCKS {
            write(merged, &acc, tr);
            last_written = merged;
        }
    }
    if last_written != nblocks {
        write(nblocks, &acc, tr);
    }
    let report_json = tr.span("ota.report_json", 0, || {
        summary(&acc).to_json().write_pretty()
    });
    let metrics = vec![
        ("core.layout_s".to_string(), tr.busy_s("core.layout"), "s"),
        ("ota.session_s".to_string(), tr.busy_s("ota.session"), "s"),
        (
            "ota.sessions".to_string(),
            tr.calls("ota.session") as f64,
            "count",
        ),
        (
            "ota.retx_per_packet".to_string(),
            retx as f64 / packets.max(1) as f64,
            "ratio",
        ),
        (
            "ota.aggregate_s".to_string(),
            tr.busy_s("ota.aggregate"),
            "s",
        ),
        (
            "ota.checkpoint_s".to_string(),
            tr.busy_s("ota.checkpoint"),
            "s",
        ),
        ("ota.checkpoint_writes".to_string(), writes as f64, "count"),
        (
            "ota.checkpoint_bytes".to_string(),
            final_checkpoint.len() as f64,
            "B",
        ),
        (
            "ota.report_json_s".to_string(),
            tr.busy_s("ota.report_json"),
            "s",
        ),
        ("ota.blocks".to_string(), nblocks as f64, "count"),
    ];
    Rebuilt {
        agg: acc,
        report_json,
        final_checkpoint,
        metrics,
    }
}

/// `CampaignReport::summary` over a bare aggregate (sketch mode keeps
/// no per-node reports, so the aggregate determines the summary).
fn summary(agg: &NodeAggregate) -> CampaignSummary {
    CampaignSummary {
        nodes: agg.len() as u64,
        completed: agg.completed() as u64,
        total_air_time_s: agg.total_duration_s(),
        total_energy_mj: agg.total_energy_mj(),
        total_bytes: agg.total_bytes(),
        retain_exact: agg.retain().is_exact(),
        energy_by_tag: agg.energy_by_tag().into_iter().collect(),
        time_min: DistSummary::of(agg.time_dist()),
        energy_mj: DistSummary::of(agg.energy_dist()),
        bytes: DistSummary::of(agg.bytes_dist()),
        life_years: agg.life_dist().map(DistSummary::of),
    }
}

/// Traced run: per iteration, the 2-shard engine, the 1-shard engine
/// and the traced reconstruction on the same input; per-layer numbers
/// are medians over iterations.
pub fn traced(run: &Run) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let n = nodes(run.size);
    let upd = bench_update();
    check_reference(run, &upd, &mut out);
    let tb = Testbed::with_nodes(n, run.seed);
    let cfg = campaign_config(run.seed, SHARDS);
    let ckpt = run.scratch.join("campaign.ckpt");
    let mut iters = Vec::new();
    let mut last_tracer = Tracer::new();
    let t0 = Instant::now();
    while iters.is_empty() || t0.elapsed() < run.window {
        let (sharded, w2) = timed(|| engine(&tb, &upd, &cfg, &ckpt));
        let engine_ckpt = std::fs::read(&ckpt).unwrap_or_default();
        let (single, w1) = timed(|| engine(&tb, &upd, &campaign_config(run.seed, 1), &ckpt));
        let mut tr = Tracer::new();
        let rebuilt = reconstruct(run, &upd, &cfg, &mut tr);
        let wt = tr.elapsed_s();
        let same = single == sharded
            && rebuilt.agg == *sharded.aggregate()
            && rebuilt.report_json == sharded.to_json().write_pretty()
            && rebuilt.final_checkpoint == engine_ckpt
            && sharded.len() == n;
        out.tally(n as u64, same);
        let mut m = rebuilt.metrics;
        m.push((
            "ota.report_memory_bytes".into(),
            sharded.memory_bytes() as f64,
            "B",
        ));
        m.push((
            "core.parallel_efficiency".into(),
            w1 / (SHARDS as f64 * w2),
            "ratio",
        ));
        m.push(("trace.traced_wall_s".into(), wt, "s"));
        m.push(("trace.untraced_wall_s".into(), w1, "s"));
        m.push(("trace.untraced_frac".into(), tr.untraced_frac(wt), "ratio"));
        iters.push(m);
        last_tracer = tr;
    }
    out.metrics = median_by_name(&iters);
    out.metric("trace.iterations", iters.len() as f64, "count");
    (out, last_tracer)
}
