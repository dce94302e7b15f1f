//! `phy_sweep`: a conformance waterfall through `run_waterfall` on two
//! shards — LoRa packet PER at SF8, LoRa symbol SER at SF8 and SF10
//! (256- and 1024-point FFTs), BLE GFSK BER and 802.15.4 O-QPSK SER,
//! each under `default_impairments()` across the modem's RSSI window.
//!
//! The traced run re-drives the engine's curve loop single-threaded
//! through public calls (`PhyModem::modulate`,
//! `ImpairmentChain::prepare_pass_into`/`apply_prepared_into`,
//! `PhyModem::demodulate_batch`, `count_errors`) and must reproduce the
//! engine's report bit for bit.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tinysdr_bench::waterfall::{
    default_impairments, run_waterfall, RssiGrid, Scenario, SweepPoint, SweepScenario,
    WaterfallConfig, WaterfallReport,
};
use tinysdr_dsp::complex::Complex;
use tinysdr_lora::demodulator::Demodulator;
use tinysdr_ota::seed::stream_seed;
use tinysdr_rf::impairments::{ChainScratch, PreparedPass};
use tinysdr_rf::phy::ErrorCount;

use crate::measure::{
    fnv1a64, median, median_by_name, quantile, timed, Outcome, Run, Size, Tracer,
};

/// Seed of the reference sweep whose report digest is pinned below.
const REFERENCE_SEED: u64 = 1;
/// FNV-1a of the reference sweep's `to_json().write_pretty()` at full
/// size, recorded when the benchmark was defined.
const REFERENCE_DIGEST_FULL: u64 = 0x8c5e_288c_562d_c951;
/// The same at tiny (self-test) size.
const REFERENCE_DIGEST_TINY: u64 = 0x2972_42fe_60de_cd00;

/// Sweep shards, as the workload definition fixes them.
const SHARDS: usize = 2;
/// LoRa packet payload, bytes.
const PER_PAYLOAD: usize = 16;

/// Layer name and demodulation span of each scenario kind, in grid
/// order.
const LAYERS: [(&str, &str); 5] = [
    ("lora.per", "lora.per.demod"),
    ("lora.ser_sf8", "lora.ser_sf8.demod"),
    ("lora.ser_sf10", "lora.ser_sf10.demod"),
    ("ble", "ble.demod"),
    ("zigbee", "zigbee.demod"),
];

/// The sweep grid at `size`: the five scenarios twice over. The engine
/// splits the curve list into contiguous halves, one per shard, so each
/// shard gets one copy of every scenario — balanced work, and a speed-up
/// in any one layer shortens both shards alike.
pub fn config(seed: u64, size: Size) -> WaterfallConfig {
    let (packets, ser8, ser10, ble_bits, zb_symbols) = match size {
        Size::Full => (2, 32, 20, 4_000, 400),
        Size::Tiny => (1, 8, 4, 400, 40),
    };
    let mut scenarios = Vec::new();
    for _ in 0..SHARDS {
        scenarios.extend([
            Scenario::lora_per(8, 125e3, PER_PAYLOAD, packets),
            Scenario::lora_ser(8, 125e3, ser8),
            Scenario::lora_ser(10, 125e3, ser10),
            Scenario::ble_ber(4, ble_bits),
            Scenario::zigbee_oqpsk(2, zb_symbols),
        ]);
    }
    if size == Size::Tiny {
        for sc in &mut scenarios {
            let anchor = sc.phy.sensitivity_anchor_dbm();
            sc.rssi = RssiGrid::around(anchor, 4, 8, 6);
        }
    }
    WaterfallConfig {
        seed,
        shards: SHARDS,
        scenarios,
        impairments: default_impairments(),
    }
}

/// A scenario's reference frame and transmit waveform, derived exactly
/// as the engine derives them (seed streams keyed by scenario index).
struct Reference {
    frame: Vec<u8>,
    tx: Vec<Complex>,
}

fn scenario_seed(sweep_seed: u64, s_idx: usize) -> u64 {
    stream_seed(sweep_seed, s_idx as u64 ^ 0x5CE0)
}

fn reference_frame(sweep_seed: u64, s_idx: usize, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(stream_seed(scenario_seed(sweep_seed, s_idx), 0xDA7A_0001));
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

fn build_references(cfg: &WaterfallConfig, tr: Option<&mut Tracer>) -> Vec<Reference> {
    let mut tr = tr;
    cfg.scenarios
        .iter()
        .enumerate()
        .map(|(s_idx, sc)| {
            let frame = reference_frame(cfg.seed, s_idx, sc.frame_len);
            let tx = match tr.as_deref_mut() {
                Some(t) => t.span("phy.modulate", s_idx as u64, || sc.phy.modulate(&frame)),
                None => sc.phy.modulate(&frame),
            };
            Reference { frame, tx }
        })
        .collect()
}

fn report_digest(rep: &WaterfallReport) -> u64 {
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

fn points_per_sweep(cfg: &WaterfallConfig) -> usize {
    cfg.scenarios
        .iter()
        .map(|s| s.rssi.points().len())
        .sum::<usize>()
        * cfg.impairments.len()
}

/// Plausibility of one report: every point has trials, and every
/// scenario decodes error-free at the top of its window on a clean
/// channel.
fn plausible(rep: &WaterfallReport, cfg: &WaterfallConfig) -> bool {
    rep.points.len() == points_per_sweep(cfg)
        && rep.points.iter().all(|p| p.trials > 0)
        && cfg.scenarios.iter().all(|sc| {
            let label = sc.label();
            rep.curve(&label, "clean")
                .last()
                .is_some_and(|&(_, rate)| rate == 0.0)
        })
}

/// The reference sweep at the pinned seed, digest-checked outside the
/// timed window.
fn check_reference(run: &Run, out: &mut Outcome) {
    let rep = run_waterfall(&config(REFERENCE_SEED, run.size));
    let digest = report_digest(&rep);
    out.note("phy.reference_digest", format!("{digest:016x}"));
    out.tally(rep.points.len() as u64, digest == expected_digest(run));
}

/// The workload's set-up: the grid and its reference waveforms.
fn setup(run: &Run) -> WaterfallConfig {
    let cfg = config(run.seed, run.size);
    std::hint::black_box(build_references(&cfg, None));
    cfg
}

/// End-to-end run: repeated 2-shard sweeps for the window, each after
/// its own timed set-up (so set-up samples span the window too).
pub fn untraced(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    check_reference(run, &mut out);
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<(u64, bool)> = None;
    let t0 = Instant::now();
    while walls.is_empty() || t0.elapsed() < run.window {
        let (cfg, setup_s) = timed(|| setup(run));
        setups.push(setup_s);
        let (rep, wall) = timed(|| run_waterfall(&cfg));
        walls.push(wall);
        let digest = report_digest(&rep);
        let (want, plausible_first) = *first.get_or_insert_with(|| (digest, plausible(&rep, &cfg)));
        out.tally(rep.points.len() as u64, digest == want && plausible_first);
    }
    let cfg = config(run.seed, run.size);
    let points = points_per_sweep(&cfg);
    let walls_ms: Vec<String> = walls.iter().map(|w| format!("{:.1}", w * 1e3)).collect();
    out.note("phy.walls_ms", walls_ms.join(" "));
    out.metric("setup_s", median(&setups), "s");
    // the host's speed comes in phases, so the mean and median wall
    // follow whichever phase a run happened to catch; the p90 wall is
    // what a user can count on, and throughput is quoted at it
    let p90 = quantile(&walls, 0.9);
    out.metric("ops_per_s", points as f64 / p90, "1/s");
    out.metric("turnaround_p90_ms", p90 * 1e3, "ms");
    out.note("turnaround_p50_ms", median(&walls) * 1e3);
    out.note(
        "turnaround_mean_ms",
        walls.iter().sum::<f64>() / walls.len() as f64 * 1e3,
    );
    out.note("phy.grid", describe(&cfg));
    out.note("phy.sweeps", walls.len());
    out.note("phy.points_per_sweep", points);
    if let Some((digest, _)) = first {
        out.note("phy.report_digest", format!("{digest:016x}"));
    }
    out
}

/// Single-threaded reconstruction of `run_waterfall` with a span around
/// every layer call. Returns the rebuilt report and the per-layer
/// numbers of this pass.
fn reconstruct(
    cfg: &WaterfallConfig,
    tr: &mut Tracer,
) -> (WaterfallReport, Vec<(String, f64, &'static str)>) {
    let refs = build_references(cfg, Some(tr));
    let per_demod = Demodulator::standard(8, 125e3, 1, 4);
    let mut chain_scratch = ChainScratch::new();
    let mut prep = PreparedPass::new();
    let mut rx: Vec<Vec<Complex>> = Vec::new();
    let mut points = Vec::new();
    // per scenario: samples demodulated and (LoRa PER) useful decodes
    let mut samples = [0usize; 5];
    let mut decoded = 0u64;
    let mut decode_attempts = 0u64;
    for (s_idx, sc) in cfg.scenarios.iter().enumerate() {
        let kind = s_idx % LAYERS.len();
        let demod = LAYERS[kind].1;
        let phy = sc.phy.as_ref();
        let fs = phy.sample_rate_hz();
        let rssis = sc.rssi.points();
        let reference = &refs[s_idx];
        for (i_idx, named) in cfg.impairments.iter().enumerate() {
            let group = (s_idx * cfg.impairments.len() + i_idx) as u64;
            let chain = named.chain.clone().with_noise_figure(phy.noise_figure_db());
            let curve_seed = stream_seed(scenario_seed(cfg.seed, s_idx), i_idx as u64 ^ 0x13B0);
            let mut counts = vec![ErrorCount::ZERO; rssis.len()];
            rx.resize_with(rssis.len(), Vec::new);
            for k in 0..sc.passes {
                let pass_seed = stream_seed(curve_seed, 0xC4A1_0002 ^ ((k as u64) << 20));
                tr.span("rf.prepare_pass", group, || {
                    chain.prepare_pass_into(
                        &reference.tx,
                        fs,
                        pass_seed,
                        &mut prep,
                        &mut chain_scratch,
                    )
                });
                for (buf, &rssi_dbm) in rx.iter_mut().zip(&rssis) {
                    tr.span("rf.apply_prepared", group, || {
                        chain.apply_prepared_into(&prep, rssi_dbm, buf)
                    });
                }
                let captures: Vec<&[Complex]> = rx.iter().map(|r| r.as_slice()).collect();
                samples[kind] += captures.iter().map(|c| c.len()).sum::<usize>();
                let results = tr.span(demod, group, || phy.demodulate_batch(&captures));
                if kind == 0 {
                    for cap in &captures {
                        tr.span("lora.per.filter", group, || per_demod.filter(cap));
                    }
                    decode_attempts += results.len() as u64;
                    decoded += results
                        .iter()
                        .filter(|r| r.frame_ok == Some(true) && r.bytes == reference.frame)
                        .count() as u64;
                }
                tr.span("phy.count_errors", group, || {
                    for (count, res) in counts.iter_mut().zip(&results) {
                        *count += phy.count_errors(&reference.frame, res);
                    }
                });
            }
            for (&rssi_dbm, count) in rssis.iter().zip(&counts) {
                points.push(SweepPoint {
                    scenario: phy.label(),
                    impairment: named.label.clone(),
                    rssi_dbm,
                    errors: count.errors,
                    trials: count.trials,
                });
            }
        }
    }
    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put = |name: &str, v: f64, unit: &'static str| m.push((name.to_string(), v, unit));
    put("rf.prepare_pass_s", tr.busy_s("rf.prepare_pass"), "s");
    put(
        "rf.prepare_pass_calls",
        tr.calls("rf.prepare_pass") as f64,
        "count",
    );
    put("rf.apply_prepared_s", tr.busy_s("rf.apply_prepared"), "s");
    for (kind, (layer, demod)) in LAYERS.iter().enumerate() {
        let busy = tr.busy_s(demod);
        put(&format!("{layer}.demod_s"), busy, "s");
        put(
            &format!("{layer}.demod_msps"),
            samples[kind] as f64 / busy / 1e6,
            "Msps",
        );
        if kind == 0 {
            let air_s = samples[0] as f64 / cfg.scenarios[0].phy.sample_rate_hz();
            put("lora.per.rx_realtime_x", air_s / busy, "x");
            put(
                "lora.per.decoded_frac",
                decoded as f64 / decode_attempts.max(1) as f64,
                "ratio",
            );
        }
    }
    put("lora.per.filter_s", tr.busy_s("lora.per.filter"), "s");
    put("phy.modulate_s", tr.busy_s("phy.modulate"), "s");
    put("phy.count_errors_s", tr.busy_s("phy.count_errors"), "s");
    (WaterfallReport { points }, m)
}

/// Traced run: per iteration, the 2-shard engine, the 1-shard engine
/// and the traced reconstruction on the same input; per-layer numbers
/// are medians over iterations.
pub fn traced(run: &Run) -> (Outcome, Tracer) {
    let mut out = Outcome::default();
    let cfg = config(run.seed, run.size);
    check_reference(run, &mut out);
    let mut iters = Vec::new();
    let mut last_tracer = Tracer::new();
    let t0 = Instant::now();
    while iters.is_empty() || t0.elapsed() < run.window {
        let (sharded, w2) = timed(|| run_waterfall(&cfg));
        let (single, w1) = timed(|| run_waterfall(&cfg.clone().sharded(1)));
        let mut tr = Tracer::new();
        let (rebuilt, mut m) = reconstruct(&cfg, &mut tr);
        let wt = tr.elapsed_s();
        let same = single == sharded && rebuilt == sharded && plausible(&sharded, &cfg);
        out.tally(sharded.points.len() as u64, same);
        m.push((
            "bench.waterfall.parallel_efficiency".into(),
            w1 / (SHARDS as f64 * w2),
            "ratio",
        ));
        m.push(("phy.points".into(), rebuilt.points.len() as f64, "count"));
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

/// Scenarios of the grid, for the stamp line.
fn describe(cfg: &WaterfallConfig) -> String {
    cfg.scenarios
        .iter()
        .map(|s: &SweepScenario| format!("{} x{} ({} B)", s.label(), s.passes, s.frame_len))
        .collect::<Vec<_>>()
        .join("; ")
}
