//! The hot-path perf gates behind `repro perf`.
//!
//! Three things happen here, mirroring `repro campaign`:
//!
//! 1. **Contract gates** — the allocation-free hot paths must be
//!    bit-identical to the allocating reference they replaced:
//!    [`ImpairmentChain::apply_into`] and the prepared-pass replay
//!    against `apply`, and every modem's `modulate_batch` /
//!    `demodulate_batch` against the scalar loop. The gates `assert!`,
//!    so a contract violation aborts the binary — the CI perf-smoke
//!    step relies on that.
//! 2. **Timed runs** — the quick waterfall grid (the sweep the
//!    curve-major engine was restructured for) and the three modem
//!    modulate/demodulate workloads, measured with the scratch-reusing
//!    APIs in steady state.
//! 3. **Trajectory points** — the measurements land in
//!    `BENCH_waterfall.json` and `BENCH_modem.json` next to the
//!    recorded pre-refactor reference point, so the speedup the
//!    restructure bought stays visible (and, in the full run, gated)
//!    across commits.

use tinysdr_ble::gfsk::{GfskDemodulator, GfskModulator, GfskScratch};
use tinysdr_ble::modem::BleBerPhy;
use tinysdr_dsp::complex::Complex;
use tinysdr_dsp::nco::ideal_tone;
use tinysdr_lora::demodulator::Demodulator;
use tinysdr_lora::modem::{LoraPerPhy, LoraSerPhy};
use tinysdr_lora::modulator::Modulator;
use tinysdr_lora::packet::Frame;
use tinysdr_ota::json::Value;
use tinysdr_rf::impairments::{ChainScratch, ImpairmentChain, PreparedPass};
use tinysdr_rf::phy::PhyModem;
use tinysdr_zigbee::modem::ZigbeePhy;

use crate::waterfall::{run_waterfall, WaterfallConfig};

/// Pre-refactor reference: wall time of the quick waterfall grid
/// (`WaterfallConfig::quick(7)`, 57 points, sequential), measured with
/// the criterion shim at the commit preceding the batched-hot-path
/// restructure on the recording machine. The restructure is gated
/// against this number.
const PRE_WATERFALL_WALL_MS: f64 = 168.774259;
/// Grid points of the pre-refactor waterfall measurement.
const PRE_WATERFALL_POINTS: usize = 57;

/// Pre-refactor modem throughput, Msamples/s, from the same recorded
/// criterion run (`benches/modem.rs` workloads, allocating scalar
/// paths). 802.15.4 had no bench before this change, hence `NAN`
/// (serialized as `null`).
const PRE_LORA_MOD_MSPS: f64 = 357.679;
const PRE_LORA_DEMOD_MSPS: f64 = 20.380;
const PRE_BLE_MOD_MSPS: f64 = 56.778;
const PRE_BLE_DEMOD_MSPS: f64 = 28.629;
const PRE_ZIGBEE_MOD_MSPS: f64 = f64::NAN;
const PRE_ZIGBEE_DEMOD_MSPS: f64 = f64::NAN;

/// The speedup floor `repro perf` (full mode) enforces on the quick
/// waterfall grid, sequential, versus [`PRE_WATERFALL_WALL_MS`].
const REQUIRED_WATERFALL_SPEEDUP: f64 = 1.5;

/// Gate 1a: the buffered chain paths are bit-identical to `apply` —
/// `apply_into` with reused scratch, and the prepared-pass replay that
/// the sweep engine leans on — across a chain stacking every stage.
fn gate_chain_bit_identity() {
    let fs = 1e6;
    let tx = ideal_tone(30e3, fs, 4096);
    let chain = ImpairmentChain::new(6.0)
        .with_timing_offset(0.25)
        .with_clock_drift_ppm(2.0)
        .with_iq_imbalance(1.0, 5.0)
        .with_cfo_hz(300.0)
        .with_phase_noise(100.0)
        .with_block_fading(512)
        .with_adc_quantization(12);
    let mut scratch = ChainScratch::new();
    let mut prep = PreparedPass::new();
    let mut out = Vec::new();
    for seed in [1u64, 99] {
        chain.prepare_pass_into(&tx, fs, seed, &mut prep, &mut scratch);
        for rssi_dbm in [-60.0, -100.0, -130.0] {
            let reference = chain.apply(&tx, rssi_dbm, fs, seed);
            chain.apply_into(&tx, rssi_dbm, fs, seed, &mut out, &mut scratch);
            assert_eq!(reference, out, "apply_into diverged at {rssi_dbm} dBm");
            chain.apply_prepared_into(&prep, rssi_dbm, &mut out);
            assert_eq!(reference, out, "prepared replay diverged at {rssi_dbm} dBm");
        }
    }
}

/// Gate 1b: every modem's batch overrides are bit-identical to the
/// scalar loop they amortize — on clean waveforms, and on the captures
/// where the receivers' decisions are close calls: AWGN at the modem's
/// sensitivity anchor, captures with NaN samples, and all-zero
/// captures (every template or bin ties).
fn gate_batch_bit_identity() {
    let phys: Vec<Box<dyn PhyModem>> = vec![
        Box::new(LoraSerPhy::new(8, 125e3)),
        Box::new(LoraPerPhy::new(8, 125e3, 1)),
        Box::new(BleBerPhy::new(4)),
        Box::new(ZigbeePhy::new(2)),
    ];
    for phy in &phys {
        let frames: Vec<Vec<u8>> = (0..4u8)
            .map(|f| {
                (0..24u32)
                    .map(|i| (i * 131 + 7 + u32::from(f)) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = frames.iter().map(|f| f.as_slice()).collect();
        let mut waves = Vec::new();
        phy.modulate_batch(&refs, &mut waves);
        for (frame, wave) in refs.iter().zip(&waves) {
            assert_eq!(*wave, phy.modulate(frame), "{} modulate_batch", phy.label());
        }
        let awgn = ImpairmentChain::new(phy.noise_figure_db());
        let mut captures = waves.clone();
        for (seed, wave) in waves.iter().enumerate() {
            captures.push(awgn.apply(
                wave,
                phy.sensitivity_anchor_dbm(),
                phy.sample_rate_hz(),
                seed as u64,
            ));
            let mut nan = wave.clone();
            for z in nan.iter_mut().skip(seed * 7 + 3).step_by(997) {
                *z = Complex::new(f64::NAN, z.im);
            }
            captures.push(nan);
            captures.push(vec![Complex::ZERO; wave.len()]);
        }
        let slices: Vec<&[Complex]> = captures.iter().map(|w| w.as_slice()).collect();
        for (iq, rx) in slices.iter().zip(phy.demodulate_batch(&slices)) {
            assert_eq!(rx, phy.demodulate(iq), "{} demodulate_batch", phy.label());
        }
    }
}

/// Time `reps` calls of `f` after one warm-up call and return the best
/// single call's seconds — the same best-sample estimator the vendored
/// criterion shim reports as ns/iter, so pre/post trajectory points
/// are methodologically comparable. Every workload here runs ≥ 10 µs,
/// far above the timer's resolution.
#[allow(clippy::disallowed_methods)] // measuring wall time is the point of a bench harness
fn time_per_call(reps: u32, mut f: impl FnMut()) -> f64 {
    f();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = std::time::Instant::now(); // lint: allow(ambient-time, bench harness measures wall time)
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// One modem family's measured throughput, Msamples/s.
#[derive(Debug, Clone, PartialEq)]
pub struct ModemPoint {
    /// Modulator throughput, Msamples/s (non-finite → `null` in JSON).
    pub mod_msps: f64,
    /// Demodulator throughput, Msamples/s.
    pub demod_msps: f64,
}

impl ModemPoint {
    fn to_json(&self) -> Value {
        let num = |x: f64| {
            if x.is_finite() {
                Value::num(x)
            } else {
                Value::Null
            }
        };
        Value::Obj(vec![
            ("modulate_msps".into(), num(self.mod_msps)),
            ("demodulate_msps".into(), num(self.demod_msps)),
        ])
    }

    fn from_json(v: &Value) -> Option<ModemPoint> {
        let num = |v: Option<&Value>| match v {
            None | Some(Value::Null) => Some(f64::NAN),
            Some(x) => x.as_f64(),
        };
        Some(ModemPoint {
            mod_msps: num(v.get("modulate_msps"))?,
            demod_msps: num(v.get("demodulate_msps"))?,
        })
    }
}

/// The measured `repro perf` report: three modem families plus the
/// quick waterfall grid timing. This is what the `--json` path and the
/// testbed daemon's `perf` jobs both serialize — one builder, so the
/// two outputs are bit-identical for identical measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// LoRa SF8/BW125 frame workload.
    pub lora: ModemPoint,
    /// BLE GFSK beacon workload.
    pub ble: ModemPoint,
    /// 802.15.4 O-QPSK 16-byte frame workload.
    pub zigbee: ModemPoint,
    /// Points in the timed quick waterfall grid.
    pub waterfall_grid_points: u64,
    /// Best wall time of the quick waterfall grid, milliseconds.
    pub waterfall_wall_ms: f64,
}

impl PerfReport {
    /// Canonical JSON form (`kind: "perf"`, `schema: 1`).
    pub fn to_json(&self) -> Value {
        Value::Obj(vec![
            ("kind".into(), Value::str("perf")),
            ("schema".into(), Value::num(1.0)),
            ("lora_sf8_frame".into(), self.lora.to_json()),
            ("ble_beacon".into(), self.ble.to_json()),
            ("zigbee_16b_frame".into(), self.zigbee.to_json()),
            (
                "waterfall_grid_points".into(),
                Value::num(self.waterfall_grid_points as f64),
            ),
            (
                "waterfall_wall_ms".into(),
                if self.waterfall_wall_ms.is_finite() {
                    Value::num(self.waterfall_wall_ms)
                } else {
                    Value::Null
                },
            ),
        ])
    }

    /// Rebuild a report from [`PerfReport::to_json`] output; `None` if
    /// the value is not a well-formed perf report.
    pub fn from_json(v: &Value) -> Option<PerfReport> {
        if v.get("kind").and_then(Value::as_str) != Some("perf") {
            return None;
        }
        let modem = |key: &str| ModemPoint::from_json(v.get(key)?);
        Some(PerfReport {
            lora: modem("lora_sf8_frame")?,
            ble: modem("ble_beacon")?,
            zigbee: modem("zigbee_16b_frame")?,
            waterfall_grid_points: v.get("waterfall_grid_points").and_then(Value::as_u64)?,
            waterfall_wall_ms: match v.get("waterfall_wall_ms") {
                None | Some(Value::Null) => f64::NAN,
                Some(x) => x.as_f64()?,
            },
        })
    }
}

/// LoRa SF8/BW125, the 16-byte frame of `benches/modem.rs`, through the
/// scratch-reusing frame paths in steady state.
fn measure_lora(reps: u32) -> ModemPoint {
    let m = Modulator::standard(8, 125e3, 1, 1);
    let d = Demodulator::standard(8, 125e3, 1, 1);
    let frame = Frame::from_payload(&[0u8; 16], *m.frame_params());
    let mut wave = Vec::new();
    m.modulate_frame_into(&frame, &mut wave);
    let n = wave.len() as f64;
    let t_mod = time_per_call(reps, || m.modulate_frame_into(&frame, &mut wave));
    let mut scratch = d.scratch();
    let t_demod = time_per_call(reps, || {
        d.demodulate_with(&wave, &mut scratch);
    });
    ModemPoint {
        mod_msps: n / t_mod / 1e6,
        demod_msps: n / t_demod / 1e6,
    }
}

/// BLE GFSK, the beacon workload of `benches/modem.rs`, through the
/// scratch-reusing `_into` paths.
fn measure_ble(reps: u32) -> ModemPoint {
    let m = GfskModulator::new(4);
    let d = GfskDemodulator::new(4);
    // lint: allow(unjustified-panic, perf harness aborts loudly on a malformed beacon)
    let pkt = tinysdr_ble::packet::AdvPacket::beacon([1, 2, 3, 4, 5, 6], &[0u8; 24]).expect("adv");
    let bits = pkt.to_bits(37);
    let mut scratch = GfskScratch::new();
    let mut wave = Vec::new();
    m.modulate_into(&bits, &mut scratch, &mut wave);
    let n = wave.len() as f64;
    let t_mod = time_per_call(reps, || m.modulate_into(&bits, &mut scratch, &mut wave));
    let mut rx_bits = Vec::new();
    let t_demod = time_per_call(reps, || d.demodulate_into(&wave, &mut rx_bits));
    ModemPoint {
        mod_msps: n / t_mod / 1e6,
        demod_msps: n / t_demod / 1e6,
    }
}

/// 802.15.4 O-QPSK, a 16-byte frame through the batch overrides (no
/// pre-refactor bench exists; this starts the trajectory).
fn measure_zigbee(reps: u32) -> ModemPoint {
    let phy = ZigbeePhy::new(2);
    let frame: Vec<u8> = (0..16).map(|i| (i * 97 + 13) as u8).collect();
    let refs: Vec<&[u8]> = vec![frame.as_slice()];
    let mut waves = Vec::new();
    phy.modulate_batch(&refs, &mut waves);
    let n = waves[0].len() as f64;
    let t_mod = time_per_call(reps, || phy.modulate_batch(&refs, &mut waves));
    let slices: Vec<&[Complex]> = waves.iter().map(|w| w.as_slice()).collect();
    let t_demod = time_per_call(reps, || {
        phy.demodulate_batch(&slices);
    });
    ModemPoint {
        mod_msps: n / t_mod / 1e6,
        demod_msps: n / t_demod / 1e6,
    }
}

/// Time the quick waterfall grid sequentially, returning
/// `(grid points, best wall seconds over iters)`.
#[allow(clippy::disallowed_methods)] // bench harness: wall time is the measurement
fn measure_waterfall(iters: u32) -> (usize, f64) {
    let cfg = WaterfallConfig::quick(7);
    let points = run_waterfall(&cfg).points.len();
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = std::time::Instant::now(); // lint: allow(ambient-time, bench harness measures wall time)
        let rep = run_waterfall(&cfg);
        let dt = t0.elapsed().as_secs_f64();
        assert_eq!(rep.points.len(), points, "grid size changed between iters");
        best = best.min(dt);
    }
    (points, best)
}

/// Format one f64 for the JSON writer (plain decimal, no locale;
/// non-finite serializes as `null`).
fn jnum(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6}")
    } else {
        "null".to_string()
    }
}

/// One point of the waterfall perf trajectory.
fn waterfall_point(label: &str, points: usize, wall_ms: f64, speedup: f64) -> String {
    format!(
        concat!(
            "    {{\n",
            "      \"label\": \"{label}\",\n",
            "      \"grid\": \"quick\",\n",
            "      \"shards\": 1,\n",
            "      \"grid_points\": {points},\n",
            "      \"wall_ms\": {wall_ms},\n",
            "      \"points_per_s\": {rate},\n",
            "      \"speedup_vs_pre\": {speedup}\n",
            "    }}"
        ),
        label = label,
        points = points,
        wall_ms = jnum(wall_ms),
        rate = jnum(points as f64 / (wall_ms / 1e3)),
        speedup = jnum(speedup),
    )
}

/// One point of the modem perf trajectory.
fn modem_point(label: &str, lora: &ModemPoint, ble: &ModemPoint, zigbee: &ModemPoint) -> String {
    let fam = |name: &str, p: &ModemPoint, last: bool| {
        format!(
            "      \"{name}\": {{\"modulate_msps\": {}, \"demodulate_msps\": {}}}{}\n",
            jnum(p.mod_msps),
            jnum(p.demod_msps),
            if last { "" } else { "," }
        )
    };
    format!(
        "    {{\n      \"label\": \"{label}\",\n{}{}{}    }}",
        fam("lora_sf8_frame", lora, false),
        fam("ble_beacon", ble, false),
        fam("zigbee_16b_frame", zigbee, true),
    )
}

/// Write a two-point (`pre`, `post`) trajectory file in the
/// `BENCH_campaign.json` schema (hand-rolled JSON: the workspace has no
/// serializer dependency, by design).
fn write_trajectory(path: &str, experiment: &str, points: &[String]) -> std::io::Result<()> {
    let body = points.join(",\n");
    let doc = format!(
        "{{\n  \"schema\": 1,\n  \"experiment\": \"{experiment}\",\n  \"points\": [\n{body}\n  ]\n}}\n"
    );
    std::fs::write(path, doc)
}

/// Run the bit-identity gates and the timed workloads, returning the
/// measurements without printing anything — the shared engine behind
/// `repro perf`, `repro perf --json`, and the testbed daemon's `perf`
/// jobs. `quick` keeps the repetition counts CI-sized.
///
/// # Panics
/// The gates `assert!`: a hot path diverging bit-wise from its
/// reference aborts the run rather than report timings for wrong code.
pub fn measure_perf(quick: bool) -> PerfReport {
    gate_chain_bit_identity();
    gate_batch_bit_identity();
    // short bursts: long sustained loops depress clocks on small
    // machines and skew the best-sample estimate downward
    let reps = if quick { 10 } else { 20 };
    let lora = measure_lora(reps);
    let ble = measure_ble(reps);
    let zigbee = measure_zigbee(reps);
    let (points, wall_s) = measure_waterfall(if quick { 2 } else { 5 });
    PerfReport {
        lora,
        ble,
        zigbee,
        waterfall_grid_points: points as u64,
        waterfall_wall_ms: wall_s * 1e3,
    }
}

/// The `repro perf` entry point: bit-identity gates, timed modem and
/// waterfall runs, and the two trajectory files. `quick` keeps the
/// repetition counts CI-sized and skips the wall-clock gate (shared
/// runners are not the recording machine); the full run enforces
/// `REQUIRED_WATERFALL_SPEEDUP` (1.5×) against the recorded pre point.
pub fn perf(quick: bool) {
    println!("== Hot-path perf: allocation-free batched DSP, gated trajectories ==\n");
    let report = measure_perf(quick);
    println!("gate: apply_into == prepared replay == apply, bit-identical (all nine stages)");
    println!(
        "gate: modulate_batch/demodulate_batch == scalar loops, bit-identical \
         (4 PHYs; clean, sensitivity-level AWGN, NaN and all-zero captures)"
    );

    let (lora, ble, zigbee) = (&report.lora, &report.ble, &report.zigbee);
    println!(
        "modem throughput (Msamples/s): LoRa SF8 mod {:.1} / demod {:.1} | \
         BLE mod {:.1} / demod {:.1} | 802.15.4 mod {:.1} / demod {:.1}",
        lora.mod_msps,
        lora.demod_msps,
        ble.mod_msps,
        ble.demod_msps,
        zigbee.mod_msps,
        zigbee.demod_msps
    );

    let points = report.waterfall_grid_points as usize;
    let wall_ms = report.waterfall_wall_ms;
    let speedup = PRE_WATERFALL_WALL_MS / wall_ms;
    println!(
        "waterfall quick grid: {points} points in {wall_ms:.1} ms ({:.0} points/s) — \
         {speedup:.2}x vs the recorded pre-refactor {PRE_WATERFALL_WALL_MS:.1} ms",
        points as f64 / (wall_ms / 1e3),
    );

    let pre_modem = modem_point(
        "pre-batching",
        &ModemPoint {
            mod_msps: PRE_LORA_MOD_MSPS,
            demod_msps: PRE_LORA_DEMOD_MSPS,
        },
        &ModemPoint {
            mod_msps: PRE_BLE_MOD_MSPS,
            demod_msps: PRE_BLE_DEMOD_MSPS,
        },
        &ModemPoint {
            mod_msps: PRE_ZIGBEE_MOD_MSPS,
            demod_msps: PRE_ZIGBEE_DEMOD_MSPS,
        },
    );
    let post_modem = modem_point("post-batching", lora, ble, zigbee);
    match write_trajectory("BENCH_modem.json", "modem_perf", &[pre_modem, post_modem]) {
        Ok(()) => println!("trajectory points written to BENCH_modem.json"),
        Err(e) => println!("could not write BENCH_modem.json: {e}"),
    }

    let pre_wf = waterfall_point(
        "pre-batching",
        PRE_WATERFALL_POINTS,
        PRE_WATERFALL_WALL_MS,
        1.0,
    );
    let post_wf = waterfall_point("post-batching", points, wall_ms, speedup);
    match write_trajectory("BENCH_waterfall.json", "waterfall_perf", &[pre_wf, post_wf]) {
        Ok(()) => println!("trajectory points written to BENCH_waterfall.json"),
        Err(e) => println!("could not write BENCH_waterfall.json: {e}"),
    }

    if !quick {
        assert!(
            speedup >= REQUIRED_WATERFALL_SPEEDUP,
            "waterfall perf gate: {speedup:.2}x < required {REQUIRED_WATERFALL_SPEEDUP}x \
             vs the recorded pre-refactor measurement"
        );
        println!("perf gate: {speedup:.2}x >= {REQUIRED_WATERFALL_SPEEDUP}x, holds");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_report_json_round_trips() {
        let rep = PerfReport {
            lora: ModemPoint {
                mod_msps: 357.679,
                demod_msps: 20.38,
            },
            ble: ModemPoint {
                mod_msps: 56.778,
                demod_msps: 28.629,
            },
            zigbee: ModemPoint {
                mod_msps: 11.5,
                demod_msps: 4.25,
            },
            waterfall_grid_points: 57,
            waterfall_wall_ms: 92.125,
        };
        let doc = rep.to_json().write_pretty();
        let parsed =
            PerfReport::from_json(&Value::parse(&doc).expect("parses")).expect("valid perf json");
        assert_eq!(parsed, rep);
        assert_eq!(rep.to_json().write_pretty(), doc);
    }

    #[test]
    fn non_finite_throughput_serializes_as_null_and_reads_back_nan() {
        let rep = PerfReport {
            lora: ModemPoint {
                mod_msps: 1.0,
                demod_msps: 2.0,
            },
            ble: ModemPoint {
                mod_msps: 3.0,
                demod_msps: 4.0,
            },
            zigbee: ModemPoint {
                mod_msps: f64::NAN,
                demod_msps: f64::NAN,
            },
            waterfall_grid_points: 1,
            waterfall_wall_ms: 5.0,
        };
        let doc = rep.to_json().write();
        assert!(doc.contains("\"zigbee_16b_frame\":{\"modulate_msps\":null"));
        let parsed = PerfReport::from_json(&Value::parse(&doc).unwrap()).unwrap();
        assert!(parsed.zigbee.mod_msps.is_nan() && parsed.zigbee.demod_msps.is_nan());
    }

    #[test]
    fn wrong_kind_is_rejected() {
        let v = Value::parse("{\"kind\":\"campaign\",\"schema\":1}").unwrap();
        assert!(PerfReport::from_json(&v).is_none());
    }
}
