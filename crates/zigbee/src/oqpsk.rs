//! O-QPSK modulation with half-sine pulse shaping and the
//! chip-correlation receiver (IEEE 802.15.4 §6.5, 2.4 GHz PHY).
//!
//! TX: each 4-bit symbol spreads to its 32-chip PN sequence
//! ([`crate::chips`]); even-indexed chips drive the I rail, odd-indexed
//! chips the Q rail, each as a half-sine pulse spanning two chip
//! periods, with the Q rail offset by one chip period — the classic
//! offset-QPSK/MSK structure, constant-envelope by construction, at
//! 2 Mchip/s.
//!
//! RX: noncoherent chip correlation. Each received symbol window is
//! correlated against the 16 reference chip waveforms (built by the
//! same shaper, so they carry the exact pulse overlap) and the largest
//! correlation magnitude wins — the DSSS despreading that buys the
//! 2.4 GHz PHY its processing gain.

use tinysdr_dsp::complex::Complex;
use tinysdr_dsp::correlator::CorrelatorBank;

use crate::chips::{chip_sequence, CHIPS_PER_SYMBOL, CHIP_RATE};

/// Half-sine O-QPSK modulator at `spc` samples per chip.
#[derive(Debug, Clone)]
pub struct OqpskModulator {
    spc: usize,
    /// One half-sine pulse, `2·spc` samples: `sin(π·t / 2Tc)`.
    pulse: Vec<f64>,
}

impl OqpskModulator {
    /// New modulator at `spc ≥ 2` samples per chip (`spc = 2` is the
    /// AT86RF215's native 4 MS/s).
    pub fn new(spc: usize) -> Self {
        assert!(spc >= 2, "need at least 2 samples per chip");
        let n = 2 * spc;
        let pulse = (0..n)
            .map(|i| (std::f64::consts::PI * i as f64 / n as f64).sin())
            .collect();
        OqpskModulator { spc, pulse }
    }

    /// Samples per chip.
    pub fn spc(&self) -> usize {
        self.spc
    }

    /// Sampling rate, Hz.
    pub fn fs(&self) -> f64 {
        CHIP_RATE * self.spc as f64
    }

    /// Samples in one 32-chip symbol period.
    pub fn samples_per_symbol(&self) -> usize {
        CHIPS_PER_SYMBOL * self.spc
    }

    /// Modulate a chip stream (0/1, even length) into I/Q samples in a
    /// caller-owned buffer, with the I/Q rail intermediates held in
    /// `scratch` — zero steady-state allocation across a batch. Output
    /// length is `chips.len()·spc + spc` — the final Q half-sine
    /// extends one chip period past the last chip slot.
    pub fn modulate_chips_into(
        &self,
        chips: &[u8],
        scratch: &mut OqpskScratch,
        out: &mut Vec<Complex>,
    ) {
        self.chips_core(chips, &mut scratch.i_rail, &mut scratch.q_rail, out);
    }

    fn chips_core(
        &self,
        chips: &[u8],
        i_rail: &mut Vec<f64>,
        q_rail: &mut Vec<f64>,
        out: &mut Vec<Complex>,
    ) {
        assert!(
            chips.len().is_multiple_of(2),
            "O-QPSK chips come in I/Q pairs"
        );
        let spc = self.spc;
        let n = chips.len() * spc + spc;
        i_rail.clear();
        i_rail.resize(n, 0.0);
        q_rail.clear();
        q_rail.resize(n, 0.0);
        for (k, &c) in chips.iter().enumerate() {
            let a = if c != 0 { 1.0 } else { -1.0 };
            // chip k's half-sine starts at its own chip slot; even chips
            // ride I, odd chips ride Q (the built-in Tc offset)
            let start = k * spc;
            let rail: &mut Vec<f64> = if k % 2 == 0 { i_rail } else { q_rail };
            for (j, &p) in self.pulse.iter().enumerate() {
                rail[start + j] += a * p;
            }
        }
        out.clear();
        out.extend(
            i_rail
                .iter()
                .zip(q_rail.iter())
                .map(|(&re, &im)| Complex::new(re, im)),
        );
    }

    /// Modulate 4-bit data symbols (`0..16`) through DSSS spreading.
    pub fn modulate_symbols(&self, symbols: &[u8]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.modulate_symbols_into(symbols, &mut OqpskScratch::default(), &mut out);
        out
    }

    /// [`OqpskModulator::modulate_symbols`] into a caller-owned buffer,
    /// with the chip expansion and I/Q rails held in `scratch`.
    /// Bit-identical to the allocating path.
    pub fn modulate_symbols_into(
        &self,
        symbols: &[u8],
        scratch: &mut OqpskScratch,
        out: &mut Vec<Complex>,
    ) {
        let OqpskScratch {
            chips,
            i_rail,
            q_rail,
        } = scratch;
        chips.clear();
        for &s in symbols {
            chips.extend_from_slice(&chip_sequence(s));
        }
        self.chips_core(chips, i_rail, q_rail, out);
    }
}

/// Reusable intermediates for the O-QPSK modulator's `*_into` paths:
/// the DSSS chip expansion and the two pulse-shaped rails. One per
/// worker thread (or batch) is enough.
#[derive(Debug, Clone, Default)]
pub struct OqpskScratch {
    chips: Vec<u8>,
    i_rail: Vec<f64>,
    q_rail: Vec<f64>,
}

impl OqpskScratch {
    /// Fresh scratch; buffers grow lazily.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Noncoherent chip-correlation receiver.
#[derive(Debug, Clone)]
pub struct OqpskDemodulator {
    spc: usize,
    /// The 16 single-symbol reference waveforms.
    bank: CorrelatorBank<16>,
}

impl OqpskDemodulator {
    /// Receiver at `spc` samples per chip (must match the transmitter).
    pub fn new(spc: usize) -> Self {
        let m = OqpskModulator::new(spc);
        let bank = CorrelatorBank::new(std::array::from_fn(|s| m.modulate_symbols(&[s as u8])));
        OqpskDemodulator { spc, bank }
    }

    /// Samples per chip.
    pub fn spc(&self) -> usize {
        self.spc
    }

    /// Samples in one 32-chip symbol period.
    pub fn samples_per_symbol(&self) -> usize {
        CHIPS_PER_SYMBOL * self.spc
    }

    /// Detect one aligned symbol window: the index of the chip sequence
    /// with the largest `|correlation|` (noncoherent — invariant to the
    /// capture's carrier phase), plus that magnitude.
    ///
    /// The magnitude is `|correlation|²` over the first
    /// `min(window.len(), ns + spc)` samples (the template length: the
    /// symbol plus the chip period its last Q half-sine spills over); a
    /// tie goes to the lower symbol, and an all-NaN window reads
    /// `(0, f64::MIN)`.
    pub fn detect_symbol(&self, window: &[Complex]) -> (u8, f64) {
        let (s, m) = self.bank.strongest(window);
        (s as u8, m)
    }

    /// Demodulate an *aligned* capture into 4-bit symbols, one per full
    /// 32-chip window.
    pub fn demodulate_symbols(&self, x: &[Complex]) -> Vec<u8> {
        let mut out = Vec::new();
        self.demodulate_symbols_into(x, &mut out);
        out
    }

    /// [`OqpskDemodulator::demodulate_symbols`] into a caller-owned
    /// buffer (cleared first) — allocation-free in steady state,
    /// bit-identical to the allocating path.
    pub fn demodulate_symbols_into(&self, x: &[Complex], out: &mut Vec<u8>) {
        let ns = self.samples_per_symbol();
        let n_syms = x.len() / ns;
        out.clear();
        out.reserve(n_syms);
        out.extend((0..n_syms).map(|i| {
            // include the half-chip spill-over past the window when
            // the capture still has it — the last Q pulse carries
            // real symbol energy
            let end = ((i + 1) * ns + self.spc).min(x.len());
            self.detect_symbol(&x[i * ns..end]).0
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tinysdr_rf::channel::AwgnChannel;

    fn random_symbols(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..16u8)).collect()
    }

    #[test]
    fn waveform_length_and_rates() {
        let m = OqpskModulator::new(2);
        assert_eq!(m.fs(), 4e6);
        assert_eq!(m.samples_per_symbol(), 64);
        let sig = m.modulate_symbols(&[0, 1, 2]);
        assert_eq!(sig.len(), 3 * 64 + 2);
    }

    #[test]
    fn envelope_is_constant_in_steady_state() {
        // MSK property: after the first chip period and before the last,
        // |s|² = sin² + cos² = 1
        let m = OqpskModulator::new(4);
        let sig = m.modulate_symbols(&random_symbols(8, 3));
        let spc = 4;
        for z in &sig[spc..sig.len() - spc] {
            assert!((z.abs() - 1.0).abs() < 1e-9, "|s| = {}", z.abs());
        }
    }

    #[test]
    fn into_variants_are_bit_identical() {
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let mut scratch = OqpskScratch::new();
        let mut wave = Vec::new();
        let mut rx = Vec::new();
        // reuse scratch across streams of different lengths
        for (n, seed) in [(16usize, 3u64), (64, 5), (7, 8)] {
            let syms = random_symbols(n, seed);
            m.modulate_symbols_into(&syms, &mut scratch, &mut wave);
            assert_eq!(wave, m.modulate_symbols(&syms), "{n} symbols");
            d.demodulate_symbols_into(&wave, &mut rx);
            assert_eq!(rx, d.demodulate_symbols(&wave), "{n} symbols");
        }
        // raw chip path too: reused dirty buffers == fresh ones
        let chips = [1u8, 0, 0, 1, 1, 1, 0, 0];
        m.modulate_chips_into(&chips, &mut scratch, &mut wave);
        let mut fresh = Vec::new();
        m.modulate_chips_into(&chips, &mut OqpskScratch::new(), &mut fresh);
        assert_eq!(wave, fresh);
    }

    #[test]
    fn clean_loopback_recovers_symbols() {
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let syms = random_symbols(64, 7);
        let rx = d.demodulate_symbols(&m.modulate_symbols(&syms));
        assert_eq!(rx, syms);
    }

    #[test]
    fn loopback_survives_a_carrier_phase_rotation() {
        // noncoherent detection: a constant phase offset must not matter
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let syms = random_symbols(32, 9);
        let rot = Complex::from_angle(1.1);
        let sig: Vec<Complex> = m
            .modulate_symbols(&syms)
            .into_iter()
            .map(|z| z * rot)
            .collect();
        assert_eq!(d.demodulate_symbols(&sig), syms);
    }

    #[test]
    fn loopback_at_high_snr_is_clean() {
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let syms = random_symbols(128, 11);
        let mut sig = m.modulate_symbols(&syms);
        let mut ch = AwgnChannel::new(4.5, 5);
        ch.apply(&mut sig, -70.0, m.fs());
        assert_eq!(d.demodulate_symbols(&sig), syms);
    }

    #[test]
    fn ser_transitions_with_rssi() {
        // DSSS processing gain: clean at −90 dBm, chance-level deep
        // below the noise floor
        let m = OqpskModulator::new(2);
        let d = OqpskDemodulator::new(2);
        let syms = random_symbols(256, 13);
        let base = m.modulate_symbols(&syms);
        let ser = |rssi: f64, seed: u64| {
            let mut sig = base.clone();
            let mut ch = AwgnChannel::new(10.0, seed);
            ch.apply(&mut sig, rssi, m.fs());
            let rx = d.demodulate_symbols(&sig);
            rx.iter().zip(&syms).filter(|(a, b)| a != b).count() as f64 / syms.len() as f64
        };
        assert_eq!(ser(-90.0, 1), 0.0, "clean at -90 dBm");
        assert!(ser(-115.0, 2) > 0.5, "chance-level far below the floor");
    }
}
