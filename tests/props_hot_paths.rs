//! Property-based bit-identity contracts for the allocation-free hot
//! paths: for random configurations, seeds and signals, every
//! `_into` / batch / prepared-pass variant must reproduce its
//! allocating reference **bit for bit** — buffer reuse is a
//! performance seam, never a semantics seam. Plus steady-state
//! no-allocation smoke checks on the sweep loop's buffers, and the
//! receive kernels against the straightforward code kept in [`oracle`]:
//! the LoRa receiver (block FIR, fused dechirp→FFT, banded peak search,
//! SFD window reuse, the hypot-free preamble decision), the correlator
//! bank behind the BLE GFSK and 802.15.4 receivers, and the libm-free
//! ADC quantizer.

use proptest::prelude::*;

use tinysdr_ble::gfsk::{GfskDemodulator, GfskModulator, GfskScratch};
use tinysdr_ble::modem::BleBerPhy;
use tinysdr_dsp::chirp::{dechirp_into, ChirpConfig, ChirpDirection, ChirpGenerator};
use tinysdr_dsp::complex::Complex;
use tinysdr_dsp::correlator::CorrelatorBank;
use tinysdr_dsp::delay::{
    fractional_delay, fractional_delay_into, resample_drift, resample_drift_into, DelayScratch,
};
use tinysdr_dsp::fft::FftPlan;
use tinysdr_dsp::fir::{demod_frontend, Fir};
use tinysdr_dsp::fixed::Quantizer;
use tinysdr_dsp::gaussian::GaussianFilter;
use tinysdr_lora::demodulator::Demodulator;
use tinysdr_lora::modem::LoraSerPhy;
use tinysdr_lora::modulator::Modulator;
use tinysdr_rf::channel::{apply_delay, AwgnChannel};
use tinysdr_rf::impairments::{ChainScratch, ImpairmentChain, PreparedPass};
use tinysdr_rf::phy::PhyModem;
use tinysdr_zigbee::modem::ZigbeePhy;
use tinysdr_zigbee::oqpsk::{OqpskDemodulator, OqpskModulator};

/// Deterministic pseudo-random I/Q signal from a seed (content-keyed,
/// no ambient RNG — the workspace determinism rule).
fn tone(seed: u64, n: usize) -> Vec<Complex> {
    (0..n)
        .map(|i| {
            let h = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let p = (h >> 11) as f64 / (1u64 << 53) as f64;
            Complex::from_angle(p * std::f64::consts::TAU).scale(0.25 + 0.75 * p)
        })
        .collect()
}

/// The receive kernels as they stood before they were rewritten, which
/// the fast ones must match bit for bit. The LoRa receiver: streaming
/// FIR with flush-and-drain delay compensation, dechirp then a radix-2
/// FFT with a strided twiddle lookup, a `hypot` over every bin (the
/// preamble decision included), and an SFD search that runs four
/// detections per candidate. The BLE and 802.15.4 receivers: one
/// template at a time. The ADC quantizer: libm `round`, then clamp.
mod oracle {
    use tinysdr_dsp::chirp::{dechirp_into, ChirpConfig, ChirpGenerator};
    use tinysdr_dsp::complex::Complex;
    use tinysdr_dsp::fir::{demod_frontend, Fir};
    use tinysdr_lora::demodulator::DemodFrame;
    use tinysdr_lora::packet::FrameParams;
    use tinysdr_lora::phy::{self, deinterleave, gray_encode, hamming_decode, CodeParams};

    /// Streaming FIR from reset, `d` zero pushes, first `d` outputs
    /// dropped (`d` = integer group delay).
    pub fn filter(fir: &Fir, x: &[Complex]) -> Vec<Complex> {
        let mut f = fir.clone();
        f.reset();
        let delay = f.group_delay() as usize;
        let mut out = f.process(x);
        for _ in 0..delay {
            out.push(f.push(Complex::ZERO));
        }
        out.drain(..delay);
        out
    }

    /// In-place forward FFT: bit-reversal swaps, then per stage a
    /// butterfly whose twiddle is read at stride `n / len` from one
    /// `exp(-j2πk/n)` table.
    pub fn fft(buf: &mut [Complex]) {
        let n = buf.len();
        let log2n = n.trailing_zeros();
        let twiddles: Vec<Complex> = (0..n / 2)
            .map(|k| Complex::from_angle(-std::f64::consts::TAU * k as f64 / n as f64))
            .collect();
        let mut rev = vec![0usize; n];
        for i in 1..n {
            rev[i] = (rev[i >> 1] >> 1) | ((i & 1) << (log2n - 1));
            if i < rev[i] {
                buf.swap(i, rev[i]);
            }
        }
        for stage in 0..log2n {
            let len = 2usize << stage;
            let half = len / 2;
            for start in (0..n).step_by(len) {
                for k in 0..half {
                    let a = buf[start + k];
                    let b = buf[start + k + half] * twiddles[k * (n / len)];
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
        }
    }

    /// Full symbol-detector scan: `(symbol, magnitude, mean)`.
    pub fn scan(spectrum: &[Complex], n: usize, osr: usize) -> (u16, f64, f64) {
        let ns = spectrum.len();
        let mut best = (0u16, f64::MIN);
        let mut sum = 0.0;
        for s in 0..n {
            let mut mag = spectrum[s].abs();
            if osr > 1 {
                mag += spectrum[(ns - n + s) % ns].abs();
            }
            sum += mag;
            if mag > best.1 {
                best = (s as u16, mag);
            }
        }
        (best.0, best.1, sum / n as f64)
    }

    pub struct Receiver {
        cfg: ChirpConfig,
        frame_params: FrameParams,
        fir: Fir,
        up_ref: Vec<Complex>,
        down_ref: Vec<Complex>,
    }

    impl Receiver {
        /// Same construction as `Demodulator::standard(sf, 125e3, osr, cr)`.
        pub fn new(sf: u8, osr: usize, cr: u8) -> Self {
            let cfg = ChirpConfig::new(sf, 125e3, osr);
            let generator = ChirpGenerator::new(cfg);
            Receiver {
                cfg,
                frame_params: FrameParams::new(CodeParams::new(sf, cr)),
                fir: demod_frontend(0.45 / osr as f64),
                up_ref: generator.dechirp_reference(),
                down_ref: generator
                    .downchirp()
                    .into_iter()
                    .map(|z| z.conj())
                    .collect(),
            }
        }

        fn detect(&self, window: &[Complex], reference: &[Complex]) -> (u16, f64, f64) {
            let mut buf = Vec::new();
            dechirp_into(window, reference, &mut buf);
            fft(&mut buf);
            scan(&buf, self.cfg.n_chips(), self.cfg.osr)
        }

        fn find_preamble(&self, rx: &[Complex]) -> Option<usize> {
            let ns = self.cfg.samples_per_symbol();
            let n = self.cfg.n_chips() as i64;
            let (mut run, mut run_sym, mut run_start) = (0usize, 0u16, 0usize);
            let mut k = 0usize;
            while (k + 1) * ns <= rx.len() {
                let (symbol, magnitude, mean) =
                    self.detect(&rx[k * ns..(k + 1) * ns], &self.up_ref);
                let quality = if mean > 0.0 {
                    magnitude / mean
                } else {
                    f64::INFINITY
                };
                if quality >= 3.5 {
                    let d = (symbol as i64 - run_sym as i64).rem_euclid(n);
                    if run > 0 && (d <= 1 || d == n - 1) {
                        run += 1;
                    } else {
                        run = 1;
                        run_start = k;
                    }
                    run_sym = symbol;
                    if run >= 3 {
                        let delta = run_sym as usize * self.cfg.osr;
                        let coarse = run_start * ns + if delta == 0 { 0 } else { ns - delta };
                        return Some(self.refine_alignment(rx, coarse));
                    }
                } else {
                    run = 0;
                }
                k += 1;
            }
            None
        }

        fn refine_alignment(&self, rx: &[Complex], coarse: usize) -> usize {
            let ns = self.cfg.samples_per_symbol();
            let span = (self.cfg.osr as i64).max(2);
            let mut best = (coarse, f64::MIN);
            for e in -span..=span {
                let pos = coarse as i64 + e;
                if pos < 0 || (pos as usize + ns) > rx.len() {
                    continue;
                }
                let (symbol, magnitude, _) =
                    self.detect(&rx[pos as usize..pos as usize + ns], &self.up_ref);
                if symbol == 0 && magnitude > best.1 {
                    best = (pos as usize, magnitude);
                }
            }
            best.0
        }

        pub fn demodulate(&self, rx: &[Complex]) -> Option<DemodFrame> {
            let ns = self.cfg.samples_per_symbol();
            let mut filtered = filter(&self.fir, rx);
            filtered.extend(std::iter::repeat_n(Complex::ZERO, ns));
            let pos = self.find_preamble(&filtered)?;
            let max_j = self.frame_params.preamble_len + 4;
            let mut best: Option<(usize, f64)> = None;
            for j in 1..=max_j {
                let start = pos + j * ns;
                if start + 2 * ns > filtered.len() {
                    break;
                }
                let w0 = &filtered[start..start + ns];
                let w1 = &filtered[start + ns..start + 2 * ns];
                let d0 = self.detect(w0, &self.down_ref).1;
                let d1 = self.detect(w1, &self.down_ref).1;
                let u0 = self.detect(w0, &self.up_ref).1;
                let u1 = self.detect(w1, &self.up_ref).1;
                let score = d0 + d1 - u0 - u1;
                if best.map(|(_, s)| score > s).unwrap_or(true) {
                    best = Some((start, score));
                }
            }
            let (sfd_start, score) = best?;
            if score <= 0.0 {
                return None;
            }
            let payload_start = sfd_start + ns * 2 + ns / 4;
            if payload_start + 8 * ns > filtered.len() {
                return None;
            }
            let symbol_at = |i: usize| {
                let w = &filtered[payload_start + i * ns..payload_start + (i + 1) * ns];
                self.detect(w, &self.up_ref).0
            };
            let mut symbols: Vec<u16> = (0..8).map(symbol_at).collect();
            let code = self.frame_params.code;
            let payload_len = header_declared_len(&symbols, code)?;
            let total_syms = phy::symbol_count(payload_len, code);
            if payload_start + total_syms * ns > filtered.len() {
                return None;
            }
            symbols.extend((8..total_syms).map(symbol_at));
            let dec = phy::decode(&symbols, code)?;
            Some(DemodFrame {
                payload: dec.payload,
                crc_ok: dec.crc_ok,
                header_ok: dec.header_ok,
                corrections: dec.corrections,
                payload_start,
                symbols,
            })
        }
    }

    /// `Σ window[i] · conj(template[i])`, one template at a time, over
    /// the pairs `zip` yields.
    pub fn correlate(template: &[Complex], window: &[Complex]) -> Complex {
        let mut c = Complex::ZERO;
        for (&s, &tv) in window.iter().zip(template) {
            c += s * tv.conj();
        }
        c
    }

    /// Every template's `|correlation|²`.
    pub fn powers(templates: &[Vec<Complex>], window: &[Complex]) -> Vec<f64> {
        templates
            .iter()
            .map(|t| correlate(t, window).norm_sqr())
            .collect()
    }

    /// First index of the largest `|correlation|²`, and that value.
    pub fn strongest(templates: &[Vec<Complex>], window: &[Complex]) -> (usize, f64) {
        let mut best = (0usize, f64::MIN);
        for (p, m) in powers(templates, window).into_iter().enumerate() {
            if m > best.1 {
                best = (p, m);
            }
        }
        best
    }

    /// The eight 3-bit GFSK templates, index `(b₋₁ << 2)|(b₀ << 1)|b₊₁`.
    pub fn gfsk_templates(sps: usize) -> Vec<Vec<Complex>> {
        let m = tinysdr_ble::gfsk::GfskModulator::new(sps);
        (0..8u8)
            .map(|p| m.modulate(&[(p >> 2) & 1, (p >> 1) & 1, p & 1]))
            .collect()
    }

    /// The sixteen single-symbol O-QPSK templates.
    pub fn oqpsk_templates(spc: usize) -> Vec<Vec<Complex>> {
        let m = tinysdr_zigbee::oqpsk::OqpskModulator::new(spc);
        (0..16u8).map(|s| m.modulate_symbols(&[s])).collect()
    }

    /// `GfskDemodulator::demodulate`: per bit, the center bit of the
    /// strongest template over the 3-bit window around it.
    pub fn gfsk_demodulate(templates: &[Vec<Complex>], sps: usize, x: &[Complex]) -> Vec<u8> {
        (0..x.len() / sps)
            .map(|i| {
                let start = i.saturating_sub(1) * sps;
                let window = &x[start..(start + 3 * sps).min(x.len())];
                let center_shift = if i == 0 { 0 } else { 1 };
                ((strongest(templates, window).0 as u8) >> (2 - center_shift)) & 1
            })
            .collect()
    }

    /// `OqpskDemodulator::demodulate_symbols`: per symbol period, the
    /// strongest template over the window plus its half-chip spill-over.
    pub fn oqpsk_demodulate(templates: &[Vec<Complex>], spc: usize, x: &[Complex]) -> Vec<u8> {
        let ns = 32 * spc;
        (0..x.len() / ns)
            .map(|i| {
                let end = ((i + 1) * ns + spc).min(x.len());
                strongest(templates, &x[i * ns..end]).0 as u8
            })
            .collect()
    }

    /// `Quantizer::quantize` with libm `round`, then the clamp.
    pub fn quantize(bits: u32, x: f64) -> i32 {
        let fs = ((1 << (bits - 1)) - 1) as f64;
        (x * fs).round().clamp(-(fs + 1.0), fs) as i32
    }

    fn header_declared_len(symbols: &[u16], code: CodeParams) -> Option<usize> {
        let blk: Vec<u16> = symbols[..8]
            .iter()
            .map(|&s| (gray_encode(s) & ((1 << code.sf) - 1)) >> 2)
            .collect();
        let cws = deinterleave(&blk, (code.sf - 2) as usize, 4);
        let nib: Vec<u8> = cws.iter().map(|&c| hamming_decode(c, 4).nibble).collect();
        if nib.len() < 5 {
            return None;
        }
        let len = ((nib[0] << 4) | nib[1]) as usize;
        let chk = (nib[3] << 4) | nib[4];
        (chk == (len as u8 ^ (nib[2] << 4) ^ 0x5A)).then_some(len)
    }
}

/// `f64` → bit pattern of every component, for `to_bits` comparisons
/// that also hold for NaN and signed zeros.
fn bits(x: &[Complex]) -> Vec<(u64, u64)> {
    x.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
}

/// `x` moved by `k` units in the last place (finite, non-negative `x`).
fn ulps(x: f64, k: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + k) as u64)
}

/// Two bins that `norm_sqr` and `hypot` rank in opposite order:
/// `|a|² < |b|²` as computed, yet `hypot(a) >= hypot(b)`.
fn rank_flip(seed: u64) -> (Complex, Complex) {
    for t in (0..64).map(|i| seed.wrapping_add(i)) {
        let base = Complex::new(3.0 + (t % 97) as f64 / 7.0, 1.5 + (t % 31) as f64 / 3.0);
        for dr in -4..=4 {
            for di in -4..=4 {
                let c = Complex::new(ulps(base.re, dr), ulps(base.im, di));
                for (a, b) in [(c, base), (base, c)] {
                    if a.norm_sqr() < b.norm_sqr() && a.abs() >= b.abs() {
                        return (a, b);
                    }
                }
            }
        }
    }
    panic!("no norm_sqr/hypot rank flip near seed {seed}");
}

/// Kinds of [`adversarial_spectrum`].
const SPECTRUM_KINDS: usize = 12;

/// An adversarial symbol spectrum of `ns` bins for the peak search.
fn adversarial_spectrum(kind: usize, seed: u64, ns: usize) -> Vec<Complex> {
    let mut spec = tone(seed, ns);
    let at = |i: u64| (seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(i) >> 7) as usize % ns;
    // an early and a late bin, for pairs whose order matters
    let (early, late) = (at(0) % (ns / 2), ns / 2 + at(1) % (ns / 2));
    let peak = Complex::new(
        3.0 + (seed % 97) as f64 / 7.0,
        -1.5 - (seed % 31) as f64 / 3.0,
    );
    match kind {
        // exact ties: equal |X| from swapped, negated and conjugated parts
        0 => {
            for (i, v) in [
                peak,
                Complex::new(peak.im, peak.re),
                Complex::new(-peak.re, peak.im),
                peak.conj(),
            ]
            .into_iter()
            .enumerate()
            {
                spec[at(i as u64)] = v;
            }
        }
        // a pair norm_sqr and hypot rank oppositely
        1 => {
            let (a, b) = rank_flip(seed);
            spec[early] = a;
            spec[late] = b;
        }
        // 1-ulp near-ties
        2 => {
            for (i, (dr, di)) in [(0, 0), (1, 0), (0, 1), (-1, 1), (1, -1), (2, -2), (0, -1)]
                .into_iter()
                .enumerate()
            {
                let re = ulps(peak.re, dr);
                let im = -ulps(-peak.im, di);
                spec[at(i as u64)] = if i % 2 == 0 {
                    Complex::new(re, im)
                } else {
                    Complex::new(im, re)
                };
            }
        }
        // all zero, both signs
        3 => {
            for (i, v) in spec.iter_mut().enumerate() {
                *v = if (seed >> (i % 64)) & 1 == 1 {
                    Complex::new(-0.0, 0.0)
                } else {
                    Complex::ZERO
                };
            }
        }
        // underflowing norm_sqr that ranks two bins against hypot:
        // |a|² and |b|² round to one and two subnormal units
        4 => {
            spec.fill(Complex::ZERO);
            spec[early] = Complex::new(2.5e-162, 0.0);
            spec[late] = Complex::new(1.6e-162, -1.6e-162);
        }
        // subnormal bins, with and without a normal max
        5 | 6 => {
            for (i, v) in spec.iter_mut().enumerate() {
                *v = v.scale(1e-310 * (1 + i % 5) as f64);
            }
            if kind == 5 {
                spec[at(0)] = Complex::new(1e-139, -2e-139);
            }
        }
        // a NaN bin
        7 => {
            spec[at(0)] = Complex::new(f64::NAN, 1.0);
            spec[at(1)] = peak;
        }
        // an infinite part paired with NaN (hypot(Inf, NaN) = Inf),
        // alone or with another infinite bin
        8 | 9 => {
            spec[at(0)] = Complex::new(f64::INFINITY, f64::NAN);
            if kind == 9 {
                spec[at(1)] = Complex::new(1.0, f64::NEG_INFINITY);
            }
        }
        // overflowing norm_sqr, and a max right at the range edges
        10 => {
            let scale = [1e155, 1e140, 1.0001e140, 0.9999e-140, 1e-140][(seed % 5) as usize];
            for v in spec.iter_mut() {
                *v = v.scale(scale);
            }
        }
        // an ordinary noisy spectrum with one strong bin
        _ => spec[at(0)] = peak.scale(4.0),
    }
    spec
}

proptest! {
    /// The block FIR is bit-identical to the streaming filter with
    /// flush-and-drain delay compensation for every tap count 1..=31
    /// and every capture length up to three blocks plus seven, shorter
    /// than the filter included, non-finite taps included.
    #[test]
    fn block_fir_matches_streaming_fir(seed in any::<u64>()) {
        let x: Vec<Complex> = tone(seed, 31)
            .into_iter()
            .enumerate()
            .map(|(i, z)| if i % 5 == 3 { Complex::new(-0.0, z.im) } else { z })
            .collect();
        let mut out = Vec::new();
        for num_taps in 1..=31usize {
            let mut taps: Vec<f64> = tone(seed ^ num_taps as u64, num_taps)
                .iter()
                .map(|z| z.re)
                .collect();
            // a non-finite tap turns each zero-history term into NaN
            if seed.wrapping_add(num_taps as u64).is_multiple_of(4) {
                taps[seed as usize % num_taps] = [f64::INFINITY, f64::NAN][num_taps % 2];
            }
            let fir = Fir::new(taps);
            for len in 0..=3 * 8 + 7 {
                fir.filter_aligned_into(&x[..len], &mut out);
                prop_assert_eq!(bits(&out), bits(&oracle::filter(&fir, &x[..len])));
            }
        }
    }

    /// `forward_dechirp_into` and `dechirp_into` then `forward` are
    /// both bit-identical to the strided-twiddle oracle FFT of the
    /// dechirped window at every size 2..=4096.
    #[test]
    fn fused_dechirp_fft_matches_dechirp_then_forward(seed in any::<u64>()) {
        let mut fused = Vec::new();
        let mut split = Vec::new();
        for log2n in 1..=12u32 {
            let n = 1usize << log2n;
            let plan = FftPlan::new(n);
            let window = tone(seed, n);
            let chirp = tone(!seed, n);
            plan.forward_dechirp_into(&window, &chirp, &mut fused);
            dechirp_into(&window, &chirp, &mut split);
            let mut reference = split.clone();
            oracle::fft(&mut reference);
            plan.forward(&mut split);
            prop_assert_eq!(bits(&fused), bits(&reference));
            prop_assert_eq!(bits(&split), bits(&reference));
        }
    }

    /// The banded peak search returns the full scan's symbol and
    /// magnitude bit for bit on adversarial spectra: exact ties, 1-ulp
    /// near-ties, all-zero, subnormal, NaN, ±Inf and overflowing bins,
    /// at OSR 1 and 4.
    #[test]
    fn banded_peak_matches_full_scan(seed in any::<u64>(), sf in 7u8..=8) {
        let n = 1usize << sf;
        for osr in [1usize, 4] {
            let d = Demodulator::standard(sf, 125e3, osr, 1);
            for kind in 0..SPECTRUM_KINDS {
                let spec = adversarial_spectrum(kind, seed, n * osr);
                let (symbol, magnitude) = d.spectrum_peak(&spec);
                let (want_symbol, want_magnitude, _) = oracle::scan(&spec, n, osr);
                prop_assert_eq!(symbol, want_symbol, "kind {} osr {}", kind, osr);
                prop_assert_eq!(magnitude.to_bits(), want_magnitude.to_bits(), "kind {} osr {}", kind, osr);
            }
        }
    }

    /// `apply_into` (reused scratch) and the prepared-pass replay are
    /// bit-identical to `apply` for a random subset of the nine chain
    /// stages, any seed and any RSSI.
    #[test]
    fn chain_buffered_and_prepared_match_apply(
        seed in any::<u64>(),
        sig_seed in any::<u64>(),
        rssi_dbm in -140.0f64..-40.0,
        mask in 0u32..128,
        adc_bits in 2u32..=24,
    ) {
        let mut chain = ImpairmentChain::new(6.0);
        if mask & 1 != 0 {
            chain = chain.with_timing_offset(0.25 + (mask as f64) / 300.0);
        }
        if mask & 2 != 0 {
            chain = chain.with_clock_drift_ppm(2.0);
        }
        if mask & 4 != 0 {
            chain = chain.with_iq_imbalance(1.0, 5.0);
        }
        if mask & 8 != 0 {
            chain = chain.with_cfo_hz(30.0 + mask as f64);
        }
        if mask & 16 != 0 {
            chain = chain.with_phase_noise(100.0);
        }
        if mask & 32 != 0 {
            chain = chain.with_block_fading(256);
        }
        if mask & 64 != 0 {
            chain = chain.with_adc_quantization(adc_bits);
        }
        let fs = 1e6;
        let tx = tone(sig_seed, 1024);
        let reference = chain.apply(&tx, rssi_dbm, fs, seed);

        let mut scratch = ChainScratch::new();
        let mut out = Vec::new();
        chain.apply_into(&tx, rssi_dbm, fs, seed, &mut out, &mut scratch);
        prop_assert_eq!(&reference, &out);

        let mut prep = PreparedPass::new();
        chain.prepare_pass_into(&tx, fs, seed, &mut prep, &mut scratch);
        chain.apply_prepared_into(&prep, rssi_dbm, &mut out);
        prop_assert_eq!(&reference, &out);
    }

    /// The `_into` DSP variants (FFT, fractional delay, drift
    /// resampler, FIR, Gaussian shaper, chirp generator) are
    /// bit-identical to their allocating references on random signals.
    #[test]
    fn dsp_into_variants_match_allocating(
        sig_seed in any::<u64>(),
        n in 96usize..192,
        delay in 0.0f64..8.0,
        ppm in -30.0f64..30.0,
        symbol in 0u32..128,
    ) {
        let x = tone(sig_seed, n);

        let plan = FftPlan::new(64);
        let mut out = Vec::new();
        plan.forward_into(&x[..64], &mut out);
        let mut buf = x[..64].to_vec();
        plan.forward(&mut buf);
        prop_assert_eq!(&buf, &out);
        plan.inverse_into(&buf, &mut out);
        plan.inverse(&mut buf);
        prop_assert_eq!(&buf, &out);

        let mut scratch = DelayScratch::new();
        fractional_delay_into(&x, delay, &mut scratch, &mut out);
        prop_assert_eq!(fractional_delay(&x, delay), out.clone());
        resample_drift_into(&x, ppm, &mut scratch, &mut out);
        prop_assert_eq!(resample_drift(&x, ppm), out.clone());

        let mut fir = demod_frontend(0.25);
        let filtered = fir.process(&x);
        fir.reset();
        fir.process_into(&x, &mut out);
        prop_assert_eq!(filtered, out.clone());

        let shaper = GaussianFilter::ble(4);
        let bits: Vec<i8> = (0..n / 8).map(|i| if (sig_seed >> (i % 64)) & 1 == 1 { 1 } else { -1 }).collect();
        let mut freq = Vec::new();
        shaper.shape_into(&bits, 4, &mut freq);
        prop_assert_eq!(shaper.shape(&bits, 4), freq);

        let gen = ChirpGenerator::new(ChirpConfig::new(7, 125e3, 1));
        for dir in [ChirpDirection::Up, ChirpDirection::Down] {
            let allocating = gen.chirp(symbol, dir);
            gen.chirp_into(symbol, dir, &mut out);
            prop_assert_eq!(&allocating, &out);
            let reference = gen.dechirp_reference();
            dechirp_into(&allocating, &reference, &mut out);
            let manual: Vec<Complex> =
                allocating.iter().zip(&reference).map(|(&a, &b)| a * b).collect();
            prop_assert_eq!(manual, out.clone());
        }
    }

    /// `modulate_batch` / `demodulate_batch` are bit-identical to the
    /// scalar loops for random frames across all three modem families.
    #[test]
    fn modem_batch_matches_scalar_loops(
        family in 0usize..3,
        frame_a in prop::collection::vec(any::<u8>(), 3..12),
        frame_b in prop::collection::vec(any::<u8>(), 3..12),
    ) {
        let phy: Box<dyn PhyModem> = match family {
            0 => Box::new(LoraSerPhy::new(7, 125e3)),
            1 => Box::new(BleBerPhy::new(4)),
            _ => Box::new(ZigbeePhy::new(2)),
        };
        let refs: Vec<&[u8]> = vec![&frame_a, &frame_b];
        let mut waves = Vec::new();
        phy.modulate_batch(&refs, &mut waves);
        for (frame, wave) in refs.iter().zip(&waves) {
            prop_assert_eq!(wave, &phy.modulate(frame));
        }
        let slices: Vec<&[Complex]> = waves.iter().map(|w| w.as_slice()).collect();
        for (iq, rx) in slices.iter().zip(phy.demodulate_batch(&slices)) {
            prop_assert_eq!(rx, phy.demodulate(iq));
        }
    }
}

/// Steady-state sweep loop (prepare pass → replay per RSSI) touches no
/// allocator once the buffers are warm: the output vector's pointer and
/// capacity must stay fixed across passes and RSSI points.
#[test]
fn steady_state_sweep_loop_does_not_reallocate() {
    let chain = ImpairmentChain::new(6.0)
        .with_timing_offset(0.25)
        .with_cfo_hz(200.0)
        .with_block_fading(256)
        .with_adc_quantization(12);
    let fs = 1e6;
    let tx = tone(7, 2048);
    let mut scratch = ChainScratch::new();
    let mut prep = PreparedPass::new();
    let mut rx = Vec::new();
    // warm-up pass sizes every buffer
    chain.prepare_pass_into(&tx, fs, 0, &mut prep, &mut scratch);
    chain.apply_prepared_into(&prep, -90.0, &mut rx);
    let (ptr, cap) = (rx.as_ptr(), rx.capacity());
    for pass in 1..=10u64 {
        chain.prepare_pass_into(&tx, fs, pass, &mut prep, &mut scratch);
        for rssi_dbm in [-120.0, -100.0, -80.0, -60.0] {
            chain.apply_prepared_into(&prep, rssi_dbm, &mut rx);
            assert_eq!(rx.as_ptr(), ptr, "rx buffer reallocated at pass {pass}");
            assert_eq!(rx.capacity(), cap, "rx capacity changed at pass {pass}");
        }
    }
}

/// The modem-side scratch paths are likewise allocation-free in steady
/// state: a batch of equal-sized frames reuses one waveform buffer.
#[test]
fn modem_scratch_buffers_are_stable_in_steady_state() {
    let m = GfskModulator::new(4);
    let bits: Vec<u8> = (0..256).map(|i| ((i * 7) % 3 == 0) as u8).collect();
    let mut scratch = GfskScratch::new();
    let mut wave = Vec::new();
    m.modulate_into(&bits, &mut scratch, &mut wave);
    let (ptr, cap) = (wave.as_ptr(), wave.capacity());
    for i in 0..20 {
        m.modulate_into(&bits, &mut scratch, &mut wave);
        assert_eq!(
            wave.as_ptr(),
            ptr,
            "GFSK wave buffer reallocated at iter {i}"
        );
        assert_eq!(
            wave.capacity(),
            cap,
            "GFSK wave capacity changed at iter {i}"
        );
    }
}

/// The whole receiver — block FIR, fused dechirp→FFT, banded peak
/// search, SFD window reuse — returns the same frame as the oracle
/// receiver for SF7–SF12 at OSR 1 and 4: unaligned clean captures,
/// captures near sensitivity, and all-zero and NaN captures.
#[test]
fn receiver_matches_oracle_frame_for_frame() {
    for sf in 7u8..=12 {
        for osr in [1usize, 4] {
            let d = Demodulator::standard(sf, 125e3, osr, 2);
            let old = oracle::Receiver::new(sf, osr, 2);
            let ns = (1usize << sf) * osr;
            let tx = Modulator::standard(sf, 125e3, osr, 2).modulate(b"kernel");
            let offset = (37 * ns / 256 + 3 * sf as usize) | 1;
            let clean = apply_delay(&tx, offset);
            let mut noisy = clean.clone();
            // SF8/BW125 sensitivity is −126 dBm, 2.5 dB per SF step
            let sensitivity_dbm = -126.0 - 2.5 * (sf as f64 - 8.0);
            AwgnChannel::new(4.5, 40 + sf as u64).apply(
                &mut noisy,
                sensitivity_dbm - 4.0,
                125e3 * osr as f64,
            );
            // NaN samples in the sync word and the header block
            let mut nan = clean.clone();
            nan[offset + 10 * ns + 5] = Complex::new(f64::NAN, 0.0);
            nan[offset + 13 * ns] = Complex::new(0.0, f64::NAN);
            let zero = vec![Complex::ZERO; 12 * ns];
            let mut scratch = d.scratch();
            for (name, rx) in [
                ("clean", &clean),
                ("noisy", &noisy),
                ("nan", &nan),
                ("zero", &zero),
            ] {
                let want = old.demodulate(rx);
                if name == "clean" {
                    assert!(
                        want.as_ref().is_some_and(|f| f.crc_ok),
                        "SF{sf} OSR{osr}: oracle must decode"
                    );
                }
                assert_eq!(
                    d.demodulate_with(rx, &mut scratch),
                    want,
                    "SF{sf} OSR{osr} {name}"
                );
            }
        }
    }
}

/// Captures that put the correlation receivers' decisions on a knife
/// edge, built from one clean waveform: AWGN at the modem's
/// sensitivity anchor, NaN and ±Inf samples, all zeros, a tail cut
/// mid-window, tails that end `1..=spill` samples past the last whole
/// `unit` (a bit or a symbol) and are loud enough to decide the last
/// window that reaches into them, and a real-valued (`im = 0`) noisy
/// capture. Conjugate template pairs (GFSK bit patterns `p` and
/// `7 − p`, 802.15.4 symbols `s` and `s + 8`) correlate with a real
/// window to exactly equal magnitudes, so the last one is full of exact
/// ties.
fn knife_edge_captures(
    clean: &[Complex],
    phy: &dyn PhyModem,
    seed: u64,
    unit: usize,
    spill: usize,
) -> Vec<(&'static str, Vec<Complex>)> {
    let noisy = ImpairmentChain::new(phy.noise_figure_db()).apply(
        clean,
        phy.sensitivity_anchor_dbm(),
        phy.sample_rate_hz(),
        seed,
    );
    let mut nan = noisy.clone();
    for (k, z) in nan.iter_mut().enumerate().skip(5).step_by(97) {
        *z = if k % 2 == 0 {
            Complex::new(f64::NAN, z.im)
        } else {
            Complex::new(z.re, f64::NAN)
        };
    }
    let mut inf = noisy.clone();
    for (k, z) in inf.iter_mut().enumerate().skip(11).step_by(89) {
        *z = Complex::new([f64::INFINITY, f64::NEG_INFINITY][k % 2], z.im);
    }
    let real: Vec<Complex> = noisy.iter().map(|z| Complex::new(z.re, 0.0)).collect();
    let cut = noisy[..noisy.len() - noisy.len() / 7 - 3].to_vec();
    let whole = (noisy.len() / unit - 1) * unit;
    let loud_tails: Vec<_> = (1..=spill)
        .map(|r| {
            let mut tail = noisy[..whole + r].to_vec();
            for z in &mut tail[whole..] {
                *z = z.scale(1e3);
            }
            ("loud tail", tail)
        })
        .collect();
    let mut captures = vec![
        ("clean", clean.to_vec()),
        ("noisy", noisy),
        ("nan", nan),
        ("inf", inf),
        ("zero", vec![Complex::ZERO; clean.len()]),
        ("cut", cut),
        ("real", real),
    ];
    captures.extend(loud_tails);
    captures
}

/// Windows of the receiver's own spans whose largest `|correlation|²`
/// is reached by two templates at once.
fn exact_ties(templates: &[Vec<Complex>], windows: impl Iterator<Item = Vec<Complex>>) -> usize {
    windows
        .filter(|w| {
            let powers = oracle::powers(templates, w);
            let max = powers.iter().copied().fold(f64::MIN, f64::max);
            max > 0.0 && powers.iter().filter(|&&m| m == max).count() > 1
        })
        .count()
}

/// The GFSK receiver's correlator bank returns the per-template loop's
/// bits at 2..=8 samples per bit: the strongest template and its
/// `|correlation|²` bit for bit on windows of every length up to past
/// the template, and every demodulated bit on clean, sensitivity-level,
/// NaN, ±Inf, all-zero, tail-cut, loud-tail and exact-tie captures.
#[test]
fn gfsk_correlator_bank_matches_per_template_receiver() {
    let phy = BleBerPhy::new(4);
    for sps in 2usize..=8 {
        let templates = oracle::gfsk_templates(sps);
        let bank = CorrelatorBank::<8>::new(std::array::from_fn(|p| templates[p].clone()));
        let d = GfskDemodulator::new(sps);
        let bits: Vec<u8> = (0..400u64)
            .map(|i| ((i * 7 + sps as u64) % 5 < 2) as u8)
            .collect();
        let clean = GfskModulator::new(sps).modulate(&bits);
        let captures = knife_edge_captures(&clean, &phy, sps as u64, sps, sps - 1);
        for (name, x) in &captures {
            assert_eq!(
                d.demodulate(x),
                oracle::gfsk_demodulate(&templates, sps, x),
                "sps {sps} {name}"
            );
            for (len, start) in (0..=3 * sps + 2).zip((0..).step_by(13)) {
                let w = &x[start..start + len];
                let (p, m) = bank.strongest(w);
                let (want_p, want_m) = oracle::strongest(&templates, w);
                assert_eq!(
                    (p, m.to_bits()),
                    (want_p, want_m.to_bits()),
                    "sps {sps} {name} len {len}"
                );
            }
        }
        let real = &captures.iter().find(|(n, _)| *n == "real").unwrap().1;
        let windows = (1..real.len() / sps)
            .map(|i| real[(i - 1) * sps..(i + 2).min(real.len() / sps) * sps].to_vec());
        assert!(
            exact_ties(&templates, windows) > 0,
            "sps {sps}: no exact ties"
        );
    }
}

/// The 802.15.4 receiver's correlator bank returns the per-template
/// loop's symbol and `|correlation|²` bits at 2..=4 samples per chip on
/// windows of every length up to past the template, and every symbol on
/// clean, sensitivity-level, NaN, ±Inf, all-zero, tail-cut, loud-tail
/// and exact-tie captures.
#[test]
fn oqpsk_correlator_bank_matches_per_template_receiver() {
    for spc in 2usize..=4 {
        let phy = ZigbeePhy::new(spc);
        let templates = oracle::oqpsk_templates(spc);
        let d = OqpskDemodulator::new(spc);
        let symbols: Vec<u8> = (0..48usize).map(|i| ((i * 7 + spc) % 16) as u8).collect();
        let clean = OqpskModulator::new(spc).modulate_symbols(&symbols);
        let ns = d.samples_per_symbol();
        let captures = knife_edge_captures(&clean, &phy, 100 + spc as u64, ns, spc);
        for (name, x) in &captures {
            assert_eq!(
                d.demodulate_symbols(x),
                oracle::oqpsk_demodulate(&templates, spc, x),
                "spc {spc} {name}"
            );
            for (len, start) in (0..=ns + spc + 3).zip((0..).step_by(5)) {
                let w = &x[start..start + len];
                let (s, m) = d.detect_symbol(w);
                let (want_s, want_m) = oracle::strongest(&templates, w);
                assert_eq!(
                    (s as usize, m.to_bits()),
                    (want_s, want_m.to_bits()),
                    "spc {spc} {name} len {len}"
                );
            }
        }
        let real = &captures.iter().find(|(n, _)| *n == "real").unwrap().1;
        let windows = (0..real.len() / ns)
            .map(|i| real[i * ns..((i + 1) * ns + spc).min(real.len())].to_vec());
        assert!(
            exact_ties(&templates, windows) > 0,
            "spc {spc}: no exact ties"
        );
    }
}

/// `Quantizer::quantize` and `round_trip_iq` equal the libm-`round`
/// reference for every word width: at and ±1–2 ulp around every code,
/// every half-way point and both clamp edges (all codes up to 10 bits,
/// a stride of them above), and on NaN, ±Inf, ±0, huge and subnormal
/// inputs.
#[test]
fn quantizer_matches_libm_round_reference() {
    for bits in 2u32..=24 {
        let q = Quantizer::new(bits);
        let fs = q.max_code() as f64;
        let top = q.max_code() as i64 + 2;
        let stride = if bits <= 10 { 1 } else { (top / 509) | 1 };
        let mut xs = vec![
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN,
            1e300,
            -1e300,
            5e-324,
            -5e-324,
            1e-310,
            -1e-310,
            f64::MIN_POSITIVE,
        ];
        let codes = (-top..=top).step_by(stride as usize).chain([
            -top,
            -top + 1,
            -1,
            0,
            1,
            top - 2,
            top - 1,
            top,
        ]);
        for k in codes {
            for v in [k as f64, k as f64 + 0.5, k as f64 - 0.5] {
                let x = v / fs;
                for d in -2i64..=2 {
                    // k ulp along x's own bit pattern (away from zero for
                    // positive d); the zero code has no neighbours that way
                    if x != 0.0 {
                        xs.push(f64::from_bits((x.to_bits() as i64 + d) as u64));
                    }
                }
                // the product itself ±1 ulp: the rounding boundary in v
                xs.push(v.next_up() / fs);
                xs.push(v.next_down() / fs);
            }
        }
        for &x in &xs {
            let want = oracle::quantize(bits, x);
            assert_eq!(
                q.quantize(x),
                want,
                "{bits} bits, x = {x:e} ({:#x})",
                x.to_bits()
            );
            let z = q.round_trip_iq(Complex::new(x, -x));
            let want_im = oracle::quantize(bits, -x);
            assert_eq!(
                (z.re.to_bits(), z.im.to_bits()),
                (
                    (want as f64 / fs).to_bits(),
                    (want_im as f64 / fs).to_bits()
                ),
                "{bits} bits round trip, x = {x:e}"
            );
        }
    }
}

proptest! {
    /// The preamble decision equals the full scan's
    /// `magnitude / mean >= preamble_quality` with the threshold placed
    /// on, one ulp either side of, and a relative 5e-10 and 3e-9 either
    /// side of each spectrum's exact quality: inside the 1e-9 band only
    /// the full-scan fallback can decide, since the approximate quality
    /// differs from the exact one in its last bits. Adversarial spectra
    /// (ties, zero, subnormal, NaN, ±Inf, range edges) at OSR 1 and 4.
    #[test]
    fn preamble_decision_matches_full_scan_at_the_threshold(seed in any::<u64>(), sf in 7u8..=12) {
        let n = 1usize << sf;
        for osr in [1usize, 4] {
            let mut d = Demodulator::standard(sf, 125e3, osr, 1);
            for kind in 0..SPECTRUM_KINDS {
                let spec = adversarial_spectrum(kind, seed, n * osr);
                let (symbol, magnitude, mean) = oracle::scan(&spec, n, osr);
                let quality = if mean > 0.0 { magnitude / mean } else { f64::INFINITY };
                for threshold in [
                    quality,
                    quality.next_up(),
                    quality.next_down(),
                    quality * (1.0 + 5e-10),
                    quality * (1.0 - 5e-10),
                    quality * (1.0 + 3e-9),
                    quality * (1.0 - 3e-9),
                    3.5,
                ] {
                    d.preamble_quality = threshold;
                    prop_assert_eq!(
                        d.preamble_symbol(&spec),
                        (quality >= threshold).then_some(symbol),
                        "kind {} osr {} threshold {:e} quality {:e}", kind, osr, threshold, quality
                    );
                }
            }
        }
    }
}

/// On captures with no frame in them — receiver noise alone, where
/// every window goes through the preamble decision and is rejected —
/// the receiver agrees with the oracle frame for frame at SF7–SF12
/// (OSR 1; OSR 4 at SF7–8).
#[test]
fn receiver_matches_oracle_on_noise_only_captures() {
    for sf in 7u8..=12 {
        for osr in [1usize, 4] {
            if osr > 1 && sf > 8 {
                continue;
            }
            let d = Demodulator::standard(sf, 125e3, osr, 2);
            let old = oracle::Receiver::new(sf, osr, 2);
            let ns = (1usize << sf) * osr;
            let mut scratch = d.scratch();
            for seed in 0..3u64 {
                let noise = AwgnChannel::new(6.0, 1000 * sf as u64 + seed)
                    .noise_only(16 * ns + 5 * seed as usize, 125e3 * osr as f64);
                assert_eq!(
                    d.demodulate_with(&noise, &mut scratch),
                    old.demodulate(&noise),
                    "SF{sf} OSR{osr} seed {seed}"
                );
            }
        }
    }
}
