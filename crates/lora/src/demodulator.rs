//! The LoRa demodulator (paper Fig. 6b).
//!
//! Pipeline, exactly as the paper wires it: "It begins by reading data
//! from the I/Q radio into the I/Q Deserializer […] we run the data
//! through a 14 tap FIR low-pass filter to suppress high frequency noise
//! and interference. We store the filtered samples in a buffer […] we
//! use the Chirp Generator module from the LoRa Modulator to generate a
//! baseline upchirp/downchirp symbol, and then we multiply that with the
//! received chirp symbol using our Complex Multiplier unit. The output
//! of the multiplication then goes to an FFT block […] Finally the
//! Symbol Detector scans the output of the FFT for peaks and records the
//! frequency of the peak to determine the symbol value. To detect chirp
//! type (upchirp/downchirp), we multiply each chirp symbol with both an
//! upchirp and downchirp and then compare the amplitudes of their FFT
//! peaks."

use tinysdr_dsp::chirp::{ChirpConfig, ChirpGenerator};
use tinysdr_dsp::complex::Complex;
use tinysdr_dsp::fft::FftPlan;
use tinysdr_dsp::fir::{demod_frontend, Fir};

/// Reusable working state for one demodulator's `*_with` hot paths:
/// the group-delay-compensated capture and the dechirp/FFT symbol
/// buffer. Build with [`Demodulator::scratch`]; hold one per worker
/// thread.
#[derive(Debug, Clone, Default)]
pub struct DemodScratch {
    filtered: Vec<Complex>,
    buf: Vec<Complex>,
}

/// Relative band below the largest `|X[k]|²` inside which the banded
/// peak search takes `hypot`; DESIGN.md ("LoRa receiver kernels")
/// shows every bin that could win lies inside it.
const PEAK_BAND: f64 = 1e-9;
/// Range the largest `|X[k]|²` must lie in for that argument to hold:
/// no `norm_sqr` underflows or overflows there.
const PEAK_RANGE: (f64, f64) = (1e-280, 1e280);
/// Bins per step of the peak search's two passes.
const PEAK_LANES: usize = 4;

use crate::packet::FrameParams;
use crate::phy::{self, CodeParams};

/// Result of detecting one chirp symbol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymbolDetection {
    /// Winning symbol value (FFT peak bin folded to `0..2^SF`).
    pub symbol: u16,
    /// Peak magnitude.
    pub magnitude: f64,
    /// Mean magnitude across bins (noise reference for thresholding).
    pub mean_magnitude: f64,
}

impl SymbolDetection {
    /// Peak-to-mean ratio; preamble detection thresholds on this.
    pub fn quality(&self) -> f64 {
        if self.mean_magnitude > 0.0 {
            self.magnitude / self.mean_magnitude
        } else {
            f64::INFINITY
        }
    }
}

/// A demodulated frame.
#[derive(Debug, Clone, PartialEq)]
pub struct DemodFrame {
    /// Decoded payload bytes.
    pub payload: Vec<u8>,
    /// Payload CRC passed.
    pub crc_ok: bool,
    /// Header intact.
    pub header_ok: bool,
    /// FEC corrections performed.
    pub corrections: usize,
    /// Sample index where the first payload symbol starts.
    pub payload_start: usize,
    /// Raw payload symbols prior to decoding.
    pub symbols: Vec<u16>,
}

/// The demodulator for one `(SF, BW, OSR)` configuration.
#[derive(Debug, Clone)]
pub struct Demodulator {
    cfg: ChirpConfig,
    frame_params: FrameParams,
    fir: Fir,
    plan: FftPlan,
    /// Conjugate base upchirp (dechirp reference for data symbols).
    up_ref: Vec<Complex>,
    /// Conjugate base downchirp (dechirp reference for SFD detection).
    down_ref: Vec<Complex>,
    /// Peak-to-mean quality needed to accept a preamble symbol.
    pub preamble_quality: f64,
}

impl Demodulator {
    /// Build a demodulator.
    pub fn new(cfg: ChirpConfig, frame_params: FrameParams) -> Self {
        assert_eq!(cfg.sf, frame_params.code.sf, "chirp and code SF must agree");
        let generator = ChirpGenerator::new(cfg);
        let up_ref = generator.dechirp_reference();
        let down_ref: Vec<Complex> = generator
            .downchirp()
            .into_iter()
            .map(|z| z.conj())
            .collect();
        let ns = cfg.samples_per_symbol();
        Demodulator {
            cfg,
            frame_params,
            fir: demod_frontend(0.45 / cfg.osr as f64),
            plan: FftPlan::new(ns),
            up_ref,
            down_ref,
            // at the SF8 sensitivity point the preamble peak-to-mean sits
            // near 5.7; noise-only windows max out near 2.7 — 3.5 splits
            // them with margin on both sides
            preamble_quality: 3.5,
        }
    }

    /// Convenience constructor matching [`crate::modulator::Modulator::standard`].
    pub fn standard(sf: u8, bw: f64, osr: usize, cr: u8) -> Self {
        let chirp = ChirpConfig::new(sf, bw, osr);
        let code = CodeParams::new(sf, cr);
        Demodulator::new(chirp, FrameParams::new(code))
    }

    /// Chirp configuration.
    pub fn config(&self) -> &ChirpConfig {
        &self.cfg
    }

    /// Fresh per-demodulator scratch state for the `*_with` hot paths:
    /// the filtered-capture and dechirp/FFT buffers.
    /// One per worker thread; reusable across captures.
    pub fn scratch(&self) -> DemodScratch {
        DemodScratch::default()
    }

    /// Run the front-end low-pass filter over a capture with group-delay
    /// compensation: the output is sample-aligned with the input (the
    /// trailing edge is flushed with zeros).
    pub fn filter(&self, x: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::new();
        self.fir.filter_aligned_into(x, &mut out);
        out
    }

    /// Dechirp → FFT → peak-only search: `(symbol, magnitude)`,
    /// bit-identical to the same fields of [`Self::detect_symbol`].
    fn peak_with_buf(
        &self,
        window: &[Complex],
        reference: &[Complex],
        buf: &mut Vec<Complex>,
    ) -> (u16, f64) {
        self.plan.forward_dechirp_into(window, reference, buf);
        self.spectrum_peak(buf)
    }

    /// The symbol detector's full scan over one symbol spectrum: the
    /// first bin of largest magnitude (`|X[k]|`, plus the aliased image
    /// `|X[k + ns − n]|` when oversampled) and the mean magnitude.
    fn scan_spectrum(&self, spectrum: &[Complex]) -> SymbolDetection {
        let ns = self.cfg.samples_per_symbol();
        let n = self.cfg.n_chips();
        let osr = self.cfg.osr;
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
        SymbolDetection {
            symbol: best.0,
            magnitude: best.1,
            mean_magnitude: sum / n as f64,
        }
    }

    /// `(symbol, magnitude)` of one symbol spectrum (`samples_per_symbol`
    /// FFT bins), bit-identical to those fields of the full scan behind
    /// [`Demodulator::detect_symbol`] but without its mean: the search
    /// ranks bins by `norm_sqr` and takes `hypot` only within a relative
    /// 1e-9 of the largest. It falls back to the full scan when
    /// oversampled, when any bin is non-finite, or when the largest
    /// `norm_sqr` lies outside `[1e-280, 1e280]`.
    ///
    /// # Panics
    /// Panics if `spectrum` is shorter than one symbol.
    pub fn spectrum_peak(&self, spectrum: &[Complex]) -> (u16, f64) {
        let banded = if self.cfg.osr == 1 {
            banded_peak(&spectrum[..self.cfg.n_chips()])
        } else {
            None
        };
        banded.unwrap_or_else(|| {
            let d = self.scan_spectrum(spectrum);
            (d.symbol, d.magnitude)
        })
    }

    /// The preamble detector's decision on one symbol spectrum
    /// (`samples_per_symbol` FFT bins): the symbol when the full scan's
    /// peak-to-mean [`SymbolDetection::quality`] reaches
    /// [`Demodulator::preamble_quality`], else `None`.
    ///
    /// The decision is exact without the scan's `hypot` per bin: the
    /// symbol and peak magnitude come from the banded peak search, and
    /// the mean from `sqrt(norm_sqr)` summed in four lanes, which stays
    /// within a relative 1e-12 of the scan's mean. Only a quality
    /// within a relative 1e-9 of the threshold, an oversampled
    /// spectrum, or a spectrum the banded search declines (non-finite
    /// bins, peak out of range) takes the full scan.
    ///
    /// # Panics
    /// Panics if `spectrum` is shorter than one symbol.
    pub fn preamble_symbol(&self, spectrum: &[Complex]) -> Option<u16> {
        let n = self.cfg.n_chips();
        if self.cfg.osr == 1 {
            let bins = &spectrum[..n];
            if let Some((symbol, magnitude)) = banded_peak(bins) {
                // the peak's `norm_sqr` is at least 1e-280, so the mean
                // is positive and the quality finite
                let quality = magnitude / (sqrt_norm_sum(bins) / n as f64);
                let slack = quality * PEAK_BAND;
                if quality - slack >= self.preamble_quality {
                    return Some(symbol);
                }
                if quality + slack < self.preamble_quality {
                    return None;
                }
            }
        }
        let det = self.scan_spectrum(spectrum);
        (det.quality() >= self.preamble_quality).then_some(det.symbol)
    }

    /// Detect the symbol in an aligned window (dechirp → FFT → peak).
    ///
    /// # Panics
    /// Panics if `window` is not exactly one symbol long.
    pub fn detect_symbol(&self, window: &[Complex]) -> SymbolDetection {
        let mut buf = Vec::new();
        self.plan
            .forward_dechirp_into(window, &self.up_ref, &mut buf);
        self.scan_spectrum(&buf)
    }

    /// Detect chirp direction by comparing up- and down-dechirped peaks
    /// (the paper's chirp-type detector).
    ///
    /// # Panics
    /// Panics if `window` is not exactly one symbol long.
    pub fn detect_direction(&self, window: &[Complex]) -> tinysdr_dsp::chirp::ChirpDirection {
        let mut buf = Vec::new();
        let (_, up) = self.peak_with_buf(window, &self.up_ref, &mut buf);
        let (_, down) = self.peak_with_buf(window, &self.down_ref, &mut buf);
        if up >= down {
            tinysdr_dsp::chirp::ChirpDirection::Up
        } else {
            tinysdr_dsp::chirp::ChirpDirection::Down
        }
    }

    /// Chirp-symbol error rate over an *aligned* stream of known symbols
    /// — the measurement behind Figs. 11 and 15 ("We record the received
    /// RF signals in the FPGA memory and run them through our
    /// demodulator to compute a chirp symbol error rate").
    pub fn symbol_error_rate(&self, rx: &[Complex], sent: &[u16]) -> f64 {
        let (errors, total) = self.symbol_errors(rx, sent);
        if total == 0 {
            0.0
        } else {
            errors as f64 / total as f64
        }
    }

    /// Raw `(errors, trials)` counts behind [`Self::symbol_error_rate`]
    /// — the waterfall sweeps accumulate counts so that per-point Wilson
    /// intervals and merged curves stay exact. Symbols whose window runs
    /// past the capture are counted as errors (a truncated capture lost
    /// them; ignoring them would understate the error rate).
    pub fn symbol_errors(&self, rx: &[Complex], sent: &[u16]) -> (u64, u64) {
        self.symbol_errors_with(rx, sent, &mut self.scratch())
    }

    /// [`Demodulator::symbol_errors`] against caller-owned scratch —
    /// the sweep engine's hot path, allocation-free in steady state and
    /// bit-identical to the allocating route.
    pub fn symbol_errors_with(
        &self,
        rx: &[Complex],
        sent: &[u16],
        scratch: &mut DemodScratch,
    ) -> (u64, u64) {
        let ns = self.cfg.samples_per_symbol();
        let DemodScratch { filtered, buf } = scratch;
        self.fir.filter_aligned_into(rx, filtered);
        let mut errors = 0u64;
        for (i, &tx_sym) in sent.iter().enumerate() {
            let start = i * ns;
            if start + ns > filtered.len() {
                errors += (sent.len() - i) as u64;
                break;
            }
            let (symbol, _) = self.peak_with_buf(&filtered[start..start + ns], &self.up_ref, buf);
            if symbol != tx_sym {
                errors += 1;
            }
        }
        (errors, sent.len() as u64)
    }

    /// Detect every aligned symbol window of a capture — front-end
    /// filter, then dechirp/FFT/peak per `samples_per_symbol` chunk —
    /// into `units`. This is the stream modem's demodulation pipeline
    /// against caller-owned scratch: bit-identical to [`Demodulator::filter`]
    /// followed by per-window [`Demodulator::detect_symbol`], with zero
    /// steady-state allocation.
    pub fn detect_aligned_with(
        &self,
        rx: &[Complex],
        scratch: &mut DemodScratch,
        units: &mut Vec<u16>,
    ) {
        let ns = self.cfg.samples_per_symbol();
        let DemodScratch { filtered, buf } = scratch;
        self.fir.filter_aligned_into(rx, filtered);
        units.clear();
        units.extend(
            filtered
                .chunks_exact(ns)
                .map(|w| self.peak_with_buf(w, &self.up_ref, buf).0),
        );
    }

    /// Locate the preamble in `rx` and return `(symbol_grid_start,
    /// preamble_window_index)`: the sample index of a symbol boundary
    /// inside the preamble.
    fn find_preamble(&self, rx: &[Complex], buf: &mut Vec<Complex>) -> Option<usize> {
        let ns = self.cfg.samples_per_symbol();
        let osr = self.cfg.osr;
        let n = self.cfg.n_chips() as i64;
        let needed = 3; // consecutive consistent windows
        let mut run = 0usize;
        let mut run_sym = 0u16;
        let mut run_start = 0usize;
        let mut k = 0usize;
        while (k + 1) * ns <= rx.len() {
            self.plan
                .forward_dechirp_into(&rx[k * ns..(k + 1) * ns], &self.up_ref, buf);
            if let Some(symbol) = self.preamble_symbol(buf) {
                // tolerate ±1 chip jitter between windows (quantized
                // chirps + filter edges wobble the split-bin estimate)
                let close = {
                    let d = (symbol as i64 - run_sym as i64).rem_euclid(n);
                    d <= 1 || d == n - 1
                };
                if run > 0 && close {
                    run += 1;
                    run_sym = symbol;
                } else {
                    run = 1;
                    run_sym = symbol;
                    run_start = k;
                }
                if run >= needed {
                    // misalignment δ (samples): window starts δ after the
                    // symbol boundary, and the detected preamble symbol
                    // equals δ in chips
                    let delta = run_sym as usize * osr;
                    let coarse = run_start * ns + if delta == 0 { 0 } else { ns - delta };
                    return Some(self.refine_alignment(rx, coarse, buf));
                }
            } else {
                run = 0;
            }
            k += 1;
        }
        None
    }

    /// Fine alignment: probe sample offsets around the coarse estimate
    /// (which may be off by ±1 chip) and keep the one whose window
    /// dechirps to *exactly* symbol 0 with the strongest peak — at the
    /// true boundary the preamble lands in bin 0; an offset of a full
    /// chip moves it to bin ±1 and must be rejected, or every payload
    /// symbol would read off by one.
    fn refine_alignment(&self, rx: &[Complex], coarse: usize, buf: &mut Vec<Complex>) -> usize {
        let ns = self.cfg.samples_per_symbol();
        let span = (self.cfg.osr as i64).max(2);
        let mut best = (coarse, f64::MIN);
        for e in -span..=span {
            let pos = coarse as i64 + e;
            if pos < 0 || (pos as usize + ns) > rx.len() {
                continue;
            }
            let (symbol, magnitude) =
                self.peak_with_buf(&rx[pos as usize..pos as usize + ns], &self.up_ref, buf);
            if symbol == 0 && magnitude > best.1 {
                best = (pos as usize, magnitude);
            }
        }
        best.0
    }

    /// Demodulate one frame from a raw capture: front-end filter,
    /// preamble search, SFD alignment, header decode, payload decode.
    ///
    /// Returns `None` when no frame is found (no preamble, SFD missing,
    /// or the header block is unreadable).
    pub fn demodulate(&self, rx: &[Complex]) -> Option<DemodFrame> {
        self.demodulate_with(rx, &mut self.scratch())
    }

    /// [`Demodulator::demodulate`] against caller-owned scratch: the
    /// batch path reuses the filtered and dechirp buffers across
    /// captures. Bit-identical to the allocating route.
    pub fn demodulate_with(
        &self,
        rx: &[Complex],
        scratch: &mut DemodScratch,
    ) -> Option<DemodFrame> {
        let ns = self.cfg.samples_per_symbol();
        let DemodScratch { filtered, buf } = scratch;
        self.fir.filter_aligned_into(rx, filtered);
        // one symbol of tail padding so a grid offset can't starve the
        // final symbol window
        filtered.extend(std::iter::repeat_n(Complex::ZERO, ns));
        let pos = self.find_preamble(filtered, buf)?;

        // Locate the SFD by total evidence rather than a fragile
        // window-by-window walk: the two consecutive downchirp windows
        // maximize (down-energy − up-energy) summed over the pair. The
        // search span covers the rest of the preamble plus the sync
        // word from wherever the run-of-3 locked on. Candidate j's
        // second window is candidate j+1's first, so its down/up peaks
        // carry over and each candidate costs two detections, not four.
        let max_j = self.frame_params.preamble_len + 4;
        let mut best: Option<(usize, f64)> = None;
        let mut down_up = |start: usize| {
            let w = &filtered[start..start + ns];
            let (_, down) = self.peak_with_buf(w, &self.down_ref, buf);
            let (_, up) = self.peak_with_buf(w, &self.up_ref, buf);
            (down, up)
        };
        let mut carried = None;
        for j in 1..=max_j {
            let start = pos + j * ns;
            if start + 2 * ns > filtered.len() {
                break;
            }
            let (d0, u0) = carried.unwrap_or_else(|| down_up(start));
            let (d1, u1) = down_up(start + ns);
            carried = Some((d1, u1));
            let score = d0 + d1 - u0 - u1;
            if best.map(|(_, s)| score > s).unwrap_or(true) {
                best = Some((start, score));
            }
        }
        let (sfd_start, score) = best?;
        if score <= 0.0 {
            return None; // no downchirp evidence anywhere — not a frame
        }
        // skip the 2.25-symbol SFD
        let payload_start = sfd_start + ns * 2 + ns / 4;

        // header block: 8 symbols
        if payload_start + 8 * ns > filtered.len() {
            return None;
        }
        let mut symbols: Vec<u16> = Vec::new();
        for i in 0..8 {
            let w = &filtered[payload_start + i * ns..payload_start + (i + 1) * ns];
            symbols.push(self.peak_with_buf(w, &self.up_ref, buf).0);
        }
        // decode just the header block to learn the payload length
        let payload_len = header_declared_len(&symbols, self.frame_params.code)?;
        let total_syms = phy::symbol_count(payload_len, self.frame_params.code);
        if payload_start + total_syms * ns > filtered.len() {
            return None;
        }
        for i in 8..total_syms {
            let w = &filtered[payload_start + i * ns..payload_start + (i + 1) * ns];
            symbols.push(self.peak_with_buf(w, &self.up_ref, buf).0);
        }
        let dec = phy::decode(&symbols, self.frame_params.code)?;
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

/// First bin of largest `hypot` magnitude, found hypot-free: pass one
/// takes the largest `norm_sqr` in [`PEAK_LANES`] independent running
/// maxima (order-free, since every `norm_sqr` is `+0` or more unless
/// NaN), pass two takes `hypot` only on bins within [`PEAK_BAND`] of it,
/// in index order. `None` when some bin is NaN or infinite, or the
/// largest `norm_sqr` is outside [`PEAK_RANGE`]: the band argument does
/// not hold there and the caller scans every bin.
fn banded_peak(bins: &[Complex]) -> Option<(u16, f64)> {
    // exact chunks let both passes vectorize; the tail is empty for the
    // power-of-two bin counts the receiver uses
    let chunks = bins.chunks_exact(PEAK_LANES);
    let tail = chunks.remainder();
    let mut lanes = [0.0f64; PEAK_LANES];
    let mut nan = false;
    for chunk in chunks.clone() {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            let p = v.norm_sqr();
            nan |= p.is_nan();
            *lane = if p > *lane { p } else { *lane };
        }
    }
    let mut max = 0.0f64;
    for p in lanes.into_iter().chain(tail.iter().map(|v| v.norm_sqr())) {
        nan |= p.is_nan();
        max = if p > max { p } else { max };
    }
    // an infinite bin makes `max` infinite, so the range test rejects it
    if nan || !(PEAK_RANGE.0..=PEAK_RANGE.1).contains(&max) {
        return None;
    }
    let floor = max - max * PEAK_BAND;
    let mut best = (0u16, f64::MIN);
    let mut consider = |s: usize, v: &Complex| {
        if v.norm_sqr() >= floor {
            let mag = v.abs();
            if mag > best.1 {
                best = (s as u16, mag);
            }
        }
    };
    for (c, chunk) in chunks.enumerate() {
        if chunk
            .iter()
            .fold(false, |hit, v| hit | (v.norm_sqr() >= floor))
        {
            for (lane, v) in chunk.iter().enumerate() {
                consider(c * PEAK_LANES + lane, v);
            }
        }
    }
    let body = bins.len() - tail.len();
    for (i, v) in tail.iter().enumerate() {
        consider(body + i, v);
    }
    Some(best)
}

/// `Σ sqrt(norm_sqr)` over `bins`, in [`PEAK_LANES`] running sums: the
/// preamble decision's stand-in for the full scan's `Σ hypot`.
fn sqrt_norm_sum(bins: &[Complex]) -> f64 {
    let chunks = bins.chunks_exact(PEAK_LANES);
    let tail: f64 = chunks.remainder().iter().map(|v| v.norm_sqr().sqrt()).sum();
    let mut lanes = [0.0f64; PEAK_LANES];
    for chunk in chunks {
        for (lane, v) in lanes.iter_mut().zip(chunk) {
            *lane += v.norm_sqr().sqrt();
        }
    }
    lanes.iter().sum::<f64>() + tail
}

/// Extract the declared payload length from a decoded header block
/// (symbols 0..8), verifying the header checksum. Returns `None` on a
/// corrupt header.
fn header_declared_len(symbols: &[u16], code: CodeParams) -> Option<usize> {
    use crate::phy::{deinterleave, gray_encode, hamming_decode};
    let hdr_sf_app = (code.sf - 2) as usize;
    let blk: Vec<u16> = symbols[..8]
        .iter()
        .map(|&s| (gray_encode(s) & ((1 << code.sf) - 1)) >> 2)
        .collect();
    let cws = deinterleave(&blk, hdr_sf_app, 4);
    let nib: Vec<u8> = cws.iter().map(|&c| hamming_decode(c, 4).nibble).collect();
    if nib.len() < 5 {
        return None;
    }
    let len = ((nib[0] << 4) | nib[1]) as usize;
    let flags = nib[2];
    let chk = (nib[3] << 4) | nib[4];
    if chk == (len as u8 ^ (flags << 4) ^ 0x5A) {
        Some(len)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulator::Modulator;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tinysdr_rf::channel::{apply_delay, AwgnChannel};

    fn loopback(sf: u8, bw: f64, osr: usize, cr: u8, payload: &[u8]) -> DemodFrame {
        let m = Modulator::standard(sf, bw, osr, cr);
        let d = Demodulator::standard(sf, bw, osr, cr);
        let sig = m.modulate(payload);
        d.demodulate(&sig).expect("clean loopback must decode")
    }

    #[test]
    fn clean_loopback_sf8() {
        let f = loopback(8, 125e3, 1, 1, b"hello tinySDR");
        assert_eq!(f.payload, b"hello tinySDR");
        assert!(f.crc_ok && f.header_ok);
    }

    #[test]
    fn clean_loopback_all_sf() {
        for sf in 7..=12u8 {
            let f = loopback(sf, 125e3, 1, 1, b"sf sweep");
            assert_eq!(f.payload, b"sf sweep", "SF{sf}");
            assert!(f.crc_ok, "SF{sf}");
        }
    }

    #[test]
    fn clean_loopback_oversampled() {
        let f = loopback(8, 125e3, 4, 2, b"osr4");
        assert_eq!(f.payload, b"osr4");
        assert!(f.crc_ok);
    }

    #[test]
    fn decodes_with_unaligned_start() {
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let sig = m.modulate(b"offset test");
        for delay in [1usize, 17, 100, 255, 300] {
            let delayed = apply_delay(&sig, delay);
            let f = d
                .demodulate(&delayed)
                .unwrap_or_else(|| panic!("delay {delay}"));
            assert_eq!(f.payload, b"offset test", "delay {delay}");
            assert!(f.crc_ok, "delay {delay}");
        }
    }

    #[test]
    fn decodes_at_high_snr_with_noise() {
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let mut ch = AwgnChannel::new(4.5, 11);
        let mut sig = m.modulate(b"noisy");
        ch.apply(&mut sig, -100.0, 125e3); // 18 dB above sensitivity
        let f = d.demodulate(&sig).expect("decode at -100 dBm");
        assert_eq!(f.payload, b"noisy");
        assert!(f.crc_ok);
    }

    #[test]
    fn fails_gracefully_on_pure_noise() {
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let mut ch = AwgnChannel::new(4.5, 3);
        let mut noise = Vec::new();
        ch.noise_only_into(256 * 40, 125e3, &mut noise);
        assert!(d.demodulate(&noise).is_none(), "noise must not decode");
    }

    #[test]
    fn symbol_error_rate_zero_at_high_snr() {
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let mut rng = StdRng::seed_from_u64(5);
        let syms: Vec<u16> = (0..100).map(|_| rng.gen_range(0..256)).collect();
        let mut sig = m.modulate_symbols(&syms);
        let mut ch = AwgnChannel::new(4.5, 8);
        ch.apply(&mut sig, -110.0, 125e3);
        let ser = d.symbol_error_rate(&sig, &syms);
        assert_eq!(ser, 0.0, "SER at -110 dBm should be zero");
    }

    #[test]
    fn symbol_error_rate_transitions_near_sensitivity() {
        // SF8/BW125 sensitivity is −126 dBm: a few dB above → low SER,
        // several dB below → SER near (M−1)/M
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let mut rng = StdRng::seed_from_u64(6);
        let syms: Vec<u16> = (0..300).map(|_| rng.gen_range(0..256)).collect();
        let base = m.modulate_symbols(&syms);

        let mut ch = AwgnChannel::new(4.5, 21);
        let mut good = base.clone();
        ch.apply(&mut good, -122.0, 125e3);
        let ser_good = d.symbol_error_rate(&good, &syms);

        let mut ch = AwgnChannel::new(4.5, 22);
        let mut bad = base.clone();
        ch.apply(&mut bad, -135.0, 125e3);
        let ser_bad = d.symbol_error_rate(&bad, &syms);

        assert!(ser_good < 0.05, "SER at -122 dBm: {ser_good}");
        assert!(ser_bad > 0.5, "SER at -135 dBm: {ser_bad}");
    }

    #[test]
    fn scratch_paths_are_bit_identical_to_allocating_paths() {
        let m = Modulator::standard(8, 125e3, 1, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let mut rng = StdRng::seed_from_u64(17);
        let mut scratch = d.scratch();
        // frame path, reusing scratch across noisy captures
        for trial in 0..3u64 {
            let mut sig = m.modulate(b"scratch contract");
            let mut ch = AwgnChannel::new(4.5, 100 + trial);
            ch.apply(&mut sig, -115.0, 125e3);
            assert_eq!(d.demodulate_with(&sig, &mut scratch), d.demodulate(&sig));
        }
        // aligned-symbol path
        let syms: Vec<u16> = (0..60).map(|_| rng.gen_range(0..256)).collect();
        let mut sig = m.modulate_symbols(&syms);
        let mut ch = AwgnChannel::new(4.5, 9);
        ch.apply(&mut sig, -130.0, 125e3);
        assert_eq!(
            d.symbol_errors_with(&sig, &syms, &mut scratch),
            d.symbol_errors(&sig, &syms)
        );
        // and filter itself, through a scratch reused at another length
        d.fir.filter_aligned_into(&sig, &mut scratch.filtered);
        assert_eq!(scratch.filtered, d.filter(&sig));
    }

    #[test]
    fn banded_peak_scans_a_ragged_tail() {
        let rising: Vec<Complex> = (0..7).map(|i| Complex::new(i as f64, 1.0)).collect();
        let tied: Vec<Complex> = (0..7).map(|i| Complex::new((i % 3) as f64, 1.0)).collect();
        for bins in [rising, tied] {
            for len in 1..=bins.len() {
                let want = (0..len).fold((0u16, f64::MIN), |best, s| {
                    let mag = bins[s].abs();
                    if mag > best.1 {
                        (s as u16, mag)
                    } else {
                        best
                    }
                });
                assert_eq!(banded_peak(&bins[..len]), Some(want), "len {len}");
            }
        }
    }

    #[test]
    fn direction_detector_works() {
        use tinysdr_dsp::chirp::{ChirpDirection, ChirpGenerator};
        let cfg = ChirpConfig::new(8, 125e3, 1);
        let d = Demodulator::standard(8, 125e3, 1, 1);
        let g = ChirpGenerator::new(cfg);
        assert_eq!(d.detect_direction(&g.upchirp(37)), ChirpDirection::Up);
        assert_eq!(d.detect_direction(&g.downchirp()), ChirpDirection::Down);
    }

    #[test]
    fn fec_earns_its_keep_under_noise() {
        // at a marginal SNR, CR 4/8 decodes packets CR 4/5 loses
        let payload = b"fec gain test payload";
        let rssi = -124.5;
        let mut ok = [0u32; 2];
        for (i, cr) in [1u8, 4].iter().enumerate() {
            let m = Modulator::standard(8, 125e3, 1, *cr);
            let d = Demodulator::standard(8, 125e3, 1, *cr);
            for trial in 0..30 {
                let mut ch = AwgnChannel::new(4.5, 1000 + trial);
                let mut sig = m.modulate(payload);
                ch.apply(&mut sig, rssi, 125e3);
                if let Some(f) = d.demodulate(&sig) {
                    if f.crc_ok && f.payload == payload {
                        ok[i] += 1;
                    }
                }
            }
        }
        assert!(
            ok[1] >= ok[0],
            "CR4/8 ({}) must beat CR4/5 ({})",
            ok[1],
            ok[0]
        );
    }
}
