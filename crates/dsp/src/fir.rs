//! FIR filtering and windowed-sinc design.
//!
//! The paper's LoRa demodulator runs incoming I/Q "through a 14 tap FIR
//! low-pass filter to suppress high frequency noise and interference"
//! (§4.1, Fig. 6b). [`lowpass`] designs that filter; [`Fir`] runs it as a
//! streaming direct-form block, the same structure a small FPGA
//! implementation uses.

use crate::complex::Complex;
use crate::math::sinc;
use crate::window::Window;

/// Outputs per pass over the taps in [`Fir::filter_aligned_into`].
const FIR_BLOCK: usize = 8;

/// Streaming direct-form FIR filter over complex samples with real taps.
#[derive(Debug, Clone)]
pub struct Fir {
    taps: Vec<f64>,
    /// Circular delay line.
    delay: Vec<Complex>,
    pos: usize,
}

impl Fir {
    /// Create a filter from a tap vector.
    ///
    /// # Panics
    /// Panics on an empty tap vector.
    pub fn new(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "FIR needs at least one tap");
        let n = taps.len();
        Fir {
            taps,
            delay: vec![Complex::ZERO; n],
            pos: 0,
        }
    }

    /// Number of taps.
    #[inline]
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// `true` if there are no taps (cannot happen post-construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Tap values.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// Reset the delay line to zeros.
    pub fn reset(&mut self) {
        self.delay.fill(Complex::ZERO);
        self.pos = 0;
    }

    /// Push one sample, get one filtered sample (streaming).
    #[inline]
    pub fn push(&mut self, x: Complex) -> Complex {
        let n = self.taps.len();
        self.delay[self.pos] = x;
        let mut acc = Complex::ZERO;
        let mut idx = self.pos;
        for &t in &self.taps {
            acc += self.delay[idx].scale(t);
            idx = if idx == 0 { n - 1 } else { idx - 1 };
        }
        self.pos = (self.pos + 1) % n;
        acc
    }

    /// Filter a whole buffer into a caller-owned buffer (cleared first);
    /// stateful, continuing from previous samples. Zero allocation once
    /// `out` has capacity.
    pub fn process_into(&mut self, x: &[Complex], out: &mut Vec<Complex>) {
        out.clear();
        out.reserve(x.len());
        out.extend(x.iter().map(|&s| self.push(s)));
    }

    /// Filter a whole capture from reset state with group-delay
    /// compensation, into `out` (cleared first): `out[i]` is the
    /// streaming output at input `i + d`, `d = (len − 1) / 2`, with the
    /// trailing edge flushed by zeros. Bit-identical to [`Fir::reset`],
    /// [`Fir::process_into`], `d` zero pushes and dropping the first `d`
    /// outputs, because each output still sums every tap in tap order
    /// from `Complex::ZERO`, zero-history and flush terms included.
    ///
    /// Outputs whose taps all land inside `x` run as a block filter,
    /// eight per pass over the taps; the few at either edge take the
    /// zero terms one by one. Leaves the streaming state untouched.
    pub fn filter_aligned_into(&self, x: &[Complex], out: &mut Vec<Complex>) {
        let taps = self.taps.as_slice();
        let span = taps.len() - 1;
        let delay = span / 2;
        // tap k of output i meets input i + delay − k, zero outside x
        let edge = |i: usize| {
            let mut acc = Complex::ZERO;
            for (k, &t) in taps.iter().enumerate() {
                let s = (i + delay).checked_sub(k).and_then(|m| x.get(m));
                acc += s.copied().unwrap_or(Complex::ZERO).scale(t);
            }
            acc
        };
        let body_end = x.len().saturating_sub(delay);
        let body_start = (span - delay).min(body_end);
        out.clear();
        out.reserve(x.len());
        out.extend((0..body_start).map(edge));
        let mut i = body_start;
        while i + FIR_BLOCK <= body_end {
            let window = &x[i + delay - span..i + delay + FIR_BLOCK];
            let mut acc = [Complex::ZERO; FIR_BLOCK];
            for (k, &t) in taps.iter().enumerate() {
                for (a, &s) in acc.iter_mut().zip(&window[span - k..span - k + FIR_BLOCK]) {
                    *a += s.scale(t);
                }
            }
            out.extend_from_slice(&acc);
            i += FIR_BLOCK;
        }
        out.extend((i..x.len()).map(edge));
    }

    /// Group delay in samples for a linear-phase (symmetric) design.
    pub fn group_delay(&self) -> f64 {
        (self.taps.len() as f64 - 1.0) / 2.0
    }

    /// Complex frequency response at normalized frequency `f` (cycles per
    /// sample, `-0.5..0.5`).
    pub fn freq_response(&self, f: f64) -> Complex {
        let mut acc = Complex::ZERO;
        for (n, &t) in self.taps.iter().enumerate() {
            acc += Complex::from_angle(-std::f64::consts::TAU * f * n as f64).scale(t);
        }
        acc
    }
}

/// Design a windowed-sinc low-pass filter.
///
/// * `num_taps` — filter length (the paper uses 14).
/// * `cutoff` — normalized cutoff frequency in cycles/sample (`0..0.5`).
/// * `window` — spectral window applied to the sinc prototype.
///
/// Taps are normalized for unity DC gain.
///
/// # Panics
/// Panics if `cutoff` is outside `(0, 0.5)` or `num_taps == 0`.
pub fn lowpass(num_taps: usize, cutoff: f64, window: Window) -> Fir {
    assert!(num_taps > 0, "need at least one tap");
    assert!(
        cutoff > 0.0 && cutoff < 0.5,
        "cutoff must be in (0, 0.5), got {cutoff}"
    );
    let m = num_taps as f64 - 1.0;
    let w = window.coefficients(num_taps);
    let mut taps: Vec<f64> = (0..num_taps)
        .map(|n| {
            let x = n as f64 - m / 2.0;
            2.0 * cutoff * sinc(2.0 * cutoff * x) * w[n]
        })
        .collect();
    let sum: f64 = taps.iter().sum();
    for t in &mut taps {
        *t /= sum;
    }
    Fir::new(taps)
}

/// The exact front-end filter from the paper's demodulator: 14 taps,
/// Hamming window, cutoff at `bw_fraction` of the sampling rate.
///
/// For an OSR-1 receiver the signal occupies the whole band, so the filter
/// is designed at 0.45 (slightly inside Nyquist) purely to knock down
/// out-of-band noise; for oversampled receivers pass `0.5 / osr`.
pub fn paper_lora_frontend(bw_fraction: f64) -> Fir {
    lowpass(14, bw_fraction.clamp(0.05, 0.45), Window::Hamming)
}

/// Demodulator variant of the front-end filter with an *odd* length
/// (15 taps) so the group delay is an integer (7 samples) and the
/// symbol-window grid stays sample-aligned after delay compensation.
///
/// An even-length filter's half-sample delay splits the dechirped FFT
/// peak between adjacent bins and costs ±1-symbol errors; hardware
/// sidesteps this by strobing the window counter on the opposite clock
/// edge, which a sample-domain simulation cannot do. One extra tap is
/// behaviourally identical and keeps Table 6's LUT accounting intact
/// (the resource model still costs the 14-tap design).
pub fn demod_frontend(bw_fraction: f64) -> Fir {
    lowpass(15, bw_fraction.clamp(0.05, 0.45), Window::Hamming)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;
    use crate::nco::ideal_tone;

    #[test]
    fn dc_gain_is_unity() {
        let f = lowpass(14, 0.25, Window::Hamming);
        let dc = f.freq_response(0.0);
        assert!((dc.abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn passband_and_stopband() {
        let f = lowpass(63, 0.125, Window::Blackman);
        // passband: 0.05 cycles/sample
        let pb = f.freq_response(0.05).abs();
        assert!((pb - 1.0).abs() < 0.01, "passband gain {pb}");
        // stopband: 0.3 cycles/sample
        let sb = f.freq_response(0.3).abs();
        assert!(sb < 0.001, "stopband gain {sb}");
    }

    #[test]
    fn streaming_matches_block_convolution() {
        let taps = vec![0.25, 0.5, 0.25];
        let mut fir = Fir::new(taps.clone());
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new(i as f64, -(i as f64)))
            .collect();
        let mut y = Vec::new();
        fir.process_into(&x, &mut y);
        for n in 0..x.len() {
            let mut expect = Complex::ZERO;
            for (k, &t) in taps.iter().enumerate() {
                if n >= k {
                    expect += x[n - k].scale(t);
                }
            }
            assert!((y[n] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn tone_attenuation_in_stopband() {
        let mut f = lowpass(14, 0.1, Window::Hamming);
        let tone = ideal_tone(0.35e6, 1.0e6, 4096); // 0.35 cyc/sample
        let mut out = Vec::new();
        f.process_into(&tone, &mut out);
        let att = mean_power(&out[64..]) / mean_power(&tone);
        assert!(att < 0.01, "stopband tone leaked: {att}");
    }

    #[test]
    fn reset_clears_state() {
        let mut f = Fir::new(vec![1.0; 8]);
        f.push(Complex::ONE);
        f.reset();
        let y = f.push(Complex::ZERO);
        assert_eq!(y, Complex::ZERO);
    }

    #[test]
    fn paper_frontend_is_14_taps() {
        let f = paper_lora_frontend(0.25);
        assert_eq!(f.len(), 14);
        assert!((f.group_delay() - 6.5).abs() < 1e-12);
    }

    #[test]
    fn linear_phase_symmetry() {
        let f = lowpass(21, 0.2, Window::Hann);
        let t = f.taps();
        for i in 0..t.len() / 2 {
            assert!(
                (t[i] - t[t.len() - 1 - i]).abs() < 1e-12,
                "tap {i} asymmetric"
            );
        }
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn rejects_bad_cutoff() {
        lowpass(14, 0.75, Window::Hamming);
    }
}
