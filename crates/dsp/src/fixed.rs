//! Fixed-point quantization of the radio data path.
//!
//! The AT86RF215 "samples baseband signals at 4 MHz with a 13 bit
//! resolution for both I and Q" (paper §3.2.1). Quantizing at the
//! ADC/DAC boundary makes quantization noise and clipping part of the
//! simulation rather than an afterthought.

use crate::complex::Complex;

/// A signed fixed-point quantizer with saturating behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quantizer {
    bits: u32,
}

impl Quantizer {
    /// 13-bit quantizer used by the AT86RF215 data path.
    pub const AT86RF215: Quantizer = Quantizer { bits: 13 };

    /// Create an `bits`-bit signed quantizer (`2 ..= 24`).
    ///
    /// # Panics
    /// Panics if `bits` is out of range.
    pub fn new(bits: u32) -> Self {
        assert!(
            (2..=24).contains(&bits),
            "quantizer bits out of range: {bits}"
        );
        Quantizer { bits }
    }

    /// Word width in bits.
    #[inline]
    pub fn bits(self) -> u32 {
        self.bits
    }

    /// Largest positive code.
    #[inline]
    pub fn max_code(self) -> i32 {
        (1 << (self.bits - 1)) - 1
    }

    /// Quantize a real value in `[-1, 1]` to an integer code: round half
    /// away from zero, saturating outside full scale; NaN maps to 0.
    ///
    /// Equal to `(x * fs).round().clamp(-(fs + 1.0), fs) as i32` for
    /// every input, without the libm `round` call that baseline x86-64
    /// makes for `f64::round`. The clamp goes first: its bounds are
    /// integers, which `round` fixes, and `round` is monotone, so the
    /// two commute. Inside the bounds (`|v| < 2²⁴`) the truncating cast
    /// is exact and so is the fraction `v - trunc(v)`, which then
    /// decides the half-way step.
    #[inline]
    pub fn quantize(self, x: f64) -> i32 {
        let fs = self.max_code() as f64;
        let v = (x * fs).clamp(-(fs + 1.0), fs);
        let t = v as i32;
        let frac = v - t as f64;
        if frac >= 0.5 {
            t + 1
        } else if frac <= -0.5 {
            t - 1
        } else {
            t
        }
    }

    /// Map an integer code back to a real value in `[-1, 1]`.
    #[inline]
    pub fn dequantize(self, code: i32) -> f64 {
        code as f64 / self.max_code() as f64
    }

    /// Quantize-and-dequantize a real value (what the signal "looks like"
    /// after passing through the converter).
    #[inline]
    pub fn round_trip(self, x: f64) -> f64 {
        self.dequantize(self.quantize(x))
    }

    /// Quantize a complex sample (both rails).
    #[inline]
    pub fn quantize_iq(self, z: Complex) -> (i32, i32) {
        (self.quantize(z.re), self.quantize(z.im))
    }

    /// Round-trip a complex sample through the converter.
    #[inline]
    pub fn round_trip_iq(self, z: Complex) -> Complex {
        Complex::new(self.round_trip(z.re), self.round_trip(z.im))
    }

    /// Round-trip an entire buffer in place, returning the count of
    /// saturated (clipped) rails — the AGC watches this.
    pub fn round_trip_buf(self, buf: &mut [Complex]) -> usize {
        let mut clipped = 0;
        for z in buf.iter_mut() {
            if z.re.abs() > 1.0 {
                clipped += 1;
            }
            if z.im.abs() > 1.0 {
                clipped += 1;
            }
            *z = self.round_trip_iq(*z);
        }
        clipped
    }

    /// Theoretical quantization SNR for a full-scale sine, `6.02·bits +
    /// 1.76` dB.
    pub fn ideal_snr_db(self) -> f64 {
        6.02 * self.bits as f64 + 1.76
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::mean_power;
    use crate::nco::ideal_tone;

    #[test]
    fn codes_and_ranges() {
        let q = Quantizer::new(13);
        assert_eq!(q.max_code(), 4095);
        assert_eq!(q.quantize(1.0), 4095);
        assert_eq!(q.quantize(-1.0), -4095);
        assert_eq!(q.quantize(0.0), 0);
        // saturation
        assert_eq!(q.quantize(2.0), 4095);
        assert_eq!(q.quantize(-2.0), -4096);
    }

    #[test]
    fn round_trip_error_bounded_by_half_lsb() {
        let q = Quantizer::AT86RF215;
        let lsb = 1.0 / q.max_code() as f64;
        for i in -100..=100 {
            let x = i as f64 / 100.0;
            assert!((q.round_trip(x) - x).abs() <= lsb / 2.0 + 1e-12);
        }
    }

    #[test]
    fn measured_snr_close_to_ideal() {
        let q = Quantizer::AT86RF215;
        // full-scale tone through the converter
        let x = ideal_tone(12_345.0, 1.0e6, 1 << 14);
        let y: Vec<_> = x.iter().map(|&z| q.round_trip_iq(z)).collect();
        let err: Vec<_> = x.iter().zip(&y).map(|(&a, &b)| a - b).collect();
        let snr_db = 10.0 * (mean_power(&x) / mean_power(&err)).log10();
        // ideal is 80.0 dB; LUT-free tone should be close
        assert!(snr_db > q.ideal_snr_db() - 3.0, "SNR {snr_db:.1} dB");
    }

    #[test]
    fn clip_counting() {
        let q = Quantizer::new(8);
        let mut buf = vec![
            Complex::new(0.5, 0.5),
            Complex::new(1.5, 0.0),
            Complex::new(-2.0, 3.0),
        ];
        let clipped = q.round_trip_buf(&mut buf);
        assert_eq!(clipped, 3); // one rail in sample 1, two in sample 2
        assert!(buf[1].re <= 1.0);
    }

    #[test]
    fn ideal_snr_formula() {
        assert!((Quantizer::new(13).ideal_snr_db() - 80.02).abs() < 0.01);
        assert!((Quantizer::new(12).ideal_snr_db() - 74.0).abs() < 0.1);
    }

    #[test]
    #[should_panic]
    fn rejects_1_bit() {
        Quantizer::new(1);
    }
}
