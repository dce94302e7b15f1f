//! A bank of complex correlators evaluated side by side.
//!
//! The noncoherent receivers (BLE GFSK's 3-bit sequence detector, the
//! 802.15.4 chip correlator) score every window against a fixed set of
//! reference waveforms and keep the strongest `|correlation|`. Taking
//! the templates one at a time makes each sum a single dependency
//! chain, so the loop waits on the adder's latency. [`CorrelatorBank`]
//! stores the conjugated templates in groups of four, position-major
//! within a group as `[f64; 4]` re/im lanes, and advances a group's
//! four sums together over one pass of the window: independent chains
//! the compiler vectorizes (two SSE2 registers per rail on baseline
//! x86-64; all sixteen sums at once would not fit the register file).
//!
//! Every accumulator still adds its own products in sample order, and
//! each product is the expression `s * conj(t)` evaluates through
//! [`Complex`]'s `Mul`, so every correlation is bit-identical to the
//! one-template loop (DESIGN.md, "Correlator bank and ADC rounding").

use crate::complex::Complex;

/// Templates whose sums advance together.
const LANES: usize = 4;

/// `conj(template[p][i])` for [`LANES`] templates `p` at one sample
/// position `i`.
#[derive(Debug, Clone, Copy)]
struct Tap {
    re: [f64; LANES],
    im: [f64; LANES],
}

/// `N` equal-length reference waveforms, correlated against a window
/// together.
#[derive(Debug, Clone)]
pub struct CorrelatorBank<const N: usize> {
    /// Samples per template.
    len: usize,
    /// Templates `4g..4g + 4` at sample `i` in `taps[g * len + i]`:
    /// each group's taps are contiguous, position-major.
    taps: Vec<Tap>,
}

impl<const N: usize> CorrelatorBank<N> {
    /// Build a bank from `N` reference waveforms.
    ///
    /// # Panics
    /// Panics if `N` is not a positive multiple of 4, or if the
    /// templates differ in length: a bank has one tap per sample
    /// position for every template.
    pub fn new(templates: [Vec<Complex>; N]) -> Self {
        assert!(
            N > 0 && N.is_multiple_of(LANES),
            "a correlator bank holds a positive multiple of {LANES} templates"
        );
        let len = templates[0].len();
        assert!(
            templates.iter().all(|t| t.len() == len),
            "correlator templates must share one length"
        );
        let taps = templates
            .chunks_exact(LANES)
            .flat_map(|group| {
                (0..len).map(move |i| Tap {
                    re: std::array::from_fn(|p| group[p][i].conj().re),
                    im: std::array::from_fn(|p| group[p][i].conj().im),
                })
            })
            .collect();
        CorrelatorBank { len, taps }
    }

    /// The template whose correlation with `window`,
    /// `Σ window[i] · conj(template[i])` over the first
    /// `min(window.len(), template length)` samples, has the largest
    /// `norm_sqr`, and that value: the first such index on a tie,
    /// `(0, f64::MIN)` when every value is NaN. A short tail window
    /// correlates against the templates' heads; each sum runs in sample
    /// order from `+0`.
    pub fn strongest(&self, window: &[Complex]) -> (usize, f64) {
        let mut best = (0usize, f64::MIN);
        for g in 0..N / LANES {
            let (re, im) = group_sums(self.group(g), window);
            for (p, (r, i)) in re.into_iter().zip(im).enumerate() {
                let m = Complex::new(r, i).norm_sqr();
                if m > best.1 {
                    best = (g * LANES + p, m);
                }
            }
        }
        best
    }

    /// Templates `4g..4g + 4`'s taps.
    fn group(&self, g: usize) -> &[Tap] {
        &self.taps[g * self.len..(g + 1) * self.len]
    }
}

/// Real and imaginary parts of one group's correlations, advanced
/// together over one pass of the window. Neither generic nor
/// `#[inline]`, so it compiles once, to one vectorized loop, whatever
/// bank size calls it. Inlined into its callers, the vectorizer paired
/// the lanes differently per bank size, and the loop measured up to
/// twice as slow.
fn group_sums(taps: &[Tap], window: &[Complex]) -> ([f64; LANES], [f64; LANES]) {
    let mut re = [0.0f64; LANES];
    let mut im = [0.0f64; LANES];
    for (&s, tap) in window.iter().zip(taps) {
        // `Complex::mul` with `rhs = conj(t)`, one lane per template
        for (((r, i), &tr), &ti) in re.iter_mut().zip(im.iter_mut()).zip(&tap.re).zip(&tap.im) {
            *r += s.re * tr - s.im * ti;
            *i += s.re * ti + s.im * tr;
        }
    }
    (re, im)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(seed: u64, n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| Complex::from_angle(0.37 * (seed as f64 + 1.0) * i as f64 + seed as f64))
            .collect()
    }

    /// One template at a time, the loop the bank replaces.
    fn one_by_one(templates: &[Vec<Complex>], window: &[Complex]) -> (usize, f64) {
        let mut best = (0usize, f64::MIN);
        for (p, t) in templates.iter().enumerate() {
            let mut c = Complex::ZERO;
            for (&s, &tv) in window.iter().zip(t) {
                c += s * tv.conj();
            }
            if c.norm_sqr() > best.1 {
                best = (p, c.norm_sqr());
            }
        }
        best
    }

    #[test]
    fn strongest_matches_the_per_template_loop_bit_for_bit() {
        let templates: [Vec<Complex>; 8] = std::array::from_fn(|p| wave(p as u64, 12));
        let bank = CorrelatorBank::new(templates.clone());
        let x = wave(9, 16);
        // short, exact and over-long windows
        for len in 0..=16 {
            let (p, m) = bank.strongest(&x[..len]);
            let (want_p, want_m) = one_by_one(&templates, &x[..len]);
            assert_eq!((p, m.to_bits()), (want_p, want_m.to_bits()), "len {len}");
        }
    }

    #[test]
    fn strongest_keeps_the_first_of_equal_maxima() {
        let t = wave(3, 8);
        let bank = CorrelatorBank::new([wave(1, 8), t.clone(), wave(2, 8), t.clone()]);
        assert_eq!(bank.strongest(&t).0, 1);
        let nan = vec![Complex::new(f64::NAN, 0.0); 8];
        assert_eq!(bank.strongest(&nan), (0, f64::MIN));
        assert_eq!(bank.strongest(&[]), (0, 0.0));
    }

    #[test]
    #[should_panic(expected = "share one length")]
    fn unequal_templates_are_rejected() {
        CorrelatorBank::new([wave(0, 4), wave(1, 4), wave(2, 5), wave(3, 4)]);
    }
}
