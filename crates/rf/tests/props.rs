//! Property-based invariants for the RF substrate.

use proptest::prelude::*;
use tinysdr_dsp::complex::Complex;
use tinysdr_rf::channel::{measure_rssi_dbm, set_rssi};
use tinysdr_rf::lvds::{Deserializer, IqWord, Serializer};
use tinysdr_rf::units::{dbm_to_mw, mw_to_dbm};

proptest! {
    /// dBm ↔ mW conversions are inverse over the full dynamic range.
    #[test]
    fn dbm_mw_inverse(dbm in -150.0f64..50.0) {
        prop_assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
    }

    /// Every 13-bit I/Q pair survives the LVDS word format.
    #[test]
    fn lvds_word_round_trip(i in -4096i16..=4095, q in -4096i16..=4095) {
        let w = IqWord::new(i, q).unwrap();
        let d = IqWord::decode(w.encode()).unwrap();
        prop_assert_eq!((d.i, d.q), (i, q));
    }

    /// A serialized sample stream survives arbitrary bit-misalignment
    /// prefixes (the deserializer hunts for sync).
    #[test]
    fn lvds_stream_survives_misalignment(
        prefix_len in 0usize..40,
        n_samples in 4usize..40,
        seed in any::<u64>(),
    ) {
        let samples: Vec<Complex> = (0..n_samples)
            .map(|k| {
                let a = ((seed.rotate_left(k as u32) & 0xFFFF) as f64 / 65535.0) * 1.6 - 0.8;
                Complex::new(a, -a * 0.5)
            })
            .collect();
        let bits = Serializer::new().serialize(&samples);
        let mut stream = vec![false; prefix_len];
        stream.extend_from_slice(&bits);
        let mut des = Deserializer::new();
        des.push_bits(&stream);
        let out = des.finish();
        // must recover nearly all samples regardless of alignment
        prop_assert!(out.len() + 1 >= n_samples, "{} of {}", out.len(), n_samples);
        // and the recovered tail must match the original values closely
        let off = out.len() - n_samples.min(out.len());
        for (a, b) in out[off..].iter().zip(&samples[n_samples - (out.len() - off)..]) {
            prop_assert!((*a - *b).abs() < 1e-3);
        }
    }

    /// set_rssi always lands the measured RSSI on target.
    #[test]
    fn rssi_scaling_exact(target in -140.0f64..0.0, scale in 0.01f64..10.0) {
        let mut sig: Vec<Complex> =
            (0..256).map(|i| Complex::from_angle(i as f64 * 0.1).scale(scale)).collect();
        set_rssi(&mut sig, target);
        prop_assert!((measure_rssi_dbm(&sig) - target).abs() < 1e-6);
    }

    /// The AWGN calibration the waterfalls lean on: for any sampling
    /// rate and noise figure the sweeps use, the injected noise power
    /// matches `noise_floor_dbm(fs, nf)` to within the statistical
    /// tolerance of the sample count.
    #[test]
    fn awgn_noise_power_matches_the_floor(
        fs in 100e3f64..5e6,
        nf in 0.0f64..10.0,
        seed in any::<u64>(),
    ) {
        use tinysdr_rf::channel::AwgnChannel;
        use tinysdr_rf::units::noise_floor_dbm;
        let mut ch = AwgnChannel::new(nf, seed);
        let mut noise = Vec::new();
        ch.noise_only_into(30_000, fs, &mut noise);
        let p_mw: f64 =
            noise.iter().map(|z| z.norm_sqr()).sum::<f64>() / noise.len() as f64;
        let got = mw_to_dbm(p_mw);
        let want = noise_floor_dbm(fs, nf);
        prop_assert!((got - want).abs() < 0.3, "noise {got:.2} vs floor {want:.2} dBm");
    }
}
