//! Measurement plumbing shared by the workloads: run settings, the
//! outcome a workload reports, order statistics, the span recorder of
//! the traced runs, and process/host probes.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Input scale of a run: `Full` is the benchmark proper, `Tiny` the
/// self-test size (and the probe size a traced run uses for layers its
/// own workload never enters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Settings of one workload run.
#[derive(Debug, Clone)]
pub struct Run {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    pub size: Size,
    /// Replace the pinned expectations (digests, reference reports)
    /// with wrong ones — the self-test's proof that the gates bite.
    pub corrupt_expected: bool,
    /// Directory this run may write to (checkpoints, daemon root).
    pub scratch: PathBuf,
}

/// What a workload run reports: operations attempted and failed, its
/// metrics `(name, value, unit)`, and facts for the stamp line.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub stamp: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Set a stamp fact (a later note of the same key replaces it).
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.stamp.retain(|(k, _)| k != key);
        self.stamp.push((key.to_string(), value.to_string()));
    }

    /// Count `n` operations, all of them failed unless `ok`.
    pub fn tally(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }
}

/// Nearest-rank quantile `q` in `[0, 1]` of `xs`; 0 for an empty set.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// Median (midpoint of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Run `f` and return its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_secs_f64())
}

/// 64-bit FNV-1a: the digest the correctness gates pin. Kept in the
/// benchmark (not borrowed from the program) so a change to the
/// program's own hashing cannot move the pinned values.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span: a layer call timed from the benchmark's own code.
/// Layer calls in the traced runs never nest, so a span's self time is
/// its duration.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    /// Offsets from the recorder's start.
    pub start: Duration,
    pub end: Duration,
    /// Request the span belongs to (curve, block or job index).
    pub group: u64,
}

/// In-memory span recorder of a traced run.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span of `layer`.
    pub fn span<R>(&mut self, layer: &'static str, group: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.record(layer, group, start, Instant::now());
        out
    }

    /// Record a span timed by the caller (e.g. a request of the load
    /// generator).
    pub fn record(&mut self, layer: &'static str, group: u64, start: Instant, end: Instant) {
        self.spans.push(Span {
            layer,
            start: start.saturating_duration_since(self.t0),
            end: end.saturating_duration_since(self.t0),
            group,
        });
    }

    pub fn elapsed_s(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Durations of every span of `layer`, in seconds.
    pub fn durations_s(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| (s.end.saturating_sub(s.start)).as_secs_f64())
            .collect()
    }

    /// Total time spent in `layer`, seconds.
    pub fn busy_s(&self, layer: &str) -> f64 {
        self.durations_s(layer).iter().sum()
    }

    pub fn calls(&self, layer: &str) -> usize {
        self.spans.iter().filter(|s| s.layer == layer).count()
    }

    /// Share of `wall_s` that no span covers — the traced run's
    /// coverage gap, so a missing layer shows.
    pub fn untraced_frac(&self, wall_s: f64) -> f64 {
        let mut spans: Vec<(Duration, Duration)> =
            self.spans.iter().map(|s| (s.start, s.end)).collect();
        spans.sort();
        let mut covered = Duration::ZERO;
        let mut reach = Duration::ZERO;
        for (start, end) in spans {
            let from = start.max(reach);
            if end > from {
                covered += end - from;
                reach = end;
            }
        }
        if wall_s <= 0.0 {
            return 0.0;
        }
        (1.0 - covered.as_secs_f64() / wall_s).max(0.0)
    }

    /// The spans as tab-separated lines (`layer start_ns end_ns group`).
    pub fn dump(&self) -> String {
        let mut out = String::from("layer\tstart_ns\tend_ns\tgroup\n");
        for s in &self.spans {
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\n",
                s.layer,
                s.start.as_nanos(),
                s.end.as_nanos(),
                s.group
            ));
        }
        out
    }
}

/// Median of each named per-iteration value across a traced run's
/// iterations, in first-seen order.
pub fn median_by_name(
    iters: &[Vec<(String, f64, &'static str)>],
) -> Vec<(String, f64, &'static str)> {
    let Some(first) = iters.first() else {
        return Vec::new();
    };
    first
        .iter()
        .map(|(name, _, unit)| {
            let vals: Vec<f64> = iters
                .iter()
                .filter_map(|it| it.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v))
                .collect();
            (name.clone(), median(&vals), *unit)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(median(&xs), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn coverage_counts_overlaps_once() {
        let mut tr = Tracer::new();
        let t = Instant::now();
        tr.record("a", 0, t, t + Duration::from_millis(40));
        tr.record(
            "b",
            0,
            t + Duration::from_millis(20),
            t + Duration::from_millis(60),
        );
        assert_eq!(tr.calls("a"), 1);
        assert!((tr.busy_s("b") - 0.040).abs() < 1e-9);
        let wall = (t + Duration::from_millis(100))
            .saturating_duration_since(tr.t0)
            .as_secs_f64();
        let gap = tr.untraced_frac(wall);
        assert!(gap > 0.3 && gap < 0.45, "{gap}");
    }
}
