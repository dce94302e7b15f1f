//! The one writer of the `BENCH_*.json` trajectory files.
//!
//! `repro perf`, `repro campaign`, `repro link` and
//! `tinysdr-testbedd --bench` each measure something different, but
//! they all record it in the same document shape, written here and
//! nowhere else:
//!
//! ```text
//! {"schema": 1, "experiment": "<name>", "host": {"nproc": N}, "points": [...]}
//! ```
//!
//! The document goes through the workspace's JSON codec
//! ([`Value::write_pretty`]), so numbers print in its shortest
//! round-trip form and a non-finite number is written as `null`.
//! `host.nproc` is the parallelism the writing process saw (0 when
//! the platform cannot tell): a throughput point means little without
//! the core count it was measured on.

use std::path::Path;

use tinysdr_ota::json::Value;

/// Build the trajectory document for `experiment` around `points`.
fn document(experiment: &str, points: Vec<Value>) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Value::Obj(vec![
        ("schema".into(), Value::num(1.0)),
        ("experiment".into(), Value::str(experiment)),
        (
            "host".into(),
            Value::Obj(vec![("nproc".into(), Value::num(nproc as f64))]),
        ),
        ("points".into(), Value::Arr(points)),
    ])
}

/// Write the trajectory file `path` for `experiment`, replacing any
/// previous file, with `points` in the given order.
pub fn write(path: impl AsRef<Path>, experiment: &str, points: Vec<Value>) -> std::io::Result<()> {
    std::fs::write(path, document(experiment, points).write_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn written_file_parses_back_to_the_document_with_nan_as_null() {
        let point = |wall_ms: Value| {
            Value::Obj(vec![
                ("label".into(), Value::str("post")),
                ("wall_ms".into(), wall_ms),
                ("grid_points".into(), Value::num(57.0)),
            ])
        };
        let path = std::env::temp_dir().join(format!(
            "tinysdr_trajectory_test_{}.json",
            std::process::id()
        ));
        let points = vec![point(Value::num(92.125)), point(Value::num(f64::NAN))];
        write(&path, "unit", points).expect("write trajectory");
        let text = std::fs::read_to_string(&path).expect("read trajectory");
        std::fs::remove_file(&path).ok();
        let parsed = Value::parse(&text).expect("trajectory is valid JSON");

        // the NaN field is the one place the file differs from the
        // built value: it reads back as `null`
        let expected = document("unit", vec![point(Value::num(92.125)), point(Value::Null)]);
        assert_eq!(parsed, expected);
        assert_eq!(parsed.get("schema").and_then(Value::as_u64), Some(1));
        assert!(parsed
            .get("host")
            .and_then(|h| h.get("nproc"))
            .and_then(Value::as_u64)
            .is_some());
    }
}
