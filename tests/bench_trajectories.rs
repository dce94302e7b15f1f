//! The committed `BENCH_*.json` trajectory files at the repo root are
//! valid JSON in the trajectory shape: `schema`, `experiment` and a
//! non-empty `points` array.

use tinysdr_ota::json::Value;

#[test]
fn committed_trajectories_parse_with_schema_experiment_and_points() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<_> = std::fs::read_dir(root)
        .expect("read repo root")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no BENCH_*.json at the repo root");
    for path in &files {
        let name = path.display();
        let text = std::fs::read_to_string(path).expect("read trajectory");
        let doc = Value::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            doc.get("schema").and_then(Value::as_u64),
            Some(1),
            "{name}: schema"
        );
        assert!(
            doc.get("experiment")
                .and_then(Value::as_str)
                .is_some_and(|s| !s.is_empty()),
            "{name}: experiment"
        );
        assert!(
            doc.get("points")
                .and_then(Value::as_arr)
                .is_some_and(|p| !p.is_empty()),
            "{name}: points"
        );
    }
}
