//! The `repro` binary's argument contract: a name it does not know is
//! an error, not a silent no-op, so a mistyped CI step fails.

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro runs")
}

#[test]
fn unknown_experiment_exits_2_and_names_it() {
    let out = repro(&["--quick", "waterfal"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("'waterfal'"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "nothing may run");
}

#[test]
fn one_unknown_name_rejects_the_whole_command_line() {
    // checked before anything runs: the valid `table1` prints nothing
    let out = repro(&["table1", "tabel2"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("'tabel2'"));
    assert!(out.stdout.is_empty());
}

#[test]
fn unknown_name_is_rejected_in_json_mode_too() {
    let out = repro(&["--json", "campain"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("'campain'"));
}

#[test]
fn known_experiment_runs() {
    let out = repro(&["table1"]);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 1"));
}
