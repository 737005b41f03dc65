//! `trace_dump` in narrative mode decodes every line, and fails the run
//! when any line does not decode.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Writes `lines` to a temporary trace file and runs `trace_dump` on it.
fn dump(name: &str, lines: &[&str]) -> Output {
    let path: PathBuf =
        std::env::temp_dir().join(format!("trace_dump_{}_{name}.jsonl", std::process::id()));
    std::fs::write(&path, lines.join("\n") + "\n").expect("writable temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_trace_dump"))
        .arg(&path)
        .output()
        .expect("trace_dump runs");
    let _ = std::fs::remove_file(&path);
    out
}

const CYCLE: &str = r#"{"ev":"cycle_start","time":300.0,"cycle":1.0}"#;

#[test]
fn decodable_trace_exits_zero() {
    let out = dump("ok", &[CYCLE]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "cycle 1 at t=300s\n");
}

#[test]
fn undecodable_line_fails_the_run_and_is_reported() {
    // A cycle index beyond u64 is undecodable, not saturated.
    let bad = r#"{"ev":"cycle_start","time":0.0,"cycle":1e20}"#;
    let out = dump("bad", &[CYCLE, bad]);
    assert!(!out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains(&format!("?? {bad}")));
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("warning: 1 lines did not parse as trace events"));
}
