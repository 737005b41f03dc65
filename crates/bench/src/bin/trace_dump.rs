//! Render a decision trace: `trace_dump <trace.jsonl> [--strip]`.
//!
//! Reads a JSONL trace written by the simulator (`trace` block in a
//! scenario, or `simulate --trace`) and prints a per-cycle "why"
//! narrative: which candidates the optimizer accepted and on what
//! relative-performance grounds, which operations failed or were
//! quarantined, and how long each phase took. Exits non-zero when any
//! line does not decode as a trace event (each such line prints as
//! `?? <line>`).
//!
//! With `--strip`, prints the deterministic form instead (wall-clock
//! fields removed) — the representation golden tests and CI diff.

use std::io::Write as _;
use std::process::ExitCode;

use dynaplace_json::{FromJson, Json};
use dynaplace_trace::{strip_nondeterministic, TraceEvent};

fn main() -> ExitCode {
    let mut path = None;
    let mut strip = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--strip" => strip = true,
            "-h" | "--help" => {
                eprintln!("usage: trace_dump <trace.jsonl> [--strip]");
                return ExitCode::SUCCESS;
            }
            other if path.is_none() => path = Some(other.to_string()),
            other => {
                eprintln!("unexpected argument {other:?}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("usage: trace_dump <trace.jsonl> [--strip]");
        return ExitCode::FAILURE;
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let stdout = std::io::stdout().lock();
    let mut out = std::io::BufWriter::new(stdout);
    let mut malformed = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let rendered = if strip {
            strip_nondeterministic(line)
        } else {
            match Json::parse(line)
                .ok()
                .and_then(|v| TraceEvent::from_json(&v).ok())
            {
                Some(ev) => ev.narrative(),
                None => {
                    malformed += 1;
                    format!("  ?? {line}")
                }
            }
        };
        if writeln!(out, "{rendered}").is_err() {
            // Downstream closed the pipe (e.g. `trace_dump ... | head`).
            return ExitCode::SUCCESS;
        }
    }
    let _ = out.flush();
    if malformed > 0 {
        eprintln!("warning: {malformed} lines did not parse as trace events");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
