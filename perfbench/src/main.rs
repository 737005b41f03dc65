//! The dynaplace perf ledger: runs one named workload single-threaded,
//! checks its outputs, and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload exp3_sharing --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with only
//! the timing policy wrapper installed; with `--trace 1` it alternates
//! plain timed runs with traced runs and prints the per-layer metrics.
//! Every run is compared bit for bit against an uninstrumented run of
//! the same seed. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`.
//!
//! `--self-test` instead checks that the benchmark attributes a slowdown
//! to the right layer (see `selftest.rs`). README.md has the details.

mod kernels;
mod measure;
mod outcome;
mod probe;
mod selftest;
mod workloads;

use std::time::Duration;

use crate::measure::{measure, Plan};
use crate::workloads::Workload;

const USAGE: &str = "usage: dynaplace-perfbench --workload <name> --seed <n> --seconds <n> \
--trace <0|1>\n       dynaplace-perfbench --self-test --seed <n> \
--seconds <n>\nworkloads: exp3_sharing, stream_250, firehose_2node, sharded_1000";

enum Command {
    Measure(Plan),
    SelfTest { seed: u64, seconds: f64 },
}

fn parse_args() -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut self_test = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            self_test = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if self_test {
        return Ok(Command::SelfTest { seed, seconds });
    }
    Ok(Command::Measure(Plan {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        advice_delay: Duration::ZERO,
    }))
}

fn main() {
    let plan = match parse_args() {
        Ok(Command::Measure(plan)) => plan,
        Ok(Command::SelfTest { seed, seconds }) => {
            let passed = selftest::run(seed, seconds);
            std::process::exit(if passed { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("dynaplace-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let measured = measure(plan);
    for (name, value, unit) in &measured.metrics.0 {
        eprintln!("  {name:<28} {value:>16.6} {unit}");
    }
    for message in &measured.ledger.messages {
        eprintln!("CHECK FAILED: {message}");
    }
    println!(
        "sim_digest {} seed={} {:016x}",
        plan.workload.name(),
        plan.seed,
        measured.digest
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        measured.ledger.messages.is_empty(),
        measured.ledger.attempted.max(1),
        measured.ledger.failed,
        measured.metrics.to_json()
    );
}
