//! The benchmark's runner: one workload, one process.
//!
//! ```text
//! perfbench <workload> --seconds S [--seed N] [--trace 0|1] [--mini]
//! ```
//!
//! Prints one JSON line: operations attempted and failed, the output
//! digest of every operation, failed output checks, and the metrics
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`). Only
//! metrics of layers the workload runs are printed; `run.py` turns this
//! into the benchmark's result record. Run it through `run.py`, which
//! builds it, gives it a fresh working directory and a clean
//! environment, and compares the digests with the recorded ones.

mod campaign;
mod common;
mod fault_storm;
mod paper_chip;
mod trace;

use adaptnoc_sim::json::Value;
use adaptnoc_sim::stats::EpochReport;
use common::{Args, Outcome};
use std::process::ExitCode;

/// Largest share of the traced wall time that layer spans may leave
/// uncovered on `paper_chip`, whose loop the benchmark drives call by
/// call.
const UNATTRIBUTED_TOLERANCE_PCT: f64 = 5.0;

/// The exact `NetStats` / `EventCounts` counters of a run.
fn sim_counts(out: &mut Outcome, t: &EpochReport) {
    out.metric("sim.flit_hops", t.events.link_flit_hops as f64, "count");
    out.metric("sim.va_grants", t.events.va_grants as f64, "count");
    out.metric("sim.sa_grants", t.events.sa_grants as f64, "count");
    out.metric("sim.buffer_writes", t.events.buffer_writes as f64, "count");
    out.metric("sim.packets", t.stats.packets as f64, "count");
}

/// `trace.overhead_pct` (traced against untraced throughput in the same
/// process) and `trace.unattributed_pct` (traced wall time no layer span
/// covers). With `reconcile`, an uncovered share above
/// [`UNATTRIBUTED_TOLERANCE_PCT`] fails the run's output check.
fn trace_metrics(
    out: &mut Outcome,
    kcps_untraced: f64,
    kcps_traced: f64,
    tr: &trace::On,
    traced_wall_s: f64,
    reconcile: bool,
) {
    let unattributed = 100.0 * (1.0 - tr.covered_ns() as f64 / 1e9 / traced_wall_s);
    out.metric(
        "trace.overhead_pct",
        100.0 * (kcps_untraced / kcps_traced - 1.0),
        "%",
    );
    out.metric("trace.unattributed_pct", unattributed, "%");
    out.check(
        !reconcile || unattributed.abs() <= UNATTRIBUTED_TOLERANCE_PCT,
        || {
            format!(
                "layer spans leave {unattributed:.2}% of the traced wall unattributed \
             (tolerance {UNATTRIBUTED_TOLERANCE_PCT}%)"
            )
        },
    );
}

fn parse_args() -> Result<(String, Args, bool), String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload")?;
    let mut seed = 1;
    let mut seconds = None;
    let mut mini = false;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value()? == "1",
            "--mini" => mini = true,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let args = Args {
        seed,
        seconds: seconds.ok_or("missing --seconds")?,
        mini,
    };
    Ok((workload, args, trace))
}

fn main() -> ExitCode {
    let (workload, args, trace) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut out = match (workload.as_str(), trace) {
        ("paper_chip", false) => paper_chip::timed(&args),
        ("paper_chip", true) => paper_chip::traced(&args),
        ("fig_campaign", false) => campaign::timed(&args),
        ("fig_campaign", true) => campaign::traced(&args),
        ("fault_storm", false) => fault_storm::timed(&args),
        ("fault_storm", true) => fault_storm::traced(&args),
        _ => {
            eprintln!("perfbench: unknown workload {workload}");
            return ExitCode::from(2);
        }
    };
    if !trace {
        out.metric("peak_rss_mib", common::peak_rss_mib(), "MiB");
    }
    let strings = |v: &[String]| Value::Array(v.iter().cloned().map(Value::String).collect());
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let entry = Value::Object(vec![
                ("value".into(), Value::Number(m.value)),
                ("unit".into(), Value::String(m.unit.into())),
            ]);
            (m.name.to_string(), entry)
        })
        .collect();
    let record = Value::Object(vec![
        ("workload".into(), Value::String(workload)),
        ("attempted".into(), Value::Number(out.attempted as f64)),
        ("errors".into(), Value::Number(out.errors as f64)),
        ("digests".into(), strings(&out.digests)),
        ("check_failures".into(), strings(&out.check_failures)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", record.to_string_compact());
    ExitCode::SUCCESS
}
