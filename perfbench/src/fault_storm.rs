//! `fault_storm`: a benchmark-owned `.scn` script on an 8x8 mesh under
//! open-loop Poisson uniform load 0.05, struck by a link glitch, a link
//! kill and a router kill, run serially through `adaptnoc_scenario::run`.
//! The only workload that runs the `scenario` and `faults` layers and the
//! simulator's NACK/retry and degraded-reroute paths.
//!
//! After the link kill the lower half of the chip cannot keep up with
//! what it is offered: source queues grow every epoch and thousands of
//! packets are dropped. That backlog is model behaviour the benchmark
//! shows on purpose; do not lower the load to hide it.

use crate::common::{median, secs, trimmed_mean, Args, Digest, Outcome};
use crate::trace::{Off, On, Tracer};
use adaptnoc_scenario::prelude::*;
use std::time::Instant;

/// The script. `seed` and the measured duration are its only inputs.
pub fn script(seed: u64, mini: bool) -> String {
    let duration = if mini { "30K" } else { "150K" };
    format!(
        "# Open-loop load on an 8x8 mesh, then a transient link glitch, a\n\
         # permanent link kill and a permanent router kill.\n\
         grid 8 8;\n\
         seed {seed};\n\
         warmup 5K;\n\
         duration {duration};\n\
         epoch 5K;\n\
         t=0 uniform load 0.05 poisson;\n\
         t=10K glitch link 9 -> 10 for 2K;\n\
         t=20K kill link 27 -> 28;\n\
         t=30K kill router 36;\n"
    )
}

struct Run {
    compile_s: f64,
    run_s: f64,
    cycles: u64,
    outcome: ScenarioOutcome,
    digest: String,
}

fn operation(src: &str, tr: &mut impl Tracer) -> Result<Run, String> {
    let t0 = Instant::now();
    let plan = tr.span("scenario.compile", || {
        parse(src)
            .map_err(|e| e.to_string())
            .and_then(|ast| compile(&ast).map_err(|e| e.to_string()))
    })?;
    let compile_s = secs(t0);
    let t1 = Instant::now();
    let outcome = tr
        .span("scenario.run", || run(&plan, &RunOptions::default()))
        .map_err(|e| e.to_string())?;
    let run_s = secs(t1);
    let digest = digest(&outcome);
    Ok(Run {
        compile_s,
        run_s,
        cycles: plan.total_cycles(),
        outcome,
        digest,
    })
}

/// Digest of the outcome and every epoch row, field by field.
fn digest(o: &ScenarioOutcome) -> String {
    let mut d = Digest::default();
    let f = |x: f64| format!("{:x}", x.to_bits());
    d.add(&format!(
        "outcome {} {} {} {} {} {} {} {} {} {} {} {} {}",
        o.cycles,
        o.offered,
        o.delivered,
        f(o.offered_rate),
        f(o.accepted_rate),
        f(o.avg_latency),
        f(o.p50),
        f(o.p95),
        f(o.p99),
        f(o.p999),
        o.max_source_queue,
        o.end_source_queue,
        o.drops,
    ));
    let s = &o.faults;
    d.add(&format!(
        "faults {} {} {} {} {} {} {} {} {}",
        s.transients_fired,
        s.permanent_links_fired,
        s.routers_fired,
        s.retries_queued,
        s.dropped,
        s.recoveries,
        s.escalations,
        s.guard_recoveries,
        s.dumps,
    ));
    for e in &o.epochs {
        d.add(&format!(
            "epoch {} {} {} {} {} {} {} {} {}",
            e.cycle,
            e.offered,
            e.delivered,
            f(e.offered_rate),
            f(e.accepted_rate),
            f(e.avg_latency),
            f(e.p50),
            f(e.p99),
            e.source_queue,
        ));
    }
    d.hex()
}

fn check_outputs(out: &mut Outcome, r: &Run) {
    out.digests.push(r.digest.clone());
    let o = &r.outcome;
    out.check(o.delivered > 0, || "fault_storm delivered nothing".into());
    out.check(
        o.faults.transients_fired == 1
            && o.faults.permanent_links_fired == 1
            && o.faults.routers_fired == 1,
        || format!("fault_storm fired the wrong faults: {:?}", o.faults),
    );
}

fn kcps(r: &Run) -> f64 {
    r.cycles as f64 / 1e3 / r.run_s
}

/// Timed run: operations until `args.seconds` are spent, tracing off.
pub fn timed(args: &Args) -> Outcome {
    let src = script(args.seed, args.mini);
    let mut out = Outcome::default();
    let runs = out.repeat(args.seconds, 3, || operation(&src, &mut Off));
    for r in &runs {
        check_outputs(&mut out, r);
    }
    let k: Vec<f64> = runs.iter().map(kcps).collect();
    let setup: Vec<f64> = runs.iter().map(|r| r.compile_s).collect();
    let wall: Vec<f64> = runs.iter().map(|r| r.run_s).collect();
    eprintln!("samples: setup_s {setup:.4?} wall_s {wall:.4?}");
    out.metric("sim_kcps", median(&k), "kc/s");
    out.metric("setup_s", trimmed_mean(&setup), "s");
    out.metric("wall_s", median(&wall), "s");
    out
}

/// Traced run: an untraced reference operation and a traced one.
pub fn traced(args: &Args) -> Outcome {
    let src = script(args.seed, args.mini);
    let mut out = Outcome::default();
    let mut tr = On::default();
    let reference = out.attempt(|| operation(&src, &mut Off));
    let traced = out.attempt(|| operation(&src, &mut tr));
    let (Some(reference), Some(traced)) = (reference, traced) else {
        return out;
    };
    for r in [&reference, &traced] {
        check_outputs(&mut out, r);
    }
    eprintln!("fault_storm traced spans:\n{}", tr.table());
    eprintln!("epoch_end offered delivered source_queue");
    for e in &traced.outcome.epochs {
        eprintln!(
            "{} {} {} {}",
            e.cycle, e.offered, e.delivered, e.source_queue
        );
    }

    let o = &traced.outcome;
    out.metric(
        "scenario.compile_ms",
        tr.get("scenario.compile").total_ns as f64 / 1e6,
        "ms",
    );
    out.metric(
        "scenario.run_s",
        tr.get("scenario.run").total_ns as f64 / 1e9,
        "s",
    );
    out.metric("scenario.end_backlog", o.end_source_queue as f64, "count");
    out.metric("faults.retries", o.faults.retries_queued as f64, "count");
    out.metric("faults.drops", o.drops as f64, "count");
    out.metric("faults.recoveries", o.faults.recoveries as f64, "count");
    crate::trace_metrics(
        &mut out,
        kcps(&reference),
        kcps(&traced),
        &tr,
        traced.compile_s + traced.run_s,
        false,
    );
    out
}
