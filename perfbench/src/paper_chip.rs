//! `paper_chip`: the paper's 8x8 mixed CPU/GPU chip (apps CA/KM/BP) on
//! the Adapt-NoC design with a trained per-region DQN policy, run by
//! `harness::run_design`. Closed loop in simulated time: cores with
//! bounded memory-level parallelism wait for replies.
//!
//! The timed operation is one `run_design` call. Its inside is seen
//! through a re-drive of the same loop call by call, which must
//! reproduce `run_design`'s `RunResult` bit for bit.

use crate::common::{add_totals, median, secs, trimmed_mean, Args, Digest, Outcome};
use crate::trace::{Off, On, Tracer};
use adaptnoc_bench::prelude::*;
use adaptnoc_bench::watchdog::HarnessWatchdog;
use adaptnoc_core::prelude::*;
use adaptnoc_power::energy::{EnergyBreakdown, EnergyModel};
use adaptnoc_sim::network::Network;
use adaptnoc_sim::par::StepPool;
use adaptnoc_sim::stats::EpochReport;
use adaptnoc_workloads::prelude::*;
use std::time::Instant;

const KIND: DesignKind = DesignKind::AdaptNoc;

/// The run configuration of one operation: endless apps, every epoch
/// measured.
fn run_config(seed: u64, mini: bool) -> RunConfig {
    let (epoch_cycles, epochs) = if mini { (2_000, 3) } else { (10_000, 10) };
    RunConfig {
        epoch_cycles,
        epochs,
        warmup_epochs: 0,
        seed,
        run_to_completion: false,
        ..RunConfig::default()
    }
}

fn cycles(rc: &RunConfig) -> u64 {
    rc.epoch_cycles * (rc.warmup_epochs + rc.epochs)
}

/// The chip, its apps and the trained policy.
struct Inputs {
    layout: ChipLayout,
    profiles: Vec<AppProfile>,
    policy: adaptnoc_rl::dqn::TrainedPolicy,
}

impl Inputs {
    /// The trained policy in every region.
    fn policies(&self) -> Vec<TopologyPolicy> {
        (0..self.layout.regions.len())
            .map(|_| TopologyPolicy::Trained(self.policy.clone()))
            .collect()
    }
}

/// Trains the policy.
fn inputs(tr: &mut impl Tracer) -> Result<Inputs, String> {
    let layout = ChipLayout::paper_mixed();
    let profiles: Vec<AppProfile> = ["CA", "KM", "BP"]
        .iter()
        .map(|n| by_name(n).ok_or(format!("unknown app {n}")))
        .collect::<Result<_, _>>()?;
    // The policy is a fixed input of the workload, trained from
    // `TrainConfig::tiny`'s own seed: a policy trained from the workload
    // seed can pick other topologies and halve the simulated work.
    let policy = tr
        .span("rl.train", || {
            train_dqn(&default_scenarios(), &TrainConfig::tiny(), None)
        })
        .map_err(|e| e.to_string())?;
    Ok(Inputs {
        layout,
        profiles,
        policy,
    })
}

/// `RunResult`, field by field, so the digest does not follow `Debug`
/// formatting.
fn result_digest(r: &RunResult) -> String {
    let mut d = Digest::default();
    d.add(&format!(
        "{} cycles {} lat {:x} {:x} hops {:x} energy {:x} {:x} exec {:?} reconfigs {}",
        r.design.name(),
        r.cycles,
        r.network_latency.to_bits(),
        r.queuing_latency.to_bits(),
        r.hops.to_bits(),
        r.energy.dynamic_j.to_bits(),
        r.energy.static_j.to_bits(),
        r.execution_time,
        r.reconfigs,
    ));
    for a in &r.apps {
        d.add(&format!(
            "app {} {:x} {:x} {:x} {} {}",
            a.name,
            a.network_latency.to_bits(),
            a.queuing_latency.to_bits(),
            a.hops.to_bits(),
            a.delivered,
            a.requests,
        ));
    }
    for s in r.selections.iter().flatten() {
        d.add(&format!("sel {:x?}", s.map(f64::to_bits)));
    }
    d.hex()
}

/// The network's cumulative `NetStats` and `EventCounts`.
fn totals_digest(t: &EpochReport) -> String {
    let mut d = Digest::default();
    add_totals(&mut d, t);
    d.hex()
}

fn requests(r: &RunResult) -> u64 {
    r.apps.iter().map(|a| a.requests).sum()
}

/// One timed operation: set-up (policy training and a `Design::build`
/// of the design `run_design` builds), then one `run_design` call.
/// Returns (set-up s, result, call s).
fn operation(rc: &RunConfig) -> Result<(f64, RunResult, f64), String> {
    let t0 = Instant::now();
    let inp = inputs(&mut Off)?;
    let hint = traffic_hint(&inp.layout, &inp.profiles);
    Design::build(KIND, inp.layout.clone(), &hint, inp.policies(), rc.seed)
        .map_err(|e| e.to_string())?;
    let setup_s = secs(t0);
    let t1 = Instant::now();
    let r = run_design(KIND, &inp.layout, &inp.profiles, inp.policies(), rc)
        .map_err(|e| e.to_string())?;
    Ok((setup_s, r, secs(t1)))
}

/// What a re-drive produced.
struct Redrive {
    result: RunResult,
    /// The network's cumulative counters.
    totals: EpochReport,
    /// Host seconds of set-up and of the stepping loop.
    setup_s: f64,
    step_s: f64,
}

/// Adds one epoch's counters of an app into its run total, as
/// `run_design` does, for the fields a `RunResult` reads.
fn merge(a: &mut EpochCounters, s: &EpochCounters) {
    a.requests += s.requests;
    a.delivered += s.delivered;
    a.net_lat_sum += s.net_lat_sum;
    a.queue_lat_sum += s.queue_lat_sum;
    a.hops_sum += s.hops_sum;
}

/// `run_design`'s set-up and loop, call by call, with a span around each
/// call into a layer. Set-up goes through the public parts of
/// `Design::build`'s Adapt-NoC arm, so that the topology and the network
/// get spans of their own. With `pool`, the network steps on it.
fn redrive(
    rc: &RunConfig,
    mut pool: Option<&mut StepPool>,
    tr: &mut impl Tracer,
) -> Result<Redrive, String> {
    let t0 = Instant::now();
    let inp = inputs(tr)?;
    let (layout, profiles) = (&inp.layout, &inp.profiles);
    let cfg = KIND.sim_config();
    let ctl = tr.span("core.build", || {
        AdaptController::new(layout.clone(), inp.policies(), cfg.clone(), rc.seed)
    });
    let spec = tr
        .span("topology.build", || ctl.initial_spec())
        .map_err(|e| e.to_string())?;
    let net = tr
        .span("sim.build", || Network::new(spec, cfg))
        .map_err(|e| e.to_string())?;
    let mut design = Design {
        kind: KIND,
        layout: layout.clone(),
        net,
        runtime: DesignRuntime::Adapt(Box::new(ctl)),
    };
    let mut wl = Workload::new(layout, profiles, rc.seed ^ 0x9e37_79b9);
    wl.set_endless();
    let model = EnergyModel::new(design.net.config());
    let setup_s = secs(t0);

    let t1 = Instant::now();
    let mut watchdog = HarnessWatchdog::from_env();
    let mut acc = vec![EpochCounters::default(); wl.apps.len()];
    let mut energy = EnergyBreakdown::default();
    let mut measured_cycles = 0;
    for cycle in 1..=cycles(rc) {
        tr.span("workloads.tick", || wl.tick(&mut design.net));
        tr.span("sim.step", || match pool.as_deref_mut() {
            Some(p) => design.net.step_parallel(p),
            None => design.net.step(),
        });
        tr.span("core.tick", || design.tick())
            .map_err(|e| e.to_string())?;
        if let Some(stall) = tr.span("bench.watchdog", || watchdog.observe(&mut design.net)) {
            return Err(format!("watchdog: {stall}"));
        }
        if cycle % rc.epoch_cycles == 0 {
            for (a, app) in acc.iter_mut().zip(&wl.apps) {
                merge(a, &app.epoch);
            }
            let (report, telemetry) = tr.span("power.epoch", || {
                let (report, telemetry) = wl.epoch_telemetry(&mut design.net, layout, &model);
                energy.accumulate(&model.energy(&report));
                (report, telemetry)
            });
            measured_cycles += report.static_cycles.cycles;
            tr.span("core.on_epoch", || design.on_epoch(&report, &telemetry))
                .map_err(|e| e.to_string())?;
        }
    }
    let step_s = secs(t1);

    let delivered: u64 = acc.iter().map(|e| e.delivered).sum();
    let wsum = |f: fn(&EpochCounters) -> f64| {
        if delivered == 0 {
            return 0.0;
        }
        acc.iter().map(|e| f(e) * e.delivered as f64).sum::<f64>() / delivered as f64
    };
    let ctl = design.controller().ok_or("no Adapt-NoC controller")?;
    let result = RunResult {
        design: KIND,
        cycles: measured_cycles,
        network_latency: wsum(EpochCounters::avg_network_latency),
        queuing_latency: wsum(EpochCounters::avg_queuing_latency),
        hops: wsum(EpochCounters::avg_hops),
        energy,
        execution_time: None,
        apps: wl
            .apps
            .iter()
            .zip(&acc)
            .map(|(app, e)| AppMetrics {
                name: app.profile.name.to_string(),
                network_latency: e.avg_network_latency(),
                queuing_latency: e.avg_queuing_latency(),
                hops: e.avg_hops(),
                delivered: e.delivered,
                requests: e.requests,
            })
            .collect(),
        selections: Some(
            (0..ctl.regions.len())
                .map(|i| ctl.selection_breakdown(i))
                .collect(),
        ),
        reconfigs: ctl.regions.iter().map(|r| r.reconfig_count).sum(),
    };
    Ok(Redrive {
        result,
        totals: design.net.totals(),
        setup_s,
        step_s,
    })
}

fn check_result(out: &mut Outcome, r: &RunResult) {
    out.digests.push(result_digest(r));
    out.check(r.apps.iter().any(|a| a.delivered > 0), || {
        "paper_chip delivered no packets".into()
    });
    out.check(requests(r) > 0, || "paper_chip issued no requests".into());
}

/// Timed run: operations until `args.seconds` are spent, tracing off.
pub fn timed(args: &Args) -> Outcome {
    let rc = run_config(args.seed, args.mini);
    let mut out = Outcome::default();
    let ops = out.repeat(args.seconds, 3, || operation(&rc));
    for (_, r, _) in &ops {
        check_result(&mut out, r);
    }
    let setup: Vec<f64> = ops.iter().map(|o| o.0).collect();
    let wall: Vec<f64> = ops.iter().map(|o| o.2).collect();
    eprintln!("samples: setup_s {setup:.4?} wall_s {wall:.4?}");
    out.metric("sim_kcps", cycles(&rc) as f64 / 1e3 / median(&wall), "kc/s");
    out.metric("setup_s", trimmed_mean(&setup), "s");
    out.metric("wall_s", median(&wall), "s");
    out
}

/// Traced run: one untimed `run_design` operation as the reference, one
/// traced serial re-drive (the per-layer figures) and one traced
/// re-drive on a 2-worker `StepPool` for `par.speedup`. Both re-drives
/// must reproduce the reference's `RunResult` bit for bit.
pub fn traced(args: &Args) -> Outcome {
    let rc = run_config(args.seed, args.mini);
    let mut out = Outcome::default();
    let mut tr = On::default();
    let mut tr_par = On::default();
    let mut pool = StepPool::new(2);
    let reference = out.attempt(|| operation(&rc));
    let serial = out.attempt(|| redrive(&rc, None, &mut tr));
    let parallel = out.attempt(|| redrive(&rc, Some(&mut pool), &mut tr_par));
    let (Some(reference), Some(serial), Some(parallel)) = (reference, serial, parallel) else {
        return out;
    };
    for r in [&reference.1, &serial.result, &parallel.result] {
        check_result(&mut out, r);
    }
    out.check(
        serial.result == reference.1 && parallel.result == reference.1,
        || "paper_chip re-drive does not reproduce run_design's RunResult".into(),
    );
    out.check(
        totals_digest(&serial.totals) == totals_digest(&parallel.totals),
        || "paper_chip serial and 2-worker stepping differ".into(),
    );
    eprintln!("paper_chip traced spans (serial):\n{}", tr.table());

    let t = &serial.totals;
    let kcps = |s: f64| cycles(&rc) as f64 / 1e3 / s;
    let step = tr.get("sim.step");
    out.metric(
        "workloads.tick_ns",
        tr.get("workloads.tick").mean_ns(),
        "ns",
    );
    out.metric(
        "workloads.requests",
        requests(&serial.result) as f64,
        "count",
    );
    out.metric("sim.step_ns", step.mean_ns(), "ns");
    out.metric(
        "sim.ns_per_flit_hop",
        step.total_ns as f64 / t.events.link_flit_hops.max(1) as f64,
        "ns",
    );
    crate::sim_counts(&mut out, t);
    out.metric(
        "par.speedup",
        step.total_ns as f64 / tr_par.get("sim.step").total_ns.max(1) as f64,
        "x",
    );
    out.metric(
        "sim.build_s",
        tr.get("sim.build").total_ns as f64 / 1e9,
        "s",
    );
    out.metric(
        "topology.build_s",
        tr.get("topology.build").total_ns as f64 / 1e9,
        "s",
    );
    out.metric(
        "core.build_s",
        tr.get("core.build").total_ns as f64 / 1e9,
        "s",
    );
    out.metric("core.tick_ns", tr.get("core.tick").mean_ns(), "ns");
    out.metric(
        "core.on_epoch_us",
        tr.get("core.on_epoch").mean_ns() / 1e3,
        "us",
    );
    out.metric("core.reconfigs", serial.result.reconfigs as f64, "count");
    out.metric("core.rl_inferences", t.events.rl_inferences as f64, "count");
    out.metric("rl.train_s", tr.get("rl.train").total_ns as f64 / 1e9, "s");
    out.metric(
        "power.epoch_us",
        tr.get("power.epoch").mean_ns() / 1e3,
        "us",
    );
    crate::trace_metrics(
        &mut out,
        kcps(reference.2),
        kcps(serial.step_s),
        &tr,
        serial.setup_s + serial.step_s,
        true,
    );
    out
}
