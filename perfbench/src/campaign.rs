//! `fig_campaign`: `figs::mixed_campaign` at quick scale on 2 threads,
//! the data behind Figs. 7 and 10-13: DQN training, the 12-point oracle
//! grid, then the 7 designs run to completion. Many short, unequal
//! points, so per-point set-up, the slowest point and `run_indexed`
//! utilisation decide its wall time.
//!
//! The campaign is one call, so its inside is seen through a re-drive:
//! the same public calls `mixed_campaign` makes (`trained_policy`, the
//! oracle grid of `run_design` points, the design grid), timed from
//! outside. The re-drive's results must reproduce the campaign's rows
//! exactly; that proves it runs the same work and gives the campaign's
//! simulated cycles for `sim_kcps`.

use crate::common::{median, secs, trimmed_mean, Args, Digest, Outcome};
use crate::trace::{Off, On, Tracer};
use adaptnoc_bench::figs::{mixes, MixedRow};
use adaptnoc_bench::jsonrows::rows_json;
use adaptnoc_bench::prelude::*;
use adaptnoc_core::prelude::*;
use adaptnoc_topology::prelude::*;
use adaptnoc_workloads::prelude::*;
use std::time::Instant;

const THREADS: usize = 2;
/// Where `figs::trained_policy` caches the policy, relative to the
/// working directory.
const POLICY_CACHE: &str = "results/policy.json";

fn scale(seed: u64, mini: bool) -> FigScale {
    let mut s = FigScale::quick();
    s.threads = THREADS;
    s.rc.seed = seed;
    s.rc_completion.seed = seed;
    s.rc_oracle.seed = seed;
    if mini {
        s.rc_completion.max_cycles = 30_000;
        s.rc_oracle.epoch_cycles = 1_000;
        s.train.episodes = 1;
        s.train.epochs_per_episode = 1;
    }
    s
}

/// Trains as a first campaign in a clean directory would.
fn train(scale: &FigScale) -> adaptnoc_rl::dqn::TrainedPolicy {
    // An absent cache is the normal case.
    let _ = std::fs::remove_file(POLICY_CACHE);
    trained_policy(scale)
}

/// Simulated cycles of one `run_design` call.
fn point_cycles(rc: &RunConfig, r: &RunResult) -> u64 {
    if rc.run_to_completion {
        r.cycles
    } else {
        (rc.epoch_cycles * (rc.warmup_epochs + rc.epochs)).min(rc.max_cycles)
    }
}

/// Runs `f`, returning its result and host seconds.
fn clocked<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, secs(t))
}

/// What the re-drive produced.
struct Redrive {
    /// One result per `DesignKind::ALL` entry.
    results: Vec<RunResult>,
    sim_cycles: u64,
    /// Host seconds of every point, both phases.
    point_s: Vec<f64>,
    /// Host seconds of the two phases.
    phase_s: f64,
    wall_s: f64,
}

fn redrive(scale: &FigScale, tr: &mut impl Tracer) -> Result<Redrive, String> {
    let t0 = Instant::now();
    let policy = tr.span("rl.train", || train(scale));
    let layout = ChipLayout::paper_mixed();
    let profiles: Vec<AppProfile> = mixes()[0]
        .iter()
        .map(|n| by_name(n).ok_or(format!("unknown app {n}")))
        .collect::<Result<_, _>>()?;

    // Phase 1: the region x topology oracle grid of `oracle_policies_par`.
    let kinds = TopologyKind::ACTIONS;
    let rc = &scale.rc_oracle;
    let phase1 = Instant::now();
    let grid = tr.span("campaign.oracle", || {
        run_indexed(profiles.len() * kinds.len(), scale.threads, |i| {
            let (region, profile) = (&layout.regions[i / kinds.len()], &profiles[i / kinds.len()]);
            let single = ChipLayout::single(region.rect, profile.class == AppClass::Gpu);
            let policies = fixed_policies(&[kinds[i % kinds.len()]]);
            clocked(|| {
                run_design(
                    DesignKind::AdaptNocNoRl,
                    &single,
                    std::slice::from_ref(profile),
                    policies,
                    rc,
                )
            })
        })
    });
    let mut phase_s = secs(phase1);
    let mut point_s = Vec::new();
    let mut sim_cycles = 0;
    let mut oracle = Vec::new();
    for per_region in grid.chunks(kinds.len()) {
        let mut best = (f64::INFINITY, TopologyKind::Mesh);
        for (kind, (r, s)) in kinds.iter().zip(per_region) {
            let r = r.as_ref().map_err(|e| e.to_string())?;
            point_s.push(*s);
            sim_cycles += point_cycles(rc, r);
            if r.packet_latency() < best.0 {
                best = (r.packet_latency(), *kind);
            }
        }
        oracle.push(best.1);
    }

    // Phase 2: the design grid, run to completion.
    let rc = &scale.rc_completion;
    let phase2 = Instant::now();
    let designs = DesignKind::ALL;
    let grid = tr.span("campaign.points", || {
        run_indexed(designs.len(), scale.threads, |di| {
            let policies = match designs[di] {
                DesignKind::AdaptNocNoRl => fixed_policies(&oracle),
                DesignKind::AdaptNoc => (0..layout.regions.len())
                    .map(|_| TopologyPolicy::Trained(policy.clone()))
                    .collect(),
                _ => vec![],
            };
            clocked(|| run_design(designs[di], &layout, &profiles, policies, rc))
        })
    });
    phase_s += secs(phase2);
    let mut results = Vec::new();
    for (r, s) in grid {
        let r = r.map_err(|e| e.to_string())?;
        point_s.push(s);
        sim_cycles += point_cycles(rc, &r);
        results.push(r);
    }
    Ok(Redrive {
        results,
        sim_cycles,
        point_s,
        phase_s,
        wall_s: secs(t0),
    })
}

/// One campaign call from a clean policy cache: (rows digest, rows, s).
fn operation(scale: &FigScale) -> Result<(String, Vec<MixedRow>, f64), String> {
    let _ = std::fs::remove_file(POLICY_CACHE);
    let t0 = Instant::now();
    let rows = mixed_campaign(scale).map_err(|e| e.to_string())?;
    let wall = secs(t0);
    let mut d = Digest::default();
    d.add(&rows_json(&rows).to_string_compact());
    Ok((d.hex(), rows, wall))
}

/// The re-drive reproduces the rows bit for bit (one mix, so each row
/// holds its design's own figures).
fn check_redrive(out: &mut Outcome, rows: &[MixedRow], re: &Redrive) {
    let exec = |r: &RunResult| r.execution_time.unwrap_or(r.cycles) as f64;
    let base = exec(&re.results[0]);
    let same = rows.len() == re.results.len()
        && rows.iter().zip(&re.results).all(|(row, r)| {
            row.design == r.design.name()
                && row.network_latency.to_bits() == r.network_latency.to_bits()
                && row.queuing_latency.to_bits() == r.queuing_latency.to_bits()
                && row.exec_time_norm.to_bits() == (exec(r) / base).to_bits()
        });
    out.check(same, || {
        "fig_campaign re-drive does not reproduce mixed_campaign's rows".into()
    });
}

/// `trained_policy` calls from an empty cache in each batch of set-up
/// samples.
const SETUP_SAMPLES_PER_BATCH: usize = 5;

/// Timed run: one untimed re-drive (warm-up, and the campaign's
/// simulated cycles), then campaign calls until `args.seconds` are
/// spent. A batch of [`SETUP_SAMPLES_PER_BATCH`] timed policy trainings
/// (the set-up) comes before the re-drive, before each call and after
/// the last, so that set-up is sampled throughout the run.
pub fn timed(args: &Args) -> Outcome {
    let scale = scale(args.seed, args.mini);
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let sample_setup = |setup: &mut Vec<f64>| {
        for _ in 0..SETUP_SAMPLES_PER_BATCH {
            setup.push(clocked(|| train(&scale)).1);
        }
    };
    sample_setup(&mut setup);
    let Some(re) = out.attempt(|| redrive(&scale, &mut Off)) else {
        return out;
    };
    let ops = out.repeat(args.seconds, 3, || {
        sample_setup(&mut setup);
        operation(&scale)
    });
    sample_setup(&mut setup);
    for (digest, rows, _) in &ops {
        out.digests.push(digest.clone());
        check_redrive(&mut out, rows, &re);
    }
    let wall: Vec<f64> = ops.iter().map(|o| o.2).collect();
    eprintln!("samples: setup_s {setup:.4?} wall_s {wall:.4?}");
    out.metric(
        "sim_kcps",
        re.sim_cycles as f64 / 1e3 / median(&wall),
        "kc/s",
    );
    out.metric("setup_s", trimmed_mean(&setup), "s");
    out.metric("wall_s", median(&wall), "s");
    out
}

/// Traced run: one untraced campaign call (the rows to reproduce), an
/// untraced re-drive as the reference for `trace.overhead_pct`, then a
/// traced re-drive.
pub fn traced(args: &Args) -> Outcome {
    let scale = scale(args.seed, args.mini);
    let mut out = Outcome::default();
    let mut tr = On::default();
    let call = out.attempt(|| operation(&scale));
    let reference = out.attempt(|| redrive(&scale, &mut Off));
    let re = out.attempt(|| redrive(&scale, &mut tr));
    let (Some((digest, rows, _)), Some(reference), Some(re)) = (call, reference, re) else {
        return out;
    };
    out.digests.push(digest);
    check_redrive(&mut out, &rows, &reference);
    check_redrive(&mut out, &rows, &re);
    eprintln!("fig_campaign traced spans:\n{}", tr.table());

    let mut points = re.point_s.clone();
    points.sort_by(f64::total_cmp);
    out.metric("rl.train_s", tr.get("rl.train").total_ns as f64 / 1e9, "s");
    out.metric("campaign.points", points.len() as f64, "count");
    out.metric("campaign.point_s_p50", median(&points), "s");
    out.metric(
        "campaign.point_s_max",
        points.last().copied().unwrap_or(0.0),
        "s",
    );
    out.metric(
        "campaign.busy_share",
        points.iter().sum::<f64>() / (THREADS as f64 * re.phase_s),
        "ratio",
    );
    let kcps = |s: f64| re.sim_cycles as f64 / 1e3 / s;
    crate::trace_metrics(
        &mut out,
        kcps(reference.wall_s),
        kcps(re.wall_s),
        &tr,
        re.wall_s,
        false,
    );
    out
}
