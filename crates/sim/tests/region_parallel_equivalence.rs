//! Region-parallel stepping vs. the serial stepper: the observable history
//! — delivered packets, aggregate statistics, the full trace stream, and
//! the in-flight count — must be **byte-identical at every thread count**,
//! under power gating, channel faults, router failures, purges, and
//! mid-run structural reconfiguration.
//!
//! This is the determinism contract of [`adaptnoc_sim::par`]: bands defer
//! their side effects into per-band sinks and merge them in ascending band
//! order, so parallelism is an implementation detail that no observer can
//! detect.

mod common;

use adaptnoc_sim::prelude::*;
use common::{
    mesh_spec, mesh_spec_yx, random_script, run_script, run_script_parallel, run_script_stepped,
};

const W: usize = 4;
const H: usize = 4;
const CYCLES: u64 = 900;

fn net(spec: &NetworkSpec) -> Network {
    Network::new(spec.clone(), SimConfig::baseline()).expect("valid mesh spec")
}

#[test]
fn parallel_matches_serial_across_thread_counts() {
    let spec = mesh_spec(W, H);
    let mut rng = Rng::seed_from_u64(0xBA2D);
    for _case in 0..6 {
        let script = random_script(&mut rng, W * H, spec.channels.len(), true);
        let serial = run_script(net(&spec), &script, CYCLES);
        for threads in [1usize, 2, 4] {
            let parallel = run_script_parallel(net(&spec), &script, CYCLES, threads);
            assert_eq!(
                serial.0, parallel.0,
                "delivered packets diverged at {threads} threads"
            );
            assert_eq!(serial.1, parallel.1, "report diverged at {threads} threads");
            assert_eq!(serial.2, parallel.2, "trace diverged at {threads} threads");
            assert_eq!(
                serial.3, parallel.3,
                "in-flight count diverged at {threads} threads"
            );
        }
    }
}

/// The XY -> YX swap also exercises lookahead route invalidation: a head
/// flit carries the output port resolved one hop upstream, stamped with
/// the routing-table epoch, and the swap bumps the epoch. In debug builds
/// route computation asserts every honoured carried port against a live
/// table walk, so a stale port surviving the swap fails these runs. The
/// scripts of seed `0x10CB` have such heads in flight at the swap.
#[test]
fn parallel_matches_serial_with_midrun_reconfig() {
    let spec = mesh_spec(W, H);
    let target = mesh_spec_yx(W, H);
    for seed in [0x51CA, 0x10CB] {
        let mut rng = Rng::seed_from_u64(seed);
        for _case in 0..4 {
            let script = random_script(&mut rng, W * H, spec.channels.len(), true);
            let reconfig_at = 200 + 100 * (rng.random_below(4) as u64);
            let serial = run_script_stepped(
                net(&spec),
                &script,
                CYCLES,
                Some((reconfig_at, target.clone())),
                |n| n.step(),
            );
            for threads in [2usize, 4] {
                let mut pool = StepPool::new(threads);
                let parallel = run_script_stepped(
                    net(&spec),
                    &script,
                    CYCLES,
                    Some((reconfig_at, target.clone())),
                    move |n| n.step_parallel(&mut pool),
                );
                assert_eq!(
                    serial, parallel,
                    "history diverged at {threads} threads with reconfig at {reconfig_at}"
                );
            }
        }
    }
}

#[test]
fn custom_region_map_preserves_equivalence() {
    let spec = mesh_spec(W, H);
    let mut rng = Rng::seed_from_u64(0x4E61);
    let script = random_script(&mut rng, W * H, spec.channels.len(), true);
    let serial = run_script(net(&spec), &script, CYCLES);
    // A deliberately lopsided band split: 3 routers vs 13.
    let mut pool = StepPool::new(2);
    pool.set_regions(Some(RegionMap::from_bounds(vec![0, 3, W * H])));
    let parallel = run_script_stepped(net(&spec), &script, CYCLES, None, move |n| {
        n.step_parallel(&mut pool)
    });
    assert_eq!(serial, parallel, "lopsided band split changed the history");
}

/// A pool may plan fewer bands than it has workers (a region map with
/// fewer bands, or a smaller network). Workers left without a band in a
/// cycle must not merge the state of a band they ran earlier. The plan
/// alternates every cycle between four even bands and a two-band map; the
/// strict guard stops the run at the first duplicated worklist entry.
#[test]
fn shrinking_the_band_plan_mid_run_preserves_equivalence() {
    let spec = mesh_spec(W, H);
    let mut rng = Rng::seed_from_u64(0x4E62);
    let script = random_script(&mut rng, W * H, spec.channels.len(), true);
    let guarded = || {
        let mut n = net(&spec);
        n.set_guard_mode(GuardMode::Strict);
        n
    };
    let serial = run_script(guarded(), &script, CYCLES);
    let mut pool = StepPool::new(4);
    let two_bands = RegionMap::from_bounds(vec![0, 8, W * H]);
    let mut cycle = 0u64;
    let parallel = run_script_stepped(guarded(), &script, CYCLES, None, move |n| {
        cycle += 1;
        pool.set_regions(cycle.is_multiple_of(2).then(|| two_bands.clone()));
        n.step_parallel(&mut pool)
    });
    assert_eq!(
        serial, parallel,
        "shrinking the band plan changed the history"
    );
}
