//! Active-set scheduling under the strict invariant guard.
//!
//! `Network::step()` walks worklists of busy routers, channels, pending
//! wakes and NI injection ports, and caches the static-power counts
//! behind a dirty flag. Under `GuardMode::Strict` the network checks after
//! every cycle that no worklist leaves out a component that would act and
//! that the static cache equals a recount (the `Worklist` invariant
//! family), and panics on the first violation. These tests drive seeded
//! workloads — random traffic plus power gating, channel faults, router
//! failures and blocked-packet purges — through strictly guarded networks.

mod common;

use adaptnoc_sim::prelude::*;
use common::{mesh_spec, random_script, run_script, Action, ScriptHistory};

/// Runs `script` on a fresh strictly guarded network and checks that the
/// guard really swept every cycle.
fn run_guarded(spec: NetworkSpec, script: &[(u64, Action)], cycles: u64) -> ScriptHistory {
    let mut net = Network::new(spec, SimConfig::baseline()).unwrap();
    net.set_guard_mode(GuardMode::Strict);
    let history = run_script(net, script, cycles);
    let health = history.1.health;
    assert_eq!(health.checks, cycles, "strict guard skipped cycles");
    assert_eq!(health.violations, 0);
    history
}

fn check_worklists(seed: u64, with_faults: bool) {
    let mut rng = Rng::seed_from_u64(seed);
    let (w, h) = (rng.random_range(2, 5), rng.random_range(2, 5));
    let spec = mesh_spec(w, h);
    let channels = spec.channels.len();
    let script = random_script(&mut rng, w * h, channels, with_faults);
    run_guarded(spec, &script, 1_500);
}

/// Healthy networks: traffic plus power gating.
#[test]
fn worklists_stay_exact_healthy() {
    for seed in 0..24u64 {
        check_worklists(0xAC71FE00 + seed, false);
    }
}

/// Faulted networks: traffic, gating, channel faults, router failures and
/// purges.
#[test]
fn worklists_stay_exact_with_faults() {
    for seed in 0..24u64 {
        check_worklists(0xFA017ED0 + seed, true);
    }
}

/// A saturating all-to-all burst keeps every worklist busy at once.
#[test]
fn worklists_stay_exact_under_saturation() {
    let spec = mesh_spec(4, 4);
    let mut script = Vec::new();
    for cycle in 0..64u64 {
        for s in 0..16u16 {
            script.push((
                cycle,
                Action::Inject {
                    src: s,
                    dst: (s + 7) % 16,
                    reply: s % 2 == 0,
                },
            ));
        }
    }
    let (_, _, _, in_flight) = run_guarded(spec, &script, 3_000);
    assert_eq!(in_flight, 0, "burst must fully drain");
}
