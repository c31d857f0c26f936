//! Scripted faults are plain data: a `.scn` fault event compiles to the
//! same `FaultSchedule` — and the runner produces the same packet trace —
//! as a hand-built [`ExecPlan`] with the equivalent schedule. Same
//! "two constructions, identical observable history" shape as the sim
//! crate's equivalence suites.

use adaptnoc_faults::schedule::{FaultEvent, FaultKind, FaultSchedule};
use adaptnoc_scenario::prelude::*;
use adaptnoc_sim::config::SimConfig;
use adaptnoc_sim::ids::RouterId;
use adaptnoc_topology::chip::mesh_chip;
use adaptnoc_topology::geom::{Grid, Rect};
use adaptnoc_workloads::open::{Arrival, DestPattern, RateShape, TrafficSpec};

fn hand_built_plan() -> ExecPlan {
    let grid = Grid::new(4, 4);
    let spec = mesh_chip(grid, &SimConfig::baseline()).unwrap();
    let key = |from: u16, to: u16| {
        spec.channels
            .iter()
            .find(|c| c.src.router.0 == from && c.dst.router.0 == to)
            .map(|c| c.key())
            .expect("adjacent routers share a channel")
    };
    ExecPlan {
        grid,
        seed: 9,
        warmup: 1_000,
        duration: 6_000,
        epoch: 2_000,
        regions: Vec::new(),
        fabric: None,
        faults: FaultSchedule::new(vec![
            FaultEvent {
                at: 2_000,
                kind: FaultKind::TransientLink {
                    key: key(1, 2),
                    duration: 800,
                },
            },
            FaultEvent {
                at: 4_000,
                kind: FaultKind::PermanentRouter {
                    router: RouterId(10),
                },
            },
        ]),
        traffic: vec![TrafficEvent {
            at: 0,
            rect: Rect::new(0, 0, 4, 4),
            spec: TrafficSpec {
                rate: 0.1,
                arrival: Arrival::Poisson,
                dest: DestPattern::Uniform,
                shape: RateShape::Constant,
            },
            sweep_load: false,
        }],
        reconfigs: Vec::new(),
        sweep: None,
    }
}

const SRC: &str = "grid 4 4; seed 9; warmup 1K; duration 6K; epoch 2K;\n\
                   t=0 uniform load 0.1 poisson;\n\
                   t=2K glitch link 1 -> 2 for 800;\n\
                   t=4K kill router 10;";

#[test]
fn scripted_faults_compile_to_the_hand_built_schedule() {
    let plan = compile(&parse(SRC).unwrap()).unwrap();
    assert_eq!(plan, hand_built_plan());
}

#[test]
fn scripted_and_hand_built_plans_produce_identical_traces() {
    let opts = RunOptions {
        trace_capacity: 1 << 16,
        ..RunOptions::default()
    };
    let scripted = run(&compile(&parse(SRC).unwrap()).unwrap(), &opts).unwrap();
    let hand = run(&hand_built_plan(), &opts).unwrap();
    assert!(!scripted.trace.is_empty(), "the run must trace packets");
    assert_eq!(
        scripted.trace, hand.trace,
        "event-for-event identical packet histories"
    );
    assert_eq!(scripted, hand, "identical outcomes, epochs included");
}

/// A loaded 4x4 chip that loses a link and then a router: every fault
/// purge, and the blocked-traffic reaping that runs each cycle once a node
/// is disconnected, shows in the packet trace.
const ROUTER_KILL: &str = "grid 4 4; seed 3; warmup 1K; duration 5K; epoch 1K;\n\
                           t=0 uniform load 0.15 poisson;\n\
                           t=1500 kill link 5 -> 6;\n\
                           t=2500 kill router 10;";

/// FNV-1a over the text of a value's `Debug` form.
fn digest(value: &impl std::fmt::Debug) -> u64 {
    format!("{value:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

#[test]
fn router_kill_trace_is_pinned() {
    let opts = RunOptions {
        trace_capacity: 1 << 20,
        ..RunOptions::default()
    };
    let out = run(&compile(&parse(ROUTER_KILL).unwrap()).unwrap(), &opts).unwrap();
    assert_eq!(out.faults.routers_fired, 1);
    assert!(out.faults.retries_queued > 0, "the faults NACKed traffic");
    assert!(out.drops > 0, "the dead router's traffic was dropped");
    // The fault path's bookkeeping may be re-engineered, but what it does
    // to packets must not change: these digests pin the exact trace and
    // outcome.
    assert_eq!(
        (out.trace.len(), digest(&out.trace), digest(&out)),
        (113_738, 0x29f0_760d_bb42_0e81, 0x7cfb_35f2_b349_6a93)
    );
}
