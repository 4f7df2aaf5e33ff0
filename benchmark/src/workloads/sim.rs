//! `sim_1000`: the `stress_1000` shape on the discrete-event kernel —
//! one 1000-member group on one simulated Ethernet, staggered
//! admission, then four senders × 20 sends at a time. Single-threaded
//! and free of wall-clock timers: it guards the `kernel`, `sim` and
//! `net` model code, with event counts that repeat exactly.
//!
//! Set-up is building the world, forming the group and a first batch
//! of sends; the timed window repeats batches of 80 sends in the
//! formed world. An operation is one simulated `SendToGroup`; its
//! latency sample is its batch's wall time over 80.

use std::time::Duration;

use amoeba::core::{GroupConfig, GroupId};
use amoeba::kernel::{CostModel, SimWorld, Workload};
use amoeba::sim::SimDuration;

use super::{Outcome, Steady};
use crate::proc::{now_ns, Snapshot, Usage};
use crate::stats;
use crate::trace::{self, Name};

const MEMBERS: usize = 1000;
const SENDERS: usize = 4;
const SENDS_EACH: u64 = 20;
const BATCH: u64 = SENDERS as u64 * SENDS_EACH;

/// Simulator counters, read between phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counters {
    events: u64,
    sends_ok: u64,
    sends_err: u64,
    deliveries: u64,
}

fn counters(w: &SimWorld) -> Counters {
    let m = &w.sim.world.metrics;
    Counters {
        events: w.sim.events_executed(),
        sends_ok: m.sends_ok.get(),
        sends_err: m.sends_err.get(),
        deliveries: m.deliveries.get(),
    }
}

/// One batch: every sender sends its 20 messages, then the world runs
/// on until the last members have taken their interrupts. Returns the
/// counters' growth.
fn batch(w: &mut SimWorld, index: u64) -> Counters {
    let _span = trace::span(Name::KernelRun, index);
    let before = counters(w);
    for s in 0..SENDERS {
        w.set_workload(
            s,
            Workload::Sender {
                size: 0,
                remaining: SENDS_EACH,
            },
        );
    }
    w.kick();
    w.run_until_apps_done(SimDuration::from_secs(30));
    w.run_for(SimDuration::from_millis(100));
    let after = counters(w);
    Counters {
        events: after.events - before.events,
        sends_ok: after.sends_ok - before.sends_ok,
        sends_err: after.sends_err - before.sends_err,
        deliveries: after.deliveries - before.deliveries,
    }
}

fn check_batch(b: &Counters, out: &mut Outcome) {
    out.attempted += BATCH;
    let missing = (BATCH * MEMBERS as u64)
        .saturating_sub(b.deliveries)
        .div_ceil(MEMBERS as u64);
    out.failed += (BATCH - b.sends_ok.min(BATCH)).max(missing);
    if b.sends_ok != BATCH || b.sends_err != 0 {
        out.violations
            .push(format!("a batch completed {}/{BATCH} sends", b.sends_ok));
    }
    if b.deliveries != BATCH * MEMBERS as u64 {
        out.violations.push(format!(
            "a batch made {} deliveries, {} members × {BATCH} sends expected",
            b.deliveries, MEMBERS
        ));
    }
}

/// The exact numbers of one set-up: equal on every set-up of a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Exact {
    formation_events: u64,
    first_batch: Counters,
    sim_us_per_send: f64,
}

struct Formed {
    world: SimWorld,
    setup_s: f64,
    formation_s: f64,
    exact: Exact,
}

fn set_up(seed: u64, out: &mut Outcome) -> Formed {
    let start_ns = now_ns();
    let mut w = {
        let _span = trace::span(Name::KernelBuild, 0);
        let config = GroupConfig::scaled_for(MEMBERS);
        let mut w = SimWorld::new(CostModel::mc68030_ether10(), seed);
        for _ in 0..MEMBERS {
            w.add_node();
        }
        w.create_group(0, GroupId(1), config.clone());
        // A thousand simultaneous joins overrun the sequencer's
        // receive ring; admission is staggered exactly as in
        // scenarios/stress_1000.toml.
        let mut at = 0u64;
        for m in 1..MEMBERS {
            at += 1_000 + 17 * m as u64;
            w.join_group_at(m, GroupId(1), config.clone(), at);
        }
        w
    };
    {
        let _span = trace::span(Name::KernelFormation, 0);
        w.run_until_ready();
        // The last admission is ordered; let its `Joined` event reach
        // every member, so a batch's deliveries are its messages only.
        w.run_for(SimDuration::from_millis(100));
    }
    let formed_ns = now_ns();
    let formation_events = w.sim.events_executed();
    let first_batch = batch(&mut w, 0);
    check_batch(&first_batch, out);
    let sim_us_per_send = w.sim.world.metrics.send_delay_us.median();
    Formed {
        setup_s: (now_ns() - start_ns) as f64 / 1e9,
        formation_s: (formed_ns - start_ns) as f64 / 1e9,
        exact: Exact {
            formation_events,
            first_batch,
            sim_us_per_send,
        },
        world: w,
    }
}

pub fn run(seed: u64, window: Duration, setups: usize) -> Outcome {
    let mut out = Outcome::default();
    let mut formed = set_up(seed, &mut out);
    out.setup_s.push(formed.setup_s);
    let mut formation_s = vec![formed.formation_s];
    for _ in 1..setups {
        let again = set_up(seed, &mut out);
        out.setup_s.push(again.setup_s);
        formation_s.push(again.formation_s);
        if again.exact != formed.exact {
            out.violations.push(format!(
                "two worlds of seed {seed} differ: {:?} then {:?}",
                formed.exact, again.exact
            ));
        }
        formed = again;
    }

    let w = &mut formed.world;
    let start = Snapshot::take();
    let start_ns = now_ns();
    let end_ns = start_ns + window.as_nanos() as u64;
    let mut rates = Vec::new();
    let mut cpu_us = Vec::new();
    let mut events = 0;
    let mut index = 1;
    loop {
        let t0 = now_ns();
        if t0 >= end_ns {
            break;
        }
        let cpu0 = crate::proc::cpu_ns();
        let b = batch(w, index);
        let wall_ns = (now_ns() - t0).max(1) as f64;
        cpu_us.push((crate::proc::cpu_ns() - cpu0) as f64 / 1e3 / BATCH as f64);
        check_batch(&b, &mut out);
        out.ops += b.sends_ok;
        events += b.events;
        rates.push(b.sends_ok as f64 / (wall_ns / 1e9));
        out.op_us.push(wall_ns / 1e3 / BATCH as f64);
        index += 1;
    }
    let end = Snapshot::take();
    out.window_s = (now_ns() - start_ns) as f64 / 1e9;
    stats::sort(&mut out.op_us);
    out.usage = Usage::between(&start, &end, out.ops);
    // A batch is this workload's block (see `Steady`).
    out.steady = Steady::from_blocks(rates, out.op_us.clone(), cpu_us).unwrap_or_default();

    let exact = formed.exact;
    let first = exact.first_batch;
    out.push_extra("kernel.formation_s", stats::median(&formation_s));
    out.push_extra(
        "kernel.events_total",
        (exact.formation_events + first.events) as f64,
    );
    out.push_extra(
        "kernel.events_per_delivery",
        first.events as f64 / first.deliveries.max(1) as f64,
    );
    out.push_extra("kernel.sim_us_per_send", exact.sim_us_per_send);
    out.push_extra(
        "kernel.events_per_s",
        events as f64 / out.window_s.max(1e-9),
    );
    out
}
