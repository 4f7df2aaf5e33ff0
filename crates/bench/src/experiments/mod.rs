//! The experiments, one per table/figure of the paper's §4, plus the
//! two that go beyond it (`batch_sweep`, `shard_scale`).
//!
//! Shared conventions (from the paper): all members on one quiet
//! 10 Mbit/s Ethernet; message sizes 0, 1024, 2048, 4096 and 8000
//! bytes (8000 is the implementation's cap, pending multicast flow
//! control); history buffer of 128 messages; failure-free runs;
//! the sender of delay experiments runs on a different processor than
//! the sequencer.

mod ablation;
mod batch_sweep;
mod delay;
mod parallel;
mod rpc;
mod shard_scale;
mod table3;
mod throughput;

pub use ablation::ablation_method_switch;
pub use batch_sweep::batch_sweep;
pub use delay::{fig1_delay_pb, fig3_delay_bb, fig7_delay_resilience};
pub use parallel::fig6_parallel_groups;
pub use rpc::rpc_baseline;
pub use shard_scale::shard_scale;
pub use table3::table3_breakdown;
pub use throughput::{fig4_throughput_pb, fig5_throughput_bb, fig8_throughput_resilience};

use amoeba_core::{GroupConfig, GroupId, Method};
use amoeba_kernel::{Admission, SimWorld, Workload};
use amoeba_sim::SimDuration;

use crate::report::{Figure, Scale};

/// The paper's message-size sweep.
pub const SIZES: [u32; 5] = [0, 1024, 2048, 4096, 8000];

/// Builds one group of `members` nodes (node 0 creates and sequences;
/// the rest join) and waits for formation.
pub(crate) fn build_group(members: usize, config: &GroupConfig, seed: u64) -> SimWorld {
    let group = [(GroupId(1), (0..members).collect(), config.clone())];
    SimWorld::formed(seed, members, Admission::Immediate, &group)
}

/// Group configuration for an experiment: pinned method, resilience r.
pub(crate) fn config(method: Method, resilience: u32) -> GroupConfig {
    GroupConfig { method, resilience, ..GroupConfig::paper() }
}

/// Measures mean `SendToGroup` delay (µs): one sender (the last node,
/// which is never the sequencer for groups ≥ 2), `scale.sends()`
/// messages of `size` bytes, everyone else receiving.
pub(crate) fn measure_delay(
    members: usize,
    size: u32,
    method: Method,
    resilience: u32,
    scale: Scale,
    seed: u64,
) -> f64 {
    let mut w = build_group(members, &config(method, resilience), seed);
    let sender = members - 1;
    let sends = scale.sends();
    w.set_workload(sender, Workload::Sender { size, remaining: sends });
    w.kick();
    // Generous budget: even 8000-byte resilient sends stay well under
    // 100 ms each.
    w.run_for(SimDuration::from_micros(sends * 100_000 + 1_000_000));
    assert_eq!(
        w.sim.world.metrics.sends_ok.get(),
        sends,
        "delay run must complete all sends (members={members} size={size} r={resilience})"
    );
    // Median: the paper measured 10,000 repetitions on an "almost quiet"
    // network, so its reported delays carry no retransmission-timeout
    // outliers; the median removes the rare collision-cascade drop that
    // our (busier) simulated formation traffic can leave behind.
    w.sim.world.metrics.send_delay_us.median()
}

/// Measures group throughput (completed broadcasts/second): `senders`
/// members all sending `size`-byte messages continuously (the paper's
/// "all members of a given group continuously call SendToGroup").
pub(crate) fn measure_throughput(
    senders: usize,
    size: u32,
    method: Method,
    resilience: u32,
    scale: Scale,
    seed: u64,
) -> f64 {
    measure_throughput_cfg(senders, size, config(method, resilience), scale, seed)
}

/// [`measure_throughput`] with a fully explicit configuration (the
/// batching experiments sweep knobs beyond method/resilience).
pub(crate) fn measure_throughput_cfg(
    senders: usize,
    size: u32,
    cfg: GroupConfig,
    scale: Scale,
    seed: u64,
) -> f64 {
    let mut w = build_group(senders, &cfg, seed);
    for n in 0..senders {
        w.set_workload(n, Workload::Sender { size, remaining: u64::MAX });
    }
    w.measure_window(scale.warmup(), scale.window()).rate
}

/// Canonical experiment ids, in paper order — the single source the
/// `figures` binary and [`all`] both iterate, so a newly registered
/// experiment cannot be silently missing from the default run or the
/// archived bench JSON.
pub const IDS: [&str; 12] = [
    "table3", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "rpc", "ablation",
    "batch_sweep", "shard_scale",
];

/// Every experiment, in paper order.
pub fn all(scale: Scale) -> Vec<Figure> {
    IDS.iter().map(|id| by_id(id, scale).expect("IDS entries are registered")).collect()
}

/// Looks up experiments by id ("fig1", …, "table3", "rpc").
pub fn by_id(id: &str, scale: Scale) -> Option<Figure> {
    Some(match id {
        "table3" | "fig2" => table3_breakdown(scale),
        "fig1" => fig1_delay_pb(scale),
        "fig3" => fig3_delay_bb(scale),
        "fig4" => fig4_throughput_pb(scale),
        "fig5" => fig5_throughput_bb(scale),
        "fig6" => fig6_parallel_groups(scale),
        "fig7" => fig7_delay_resilience(scale),
        "fig8" => fig8_throughput_resilience(scale),
        "rpc" => rpc_baseline(scale),
        "ablation" => ablation_method_switch(scale),
        "batch_sweep" | "batch" => batch_sweep(scale),
        "shard_scale" => shard_scale(scale),
        _ => return None,
    })
}
