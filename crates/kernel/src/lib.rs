//! The simulated Amoeba kernel: the paper's testbed in software.
//!
//! This crate assembles the full communication stack of the paper's
//! Table 2 — group communication and RPC on top of FLIP on top of a
//! 10 Mbit/s Ethernet — onto simulated 20-MHz MC68030 hosts, charging
//! every layer's CPU time from a calibrated [`CostModel`]. The
//! evaluation harness (`amoeba-bench`) uses [`SimWorld`] to regenerate
//! every figure and table of the ICDCS '96 evaluation.
//!
//! What is faithfully modelled (because the paper's results depend on
//! it): per-layer processing costs and copies, the Lance's 32-frame
//! receive ring, CSMA/CD contention, fragmentation above one Ethernet
//! frame, the sequencer's history buffer, and blocking one-at-a-time
//! user sends (or, with a `send_window` > 1, pipelined sends and the
//! batch frames of DESIGN.md §6). What is simplified: FLIP's locate
//! (routing is static on the single segment) and cryptographic
//! addresses — neither is exercised by any experiment.
//!
//! This crate is the "simulated" half of DESIGN.md §3 (repository
//! root); the calibration it rests on is EXPERIMENTS.md.

mod cost;
mod host;
mod node;
mod payload;
mod world;

pub use cost::CostModel;
pub use host::{SimHost, SimRun};
pub use node::{NodeStats, SimNode, Workload};
pub use payload::{SimFrag, SimPacket};
pub use world::{Admission, Kernel, KernelWorld, SimWorld, Window, WorldMetrics, LINK_HEADER_LEN};

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_core::{GroupConfig, GroupId};
    use amoeba_sim::SimDuration;

    fn null_broadcast_world(members: usize) -> SimWorld {
        let group = [(GroupId(1), (0..members).collect(), GroupConfig::paper())];
        SimWorld::formed(7, members, Admission::Immediate, &group)
    }

    #[test]
    fn group_forms_and_null_send_completes() {
        let mut w = null_broadcast_world(2);
        w.set_workload(1, Workload::Sender { size: 0, remaining: 10 });
        w.kick();
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.sim.world.metrics.sends_ok.get(), 10);
        assert!(w.sim.world.nodes[0].stats.deliveries >= 10);
    }

    #[test]
    fn null_broadcast_delay_is_near_2_7_ms() {
        // The paper's headline: 2.7 ms for a group of two.
        let mut w = null_broadcast_world(2);
        w.set_workload(1, Workload::Sender { size: 0, remaining: 200 });
        w.kick();
        w.run_for(SimDuration::from_secs(2));
        let mean = w.sim.world.metrics.send_delay_us.mean();
        assert!(
            (2_400.0..3_100.0).contains(&mean),
            "expected ≈2700 µs, got {mean:.0}"
        );
    }

    #[test]
    fn delay_grows_mildly_with_group_size() {
        let mean_for = |members: usize| {
            let mut w = null_broadcast_world(members);
            let sender = members - 1;
            w.set_workload(sender, Workload::Sender { size: 0, remaining: 100 });
            w.kick();
            w.run_for(SimDuration::from_secs(2));
            w.sim.world.metrics.send_delay_us.mean()
        };
        let d2 = mean_for(2);
        let d30 = mean_for(30);
        assert!(d30 > d2, "more members, slightly more delay");
        assert!(
            d30 - d2 < 400.0,
            "the sequencer protocol is nearly flat in group size: {d2:.0} → {d30:.0}"
        );
    }

    #[test]
    fn eight_kb_messages_fragment_and_cost_much_more() {
        let mut w = null_broadcast_world(2);
        w.set_workload(1, Workload::Sender { size: 8_000, remaining: 20 });
        w.kick();
        w.run_for(SimDuration::from_secs(5));
        assert_eq!(w.sim.world.metrics.sends_ok.get(), 20);
        let mean = w.sim.world.metrics.send_delay_us.mean();
        assert!(mean > 10_000.0, "8000-byte PB messages cross the wire twice: {mean:.0}");
    }

    #[test]
    fn rpc_baseline_runs() {
        let mut w = SimWorld::new(CostModel::mc68030_ether10(), 9);
        let client = w.add_node();
        let server = w.add_node();
        let server_addr = w.sim.world.nodes[server].addr;
        w.set_workload(server, Workload::RpcEcho);
        w.set_workload(client, Workload::RpcPinger { size: 0, remaining: 50, server: server_addr });
        w.kick();
        w.run_for(SimDuration::from_secs(2));
        assert_eq!(w.sim.world.nodes[client].stats.rpcs_ok, 50);
        let mean = w.sim.world.metrics.rpc_delay_us.mean();
        assert!((2_000.0..4_000.0).contains(&mean), "null RPC ≈ 2.8 ms, got {mean:.0}");
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut w = null_broadcast_world(4);
            for n in 0..4 {
                w.set_workload(n, Workload::Sender { size: 1024, remaining: 50 });
            }
            w.kick();
            w.run_for(SimDuration::from_secs(3));
            (
                w.sim.world.metrics.sends_ok.get(),
                w.sim.world.metrics.send_delay_us.mean(),
                w.sim.events_executed(),
            )
        };
        assert_eq!(run(), run());
    }
}
