//! Integration tests of the simulated kernel world: hardware effects
//! (ring overflow, wire utilization, CPU accounting) and cross-group
//! isolation that the paper's evaluation relies on.

use amoeba_core::{GroupConfig, GroupId, Method};
use amoeba_kernel::{CostModel, SimWorld, Workload};
use amoeba_net::HostId;
use amoeba_sim::SimDuration;

fn build(members: usize, config: &GroupConfig, seed: u64) -> SimWorld {
    let mut w = SimWorld::new(CostModel::mc68030_ether10(), seed);
    let group = GroupId(1);
    for _ in 0..members {
        w.add_node();
    }
    w.create_group(0, group, config.clone());
    for n in 1..members {
        w.join_group(n, group, config.clone());
    }
    w.run_until_ready();
    w
}

#[test]
fn large_message_fanin_degrades_through_loss_recovery() {
    // The paper attributes the ≥4-KB collapse to the Lance's 32 buffers;
    // in this model the wire itself serializes large frames slower than
    // the interrupt path drains them, so the collapse manifests through
    // the sibling mechanisms: saturated sequencer CPU, send timeouts,
    // and retransmission traffic. The *observable* — throughput falls
    // as 4-KB senders are added — is asserted by the fig4 harness; here
    // we assert the recovery machinery visibly engaged.
    let config = GroupConfig { method: Method::Pb, ..GroupConfig::paper() };
    let mut w = build(14, &config, 5);
    for n in 0..14 {
        w.set_workload(n, Workload::Sender { size: 4_096, remaining: u64::MAX });
    }
    w.kick();
    w.run_for(SimDuration::from_secs(5));
    let retries: u64 = (0..14)
        .filter_map(|n| w.sim.world.nodes[n].core.as_ref())
        .map(|c| c.stats.send_retries)
        .sum();
    let aborts: u64 =
        (0..14).map(|n| w.sim.world.net.host(HostId(n)).nic.stats.tx_aborted).sum();
    let drops = w.sim.world.nodes[0].core.as_ref().expect("seq").stats.flow_control_drops;
    assert!(
        retries + aborts + drops > 0,
        "under 4-KB fan-in some loss-recovery path must engage \
         (retries={retries} aborts={aborts} flow_drops={drops})"
    );
    // The protocol survives: messages keep completing.
    assert!(w.sim.world.metrics.sends_ok.get() > 100);
}

#[test]
fn ack_implosion_without_stagger_causes_loss_and_recovery() {
    // §2.2's ack-implosion argument, demonstrated: disable the status
    // stagger and have 29 members answer one sync round simultaneously.
    // The burst saturates the receiver (ring pinned at its cap) and the
    // wire (collision storm); Ethernet's exponential backoff spreads
    // the survivors out, and the protocol completes every send anyway.
    let config = GroupConfig {
        method: Method::Pb,
        status_stagger_us: 0, // everyone answers a sync round at once
        sync_interval_us: 200_000,
        ..GroupConfig::paper()
    };
    let net_config =
        amoeba_net::NetConfig { rx_ring_cap: 8, ..amoeba_net::NetConfig::ether_10mbps() };
    let mut w = SimWorld::with_net_config(CostModel::mc68030_ether10(), net_config, 55);
    let group = GroupId(1);
    for _ in 0..30 {
        w.add_node();
    }
    w.create_group(0, group, config.clone());
    for n in 1..30 {
        w.join_group(n, group, config.clone());
    }
    w.run_until_ready();
    w.set_workload(29, Workload::Sender { size: 0, remaining: 2_000 });
    w.kick();
    w.run_for(SimDuration::from_secs(10));
    let seq_nic = w.sim.world.net.host(HostId(0)).nic.stats;
    assert_eq!(
        seq_nic.rx_ring_peak, 8,
        "the burst must fill the sequencer's receive ring to its cap"
    );
    let collisions = w.sim.world.net.medium.stats.collisions;
    assert!(
        collisions > 1_000,
        "29 simultaneous repliers × 36 rounds must collide massively (got {collisions})"
    );
    // And the protocol shrugs it off: every send still completes.
    assert_eq!(w.sim.world.metrics.sends_ok.get(), 2_000);
}

#[test]
fn zero_byte_traffic_never_overflows_the_ring() {
    let config = GroupConfig { method: Method::Pb, ..GroupConfig::paper() };
    let mut w = build(8, &config, 6);
    for n in 0..8 {
        w.set_workload(n, Workload::Sender { size: 0, remaining: u64::MAX });
    }
    w.kick();
    w.run_for(SimDuration::from_secs(3));
    let seq_nic = &w.sim.world.net.host(HostId(0)).nic.stats;
    assert_eq!(
        seq_nic.rx_overflow, 0,
        "one-packet messages drain faster than they arrive"
    );
}

#[test]
fn sequencer_cpu_is_the_hot_spot_under_load() {
    let config = GroupConfig { method: Method::Pb, ..GroupConfig::paper() };
    let mut w = build(6, &config, 7);
    for n in 0..6 {
        w.set_workload(n, Workload::Sender { size: 0, remaining: u64::MAX });
    }
    w.kick();
    w.run_for(SimDuration::from_secs(3));
    let busy = |n: usize| w.sim.world.net.host(HostId(n)).cpu.stats.busy_us;
    let seq = busy(0);
    for n in 1..6 {
        assert!(
            seq > busy(n),
            "the sequencer (host0: {seq} µs) must out-work member {n} ({} µs)",
            busy(n)
        );
    }
    // And it should be near saturation — that's the 815/s story.
    let elapsed = w.now().as_micros();
    assert!(
        seq as f64 / elapsed as f64 > 0.8,
        "sequencer CPU only {:.0}% busy under full load",
        100.0 * seq as f64 / elapsed as f64
    );
}

#[test]
fn disjoint_groups_do_not_cross_deliver() {
    let config = GroupConfig { method: Method::Pb, ..GroupConfig::paper() };
    let mut w = SimWorld::new(CostModel::mc68030_ether10(), 8);
    for _ in 0..4 {
        w.add_node();
    }
    w.create_group(0, GroupId(1), config.clone());
    w.join_group(1, GroupId(1), config.clone());
    w.create_group(2, GroupId(2), config.clone());
    w.join_group(3, GroupId(2), config.clone());
    w.run_until_ready();
    w.set_workload(1, Workload::Sender { size: 0, remaining: 20 });
    w.kick();
    w.run_for(SimDuration::from_secs(2));
    assert!(w.sim.world.nodes[0].stats.deliveries >= 20, "group 1 delivers");
    // Group 2's members share the wire but hear nothing of group 1's
    // messages (their only deliveries are their own join events).
    assert!(w.sim.world.nodes[2].stats.deliveries <= 1);
    assert!(w.sim.world.nodes[3].stats.deliveries <= 1);
}

#[test]
fn shared_wire_contention_slows_both_groups() {
    let config = GroupConfig { method: Method::Pb, ..GroupConfig::paper() };
    // One group alone…
    let mut solo = build(2, &config, 9);
    for n in 0..2 {
        solo.set_workload(n, Workload::Sender { size: 1_024, remaining: u64::MAX });
    }
    solo.kick();
    solo.run_for(SimDuration::from_secs(1));
    let before = solo.snapshot_sends();
    solo.run_for(SimDuration::from_secs(3));
    let solo_rate = (solo.snapshot_sends() - before) as f64 / 3.0;

    // …versus four groups contending for the same Ethernet.
    let mut crowd = SimWorld::new(CostModel::mc68030_ether10(), 9);
    for _ in 0..8 {
        crowd.add_node();
    }
    for g in 0..4 {
        let gid = GroupId(1 + g as u64);
        crowd.create_group(g * 2, gid, config.clone());
        crowd.join_group(g * 2 + 1, gid, config.clone());
    }
    crowd.run_until_ready();
    for n in 0..8 {
        crowd.set_workload(n, Workload::Sender { size: 1_024, remaining: u64::MAX });
    }
    crowd.kick();
    crowd.run_for(SimDuration::from_secs(1));
    let before = crowd.snapshot_sends();
    crowd.run_for(SimDuration::from_secs(3));
    let crowd_total = (crowd.snapshot_sends() - before) as f64 / 3.0;
    let per_group = crowd_total / 4.0;
    assert!(
        per_group < solo_rate,
        "sharing the wire must cost each group something: {per_group:.0}/s \
         per group vs {solo_rate:.0}/s alone"
    );
    assert!(
        crowd_total > solo_rate,
        "but aggregate throughput still grows with more groups"
    );
    assert!(crowd.utilization() > 0.2, "the wire should be visibly busy");
}

#[test]
fn mixed_workloads_share_a_host_cleanly() {
    // RPC traffic and group traffic coexist on one wire.
    let config = GroupConfig { method: Method::Pb, ..GroupConfig::paper() };
    let mut w = SimWorld::new(CostModel::mc68030_ether10(), 10);
    for _ in 0..4 {
        w.add_node();
    }
    w.create_group(0, GroupId(1), config.clone());
    w.join_group(1, GroupId(1), config);
    let server_addr = w.sim.world.nodes[3].addr;
    w.set_workload(3, Workload::RpcEcho);
    w.run_until_ready();
    w.set_workload(1, Workload::Sender { size: 0, remaining: 200 });
    w.set_workload(2, Workload::RpcPinger { size: 0, remaining: 200, server: server_addr });
    w.kick();
    w.run_for(SimDuration::from_secs(5));
    assert_eq!(w.sim.world.metrics.sends_ok.get(), 200);
    assert_eq!(w.sim.world.nodes[2].stats.rpcs_ok, 200);
}
