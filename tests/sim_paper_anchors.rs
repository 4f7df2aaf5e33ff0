//! Guard rails on the reproduction itself: quick simulated runs must
//! keep landing on the paper's headline numbers (within tolerance), and
//! the simulator must stay deterministic. If a refactor drifts the
//! calibration, these fail before EXPERIMENTS.md goes stale.

use amoeba::core::{GroupConfig, GroupId, Method};
use amoeba::kernel::{Admission, CostModel, SimWorld, Workload};
use amoeba::sim::SimDuration;

fn delay_world(members: usize, method: Method, resilience: u32, seed: u64) -> SimWorld {
    formed(members, &GroupConfig { method, resilience, ..GroupConfig::paper() }, seed)
}

/// One group of `members` nodes on the paper's testbed, node 0 its
/// founder and sequencer.
fn formed(members: usize, config: &GroupConfig, seed: u64) -> SimWorld {
    let group = [(GroupId(1), (0..members).collect(), config.clone())];
    SimWorld::formed(seed, members, Admission::Immediate, &group)
}

fn mean_delay(members: usize, size: u32, method: Method, r: u32, sends: u64) -> f64 {
    let mut w = delay_world(members, method, r, 7);
    w.set_workload(members - 1, Workload::Sender { size, remaining: sends });
    w.kick();
    w.run_for(SimDuration::from_micros(sends * 120_000 + 1_000_000));
    assert_eq!(w.sim.world.metrics.sends_ok.get(), sends);
    w.sim.world.metrics.send_delay_us.median()
}

#[test]
fn anchor_null_broadcast_group2_is_2_7ms() {
    let d = mean_delay(2, 0, Method::Pb, 0, 100);
    assert!((2_500.0..2_950.0).contains(&d), "paper: 2.7 ms; got {d:.0} µs");
}

#[test]
fn anchor_null_broadcast_group30_is_2_8ms() {
    let d = mean_delay(30, 0, Method::Pb, 0, 100);
    assert!((2_600.0..3_100.0).contains(&d), "paper: 2.8 ms; got {d:.0} µs");
}

#[test]
fn anchor_delay_extrapolates_gently_to_100_members() {
    // Paper: "the delay for a broadcast to a group of 100 nodes should
    // be 3.2 msec" (extrapolated at ≈ 4 µs per member).
    let d = mean_delay(100, 0, Method::Pb, 0, 50);
    assert!((2_800.0..3_600.0).contains(&d), "paper extrapolates 3.2 ms; got {d:.0} µs");
}

#[test]
fn anchor_bb_beats_pb_dramatically_at_8000_bytes() {
    let pb = mean_delay(3, 8_000, Method::Pb, 0, 30);
    let bb = mean_delay(3, 8_000, Method::Bb, 0, 30);
    assert!(
        bb < pb * 0.75,
        "paper: BB 'dramatically better' for large messages; PB {pb:.0} vs BB {bb:.0} µs"
    );
}

#[test]
fn anchor_resilience_r1_costs_about_4_2ms() {
    let d = mean_delay(2, 0, Method::Pb, 1, 60);
    assert!((4_000.0..5_100.0).contains(&d), "paper: 4.2 ms at r=1; got {d:.0} µs");
}

#[test]
fn anchor_each_ack_adds_about_600us() {
    let d4 = mean_delay(5, 0, Method::Pb, 4, 40);
    let d8 = mean_delay(9, 0, Method::Pb, 8, 40);
    let per_ack = (d8 - d4) / 4.0;
    assert!(
        (450.0..850.0).contains(&per_ack),
        "paper: ≈600 µs per acknowledgement; got {per_ack:.0} µs"
    );
}

#[test]
fn anchor_peak_throughput_near_815() {
    let config = GroupConfig { method: Method::Pb, ..GroupConfig::paper() };
    let mut w = formed(8, &config, 9);
    for n in 0..8 {
        w.set_workload(n, Workload::Sender { size: 0, remaining: u64::MAX });
    }
    let rate = w.measure_window(SimDuration::from_secs(1), SimDuration::from_secs(3)).rate;
    assert!(
        (700.0..950.0).contains(&rate),
        "paper: 815 broadcasts/s peak; got {rate:.0}"
    );
}

/// Measures 0-byte PB throughput at group size 8 under `config`,
/// returning the rate and the finished world (for stats inspection).
fn throughput_g8(config: &GroupConfig, seed: u64) -> (f64, SimWorld) {
    let mut w = formed(8, config, seed);
    for n in 0..8 {
        w.set_workload(n, Workload::Sender { size: 0, remaining: u64::MAX });
    }
    let rate = w.measure_window(SimDuration::from_secs(1), SimDuration::from_secs(2)).rate;
    (rate, w)
}

#[test]
fn batching_doubles_group8_throughput() {
    // The ISSUE 2 acceptance bar: batch 8 + window 8 must at least
    // double the sequencer-bound plateau (852 → ≈1900 msg/s here; the
    // batch_sweep experiment reports the full curve).
    let paper = GroupConfig { method: Method::Pb, ..GroupConfig::paper() };
    let preset = GroupConfig::with_batching(8);
    let (off, _) = throughput_g8(&paper, 9);
    let (on, _) = throughput_g8(
        &GroupConfig { batch: preset.batch, send_window: preset.send_window, ..paper },
        9,
    );
    assert!(
        on >= 2.0 * off,
        "batching must lift group-8 throughput ≥ 2×: off {off:.0}, on {on:.0} msg/s"
    );
}

#[test]
fn batching_off_keeps_the_seed_wire_behavior() {
    // BatchPolicy::Off is the default; the paper anchors depend on it
    // changing *nothing*. Two checks: the default path must put zero
    // batch frames on the wire, and the group-8 plateau must stay in
    // the seed-era band (852 msg/s recorded at PR 1, ±2 %).
    let (rate, w) =
        throughput_g8(&GroupConfig { method: Method::Pb, ..GroupConfig::paper() }, 9);
    for node in &w.sim.world.nodes {
        let stats = &node.core.as_ref().expect("member").stats;
        assert_eq!(stats.batches_out, 0, "default config multicast a batch frame");
        assert_eq!(stats.batched_entries, 0);
        assert_eq!(stats.req_batches_out, 0, "default config coalesced requests");
    }
    assert!(
        (835.0..870.0).contains(&rate),
        "seed-era plateau drifted: recorded 852 msg/s, got {rate:.0}"
    );
}

#[test]
fn anchor_lance_overflow_collapses_4kb_throughput() {
    let measure = |senders: usize, size: u32| {
        let config = GroupConfig { method: Method::Pb, ..GroupConfig::paper() };
        let mut w = formed(senders, &config, 11);
        for n in 0..senders {
            w.set_workload(n, Workload::Sender { size, remaining: u64::MAX });
        }
        w.measure_window(SimDuration::from_secs(1), SimDuration::from_secs(3)).rate
    };
    let few = measure(2, 4_096);
    let many = measure(14, 4_096);
    assert!(
        many < few * 0.9,
        "paper: ≥11 senders of 4 KB overflow the 32-slot Lance ring and \
         throughput drops ({few:.0}/s at 2 senders vs {many:.0}/s at 14)"
    );
}

#[test]
fn anchor_null_rpc_is_2_8ms_and_slower_than_group_send() {
    let mut w = SimWorld::new(CostModel::mc68030_ether10(), 13);
    let client = w.add_node();
    let server = w.add_node();
    let server_addr = w.sim.world.nodes[server].addr;
    w.set_workload(server, Workload::RpcEcho);
    w.set_workload(client, Workload::RpcPinger { size: 0, remaining: 100, server: server_addr });
    w.kick();
    w.run_for(SimDuration::from_secs(3));
    let rpc = w.sim.world.metrics.rpc_delay_us.median();
    assert!((2_600.0..3_100.0).contains(&rpc), "paper: 2.8 ms null RPC; got {rpc:.0} µs");
    let group = mean_delay(2, 0, Method::Pb, 0, 100);
    assert!(
        group < rpc,
        "paper: group send is (slightly) faster than RPC; {group:.0} vs {rpc:.0} µs"
    );
}

#[test]
fn simulation_is_deterministic_across_runs() {
    let run = |seed: u64| {
        let mut w = delay_world(5, Method::Pb, 0, seed);
        for n in 0..5 {
            w.set_workload(n, Workload::Sender { size: 1024, remaining: 100 });
        }
        w.kick();
        w.run_for(SimDuration::from_secs(5));
        (
            w.sim.world.metrics.sends_ok.get(),
            w.sim.world.metrics.send_delay_us.median().to_bits(),
            w.sim.events_executed(),
            w.sim.world.net.medium.stats.frames,
        )
    };
    assert_eq!(run(42), run(42), "same seed must reproduce exactly");
    assert_ne!(run(42).2, run(43).2, "different seeds should differ");
}
