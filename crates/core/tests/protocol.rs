//! End-to-end protocol tests on a reliable virtual network: ordering,
//! membership, methods, resilience accounting and sequencer handoff.

mod common;

use amoeba_core::{GroupConfig, GroupEvent, Method};
use common::{build_group, fast_config, Done, TestNet};

#[test]
fn singleton_group_send_loops_back() {
    let mut net = TestNet::new(1, 1, 7);
    net.create_group(0, fast_config());
    net.send(0, b"solo");
    net.run_for(10_000);
    assert_eq!(net.messages_at(0), vec!["solo"]);
    assert_eq!(net.sends_completed(0), 1);
}

#[test]
fn two_member_pb_broadcast_delivers_everywhere() {
    let mut net = build_group(2, fast_config(), 1);
    net.send(1, b"hello"); // non-sequencer sender: full PB path
    net.run_for(50_000);
    assert_eq!(net.messages_at(0), vec!["hello"]);
    assert_eq!(net.messages_at(1), vec!["hello"]);
    assert_eq!(net.sends_completed(1), 1);
    net.assert_prefix_consistent(&[0, 1]);
}

#[test]
fn concurrent_senders_agree_on_total_order() {
    let mut net = build_group(5, fast_config(), 2);
    // Everyone fires at once — the sequencer decides the interleaving.
    for node in 0..5 {
        net.send(node, format!("m{node}").as_bytes());
    }
    net.run_for(200_000);
    for node in 0..5 {
        assert_eq!(net.sends_completed(node), 1, "node {node} send incomplete");
        assert_eq!(net.messages_at(node).len(), 5);
    }
    let n = net.assert_prefix_consistent(&[0, 1, 2, 3, 4]);
    assert!(n >= 5 + 4, "5 messages + 4 joins must be ordered events");
}

#[test]
fn fifo_per_sender_within_total_order() {
    let mut net = build_group(3, fast_config(), 3);
    for round in 0..10 {
        net.send(1, format!("a{round}").as_bytes());
        net.send(2, format!("b{round}").as_bytes());
        net.run_for(60_000);
    }
    for node in 0..3 {
        let msgs = net.messages_at(node);
        let a: Vec<&String> = msgs.iter().filter(|m| m.starts_with('a')).collect();
        let b: Vec<&String> = msgs.iter().filter(|m| m.starts_with('b')).collect();
        assert_eq!(a, (0..10).map(|i| format!("a{i}")).collect::<Vec<_>>().iter().collect::<Vec<_>>());
        assert_eq!(b, (0..10).map(|i| format!("b{i}")).collect::<Vec<_>>().iter().collect::<Vec<_>>());
    }
    net.assert_prefix_consistent(&[0, 1, 2]);
}

#[test]
fn bb_method_delivers_and_completes() {
    let config = GroupConfig { method: Method::Bb, ..fast_config() };
    let mut net = build_group(3, config, 4);
    net.send(1, b"big-payload");
    net.run_for(50_000);
    for node in 0..3 {
        assert_eq!(net.messages_at(node), vec!["big-payload"]);
    }
    assert_eq!(net.sends_completed(1), 1);
    net.assert_prefix_consistent(&[0, 1, 2]);
}

#[test]
fn dynamic_method_switches_by_size() {
    let config = GroupConfig {
        method: Method::Dynamic { bb_threshold: 100 },
        ..fast_config()
    };
    let mut net = build_group(3, config, 5);
    net.send(1, &[0u8; 50]); // PB
    net.run_for(50_000);
    net.send(1, &[1u8; 500]); // BB
    net.run_for(50_000);
    for node in 0..3 {
        assert_eq!(net.messages_at(node).len(), 2);
    }
    net.assert_prefix_consistent(&[0, 1, 2]);
}

#[test]
fn oversized_message_rejected() {
    let mut net = build_group(2, fast_config(), 6);
    net.send(1, &vec![0u8; 9_000]);
    net.run_for(10_000);
    assert!(matches!(
        net.last_send_result(1),
        Some(Err(amoeba_core::GroupError::MessageTooLarge { .. }))
    ));
}

#[test]
fn busy_send_rejected_while_one_outstanding() {
    // Sequencer node sends complete synchronously, so use a big latency
    // to catch node 1 mid-send.
    let mut net = build_group(2, fast_config(), 7);
    net.latency_us = 10_000;
    net.send(1, b"first");
    net.send(1, b"second"); // still outstanding
    net.run_for(100_000);
    assert!(net.done[1]
        .iter()
        .any(|d| matches!(d, Done::Send(Err(amoeba_core::GroupError::Busy)))));
    assert_eq!(net.sends_completed(1), 1);
}

#[test]
fn joins_are_totally_ordered_with_messages() {
    let config = fast_config();
    let mut net = TestNet::new(1, 4, 8);
    net.create_group(0, config.clone());
    net.join_group(1, config.clone());
    net.run_for(50_000);
    net.send(1, b"before");
    net.run_for(50_000);
    net.join_group(2, config.clone());
    net.run_for(50_000);
    net.send(1, b"after");
    net.run_for(50_000);
    net.join_group(3, config);
    net.run_for(50_000);

    // Every member's ordered log agrees on the interleaving.
    net.assert_prefix_consistent(&[0, 1]);
    // The late joiner sees only events after its join.
    let log2 = net.ordered_log(2);
    assert!(log2.iter().any(|(_, e)| e.contains("after")));
    assert!(!log2.iter().any(|(_, e)| e.contains("before")));
}

#[test]
fn member_leave_is_ordered_and_completes() {
    let mut net = build_group(3, fast_config(), 9);
    net.send(2, b"pre-leave");
    net.run_for(50_000);
    net.leave(2);
    net.run_for(50_000);
    assert!(net.done[2].iter().any(|d| matches!(d, Done::Leave(Ok(())))));
    // Remaining members observed the leave event.
    for node in [0, 1] {
        assert!(net.delivered[node]
            .iter()
            .any(|e| matches!(e, GroupEvent::Left { forced: false, .. })));
    }
    // Group still works without the departed member.
    net.send(1, b"post-leave");
    net.run_for(50_000);
    assert_eq!(net.messages_at(0).last().unwrap(), "post-leave");
    assert_eq!(net.messages_at(2).last().unwrap(), "pre-leave");
}

#[test]
fn sequencer_graceful_leave_hands_off() {
    let mut net = build_group(3, fast_config(), 10);
    net.send(1, b"one");
    net.run_for(50_000);
    net.leave(0); // the sequencer drains, hands off, then leaves
    net.run_for(300_000);
    assert!(net.done[0].iter().any(|d| matches!(d, Done::Leave(Ok(())))));
    // The lowest surviving member (1) took over.
    assert!(net.core(1).is_sequencer());
    assert!(!net.core(2).is_sequencer());
    // And the group still orders messages.
    net.send(2, b"two");
    net.run_for(100_000);
    assert_eq!(net.messages_at(1).last().unwrap(), "two");
    assert_eq!(net.messages_at(2).last().unwrap(), "two");
    net.assert_prefix_consistent(&[1, 2]);
}

#[test]
fn resilience_send_completes_after_r_acks() {
    let config = GroupConfig { resilience: 2, ..fast_config() };
    let mut net = build_group(4, config, 11);
    net.send(3, b"resilient");
    net.run_for(100_000);
    assert_eq!(net.sends_completed(3), 1);
    for node in 0..4 {
        assert_eq!(net.messages_at(node), vec!["resilient"]);
    }
    net.assert_prefix_consistent(&[0, 1, 2, 3]);
}

#[test]
fn resilient_broadcast_uses_3_plus_r_packets() {
    // The paper: "the number of FLIP messages per reliable broadcast
    // sent is equal to 3 + r (assuming no packet loss)".
    for r in 1..=3u32 {
        let config = GroupConfig {
            resilience: r,
            sync_interval_us: 0, // keep the wire quiet for counting
            ..fast_config()
        };
        let n = (r + 1) as usize; // paper's Figure 7 setup: group size r+1
        let mut net = build_group(n, config, 12 + u64::from(r));
        let before: u64 = (0..n).map(|i| net.core(i).stats.msgs_out).sum();
        let sender = n - 1;
        net.send(sender, b"x");
        net.run_for(100_000);
        let after: u64 = (0..n).map(|i| net.core(i).stats.msgs_out).sum();
        assert_eq!(
            after - before,
            3 + u64::from(r),
            "r={r}: request + tentative + {r} acks + accept"
        );
        assert_eq!(net.sends_completed(sender), 1);
    }
}

#[test]
fn r0_send_on_sequencer_completes_synchronously() {
    let mut net = build_group(2, fast_config(), 15);
    let before = net.core(0).stats.msgs_out;
    net.send(0, b"from-seq");
    // No run_for: completion must already be recorded, and exactly one
    // packet (the stamped multicast) emitted.
    assert_eq!(net.sends_completed(0), 1);
    assert_eq!(net.core(0).stats.msgs_out - before, 1);
    net.run_for(50_000);
    assert_eq!(net.messages_at(1), vec!["from-seq"]);
}

#[test]
fn history_gc_advances_with_piggybacked_floors() {
    let mut net = build_group(3, fast_config(), 16);
    for i in 0..50 {
        net.send(1, format!("m{i}").as_bytes());
        net.run_for(30_000);
    }
    // Periodic sync rounds + piggybacks must keep history bounded well
    // below the 128-entry cap on a quiet group.
    net.run_for(300_000);
    assert!(
        net.core(0).info().history_len < 20,
        "history should be nearly drained, got {}",
        net.core(0).info().history_len
    );
}

#[test]
fn flow_control_survives_a_tiny_history_buffer() {
    let config = GroupConfig {
        history_cap: 4,
        history_high_water: 3,
        ..fast_config()
    };
    let mut net = build_group(3, config, 17);
    // Far more in-flight traffic than the buffer holds: flow-control
    // drops + retransmission must still deliver everything, in order.
    for i in 0..20 {
        net.send(1, format!("a{i}").as_bytes());
        net.send(2, format!("b{i}").as_bytes());
        net.run_for(40_000);
    }
    net.run_for(400_000);
    for node in 0..3 {
        assert_eq!(net.messages_at(node).len(), 40, "node {node}");
    }
    net.assert_prefix_consistent(&[0, 1, 2]);
}

#[test]
fn get_info_reflects_membership() {
    let net = build_group(3, fast_config(), 18);
    let info = net.core(2).info();
    assert_eq!(info.num_members(), 3);
    assert!(!info.is_sequencer);
    assert_eq!(info.sequencer, amoeba_core::MemberId(0));
    assert!(net.core(0).info().is_sequencer);
    assert_eq!(info.view, amoeba_core::ViewId(1, 0));
}
