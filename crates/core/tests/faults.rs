//! Protocol behaviour under adversity: packet loss, duplication,
//! crashes, failure detection and `ResetGroup` recovery.

mod common;

use amoeba_core::{GroupConfig, GroupError, GroupEvent, Method};
use common::cases::for_each_case;
use common::{build_group, fast_config, Done, TestNet};

#[test]
fn total_order_survives_10pct_loss() {
    let mut net = build_group(4, fast_config(), 21);
    net.loss = 0.10;
    for round in 0..15 {
        for node in 0..4 {
            net.send(node, format!("n{node}r{round}").as_bytes());
        }
        net.run_for(150_000);
    }
    net.loss = 0.0;
    net.run_for(2_000_000); // let retransmission settle everything
    for node in 0..4 {
        assert_eq!(net.messages_at(node).len(), 60, "node {node} missing messages");
        assert_eq!(net.sends_completed(node), 15, "node {node} sends incomplete");
    }
    net.assert_prefix_consistent(&[0, 1, 2, 3]);
}

#[test]
fn total_order_survives_loss_and_duplication_bb() {
    let config = GroupConfig { method: Method::Bb, ..fast_config() };
    let mut net = build_group(3, config, 22);
    net.loss = 0.15;
    net.dup = 0.15;
    for round in 0..10 {
        net.send(1, format!("x{round}").as_bytes());
        net.send(2, format!("y{round}").as_bytes());
        net.run_for(200_000);
    }
    net.loss = 0.0;
    net.dup = 0.0;
    net.run_for(2_000_000);
    for node in 0..3 {
        let msgs = net.messages_at(node);
        assert_eq!(msgs.len(), 20, "node {node}: no loss, no duplicates in delivery");
    }
    net.assert_prefix_consistent(&[0, 1, 2]);
}

#[test]
fn nack_recovers_a_lost_multicast() {
    let mut net = build_group(3, fast_config(), 23);
    // Lose everything briefly so one multicast vanishes, then heal.
    net.send(1, b"first");
    net.run_for(50_000);
    net.loss = 1.0;
    net.send(1, b"lost-in-transit");
    net.run_for(4_000); // the request dies on the wire
    net.loss = 0.0;
    net.run_for(1_000_000); // retransmit timer resends; nacks fill gaps
    for node in 0..3 {
        assert_eq!(net.messages_at(node), vec!["first", "lost-in-transit"]);
    }
    assert!(net.core(1).stats.send_retries > 0, "the send must have been retried");
}

#[test]
fn silent_member_is_expelled_by_sync_rounds() {
    let mut net = build_group(3, fast_config(), 24);
    net.crash(2); // stops acking; floors stall
    for i in 0..5 {
        net.send(1, format!("m{i}").as_bytes());
        net.run_for(50_000);
    }
    // Periodic sync rounds must eventually declare node 2 dead and
    // force-remove it so history can be garbage collected.
    net.run_for(3_000_000);
    assert!(net.delivered[0]
        .iter()
        .any(|e| matches!(e, GroupEvent::Left { forced: true, .. })));
    assert_eq!(net.core(0).info().num_members(), 2);
    assert!(net.core(0).stats.expels >= 1);
    // History drains once the dead member no longer holds the floor.
    net.run_for(1_000_000);
    assert!(net.core(0).info().history_len < 8);
}

#[test]
fn send_fails_cleanly_when_sequencer_dies() {
    let mut net = build_group(3, fast_config(), 25);
    net.crash(0); // the sequencer
    net.send(1, b"doomed");
    net.run_for(5_000_000);
    assert!(matches!(
        net.last_send_result(1),
        Some(Err(GroupError::SequencerUnreachable))
    ));
    assert!(net.delivered[1]
        .iter()
        .any(|e| matches!(e, GroupEvent::SequencerSuspected)));
}

#[test]
fn reset_rebuilds_after_sequencer_crash() {
    let mut net = build_group(4, fast_config(), 26);
    for i in 0..3 {
        net.send(1, format!("pre{i}").as_bytes());
        net.run_for(60_000);
    }
    net.crash(0);
    net.reset(1, 3); // node 1 coordinates; needs 3 survivors
    net.run_for(2_000_000);
    assert!(net.done[1].iter().any(|d| matches!(d, Done::Reset(Ok(_)))));
    // All survivors installed view 2 and agree on membership.
    for node in [1, 2, 3] {
        let info = net.core(node).info();
        assert_eq!(info.view, amoeba_core::ViewId(2, 1), "node {node}"); // coordinated by member 1
        assert_eq!(info.num_members(), 3, "node {node}");
        assert!(!info.recovering);
    }
    // The group functions again: new messages flow and stay ordered.
    net.send(2, b"post-recovery");
    net.run_for(300_000);
    for node in [1, 2, 3] {
        assert_eq!(net.messages_at(node).last().unwrap(), "post-recovery");
    }
    net.assert_prefix_consistent(&[1, 2, 3]);
}

#[test]
fn resilient_messages_survive_sequencer_crash() {
    // The paper's headline guarantee: with resilience r, a completed
    // send survives any r failures — including the sequencer's.
    let config = GroupConfig { resilience: 1, ..fast_config() };
    let mut net = build_group(3, config, 27);
    net.send(1, b"must-survive");
    net.run_for(200_000);
    assert_eq!(net.sends_completed(1), 1, "send completed before the crash");
    // Node 2 may not have delivered it yet; crash the sequencer now.
    net.crash(0);
    net.reset(1, 2);
    net.run_for(3_000_000);
    for node in [1, 2] {
        assert!(
            net.messages_at(node).contains(&"must-survive".to_string()),
            "node {node} lost an acknowledged resilient message"
        );
    }
    net.assert_prefix_consistent(&[1, 2]);
}

#[test]
fn reset_fails_with_too_few_members() {
    let mut net = build_group(3, fast_config(), 28);
    net.crash(0);
    net.crash(2);
    net.reset(1, 3); // only node 1 is alive; needs 3
    net.run_for(2_000_000);
    assert!(net.done[1].iter().any(|d| matches!(
        d,
        Done::Reset(Err(GroupError::TooFewMembers { alive: 1, needed: 3 }))
    )));
}

#[test]
fn concurrent_resets_converge_on_one_view() {
    let mut net = build_group(4, fast_config(), 29);
    net.crash(0);
    // Two members start recovery simultaneously; lowest id must win.
    net.reset(1, 2);
    net.reset(2, 2);
    net.run_for(3_000_000);
    let views: Vec<_> = [1, 2, 3].iter().map(|&n| net.core(n).info().view).collect();
    assert!(views.iter().all(|v| *v == views[0]), "survivors diverge: {views:?}");
    let sequencers: Vec<_> =
        [1, 2, 3].iter().map(|&n| net.core(n).info().sequencer).collect();
    assert!(sequencers.iter().all(|s| *s == sequencers[0]));
    // Exactly one member holds the role.
    let holders = [1, 2, 3].iter().filter(|&&n| net.core(n).is_sequencer()).count();
    assert_eq!(holders, 1);
    // And it still works.
    net.send(3, b"after-race");
    net.run_for(300_000);
    net.assert_prefix_consistent(&[1, 2, 3]);
    for node in [1, 2, 3] {
        assert_eq!(net.messages_at(node).last().unwrap(), "after-race");
    }
}

#[test]
fn member_crash_then_reset_preserves_survivor_messages() {
    let mut net = build_group(4, fast_config(), 30);
    for i in 0..5 {
        net.send(2, format!("keep{i}").as_bytes());
        net.run_for(60_000);
    }
    net.crash(3); // an ordinary member, not the sequencer
    net.reset(1, 3);
    net.run_for(2_000_000);
    for node in [0, 1, 2] {
        assert_eq!(
            net.messages_at(node).len(),
            5,
            "node {node} lost pre-crash messages"
        );
        assert_eq!(net.core(node).info().num_members(), 3);
    }
    net.assert_prefix_consistent(&[0, 1, 2]);
}

#[test]
fn auto_reset_recovers_then_app_retries_send() {
    // Paper semantics: the failed SendToGroup surfaces an error; the
    // application retries after recovery. auto_reset runs the recovery
    // without an explicit ResetGroup call.
    let config = GroupConfig { auto_reset: true, auto_reset_min_members: 2, ..fast_config() };
    let mut net = build_group(3, config, 31);
    net.crash(0);
    net.send(1, b"doomed-first-try");
    net.run_for(10_000_000);
    assert!(matches!(
        net.last_send_result(1),
        Some(Err(GroupError::SequencerUnreachable))
    ));
    // Recovery happened automatically.
    for node in [1, 2] {
        assert_eq!(net.core(node).info().view.epoch(), 2, "node {node}");
    }
    // The retry goes through the new sequencer.
    net.send(1, b"exactly-once");
    net.run_for(500_000);
    for node in [1, 2] {
        let count =
            net.messages_at(node).iter().filter(|m| *m == "exactly-once").count();
        assert_eq!(count, 1, "node {node} saw {count} copies");
    }
    net.assert_prefix_consistent(&[1, 2]);
}

#[test]
fn send_pending_during_recovery_is_resubmitted_exactly_once() {
    // A send is outstanding when someone else's recovery sweeps through:
    // the protocol must resubmit it to the new sequencer with the same
    // request number (the duplicate filter keeps it exactly-once).
    let mut net = build_group(3, fast_config(), 32);
    net.crash(0);
    net.send(1, b"pending-through-reset"); // will sit unacknowledged
    net.run_for(2_000); // less than a retransmit interval
    net.reset(2, 2); // node 2 coordinates while node 1's send pends
    net.run_for(3_000_000);
    assert_eq!(net.sends_completed(1), 1, "the pending send must complete");
    for node in [1, 2] {
        let count = net
            .messages_at(node)
            .iter()
            .filter(|m| *m == "pending-through-reset")
            .count();
        assert_eq!(count, 1, "node {node} saw {count} copies");
    }
    net.assert_prefix_consistent(&[1, 2]);
}

#[test]
fn determinism_same_seed_same_trace() {
    fn run(seed: u64) -> Vec<Vec<String>> {
        let mut net = build_group(3, fast_config(), seed);
        net.loss = 0.2;
        for i in 0..10 {
            net.send(1, format!("m{i}").as_bytes());
            net.run_for(100_000);
        }
        (0..3).map(|n| net.messages_at(n)).collect()
    }
    assert_eq!(run(42), run(42));
}

/// Fast timers, and patience enough that sampled faults never expel a
/// slow member.
fn sampled_faults_config() -> GroupConfig {
    GroupConfig {
        method: Method::Pb,
        send_retransmit_us: 4_000,
        nack_retry_us: 3_000,
        sync_interval_us: 30_000,
        sync_round_us: 10_000,
        sync_max_retries: 10,
        ..GroupConfig::default()
    }
}

/// The headline property, sampled: under random loss and duplication
/// rates and random interleavings of senders, every member delivers
/// the same gapless sequence of events, and every send that completed
/// is delivered at the founder.
#[test]
fn total_order_holds_under_arbitrary_fault_schedules() {
    let config = sampled_faults_config();
    for_each_case("total_order_holds_under_arbitrary_fault_schedules", 48, |rng| {
        let members = 2 + rng.gen_range(3) as usize;
        let mut net = TestNet::new(1, members, rng.next_u64());
        // At most 40 % loss, so retransmission converges fast; the
        // faults hold from the group's formation on.
        net.loss = 0.4 * rng.gen_f64();
        net.dup = 0.4 * rng.gen_f64();
        net.latency_us = 50;
        net.create_group(0, config.clone());
        for node in 1..members {
            net.join_group(node, config.clone());
            net.run_for(200_000);
        }
        // Which member sends at each of 1–24 steps.
        let steps = 1 + rng.gen_range(24);
        for step in 0..steps {
            let node = rng.gen_range(4) as usize % members;
            net.send(node, format!("s{step}").as_bytes());
            net.run_for(30_000);
        }
        // Heal and settle: everything must converge.
        net.loss = 0.0;
        net.dup = 0.0;
        net.run_for(3_000_000);

        // (1) Every member's log is gapless from its join point, and
        // (2) agreement: same seqno ⇒ same event, across all members.
        net.assert_prefix_consistent(&(0..members).collect::<Vec<_>>());
        // (3) Validity: every completed send is in the founder's log.
        for node in 0..members {
            let me = net.core(node).info().me;
            let delivered = net.delivered[0]
                .iter()
                .filter(|e| matches!(e, GroupEvent::Message { origin, .. } if *origin == me))
                .count();
            let completed = net.sends_completed(node);
            assert!(
                delivered >= completed,
                "node {node} completed {completed} sends but only {delivered} delivered at founder"
            );
        }
    });
}

/// The property's deterministic companion: without faults, two
/// members' logs agree over everything both delivered.
#[test]
fn group_event_from_expelled_member_is_not_required() {
    let mut net = build_group(3, sampled_faults_config(), 1);
    net.send(1, b"a");
    net.run_for(100_000);
    net.send(2, b"b");
    net.run_for(3_000_000);
    let l1 = net.ordered_log(1);
    let l2 = net.ordered_log(2);
    let common = l1.len().min(l2.len());
    assert!(common >= 2);
    assert_eq!(&l1[l1.len() - common..], &l2[l2.len() - common..]);
}
