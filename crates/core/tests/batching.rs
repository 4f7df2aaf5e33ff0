//! Protocol tests for sequencer batching and sender pipelining
//! (DESIGN.md §6): ordering, flush triggers, window flow control,
//! duplicate suppression under loss, and recovery interaction.

mod common;

use amoeba_core::{BatchPolicy, GroupConfig, GroupError, Method};
use common::{build_group, fast_config, Done};

/// `fast_config` with batching on and a matching pipelining window.
fn batch_config(max_batch: usize) -> GroupConfig {
    GroupConfig {
        batch: BatchPolicy::On { max_batch, flush_us: 1_000 },
        send_window: max_batch,
        ..fast_config()
    }
}

#[test]
fn pipelined_window_delivers_fifo_everywhere() {
    let mut net = build_group(3, batch_config(4), 11);
    for i in 0..4 {
        net.send(1, format!("m{i}").as_bytes()); // no waiting between sends
    }
    net.run_for(200_000);
    for node in 0..3 {
        assert_eq!(net.messages_at(node), vec!["m0", "m1", "m2", "m3"], "node {node}");
    }
    assert_eq!(net.sends_completed(1), 4);
    net.assert_prefix_consistent(&[0, 1, 2]);
    // The pipeline actually coalesced: the sender put at least one
    // multi-request frame on the wire, the sequencer at least one
    // multi-entry batch.
    assert!(net.core(1).stats.req_batches_out >= 1, "sender never coalesced requests");
    assert!(net.core(0).stats.batches_out >= 1, "sequencer never batched");
    assert!(net.core(0).stats.batched_entries >= 2);
}

#[test]
fn window_overflow_reports_busy() {
    let mut net = build_group(2, batch_config(2), 12);
    net.send(1, b"a");
    net.send(1, b"b");
    net.send(1, b"c"); // third submission exceeds send_window = 2
    let busy = net.done[1]
        .iter()
        .filter(|d| matches!(d, Done::Send(Err(GroupError::Busy))))
        .count();
    assert_eq!(busy, 1, "the over-window send must fail Busy synchronously");
    net.run_for(200_000);
    assert_eq!(net.sends_completed(1), 2, "the windowed sends still complete");
    assert_eq!(net.messages_at(0), vec!["a", "b"]);
}

#[test]
fn flush_timer_bounds_batching_latency() {
    // A lone message must not wait for a full batch: the flush timer
    // (1 ms here) puts it on the wire.
    let mut net = build_group(2, batch_config(8), 13);
    net.send(1, b"lonely");
    net.run_for(20_000);
    assert_eq!(net.messages_at(0), vec!["lonely"]);
    assert_eq!(net.sends_completed(1), 1);
    // A singleton flush degrades to the plain frame: no batch counted.
    assert_eq!(net.core(0).stats.batches_out, 0);
}

#[test]
fn size_trigger_flushes_a_full_batch_immediately() {
    // Window 3, max_batch 2: the head request travels alone, the two
    // queued behind it coalesce into one request frame whose stamping
    // fills the batch — the size trigger flushes without the timer.
    let config = GroupConfig { send_window: 3, ..batch_config(2) };
    let mut net = build_group(2, config, 14);
    net.send(1, b"x");
    net.send(1, b"y");
    net.send(1, b"z");
    net.run_for(100_000);
    assert_eq!(net.messages_at(0), vec!["x", "y", "z"]);
    let seq = net.core(0);
    assert_eq!(seq.stats.batches_out, 1, "y+z at max_batch=2 → one batch frame");
    assert_eq!(seq.stats.batched_entries, 2);
}

#[test]
fn bb_accepts_ride_the_batch() {
    // Under BB the payload multicasts from the origin; the sequencer's
    // accepts coalesce into the batch frame instead (the PB/BB × batch
    // matrix of DESIGN.md §6).
    let config = GroupConfig { method: Method::Bb, ..batch_config(4) };
    let mut net = build_group(3, config, 15);
    for i in 0..4 {
        net.send(1, format!("bb{i}").as_bytes());
    }
    net.run_for(300_000);
    for node in 0..3 {
        assert_eq!(net.messages_at(node), vec!["bb0", "bb1", "bb2", "bb3"], "node {node}");
    }
    assert_eq!(net.sends_completed(1), 4);
    net.assert_prefix_consistent(&[0, 1, 2]);
}

#[test]
fn batching_off_never_emits_batch_frames() {
    let mut net = build_group(3, fast_config(), 16);
    for i in 0..3 {
        net.send(1, format!("m{i}").as_bytes());
        net.run_for(50_000);
    }
    for node in 0..3 {
        let s = &net.core(node).stats;
        assert_eq!(s.batches_out, 0);
        assert_eq!(s.batched_entries, 0);
        assert_eq!(s.req_batches_out, 0);
    }
}

#[test]
fn pipelined_sends_survive_loss_in_order() {
    // Lossy fabric: coalesced retransmissions plus the sequencer's
    // strict FIFO admission must keep per-sender order and
    // exactly-once delivery.
    let mut net = build_group(3, batch_config(4), 17);
    net.loss = 0.08;
    let mut expect = Vec::new();
    for round in 0..6 {
        for i in 0..4 {
            net.send(1, format!("r{round}m{i}").as_bytes());
            expect.push(format!("r{round}m{i}"));
        }
        net.run_for(400_000);
    }
    net.loss = 0.0;
    net.run_for(2_000_000);
    assert_eq!(net.sends_completed(1), 24);
    for node in 0..3 {
        assert_eq!(net.messages_at(node), expect, "node {node} saw wrong order");
    }
    net.assert_prefix_consistent(&[0, 1, 2]);
}

#[test]
fn duplicated_frames_deliver_exactly_once() {
    let mut net = build_group(3, batch_config(4), 18);
    net.dup = 0.15;
    for round in 0..2 {
        for i in 0..4 {
            net.send(2, format!("d{}", round * 4 + i).as_bytes());
        }
        net.run_for(500_000);
    }
    net.dup = 0.0;
    net.run_for(1_000_000);
    assert_eq!(net.sends_completed(2), 8);
    let expect: Vec<String> = (0..8).map(|i| format!("d{i}")).collect();
    for node in 0..3 {
        assert_eq!(net.messages_at(node), expect, "node {node}: duplicate delivery");
    }
    net.assert_prefix_consistent(&[0, 1, 2]);
}

#[test]
fn mixed_method_window_stays_fifo_under_loss() {
    // Dynamic method: large payloads go BB (multicast), small ones PB
    // (unicast) — a pipelined window can mix both. Retransmission must
    // present them to the sequencer in sender_seq order, or strict
    // FIFO admission wedges the earlier send forever.
    let mut net = build_group(3, batch_config(4), 21);
    net.loss = 0.10;
    let big = vec![b'B'; 2_000]; // above the 1430-byte BB threshold
    let mut expect = Vec::new();
    for round in 0..5 {
        net.send(1, &big);
        expect.push(String::from_utf8_lossy(&big).into_owned());
        for i in 0..3 {
            net.send(1, format!("small{round}-{i}").as_bytes());
            expect.push(format!("small{round}-{i}"));
        }
        net.run_for(500_000);
    }
    net.loss = 0.0;
    net.run_for(2_000_000);
    assert_eq!(net.sends_completed(1), 20, "a wedged mixed window never completes");
    for node in 0..3 {
        assert_eq!(net.messages_at(node), expect, "node {node} broke per-sender FIFO");
    }
    net.assert_prefix_consistent(&[0, 1, 2]);
}

#[test]
fn recovery_completes_pipelined_sends_exactly_once() {
    let mut net = build_group(3, batch_config(4), 19);
    net.send(1, b"before");
    net.run_for(200_000);
    net.crash(0); // the sequencer dies
    for i in 0..3 {
        net.send(1, format!("pend{i}").as_bytes()); // pend against the dead sequencer
    }
    net.run_for(2_000);
    net.reset(2, 2);
    net.run_for(5_000_000);
    assert_eq!(net.sends_completed(1), 4, "all pipelined sends must complete");
    let msgs = net.messages_at(1);
    let order: Vec<usize> = ["before", "pend0", "pend1", "pend2"]
        .iter()
        .map(|m| msgs.iter().position(|x| x == m).unwrap_or_else(|| panic!("{m} missing")))
        .collect();
    assert!(order.windows(2).all(|w| w[0] < w[1]), "FIFO across recovery: {msgs:?}");
    net.assert_prefix_consistent(&[1, 2]);
}

#[test]
fn resilience_path_bypasses_the_batch() {
    // r > 0 keeps the tentative/ack protocol frame-for-frame; batching
    // must not starve or reorder it.
    let config = GroupConfig { resilience: 1, ..batch_config(4) };
    let mut net = build_group(3, config, 20);
    for i in 0..4 {
        net.send(1, format!("t{i}").as_bytes());
    }
    net.run_for(500_000);
    assert_eq!(net.sends_completed(1), 4);
    let expect: Vec<String> = (0..4).map(|i| format!("t{i}")).collect();
    for node in 0..3 {
        assert_eq!(net.messages_at(node), expect, "node {node}");
    }
    net.assert_prefix_consistent(&[0, 1, 2]);
}
