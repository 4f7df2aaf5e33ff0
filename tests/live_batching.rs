//! Live-runtime integration for sequencer batching and pipelined
//! sends (DESIGN.md §6): the same `BcastBatch`/`BcastReqBatch` frames
//! the simulator measures, here crossing real thread boundaries as
//! bytes through the codec.

mod common;

use amoeba::core::{BatchPolicy, GroupConfig, GroupId};
use amoeba::runtime::{Amoeba, FaultPlan};
use bytes::Bytes;
use common::collect_messages;

fn batching_config(max_batch: usize) -> GroupConfig {
    GroupConfig {
        batch: BatchPolicy::On { max_batch, flush_us: 500 },
        send_window: max_batch,
        ..GroupConfig::default()
    }
}

#[test]
fn pipelined_sends_reach_every_member_in_order() {
    let amoeba = Amoeba::new(31, FaultPlan::reliable());
    let gid = GroupId(1);
    let a = amoeba.create_group(gid, batching_config(8)).expect("create");
    let b = amoeba.join_group(gid, batching_config(8)).expect("join b");
    let c = amoeba.join_group(gid, batching_config(8)).expect("join c");

    let payloads: Vec<Bytes> = (0..40).map(|i| Bytes::from(format!("p{i:02}"))).collect();
    let results = b.send_pipelined(payloads);
    assert_eq!(results.len(), 40);
    let seqnos: Vec<u64> = results
        .into_iter()
        .map(|r| r.expect("pipelined send completes").0)
        .collect();
    assert!(
        seqnos.windows(2).all(|w| w[0] < w[1]),
        "pipelined completions must be FIFO on a reliable fabric: {seqnos:?}"
    );

    for (who, handle) in [("a", &a), ("b", &b), ("c", &c)] {
        let msgs = collect_messages(handle, 40);
        let payload_order: Vec<String> = msgs.iter().map(|(_, _, p)| p.clone()).collect();
        let expect: Vec<String> = (0..40).map(|i| format!("p{i:02}")).collect();
        assert_eq!(payload_order, expect, "member {who} saw wrong order");
        assert!(
            msgs.windows(2).all(|w| w[1].0 == w[0].0 + 1),
            "member {who} has a seqno gap"
        );
    }
}

#[test]
fn batching_survives_a_faulty_fabric() {
    // Loss, duplication and delay jitter: batched retransmissions and
    // the sequencer's strict FIFO admission must keep exactly-once,
    // totally-ordered delivery.
    let amoeba = Amoeba::new(32, FaultPlan::lossy(0.05));
    let gid = GroupId(2);
    let a = amoeba.create_group(gid, batching_config(4)).expect("create");
    let b = amoeba.join_group(gid, batching_config(4)).expect("join b");

    let payloads: Vec<Bytes> = (0..30).map(|i| Bytes::from(format!("x{i:02}"))).collect();
    for r in b.send_pipelined(payloads) {
        r.expect("every pipelined send completes despite faults");
    }

    let la = collect_messages(&a, 30);
    let lb = collect_messages(&b, 30);
    assert_eq!(la, lb, "members disagree on the total order");
    let payload_order: Vec<&str> = la.iter().map(|(_, _, p)| p.as_str()).collect();
    let expect: Vec<String> = (0..30).map(|i| format!("x{i:02}")).collect();
    assert_eq!(payload_order, expect, "per-sender FIFO violated or duplicates delivered");
}

#[test]
fn window_one_pipelining_degrades_to_blocking_sends() {
    let amoeba = Amoeba::new(33, FaultPlan::reliable());
    let gid = GroupId(3);
    let a = amoeba.create_group(gid, GroupConfig::default()).expect("create");
    let b = amoeba.join_group(gid, GroupConfig::default()).expect("join b");
    let results =
        b.send_pipelined((0..5).map(|i| Bytes::from(format!("w{i}"))));
    assert_eq!(results.len(), 5);
    for r in results {
        r.expect("send completes");
    }
    let msgs = collect_messages(&a, 5);
    assert_eq!(msgs.len(), 5);
    drop(b);
}
