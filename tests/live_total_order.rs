//! Live-runtime integration: total order under real threads and real
//! adversity (loss, duplication, jitter-induced reordering).

mod common;

use std::time::Duration;

use amoeba::core::{GroupConfig, GroupEvent, GroupId, Method};
use amoeba::runtime::{Amoeba, FaultPlan};
use bytes::Bytes;
use common::{collect_messages, lone_sender_is_never_refused};

#[test]
fn a_lone_live_sender_is_never_refused_blocking_or_pipelined() {
    let amoeba = Amoeba::new(29, FaultPlan::reliable());
    lone_sender_is_never_refused(&amoeba, 10, 1);
    lone_sender_is_never_refused(&amoeba, 20, 32);
}

#[test]
fn three_live_members_agree_under_loss() {
    let amoeba = Amoeba::new(21, FaultPlan::lossy(0.08));
    let gid = GroupId(1);
    let a = amoeba.create_group(gid, GroupConfig::default()).expect("create");
    let b = amoeba.join_group(gid, GroupConfig::default()).expect("join b");
    let c = amoeba.join_group(gid, GroupConfig::default()).expect("join c");

    // Two writer threads hammer concurrently (blocking API: one thread
    // per sender, as the paper prescribes).
    let writer_b = std::thread::spawn({
        let payloads: Vec<Bytes> =
            (0..25).map(|i| Bytes::from(format!("b{i}"))).collect();
        move || {
            for p in payloads {
                b.send_to_group(p).expect("b send");
            }
            b
        }
    });
    let writer_c = std::thread::spawn({
        let payloads: Vec<Bytes> =
            (0..25).map(|i| Bytes::from(format!("c{i}"))).collect();
        move || {
            for p in payloads {
                c.send_to_group(p).expect("c send");
            }
            c
        }
    });
    let b = writer_b.join().expect("writer b");
    let c = writer_c.join().expect("writer c");

    let la = collect_messages(&a, 50);
    let lb = collect_messages(&b, 50);
    let lc = collect_messages(&c, 50);
    assert_eq!(la, lb, "a and b diverge");
    assert_eq!(lb, lc, "b and c diverge");

    // FIFO per sender inside the total order.
    let b_msgs: Vec<&String> = la.iter().filter(|(_, o, _)| *o == 1).map(|(_, _, m)| m).collect();
    assert_eq!(b_msgs, (0..25).map(|i| format!("b{i}")).collect::<Vec<_>>().iter().collect::<Vec<_>>());
}

/// The sequencer stamps and delivers its own sends on the *caller's*
/// thread while its driver thread delivers everybody else's: both
/// must reach member 0's event queue in stamp order.
#[test]
fn sending_sequencer_delivers_in_order_while_others_stream() {
    const PER_SENDER: usize = 4_000;
    let config = GroupConfig { send_window: 8, ..GroupConfig::default() };
    let amoeba = Amoeba::new(27, FaultPlan::reliable());
    let gid = GroupId(7);
    let a = amoeba.create_group(gid, config.clone()).expect("create");
    let b = amoeba.join_group(gid, config.clone()).expect("join b");
    let c = amoeba.join_group(gid, config).expect("join c");
    assert!(a.info().is_sequencer);

    let start = std::sync::Barrier::new(3);
    std::thread::scope(|s| {
        s.spawn(|| {
            start.wait();
            for i in 0..PER_SENDER {
                a.send_to_group(Bytes::from(format!("a{i}"))).expect("sequencer send");
            }
        });
        for (h, tag) in [(&b, 'b'), (&c, 'c')] {
            let start = &start;
            s.spawn(move || {
                start.wait();
                let payloads = (0..PER_SENDER).map(|i| Bytes::from(format!("{tag}{i}")));
                for r in h.send_pipelined(payloads) {
                    r.expect("streamed send");
                }
            });
        }
    });

    let la = collect_messages(&a, 3 * PER_SENDER);
    assert!(
        la.windows(2).all(|w| w[0].0 < w[1].0),
        "seqnos at the sending sequencer must strictly increase"
    );
    assert_eq!(la, collect_messages(&b, 3 * PER_SENDER), "a and b diverge");
    assert_eq!(la, collect_messages(&c, 3 * PER_SENDER), "a and c diverge");
}

#[test]
fn bb_method_live_with_duplication() {
    let config = GroupConfig { method: Method::Bb, ..GroupConfig::default() };
    let amoeba = Amoeba::new(22, FaultPlan { duplicate: 0.2, ..FaultPlan::lossy(0.05) });
    let gid = GroupId(2);
    let a = amoeba.create_group(gid, config.clone()).expect("create");
    let b = amoeba.join_group(gid, config).expect("join");
    for i in 0..20 {
        b.send_to_group(Bytes::from(format!("m{i}"))).expect("send");
    }
    let la = collect_messages(&a, 20);
    let lb = collect_messages(&b, 20);
    assert_eq!(la, lb);
    // No duplicates delivered despite duplicated packets.
    let mut seqnos: Vec<u64> = la.iter().map(|(s, _, _)| *s).collect();
    seqnos.dedup();
    assert_eq!(seqnos.len(), 20);
}

#[test]
fn large_fragmenting_payload_roundtrips_live() {
    let amoeba = Amoeba::new(23, FaultPlan::reliable());
    let gid = GroupId(3);
    let a = amoeba.create_group(gid, GroupConfig::default()).expect("create");
    let b = amoeba.join_group(gid, GroupConfig::default()).expect("join");
    let big: Vec<u8> = (0..8_000u32).map(|i| (i % 251) as u8).collect();
    b.send_to_group(Bytes::from(big.clone())).expect("send");
    loop {
        if let GroupEvent::Message { payload, .. } = a.receive_timeout(Duration::from_secs(10)).expect("event") {
            assert_eq!(&payload[..], &big[..], "payload corrupted in transit");
            break;
        }
    }
}

#[test]
fn oversized_message_rejected_live() {
    let amoeba = Amoeba::new(24, FaultPlan::reliable());
    let gid = GroupId(4);
    let a = amoeba.create_group(gid, GroupConfig::default()).expect("create");
    let err = a.send_to_group(Bytes::from(vec![0u8; 8_001])).expect_err("too large");
    assert!(matches!(err, amoeba::core::GroupError::MessageTooLarge { size: 8_001, max: 8_000 }));
}

#[test]
fn resilience_r1_live_send_completes() {
    let config = GroupConfig::with_resilience(1);
    let amoeba = Amoeba::new(25, FaultPlan::reliable());
    let gid = GroupId(5);
    let a = amoeba.create_group(gid, config.clone()).expect("create");
    let b = amoeba.join_group(gid, config.clone()).expect("join");
    let c = amoeba.join_group(gid, config).expect("join");
    let seqno = b.send_to_group(Bytes::from_static(b"durable")).expect("send");
    assert!(seqno.0 > 0);
    for h in [&a, &b, &c] {
        let msgs = collect_messages(h, 1);
        assert_eq!(msgs[0].2, "durable");
    }
}

#[test]
fn info_is_consistent_across_live_members() {
    let amoeba = Amoeba::new(26, FaultPlan::reliable());
    let gid = GroupId(6);
    let a = amoeba.create_group(gid, GroupConfig::default()).expect("create");
    let b = amoeba.join_group(gid, GroupConfig::default()).expect("join");
    // b knows about both members immediately; a learns of b through the
    // ordered join event — wait for it.
    loop {
        if let GroupEvent::Joined { .. } = a.receive_timeout(Duration::from_secs(10)).expect("event") { break }
    }
    let ia = a.info();
    let ib = b.info();
    assert_eq!(ia.num_members(), 2);
    assert_eq!(ib.num_members(), 2);
    assert_eq!(ia.sequencer, ib.sequencer);
    assert_eq!(ia.view, ib.view);
    assert!(ia.is_sequencer);
    assert!(!ib.is_sequencer);
}
