//! The UDP transport under the full protocol stack, single process:
//! every member owns a real loopback `UdpSocket`, frames leave and
//! re-enter through the kernel's network stack, and the ordering
//! guarantees must hold exactly as they do on the in-memory fabric
//! (DESIGN.md §12).

mod common;

use std::sync::Arc;
use std::time::Duration;

use amoeba::core::{GroupConfig, GroupError, GroupEvent, GroupId};
use amoeba::runtime::{Amoeba, Transport, UdpConfig, UdpNet};
use bytes::Bytes;
use common::{collect_messages, lone_sender_is_never_refused, lone_sender_refusals};

/// An installation over a fresh UDP fabric; every membership it spawns
/// binds its own 127.0.0.1 socket.
fn udp_amoeba() -> Amoeba {
    let net: Arc<dyn Transport> = UdpNet::new(UdpConfig::default());
    Amoeba::over_transport(net, 1)
}

/// Fast-failure config so the crash test finishes quickly (the same
/// budgets `tests/live_membership_recovery.rs` uses in-memory).
fn snappy() -> GroupConfig {
    GroupConfig {
        send_retransmit_us: 30_000,
        send_max_retries: 4,
        nack_retry_us: 20_000,
        sync_interval_us: 200_000,
        sync_round_us: 60_000,
        sync_max_retries: 3,
        join_retry_us: 50_000,
        join_max_retries: 6,
        invite_round_us: 50_000,
        invite_rounds: 3,
        recovery_watchdog_us: 1_000_000,
        ..GroupConfig::default()
    }
}

/// `GroupConfig::default()` means over sockets what it means in memory
/// (`tests/live_total_order.rs`): the sequencer asks for floors at the
/// high-water mark, and a lone sender among silent members is never
/// refused, blocking or pipelined.
#[test]
fn over_udp_a_lone_sender_is_never_refused() {
    let amoeba = udp_amoeba();
    lone_sender_is_never_refused(&amoeba, 10, 1);
    lone_sender_is_never_refused(&amoeba, 20, 32);
}

/// The 1996 profile stays reachable on sockets: with the round at the
/// refusal (`GroupConfig::paper()`), the same sender meets the full
/// history once per 128 messages and sits out a retransmit timer.
#[test]
fn over_udp_the_paper_profile_still_meets_the_full_history() {
    let amoeba = udp_amoeba();
    for (gid, window) in [(30, 1), (40, 32)] {
        let config = GroupConfig { send_window: window, ..GroupConfig::paper() };
        let (refusals, retries) = lone_sender_refusals(&amoeba, GroupId(gid), config);
        assert!(refusals > 0 && retries > 0, "window {window}: ({refusals}, {retries})");
    }
}

#[test]
fn three_udp_members_agree_on_the_total_order() {
    let amoeba = udp_amoeba();
    let gid = GroupId(1);
    let a = amoeba.create_group(gid, GroupConfig::default()).expect("create");
    let b = amoeba.join_group(gid, GroupConfig::default()).expect("join b");
    let c = amoeba.join_group(gid, GroupConfig::default()).expect("join c");

    // Two writer threads hammer concurrently through real sockets.
    let writer_b = std::thread::spawn({
        let payloads: Vec<Bytes> = (0..25).map(|i| Bytes::from(format!("b{i}"))).collect();
        move || {
            for p in payloads {
                b.send_to_group(p).expect("b send");
            }
            b
        }
    });
    let writer_c = std::thread::spawn({
        let payloads: Vec<Bytes> = (0..25).map(|i| Bytes::from(format!("c{i}"))).collect();
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
    assert_eq!(la, lb, "a and b diverge over UDP");
    assert_eq!(lb, lc, "b and c diverge over UDP");

    // FIFO per origin inside the total order.
    for (origin, tag) in [(1, "b"), (2, "c")] {
        let msgs: Vec<&String> =
            la.iter().filter(|(_, o, _)| *o == origin).map(|(_, _, m)| m).collect();
        let expected: Vec<String> = (0..25).map(|i| format!("{tag}{i}")).collect();
        assert_eq!(msgs, expected.iter().collect::<Vec<_>>(), "origin {origin} lost FIFO");
    }
}

#[test]
fn pipelined_sends_complete_in_order_over_udp() {
    let amoeba = udp_amoeba();
    let gid = GroupId(2);
    let config = GroupConfig { send_window: 8, ..GroupConfig::default() };
    let a = amoeba.create_group(gid, config.clone()).expect("create");
    let b = amoeba.join_group(gid, config).expect("join");
    let results =
        b.send_pipelined((0..40).map(|i| Bytes::from(format!("p{i}"))));
    let seqnos: Vec<u64> =
        results.into_iter().map(|r| r.expect("pipelined send").0).collect();
    let mut sorted = seqnos.clone();
    sorted.sort_unstable();
    assert_eq!(seqnos, sorted, "completions arrived out of submission order");
    let la = collect_messages(&a, 40);
    let msgs: Vec<&String> = la.iter().map(|(_, _, m)| m).collect();
    let expected: Vec<String> = (0..40).map(|i| format!("p{i}")).collect();
    assert_eq!(msgs, expected.iter().collect::<Vec<_>>());
}

/// A payload far above the fabric's datagram budget must fragment on
/// the wire and reassemble byte-identically. `max_datagram: 512` forces
/// an 8 kB message through ~17 real datagrams.
#[test]
fn fragmenting_payload_roundtrips_over_udp() {
    let net: Arc<dyn Transport> =
        UdpNet::new(UdpConfig { max_datagram: 512, ..UdpConfig::default() });
    let amoeba = Amoeba::over_transport(net, 1);
    let gid = GroupId(3);
    let a = amoeba.create_group(gid, GroupConfig::default()).expect("create");
    let b = amoeba.join_group(gid, GroupConfig::default()).expect("join");
    let big: Vec<u8> = (0..8_000u32).map(|i| (i % 251) as u8).collect();
    b.send_to_group(Bytes::from(big.clone())).expect("send");
    loop {
        if let GroupEvent::Message { payload, .. } =
            a.receive_timeout(Duration::from_secs(10)).expect("event")
        {
            assert_eq!(&payload[..], &big[..], "payload corrupted across fragmentation");
            break;
        }
    }
}

/// The recovery story holds over real sockets: the sequencer's endpoint
/// vanishes, a survivor's send exhausts its retries, `ResetGroup`
/// rebuilds, and service resumes — mirroring
/// `tests/live_membership_recovery.rs` on the in-memory fabric.
#[test]
fn crash_of_sequencer_recovers_over_udp() {
    let amoeba = udp_amoeba();
    let gid = GroupId(4);
    let a = amoeba.create_group(gid, snappy()).expect("create");
    let b = amoeba.join_group(gid, snappy()).expect("join b");
    let c = amoeba.join_group(gid, snappy()).expect("join c");
    b.send_to_group(Bytes::from_static(b"pre-crash")).expect("send");

    a.crash(); // the sequencer's socket closes; its traffic blackholes

    let err = b.send_to_group(Bytes::from_static(b"doomed")).expect_err("sequencer is dead");
    assert_eq!(err, GroupError::SequencerUnreachable);
    let info = b.reset_group(2).expect("recovery");
    assert_eq!(info.num_members(), 2);

    b.send_to_group(Bytes::from_static(b"post-crash")).expect("send");
    let mut seen_c = Vec::new();
    while seen_c.len() < 2 {
        if let GroupEvent::Message { payload, .. } =
            c.receive_timeout(Duration::from_secs(20)).expect("event")
        {
            seen_c.push(String::from_utf8_lossy(&payload).into_owned());
        }
    }
    assert_eq!(seen_c, vec!["pre-crash", "post-crash"]);
}

/// Leaving mid-traffic must surface as `Disconnected`, not a panic —
/// the shutdown-path half of the bugfix sweep, exercised end-to-end.
#[test]
fn receive_after_leave_disconnects_cleanly_over_udp() {
    let amoeba = udp_amoeba();
    let gid = GroupId(5);
    let a = amoeba.create_group(gid, GroupConfig::default()).expect("create");
    let b = amoeba.join_group(gid, GroupConfig::default()).expect("join");
    a.send_to_group(Bytes::from_static(b"only")).expect("send");
    assert_eq!(collect_messages(&b, 1)[0].2, "only");
    b.leave_group().expect("leave");
    // The survivor keeps working; its view shrinks to 1.
    loop {
        if let GroupEvent::Left { .. } =
            a.receive_timeout(Duration::from_secs(10)).expect("event")
        {
            break;
        }
    }
    assert_eq!(a.info().num_members(), 1);
}
