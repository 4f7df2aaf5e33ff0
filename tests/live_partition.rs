//! Live parity for the chaos engine's partition scenarios: the same
//! fault shape a simulated `ChaosPlan` scripts deterministically —
//! member cut off, traffic flows, partition heals, everyone converges
//! — run on the real multi-threaded runtime via `LiveNet`'s per-link
//! fault overrides, and audited with the same
//! `amoeba_core::audit::DeliveryAudit` invariants.

use std::time::{Duration, Instant};

use amoeba_core::audit::{AuditDelivery, DeliveryAudit, EndFate, MemberRecord};
use amoeba_core::{GroupConfig, GroupEvent, GroupId};
use amoeba_runtime::{Amoeba, FaultPlan, GroupHandle, LiveNet};
use bytes::Bytes;

/// A fault plan that silently eats every delivery on the link.
fn cut() -> FaultPlan {
    FaultPlan { loss: 1.0, ..FaultPlan::reliable() }
}

/// Drains every `Message` currently deliverable on `h` into `log`,
/// waiting up to `patience` for the first one.
fn drain(h: &GroupHandle, log: &mut Vec<AuditDelivery>, patience: Duration) {
    let deadline = Instant::now() + patience;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match h.receive_timeout(left.max(Duration::from_millis(1))) {
            Ok(GroupEvent::Message { payload, .. }) => {
                let text = String::from_utf8_lossy(&payload).into_owned();
                let rest = text.strip_prefix('m').expect("test payloads");
                let (node, idx) = rest.split_once('-').expect("test payloads");
                log.push(AuditDelivery {
                    origin: node.parse().expect("node id"),
                    index: idx.parse().expect("index"),
                });
            }
            Ok(_) => {}
            Err(_) => return,
        }
    }
}

#[test]
fn partition_heals_and_every_member_converges() {
    // Snappy protocol timers so the whole cut-detect-heal-catch-up
    // cycle fits a test budget (mirrors the chaos configs).
    let config = GroupConfig {
        send_retransmit_us: 30_000,
        nack_retry_us: 20_000,
        sync_interval_us: 100_000,
        sync_round_us: 150_000,
        sync_max_retries: 25, // the partitioned member must NOT be expelled
        robust_repair: true,
        ..GroupConfig::default()
    };
    // The test keeps the fabric's own handle: that is where link
    // faults are scripted.
    let net = LiveNet::new(11, FaultPlan::reliable());
    let amoeba = Amoeba::over_transport(net.clone(), 1);
    let group = GroupId(3);
    let a = amoeba.create_group(group, config.clone()).expect("create");
    let b = amoeba.join_group(group, config.clone()).expect("join b");
    let c = amoeba.join_group(group, config.clone()).expect("join c");
    let (addr_a, addr_b, addr_c) =
        (a.info().my_addr, b.info().my_addr, c.info().my_addr);

    // Cut node 2 (handle c) off in both directions — the full
    // partition a simulated `Partition { side_a: 0b100, .. }` scripts.
    for &peer in &[addr_a, addr_b] {
        net.set_link_fault(peer, addr_c, cut());
        net.set_link_fault(addr_c, peer, cut());
    }

    // Traffic while the partition is open: node 0 sends m0-0..m0-3.
    for k in 0..4u64 {
        a.send_to_group(Bytes::from(format!("m0-{k}"))).expect("ordered during cut");
    }
    let mut logs: Vec<Vec<AuditDelivery>> = vec![Vec::new(), Vec::new(), Vec::new()];
    drain(&a, &mut logs[0], Duration::from_millis(400));
    drain(&b, &mut logs[1], Duration::from_millis(300));
    drain(&c, &mut logs[2], Duration::from_millis(200));
    assert_eq!(logs[0].len(), 4, "the majority side keeps ordering");
    assert_eq!(logs[1].len(), 4);
    assert!(logs[2].is_empty(), "the partitioned member hears nothing");

    // Heal. The sequencer's sync rounds carry the horizon to the healed
    // member, whose negative acknowledgements then backfill the gap;
    // post-heal traffic must reach everyone directly.
    net.clear_link_faults();
    let seqno = b.send_to_group(Bytes::from_static(b"m1-0")).expect("post-heal send");
    assert!(seqno.0 > 0);
    let deadline = Instant::now() + Duration::from_secs(20);
    while logs[2].len() < 5 && Instant::now() < deadline {
        drain(&c, &mut logs[2], Duration::from_millis(300));
    }
    drain(&a, &mut logs[0], Duration::from_millis(300));
    drain(&b, &mut logs[1], Duration::from_millis(300));

    // The same invariant checker the chaos explorer uses: agreed
    // prefix, per-origin FIFO, exactly-once, and full convergence of
    // every live member across the heal.
    let mut audit = DeliveryAudit::new().require_convergence(true).strict_expelled(true);
    audit.submitted(0, 4);
    audit.submitted(1, 1);
    for log in &logs {
        audit.member(MemberRecord { fate: EndFate::Live, deliveries: log.clone() });
    }
    let violations = audit.check();
    assert!(violations.is_empty(), "live partition+heal violated the protocol: {violations:?}");
    assert_eq!(logs[2].len(), 5, "the healed member caught up on the full history");
}

#[test]
fn link_faults_are_directional() {
    // Asymmetry: A → B cut, B → A open. A's requests still reach the
    // sequencer if it IS the sequencer; easier to observe at the raw
    // fabric level with a one-way mute between two plain members.
    let net = LiveNet::new(5, FaultPlan::reliable());
    let amoeba = Amoeba::over_transport(net.clone(), 1);
    let group = GroupId(4);
    let a = amoeba.create_group(group, GroupConfig::default()).expect("create");
    let b = amoeba.join_group(group, GroupConfig::default()).expect("join");
    let (addr_a, addr_b) = (a.info().my_addr, b.info().my_addr);

    // Settle admission first (b's own Joined event is already queued).
    while b.receive_timeout(Duration::from_millis(200)).is_ok() {}

    // Mute only sequencer → b: b's sends still get *ordered* (its
    // requests reach the sequencer) but b hears nothing back until
    // the link heals — and then catches up.
    net.set_link_fault(addr_a, addr_b, cut());
    a.send_to_group(Bytes::from_static(b"one")).expect("a orders locally");
    assert!(
        !matches!(
            b.receive_timeout(Duration::from_millis(200)),
            Ok(GroupEvent::Message { .. })
        ),
        "b must hear no message through the muted direction"
    );
    net.clear_link_fault(addr_a, addr_b);
    // Fresh traffic reveals the gap; the nack machinery backfills.
    a.send_to_group(Bytes::from_static(b"two")).expect("post-heal send");
    let mut got = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    while got.len() < 2 && Instant::now() < deadline {
        if let Ok(GroupEvent::Message { payload, .. }) =
            b.receive_timeout(Duration::from_millis(300))
        {
            got.push(String::from_utf8_lossy(&payload).into_owned());
        }
    }
    assert_eq!(got, vec!["one".to_string(), "two".into()], "healed link backfills in order");
}
