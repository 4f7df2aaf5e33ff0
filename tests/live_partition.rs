//! Live parity for the chaos engine's partition scenarios: the same
//! `FaultPlan` the simulator interprets deterministically — member cut
//! off, traffic flows, partition heals, everyone converges — run on the
//! real multi-threaded runtime through `LiveNet::set_faults`, and
//! audited with the same `amoeba_core::audit::DeliveryAudit`
//! invariants.

use std::time::{Duration, Instant};

use amoeba_core::audit::{AuditDelivery, DeliveryAudit, EndFate, MemberRecord};
use amoeba_core::{GroupConfig, GroupEvent, GroupId};
use amoeba_net::{FaultPlan, HostSet, LiveNet, Partition};
use amoeba_runtime::{Amoeba, GroupHandle};
use bytes::Bytes;

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
        ..GroupConfig::default()
    };
    // The test keeps the fabric's own handle: that is where faults are
    // scripted.
    let net = LiveNet::new(11, FaultPlan::reliable());
    let amoeba = Amoeba::over_transport(net.clone(), 1);
    let group = GroupId(3);
    let a = amoeba.create_group(group, config.clone()).expect("create");
    let b = amoeba.join_group(group, config.clone()).expect("join b");
    let c = amoeba.join_group(group, config.clone()).expect("join c");

    // Cut node 2 (handle c) off in both directions — the partition a
    // scenario scripts on the simulator. A live host is its address's
    // id less one: its join order.
    assert_eq!(c.info().my_addr.id() - 1, 2);
    let cut = Partition { side_a: HostSet::from_hosts([2]), from_us: 0, until_us: u64::MAX };
    net.set_faults(FaultPlan { partitions: vec![cut], ..FaultPlan::reliable() });

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
    net.set_faults(FaultPlan::reliable());
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
