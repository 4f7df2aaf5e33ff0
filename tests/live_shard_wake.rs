//! The shard tier on the live runtime waits for wake-ups, not for poll
//! periods (DESIGN.md §11.2): the router's pump wakes the gateway's
//! member, so a routed operation with nothing ahead of it takes a few
//! thread hand-offs. One test in this binary, so that its thread
//! census counts no sibling's members.

mod common;

use std::time::{Duration, Instant};

use amoeba::core::audit::EndFate;
use amoeba::runtime::FaultPlan;
use amoeba::shard::{audit_group, lost_acked_writes, Cluster, Completion, LiveCluster, ShardSpec};
use common::threads_settle_at;

const PUTS: usize = 300;

/// `PUTS` puts, each submitted when the one before it is acknowledged,
/// the client pumping the router itself (`Cluster::advance` sleeps
/// 2 ms a cycle); returns how long they took.
fn sequential_puts(seed: u64) -> Duration {
    let spec = ShardSpec::new(seed, 2, 3);
    let mut cluster = LiveCluster::new(spec.clone(), FaultPlan::reliable());
    // A hosted member is one thread, its driver, which runs the app
    // too: neither hosting nor being woken costs a thread.
    threads_settle_at("amoeba-", spec.total_nodes());

    let started = Instant::now();
    for i in 0..PUTS {
        let id = cluster.router().put(&format!("key:{i}"), &format!("v{i}"));
        let completion = loop {
            cluster.router().pump();
            match cluster.router().take(id) {
                Some(completion) => break completion,
                None => std::thread::yield_now(),
            }
        };
        assert!(matches!(completion, Completion::Put { .. }), "put {i}: {completion:?}");
    }
    let took = started.elapsed();

    let acked = cluster.router().acked_writes().clone();
    assert_eq!(acked.len(), PUTS);
    assert!(cluster.halt(), "the cluster did not halt");
    for group in cluster.groups.iter().chain(std::iter::once(&cluster.meta)) {
        let fates = vec![EndFate::Live; group.logs.len()];
        let violations = audit_group(group, &fates, true);
        assert!(violations.is_empty(), "group {}: {violations:?}", group.id);
    }
    let lost = lost_acked_writes(&acked, &cluster.board, &cluster.groups, |_| 0);
    assert!(lost.is_empty(), "lost acked writes: {lost:?}");
    drop(cluster);
    threads_settle_at("amoeba-", 0);
    took
}

/// Polled, every put waits out the rest of a 1 ms period: 300 of them
/// take 300 ms and more, on any machine. Woken, they take as long as
/// the hand-offs do — tens of milliseconds — unless the scheduler
/// parks one of the nine threads involved, so one clean run in
/// three is asked for, as the lone-sender tests do.
#[test]
fn sequential_puts_wait_for_a_wake_up_not_a_poll_period() {
    let slow: Vec<Duration> = (0..3)
        .map(|attempt| sequential_puts(31 + attempt))
        .take_while(|took| *took >= Duration::from_millis(150))
        .collect();
    assert!(slow.len() < 3, "{PUTS} sequential puts took {slow:?}");
}
