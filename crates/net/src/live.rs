//! The in-memory datagram network: endpoints, multicast groups, fault
//! injection and delivery delay.
//!
//! **Send path** (DESIGN.md §7): the authoritative registry (endpoints,
//! multicast groups, whether the fault plan is reliable) lives behind
//! one mutex, but senders never take it. Every mutation publishes an
//! immutable [`Routes`] view, and each sending port revalidates its
//! cached copy with a single atomic load per datagram
//! (`crate::snapshot`, shared with `UdpNet`). Under a reliable plan a
//! send is: atomic load, hash lookup, inbox push — no global lock, no
//! allocation (the frame bytes are refcount-shared).
//!
//! **Fault path** (DESIGN.md §9): under any other plan each `(frame,
//! receiver)` pair is judged by the same function the simulator's
//! `Net` calls, behind one mutex, with instants counted in wall-clock
//! µs from [`LiveNet::set_faults`] and a host being
//! `FlipAddress::id() − 1`. Copies delayed by at most a small threshold
//! go straight into the inbox (preserving per-link FIFO, like a
//! quiet LAN); longer ones are carried by a single *delay-wheel*
//! thread owning a monotonic schedule — which is what makes
//! reordering possible, exactly the adversity the
//! negative-acknowledgement scheme must absorb.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use amoeba_core::{GroupId, WireFrame};
use amoeba_flip::FlipAddress;
use parking_lot::Mutex;

use crate::fault::{ChaosState, FaultPlan};
use crate::snapshot::{Snapshot, SnapshotCache};
use crate::transport::{Datagram, Inbox, InboxFeed, Transport, TransportSender};

/// Deliveries with at most this much delay skip the delay wheel and
/// go straight into the inbox.
const INLINE_DELAY: Duration = Duration::from_micros(300);

/// Authoritative membership state, mutated under its mutex.
struct Registry {
    endpoints: HashMap<FlipAddress, InboxFeed>,
    groups: HashMap<GroupId, Vec<FlipAddress>>,
    /// The installed plan can only ever pass: sends skip the judge.
    reliable: bool,
}

/// The registry as senders read it, lock-free. Group targets are
/// pre-resolved to their inboxes.
struct Routes {
    endpoints: HashMap<FlipAddress, InboxFeed>,
    groups: HashMap<GroupId, Vec<(FlipAddress, InboxFeed)>>,
    reliable: bool,
}

impl Routes {
    fn of(reg: &Registry) -> Self {
        Routes {
            endpoints: reg.endpoints.clone(),
            groups: reg
                .groups
                .iter()
                .map(|(g, addrs)| {
                    let resolved = addrs
                        .iter()
                        .filter_map(|a| reg.endpoints.get(a).map(|tx| (*a, tx.clone())))
                        .collect();
                    (*g, resolved)
                })
                .collect(),
            reliable: reg.reliable,
        }
    }
}

/// The installed plan's judge, and the instant its windows count from.
struct Judge {
    state: ChaosState,
    since: Instant,
}

/// The plan's host numbering on this fabric: join order in an
/// `Amoeba::new` installation, whose addresses count from 1.
fn host(addr: FlipAddress) -> usize {
    addr.id().saturating_sub(1) as usize
}

/// One datagram on its way to the delay wheel.
struct Delayed {
    due: Instant,
    /// Insertion order: ties on `due` deliver FIFO.
    seq: u64,
    tx: InboxFeed,
    datagram: Datagram,
}

/// The shared in-memory fabric processes plug into: a [`Transport`]
/// with scriptable faults.
pub struct LiveNet {
    /// Handed to every sending port, which needs the fabric's judge
    /// and delay wheel for as long as it sends.
    me: Weak<LiveNet>,
    table: Snapshot<Registry, Routes>,
    /// Roots the judge's per-link randomness on every install.
    seed: u64,
    /// Touched only under a plan that is not reliable.
    judge: Mutex<Judge>,
    /// The delay wheel's inbox (thread spawned on first delayed send).
    wheel: Mutex<Option<Sender<Delayed>>>,
    /// Monotone insertion counter for stable delivery order.
    wheel_seq: AtomicU64,
}

impl std::fmt::Debug for LiveNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.table.registry();
        f.debug_struct("LiveNet")
            .field("endpoints", &reg.endpoints.len())
            .field("groups", &reg.groups.len())
            .field("reliable", &reg.reliable)
            .finish()
    }
}

impl LiveNet {
    /// Creates the fabric under `plan`, its randomness rooted at
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan is invalid.
    pub fn new(seed: u64, plan: FaultPlan) -> Arc<Self> {
        let registry =
            Registry { endpoints: HashMap::new(), groups: HashMap::new(), reliable: true };
        let net = Arc::new_cyclic(|me| LiveNet {
            me: me.clone(),
            table: Snapshot::new(registry, Routes::of),
            seed,
            judge: Mutex::new(Judge {
                state: ChaosState::new(FaultPlan::reliable(), seed),
                since: Instant::now(),
            }),
            wheel: Mutex::new(None),
            wheel_seq: AtomicU64::new(0),
        });
        net.set_faults(plan);
        net
    }

    /// Installs `plan` in place of the current one: its windows count
    /// from this call, its hosts are `FlipAddress::id() − 1`, and a
    /// heal is `set_faults(FaultPlan::reliable())`. The live
    /// interpreter of the simulator's fault schedules (DESIGN.md §9).
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid.
    pub fn set_faults(&self, plan: FaultPlan) {
        plan.validate().expect("valid fault plan");
        let reliable = plan.is_reliable();
        *self.judge.lock() =
            Judge { state: ChaosState::new(plan, self.seed), since: Instant::now() };
        self.table.publish(|reg| reg.reliable = reliable);
    }

    /// Hands one (packet, receiver) pair to its inbox or, under a
    /// plan that is not reliable, to the judge first.
    fn deliver(
        &self,
        reliable: bool,
        tx: &InboxFeed,
        from: FlipAddress,
        to: FlipAddress,
        frame: WireFrame,
    ) {
        // Fault-free fast path: no lock, no draw, no copies.
        if reliable {
            tx.send((from, frame));
            return;
        }
        let verdict = {
            let mut judge = self.judge.lock();
            let now_us = judge.since.elapsed().as_micros() as u64;
            judge.state.judge(now_us, host(from), host(to))
        };
        for _ in 0..verdict.immediate {
            tx.send((from, frame.clone()));
        }
        let Some((copies, delay_us)) = verdict.delayed else { return };
        let delay = Duration::from_micros(delay_us);
        for _ in 0..copies {
            if delay <= INLINE_DELAY {
                tx.send((from, frame.clone()));
            } else {
                self.schedule(Instant::now() + delay, tx.clone(), (from, frame.clone()));
            }
        }
    }

    /// Hands a datagram to the delay wheel, spawning it on first use.
    fn schedule(&self, due: Instant, tx: InboxFeed, datagram: Datagram) {
        let seq = self.wheel_seq.fetch_add(1, Ordering::Relaxed);
        let mut wheel = self.wheel.lock();
        let inbox = wheel.get_or_insert_with(|| {
            let (tx, rx) = mpsc::channel();
            std::thread::Builder::new()
                .name("amoeba-net-wheel".into())
                .spawn(move || run_wheel(rx))
                .expect("spawn delay wheel");
            tx
        });
        let _ = inbox.send(Delayed { due, seq, tx, datagram });
    }
}

impl Transport for LiveNet {
    fn register(&self, addr: FlipAddress) -> Inbox {
        let (tx, inbox) = Inbox::channel();
        self.table.publish(|reg| reg.endpoints.insert(addr, tx));
        inbox
    }

    fn unregister(&self, addr: FlipAddress) {
        self.table.publish(|reg| {
            reg.endpoints.remove(&addr);
            for members in reg.groups.values_mut() {
                members.retain(|a| *a != addr);
            }
        });
    }

    fn join_mcast(&self, group: GroupId, addr: FlipAddress) {
        self.table.publish(|reg| {
            let members = reg.groups.entry(group).or_default();
            if !members.contains(&addr) {
                members.push(addr);
            }
        });
    }

    fn sender(&self, from: FlipAddress) -> Box<dyn TransportSender> {
        let net = self.me.upgrade().expect("LiveNet::new hands out only Arcs");
        Box::new(LiveSender { cache: net.table.cache(), net, from })
    }
}

/// The in-memory fabric's per-endpoint sending port.
struct LiveSender {
    net: Arc<LiveNet>,
    from: FlipAddress,
    cache: SnapshotCache<Routes>,
}

impl TransportSender for LiveSender {
    fn unicast(&mut self, to: FlipAddress, frame: WireFrame) {
        let routes = self.cache.get(&self.net.table);
        if let Some(tx) = routes.endpoints.get(&to) {
            self.net.deliver(routes.reliable, tx, self.from, to, frame);
        }
    }

    fn multicast(&mut self, group: GroupId, frame: WireFrame) {
        let routes = self.cache.get(&self.net.table);
        let Some(targets) = routes.groups.get(&group) else { return };
        for (addr, tx) in targets {
            if *addr != self.from {
                self.net.deliver(routes.reliable, tx, self.from, *addr, frame.clone());
            }
        }
    }
}

/// The delay wheel: one thread delivering scheduled datagrams at their
/// due instants. Exits once every [`LiveNet`] handle is gone *and* the
/// schedule has drained (already-scheduled packets still arrive on
/// time, like packets in flight on a real wire).
fn run_wheel(rx: Receiver<Delayed>) {
    let mut schedule: BTreeMap<(Instant, u64), (InboxFeed, Datagram)> = BTreeMap::new();
    let mut open = true;
    loop {
        let now = Instant::now();
        while let Some(first) = schedule.first_entry().filter(|e| e.key().0 <= now) {
            let (tx, datagram) = first.remove();
            tx.send(datagram);
        }
        let next = schedule.first_key_value().map(|((due, _), _)| *due);
        match (open, next) {
            (false, None) => return,
            (false, Some(due)) => std::thread::sleep(due.saturating_duration_since(now)),
            (true, _) => {
                let idle = Duration::from_millis(100);
                let timeout = next.map_or(idle, |due| due.saturating_duration_since(now));
                match rx.recv_timeout(timeout) {
                    Ok(d) => drop(schedule.insert((d.due, d.seq), (d.tx, d.datagram))),
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => open = false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{HostSet, LinkFaults, Partition};
    use bytes::Bytes;

    fn addr(n: u64) -> FlipAddress {
        FlipAddress::process(n)
    }

    fn frame(b: &'static [u8]) -> WireFrame {
        WireFrame::from(Bytes::from_static(b))
    }

    #[test]
    fn unicast_reaches_endpoint() {
        let net = LiveNet::new(1, FaultPlan::reliable());
        let rx = net.register(addr(1));
        net.sender(addr(2)).unicast(addr(1), frame(b"hi"));
        let (from, data) = rx.recv_timeout(Duration::from_secs(1)).expect("delivered");
        assert_eq!(from, addr(2));
        assert_eq!(&data.head[..], b"hi");
    }

    #[test]
    fn multicast_excludes_sender() {
        let net = LiveNet::new(1, FaultPlan::reliable());
        let g = GroupId(9);
        let rx1 = net.register(addr(1));
        let rx2 = net.register(addr(2));
        net.join_mcast(g, addr(1));
        net.join_mcast(g, addr(2));
        net.sender(addr(1)).multicast(g, frame(b"m"));
        assert!(rx2.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(rx1.recv_timeout(Duration::ZERO).is_err(), "no loopback");
    }

    #[test]
    fn unregistered_endpoint_blackholes() {
        let net = LiveNet::new(1, FaultPlan::reliable());
        let rx = net.register(addr(1));
        net.unregister(addr(1));
        net.sender(addr(2)).unicast(addr(1), frame(b"x"));
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn stale_cache_catches_up_with_membership() {
        let net = LiveNet::new(1, FaultPlan::reliable());
        let rx1 = net.register(addr(1));
        let mut tx = net.sender(addr(9));
        tx.unicast(addr(1), frame(b"a"));
        assert!(rx1.recv_timeout(Duration::from_secs(1)).is_ok());
        // A later registration must be visible through the same sender.
        let rx2 = net.register(addr(2));
        tx.unicast(addr(2), frame(b"b"));
        assert!(rx2.recv_timeout(Duration::from_secs(1)).is_ok());
    }

    /// A plan with `link` noise for the whole run.
    fn noisy(link: LinkFaults) -> FaultPlan {
        FaultPlan { link, noise_until_us: u64::MAX, ..FaultPlan::reliable() }
    }

    #[test]
    fn total_loss_drops_everything() {
        let net = LiveNet::new(1, noisy(LinkFaults { drop: 1.0, ..LinkFaults::none() }));
        let rx = net.register(addr(1));
        let mut tx = net.sender(addr(2));
        for _ in 0..20 {
            tx.unicast(addr(1), frame(b"x"));
        }
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn duplication_produces_extra_copies() {
        let net = LiveNet::new(1, noisy(LinkFaults { duplicate: 1.0, ..LinkFaults::none() }));
        let rx = net.register(addr(1));
        net.sender(addr(2)).unicast(addr(1), frame(b"x"));
        assert!(rx.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(rx.recv_timeout(Duration::from_secs(1)).is_ok(), "second copy expected");
    }

    #[test]
    fn delay_wheel_delivers_on_schedule_without_thread_churn() {
        // Delays past INLINE_DELAY ride the wheel; all must arrive.
        let delayed = LinkFaults {
            reorder: 1.0,
            reorder_min_us: 1_000,
            reorder_max_us: 5_000,
            ..LinkFaults::none()
        };
        let net = LiveNet::new(3, noisy(delayed));
        let rx = net.register(addr(1));
        let start = Instant::now();
        let mut tx = net.sender(addr(2));
        for _ in 0..50 {
            tx.unicast(addr(1), frame(b"d"));
        }
        for _ in 0..50 {
            rx.recv_timeout(Duration::from_secs(2)).expect("wheel delivers");
        }
        assert!(start.elapsed() >= Duration::from_millis(1), "not delivered early");
    }

    /// Under a reliable plan a send takes no lock: with the judge held
    /// here, a send from another thread must still arrive.
    #[test]
    fn a_reliable_plan_never_touches_the_judge() {
        let net = LiveNet::new(1, FaultPlan::reliable());
        let rx = net.register(addr(1));
        let judge = net.judge.lock();
        std::thread::scope(|s| {
            s.spawn(|| net.sender(addr(2)).unicast(addr(1), frame(b"free")));
            let got = rx.recv_timeout(Duration::from_secs(5)).map(|(from, _)| from);
            drop(judge);
            assert_eq!(got.ok(), Some(addr(2)), "a reliable send waited for the judge");
        });
    }

    /// A partition isolating one host drops unicasts across the cut in
    /// both directions, passes those within a side, and a reliable plan
    /// heals both directions.
    #[test]
    fn a_partition_cuts_across_and_a_reliable_plan_heals_it() {
        let net = LiveNet::new(1, FaultPlan::reliable());
        let rx: Vec<Inbox> = (1..=3).map(|n| net.register(addr(n))).collect();
        let send = |from, to, text| net.sender(addr(from)).unicast(addr(to), frame(text));
        let heard = |n: usize| {
            let got = rx[n - 1].recv_timeout(Duration::from_millis(50));
            got.ok().map(|(from, data)| (from, data.head.to_vec()))
        };
        // Host 2 is the member at address 3.
        let cut = Partition { side_a: HostSet::from_hosts([2]), from_us: 0, until_us: u64::MAX };
        net.set_faults(FaultPlan { partitions: vec![cut], ..FaultPlan::reliable() });
        send(1, 3, b"across");
        send(3, 1, b"back across");
        send(1, 2, b"within");
        assert_eq!(heard(2), Some((addr(1), b"within".to_vec())), "same side arrives");
        assert_eq!(heard(3), None, "A→B is cut");
        assert_eq!(heard(1), None, "B→A is cut");

        net.set_faults(FaultPlan::reliable());
        send(1, 3, b"healed");
        send(3, 1, b"healed back");
        assert_eq!(heard(3), Some((addr(1), b"healed".to_vec())));
        assert_eq!(heard(1), Some((addr(3), b"healed back".to_vec())));
    }

    #[test]
    fn wheel_schedule_orders_by_due_time() {
        let (tx, rx) = Inbox::channel();
        let (inbox, wheel_rx) = mpsc::channel::<Delayed>();
        let h = std::thread::spawn(move || run_wheel(wheel_rx));
        let now = Instant::now();
        let late = Delayed {
            due: now + Duration::from_millis(30),
            seq: 0,
            tx: tx.clone(),
            datagram: (addr(1), frame(b"late")),
        };
        let early = Delayed {
            due: now + Duration::from_millis(5),
            seq: 1,
            tx,
            datagram: (addr(1), frame(b"early")),
        };
        inbox.send(late).expect("wheel alive");
        inbox.send(early).expect("wheel alive");
        drop(inbox); // wheel drains the schedule, then exits
        let (_, first) = rx.recv_timeout(Duration::from_secs(1)).expect("first");
        let (_, second) = rx.recv_timeout(Duration::from_secs(1)).expect("second");
        assert_eq!(&first.head[..], b"early", "earlier due time delivers first");
        assert_eq!(&second.head[..], b"late");
        h.join().expect("wheel exits after draining");
    }
}
