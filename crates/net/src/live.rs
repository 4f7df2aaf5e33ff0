//! The in-memory datagram network: endpoints, multicast groups, fault
//! injection and delivery delay.
//!
//! **Send path** (DESIGN.md §7): the authoritative registry (endpoints,
//! multicast groups, fault plan) lives behind one mutex, but senders
//! never take it. Every mutation publishes an immutable [`Routes`]
//! view, and each sending port revalidates its cached copy with a
//! single atomic load per datagram (`crate::snapshot`, shared with
//! `UdpNet`). On the fault-free fast path a send is: atomic load, hash
//! lookup, channel push — no global lock, no allocation (the frame
//! bytes are refcount-shared).
//!
//! **Delay path**: deliveries below a small threshold happen inline
//! through unbounded channels (preserving per-link FIFO, like a quiet
//! LAN); longer, jittered deliveries are carried by a single
//! *delay-wheel* thread owning a monotonic schedule — which is what
//! makes reordering possible, exactly the adversity the
//! negative-acknowledgement scheme must absorb. (Earlier versions
//! spawned one sleeper thread per delayed datagram; under a jittered
//! fault plan that was unbounded thread churn.)

use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use amoeba_core::{GroupId, WireFrame};
use amoeba_flip::FlipAddress;
use amoeba_sim::SplitMix64;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::fault::FaultPlan;
use crate::snapshot::{Snapshot, SnapshotCache};
use crate::transport::{Datagram, Inbox, InboxFeed, Transport, TransportSender};

/// Deliveries with at most this much delay skip the delay wheel and
/// go straight through the channel.
const INLINE_DELAY: Duration = Duration::from_micros(300);

/// Authoritative membership state, mutated under its mutex.
struct Registry {
    endpoints: HashMap<FlipAddress, InboxFeed>,
    groups: HashMap<GroupId, Vec<FlipAddress>>,
    fault: FaultPlan,
    /// Per-directed-link overrides of the global plan, keyed
    /// `(from, to)` — one direction only, so tests can script
    /// *asymmetric* partitions (A hears B, B never hears A), the live
    /// mirror of the simulator's chaos partitions (DESIGN.md §9).
    link_faults: HashMap<(FlipAddress, FlipAddress), FaultPlan>,
}

/// The registry as senders read it, lock-free. Group targets are
/// pre-resolved to their channels.
struct Routes {
    endpoints: HashMap<FlipAddress, InboxFeed>,
    groups: HashMap<GroupId, Vec<(FlipAddress, InboxFeed)>>,
    fault: FaultPlan,
    link_faults: HashMap<(FlipAddress, FlipAddress), FaultPlan>,
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
            fault: reg.fault,
            link_faults: reg.link_faults.clone(),
        }
    }

    /// The plan governing one directed delivery (the common no-override
    /// case is a single `is_empty` check).
    fn fault_for(&self, from: FlipAddress, to: FlipAddress) -> FaultPlan {
        if self.link_faults.is_empty() {
            return self.fault;
        }
        self.link_faults.get(&(from, to)).copied().unwrap_or(self.fault)
    }
}

/// One datagram waiting on the delay wheel.
struct Delayed {
    due: Instant,
    /// Insertion order: ties on `due` deliver FIFO.
    seq: u64,
    tx: InboxFeed,
    datagram: Datagram,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}

impl Eq for Delayed {}

impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-due first.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

/// The shared in-memory fabric processes plug into: a [`Transport`]
/// with scriptable faults.
pub struct LiveNet {
    /// Handed to every sending port, which needs the fabric's fault
    /// randomness and delay wheel for as long as it sends.
    me: Weak<LiveNet>,
    table: Snapshot<Registry, Routes>,
    /// Fault randomness (touched only on non-trivial fault plans).
    rng: Mutex<SplitMix64>,
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
            .field("fault", &reg.fault)
            .finish()
    }
}

impl LiveNet {
    /// Creates the fabric with a seeded fault RNG.
    ///
    /// # Panics
    ///
    /// Panics if the fault plan is invalid.
    pub fn new(seed: u64, fault: FaultPlan) -> Arc<Self> {
        fault.validate().expect("valid fault plan");
        let registry = Registry {
            endpoints: HashMap::new(),
            groups: HashMap::new(),
            fault,
            link_faults: HashMap::new(),
        };
        Arc::new_cyclic(|me| LiveNet {
            me: me.clone(),
            table: Snapshot::new(registry, Routes::of),
            rng: Mutex::new(SplitMix64::new(seed)),
            wheel: Mutex::new(None),
            wheel_seq: AtomicU64::new(0),
        })
    }

    /// Applies the fault plan to one (packet, receiver) pair and hands
    /// it to the channel or the delay wheel.
    fn deliver_one(
        &self,
        tx: &InboxFeed,
        from: FlipAddress,
        frame: WireFrame,
        fault: FaultPlan,
    ) {
        // Fault-free fast path: no randomness, no locks, no copies.
        if fault.loss == 0.0 && fault.duplicate == 0.0 && fault.max_delay <= INLINE_DELAY {
            let _ = tx.send(Some((from, frame)));
            return;
        }
        let (copies, delay) = {
            let mut rng = self.rng.lock();
            let copies = if rng.gen_bool(fault.loss) {
                return;
            } else if rng.gen_bool(fault.duplicate) {
                2
            } else {
                1
            };
            let span = fault.max_delay.saturating_sub(fault.min_delay);
            let jitter = if span.is_zero() {
                Duration::ZERO
            } else {
                Duration::from_nanos(rng.gen_range(span.as_nanos() as u64))
            };
            (copies, fault.min_delay + jitter)
        };
        for _ in 0..copies {
            if delay <= INLINE_DELAY {
                let _ = tx.send(Some((from, frame.clone())));
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
            let (tx, rx) = channel::unbounded();
            std::thread::Builder::new()
                .name("amoeba-net-wheel".into())
                .spawn(move || run_wheel(rx))
                .expect("spawn delay wheel");
            tx
        });
        let _ = inbox.send(Delayed { due, seq, tx, datagram });
    }

    /// Overrides the fault plan for the *directed* link `from → to`
    /// (other links keep the global plan). One direction only, so
    /// asymmetric partitions are scriptable; cut both directions for a
    /// full partition, and [`LiveNet::clear_link_fault`] to heal.
    /// This is the live counterpart of the simulator's deterministic
    /// chaos partitions (DESIGN.md §9).
    ///
    /// # Panics
    ///
    /// Panics if the plan is invalid.
    pub fn set_link_fault(&self, from: FlipAddress, to: FlipAddress, fault: FaultPlan) {
        fault.validate().expect("valid fault plan");
        self.table.publish(|reg| reg.link_faults.insert((from, to), fault));
    }

    /// Removes the `from → to` override (the link heals back to the
    /// global plan).
    pub fn clear_link_fault(&self, from: FlipAddress, to: FlipAddress) {
        self.table.publish(|reg| reg.link_faults.remove(&(from, to)));
    }

    /// Removes every per-link override at once (a full heal).
    pub fn clear_link_faults(&self) {
        self.table.publish(|reg| reg.link_faults.clear());
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
            self.net.deliver_one(tx, self.from, frame, routes.fault_for(self.from, to));
        }
    }

    fn multicast(&mut self, group: GroupId, frame: WireFrame) {
        let routes = self.cache.get(&self.net.table);
        let Some(targets) = routes.groups.get(&group) else { return };
        for (addr, tx) in targets {
            if *addr != self.from {
                let fault = routes.fault_for(self.from, *addr);
                self.net.deliver_one(tx, self.from, frame.clone(), fault);
            }
        }
    }
}

/// The delay wheel: one thread delivering scheduled datagrams at their
/// due instants. Exits once every [`LiveNet`] handle is gone *and* the
/// schedule has drained (already-scheduled packets still arrive on
/// time, like packets in flight on a real wire).
fn run_wheel(rx: Receiver<Delayed>) {
    let mut schedule: BinaryHeap<Delayed> = BinaryHeap::new();
    let mut open = true;
    loop {
        let now = Instant::now();
        while schedule.peek().is_some_and(|d| d.due <= now) {
            let d = schedule.pop().expect("peeked");
            let _ = d.tx.send(Some(d.datagram));
        }
        if !open && schedule.is_empty() {
            return;
        }
        if open {
            let timeout = schedule
                .peek()
                .map(|d| d.due.saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(100));
            match rx.recv_timeout(timeout) {
                Ok(d) => schedule.push(d),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => open = false,
            }
        } else {
            let due = schedule.peek().expect("non-empty").due;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn total_loss_drops_everything() {
        let net = LiveNet::new(1, FaultPlan { loss: 1.0, ..FaultPlan::reliable() });
        let rx = net.register(addr(1));
        let mut tx = net.sender(addr(2));
        for _ in 0..20 {
            tx.unicast(addr(1), frame(b"x"));
        }
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn duplication_produces_extra_copies() {
        let net = LiveNet::new(1, FaultPlan { duplicate: 1.0, ..FaultPlan::reliable() });
        let rx = net.register(addr(1));
        net.sender(addr(2)).unicast(addr(1), frame(b"x"));
        assert!(rx.recv_timeout(Duration::from_secs(1)).is_ok());
        assert!(rx.recv_timeout(Duration::from_secs(1)).is_ok(), "second copy expected");
    }

    #[test]
    fn delay_wheel_delivers_on_schedule_without_thread_churn() {
        // Delays past INLINE_DELAY ride the wheel; all must arrive.
        let net = LiveNet::new(
            3,
            FaultPlan {
                min_delay: Duration::from_millis(1),
                max_delay: Duration::from_millis(5),
                ..FaultPlan::reliable()
            },
        );
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

    #[test]
    fn wheel_schedule_orders_by_due_time() {
        let (tx, rx) = Inbox::channel();
        let (inbox, wheel_rx) = channel::unbounded::<Delayed>();
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
