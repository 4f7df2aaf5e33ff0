//! The user-facing API: the paper's blocking primitives (Table 1).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use amoeba_core::{
    CoreStats, Error, GroupConfig, GroupCore, GroupError, GroupEvent, GroupId, GroupInfo, Seqno,
};
use amoeba_net::{hold_wakes, FaultPlan, LiveNet, Transport};
use bytes::Bytes;

use crate::node::{drive, NodeShared, OP_DEADLINE};

/// A live Amoeba "installation": processes created through one `Amoeba`
/// share its network fabric. The fabric is any [`Transport`] — the
/// in-memory [`LiveNet`] ([`Amoeba::new`]) or the inter-process
/// `UdpNet` (via [`Amoeba::over_transport`]).
pub struct Amoeba {
    transport: Arc<dyn Transport>,
    next_addr: AtomicU64,
}

impl std::fmt::Debug for Amoeba {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Amoeba").field("next_addr", &self.next_addr).finish_non_exhaustive()
    }
}

impl Amoeba {
    /// Creates an installation with a seeded, fault-injected in-memory
    /// network. (To script faults mid-run, build the [`LiveNet`]
    /// yourself, pass a clone of its `Arc` to
    /// [`Amoeba::over_transport`], and call [`LiveNet::set_faults`].)
    pub fn new(seed: u64, fault: FaultPlan) -> Self {
        Amoeba::over_transport(LiveNet::new(seed, fault), 1)
    }

    /// Creates an installation over an arbitrary datagram fabric (the
    /// UDP backend plugs in here). `first_addr` seeds the FLIP address
    /// allocator: in a multi-process deployment each process claims a
    /// disjoint address range so memberships never collide (the
    /// harness assigns process *i* the addresses from `i + 1`).
    pub fn over_transport(transport: Arc<dyn Transport>, first_addr: u64) -> Self {
        Amoeba { transport, next_addr: AtomicU64::new(first_addr) }
    }

    /// The fabric behind this installation, whichever transport it is.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
    }

    /// `CreateGroup`: founds a group; the caller becomes member 0 and
    /// the sequencer.
    ///
    /// # Errors
    ///
    /// Returns [`GroupError::BadConfig`] for invalid configuration.
    pub fn create_group(
        &self,
        group: GroupId,
        config: GroupConfig,
    ) -> Result<GroupHandle, GroupError> {
        self.spawn_member(group, config, true)
    }

    /// `JoinGroup`: blocks until admitted (or retries are exhausted).
    ///
    /// # Errors
    ///
    /// Returns [`GroupError::JoinTimeout`] when no sequencer answers,
    /// or [`GroupError::BadConfig`] for invalid configuration.
    pub fn join_group(
        &self,
        group: GroupId,
        config: GroupConfig,
    ) -> Result<GroupHandle, GroupError> {
        self.spawn_member(group, config, false)
    }

    fn spawn_member(
        &self,
        group: GroupId,
        config: GroupConfig,
        create: bool,
    ) -> Result<GroupHandle, GroupError> {
        let addr =
            amoeba_flip::FlipAddress::process(self.next_addr.fetch_add(1, Ordering::Relaxed));
        let (core, actions) = if create {
            GroupCore::create(group, addr, config)?
        } else {
            GroupCore::join(group, addr, config)?
        };
        // Plug into the fabric once the configuration holds, and before
        // the protocol starts talking.
        let inbox = self.transport.register(addr);
        self.transport.join_mcast(group, addr);
        let shared = NodeShared::new(core, Arc::clone(&self.transport), group, addr, inbox);
        let driver = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("amoeba-{addr}"))
                .spawn(move || drive(shared))
                .expect("spawn driver thread")
        };
        // Both create (synchronous) and join (network round trips)
        // complete through `JoinDone`.
        let joined = {
            let _hold = hold_wakes();
            shared.blocking_op(|mail| &mut mail.joined, OP_DEADLINE, |_| actions)
        };
        let handle = GroupHandle { shared, driver: Some(driver) };
        joined.map(|_| handle)
    }
}

/// One process's membership of one group: the paper's primitives as
/// blocking methods. Clone-free by design — the primitives are blocking
/// and one thread drives each call, exactly the model the paper argues
/// for (parallelism via multiple threads, each with its own handle).
///
/// A blocked call waits on the member's mailbox, and is woken when its
/// mail arrives. It also drives the member, on either fabric: in memory
/// the datagram it waits for wakes it, and over UDP it reads the
/// member's socket while nobody else does (unless it pipelines sends);
/// either way it steps the protocol itself. The wake-ups a call causes
/// for other threads are issued when it parks, reads or its wait ends.
///
/// Receive failures are reported through the stack-wide
/// [`amoeba_core::Error`]: [`Error::Disconnected`] once membership has
/// ended, [`Error::Timeout`] when a bounded wait expires.
#[derive(Debug)]
pub struct GroupHandle {
    pub(crate) shared: Arc<NodeShared>,
    driver: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for NodeShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeShared").field("addr", &self.addr).field("group", &self.group).finish()
    }
}

impl GroupHandle {
    /// `SendToGroup`: blocks until the message is accepted into the
    /// total order (and, with resilience r > 0, held by r other
    /// kernels). Returns its sequence number.
    ///
    /// Concurrent callers on the same handle serialize: one sender
    /// drives the pipeline at a time, a second blocks until the first
    /// completes (the paper's one-thread-per-call model).
    ///
    /// # Errors
    ///
    /// [`GroupError::MessageTooLarge`], [`GroupError::Recovering`],
    /// [`GroupError::SequencerUnreachable`] after retry exhaustion, or
    /// [`GroupError::Disconnected`] when no completion arrives at all
    /// (nothing is driving this member any more).
    pub fn send_to_group(&self, payload: Bytes) -> Result<Seqno, GroupError> {
        let _sender = self.shared.send_lock.lock();
        let _hold = hold_wakes();
        self.shared.submit_send(payload);
        self.shared.wait_send(OP_DEADLINE, true)
    }

    /// Pipelined `SendToGroup`: streams `payloads` keeping up to the
    /// group's `send_window` requests in flight (with batching on,
    /// queued requests coalesce into `BcastReqBatch` frames — see
    /// DESIGN.md §6). Blocks until every payload has completed and
    /// returns one result per payload, in completion order (equal to
    /// submission order on a loss-free fabric).
    ///
    /// With `send_window` 1 (the default) this degrades to a loop of
    /// blocking [`GroupHandle::send_to_group`] calls; above, it leaves
    /// a UDP member's socket to the driver (DESIGN.md §12).
    pub fn send_pipelined(
        &self,
        payloads: impl IntoIterator<Item = Bytes>,
    ) -> Vec<Result<Seqno, GroupError>> {
        let _sender = self.shared.send_lock.lock();
        let _hold = hold_wakes();
        let window = self.shared.core.lock().config().send_window.max(1);
        let mut results = Vec::new();
        let mut outstanding = 0usize;
        for payload in payloads {
            if outstanding >= window {
                results.push(self.shared.wait_send(OP_DEADLINE, window == 1));
                outstanding -= 1;
            }
            self.shared.submit_send(payload);
            outstanding += 1;
        }
        while outstanding > 0 {
            results.push(self.shared.wait_send(OP_DEADLINE, window == 1));
            outstanding -= 1;
        }
        results
    }

    /// `ReceiveFromGroup`: blocks for the next totally-ordered event.
    ///
    /// # Errors
    ///
    /// [`Error::Disconnected`] once membership has ended and the
    /// queue is drained.
    pub fn receive_from_group(&self) -> Result<GroupEvent, Error> {
        let _hold = hold_wakes();
        self.shared.wait_event(Duration::MAX).map_err(|_| Error::Disconnected)
    }

    /// `ReceiveFromGroup` with a timeout.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if nothing arrives in `timeout`;
    /// [`Error::Disconnected`] once membership has ended.
    pub fn receive_timeout(&self, timeout: Duration) -> Result<GroupEvent, Error> {
        let _hold = hold_wakes();
        self.shared.wait_event(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => Error::Timeout,
            RecvTimeoutError::Disconnected => Error::Disconnected,
        })
    }

    /// `GetInfoGroup`: a snapshot of this member's view.
    pub fn info(&self) -> GroupInfo {
        self.shared.core.lock().info()
    }

    /// A snapshot of this member's protocol counters (refusals, retries
    /// and sync rounds among them: what a throughput figure needs
    /// beside it to be explained).
    pub fn stats(&self) -> CoreStats {
        self.shared.core.lock().stats
    }

    /// Datagrams that reached this member and did not decode as a
    /// protocol frame: dropped, as a garbled packet on a wire would be.
    /// (What a UDP endpoint discards before that is `UdpNet::drops`.)
    pub fn dropped_frames(&self) -> u64 {
        self.shared.dropped_frames.load(Ordering::Relaxed)
    }

    /// `ResetGroup`: rebuilds the group after failures, requiring at
    /// least `min_members` survivors. Returns the new view.
    ///
    /// # Errors
    ///
    /// [`GroupError::TooFewMembers`] when not enough members answered;
    /// [`GroupError::NotMember`] if this process is no longer in the
    /// group; [`GroupError::Disconnected`] when no completion arrives
    /// at all.
    pub fn reset_group(&self, min_members: usize) -> Result<GroupInfo, GroupError> {
        let shared = &self.shared;
        let _hold = hold_wakes();
        shared.blocking_op(|mail| &mut mail.reset, OP_DEADLINE, |core| core.reset(min_members))
    }

    /// `LeaveGroup`: departs gracefully (a leaving sequencer first
    /// drains and hands off), then tears down this process's driver.
    ///
    /// # Errors
    ///
    /// [`GroupError::Busy`] while another blocking primitive is
    /// outstanding; [`GroupError::Disconnected`] when no completion
    /// arrives at all.
    pub fn leave_group(mut self) -> Result<(), GroupError> {
        let result = {
            let _hold = hold_wakes();
            self.shared.blocking_op(|mail| &mut mail.left, OP_DEADLINE, |core| core.leave())
        };
        self.teardown();
        result
    }

    /// Simulates a processor crash: the process vanishes without a
    /// leave — its traffic blackholes and its driver stops. (Testing
    /// hook; the paper's recovery machinery is the answer to this.)
    pub fn crash(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        self.shared.shutdown();
        if let Some(h) = self.driver.take() {
            let _ = h.join();
        }
    }
}

impl Drop for GroupHandle {
    fn drop(&mut self) {
        if self.driver.is_some() {
            self.teardown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::thread::ThreadId;

    use amoeba_core::{Action, FrameEncoder, WireFrame};
    use amoeba_flip::FlipAddress;
    use amoeba_net::{Inbox, TransportSender, UdpConfig, UdpNet};
    use parking_lot::Mutex;

    /// A wait that runs out on a member nobody drives reports it; it
    /// does not abort the caller.
    #[test]
    fn blocking_primitives_on_a_stopped_driver_report_disconnected() {
        let amoeba = Amoeba::new(9, FaultPlan::reliable());
        let _a = amoeba.create_group(GroupId(1), GroupConfig::default()).expect("create");
        let mut b = amoeba.join_group(GroupId(1), GroupConfig::default()).expect("join");
        b.shared.shutdown();
        b.driver.take().expect("driver").join().expect("driver exits cleanly");

        let soon = Duration::from_millis(100);
        b.shared.submit_send(Bytes::from_static(b"never ordered at b"));
        assert_eq!(b.shared.wait_send(soon, true), Err(GroupError::Disconnected));
        let reset = b.shared.blocking_op(|mail| &mut mail.reset, soon, |core| core.reset(1));
        assert_eq!(reset.map(|_| ()), Err(GroupError::Disconnected));
        b.teardown();
    }

    /// The seqnos of the messages `next` returns until it fails, and
    /// whether it failed with `Disconnected`.
    fn messages_then_disconnected(
        b: &GroupHandle,
        next: impl Fn(&GroupHandle) -> Result<GroupEvent, Error>,
    ) -> (Vec<Seqno>, bool) {
        let mut seqnos = Vec::new();
        loop {
            match next(b) {
                Ok(GroupEvent::Message { seqno, .. }) => seqnos.push(seqno),
                Ok(_) => {}
                Err(e) => return (seqnos, e == Error::Disconnected),
            }
        }
    }

    /// Waits (politely) until `ready` holds.
    fn until(ready: impl Fn() -> bool) {
        let give_up = std::time::Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(std::time::Instant::now() < give_up, "the state never came");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A blocking call on a member that has ended — its driver gone,
    /// as a panic on it leaves it — returns what was queued, in seqno
    /// order, then `Disconnected`, at once, on both fabrics. Each call
    /// runs on a thread of its own, so a hang fails the test rather
    /// than stalling it.
    #[test]
    fn blocking_calls_on_an_ended_member_report_disconnected_at_once() {
        let fabrics: [(&str, Arc<dyn Transport>); 2] = [
            ("live", LiveNet::new(11, FaultPlan::reliable())),
            ("udp", UdpNet::new(UdpConfig::default())),
        ];
        /// Whether a call returns the messages queued, then fails.
        type Call = fn(&GroupHandle) -> (Vec<Seqno>, bool);
        let calls: [(&str, Call); 3] = [
            ("receive_timeout", |b| {
                messages_then_disconnected(b, |b| b.receive_timeout(Duration::from_secs(5)))
            }),
            ("receive_from_group", |b| {
                messages_then_disconnected(b, GroupHandle::receive_from_group)
            }),
            ("send_to_group", |b| {
                let sent = b.send_to_group(Bytes::from_static(b"after the end"));
                (Vec::new(), sent == Err(GroupError::Disconnected))
            }),
        ];
        for (fabric, net) in fabrics {
            let amoeba = Amoeba::over_transport(net, 1);
            for (gid, (name, call)) in (1..).zip(calls) {
                let group = GroupId(gid);
                let a = amoeba.create_group(group, GroupConfig::default()).expect("create");
                let mut b = amoeba.join_group(group, GroupConfig::default()).expect("join");
                let sent: Vec<Seqno> = (0..3)
                    .map(|_| a.send_to_group(Bytes::from_static(b"before the end")).expect("send"))
                    .collect();
                let messages = |b: &GroupHandle| {
                    let mail = b.shared.mail.lock();
                    mail.events.iter().filter(|e| matches!(e, GroupEvent::Message { .. })).count()
                };
                until(|| messages(&b) == sent.len());
                b.shared.shutdown();
                b.driver.take().expect("driver").join().expect("driver exits cleanly");
                let queued = if name == "send_to_group" { Vec::new() } else { sent };
                let (done_tx, done_rx) = mpsc::channel();
                std::thread::spawn(move || done_tx.send(call(&b)));
                let ended = done_rx.recv_timeout(Duration::from_secs(1));
                assert_eq!(ended, Ok((queued, true)), "{fabric}: {name}");
            }
        }
    }

    /// Over a socket no fabric feeds the bell, yet callers parked on it
    /// for two topics are both woken: on one handle, one thread waits
    /// in `receive_from_group` while another streams 200 pipelined
    /// sends, and the receiver sees every message, in seqno order. The
    /// receiver reports over a channel, so a lost wake-up fails the
    /// test rather than stalling it.
    #[test]
    fn over_udp_a_receiver_and_a_pipelined_sender_share_one_handle() {
        const SENDS: u32 = 200;
        let amoeba = Amoeba::over_transport(UdpNet::new(UdpConfig::default()), 1);
        let config = GroupConfig { send_window: 8, ..GroupConfig::default() };
        let _a = amoeba.create_group(GroupId(1), config.clone()).expect("create");
        let b = Arc::new(amoeba.join_group(GroupId(1), config).expect("join"));
        let (got_tx, got_rx) = mpsc::channel();
        let receiver = Arc::clone(&b);
        std::thread::spawn(move || {
            let mut got = Vec::new();
            while got.len() < SENDS as usize {
                match receiver.receive_from_group() {
                    Ok(GroupEvent::Message { seqno, payload, .. }) => got.push((seqno, payload)),
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            got_tx.send(got)
        });
        let payloads = (0..SENDS).map(|n| Bytes::from(n.to_le_bytes().to_vec()));
        let sent: Vec<Seqno> =
            b.send_pipelined(payloads).into_iter().map(|r| r.expect("ordered")).collect();
        let got = got_rx.recv_timeout(Duration::from_secs(30)).expect("the receiver returns");
        assert_eq!(got.iter().map(|(seqno, _)| *seqno).collect::<Vec<_>>(), sent);
        let numbers: Vec<u32> = got
            .iter()
            .map(|(_, p)| u32::from_le_bytes(p[..].try_into().expect("four bytes")))
            .collect();
        assert_eq!(numbers, (0..SENDS).collect::<Vec<_>>());
    }

    /// A fabric that notes which endpoints are plugged into it.
    struct Recording(Arc<dyn Transport>, Mutex<Vec<FlipAddress>>);

    impl Transport for Recording {
        fn register(&self, addr: FlipAddress) -> Inbox {
            self.1.lock().push(addr);
            self.0.register(addr)
        }
        fn unregister(&self, addr: FlipAddress) {
            self.1.lock().retain(|a| *a != addr);
            self.0.unregister(addr);
        }
        fn join_mcast(&self, group: GroupId, addr: FlipAddress) {
            self.0.join_mcast(group, addr);
        }
        fn sender(&self, from: FlipAddress) -> Box<dyn TransportSender> {
            self.0.sender(from)
        }
    }

    /// A create or join refused for its configuration leaves no
    /// endpoint plugged into the fabric, on either fabric: in memory it
    /// would queue the group's traffic for nobody, over UDP its socket
    /// would go on receiving it.
    #[test]
    fn a_join_refused_for_its_configuration_leaves_no_endpoint_behind() {
        let fabrics: [(&str, Arc<dyn Transport>); 2] = [
            ("live", LiveNet::new(13, FaultPlan::reliable())),
            ("udp", UdpNet::new(UdpConfig::default())),
        ];
        let bad = GroupConfig { send_window: 0, ..GroupConfig::default() };
        for (fabric, net) in fabrics {
            let recording = Arc::new(Recording(net, Mutex::default()));
            let amoeba = Amoeba::over_transport(Arc::clone(&recording) as Arc<dyn Transport>, 1);
            let _a = amoeba.create_group(GroupId(1), GroupConfig::default()).expect("create");
            let joined = amoeba.join_group(GroupId(1), bad.clone());
            assert!(matches!(joined, Err(GroupError::BadConfig(_))), "{fabric}: join");
            let created = amoeba.create_group(GroupId(2), bad.clone());
            assert!(matches!(created, Err(GroupError::BadConfig(_))), "{fabric}: create");
            assert_eq!(*recording.1.lock(), [FlipAddress::process(1)], "{fabric}");
        }
    }

    /// Who multicast, on which thread: (sender, thread name).
    type Sightings = Arc<Mutex<Vec<(FlipAddress, String)>>>;

    /// A fabric whose sending ports note the thread of every multicast.
    struct Witness(Arc<dyn Transport>, Sightings);

    struct WitnessPort(FlipAddress, Sightings, Box<dyn TransportSender>);

    impl Transport for Witness {
        fn register(&self, addr: FlipAddress) -> Inbox {
            self.0.register(addr)
        }
        fn unregister(&self, addr: FlipAddress) {
            self.0.unregister(addr);
        }
        fn join_mcast(&self, group: GroupId, addr: FlipAddress) {
            self.0.join_mcast(group, addr);
        }
        fn sender(&self, from: FlipAddress) -> Box<dyn TransportSender> {
            Box::new(WitnessPort(from, Arc::clone(&self.1), self.0.sender(from)))
        }
    }

    impl TransportSender for WitnessPort {
        fn unicast(&mut self, to: FlipAddress, frame: WireFrame) {
            self.2.unicast(to, frame);
        }
        fn multicast(&mut self, group: GroupId, frame: WireFrame) {
            let on = std::thread::current().name().unwrap_or_default().to_owned();
            self.1.lock().push((self.0, on));
            self.2.multicast(group, frame);
        }
    }

    /// Over UDP a caller blocked at the sequencer reads its socket and
    /// steps what lands there: with a receiver parked in
    /// `receive_from_group` at the sequencer, the ordered broadcasts of
    /// a peer's blocking sends go out on that receiver's thread, not on
    /// the driver's (a few may while the read token changes hands).
    #[test]
    fn over_udp_a_receiver_at_the_sequencer_steps_what_it_waits_for() {
        const SENDS: usize = 200;
        let sightings = Sightings::default();
        let net = Arc::new(Witness(UdpNet::new(UdpConfig::default()), Arc::clone(&sightings)));
        let amoeba = Amoeba::over_transport(net, 1);
        let a = amoeba.create_group(GroupId(1), GroupConfig::default()).expect("create");
        let b = amoeba.join_group(GroupId(1), GroupConfig::default()).expect("join");
        std::thread::scope(|s| {
            let receiver = std::thread::Builder::new().name("receiver".into());
            let receiver = receiver
                .spawn_scoped(s, || {
                    let mut messages = 0;
                    while messages < SENDS {
                        let event = a.receive_timeout(Duration::from_secs(30)).expect("event");
                        messages += usize::from(matches!(event, GroupEvent::Message { .. }));
                    }
                })
                .expect("spawn the receiver");
            until(|| a.shared.bell.has_readers());
            sightings.lock().clear();
            for n in 0..SENDS as u32 {
                b.send_to_group(Bytes::from(n.to_le_bytes().to_vec())).expect("ordered");
            }
            receiver.join().expect("the receiver saw every message");
        });
        let driver = format!("amoeba-{}", a.shared.addr);
        let (mut on_receiver, mut on_driver) = (0, 0);
        for (_, on) in sightings.lock().iter().filter(|(from, _)| *from == a.shared.addr) {
            on_receiver += usize::from(on == "receiver");
            on_driver += usize::from(*on == driver);
        }
        assert!(on_receiver >= SENDS - 10, "{on_receiver} on the receiver, {on_driver} on {driver}");
    }

    /// A UDP sequencer whose only caller took its socket's read token
    /// and then went idle still reads its socket: its driver napped
    /// while the caller waited, and briefly, so a peer's next 200
    /// blocking sends all complete, in seqno order, and none waits out
    /// a retransmission (a nap until the driver's next timer would).
    #[test]
    fn over_udp_a_sequencer_whose_caller_went_idle_still_orders_a_peer() {
        let amoeba = Amoeba::over_transport(UdpNet::new(UdpConfig::default()), 1);
        let a = amoeba.create_group(GroupId(1), GroupConfig::default()).expect("create");
        let b = amoeba.join_group(GroupId(1), GroupConfig::default()).expect("join");
        let first = std::thread::scope(|s| {
            let caller = s.spawn(|| loop {
                match a.receive_timeout(Duration::from_secs(30)).expect("event") {
                    GroupEvent::Message { seqno, .. } => break seqno,
                    _ => continue,
                }
            });
            until(|| a.shared.bell.has_readers());
            b.send_to_group(Bytes::from_static(b"first")).expect("ordered");
            caller.join().expect("the caller's one receive")
        });
        let sent: Vec<u64> = (0..200u32)
            .map(|n| b.send_to_group(Bytes::from(n.to_le_bytes().to_vec())).expect("ordered").0)
            .collect();
        assert_eq!(sent, (first.0 + 1..=first.0 + 200).collect::<Vec<_>>());
        assert_eq!(b.stats().send_retries, 0, "a send waited for the sequencer's driver");
    }

    /// A fabric whose sending ports give way once armed, and note the
    /// thread they gave way on.
    #[derive(Default)]
    struct Fuse {
        armed: AtomicBool,
        blew_on: Mutex<Option<ThreadId>>,
    }

    struct FusedPort(Arc<Fuse>, Box<dyn TransportSender>);

    impl Fuse {
        fn check(&self) {
            if self.armed.load(Ordering::SeqCst) {
                *self.blew_on.lock() = Some(std::thread::current().id());
                panic!("the fabric gave way");
            }
        }
    }

    impl TransportSender for FusedPort {
        fn unicast(&mut self, to: FlipAddress, frame: WireFrame) {
            self.0.check();
            self.1.unicast(to, frame);
        }
        fn multicast(&mut self, group: GroupId, frame: WireFrame) {
            self.0.check();
            self.1.multicast(group, frame);
        }
    }

    /// A fused [`LiveNet`].
    struct Fused(Arc<LiveNet>, Arc<Fuse>);

    impl Transport for Fused {
        fn register(&self, addr: FlipAddress) -> Inbox {
            self.0.register(addr)
        }
        fn unregister(&self, addr: FlipAddress) {
            self.0.unregister(addr);
        }
        fn join_mcast(&self, group: GroupId, addr: FlipAddress) {
            self.0.join_mcast(group, addr);
        }
        fn sender(&self, from: FlipAddress) -> Box<dyn TransportSender> {
            Box::new(FusedPort(Arc::clone(&self.1), self.0.sender(from)))
        }
    }

    /// A panic in a step that a blocked caller drives ends the member
    /// as one on its driver does: the caller gets `Disconnected`, not
    /// the unwind, and so does its next call. The member here has no
    /// driver, so only the caller can step what lands.
    #[test]
    fn a_panic_in_a_step_a_caller_drives_ends_the_member() {
        let (group, addr, config) = (GroupId(1), FlipAddress::process(1), GroupConfig::default());
        let net = LiveNet::new(12, FaultPlan::reliable());
        let fuse = Arc::new(Fuse::default());
        let fabric = Arc::new(Fused(Arc::clone(&net), Arc::clone(&fuse)));
        let inbox = fabric.register(addr);
        fabric.join_mcast(group, addr);
        let (core, actions) = GroupCore::create(group, addr, config.clone()).expect("create");
        let shared = NodeShared::new(core, fabric, group, addr, inbox);
        shared.step(|_| actions);
        let handle = GroupHandle { shared, driver: None };
        while handle.receive_timeout(Duration::ZERO).is_ok() {}

        // A join request, which the sequencer answers through the fuse.
        let joiner = FlipAddress::process(2);
        let (_, join) = GroupCore::join(group, joiner, config).expect("join");
        let Some(Action::Send { msg, .. }) = join.into_iter().find(Action::is_send) else {
            panic!("a joiner sends its request");
        };
        net.sender(joiner).unicast(addr, FrameEncoder::new().encode_frame(&msg));
        fuse.armed.store(true, Ordering::SeqCst);
        // The join's own delivery may precede the answer that gives way.
        let wait = || (0..).find_map(|_| handle.receive_timeout(Duration::from_secs(5)).err());
        let got = catch_unwind(AssertUnwindSafe(wait));
        assert_eq!(got.ok(), Some(Some(Error::Disconnected)), "no unwind into the caller");
        assert_eq!(*fuse.blew_on.lock(), Some(std::thread::current().id()), "the caller drove");
        let again = handle.send_to_group(Bytes::from_static(b"after the end"));
        assert_eq!(again, Err(GroupError::Disconnected));
    }

    /// `Duration::MAX` is "no deadline", not an overflow.
    #[test]
    fn receive_timeout_without_a_representable_deadline_waits() {
        let amoeba = Amoeba::new(10, FaultPlan::reliable());
        let a = amoeba.create_group(GroupId(1), GroupConfig::default()).expect("create");
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                a.send_to_group(Bytes::from_static(b"late")).expect("send");
            });
            let payload = loop {
                let event = a.receive_timeout(Duration::MAX).expect("event");
                if let GroupEvent::Message { payload, .. } = event {
                    break payload;
                }
            };
            assert_eq!(&payload[..], b"late");
        });
    }
}
