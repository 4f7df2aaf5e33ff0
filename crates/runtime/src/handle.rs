//! The user-facing API: the paper's blocking primitives (Table 1).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use amoeba_core::{
    CoreStats, Error, GroupConfig, GroupCore, GroupError, GroupEvent, GroupId, GroupInfo, Seqno,
};
use amoeba_net::{FaultPlan, LiveNet, Transport};
use bytes::Bytes;
use crossbeam::channel::{self, Receiver};

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
    /// yourself, keep its `Arc`, and pass a clone to
    /// [`Amoeba::over_transport`].)
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
        // Plug into the fabric before the protocol starts talking.
        let inbox = self.transport.register(addr);
        self.transport.join_mcast(group, addr);
        let (core, actions) = if create {
            GroupCore::create(group, addr, config)?
        } else {
            GroupCore::join(group, addr, config)?
        };
        let (events_tx, events_rx) = channel::unbounded();
        let transport = Arc::clone(&self.transport);
        let shared = NodeShared::new(core, transport, group, addr, events_tx, inbox.waker());
        let driver = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("amoeba-{addr}"))
                .spawn(move || drive(shared, inbox))
                .expect("spawn driver thread")
        };
        shared.step(|_| actions);
        let handle = GroupHandle { shared, events_rx, driver: Some(driver) };
        // Both create (synchronous) and join (network round trips)
        // complete through the JoinDone slot.
        handle.shared.join_done.wait(OP_DEADLINE).map(|_| handle)
    }
}

/// One process's membership of one group: the paper's primitives as
/// blocking methods. Clone-free by design — the primitives are blocking
/// and one thread drives each call, exactly the model the paper argues
/// for (parallelism via multiple threads, each with its own handle).
///
/// Receive failures are reported through the stack-wide
/// [`amoeba_core::Error`]: [`Error::Disconnected`] once membership has
/// ended, [`Error::Timeout`] when a bounded wait expires.
#[derive(Debug)]
pub struct GroupHandle {
    pub(crate) shared: Arc<NodeShared>,
    pub(crate) events_rx: Receiver<GroupEvent>,
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
        self.shared.submit_send(payload);
        self.shared.wait_send(OP_DEADLINE)
    }

    /// Pipelined `SendToGroup`: streams `payloads` keeping up to the
    /// group's `send_window` requests in flight (with batching on,
    /// queued requests coalesce into `BcastReqBatch` frames — see
    /// DESIGN.md §6). Blocks until every payload has completed and
    /// returns one result per payload, in completion order (equal to
    /// submission order on a loss-free fabric).
    ///
    /// With `send_window` 1 (the default) this degrades to a loop of
    /// blocking [`GroupHandle::send_to_group`] calls.
    pub fn send_pipelined(
        &self,
        payloads: impl IntoIterator<Item = Bytes>,
    ) -> Vec<Result<Seqno, GroupError>> {
        let _sender = self.shared.send_lock.lock();
        let window = self.shared.core.lock().config().send_window.max(1);
        let mut results = Vec::new();
        let mut outstanding = 0usize;
        for payload in payloads {
            if outstanding >= window {
                results.push(self.shared.wait_send(OP_DEADLINE));
                outstanding -= 1;
            }
            self.shared.submit_send(payload);
            outstanding += 1;
        }
        while outstanding > 0 {
            results.push(self.shared.wait_send(OP_DEADLINE));
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
        self.events_rx.recv().map_err(|_| Error::Disconnected)
    }

    /// `ReceiveFromGroup` with a timeout.
    ///
    /// # Errors
    ///
    /// [`Error::Timeout`] if nothing arrives in `timeout`;
    /// [`Error::Disconnected`] once membership has ended.
    pub fn receive_timeout(&self, timeout: Duration) -> Result<GroupEvent, Error> {
        self.events_rx.recv_timeout(timeout).map_err(|e| match e {
            channel::RecvTimeoutError::Timeout => Error::Timeout,
            channel::RecvTimeoutError::Disconnected => Error::Disconnected,
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
        shared.blocking_op(&shared.reset_done, OP_DEADLINE, |core| core.reset(min_members))
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
        let result =
            self.shared.blocking_op(&self.shared.leave_done, OP_DEADLINE, |core| core.leave());
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
        assert_eq!(b.shared.wait_send(soon), Err(GroupError::Disconnected));
        let reset = b.shared.blocking_op(&b.shared.reset_done, soon, |core| core.reset(1));
        assert_eq!(reset.map(|_| ()), Err(GroupError::Disconnected));
        b.teardown();
    }
}
