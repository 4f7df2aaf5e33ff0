//! The datagram transport abstraction the live runtime drives.
//!
//! `amoeba-runtime`'s per-member driver loop is transport-agnostic: it
//! needs a way to plug an endpoint in (yielding its [`Inbox`]), a way
//! to subscribe the endpoint to a group's multicast address, and a
//! per-endpoint sender for unicast and multicast frames. This module
//! names that contract so the in-memory fabric ([`crate::LiveNet`])
//! and the real inter-process UDP fabric ([`crate::UdpNet`]) are
//! interchangeable behind one trait object (DESIGN.md §12) — the
//! OptSCORE-style "keep the transport swappable behind the config
//! surface" argument, applied to this stack.
//!
//! **The in-memory inbox is a bell.** One mutex holds an endpoint's
//! datagram queue, the threads of its member parked in a blocking
//! call, whether a drain is running, and its driver thread with that
//! thread's wake token. A datagram wakes at most one thread: nobody
//! while a drain runs (the drainer empties the queue before it lets
//! go), else the caller that parked last, else the driver. So a caller
//! blocked in `SendToGroup` or `ReceiveFromGroup` steps the protocol
//! itself when the packet it waits for lands, as the paper's kernel
//! runs it where the packet arrives, and nobody hands it over. Inside
//! a blocking call the wake-ups a thread causes are held back
//! ([`hold_wakes`]) until it parks or its wait is over, so a woken
//! thread does not preempt the one that woke it mid-call.
//!
//! **A socket keeps one reader at a time, the token's holder.** Over
//! UDP the inbox is the socket: a datagram lands in the kernel, not in
//! a queue this process could hand to a caller, and two readers at once
//! would split one message's fragments between two reassemblers. So
//! whoever reads it holds its [`ReadToken`] ([`Inbox::try_read`]): a
//! caller blocked on the member reads and steps what it waits for, as
//! a drain does in memory, and the driver reads only while no caller
//! waits. Its wake ([`Inbox::wake`]) is an empty datagram to its own
//! port, which ends the current holder's wait.
//!
//! Both sides of the contract speak [`WireFrame`]: the zero-copy
//! (head, optional tail) segment pair produced by
//! `amoeba_core::FrameEncoder`. What a transport does with the segments
//! (share them by refcount in memory, gather-write them into a socket)
//! is its own business; the protocol core never sees the difference.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use amoeba_core::{GroupId, WireFrame};
use amoeba_flip::FlipAddress;
use parking_lot::Mutex;

use crate::udp::{ReadToken, UdpInbox};

/// A raw datagram as delivered to a node: (source address, frame).
pub type Datagram = (FlipAddress, WireFrame);

/// A shared datagram fabric endpoints plug into.
///
/// Implementations must be cheap to share (`Arc<dyn Transport>`) and
/// must never block a sender on another endpoint's progress: delivery
/// is best-effort, datagram-shaped, and may silently drop (the group
/// protocol's negative-acknowledgement machinery is the reliability
/// layer, not the transport).
pub trait Transport: Send + Sync {
    /// Plugs a process endpoint into the fabric; returns its inbound
    /// side.
    fn register(&self, addr: FlipAddress) -> Inbox;

    /// Removes an endpoint (a departed or "crashed" process): its
    /// traffic blackholes from now on.
    fn unregister(&self, addr: FlipAddress);

    /// Subscribes a registered endpoint to a group's multicast address.
    fn join_mcast(&self, group: GroupId, addr: FlipAddress);

    /// A sending port for `from`. Sends run on the calling thread, and
    /// a sender carries its own state (an epoch-cached membership
    /// snapshot, an encode buffer), so it is `Send` but not `Sync` —
    /// callers serialize sends per port, which the driver loop already
    /// does. Asking twice for one address yields two independent ports
    /// onto the same endpoint; after `unregister` a port blackholes.
    fn sender(&self, from: FlipAddress) -> Box<dyn TransportSender>;
}

/// A per-endpoint sending port (see [`Transport::sender`]).
pub trait TransportSender: Send {
    /// Sends point-to-point. Best-effort: unknown destinations and
    /// socket errors drop silently.
    fn unicast(&mut self, to: FlipAddress, frame: WireFrame);

    /// Sends to every member of `group` except the sender itself
    /// (multicast does not loop back, as on real hardware).
    fn multicast(&mut self, group: GroupId, frame: WireFrame);
}

/// An endpoint's inbound side. `Send` and `Sync`: the member's threads
/// share it, one reader at a time (a drain of the bell, or the holder
/// of the socket's [`ReadToken`]).
pub struct Inbox(pub(crate) Source);

pub(crate) enum Source {
    Bell(Arc<Bell>),
    Udp(Box<UdpInbox>),
}

/// Feeds an in-memory [`Inbox`]: what a fabric pushes datagrams
/// through.
#[derive(Clone)]
pub struct InboxFeed(Arc<Bell>);

impl InboxFeed {
    /// Queues `datagram` and wakes at most one thread (see [`Bell`]).
    /// A closed bell drops it, as a departed endpoint would.
    pub fn send(&self, datagram: Datagram) {
        self.0.push(datagram);
    }
}

impl Inbox {
    /// An in-memory inbox, a [`Bell`], and the feed a fabric fills it
    /// through.
    pub fn channel() -> (InboxFeed, Inbox) {
        let bell = Arc::new(Bell::default());
        (InboxFeed(Arc::clone(&bell)), Inbox(Source::Bell(bell)))
    }

    /// The bell behind an in-memory inbox, which the member's blocked
    /// callers drain too; `None` for a socket, which they read through
    /// its token.
    pub fn bell(&self) -> Option<&Arc<Bell>> {
        match &self.0 {
            Source::Bell(bell) => Some(bell),
            Source::Udp(_) => None,
        }
    }

    /// A socket's read token, if nobody holds it: `None` while another
    /// thread reads the socket, and always for an in-memory inbox.
    pub fn try_read(&self) -> Option<ReadToken<'_>> {
        match &self.0 {
            Source::Bell(_) => None,
            Source::Udp(inbox) => inbox.try_read(),
        }
    }

    /// Ends the current or next wait on the inbox, from any thread: the
    /// bell's driver token, or an empty datagram to the socket's own
    /// port. Best-effort, like the fabric.
    pub fn wake(&self) {
        match &self.0 {
            Source::Bell(bell) => bell.wake(),
            Source::Udp(inbox) => inbox.poke(),
        }
    }

    /// Blocks up to `timeout` for the next datagram. A zero `timeout`
    /// polls, on both sources alike: it returns a datagram that has
    /// already arrived, and never waits for one.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`], when nothing arrived in time *or*
    /// [`Inbox::wake`] interrupted the wait: the caller re-reads whatever
    /// it sleeps on and comes back.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Datagram, RecvTimeoutError> {
        match &self.0 {
            Source::Bell(bell) => {
                let deadline = Instant::now().checked_add(timeout);
                loop {
                    if let Some(datagram) = bell.pop() {
                        return Ok(datagram);
                    }
                    let left = deadline
                        .map_or(Duration::MAX, |d| d.saturating_duration_since(Instant::now()));
                    if left.is_zero() || bell.sleep(left) {
                        return Err(RecvTimeoutError::Timeout);
                    }
                }
            }
            Source::Udp(inbox) => {
                inbox.read().recv_timeout(timeout).ok_or(RecvTimeoutError::Timeout)
            }
        }
    }
}

/// What a parked caller waits for besides datagrams: a tag the layer
/// above chooses, one per kind of completion.
pub type Topic = u8;

/// Where one member's threads meet its inbound datagrams (see the
/// module doc): the queue, the callers parked on it and the driver.
/// A bell no fabric feeds only parks callers.
#[derive(Default)]
pub struct Bell {
    rings: Mutex<Rings>,
}

#[derive(Default)]
struct Rings {
    queue: VecDeque<Datagram>,
    /// The buffer a drain hands back to `queue`: batches keep their
    /// allocation.
    spare: VecDeque<Datagram>,
    /// In the order they enlisted; a datagram wakes the last.
    callers: Vec<Parked>,
    /// A thread is stepping what it took from `queue`, and looks again
    /// before it clears this.
    draining: bool,
    /// A push woke a thread that has not drained yet: it will take
    /// whatever arrives meanwhile.
    rung: bool,
    /// The driver, while it sleeps here.
    driver: Option<Thread>,
    /// A [`Bell::wake`] call the driver has not seen yet.
    token: bool,
    /// The endpoint is gone: pushes drop, nobody parks.
    closed: bool,
}

struct Parked {
    topic: Topic,
    thread: Thread,
    reads: bool,
}

impl Bell {
    fn push(&self, datagram: Datagram) {
        let mut rings = self.rings.lock();
        if rings.closed {
            return;
        }
        rings.queue.push_back(datagram);
        if rings.draining || rings.rung {
            return;
        }
        let Some(thread) = rings.callers.pop().map(|p| p.thread).or_else(|| rings.driver.take())
        else {
            return;
        };
        rings.rung = true;
        drop(rings);
        wake(thread);
    }

    /// The oldest datagram, for the one reader of [`Inbox::recv_timeout`].
    fn pop(&self) -> Option<Datagram> {
        let mut rings = self.rings.lock();
        rings.rung = false;
        rings.queue.pop_front()
    }

    /// Hands every queued datagram to `step`, in arrival order, batch
    /// by batch, until the queue is empty — or does nothing if another
    /// thread is draining, which then steps these too. Only one thread
    /// drains at a time, so per-endpoint FIFO holds. An empty queue
    /// costs one uncontended lock. False if nothing was stepped.
    ///
    /// If `step` unwinds, the claim is released and the rest of the
    /// batch dropped: the member that panicked has ended.
    pub fn drain(&self, mut step: impl FnMut(Datagram)) -> bool {
        let mut batch = {
            let mut rings = self.rings.lock();
            if rings.draining || rings.queue.is_empty() {
                return false;
            }
            rings.draining = true;
            rings.rung = false;
            let mut batch = std::mem::take(&mut rings.spare);
            std::mem::swap(&mut batch, &mut rings.queue);
            batch
        };
        let claim = Claim(self);
        loop {
            batch.drain(..).for_each(&mut step);
            let mut rings = self.rings.lock();
            if rings.queue.is_empty() {
                rings.draining = false;
                rings.spare = batch;
                std::mem::forget(claim);
                return true;
            }
            std::mem::swap(&mut batch, &mut rings.queue);
        }
    }

    /// Puts the calling thread, waiting for `topic` (and reading a socket
    /// while it holds the read token if it `reads`), on the list of parked
    /// callers until it parks ([`Bell::park`]) or leaves. False if
    /// datagrams wait undrained (drain them first) or the bell is closed.
    pub fn enlist(&self, topic: Topic, reads: bool) -> bool {
        let mut rings = self.rings.lock();
        if rings.closed || (!rings.queue.is_empty() && !rings.draining) {
            return false;
        }
        rings.callers.push(Parked { topic, thread: thread::current(), reads });
        true
    }

    /// Parks the enlisted caller until a datagram or its topic rings,
    /// or `until` passes (`None`: no deadline), then takes it off the
    /// list. It may also return early: the caller looks again either
    /// way. Issues the caller's held wake-ups first. True if datagrams
    /// wait that nobody is draining: the caller drains them before it
    /// looks again (a push may have woken it for them).
    pub fn park(&self, until: Option<Instant>) -> bool {
        flush_wakes();
        match until {
            None => thread::park(),
            Some(at) => thread::park_timeout(at.saturating_duration_since(Instant::now())),
        }
        self.leave()
    }

    /// Takes the enlisted caller off the list. True if datagrams wait
    /// that nobody is draining.
    fn leave(&self) -> bool {
        let me = thread::current().id();
        let mut rings = self.rings.lock();
        rings.callers.retain(|p| p.thread.id() != me);
        !rings.queue.is_empty() && !rings.draining
    }

    /// Whether any caller that reads ([`Bell::enlist`]) is enlisted.
    pub fn has_readers(&self) -> bool {
        self.rings.lock().callers.iter().any(|p| p.reads)
    }

    /// Takes the calling thread off the list, if it is enlisted, and
    /// wakes the reader that enlisted last, if any: a socket's reader
    /// lets go of its token. True if it woke one.
    pub fn hand_over(&self) -> bool {
        let me = thread::current().id();
        let mut rings = self.rings.lock();
        rings.callers.retain(|p| p.thread.id() != me);
        let next = rings.callers.iter().rposition(|p| p.reads).map(|at| rings.callers.remove(at));
        drop(rings);
        next.map(|next| wake(next.thread)).is_some()
    }

    /// Wakes every caller parked on `topic`.
    pub fn ring(&self, topic: Topic) {
        let mut rings = self.rings.lock();
        let woken: Vec<Parked> = rings.callers.extract_if(.., |p| p.topic == topic).collect();
        drop(rings);
        woken.into_iter().for_each(|p| wake(p.thread));
    }

    /// The endpoint is gone: drops what is queued and what arrives
    /// later, and wakes every parked caller and the driver for good.
    pub fn close(&self) {
        let mut rings = self.rings.lock();
        rings.closed = true;
        rings.token = true;
        rings.queue.clear();
        let parked = std::mem::take(&mut rings.callers);
        let driver = rings.driver.take();
        drop(rings);
        parked.into_iter().map(|p| p.thread).chain(driver).for_each(wake);
    }

    /// The driver's wait: sleeps up to `timeout` unless datagrams wait
    /// that nobody drains, the token is set or the bell is closed.
    /// True if the token ended it (and is now spent).
    pub fn sleep(&self, timeout: Duration) -> bool {
        let mut rings = self.rings.lock();
        let ready = rings.token || rings.closed || (!rings.queue.is_empty() && !rings.draining);
        if !ready && !timeout.is_zero() {
            rings.driver = Some(thread::current());
            drop(rings);
            match Instant::now().checked_add(timeout) {
                None => thread::park(),
                Some(_) => thread::park_timeout(timeout),
            }
            rings = self.rings.lock();
            rings.driver = None;
        }
        std::mem::take(&mut rings.token)
    }

    /// Ends the driver's wait ([`Bell::sleep`]): sets its token and
    /// wakes it if it sleeps.
    pub fn wake(&self) {
        let mut rings = self.rings.lock();
        rings.token = true;
        let driver = rings.driver.take();
        drop(rings);
        if let Some(driver) = driver {
            wake(driver);
        }
    }
}

/// Releases a drain claim when its drainer unwinds.
struct Claim<'a>(&'a Bell);

impl Drop for Claim<'_> {
    fn drop(&mut self) {
        self.0.rings.lock().draining = false;
    }
}

/// Wake-ups a thread inside [`hold_wakes`] has caused and not yet
/// issued.
#[derive(Default)]
struct Held {
    depth: usize,
    threads: Vec<Thread>,
}

thread_local! {
    static HELD: RefCell<Held> = RefCell::default();
}

/// Wakes `thread` now, or when this thread's hold ends or it parks.
fn wake(thread: Thread) {
    let now = HELD.with_borrow_mut(|held| {
        if held.depth == 0 {
            return Some(thread);
        }
        held.threads.push(thread);
        None
    });
    if let Some(thread) = now {
        thread.unpark();
    }
}

/// Issues the wake-ups this thread holds back.
pub fn flush_wakes() {
    HELD.with_borrow_mut(|held| held.threads.drain(..).for_each(|t| t.unpark()));
}

/// Holds back the wake-ups the calling thread causes through any
/// [`Bell`] — pushes into other endpoints, rings, driver tokens —
/// until the returned guard drops or the thread parks on a bell.
/// Holds nest; the outermost one flushes.
pub fn hold_wakes() -> WakeHold {
    HELD.with_borrow_mut(|held| held.depth += 1);
    WakeHold(PhantomData)
}

/// See [`hold_wakes`]. Bound to its thread.
#[must_use]
pub struct WakeHold(PhantomData<*const ()>);

impl Drop for WakeHold {
    fn drop(&mut self) {
        let outermost = HELD.with_borrow_mut(|held| {
            held.depth -= 1;
            held.depth == 0
        });
        if outermost {
            flush_wakes();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{UdpConfig, UdpNet};
    use bytes::Bytes;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A timeout the clock cannot represent is a wait with no
    /// deadline, on both sources alike, and a wake still ends it
    /// from another thread (before or after the wait begins: either
    /// way nothing else can end it).
    #[test]
    fn a_waker_ends_a_wait_with_no_deadline_on_both_sources() {
        let udp = UdpNet::new(UdpConfig::default());
        for (source, inbox) in
            [("channel", Inbox::channel().1), ("udp", udp.register(FlipAddress::process(1)))]
        {
            std::thread::scope(|s| {
                s.spawn(|| inbox.wake());
                assert_eq!(
                    inbox.recv_timeout(Duration::MAX).err(),
                    Some(RecvTimeoutError::Timeout),
                    "{source}"
                );
            });
        }
    }

    /// Datagram `n` from producer `p`: the number rides in the frame.
    fn numbered(p: u64, n: u64) -> Datagram {
        (FlipAddress::process(p), WireFrame::from(Bytes::from(n.to_le_bytes().to_vec())))
    }

    fn number(frame: &WireFrame) -> u64 {
        u64::from_le_bytes(frame.head[..8].try_into().expect("eight bytes"))
    }

    fn parked(bell: &Bell) -> usize {
        bell.rings.lock().callers.len()
    }

    /// Waits (politely) until `ready` holds.
    fn until(ready: impl Fn() -> bool) {
        let give_up = Instant::now() + Duration::from_secs(10);
        while !ready() {
            assert!(Instant::now() < give_up, "the state never came");
            thread::yield_now();
        }
    }

    /// Several producers push numbered datagrams while several threads
    /// race to drain: each datagram is stepped exactly once, and each
    /// producer's in the order it pushed them.
    #[test]
    fn racing_drainers_step_each_datagram_once_in_producer_order() {
        const PRODUCERS: u64 = 3;
        const EACH: u64 = 5_000;
        let (feed, inbox) = Inbox::channel();
        let bell = inbox.bell().expect("in memory");
        let stepped = Mutex::new(Vec::new());
        let done = AtomicBool::new(false);
        thread::scope(|s| {
            for p in 0..PRODUCERS {
                let feed = feed.clone();
                s.spawn(move || (0..EACH).for_each(|n| feed.send(numbered(p, n))));
            }
            for _ in 0..3 {
                s.spawn(|| {
                    while !done.load(Ordering::Acquire) {
                        bell.drain(|(from, frame)| stepped.lock().push((from, number(&frame))));
                        if bell.enlist(0, false) {
                            bell.park(Some(Instant::now() + Duration::from_millis(5)));
                        }
                    }
                });
            }
            until(|| stepped.lock().len() as u64 == PRODUCERS * EACH);
            done.store(true, Ordering::Release);
        });
        let stepped = stepped.into_inner();
        for p in 0..PRODUCERS {
            let from = FlipAddress::process(p);
            let order: Vec<u64> =
                stepped.iter().filter(|(f, _)| *f == from).map(|(_, n)| *n).collect();
            assert_eq!(order, (0..EACH).collect::<Vec<_>>(), "producer {p}");
        }
    }

    /// A caller and a pusher take turns 20 000 times, each parking
    /// until the other's datagram arrives: a lost wake-up hangs a round
    /// (and the test times out).
    #[test]
    fn ping_pong_through_two_bells_loses_no_wake_up() {
        const ROUNDS: u64 = 20_000;
        let (to_caller, caller_inbox) = Inbox::channel();
        let (to_pusher, pusher_inbox) = Inbox::channel();
        let await_one = |bell: &Bell| loop {
            let mut got = None;
            bell.drain(|(_, frame)| got = Some(number(&frame)));
            if let Some(n) = got {
                return n;
            }
            if bell.enlist(0, false) {
                bell.park(None);
            }
        };
        let pusher_bell = pusher_inbox.bell().expect("in memory");
        thread::scope(|s| {
            s.spawn(|| {
                let bell = pusher_bell;
                for n in 0..ROUNDS {
                    assert_eq!(await_one(bell), n);
                    to_caller.send(numbered(2, n));
                }
            });
            let bell = caller_inbox.bell().expect("in memory");
            for n in 0..ROUNDS {
                to_pusher.send(numbered(1, n));
                assert_eq!(await_one(bell), n);
            }
        });
    }

    /// A push while a caller is parked wakes that caller, not the
    /// driver sleeping on the same bell.
    #[test]
    fn a_push_wakes_the_parked_caller_not_the_driver() {
        let (feed, inbox) = Inbox::channel();
        let bell = inbox.bell().expect("in memory");
        thread::scope(|s| {
            // Only the token ends this wait: a stray wake fails below.
            let driver = s.spawn(|| bell.sleep(Duration::MAX));
            until(|| bell.rings.lock().driver.is_some());
            let caller = s.spawn(|| {
                assert!(bell.enlist(0, false), "nothing queued yet");
                bell.park(None);
                let mut got = 0;
                bell.drain(|_| got += 1);
                got
            });
            until(|| parked(bell) == 1);
            feed.send(numbered(1, 0));
            assert_eq!(caller.join().expect("caller"), 1, "the caller stepped it");
            assert!(bell.rings.lock().driver.is_some(), "the driver still sleeps");
            bell.wake();
            assert!(driver.join().expect("driver"), "the token ended the driver's wait");
        });
    }

    /// A push during a drain wakes nobody — not even a caller parked
    /// meanwhile — and the drainer still steps it before it lets go.
    #[test]
    fn a_push_during_a_drain_wakes_nobody_and_is_stepped() {
        let (feed, inbox) = Inbox::channel();
        let bell = inbox.bell().expect("in memory");
        feed.send(numbered(1, 0));
        let mut stepped = Vec::new();
        bell.drain(|(_, frame)| {
            let n = number(&frame);
            if n == 0 {
                assert!(bell.enlist(0, false), "a running drain lets callers park");
                feed.send(numbered(1, 1));
                assert_eq!(parked(bell), 1, "the push woke nobody");
                assert!(!bell.rings.lock().rung);
                bell.leave();
            }
            stepped.push(n);
        });
        assert_eq!(stepped, [0, 1]);
        assert!(!bell.rings.lock().draining, "the claim is released");
    }

    /// A step that unwinds releases the drain claim, and drops the
    /// rest of its batch: the next drain steps what arrives later.
    #[test]
    fn an_unwinding_step_releases_the_claim() {
        let (feed, inbox) = Inbox::channel();
        let bell = inbox.bell().expect("in memory");
        feed.send(numbered(1, 0));
        feed.send(numbered(1, 1));
        let step = || bell.drain(|_| panic!("a step gave way"));
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)).is_err());
        feed.send(numbered(1, 2));
        let mut stepped = Vec::new();
        assert!(bell.drain(|(_, frame)| stepped.push(number(&frame))));
        assert_eq!(stepped, [2]);
    }
}
