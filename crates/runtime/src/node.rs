//! The per-member driver: the one thread of a member. It feeds packets
//! and timer expirations to the sans-io [`GroupCore`], executes its
//! actions and, when the member hosts an app ([`crate::host`]), runs
//! the app's callbacks between two waits on the inbox.
//!
//! What a member delivers and completes is filed in its one mailbox
//! ([`Mail`]), which its blocked callers and its hosted app both read.
//! Every blocking primitive waits in one place, [`NodeShared::wait`],
//! enlisted on the member's bell ([`amoeba_net::Bell`]) and rung when
//! its mail arrives, on either fabric. A blocked caller also drives its
//! member. On the in-memory fabric the bell is the inbox itself: the
//! caller drains it ([`NodeShared::drain`], the pass the driver runs
//! too), and a datagram wakes it rather than the driver. Over a socket
//! it takes the read token, if nobody holds it, and reads and steps
//! the datagrams itself unless it pipelines sends; the driver reads
//! only while no such caller waits. Timers and apps stay on the driver.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use amoeba_app::TimerId;
use amoeba_core::{
    decode_wire_frame, Action, Dest, FrameEncoder, GroupCore, GroupError, GroupEvent, GroupId,
    GroupInfo, Seqno, TimerKind, WireFrame,
};
use amoeba_flip::FlipAddress;
use amoeba_net::{flush_wakes, Bell, Inbox, ReadToken, Topic, Transport, TransportSender};
use parking_lot::Mutex;

use crate::host::Pump;

/// How long a blocking primitive waits for its completion. The
/// protocol's own retry budgets bound every operation far below this,
/// so an expiry means nobody is driving the member any more.
pub(crate) const OP_DEADLINE: Duration = Duration::from_secs(120);

/// What a caller parked on its member's bell waits for.
const DELIVERY: Topic = 0;
const SEND_DONE: Topic = 1;
/// A join, leave or reset.
const COMPLETION: Topic = 2;

/// A member's mailbox: what its core delivered and completed, until a
/// blocked caller or the hosted app takes it.
#[derive(Default)]
pub(crate) struct Mail {
    /// Delivered events, in the total order.
    pub(crate) events: VecDeque<GroupEvent>,
    /// Send completions, FIFO: every submitted `SendToGroup` files
    /// exactly one, so a pipelining caller pairs them with its
    /// submissions in order.
    pub(crate) sends: VecDeque<Result<Seqno, GroupError>>,
    pub(crate) joined: Option<Result<GroupInfo, GroupError>>,
    pub(crate) left: Option<Result<(), GroupError>>,
    pub(crate) reset: Option<Result<GroupInfo, GroupError>>,
    /// The member has ended: it files nothing more, and a waiter that
    /// finds nothing left learns it as `Disconnected`.
    ended: bool,
    /// Who holds the socket's read token (never set in memory).
    reader: Option<Reader>,
}

/// The holder of a member's read token.
enum Reader {
    /// `poked`: a caller has sent it the datagram that ends its read.
    Driver { poked: bool },
    /// A caller waiting for its topic.
    Caller(ThreadId, Topic),
}

/// How long a driver with no timer armed sleeps at most.
const IDLE: Duration = Duration::from_millis(100);

/// The longest a UDP driver naps on its bell while readers wait: how
/// long its socket may go unread after the last left (DESIGN.md §12).
const NAP: Duration = Duration::from_millis(1);

/// Whose timer: the protocol's or the hosted app's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Timer {
    Proto(TimerKind),
    App(TimerId),
}

/// The member's one timer table, and what the driver last derived from
/// it.
struct Timers {
    due: HashMap<Timer, Instant>,
    /// The instant the driver sleeps until. It never moves later before
    /// it has passed: a timer armed per operation and cancelled when
    /// the operation completes (`SendRetransmit`, on every blocking
    /// send) is then armed *behind* it from the second operation on and
    /// wakes nobody, at the price of one idle wake-up per timer period.
    wake_at: Instant,
    /// App timers a [`Ctx::waker`](amoeba_app::Ctx::waker) handle asked
    /// to fire now, until the driver next looks.
    asked: Vec<TimerId>,
}

/// A member's outbound side, used only during a turn.
struct Port {
    /// This endpoint's frame encoder (reusable scratch, DESIGN.md §7).
    encoder: FrameEncoder,
    /// This endpoint's sending port on the fabric (carries its
    /// epoch-cached membership snapshot and, for UDP, the encode
    /// buffer).
    sender: Box<dyn TransportSender>,
}

/// State shared between the driver thread and the API handle.
pub(crate) struct NodeShared {
    pub(crate) core: Mutex<GroupCore>,
    /// Whose actions execute now: handed over in core-lock order (see
    /// [`NodeShared::step`]). The turn holds the member's outbound
    /// port, so it is also what serialises its sends.
    turn: Mutex<Port>,
    pub(crate) net: Arc<dyn Transport>,
    pub(crate) group: GroupId,
    pub(crate) addr: FlipAddress,
    timers: Mutex<Timers>,
    /// What the member receives on: a bell, or a socket.
    inbox: Inbox,
    /// Where this member's blocked callers enlist, rung when their mail
    /// arrives. On the in-memory fabric it is the inbox itself, and
    /// they drain it; over UDP no fabric feeds it, and it parks the
    /// callers that do not hold the read token and the napping driver.
    pub(crate) bell: Arc<Bell>,
    stop: AtomicBool,
    pub(crate) dropped_frames: AtomicU64,
    /// The app this member's driver runs. Empty under the blocking
    /// API, whose callers read the mailbox themselves.
    hosted: Mutex<Option<Pump>>,
    pub(crate) mail: Mutex<Mail>,
    /// Serializes API-level senders: with `send_window` > 1 the core
    /// happily admits two threads' sends, but the FIFO completions
    /// would then hand thread A thread B's result. One sender drives
    /// the pipeline at a time (the paper's one-thread-per-call model);
    /// a second caller waits instead of racing.
    pub(crate) send_lock: Mutex<()>,
}

impl NodeShared {
    /// A member that receives on `inbox`: its callers park on the bell
    /// its fabric feeds, and drain it too, or over a socket on a bell
    /// no fabric feeds.
    pub(crate) fn new(
        core: GroupCore,
        net: Arc<dyn Transport>,
        group: GroupId,
        addr: FlipAddress,
        inbox: Inbox,
    ) -> Arc<Self> {
        let port = Port { encoder: FrameEncoder::new(), sender: net.sender(addr) };
        Arc::new(NodeShared {
            core: Mutex::new(core),
            turn: Mutex::new(port),
            net,
            group,
            addr,
            timers: Mutex::new(Timers {
                due: HashMap::new(),
                wake_at: Instant::now(),
                asked: Vec::new(),
            }),
            bell: inbox.bell().cloned().unwrap_or_default(),
            inbox,
            stop: AtomicBool::new(false),
            dropped_frames: AtomicU64::new(0),
            hosted: Mutex::new(None),
            mail: Mutex::default(),
            send_lock: Mutex::new(()),
        })
    }

    /// Applies `op` to the core and executes the actions it returns —
    /// the one way anything touches the core.
    ///
    /// Callers and the driver both come through here, and the order in
    /// which they took the core lock is the order the core stamped
    /// their deliveries and decided their timers in. Their actions
    /// must execute in that order too: deliveries, or the mailbox
    /// shows seqno *k + 1* before *k* (a sequencer that sends
    /// through the blocking API delivers locally on the caller's
    /// thread while the driver delivers remote traffic); timers, or a
    /// stale `CancelTimer` overtakes the next operation's `SetTimer`
    /// and a retransmission timer is lost for good. So the `turn` lock
    /// is taken *before* the core lock is released and held while the
    /// actions run — the core itself is not held across wire sends and
    /// wake-ups. The turn's lock guards the member's outbound [`Port`]
    /// too, its encoder and its sender: one lock per step, not one per
    /// datagram.
    ///
    /// `SendDone` alone waits until the turn is over: it wakes a caller
    /// whose next move is to come back through here, and a lock held
    /// across that wake-up costs two context switches per send. It
    /// still follows its own message's delivery and `CancelTimer`.
    ///
    /// A member that has ended steps nothing: its core may have been
    /// left mid-step by the panic that ended it.
    pub(crate) fn step(&self, op: impl FnOnce(&mut GroupCore) -> Vec<Action>) {
        if self.stop.load(Ordering::Acquire) {
            return;
        }
        let mut done = Vec::new();
        {
            let mut core = self.core.lock();
            let actions = op(&mut core);
            let mut port = self.turn.lock();
            drop(core);
            for action in actions {
                match action {
                    Action::SendDone(r) => done.push(r),
                    action => self.run(&mut port, action),
                }
            }
        }
        for r in done {
            self.post(SEND_DONE, |mail| mail.sends.push_back(r));
        }
    }

    /// Executes one action of a turn (`port` is the turn's).
    fn run(&self, port: &mut Port, action: Action) {
        match action {
            Action::Send { dest, msg } => {
                // Zero-copy from here on: large payloads ride as a
                // gathered tail segment; the in-memory transport
                // refcount-shares the two segments per receiver, the
                // UDP transport gather-writes them per fragment
                // (DESIGN.md §7, §12).
                let frame = port.encoder.encode_frame(&msg);
                match dest {
                    Dest::Unicast(to) => port.sender.unicast(to, frame),
                    Dest::Group => port.sender.multicast(self.group, frame),
                }
            }
            Action::SetTimer { kind, after_us } => {
                self.set_timer(Timer::Proto(kind), Duration::from_micros(after_us));
            }
            Action::CancelTimer { kind } => self.cancel_timer(Timer::Proto(kind)),
            Action::Deliver(ev) => self.post(DELIVERY, |mail| mail.events.push_back(ev)),
            Action::SendDone(_) => unreachable!("`step` posts SendDone after the turn"),
            Action::JoinDone(r) => self.post(COMPLETION, |mail| mail.joined = Some(r)),
            Action::LeaveDone(r) => self.post(COMPLETION, |mail| mail.left = Some(r)),
            Action::ResetDone(r) => self.post(COMPLETION, |mail| mail.reset = Some(r)),
        }
    }

    /// Files mail under `topic` and rings for it — unless the member
    /// has ended, which takes no more. A caller reading the socket for
    /// `topic` on another thread is in `recv_from`, not parked: the
    /// inbox's wake ends its read.
    fn post(&self, topic: Topic, file: impl FnOnce(&mut Mail)) {
        let mut mail = self.mail.lock();
        if mail.ended {
            return;
        }
        file(&mut mail);
        let poke = matches!(mail.reader,
            Some(Reader::Caller(id, t)) if t == topic && id != thread::current().id());
        drop(mail);
        self.bell.ring(topic);
        if poke {
            self.inbox.wake();
        }
    }

    /// Steps every datagram queued for this member, in arrival order:
    /// the one pass the driver and its blocked callers both run. False
    /// if it stepped nothing: the inbox was empty (as a closed one
    /// is), or another thread is draining it.
    pub(crate) fn drain(&self) -> bool {
        self.bell.drain(|(from, frame)| self.receive(from, frame))
    }

    /// Steps one datagram. A garbled packet is dropped and counted: the
    /// protocol's loss machinery recovers, as on real wires.
    fn receive(&self, from: FlipAddress, frame: WireFrame) {
        match decode_wire_frame(frame) {
            Ok(msg) => self.step(|core| core.handle_message(from, msg)),
            Err(_) => drop(self.dropped_frames.fetch_add(1, Ordering::Relaxed)),
        }
    }

    /// Runs `step` on a blocked caller's thread. A panic in it ends the
    /// member, as one on the driver's thread does (see [`drive`]), and
    /// the caller learns it as [`GroupError::Disconnected`]: nothing
    /// unwinds into the app.
    fn step_as_caller<T>(&self, step: impl FnOnce() -> T) {
        if catch_unwind(AssertUnwindSafe(step)).is_err() {
            self.shutdown();
        }
    }

    /// The one wait of the blocking primitives, on either fabric:
    /// `take` from the mailbox and, finding nothing, enlist on the bell
    /// for `topic` under the same mail lock, so that whatever is filed
    /// after the look rings for this caller. Over a socket, a caller
    /// that `reads` takes the read token too if nobody holds it, and
    /// while holding it reads and steps one datagram at a time, looking
    /// again after each. Else park until woken or `deadline`; drain the
    /// inbox if datagrams wait that nobody drains (the bell refused the
    /// enlistment for them, or a push woke this caller for them) — and
    /// round again. Issues the caller's held wake-ups when it parks,
    /// before each read and when it is done.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Disconnected`] once the member has ended and
    /// `take` finds nothing left; `Timeout` when `deadline` passed
    /// first.
    fn wait<R>(
        &self,
        topic: Topic,
        reads: bool,
        deadline: Duration,
        mut take: impl FnMut(&mut Mail) -> Option<R>,
    ) -> Result<R, RecvTimeoutError> {
        // The clock is read only on the way to a wait: mail that is
        // already there costs one lock.
        let mut until = None;
        let mut token = None;
        let got = loop {
            let mut mail = self.mail.lock();
            let mut at = None;
            let got = match take(&mut mail) {
                Some(r) => Some(Ok(r)),
                None if mail.ended => Some(Err(RecvTimeoutError::Disconnected)),
                None => {
                    let now = Instant::now();
                    at = *until.get_or_insert(now.checked_add(deadline));
                    at.is_some_and(|at| now >= at).then_some(Err(RecvTimeoutError::Timeout))
                }
            };
            if let Some(got) = got {
                self.leave_socket(&mut mail, token.take(), topic);
                break got;
            }
            if token.is_none() {
                // Enlisted under the mail lock: whatever is filed from
                // here on rings for this thread.
                let enlisted = self.bell.enlist(topic, reads);
                token = (reads && enlisted).then(|| self.take_token(&mut mail, topic)).flatten();
                if token.is_none() {
                    drop(mail);
                    if !enlisted || self.bell.park(at) {
                        self.step_as_caller(|| self.drain());
                    }
                    continue;
                }
            }
            drop(mail);
            let token = token.as_mut().expect("held");
            // Held wake-ups are due before this thread blocks in the
            // socket, where nothing issues them.
            flush_wakes();
            let left = at.map_or(Duration::MAX, |at| at.saturating_duration_since(Instant::now()));
            if let Some((from, frame)) = token.recv_timeout(left) {
                self.step_as_caller(|| self.receive(from, frame));
            }
        };
        // The wake-ups held so far are due now, not after the rest of
        // a pipelined stream: a sequencer must hear each request while
        // the window still has room.
        flush_wakes();
        got
    }

    /// Over a socket, a caller enlisted for `topic` takes the read
    /// token if it is free, marked as its holder, or, if the driver
    /// holds it, ends the driver's read once, so that the driver hands
    /// it over. Under the mail lock, as every holder change is.
    fn take_token(&self, mail: &mut Mail, topic: Topic) -> Option<ReadToken<'_>> {
        let token = self.inbox.try_read();
        match &mut mail.reader {
            reader if token.is_some() => {
                *reader = Some(Reader::Caller(thread::current().id(), topic));
            }
            Some(Reader::Driver { poked }) if !*poked => {
                *poked = true;
                self.inbox.wake();
            }
            _ => {}
        }
        token
    }

    /// A caller waiting for `topic` leaves its wait: it gives up the
    /// read token, if it holds it, and if nobody reads the socket then,
    /// it wakes the reader that enlisted last to take it — or, if none
    /// did and this was a join, leave or reset, the driver: such a
    /// caller is one call, not a loop that is about to come back.
    /// Under the mail lock, so nobody enlists meanwhile.
    fn leave_socket(&self, mail: &mut Mail, token: Option<ReadToken<'_>>, topic: Topic) {
        if self.inbox.bell().is_some() {
            return;
        }
        if token.is_some() {
            mail.reader = None;
        }
        if mail.reader.is_none() && !self.bell.hand_over() && topic == COMPLETION {
            self.bell.wake();
        }
    }

    /// Waits up to `deadline` for the next delivered event.
    ///
    /// # Errors
    ///
    /// As [`NodeShared::wait`].
    pub(crate) fn wait_event(&self, deadline: Duration) -> Result<GroupEvent, RecvTimeoutError> {
        self.wait(DELIVERY, true, deadline, |mail| mail.events.pop_front())
    }

    /// Arms (or re-arms) `timer`, and wakes the driver if that is
    /// sooner than it sleeps until. A deadline the clock cannot
    /// represent is no deadline: the timer is disarmed and never fires.
    pub(crate) fn set_timer(&self, timer: Timer, after: Duration) {
        let mut timers = self.timers.lock();
        let Some(at) = Instant::now().checked_add(after) else {
            timers.due.remove(&timer);
            return;
        };
        timers.due.insert(timer, at);
        let sooner = at < timers.wake_at;
        drop(timers);
        if sooner {
            self.wake_driver();
        }
    }

    pub(crate) fn cancel_timer(&self, timer: Timer) {
        self.timers.lock().due.remove(&timer);
    }

    /// Disarms every app timer: the app has ended.
    pub(crate) fn cancel_app_timers(&self) {
        self.timers.lock().due.retain(|timer, _| matches!(timer, Timer::Proto(_)));
    }

    /// A [`Ctx::waker`](amoeba_app::Ctx::waker) call: lists `timer` for
    /// the driver, which makes it due when it next looks — if it is
    /// armed then: a waker never invents a callback.
    pub(crate) fn wake_timer(&self, timer: TimerId) {
        let mut timers = self.timers.lock();
        // Already asked and not yet looked at: the driver is awake or
        // on its way, so a burst of calls costs one wake-up.
        if !timers.asked.contains(&timer) {
            timers.asked.push(timer);
            drop(timers);
            self.wake_driver();
        }
    }

    /// Hands `pump`'s app to the driver, which starts it at its next
    /// wake-up: now.
    pub(crate) fn host(&self, pump: Pump) {
        *self.hosted.lock() = Some(pump);
        self.wake_driver();
    }

    /// Ends the driver's wait, whichever it is in: its sleep or nap on
    /// the bell, or its read of the socket.
    fn wake_driver(&self) {
        if self.inbox.bell().is_none() {
            self.bell.wake();
        }
        self.inbox.wake();
    }

    /// Gives the hosted app, if there is one, its next turn.
    fn app_turn<R>(self: &Arc<Self>, turn: impl FnOnce(&mut Pump, &Arc<Self>) -> R) -> Option<R> {
        self.hosted.lock().as_mut().map(|pump| turn(pump, self))
    }

    /// Runs a blocking join, leave or reset: clears its `outcome` in
    /// the mailbox, applies `op` to the core, and waits up to
    /// `deadline` for the outcome.
    ///
    /// # Errors
    ///
    /// The operation's own error, or [`GroupError::Disconnected`] when
    /// the member has ended or nothing completed it in time.
    pub(crate) fn blocking_op<T>(
        &self,
        outcome: impl Fn(&mut Mail) -> &mut Option<Result<T, GroupError>>,
        deadline: Duration,
        op: impl FnOnce(&mut GroupCore) -> Vec<Action>,
    ) -> Result<T, GroupError> {
        *outcome(&mut self.mail.lock()) = None;
        self.step(op);
        let done = self.wait(COMPLETION, true, deadline, |mail| outcome(mail).take());
        done.unwrap_or(Err(GroupError::Disconnected))
    }

    /// Submits one `SendToGroup`. Exactly one completion will be filed
    /// in the mailbox (possibly `Err(Busy)` synchronously when the
    /// pipelining window is full).
    pub(crate) fn submit_send(&self, payload: bytes::Bytes) {
        self.step(|core| core.send_to_group(payload));
    }

    /// Waits for the next send completion, FIFO with submissions.
    ///
    ///
    /// # Errors
    ///
    /// The send's own error, or [`GroupError::Disconnected`] when no
    /// completion arrived within `deadline` (see [`OP_DEADLINE`]).
    pub(crate) fn wait_send(&self, deadline: Duration, reads: bool) -> Result<Seqno, GroupError> {
        let done = self.wait(SEND_DONE, reads, deadline, |mail| mail.sends.pop_front());
        done.unwrap_or(Err(GroupError::Disconnected))
    }

    /// Ends this member: it vanishes from the fabric, its driver
    /// returns at its next wake-up, which is now, and so does every
    /// caller blocked on it — with what was already queued for it,
    /// then `Disconnected`. Callable from the driver thread too, which
    /// cannot join itself: the [`GroupHandle`](crate::GroupHandle) does
    /// that when it drops.
    pub(crate) fn shutdown(&self) {
        self.mail.lock().ended = true;
        self.stop.store(true, Ordering::Release);
        self.net.unregister(self.addr);
        self.bell.close();
        self.wake_driver();
    }

    /// The driver's turn at a socket: if no reading caller waits on the
    /// member and the read token is free, read one datagram within
    /// `timeout`, step it and wake the reader that enlisted meanwhile,
    /// if any. Else, or once a caller came for the token, nap on the
    /// bell until `timeout`, for [`NAP`] at most.
    fn read_as_driver(&self, timeout: Duration) {
        let mut mail = self.mail.lock();
        let token = if self.bell.has_readers() { None } else { self.inbox.try_read() };
        if let Some(mut token) = token {
            mail.reader = Some(Reader::Driver { poked: false });
            drop(mail);
            if let Some((from, frame)) = token.recv_timeout(timeout) {
                self.receive(from, frame);
            }
            mail = self.mail.lock();
            let poked = matches!(mail.reader.take(), Some(Reader::Driver { poked: true }));
            drop(token);
            if !self.bell.hand_over() && !poked {
                return;
            }
        }
        drop(mail);
        if !timeout.is_zero() {
            self.bell.sleep(timeout.min(NAP));
        }
    }

    /// Fires the timers that are due, earliest deadline first (the
    /// protocol's before the app's on a tie), then says how long the
    /// driver may sleep — published as `wake_at` under the lock
    /// `set_timer` compares against: a timer armed before this is seen
    /// here, one armed after sees the new `wake_at`. No time at all if
    /// anything fired: a timer's actions or its app callback may have
    /// queued events for this very thread.
    fn fire_expired(self: &Arc<Self>) -> Duration {
        let now = Instant::now();
        let mut timers = self.timers.lock();
        let Timers { due, asked, .. } = &mut *timers;
        for id in asked.drain(..) {
            due.entry(Timer::App(id)).and_modify(|at| *at = now);
        }
        let mut fired = false;
        loop {
            let expired = timers
                .due
                .iter()
                .filter(|(_, at)| **at <= now)
                .min_by_key(|(timer, at)| (**at, matches!(timer, Timer::App(_))))
                .map(|(timer, _)| *timer);
            let Some(timer) = expired else { break };
            timers.due.remove(&timer);
            drop(timers);
            fired = true;
            match timer {
                Timer::Proto(kind) => self.step(|core| core.handle_timer(kind)),
                Timer::App(id) => drop(self.app_turn(|pump, node| pump.fire(node, id))),
            }
            timers = self.timers.lock();
        }
        if fired {
            return Duration::ZERO;
        }
        let next = timers.due.values().min().copied().unwrap_or(now + IDLE);
        timers.wake_at = if timers.wake_at > now { next.min(timers.wake_at) } else { next };
        timers.wake_at.saturating_duration_since(Instant::now())
    }
}

/// The driver loop: give the hosted app its next event, fire what
/// expired, drain the inbox and sleep on its bell — or, over a socket,
/// read one datagram off it ([`NodeShared::read_as_driver`]) — until
/// the next deadline. The wait is taken only after a pass that fed
/// nothing, fired nothing and drained nothing — an app's send at a
/// sequencer, a timer's actions, or a datagram queue mail for this
/// thread, which nobody else would wake for it.
///
/// A panic, in an app callback or anywhere below, ends the member like
/// a crash; if it hosts an app the payload goes to `Pumps::join`, which
/// would otherwise wait for that app for ever.
pub(crate) fn drive(shared: Arc<NodeShared>) {
    let run = || {
        while !shared.stop.load(Ordering::Acquire) {
            let fed = shared.app_turn(Pump::feed_one).unwrap_or(false);
            let sleep = shared.fire_expired();
            let timeout = if fed { Duration::ZERO } else { sleep };
            if shared.inbox.bell().is_none() {
                shared.read_as_driver(timeout);
            } else if !shared.drain() && !timeout.is_zero() {
                shared.bell.sleep(timeout);
            }
        }
    };
    if let Err(payload) = catch_unwind(AssertUnwindSafe(run)) {
        shared.shutdown();
        match shared.hosted.lock().take() {
            Some(pump) => pump.panicked(payload),
            None => resume_unwind(payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::Amoeba;
    use amoeba_core::{GroupConfig, MemberId, WireFrame};
    use amoeba_net::{FaultPlan, LiveNet, UdpConfig, UdpNet};
    use std::sync::mpsc::{self, Receiver, Sender};

    /// A fabric whose sends park until released: it holds a thread
    /// between releasing the core lock and finishing its actions.
    struct Gate {
        entered: Sender<()>,
        release: Arc<Mutex<Receiver<()>>>,
    }

    impl Transport for Gate {
        fn register(&self, _: FlipAddress) -> Inbox {
            Inbox::channel().1
        }
        fn unregister(&self, _: FlipAddress) {}
        fn join_mcast(&self, _: GroupId, _: FlipAddress) {}
        fn sender(&self, _: FlipAddress) -> Box<dyn TransportSender> {
            Box::new(Gate { entered: self.entered.clone(), release: Arc::clone(&self.release) })
        }
    }

    impl TransportSender for Gate {
        fn unicast(&mut self, _: FlipAddress, frame: WireFrame) {
            self.multicast(GroupId(0), frame);
        }
        fn multicast(&mut self, _: GroupId, _: WireFrame) {
            let _ = self.entered.send(());
            let _ = self.release.lock().recv_timeout(Duration::from_secs(5));
        }
    }

    /// The total-order defect PR 11's benchmark found, forced: the
    /// first operation stalls in a wire send that sits *ahead of* its
    /// delivery, and a second operation takes the core lock meanwhile.
    /// Its delivery must still come second.
    #[test]
    fn actions_execute_in_core_lock_order() {
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let addr = FlipAddress::process(1);
        let (core, join) = GroupCore::join(GroupId(1), addr, GroupConfig::default()).expect("join");
        let send = join.into_iter().find(Action::is_send).expect("a joiner sends its request");
        let release = Arc::new(Mutex::new(release_rx));
        let gate = Arc::new(Gate { entered: entered_tx, release });
        let inbox = gate.register(addr);
        let shared = NodeShared::new(core, gate, GroupId(1), addr, inbox);
        let deliver = |n| {
            Action::Deliver(GroupEvent::Message {
                seqno: Seqno(n),
                origin: MemberId(0),
                payload: bytes::Bytes::new(),
            })
        };
        let (locked_tx, locked_rx) = mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| shared.step(|_| vec![send, deliver(1)]));
            entered_rx.recv_timeout(Duration::from_secs(5)).expect("first step is sending");
            s.spawn(|| {
                shared.step(|_| {
                    let _ = locked_tx.send(());
                    vec![deliver(2)]
                })
            });
            locked_rx.recv_timeout(Duration::from_secs(5)).expect("second step holds the core");
            release_tx.send(()).expect("sender parked");
        });
        let next = || match shared.mail.lock().events.pop_front() {
            Some(GroupEvent::Message { seqno, .. }) => Some(seqno.0),
            _ => None,
        };
        assert_eq!([next(), next(), next()], [Some(1), Some(2), None]);
    }

    /// A timer armed from a caller's thread *ahead of* the instant the
    /// driver sleeps until must interrupt that sleep, on either fabric:
    /// without `SetTimer`'s wake it fires when the sequencer's own
    /// next timer does, ~990 ms late. The bound is the coarsest wait in
    /// use, not the wake: over UDP the kernel counts the socket timeout
    /// in ticks and fires it up to two late (8 ms at `HZ=250`, 20 ms at
    /// `HZ=100`). One attempt in three may be spoiled by the sibling
    /// tests' threads.
    #[test]
    fn a_timer_armed_ahead_of_the_drivers_sleep_fires_on_time() {
        let fabrics: [Arc<dyn Transport>; 2] =
            [LiveNet::new(1, FaultPlan::reliable()), UdpNet::new(UdpConfig::default())];
        for (gid, net) in fabrics.into_iter().enumerate() {
            let amoeba = Amoeba::over_transport(net, 1);
            let a = amoeba.create_group(GroupId(1), GroupConfig::default()).expect("create");
            let shared = &a.shared;
            let kind = TimerKind::ProbeTimeout { member: MemberId(9) }; // fires into a no-op
            let late: Vec<Duration> = (0..3)
                .map(|_| {
                    let far = Duration::from_millis(30);
                    while shared.timers.lock().wake_at < Instant::now() + far {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    let due = Instant::now() + Duration::from_millis(10);
                    shared.step(|_| vec![Action::SetTimer { kind, after_us: 10_000 }]);
                    while shared.timers.lock().due.contains_key(&Timer::Proto(kind)) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                    Instant::now().saturating_duration_since(due)
                })
                .take_while(|late| *late > Duration::from_millis(25))
                .collect();
            assert!(late.len() < 3, "fabric {gid}: fired late by {late:?}");
        }
    }

    /// A frame that does not decode is dropped and counted.
    #[test]
    fn an_undecodable_frame_is_counted() {
        let net = LiveNet::new(1, FaultPlan::reliable());
        let amoeba = Amoeba::over_transport(net.clone(), 1);
        let a = amoeba.create_group(GroupId(1), GroupConfig::default()).expect("create");
        let garbage = WireFrame::from(bytes::Bytes::from_static(b"\xFFgarbage"));
        net.sender(FlipAddress::process(7)).unicast(a.shared.addr, garbage);
        while a.dropped_frames() == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(a.dropped_frames(), 1);
    }

    /// Over UDP a send wait that pipelines leaves the socket to the
    /// driver: parked for its completion, the caller holds no read
    /// token and is no reader the driver makes way for, where a
    /// blocking sender's wait takes the token. The member has no
    /// driver and nothing completes, so each wait ends at shutdown.
    #[test]
    fn over_udp_a_pipelining_send_wait_leaves_the_socket_to_the_driver() {
        for pipelined in [true, false] {
            let net = UdpNet::new(UdpConfig::default());
            let (group, addr) = (GroupId(1), FlipAddress::process(1));
            let inbox = net.register(addr);
            net.join_mcast(group, addr);
            let (core, actions) =
                GroupCore::create(group, addr, GroupConfig::default()).expect("create");
            let shared = NodeShared::new(core, net, group, addr, inbox);
            shared.step(|_| actions);
            let looks = AtomicU64::new(0);
            let seen = std::thread::scope(|s| {
                let waiter = s.spawn(|| {
                    shared.wait(SEND_DONE, !pipelined, Duration::from_secs(30), |_| {
                        looks.fetch_add(1, Ordering::SeqCst);
                        None::<()>
                    })
                });
                while looks.load(Ordering::SeqCst) == 0 {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // The first look enlists, and takes the token, under
                // the mail lock it was taken under.
                drop(shared.mail.lock());
                let seen = (shared.bell.has_readers(), shared.inbox.try_read().is_some());
                shared.shutdown();
                let got = waiter.join().expect("the wait returns");
                assert_eq!(got, Err(RecvTimeoutError::Disconnected), "pipelined: {pipelined}");
                seen
            });
            assert_eq!(seen, (!pipelined, pipelined), "pipelined {pipelined}: (reader, token free)");
        }
    }
}
