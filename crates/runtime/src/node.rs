//! The per-member driver: the one thread of a member. It feeds packets
//! and timer expirations to the sans-io [`GroupCore`], executes its
//! actions and, when the member hosts an app ([`crate::host`]), runs
//! the app's callbacks between two waits on the inbox.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amoeba_app::TimerId;
use amoeba_core::{
    decode_wire_frame, Action, Dest, FrameEncoder, GroupCore, GroupError, GroupEvent,
    GroupId, GroupInfo, Seqno, TimerKind,
};
use amoeba_flip::FlipAddress;
use amoeba_net::{Inbox, Transport, TransportSender, Waker};
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::host::Pump;

/// How long a blocking primitive waits for its completion. The
/// protocol's own retry budgets bound every operation far below this,
/// so an expiry means nobody is driving the member any more.
pub(crate) const OP_DEADLINE: Duration = Duration::from_secs(120);

/// A one-shot completion slot for a blocking primitive.
pub(crate) struct Slot<T> {
    value: Mutex<Option<Result<T, GroupError>>>,
    cv: Condvar,
}

impl<T> Slot<T> {
    fn new() -> Self {
        Slot { value: Mutex::new(None), cv: Condvar::new() }
    }

    fn put(&self, v: Result<T, GroupError>) {
        *self.value.lock() = Some(v);
        self.cv.notify_all();
    }

    /// Blocks until the completion arrives.
    ///
    /// # Errors
    ///
    /// The operation's own error, or [`GroupError::Disconnected`] when
    /// nothing completed it within `deadline`.
    pub(crate) fn wait(&self, deadline: Duration) -> Result<T, GroupError> {
        let mut guard = self.value.lock();
        let end = Instant::now() + deadline;
        while guard.is_none() {
            if self.cv.wait_until(&mut guard, end).timed_out() {
                return guard.take().unwrap_or(Err(GroupError::Disconnected));
            }
        }
        guard.take().expect("checked above")
    }

    /// The completion, if it has arrived: what the driver thread asks
    /// instead of [`Slot::wait`], since it is the one that fills slots.
    pub(crate) fn try_take(&self) -> Option<Result<T, GroupError>> {
        self.value.lock().take()
    }

    pub(crate) fn clear(&self) {
        *self.value.lock() = None;
    }
}

/// How long a driver with no timer armed sleeps at most.
const IDLE: Duration = Duration::from_millis(100);

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

/// State shared between the driver thread and the API handle.
pub(crate) struct NodeShared {
    pub(crate) core: Mutex<GroupCore>,
    /// Whose actions execute now: handed over in core-lock order (see
    /// [`NodeShared::step`]).
    turn: Mutex<()>,
    pub(crate) net: Arc<dyn Transport>,
    /// This endpoint's frame encoder (reusable scratch, DESIGN.md §7).
    encoder: Mutex<FrameEncoder>,
    /// This endpoint's sending port on the fabric (carries its
    /// epoch-cached membership snapshot and, for UDP, the encode
    /// buffer). The mutex is what serialises sends per endpoint.
    sender: Mutex<Box<dyn TransportSender>>,
    pub(crate) group: GroupId,
    pub(crate) addr: FlipAddress,
    timers: Mutex<Timers>,
    /// Interrupts the driver's wait on its inbox: an earlier timer, an
    /// app to host, a [`Ctx::waker`](amoeba_app::Ctx::waker) call, or
    /// `stop`.
    waker: Waker,
    stop: AtomicBool,
    pub(crate) dropped_frames: AtomicU64,
    /// The app this member's driver runs. Empty under the blocking
    /// API, whose callers drain the two channels below themselves.
    hosted: Mutex<Option<Pump>>,
    events_tx: Sender<GroupEvent>,
    /// Send completions, FIFO: every submitted `SendToGroup` produces
    /// exactly one message here, so a pipelining caller pairs them with
    /// its submissions in order (a channel, not a [`Slot`], because a
    /// `send_window` > 1 can have several completions in flight).
    send_done_tx: Sender<Result<Seqno, GroupError>>,
    pub(crate) send_done_rx: Receiver<Result<Seqno, GroupError>>,
    /// Serializes API-level senders: with `send_window` > 1 the core
    /// happily admits two threads' sends, but the FIFO completion
    /// channel would then hand thread A thread B's result. One sender
    /// drives the pipeline at a time (the paper's one-thread-per-call
    /// model); a second caller waits instead of racing.
    pub(crate) send_lock: Mutex<()>,
    pub(crate) join_done: Slot<GroupInfo>,
    pub(crate) leave_done: Slot<()>,
    pub(crate) reset_done: Slot<GroupInfo>,
}

impl NodeShared {
    pub(crate) fn new(
        core: GroupCore,
        net: Arc<dyn Transport>,
        group: GroupId,
        addr: FlipAddress,
        events_tx: Sender<GroupEvent>,
        waker: Waker,
    ) -> Arc<Self> {
        let (send_done_tx, send_done_rx) = channel::unbounded();
        let sender = Mutex::new(net.sender(addr));
        Arc::new(NodeShared {
            core: Mutex::new(core),
            turn: Mutex::new(()),
            net,
            encoder: Mutex::new(FrameEncoder::new()),
            sender,
            group,
            addr,
            timers: Mutex::new(Timers {
                due: HashMap::new(),
                wake_at: Instant::now(),
                asked: Vec::new(),
            }),
            waker,
            stop: AtomicBool::new(false),
            dropped_frames: AtomicU64::new(0),
            hosted: Mutex::new(None),
            events_tx,
            send_done_tx,
            send_done_rx,
            send_lock: Mutex::new(()),
            join_done: Slot::new(),
            leave_done: Slot::new(),
            reset_done: Slot::new(),
        })
    }

    /// Applies `op` to the core and executes the actions it returns —
    /// the one way anything touches the core.
    ///
    /// Callers and the driver both come through here, and the order in
    /// which they took the core lock is the order the core stamped
    /// their deliveries and decided their timers in. Their actions
    /// must execute in that order too: deliveries, or the event
    /// channel shows seqno *k + 1* before *k* (a sequencer that sends
    /// through the blocking API delivers locally on the caller's
    /// thread while the driver delivers remote traffic); timers, or a
    /// stale `CancelTimer` overtakes the next operation's `SetTimer`
    /// and a retransmission timer is lost for good. So the `turn` lock
    /// is taken *before* the core lock is released and held while the
    /// actions run — the core itself is not held across wire sends and
    /// wake-ups.
    ///
    /// `SendDone` alone waits until the turn is over: it wakes a caller
    /// whose next move is to come back through here, and a lock held
    /// across that wake-up costs two context switches per send. It
    /// still follows its own message's delivery and `CancelTimer`.
    pub(crate) fn step(&self, op: impl FnOnce(&mut GroupCore) -> Vec<Action>) {
        let mut done = Vec::new();
        {
            let mut core = self.core.lock();
            let actions = op(&mut core);
            let _turn = self.turn.lock();
            drop(core);
            for action in actions {
                if matches!(action, Action::SendDone(_)) {
                    done.push(action);
                } else {
                    self.run(action);
                }
            }
        }
        for action in done {
            self.run(action);
        }
    }

    fn run(&self, action: Action) {
        match action {
            Action::Send { dest, msg } => {
                // Zero-copy from here on: large payloads ride as a
                // gathered tail segment; the in-memory transport
                // refcount-shares the two segments per receiver, the
                // UDP transport gather-writes them per fragment
                // (DESIGN.md §7, §12).
                let frame = self.encoder.lock().encode_frame(&msg);
                let sender = &mut *self.sender.lock();
                match dest {
                    Dest::Unicast(to) => sender.unicast(to, frame),
                    Dest::Group => sender.multicast(self.group, frame),
                }
            }
            Action::SetTimer { kind, after_us } => {
                self.set_timer(Timer::Proto(kind), Duration::from_micros(after_us));
            }
            Action::CancelTimer { kind } => self.cancel_timer(Timer::Proto(kind)),
            Action::Deliver(ev) => drop(self.events_tx.send(ev)),
            Action::SendDone(r) => drop(self.send_done_tx.send(r)),
            Action::JoinDone(r) => self.join_done.put(r),
            Action::LeaveDone(r) => self.leave_done.put(r),
            Action::ResetDone(r) => self.reset_done.put(r),
        }
    }

    /// Arms (or re-arms) `timer`, and wakes the driver if that is
    /// sooner than it sleeps until.
    pub(crate) fn set_timer(&self, timer: Timer, after: Duration) {
        let at = Instant::now() + after;
        let mut timers = self.timers.lock();
        timers.due.insert(timer, at);
        let sooner = at < timers.wake_at;
        drop(timers);
        if sooner {
            (self.waker)();
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
            (self.waker)();
        }
    }

    /// Hands `pump`'s app to the driver, which starts it at its next
    /// wake-up: now.
    pub(crate) fn host(&self, pump: Pump) {
        *self.hosted.lock() = Some(pump);
        (self.waker)();
    }

    /// Gives the hosted app, if there is one, its next turn.
    fn app_turn<R>(self: &Arc<Self>, turn: impl FnOnce(&mut Pump, &Arc<Self>) -> R) -> Option<R> {
        self.hosted.lock().as_mut().map(|pump| turn(pump, self))
    }

    /// Runs a blocking primitive: clears its slot, applies `op` to the
    /// core, and waits up to `deadline` for completion.
    pub(crate) fn blocking_op<T>(
        &self,
        slot: &Slot<T>,
        deadline: Duration,
        op: impl FnOnce(&mut GroupCore) -> Vec<Action>,
    ) -> Result<T, GroupError> {
        slot.clear();
        self.step(op);
        slot.wait(deadline)
    }

    /// Submits one `SendToGroup`. Exactly one completion will arrive on
    /// the send-done channel (possibly `Err(Busy)` synchronously when
    /// the pipelining window is full).
    pub(crate) fn submit_send(&self, payload: bytes::Bytes) {
        self.step(|core| core.send_to_group(payload));
    }

    /// Waits for the next send completion, FIFO with submissions.
    ///
    /// # Errors
    ///
    /// The send's own error, or [`GroupError::Disconnected`] when no
    /// completion arrived within `deadline` (see [`OP_DEADLINE`]).
    pub(crate) fn wait_send(&self, deadline: Duration) -> Result<Seqno, GroupError> {
        self.send_done_rx.recv_timeout(deadline).unwrap_or(Err(GroupError::Disconnected))
    }

    /// Ends this member: it vanishes from the fabric and its driver
    /// returns at its next wake-up, which is now. Callable from the
    /// driver thread too, which cannot join itself: the
    /// [`GroupHandle`](crate::GroupHandle) does that when it drops.
    pub(crate) fn shutdown(&self) {
        self.net.unregister(self.addr);
        self.stop.store(true, Ordering::Release);
        (self.waker)();
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
/// expired, wait on the inbox until the next deadline, step. The wait
/// is taken only after a pass that fed nothing and fired nothing — an
/// app's send at a sequencer, or a timer's actions, queue events for
/// this thread, which nobody else would wake for them.
///
/// A panic, in an app callback or anywhere below, ends the member like
/// a crash; if it hosts an app the payload goes to `Pumps::join`, which
/// would otherwise wait for that app for ever.
pub(crate) fn drive(shared: Arc<NodeShared>, inbox: Inbox) {
    let run = || {
        while !shared.stop.load(Ordering::Acquire) {
            let fed = shared.app_turn(Pump::feed_one).unwrap_or(false);
            let sleep = shared.fire_expired();
            let timeout = if fed { Duration::ZERO } else { sleep };
            let Ok((from, frame)) = inbox.recv_timeout(timeout) else { continue };
            // A garbled packet is dropped and counted: the protocol's
            // loss machinery recovers, as on real wires.
            match decode_wire_frame(frame) {
                Ok(msg) => shared.step(|core| core.handle_message(from, msg)),
                Err(_) => drop(shared.dropped_frames.fetch_add(1, Ordering::Relaxed)),
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

    /// A fabric whose sends park until released: it holds a thread
    /// between releasing the core lock and finishing its actions.
    struct Gate {
        entered: Sender<()>,
        release: Receiver<()>,
    }

    impl Transport for Gate {
        fn register(&self, _: FlipAddress) -> Inbox {
            Inbox::channel().1
        }
        fn unregister(&self, _: FlipAddress) {}
        fn join_mcast(&self, _: GroupId, _: FlipAddress) {}
        fn sender(&self, _: FlipAddress) -> Box<dyn TransportSender> {
            Box::new(Gate { entered: self.entered.clone(), release: self.release.clone() })
        }
    }

    impl TransportSender for Gate {
        fn unicast(&mut self, _: FlipAddress, frame: WireFrame) {
            self.multicast(GroupId(0), frame);
        }
        fn multicast(&mut self, _: GroupId, _: WireFrame) {
            let _ = self.entered.send(());
            let _ = self.release.recv_timeout(Duration::from_secs(5));
        }
    }

    /// The total-order defect PR 11's benchmark found, forced: the
    /// first operation stalls in a wire send that sits *ahead of* its
    /// delivery, and a second operation takes the core lock meanwhile.
    /// Its delivery must still come second.
    #[test]
    fn actions_execute_in_core_lock_order() {
        let (entered_tx, entered_rx) = channel::unbounded();
        let (release_tx, release_rx) = channel::unbounded();
        let addr = FlipAddress::process(1);
        let (core, join) = GroupCore::join(GroupId(1), addr, GroupConfig::default()).expect("join");
        let send = join.into_iter().find(Action::is_send).expect("a joiner sends its request");
        let (events_tx, events_rx) = channel::unbounded();
        let gate = Arc::new(Gate { entered: entered_tx, release: release_rx });
        let waker = gate.register(addr).waker();
        let shared = NodeShared::new(core, gate, GroupId(1), addr, events_tx, waker);
        let deliver = |n| {
            Action::Deliver(GroupEvent::Message {
                seqno: Seqno(n),
                origin: MemberId(0),
                payload: bytes::Bytes::new(),
            })
        };
        let (locked_tx, locked_rx) = channel::unbounded();
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
        let next = || match events_rx.try_recv() {
            Ok(GroupEvent::Message { seqno, .. }) => Some(seqno.0),
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
}
