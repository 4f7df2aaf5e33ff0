//! Hosting [`GroupApp`]s on the live runtime.
//!
//! A hosted app is run by its member's driver thread ([`crate::node`]):
//! between two waits on its inbox the driver feeds the app from the
//! mailbox a blocking caller would read — delivered events, then send
//! completions — fires its wall-clock timers out of the member's one
//! timer table, and executes its [`Ctx`](amoeba_app::Ctx) requests. A
//! member is one thread, hosted or not; the [`GroupHandle`] stays with
//! the host, which alone joins that thread. As on the simulated host,
//! callbacks run to completion, mutating `Ctx` calls are buffered
//! during a callback and applied when it returns, and nothing a
//! callback asks for blocks — the two hosts present one behavioural
//! contract (DESIGN.md §8, repository root), which is what lets the
//! cross-backend conformance suite assert identical per-member
//! delivery orders.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amoeba_app::cmd::{AppCmd, BufferedCtx, HostView};
use amoeba_app::{AppEvent, GroupApp, TimerId};
use amoeba_core::{GroupConfig, GroupId, GroupInfo};
use bytes::Bytes;

use amoeba_net::FaultPlan;

use crate::handle::{Amoeba, GroupHandle};
use crate::node::{NodeShared, Timer, OP_DEADLINE};

/// What a live app reads synchronously during a callback (the
/// buffering of its writes lives in [`BufferedCtx`], shared with the
/// simulated host).
struct LiveView<'a> {
    node: &'a Arc<NodeShared>,
    started: Instant,
}

impl HostView for LiveView<'_> {
    fn now(&self) -> Duration {
        self.started.elapsed()
    }

    fn info(&self) -> GroupInfo {
        self.node.core.lock().info()
    }

    fn config(&self) -> GroupConfig {
        self.node.core.lock().config().clone()
    }

    fn waker(&self, timer: TimerId) -> Arc<dyn Fn() + Send + Sync> {
        // Weak: an app may keep its own waker, and the member keeps the
        // app.
        let node = Arc::downgrade(self.node);
        Arc::new(move || {
            if let Some(node) = node.upgrade() {
                node.wake_timer(timer);
            }
        })
    }
}

/// What a driver hands back when its app's hosting is over: which app,
/// then the app and whether its membership is still alive (`Ctx::stop`;
/// not after leave or crash) — or the panic that ended it.
type Ended = (usize, Result<(Box<dyn GroupApp>, bool), Box<dyn Any + Send>>);

/// One app hosted on one member, run by that member's driver thread.
pub(crate) struct Pump {
    index: usize,
    /// `None` once the app has gone back to the host.
    app: Option<Box<dyn GroupApp>>,
    ended_tx: Sender<Ended>,
    /// When `on_start` ran; `None` until it has.
    started: Option<Instant>,
    /// Set by `Ctx::leave`: no further callbacks, and the app goes back
    /// once the leave completes, or at this instant at the latest.
    leaving: Option<Instant>,
    window: usize,
    in_flight: usize,
    pending: VecDeque<Bytes>,
}

enum Call {
    Start,
    Event(AppEvent),
    Timer(TimerId),
}

impl Pump {
    /// The app's next turn, if it has something to be told: `on_start`,
    /// else the next delivery, else the next completion — a message's
    /// own delivery was queued ahead of its `SendDone`. One event a
    /// turn, so that a member which sends from every callback still
    /// reads its inbox in between. False when there was nothing.
    pub(crate) fn feed_one(&mut self, node: &Arc<NodeShared>) -> bool {
        if self.app.is_none() {
            return false;
        }
        if let Some(until) = self.leaving {
            if node.mail.lock().left.take().is_some() || Instant::now() >= until {
                node.shutdown();
                self.end(node, false);
            }
            return false;
        }
        let call = if self.started.is_none() {
            Call::Start
        } else {
            let mut mail = node.mail.lock();
            if let Some(event) = mail.events.pop_front() {
                Call::Event(AppEvent::Group(event))
            } else if let Some(done) = mail.sends.pop_front() {
                self.in_flight = self.in_flight.saturating_sub(1);
                Call::Event(AppEvent::SendDone(done.map_err(Into::into)))
            } else if let Some(reset) = mail.reset.take() {
                Call::Event(AppEvent::ResetDone(reset.map_err(Into::into)))
            } else {
                return false;
            }
        };
        self.dispatch(node, call);
        true
    }

    /// App timer `id` is due.
    pub(crate) fn fire(&mut self, node: &Arc<NodeShared>, id: TimerId) {
        self.dispatch(node, Call::Timer(id));
    }

    /// Runs one callback — outside any [`NodeShared::step`], which its
    /// sends re-enter — then applies what it asked for.
    fn dispatch(&mut self, node: &Arc<NodeShared>, call: Call) {
        let Some(app) = self.app.as_mut() else { return };
        let started = *self.started.get_or_insert_with(Instant::now);
        let mut ctx = BufferedCtx::new(LiveView { node, started });
        match call {
            Call::Start => app.on_start(&mut ctx),
            Call::Event(ev) => app.on_event(&mut ctx, ev),
            Call::Timer(id) => app.on_timer(&mut ctx, id),
        }
        for cmd in ctx.cmds {
            // Terminal requests void the rest of the batch (identical
            // to the simulated host).
            if !self.apply(node, cmd) {
                return;
            }
        }
        while self.in_flight < self.window {
            let Some(payload) = self.pending.pop_front() else { break };
            node.submit_send(payload);
            self.in_flight += 1;
        }
    }

    /// Applies one request; returns false if it was terminal (the rest
    /// of the batch is void). Nothing here waits: this thread is the
    /// one that would complete what it waited for.
    fn apply(&mut self, node: &Arc<NodeShared>, cmd: AppCmd) -> bool {
        match cmd {
            AppCmd::Send(payload) => self.pending.push_back(payload),
            AppCmd::Reset(min_members) => {
                node.mail.lock().reset = None;
                node.step(|core| core.reset(min_members));
            }
            AppCmd::SetTimer(id, after) => node.set_timer(Timer::App(id), after),
            AppCmd::CancelTimer(id) => node.cancel_timer(Timer::App(id)),
            AppCmd::Leave => {
                self.quiesce(node);
                self.leaving = Some(Instant::now() + OP_DEADLINE);
                node.mail.lock().left = None;
                node.step(|core| core.leave());
                return false;
            }
            AppCmd::Crash => {
                node.shutdown();
                self.end(node, false);
                return false;
            }
            // The member outlives its app: a stopped sequencer goes on
            // sequencing until the host has every app.
            AppCmd::Stop => {
                self.end(node, true);
                return false;
            }
        }
        true
    }

    /// No further timers, no further sends.
    fn quiesce(&mut self, node: &NodeShared) {
        node.cancel_app_timers();
        self.pending.clear();
    }

    /// Sends the app back to the host.
    fn end(&mut self, node: &NodeShared, alive: bool) {
        self.quiesce(node);
        if let Some(app) = self.app.take() {
            let _ = self.ended_tx.send((self.index, Ok((app, alive))));
        }
    }

    /// The driver unwound with `payload`, out of this app or around it.
    pub(crate) fn panicked(self, payload: Box<dyn Any + Send>) {
        let _ = self.ended_tx.send((self.index, Err(payload)));
    }
}

/// Forms a group of `members` processes on `amoeba`: the first founds
/// it (and sequences), the rest join strictly in order, so member ids
/// are deterministic and every member is admitted before any app
/// starts — the formation the simulated host performs.
///
/// # Panics
///
/// Panics if `CreateGroup`/`JoinGroup` fails: at this level that is a
/// configuration mistake, not a runtime outcome.
pub fn form_group(
    amoeba: &Amoeba,
    group: GroupId,
    config: &GroupConfig,
    members: usize,
) -> Vec<GroupHandle> {
    (0..members)
        .map(|i| {
            let handle = if i == 0 {
                amoeba.create_group(group, config.clone())
            } else {
                amoeba.join_group(group, config.clone())
            };
            handle.unwrap_or_else(|e| panic!("forming group {}: member {i}: {e:?}", group.0))
        })
        .collect()
}

/// What a finished app's host gets back: the app, and its membership
/// if the app merely stopped (`None` after leave/crash, which end it).
type Pumped = (Box<dyn GroupApp>, Option<GroupHandle>);

/// Apps being run, each by its member's driver thread (see
/// [`pump_apps`]), and their memberships.
pub struct Pumps {
    handles: Vec<GroupHandle>,
    ended_rx: Receiver<Ended>,
}

impl Default for Pumps {
    fn default() -> Self {
        pump_apps(Vec::new(), Vec::new())
    }
}

/// Hands each app to the driver of its membership, in order; the
/// drivers start them at once.
///
/// # Panics
///
/// Panics if the two lists differ in length.
pub fn pump_apps(handles: Vec<GroupHandle>, apps: Vec<Box<dyn GroupApp>>) -> Pumps {
    assert_eq!(handles.len(), apps.len(), "one app per membership");
    let (ended_tx, ended_rx) = mpsc::channel();
    for (index, (handle, app)) in handles.iter().zip(apps).enumerate() {
        let window = handle.shared.core.lock().config().send_window.max(1);
        handle.shared.host(Pump {
            index,
            app: Some(app),
            ended_tx: ended_tx.clone(),
            started: None,
            leaving: None,
            window,
            in_flight: 0,
            pending: VecDeque::new(),
        });
    }
    Pumps { handles, ended_rx }
}

impl Pumps {
    /// Waits until every app has ended and returns them in order.
    /// Memberships of merely *stopped* apps stay alive until the last
    /// app is in, so a stopped member never looks crashed to one that
    /// is still running, and are torn down together here.
    ///
    /// A panic in an app callback — a failed assertion — or anywhere
    /// else on a member's thread ends the run at once: nobody waits
    /// for ever on a member that is gone.
    ///
    /// # Panics
    ///
    /// Resumes the first such panic, after every membership has been
    /// torn down.
    pub fn join(self) -> Vec<Box<dyn GroupApp>> {
        self.wait().into_iter().map(|(app, _survivor)| app).collect()
    }

    fn wait(self) -> Vec<Pumped> {
        let Pumps { handles, ended_rx } = self;
        let mut ended: Vec<_> = handles.iter().map(|_| None).collect();
        for _ in 0..handles.len() {
            match ended_rx.recv().expect("a member's driver is gone, and its app with it") {
                (index, Ok(back)) => ended[index] = Some(back),
                (_, Err(payload)) => {
                    drop(handles);
                    std::panic::resume_unwind(payload);
                }
            }
        }
        let pumped = ended.into_iter().zip(handles).map(|(back, handle)| {
            let (app, alive) = back.expect("one report per app");
            (app, alive.then_some(handle))
        });
        pumped.collect()
    }
}

/// Hosts a set of [`GroupApp`]s as one live group: the first app added
/// founds the group (and sequences), the rest join in order (so member
/// ids match the simulated host), then every app is run by its member's
/// driver thread. [`LiveHost::run`] returns once every app has ended;
/// memberships of merely *stopped* apps are torn down together at that
/// point.
///
/// This is the live backend of the portable application API — the same
/// boxed apps run unmodified under `amoeba-kernel`'s `SimHost` (the
/// facade crate's `amoeba::app::run` picks between them).
pub struct LiveHost {
    amoeba: Amoeba,
    group: GroupId,
    config: GroupConfig,
    apps: Vec<Box<dyn GroupApp>>,
}

impl LiveHost {
    /// A host over a fresh fault-injected in-memory network.
    pub fn new(seed: u64, fault: FaultPlan, group: GroupId, config: GroupConfig) -> Self {
        LiveHost::with_amoeba(Amoeba::new(seed, fault), group, config)
    }

    /// A host over an existing installation — whatever transport it
    /// runs on. This is how the UDP backend hosts unmodified apps: an
    /// `Amoeba::over_transport(udp_net, …)` installation slots in and
    /// everything above (formation order, hosting, the conformance
    /// contract) stays identical.
    pub fn with_amoeba(amoeba: Amoeba, group: GroupId, config: GroupConfig) -> Self {
        LiveHost { amoeba, group, config, apps: Vec::new() }
    }

    /// Adds a member running `app`; returns its join order (the first
    /// app founds the group and sequences).
    pub fn add_app(&mut self, app: Box<dyn GroupApp>) -> usize {
        self.apps.push(app);
        self.apps.len() - 1
    }

    /// Runs one app over an existing membership and blocks the caller
    /// until it stops, leaves, or crashes: [`pump_apps`] and
    /// [`Pumps::join`] for one app, for custom topologies (multiple
    /// groups, staggered joins).
    ///
    /// The second value is the still-live handle when the app merely
    /// *stopped* (`Ctx::stop` promises the membership outlives the
    /// app until the host tears down — the caller decides when that
    /// is, typically after every cooperating app has finished);
    /// `None` after `leave`/`crash`, which end it.
    pub fn pump(
        handle: GroupHandle,
        app: Box<dyn GroupApp>,
    ) -> (Box<dyn GroupApp>, Option<GroupHandle>) {
        pump_apps(vec![handle], vec![app]).wait().pop().expect("one app in, one app out")
    }

    /// Forms the group, hosts every app on its member, and returns the
    /// apps (in `add_app` order) once all have ended.
    ///
    /// # Panics
    ///
    /// Panics if no app was added, or if forming the group fails.
    pub fn run(self) -> Vec<Box<dyn GroupApp>> {
        assert!(!self.apps.is_empty(), "LiveHost::run needs at least one app");
        let handles = form_group(&self.amoeba, self.group, &self.config, self.apps.len());
        pump_apps(handles, self.apps).join()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    use amoeba_core::{GroupEvent, WireFrame};
    use amoeba_flip::FlipAddress;
    use amoeba_net::{Inbox, LiveNet, Transport, TransportSender};

    /// Never ends by itself (it waits for a peer that will not write).
    struct Waits;
    impl GroupApp for Waits {}

    fn live_host(seed: u64) -> LiveHost {
        LiveHost::new(seed, FaultPlan::reliable(), GroupId(1), GroupConfig::default())
    }

    struct FailsItsScript;
    impl GroupApp for FailsItsScript {
        fn on_start(&mut self, _ctx: &mut dyn amoeba_app::Ctx) {
            panic!("script assertion");
        }
    }

    /// Arms `TIMER` ten seconds out, hands its waker to the test, and
    /// on every firing reports in and waits to be told how to go on —
    /// which holds the pump inside the callback for as long as the test
    /// likes.
    struct Sleeper {
        waker_tx: Sender<Arc<dyn Fn() + Send + Sync>>,
        fired_tx: Sender<Instant>,
        /// `true`: arm again; `false`: stop.
        resume_rx: Receiver<bool>,
    }

    const TIMER: TimerId = TimerId(7);
    const FAR: Duration = Duration::from_secs(10);

    impl GroupApp for Sleeper {
        fn on_start(&mut self, ctx: &mut dyn amoeba_app::Ctx) {
            ctx.set_timer(TIMER, FAR);
            self.waker_tx.send(ctx.waker(TIMER)).expect("test is listening");
        }

        fn on_timer(&mut self, ctx: &mut dyn amoeba_app::Ctx, timer: TimerId) {
            assert_eq!(timer, TIMER);
            self.fired_tx.send(Instant::now()).expect("test is listening");
            match self.resume_rx.recv_timeout(FAR) {
                Ok(true) => ctx.set_timer(TIMER, FAR),
                _ => ctx.stop(),
            }
        }
    }

    /// A waker called from another thread fires its timer now, not
    /// when it was armed for; and however many calls arrive while the
    /// pump is busy, they fire it once more, not once each.
    #[test]
    fn a_waker_fires_its_timer_now_and_a_burst_of_calls_fires_it_once() {
        let (waker_tx, waker_rx) = mpsc::channel();
        let (fired_tx, fired_rx) = mpsc::channel();
        let (resume_tx, resume_rx) = mpsc::channel();
        let mut host = live_host(4);
        host.add_app(Box::new(Sleeper { waker_tx, fired_tx, resume_rx }));
        let hosted = std::thread::spawn(move || host.run());
        let wake = waker_rx.recv_timeout(FAR).expect("the app starts");
        let next_firing = |within| fired_rx.recv_timeout(within);

        // One call, one prompt firing (one attempt in three may be
        // spoiled by the sibling tests' threads).
        let late: Vec<Duration> = (0..3)
            .map(|_| {
                let called = Instant::now();
                wake();
                let fired = next_firing(FAR).expect("a woken timer fires");
                resume_tx.send(true).expect("app is waiting");
                fired.saturating_duration_since(called)
            })
            .take_while(|late| *late > Duration::from_millis(25))
            .collect();
        assert!(late.len() < 3, "woken timers fired after {late:?}");

        // A thousand calls: the first fires the timer, and the rest —
        // all made while the pump is held in that callback — fire it
        // exactly once more.
        wake();
        next_firing(FAR).expect("the first call of the burst fires");
        for _ in 1..1_000 {
            wake();
        }
        resume_tx.send(true).expect("app is waiting");
        next_firing(FAR).expect("the rest of the burst fires once");
        resume_tx.send(true).expect("app is waiting");
        assert!(next_firing(Duration::from_millis(50)).is_err(), "the burst fired a third time");

        wake();
        next_firing(FAR).expect("the last call fires");
        resume_tx.send(false).expect("app is waiting");
        hosted.join().expect("the host ends when its app stops");
    }

    /// `Pumps::join` joins in index order, so it sits on member 0's
    /// thread; member 1's panic must still end the run and reach the
    /// caller.
    #[test]
    #[should_panic(expected = "script assertion")]
    fn a_panicked_pump_ends_the_run_and_reaches_the_caller() {
        let mut host = live_host(3);
        host.add_app(Box::new(Waits));
        host.add_app(Box::new(FailsItsScript));
        host.run();
    }

    /// Sends `left` messages, the next when the last is done, and
    /// counts what it is delivered.
    struct Streams {
        left: usize,
        delivered: Arc<AtomicUsize>,
    }

    impl GroupApp for Streams {
        fn on_start(&mut self, ctx: &mut dyn amoeba_app::Ctx) {
            ctx.send(Bytes::from_static(b"next"));
        }

        fn on_event(&mut self, ctx: &mut dyn amoeba_app::Ctx, event: AppEvent) {
            match event {
                AppEvent::Group(GroupEvent::Message { .. }) => {
                    self.delivered.fetch_add(1, Ordering::SeqCst);
                }
                AppEvent::SendDone(done) => {
                    done.expect("a stopped founder still sequences");
                    self.left -= 1;
                    if self.left == 0 {
                        ctx.stop();
                    } else {
                        ctx.send(Bytes::from_static(b"next"));
                    }
                }
                _ => {}
            }
        }
    }

    struct StopsAtOnce;
    impl GroupApp for StopsAtOnce {
        fn on_start(&mut self, ctx: &mut dyn amoeba_app::Ctx) {
            ctx.stop();
        }
    }

    /// `Ctx::stop` ends the app, not the member: the founder's driver
    /// goes on sequencing for the member that is still running.
    #[test]
    fn a_founder_whose_app_stopped_goes_on_sequencing() {
        let delivered = Arc::new(AtomicUsize::new(0));
        let mut host = live_host(5);
        host.add_app(Box::new(StopsAtOnce));
        host.add_app(Box::new(Streams { left: 200, delivered: Arc::clone(&delivered) }));
        host.run();
        assert_eq!(delivered.load(Ordering::SeqCst), 200);
    }

    /// Resets its one-member group from `on_start`, sends when the
    /// reset is done, stops when that message arrives.
    struct ResetsItself(Arc<Mutex<Vec<&'static str>>>);

    impl GroupApp for ResetsItself {
        fn on_start(&mut self, ctx: &mut dyn amoeba_app::Ctx) {
            ctx.reset_group(1);
        }

        fn on_event(&mut self, ctx: &mut dyn amoeba_app::Ctx, event: AppEvent) {
            let mut seen = self.0.lock().expect("log lock");
            match event {
                AppEvent::ResetDone(done) => {
                    assert_eq!(done.expect("a member is its own quorum of one").num_members(), 1);
                    seen.push("reset done");
                    ctx.send(Bytes::from_static(b"after the reset"));
                }
                AppEvent::Group(GroupEvent::Message { .. }) => {
                    seen.push("message");
                    ctx.stop();
                }
                _ => {}
            }
        }
    }

    /// A reset asked for in a callback completes as an event: the
    /// driver thread, which runs both the callback and the recovery,
    /// never waits on itself.
    #[test]
    fn a_reset_from_a_callback_completes_as_an_event() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut host = live_host(6);
        host.add_app(Box::new(ResetsItself(Arc::clone(&seen))));
        host.run();
        assert_eq!(*seen.lock().expect("log lock"), ["reset done", "message"]);
    }

    /// Arms eight timers, the later-named the sooner, and overstays
    /// them all in the same callback.
    struct Oversleeps(Arc<Mutex<Vec<u64>>>);

    impl GroupApp for Oversleeps {
        fn on_start(&mut self, ctx: &mut dyn amoeba_app::Ctx) {
            for id in 0..8 {
                ctx.set_timer(TimerId(id), Duration::from_millis(8 - id));
            }
        }

        fn on_timer(&mut self, ctx: &mut dyn amoeba_app::Ctx, timer: TimerId) {
            let mut fired = self.0.lock().expect("log lock");
            if fired.is_empty() {
                // The other seven run out while this callback holds
                // the driver.
                std::thread::sleep(Duration::from_millis(20));
            }
            fired.push(timer.0);
            if fired.len() == 8 {
                ctx.stop();
            }
        }
    }

    /// Timers that are all overdue when the driver next looks fire
    /// earliest deadline first — not in the table's hash order.
    #[test]
    fn overdue_timers_fire_in_deadline_order() {
        let fired = Arc::new(Mutex::new(Vec::new()));
        let mut host = live_host(7);
        host.add_app(Box::new(Oversleeps(Arc::clone(&fired))));
        host.run();
        assert_eq!(*fired.lock().expect("log lock"), [7, 6, 5, 4, 3, 2, 1, 0]);
    }

    /// A [`LiveNet`] on which the founder's port gives way at its
    /// `left`-th multicast.
    struct Brittle {
        net: Arc<LiveNet>,
        left: Arc<AtomicUsize>,
    }

    struct BrittlePort {
        port: Box<dyn TransportSender>,
        left: Option<Arc<AtomicUsize>>,
    }

    impl Transport for Brittle {
        fn register(&self, addr: FlipAddress) -> Inbox {
            self.net.register(addr)
        }
        fn unregister(&self, addr: FlipAddress) {
            self.net.unregister(addr);
        }
        fn join_mcast(&self, group: GroupId, addr: FlipAddress) {
            self.net.join_mcast(group, addr);
        }
        fn sender(&self, from: FlipAddress) -> Box<dyn TransportSender> {
            let founder = from == FlipAddress::process(1);
            Box::new(BrittlePort {
                port: self.net.sender(from),
                left: founder.then(|| Arc::clone(&self.left)),
            })
        }
    }

    impl TransportSender for BrittlePort {
        fn unicast(&mut self, to: FlipAddress, frame: WireFrame) {
            self.port.unicast(to, frame);
        }
        fn multicast(&mut self, group: GroupId, frame: WireFrame) {
            if let Some(left) = &self.left {
                assert!(left.fetch_sub(1, Ordering::SeqCst) > 1, "the fabric gave way");
            }
            self.port.multicast(group, frame);
        }
    }

    /// A driver that unwinds outside any callback — here out of the
    /// fabric, under a founder whose app only waits — still ends the
    /// run and reaches the caller, at once.
    #[test]
    fn a_panicked_driver_ends_the_run_and_reaches_the_caller() {
        let net = LiveNet::new(8, FaultPlan::reliable());
        let fabric = Arc::new(Brittle { net, left: Arc::new(AtomicUsize::new(20)) });
        let amoeba = Amoeba::over_transport(fabric, 1);
        let mut host = LiveHost::with_amoeba(amoeba, GroupId(1), GroupConfig::default());
        host.add_app(Box::new(Waits));
        host.add_app(Box::new(Streams { left: usize::MAX, delivered: Arc::default() }));
        let (ended_tx, ended_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let run = std::panic::AssertUnwindSafe(|| drop(host.run()));
            ended_tx.send(std::panic::catch_unwind(run))
        });
        let ended = ended_rx.recv_timeout(Duration::from_secs(1)).expect("the run ends");
        let payload = ended.expect_err("the run ends in the driver's panic");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"the fabric gave way"));
    }
}
