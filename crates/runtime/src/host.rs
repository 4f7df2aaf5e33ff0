//! Hosting [`GroupApp`]s on the live runtime.
//!
//! Each app gets a pump: a loop (usually on its own thread) that owns
//! the member's [`GroupHandle`], feeds delivered events and send
//! completions to the app, fires wall-clock timers, and executes the
//! app's [`Ctx`] requests. The pump has one wait: it parks until its
//! next timer is due, and the member's driver (after every delivery
//! and completion) or a [`Ctx::waker`](amoeba_app::Ctx::waker) handle
//! unparks it. As on the simulated host, mutating `Ctx`
//! calls are buffered during a callback and applied when it returns —
//! the two hosts present one behavioural contract (DESIGN.md §8,
//! repository root), which is what lets the cross-backend conformance
//! suite assert identical per-member delivery orders.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use amoeba_app::cmd::{AppCmd, BufferedCtx, HostView};
use amoeba_app::{AppEvent, GroupApp, TimerId};
use amoeba_core::{GroupConfig, GroupId, GroupInfo};
use bytes::Bytes;
use crossbeam::channel::TryRecvError;

use amoeba_net::FaultPlan;

use crate::handle::{Amoeba, GroupHandle};

/// How an app's hosting ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminal {
    /// `Ctx::stop`: cease pumping, keep the membership alive until the
    /// host tears down.
    Stop,
    /// `Ctx::leave`: leave the group gracefully.
    Leave,
    /// `Ctx::crash`: vanish without a leave.
    Crash,
    /// The event stream disconnected under us (expelled, or the
    /// runtime is shutting down).
    Disconnected,
}

/// What a live app reads synchronously during a callback (the
/// buffering of its writes lives in [`BufferedCtx`], shared with the
/// simulated host).
struct LiveView<'a> {
    handle: &'a GroupHandle,
    start: Instant,
    wake: &'a Arc<Wake>,
}

/// What [`Ctx::waker`](amoeba_app::Ctx::waker) handles share with
/// their pump: the timers asked to fire now, and the thread to unpark.
struct Wake {
    timers: Mutex<Vec<TimerId>>,
    pump: Thread,
}

impl HostView for LiveView<'_> {
    fn now(&self) -> Duration {
        self.start.elapsed()
    }

    fn info(&self) -> GroupInfo {
        self.handle.info()
    }

    fn config(&self) -> GroupConfig {
        self.handle.shared.core.lock().config().clone()
    }

    fn waker(&self, timer: TimerId) -> Arc<dyn Fn() + Send + Sync> {
        let wake = Arc::clone(self.wake);
        Arc::new(move || {
            let mut timers = wake.timers.lock().expect("wake list lock");
            // Already asked and not yet taken: the pump is awake or on
            // its way, so a burst of calls costs one unpark.
            if !timers.contains(&timer) {
                timers.push(timer);
                drop(timers);
                wake.pump.unpark();
            }
        })
    }
}

/// One app being pumped over one membership.
struct Pump {
    handle: Option<GroupHandle>,
    app: Box<dyn GroupApp>,
    start: Instant,
    window: usize,
    in_flight: usize,
    pending: VecDeque<Bytes>,
    timers: HashMap<TimerId, Instant>,
    wake: Arc<Wake>,
    terminal: Option<Terminal>,
    /// Raised when a sibling pump panicked: the run is over (see
    /// [`Pumps::join`]).
    abort: Arc<AtomicBool>,
}

/// Raises the siblings' abort flag if its pump thread unwinds.
struct AbortOnPanic(Arc<AtomicBool>);

impl Drop for AbortOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::SeqCst);
        }
    }
}

/// The longest a pump parks: it looks at the abort flag that often.
const IDLE: Duration = Duration::from_millis(100);

enum Call {
    Start,
    Event(AppEvent),
    Timer(TimerId),
}

impl Pump {
    /// A pump for the calling thread to [`Pump::run`]: that thread is
    /// the one the driver and the wakers unpark.
    fn new(handle: GroupHandle, app: Box<dyn GroupApp>, abort: Arc<AtomicBool>) -> Self {
        let window = handle.shared.core.lock().config().send_window.max(1);
        let pump = std::thread::current();
        let _ = handle.shared.pump.set(pump.clone());
        Pump {
            handle: Some(handle),
            app,
            start: Instant::now(),
            window,
            in_flight: 0,
            pending: VecDeque::new(),
            timers: HashMap::new(),
            wake: Arc::new(Wake { timers: Mutex::new(Vec::new()), pump }),
            terminal: None,
            abort,
        }
    }

    fn dispatch(&mut self, call: Call) {
        if self.terminal.is_some() {
            return;
        }
        let handle = self.handle.as_ref().expect("handle present until terminal");
        let mut ctx =
            BufferedCtx::new(LiveView { handle, start: self.start, wake: &self.wake });
        match call {
            Call::Start => self.app.on_start(&mut ctx),
            Call::Event(ev) => self.app.on_event(&mut ctx, ev),
            Call::Timer(id) => self.app.on_timer(&mut ctx, id),
        }
        let cmds = ctx.cmds;
        let mut followups = Vec::new();
        for cmd in cmds {
            // Terminal requests void the rest of the batch (identical
            // to the simulated host).
            if !self.apply(cmd, &mut followups) {
                break;
            }
        }
        self.flush_sends();
        // Completions of blocking requests (ResetDone) dispatch only
        // after the requesting callback's whole batch has applied —
        // the same "asynchronous, after the apply" ordering their
        // protocol counterparts have on the simulated host.
        for ev in followups {
            self.dispatch(Call::Event(ev));
        }
    }

    /// Applies one request; returns false if it was terminal (the rest
    /// of the batch is void).
    fn apply(&mut self, cmd: AppCmd, followups: &mut Vec<AppEvent>) -> bool {
        match cmd {
            AppCmd::Send(payload) => self.pending.push_back(payload),
            AppCmd::Reset(min_members) => {
                // Blocking recovery on the pump thread: deliveries
                // queue up behind it, exactly like an application
                // thread calling the paper's ResetGroup.
                let result = self
                    .handle
                    .as_ref()
                    .expect("handle present until terminal")
                    .reset_group(min_members);
                followups.push(AppEvent::ResetDone(result.map_err(Into::into)));
            }
            AppCmd::Leave => {
                self.finish(Terminal::Leave);
                return false;
            }
            AppCmd::Crash => {
                self.finish(Terminal::Crash);
                return false;
            }
            AppCmd::SetTimer(id, after) => {
                self.timers.insert(id, Instant::now() + after);
            }
            AppCmd::CancelTimer(id) => {
                self.timers.remove(&id);
            }
            AppCmd::Stop => {
                self.finish(Terminal::Stop);
                return false;
            }
        }
        true
    }

    fn finish(&mut self, terminal: Terminal) {
        if self.terminal.is_none() {
            self.terminal = Some(terminal);
            self.timers.clear();
            self.pending.clear();
        }
    }

    fn flush_sends(&mut self) {
        if self.terminal.is_some() {
            return;
        }
        let Some(handle) = self.handle.as_ref() else { return };
        while self.in_flight < self.window {
            let Some(payload) = self.pending.pop_front() else { break };
            handle.shared.submit_send(payload);
            self.in_flight += 1;
        }
    }

    fn next_deadline(&self) -> Option<Instant> {
        self.timers.values().min().copied()
    }

    fn fire_expired(&mut self) {
        loop {
            if self.terminal.is_some() {
                return;
            }
            let now = Instant::now();
            let due = self
                .timers
                .iter()
                .filter(|(_, &at)| at <= now)
                .map(|(&id, &at)| (at, id))
                .min();
            let Some((_, id)) = due else { return };
            self.timers.remove(&id);
            self.dispatch(Call::Timer(id));
        }
    }

    /// Feeds the app the next delivery or, when there is none, the next
    /// completion — a message's own delivery was queued ahead of its
    /// `SendDone`. False when both queues are empty.
    fn feed_one(&mut self) -> bool {
        let handle = self.handle.as_ref().expect("handle present until terminal");
        let next = match handle.events_rx.try_recv() {
            Ok(ev) => Ok(AppEvent::Group(ev)),
            Err(TryRecvError::Empty) => handle.shared.send_done_rx.try_recv().map(|done| {
                self.in_flight = self.in_flight.saturating_sub(1);
                AppEvent::SendDone(done.map_err(Into::into))
            }),
            Err(gone) => Err(gone),
        };
        match next {
            Ok(event) => self.dispatch(Call::Event(event)),
            Err(TryRecvError::Empty) => return false,
            Err(TryRecvError::Disconnected) => self.finish(Terminal::Disconnected),
        }
        true
    }

    /// The pump's one wait: parks until the next timer is due. The
    /// driver unparks it after queueing a delivery or completion and a
    /// waker after listing its timer — either may come before the
    /// park, which then returns at once. Timers asked for are made due.
    fn wait(&mut self) {
        let asked = std::mem::take(&mut *self.wake.timers.lock().expect("wake list lock"));
        if asked.is_empty() {
            let until = self
                .next_deadline()
                .map_or(IDLE, |at| at.saturating_duration_since(Instant::now()));
            std::thread::park_timeout(until);
        }
        let now = Instant::now();
        for id in asked {
            self.timers.entry(id).and_modify(|at| *at = now);
        }
    }

    /// Runs the app to completion; returns it plus the handle (kept
    /// alive on `Ctx::stop`, consumed by leave/crash).
    fn run(mut self) -> Pumped {
        self.dispatch(Call::Start);
        // An aborted run ends like a stop: the membership goes back
        // to the host, which tears it down.
        while self.terminal.is_none() && !self.abort.load(Ordering::SeqCst) {
            if !self.feed_one() {
                self.wait();
            }
            self.fire_expired();
        }
        let handle = self.handle.take();
        match self.terminal {
            Some(Terminal::Leave) => {
                if let Some(h) = handle {
                    let _ = h.leave_group();
                }
                (self.app, None)
            }
            Some(Terminal::Crash) => {
                if let Some(h) = handle {
                    h.crash();
                }
                (self.app, None)
            }
            // Stop / Disconnected: hand the membership back so the
            // host controls when it ends (mirrors the simulated host,
            // where a stopped app's protocol entity keeps running).
            _ => (self.app, handle),
        }
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

/// What a finished pump hands back: the app, and its membership if
/// the app merely stopped (`None` after leave/crash, which consume it).
type Pumped = (Box<dyn GroupApp>, Option<GroupHandle>);

/// Apps being pumped, one thread per membership (see [`pump_apps`]).
#[derive(Default)]
pub struct Pumps(Vec<std::thread::JoinHandle<Pumped>>);

/// Starts one pump thread per `(handle, app)` pair, in order.
///
/// # Panics
///
/// Panics if the two lists differ in length or a thread cannot spawn.
pub fn pump_apps(handles: Vec<GroupHandle>, apps: Vec<Box<dyn GroupApp>>) -> Pumps {
    assert_eq!(handles.len(), apps.len(), "one app per membership");
    let abort = Arc::new(AtomicBool::new(false));
    let threads = handles.into_iter().zip(apps).enumerate().map(|(i, (handle, app))| {
        let abort = Arc::clone(&abort);
        std::thread::Builder::new()
            .name(format!("amoeba-app-{i}"))
            .spawn(move || {
                let _guard = AbortOnPanic(Arc::clone(&abort));
                Pump::new(handle, app, abort).run()
            })
            .expect("spawn app pump thread")
    });
    Pumps(threads.collect())
}

impl Pumps {
    /// Waits until every app has ended and returns them in order.
    /// Memberships of merely *stopped* apps stay alive until the last
    /// app is in, so a stopped member never looks crashed to one that
    /// is still running, and are torn down together here.
    ///
    /// A panic on one pump thread (a failed assertion in an app) ends
    /// the run: the other pumps stop within one poll interval instead
    /// of waiting for ever on a member that is gone.
    ///
    /// # Panics
    ///
    /// Resumes the first such panic, after every membership has been
    /// torn down.
    pub fn join(self) -> Vec<Box<dyn GroupApp>> {
        let results: Vec<_> = self.0.into_iter().map(std::thread::JoinHandle::join).collect();
        let mut apps = Vec::new();
        let mut panic = None;
        for result in results {
            match result {
                // The survivor's membership drops — tears down — here.
                Ok((app, _survivor)) => apps.push(app),
                Err(payload) => panic = panic.or(Some(payload)),
            }
        }
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        apps
    }
}

/// Hosts a set of [`GroupApp`]s as one live group: the first app added
/// founds the group (and sequences), the rest join in order (so member
/// ids match the simulated host), then every app is pumped on its own
/// runtime thread. [`LiveHost::run`] returns once every app has ended;
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
    /// everything above (formation order, pumping, the conformance
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

    /// Runs one app over an existing membership on the calling thread,
    /// returning the app when it stops, leaves, or crashes. The
    /// building block under [`pump_apps`], public for custom
    /// topologies (multiple groups, staggered joins).
    ///
    /// The second value is the still-live handle when the app merely
    /// *stopped* (`Ctx::stop` promises the membership outlives the
    /// app until the host tears down — the caller decides when that
    /// is, typically after every cooperating app has finished);
    /// `None` after `leave`/`crash`, which consume it.
    pub fn pump(
        handle: GroupHandle,
        app: Box<dyn GroupApp>,
    ) -> (Box<dyn GroupApp>, Option<GroupHandle>) {
        Pump::new(handle, app, Arc::default()).run()
    }

    /// Forms the group, pumps every app on its own thread, and returns
    /// the apps (in `add_app` order) once all have ended.
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
    use crossbeam::channel;

    /// Never ends by itself (it waits for a peer that will not write).
    struct Waits;
    impl GroupApp for Waits {}

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
        waker_tx: channel::Sender<Arc<dyn Fn() + Send + Sync>>,
        fired_tx: channel::Sender<Instant>,
        /// `true`: arm again; `false`: stop.
        resume_rx: channel::Receiver<bool>,
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
        let (waker_tx, waker_rx) = channel::unbounded();
        let (fired_tx, fired_rx) = channel::unbounded();
        let (resume_tx, resume_rx) = channel::unbounded();
        let mut host =
            LiveHost::new(4, FaultPlan::reliable(), GroupId(1), GroupConfig::default());
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
        let mut host =
            LiveHost::new(3, FaultPlan::reliable(), GroupId(1), GroupConfig::default());
        host.add_app(Box::new(Waits));
        host.add_app(Box::new(FailsItsScript));
        host.run();
    }
}
