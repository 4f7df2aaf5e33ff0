//! Hosting [`GroupApp`]s inside the discrete-event kernel.
//!
//! Apps run *inline* in the simulation: every callback executes at a
//! simulated instant, costs nothing on the simulated CPUs (an app's
//! own compute is not part of the calibrated 1996 model — the protocol
//! and copy costs are), and timers fire in simulated time. Mutating
//! [`Ctx`] calls are buffered during the callback and applied when it
//! returns, so a callback observes a consistent world.
//!
//! This is the simulated half of the portable application API
//! (DESIGN.md §8, repository root); `amoeba-runtime`'s `LiveHost` is
//! the other half.

use std::time::Duration;

use amoeba_app::cmd::{AppCmd, BufferedCtx, HostView};
use amoeba_app::{AppEvent, GroupApp, TimerId};
use amoeba_core::{GroupConfig, GroupId, GroupInfo};
use amoeba_net::{HostId, McastAddr};
use amoeba_sim::{SimDuration, Simulation};

use crate::cost::CostModel;
use crate::world::{Kernel, KernelWorld, SimWorld};
use crate::node::Workload;

type Sim = Simulation<KernelWorld>;

/// Which app callback to invoke.
pub(crate) enum AppCall {
    /// `on_start`.
    Start,
    /// `on_event`.
    Event(AppEvent),
    /// `on_timer`.
    Timer(TimerId),
}

/// What a simulated app reads synchronously during a callback (the
/// buffering of its writes lives in [`BufferedCtx`], shared with the
/// live host).
struct SimView<'a> {
    sim: &'a Sim,
    n: usize,
}

impl HostView for SimView<'_> {
    fn now(&self) -> Duration {
        let since = self.sim.now().since(self.sim.world.nodes[self.n].app_start);
        Duration::from_micros(since.as_micros())
    }

    fn info(&self) -> GroupInfo {
        self.sim.world.nodes[self.n]
            .core
            .as_ref()
            .expect("a hosted app's node has a group core")
            .info()
    }

    fn config(&self) -> GroupConfig {
        self.sim.world.nodes[self.n]
            .core
            .as_ref()
            .expect("a hosted app's node has a group core")
            .config()
            .clone()
    }
}

/// Namespace for the kernel's app-hosting plumbing (the application
/// side of [`Kernel`]).
pub(crate) struct Apps;

impl Apps {
    /// Runs one app callback inline, then applies its buffered
    /// requests and re-examines the send window.
    pub(crate) fn call(sim: &mut Sim, n: usize, call: AppCall) {
        if sim.world.nodes[n].app_done {
            return;
        }
        let Some(mut app) = sim.world.nodes[n].app.take() else { return };
        let mut ctx = BufferedCtx::new(SimView { sim, n });
        match call {
            AppCall::Start => app.on_start(&mut ctx),
            AppCall::Event(ev) => app.on_event(&mut ctx, ev),
            AppCall::Timer(id) => app.on_timer(&mut ctx, id),
        }
        let cmds = ctx.cmds;
        sim.world.nodes[n].app = Some(app);
        Self::apply(sim, n, cmds);
        Kernel::maybe_kick(sim, n);
    }

    fn apply(sim: &mut Sim, n: usize, cmds: Vec<AppCmd>) {
        for cmd in cmds {
            match cmd {
                AppCmd::Send(payload) => {
                    sim.world.nodes[n].pending_sends.push_back(payload);
                }
                AppCmd::Reset(min_members) => {
                    if let Some(core) = sim.world.nodes[n].core.as_mut() {
                        let actions = core.reset(min_members);
                        Kernel::execute_group_actions(sim, n, actions);
                    }
                }
                AppCmd::Leave => {
                    // LeaveDone (in `execute_group_actions`) ends the app.
                    // Terminal: later requests from the same callback
                    // are void (identical on both hosts).
                    if let Some(core) = sim.world.nodes[n].core.as_mut() {
                        let actions = core.leave();
                        Kernel::execute_group_actions(sim, n, actions);
                    }
                    break;
                }
                AppCmd::Crash => {
                    Self::crash_node(sim, n);
                    break;
                }
                AppCmd::SetTimer(id, after) => {
                    if let Some(old) = sim.world.nodes[n].app_timers.remove(&id) {
                        sim.cancel(old);
                    }
                    let after = SimDuration::from_micros(after.as_micros() as u64);
                    let ev = sim.schedule_in(after, move |sim| {
                        sim.world.nodes[n].app_timers.remove(&id);
                        Apps::call(sim, n, AppCall::Timer(id));
                    });
                    sim.world.nodes[n].app_timers.insert(id, ev);
                }
                AppCmd::CancelTimer(id) => {
                    if let Some(ev) = sim.world.nodes[n].app_timers.remove(&id) {
                        sim.cancel(ev);
                    }
                }
                AppCmd::Stop => {
                    Self::finish(sim, n);
                    break;
                }
            }
        }
    }

    /// Starts node `n`'s app if it is installed, admitted, and not yet
    /// started.
    pub(crate) fn maybe_start(sim: &mut Sim, n: usize) {
        let now = sim.now();
        let node = &mut sim.world.nodes[n];
        if !node.ready || node.app.is_none() || node.app_started || node.app_done {
            return;
        }
        node.app_started = true;
        node.app_start = now;
        Self::call(sim, n, AppCall::Start);
    }

    /// Ends node `n`'s app: no further callbacks, pending timers and
    /// queued sends are dropped. The protocol entity keeps running.
    pub(crate) fn finish(sim: &mut Sim, n: usize) {
        let node = &mut sim.world.nodes[n];
        if node.app.is_none() || node.app_done {
            return;
        }
        node.app_done = true;
        node.pending_sends.clear();
        sim.world.running_apps -= 1;
        Self::cancel_app_timers(sim, n);
    }

    fn cancel_app_timers(sim: &mut Sim, n: usize) {
        let armed: Vec<_> = sim.world.nodes[n].app_timers.drain().map(|(_, ev)| ev).collect();
        for ev in armed {
            sim.cancel(ev);
        }
    }

    /// Crashes node `n`: every protocol entity vanishes without a
    /// leave, its address becomes unroutable, and its app ends.
    pub(crate) fn crash_node(sim: &mut Sim, n: usize) {
        Self::finish(sim, n);
        // Protocol timers die with the kernel.
        let armed: Vec<_> = sim.world.nodes[n].proto_timers.drain().map(|(_, ev)| ev).collect();
        for ev in armed {
            sim.cancel(ev);
        }
        if let Some(ev) = sim.world.nodes[n].rpc_timer.take() {
            sim.cancel(ev);
        }
        // The machine goes silent: unroutable, deaf to its multicasts.
        let addr = sim.world.nodes[n].addr;
        sim.world.routes.unregister(addr);
        if let Some(group) = sim.world.nodes[n].group {
            sim.world.routes.unregister_group_member(group.flip_address(), HostId(n));
            sim.world.net.leave_multicast(HostId(n), McastAddr(group.0 as u32));
        }
        Kernel::admission_settle(sim, n);
        let node = &mut sim.world.nodes[n];
        node.core = None;
        node.rpc_client = None;
        node.rpc_server = None;
        node.workload = Workload::Idle;
        node.ready = false;
        node.issuing = false;
        node.in_flight = 0;
        node.issued_q.clear();
    }
}

// ---------------------------------------------------------------------
// SimHost: the experimenter's facade for app-driven scenarios
// ---------------------------------------------------------------------

/// Hosts a set of [`GroupApp`]s as one simulated group: the first app
/// added founds the group (and sequences), the rest join; once every
/// member is admitted the apps start together, and the run ends when
/// every app has stopped (or the simulated-time limit expires).
///
/// This is the simulated backend of the portable application API — the
/// same boxed apps run unmodified under `amoeba-runtime`'s `LiveHost`
/// (the facade crate's `amoeba::app::run` picks between them).
///
/// # Example
///
/// ```
/// use amoeba_app::SenderApp;
/// use amoeba_core::{GroupConfig, GroupId};
/// use amoeba_kernel::SimHost;
///
/// let mut host = SimHost::new(42, GroupId(1), GroupConfig::paper());
/// host.add_app(Box::new(SenderApp::new(0, 10))); // founds + sequences
/// host.add_app(Box::new(SenderApp::new(0, 10))); // joins
/// let world = host.run().into_world();
/// assert_eq!(world.sim.world.metrics.sends_ok.get(), 20);
/// ```
pub struct SimHost {
    world: SimWorld,
    group: GroupId,
    config: GroupConfig,
    nodes: Vec<usize>,
    apps: Vec<Box<dyn GroupApp>>,
    limit: SimDuration,
}

/// A completed [`SimHost`] run: the apps (in `add_app` order, for
/// final-state inspection) and the finished world (for metrics).
pub struct SimRun {
    /// The hosted apps, in the order they were added.
    pub apps: Vec<Box<dyn GroupApp>>,
    /// The finished world.
    pub world: SimWorld,
    /// Whether every app ended before the simulated-time limit.
    pub all_done: bool,
}

impl SimRun {
    /// Drops the apps and keeps the world.
    pub fn into_world(self) -> SimWorld {
        self.world
    }
}

impl SimHost {
    /// A host on the paper's testbed model (20-MHz MC68030s, 10 Mbit/s
    /// Ethernet) with a 600-second simulated-time budget.
    pub fn new(seed: u64, group: GroupId, config: GroupConfig) -> Self {
        Self::with_cost(CostModel::mc68030_ether10(), seed, group, config)
    }

    /// A host with an explicit cost model.
    pub fn with_cost(cost: CostModel, seed: u64, group: GroupId, config: GroupConfig) -> Self {
        SimHost {
            world: SimWorld::new(cost, seed),
            group,
            config,
            nodes: Vec::new(),
            apps: Vec::new(),
            limit: SimDuration::from_secs(600),
        }
    }

    /// Caps the run at `limit` simulated time (default 600 s).
    pub fn set_limit(&mut self, limit: SimDuration) {
        self.limit = limit;
    }

    /// Adds a member running `app`; returns its node index (also its
    /// join order: the first app founds the group and sequences).
    pub fn add_app(&mut self, app: Box<dyn GroupApp>) -> usize {
        let n = self.world.add_node();
        self.nodes.push(n);
        self.apps.push(app);
        n
    }

    /// Forms the group, starts every app once all members are
    /// admitted, and runs until every app has ended (or the limit
    /// expires).
    pub fn run(mut self) -> SimRun {
        assert!(!self.apps.is_empty(), "SimHost::run needs at least one app");
        for (i, &n) in self.nodes.iter().enumerate() {
            if i == 0 {
                self.world.create_group(n, self.group, self.config.clone());
            } else {
                self.world.join_group(n, self.group, self.config.clone());
            }
        }
        self.world.run_until_ready();
        for (&n, app) in self.nodes.iter().zip(self.apps.drain(..)) {
            self.world.set_app(n, app);
        }
        self.world.kick();
        let all_done = self.world.run_until_apps_done(self.limit);
        let apps = self
            .nodes
            .iter()
            .map(|&n| self.world.take_app(n).expect("app installed above"))
            .collect();
        SimRun { apps, world: self.world, all_done }
    }
}
