//! Cluster assembly: the same sharded serving topology hosted on the
//! simulated kernel ([`SimCluster`]) or the live runtime
//! ([`LiveCluster`]), behind one [`Cluster`] trait so orchestration
//! code (tests, scenarios, the example) is backend-agnostic.
//!
//! Topology (node order is identical on both backends, which makes
//! member ids — and therefore delivery logs — comparable):
//!
//! ```text
//! nodes 0..meta_members                     the meta group
//! nodes meta_members + g*members + j        member j of data group g
//! ```
//!
//! Each data group's *gateway* is member index 1 (member 0 founds the
//! group and is its initial sequencer; keeping the roles on different
//! members means a sequencer crash does not sever routing). Groups of
//! one member use member 0.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use amoeba_app::GroupApp;
use amoeba_core::{GroupConfig, GroupId};
use amoeba_kernel::{Admission, SimWorld};
use amoeba_runtime::{form_group, pump_apps, Amoeba, FaultPlan, Pumps};
use amoeba_sim::SimDuration;

use crate::gateway::{Gateway, GatewayPort};
use crate::map::{new_board, MapBoard, ShardMap};
use crate::meta::MetaApp;
use crate::moves::{MoveController, ReshardGoal};
use crate::op::ShardOp;
use crate::router::Router;
use crate::server::{SharedLog, SharedStore, ShardServerApp};

/// Wire id of the meta group (data groups use `1..`).
pub const META_GROUP_ID: u64 = 1_000;

/// The shape of a sharded cluster.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Deterministic seed (drives formation and, on the sim, the wire).
    pub seed: u64,
    /// Initial data shards (data groups `1..=shards` own one range
    /// each).
    pub shards: usize,
    /// Members per data group.
    pub members: usize,
    /// Members of the meta group.
    pub meta_members: usize,
    /// Extra data groups (ids `shards+1..=shards+spares`) that start
    /// owning nothing — split/rebalance targets.
    pub spares: usize,
    /// Data-group configuration; `None` = defaults scaled to the
    /// world's size. De-phasing across groups is applied on top.
    pub data_config: Option<GroupConfig>,
    /// Meta-group configuration; `None` = scaled defaults.
    pub meta_config: Option<GroupConfig>,
}

impl ShardSpec {
    /// A cluster of `shards` data groups of `members` each, one
    /// 3-member meta group, no spares.
    pub fn new(seed: u64, shards: usize, members: usize) -> Self {
        ShardSpec {
            seed,
            shards,
            members,
            meta_members: 3,
            spares: 0,
            data_config: None,
            meta_config: None,
        }
    }

    /// Adds `spares` initially-empty data groups.
    pub fn with_spares(mut self, spares: usize) -> Self {
        self.spares = spares;
        self
    }

    /// Total data groups (owning + spare).
    pub fn data_groups(&self) -> usize {
        self.shards + self.spares
    }

    /// Total nodes across meta and data groups.
    pub fn total_nodes(&self) -> usize {
        self.meta_members + self.data_groups() * self.members
    }

    /// Node index of member `j` of data group index `g` (0-based).
    pub fn data_node(&self, g: usize, j: usize) -> usize {
        self.meta_members + g * self.members + j
    }

    /// Which member index carries a group's gateway.
    pub fn gateway_member(members: usize) -> usize {
        usize::from(members > 1)
    }

    /// The initial map: the ring split evenly across the owning data
    /// groups (wire ids `1..=shards`).
    pub fn initial_map(&self) -> ShardMap {
        let owners: Vec<u64> = (1..=self.shards as u64).collect();
        ShardMap::uniform(&owners)
    }

    /// Group configuration for group index `g` (0 = meta, `1..` =
    /// data), [`GroupConfig::dephased`] across the cluster's groups.
    pub fn config_for(&self, g: usize) -> GroupConfig {
        let groups = self.data_groups() + 1;
        let (base, members) = if g == 0 {
            (self.meta_config.clone(), self.meta_members)
        } else {
            (self.data_config.clone(), self.members)
        };
        base.unwrap_or_else(|| GroupConfig::scaled_for_world(members, groups)).dephased(g)
    }
}

/// A group configuration for clusters that must ride out crashes
/// promptly: scaled for the world like the defaults, but with snappy
/// failure detection, robust repair and automatic recovery (the same
/// knob set the chaos explorer runs under). The stock timers would
/// take ~13 simulated seconds to give up on a dead sequencer — far
/// too slow for a serving layer.
pub fn fault_tolerant_config(members: usize, groups: usize, send_window: usize) -> GroupConfig {
    let mut c = GroupConfig::scaled_for_world(members, groups);
    c.send_window = send_window;
    c.send_retransmit_us = 40_000;
    c.send_max_retries = 5;
    c.nack_retry_us = 25_000;
    c.sync_interval_us = c.sync_interval_us.min(500_000).max(c.sync_round_us * 2);
    c.robust_repair = true;
    c.recovery_watchdog_us = 1_000_000.max(2 * c.sync_interval_us);
    c.auto_reset = true;
    c.auto_reset_min_members = 1;
    c
}

/// Harness-side handles for one group: its gateway port plus every
/// member's shared store and delivery log.
pub struct ShardGroup {
    /// Wire group id.
    pub id: u64,
    /// Node indices, in member-id order.
    pub nodes: Vec<usize>,
    /// The gateway's router-facing endpoints.
    pub port: GatewayPort,
    /// Per-member delivery logs `(origin member, gateway seq)`.
    pub logs: Vec<SharedLog>,
    /// Per-member KV stores (empty vec for the meta group).
    pub stores: Vec<SharedStore>,
}

/// Builds the app set for one data group; returns the harness handles
/// and the apps in member order.
fn build_data_group(
    spec: &ShardSpec,
    g: usize,
    map: &ShardMap,
) -> (ShardGroup, Vec<Box<dyn GroupApp>>) {
    let id = g as u64 + 1;
    let owned = map.ranges_of(id);
    let port = GatewayPort::new();
    let gw_member = ShardSpec::gateway_member(spec.members);
    let mut logs = Vec::new();
    let mut stores = Vec::new();
    let mut apps: Vec<Box<dyn GroupApp>> = Vec::new();
    for j in 0..spec.members {
        let store: SharedStore = Arc::new(Mutex::new(BTreeMap::new()));
        let log: SharedLog = Arc::new(Mutex::new(Vec::new()));
        let gateway = (j == gw_member).then(|| Gateway::new(port.clone()));
        apps.push(Box::new(ShardServerApp::new(
            owned.clone(),
            store.clone(),
            log.clone(),
            gateway,
        )));
        stores.push(store);
        logs.push(log);
    }
    let nodes = (0..spec.members).map(|j| spec.data_node(g, j)).collect();
    (ShardGroup { id, nodes, port, logs, stores }, apps)
}

/// Builds the meta group's app set.
fn build_meta_group(
    spec: &ShardSpec,
    map: &ShardMap,
    board: &MapBoard,
) -> (ShardGroup, Vec<Box<dyn GroupApp>>) {
    let port = GatewayPort::new();
    let gw_member = ShardSpec::gateway_member(spec.meta_members);
    let mut logs = Vec::new();
    let mut apps: Vec<Box<dyn GroupApp>> = Vec::new();
    for j in 0..spec.meta_members {
        let log: SharedLog = Arc::new(Mutex::new(Vec::new()));
        let gateway = (j == gw_member).then(|| Gateway::new(port.clone()));
        apps.push(Box::new(MetaApp::new(map.clone(), board.clone(), log.clone(), gateway)));
        logs.push(log);
    }
    let nodes = (0..spec.meta_members).collect();
    (ShardGroup { id: META_GROUP_ID, nodes, port, logs, stores: Vec::new() }, apps)
}

/// The harness side of a cluster, the same on both backends: the map
/// board, every group's handles, the router over their gateways'
/// ports, every member's app in node order, and what to form: each
/// group's id, nodes (the founder first) and configuration, meta first.
struct Assembly {
    board: MapBoard,
    meta: ShardGroup,
    groups: Vec<ShardGroup>,
    router: Router,
    apps: Vec<Box<dyn GroupApp>>,
    formation: Vec<(GroupId, Vec<usize>, GroupConfig)>,
}

fn assemble(spec: &ShardSpec) -> Assembly {
    let map = spec.initial_map();
    let board = new_board(map.clone());
    let (meta, mut apps) = build_meta_group(spec, &map, &board);
    let mut groups = Vec::new();
    for g in 0..spec.data_groups() {
        let (group, group_apps) = build_data_group(spec, g, &map);
        apps.extend(group_apps);
        groups.push(group);
    }
    let ports = groups.iter().map(|group| (group.id, group.port.clone())).collect();
    let router = Router::new(board.clone(), ports);
    let formation = std::iter::once(&meta)
        .chain(&groups)
        .enumerate()
        .map(|(g, group)| (GroupId(group.id), group.nodes.clone(), spec.config_for(g)))
        .collect();
    Assembly { board, meta, groups, router, apps, formation }
}

/// One sharded cluster, backend-erased. `advance` moves time forward
/// one scheduling quantum *and* pumps the router once; all
/// orchestration helpers below are written against this trait.
pub trait Cluster {
    /// Advance time one quantum (≈1 ms simulated / a few ms wall) and
    /// pump the router.
    fn advance(&mut self);
    /// The cluster's router.
    fn router(&mut self) -> &mut Router;
    /// A clone of the meta gateway's endpoints (for map commands).
    fn meta_port(&self) -> GatewayPort;
    /// Broadcast `Halt` through every group and wait for every app to
    /// end. Returns whether everything shut down inside the limit: the
    /// simulated cluster has one (30 simulated seconds); the live one
    /// has none — it returns, `true`, when the last app is back.
    fn halt(&mut self) -> bool;
}

/// Pumps `c` until `done(router)` holds, at most `max_cycles` cycles.
pub fn run_until<C: Cluster + ?Sized>(
    c: &mut C,
    max_cycles: usize,
    mut done: impl FnMut(&mut Router) -> bool,
) -> bool {
    for _ in 0..max_cycles {
        if done(c.router()) {
            return true;
        }
        c.advance();
    }
    done(c.router())
}

/// Drives one [`ReshardGoal`] to completion (at most `max_cycles`
/// pump cycles); returns whether it finished.
pub fn run_reshard<C: Cluster + ?Sized>(
    c: &mut C,
    goal: ReshardGoal,
    max_cycles: usize,
) -> bool {
    let meta = c.meta_port();
    let mut ctl = MoveController::new(goal);
    for _ in 0..max_cycles {
        if ctl.step(c.router(), &meta) {
            return true;
        }
        c.advance();
    }
    ctl.step(c.router(), &meta)
}

// ---------------------------------------------------------------------
// Simulated backend
// ---------------------------------------------------------------------

/// The sharded cluster on the simulated kernel: a world formed by
/// [`SimWorld::formed`] with staggered joins, and the same harness
/// [`LiveCluster`] builds. The world is public: fault scripting
/// (crash schedules, chaos plans) goes straight to [`SimWorld`].
pub struct SimCluster {
    /// The underlying simulated world.
    pub world: SimWorld,
    /// The cluster's shape.
    pub spec: ShardSpec,
    /// The routing board the meta members publish into.
    pub board: MapBoard,
    /// Meta-group harness handles.
    pub meta: ShardGroup,
    /// Data-group harness handles, in group-id order.
    pub groups: Vec<ShardGroup>,
    router: Router,
    quantum: SimDuration,
}

impl SimCluster {
    /// Builds, forms ([`Admission::Staggered`]) and starts the cluster
    /// described by `spec` (formation is complete and apps are running
    /// on return). Staggered joins make member j of every group node j
    /// of that group, as the live backend's sequential joins do.
    pub fn new(spec: ShardSpec) -> Self {
        let Assembly { board, meta, groups, router, apps, formation } = assemble(&spec);
        let mut world =
            SimWorld::formed(spec.seed, spec.total_nodes(), Admission::Staggered, &formation);
        for (n, app) in apps.into_iter().enumerate() {
            world.set_app(n, app);
        }
        world.kick();
        SimCluster { world, spec, board, meta, groups, router, quantum: SimDuration::from_millis(1) }
    }

    /// Current simulated time, µs.
    pub fn now_us(&self) -> u64 {
        self.world.now().as_micros()
    }
}

impl Cluster for SimCluster {
    fn advance(&mut self) {
        self.world.run_for(self.quantum);
        self.router.pump();
    }

    fn router(&mut self) -> &mut Router {
        &mut self.router
    }

    fn meta_port(&self) -> GatewayPort {
        self.meta.port.clone()
    }

    fn halt(&mut self) -> bool {
        for group in self.groups.iter().chain([&self.meta]) {
            group.port.push(ShardOp::Halt.encode());
        }
        self.world.run_until_apps_done(SimDuration::from_secs(30))
    }
}

// ---------------------------------------------------------------------
// Live backend
// ---------------------------------------------------------------------

/// The sharded cluster on the live runtime: one thread per member,
/// which drives the protocol and runs the member's app; identical
/// node/member layout to [`SimCluster`].
pub struct LiveCluster {
    /// The cluster's shape.
    pub spec: ShardSpec,
    /// The routing board the meta members publish into.
    pub board: MapBoard,
    /// Meta-group harness handles.
    pub meta: ShardGroup,
    /// Data-group harness handles, in group-id order.
    pub groups: Vec<ShardGroup>,
    router: Router,
    pumps: Pumps,
}

impl LiveCluster {
    /// Builds, forms and starts the cluster on a live fabric with the
    /// given fault plan. Joins are strictly sequential, so member ids
    /// (and the gateway member) match the simulated layout.
    pub fn new(spec: ShardSpec, fault: FaultPlan) -> Self {
        let amoeba = Amoeba::new(spec.seed, fault);
        Self::with_amoeba(spec, amoeba)
    }

    /// Same, over an already-built runtime — e.g. one speaking real
    /// UDP sockets via `Amoeba::over_transport` (DESIGN.md §12).
    pub fn with_amoeba(spec: ShardSpec, amoeba: Amoeba) -> Self {
        let Assembly { board, meta, groups, router, apps, formation } = assemble(&spec);
        let handles: Vec<_> = formation
            .into_iter()
            .flat_map(|(id, nodes, config)| form_group(&amoeba, id, &config, nodes.len()))
            .collect();
        // Every member formed; now start the apps.
        let pumps = pump_apps(handles, apps);
        LiveCluster { spec, board, meta, groups, router, pumps }
    }
}

impl Cluster for LiveCluster {
    /// Pumps before it sleeps too: work submitted since the last pump is
    /// handed to its gateways now, not at their next poll.
    fn advance(&mut self) {
        self.router.pump();
        std::thread::sleep(Duration::from_millis(2));
        self.router.pump();
    }

    fn router(&mut self) -> &mut Router {
        &mut self.router
    }

    fn meta_port(&self) -> GatewayPort {
        self.meta.port.clone()
    }

    fn halt(&mut self) -> bool {
        for group in self.groups.iter().chain([&self.meta]) {
            group.port.push(ShardOp::Halt.encode());
        }
        std::mem::take(&mut self.pumps).join();
        true
    }
}
