//! The simulated Amoeba world: hosts running the kernel communication
//! stack (Table 2 of the paper: group/RPC layer → FLIP → Ethernet),
//! with every layer's CPU cost charged per the calibrated [`CostModel`].

use std::collections::HashMap;
use std::rc::Rc;

use amoeba_app::{AppEvent, GroupApp, SenderApp};
use amoeba_core::{
    Action, Dest, GroupConfig, GroupCore, GroupEvent, GroupId, Seqno, TimerKind,
};
use amoeba_flip::{FlipAddress, FragKey, Route, RouteTable, FLIP_HEADER_LEN};
use amoeba_net::{CpuPriority, Frame, HostId, McastAddr, Net, NetConfig, NetView};
use amoeba_rpc::{RpcAction, RpcClient, RpcMsg, RpcServer, ServerEvent};
use amoeba_sim::{Counter, Histogram, SimDuration, SimTime, Simulation};
use bytes::Bytes;

use crate::cost::CostModel;
use crate::host::{AppCall, Apps};
use crate::node::{SimNode, Workload};
use crate::payload::{SimFrag, SimPacket};

/// Link-level bytes before the FLIP header: 14 B Ethernet + 2 B flow
/// control (paper's accounting).
pub const LINK_HEADER_LEN: u32 = 16;

/// Measurements accumulated across a run.
#[derive(Debug, Clone, Default)]
pub struct WorldMetrics {
    /// Per-send latency (µs) of completed `SendToGroup`s.
    pub send_delay_us: Histogram,
    /// Per-call latency (µs) of completed RPCs.
    pub rpc_delay_us: Histogram,
    /// Completed sends (all nodes).
    pub sends_ok: Counter,
    /// Failed sends.
    pub sends_err: Counter,
    /// Events delivered to applications.
    pub deliveries: Counter,
}

/// The complete simulation state.
pub struct KernelWorld {
    /// The network substrate.
    pub net: Net<KernelWorld>,
    /// The machines.
    pub nodes: Vec<SimNode>,
    /// FLIP routing (global, static: locate is not simulated — every
    /// experiment runs on one segment with known membership).
    pub routes: RouteTable<HostId>,
    /// The cost model.
    pub cost: CostModel,
    /// Measurements.
    pub metrics: WorldMetrics,
    /// Nodes whose group core has not completed admission yet. Kept
    /// incrementally so `run_until_ready` tests one integer per event
    /// instead of scanning every node.
    pub(crate) unready_cores: usize,
    /// Installed applications that have not ended yet (same role, for
    /// `run_until_apps_done`).
    pub(crate) running_apps: usize,
    /// Joins that gave up (`JoinDone(Err)`): `run_until_ready` fails
    /// fast on these instead of spinning to its deadline.
    pub(crate) join_failures: usize,
    payload_cache: HashMap<u32, Bytes>,
}

impl std::fmt::Debug for KernelWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelWorld")
            .field("nodes", &self.nodes.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl NetView for KernelWorld {
    type Payload = SimFrag;

    fn net(&mut self) -> &mut Net<KernelWorld> {
        &mut self.net
    }

    fn on_frame_buffered(sim: &mut Simulation<KernelWorld>, host: HostId) {
        Kernel::rx_kick(sim, host);
    }
}

impl KernelWorld {
    fn cached_payload(&mut self, size: u32) -> Bytes {
        self.payload_cache
            .entry(size)
            .or_insert_with(|| Bytes::from(vec![0u8; size as usize]))
            .clone()
    }
}

/// Namespace for the kernel's event-driven plumbing.
pub struct Kernel;

type Sim = Simulation<KernelWorld>;

enum PacketDest {
    Process(FlipAddress),
    Group(GroupId),
}

impl Kernel {
    // ------------------------------------------------------------------
    // Receive path: interrupt → drain → reassemble → dispatch
    // ------------------------------------------------------------------

    /// A frame landed in the ring: start the drain loop unless it is
    /// already running (one interrupt per frame, as on the Lance).
    fn rx_kick(sim: &mut Sim, host: HostId) {
        let n = host.0;
        if sim.world.nodes[n].draining {
            return;
        }
        sim.world.nodes[n].draining = true;
        Self::rx_drain(sim, host);
    }

    fn rx_drain(sim: &mut Sim, host: HostId) {
        let n = host.0;
        let Some(frame) = sim.world.net.host_mut(host).nic.pop_rx() else {
            sim.world.nodes[n].draining = false;
            return;
        };
        // Interrupt + driver + FLIP demux per frame, plus the first copy
        // (Lance buffer → protocol buffer).
        let c = sim.world.cost;
        let cost = c.ether_rx + c.flip_rx + c.copy_cost(frame.wire_len);
        amoeba_net::Net::cpu_run(
            sim,
            host,
            CpuPriority::Interrupt,
            SimDuration::from_micros(cost),
            move |sim| {
                Self::reassemble(sim, host, frame);
                Self::rx_drain(sim, host);
            },
        );
    }

    fn reassemble(sim: &mut Sim, host: HostId, frame: Frame<SimFrag>) {
        let n = host.0;
        let frag = frame.payload;
        let key = FragKey { src: frag.packet.from(), msg_id: frag.msg_id };
        let now = sim.now().as_micros();
        let node = &mut sim.world.nodes[n];
        if node.reasm.pending() > 64 {
            node.reasm.purge_older_than(now.saturating_sub(1_000_000));
        }
        let done = node.reasm.insert(key, frag.index, frag.count, frag.packet, now);
        // The fragments' handles are one packet: keep one.
        if let Some(packet) = done.and_then(|mut parts| parts.pop()) {
            Self::dispatch(sim, n, packet);
        }
    }

    /// A whole packet is assembled: charge the owning layer and run the
    /// protocol state machine. The protocol consumes its own copy of the
    /// message; the packet itself stays shared with the other receivers
    /// (the last one to get here takes it without a copy).
    fn dispatch(sim: &mut Sim, n: usize, packet: Rc<SimPacket>) {
        match Rc::unwrap_or_clone(packet) {
            SimPacket::Group { from, msg } => {
                let is_seq =
                    sim.world.nodes[n].core.as_ref().map(|c| c.is_sequencer()).unwrap_or(false);
                let cost = sim.world.cost.group_layer_rx(is_seq, &msg.body);
                amoeba_net::Net::cpu_run(
                    sim,
                    HostId(n),
                    CpuPriority::Kernel,
                    SimDuration::from_micros(cost),
                    move |sim| {
                        let Some(core) = sim.world.nodes[n].core.as_mut() else { return };
                        let actions = core.handle_message(from, msg);
                        Self::execute_group_actions(sim, n, actions);
                    },
                );
            }
            SimPacket::Rpc { from, msg } => {
                let cost = sim.world.cost.rpc_layer;
                amoeba_net::Net::cpu_run(
                    sim,
                    HostId(n),
                    CpuPriority::Kernel,
                    SimDuration::from_micros(cost),
                    move |sim| Self::dispatch_rpc(sim, n, from, msg),
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Transmit path: fragment, charge, hand to the NIC
    // ------------------------------------------------------------------

    fn send_packet(sim: &mut Sim, n: usize, dest: PacketDest, packet: SimPacket) {
        let mtu_payload = sim.world.net.config.mtu - LINK_HEADER_LEN - FLIP_HEADER_LEN;
        let size = packet.wire_size();
        // One allocation per send: every fragment, and every receive
        // ring the medium copies a frame into, holds this handle.
        let packet = Rc::new(packet);
        let lens = amoeba_flip::split_lens(size, mtu_payload);
        let count = lens.len() as u16;
        let msg_id = {
            let node = &mut sim.world.nodes[n];
            node.next_frag_id += 1;
            node.next_frag_id
        };
        let (frames, ndst): (Vec<Frame<SimFrag>>, usize) = {
            let world = &mut sim.world;
            match dest {
                PacketDest::Process(addr) => match world.routes.lookup(addr) {
                    Some(&Route::Process(host)) => (
                        lens.iter()
                            .enumerate()
                            .map(|(i, &len)| {
                                Frame::unicast(
                                    HostId(n),
                                    host,
                                    LINK_HEADER_LEN + FLIP_HEADER_LEN + len,
                                    SimFrag {
                                        packet: Rc::clone(&packet),
                                        msg_id,
                                        index: i as u16,
                                        count,
                                    },
                                )
                            })
                            .collect(),
                        1,
                    ),
                    _ => return, // unroutable (dead or unknown): vanish
                },
                PacketDest::Group(group) => {
                    match world.routes.lookup(group.flip_address()) {
                        Some(Route::Group { members, mcast }) => {
                            let ndst = members.len();
                            let mcast = McastAddr(mcast.unwrap_or(group.0 as u32));
                            (
                                lens.iter()
                                    .enumerate()
                                    .map(|(i, &len)| {
                                        Frame::multicast(
                                            HostId(n),
                                            mcast,
                                            LINK_HEADER_LEN + FLIP_HEADER_LEN + len,
                                            SimFrag {
                                                packet: Rc::clone(&packet),
                                                msg_id,
                                                index: i as u16,
                                                count,
                                            },
                                        )
                                    })
                                    .collect(),
                                ndst,
                            )
                        }
                        _ => return,
                    }
                }
            }
        };
        // FLIP + driver + copy per fragment; the multicast fan-out adds
        // the paper's ~4 µs per destination on the send side.
        for frame in frames {
            let c = sim.world.cost;
            let cost = c.flip_send
                + c.ether_tx
                + c.copy_cost(frame.wire_len)
                + c.mcast_per_dest * ndst as u64;
            amoeba_net::Net::cpu_run(
                sim,
                HostId(n),
                CpuPriority::Kernel,
                SimDuration::from_micros(cost),
                move |sim| amoeba_net::Net::send_frame(sim, HostId(n), frame),
            );
        }
    }

    // ------------------------------------------------------------------
    // Group protocol action execution
    // ------------------------------------------------------------------

    pub(crate) fn register_membership(sim: &mut Sim, n: usize, group: GroupId) {
        let host = HostId(n);
        let gaddr = group.flip_address();
        sim.world.routes.register_group_member(gaddr, host);
        sim.world.routes.set_group_mcast(gaddr, group.0 as u32);
        sim.world.net.join_multicast(host, McastAddr(group.0 as u32));
    }

    /// Marks node `n`'s admission outcome as pending (counted in
    /// `unready_cores`). Idempotent: the flag guards the counter.
    pub(crate) fn admission_begin(sim: &mut Sim, n: usize) {
        if !sim.world.nodes[n].admission_pending {
            sim.world.nodes[n].admission_pending = true;
            sim.world.unready_cores += 1;
        }
    }

    /// Resolves node `n`'s pending admission (success, failure, or
    /// crash). Idempotent.
    pub(crate) fn admission_settle(sim: &mut Sim, n: usize) {
        if sim.world.nodes[n].admission_pending {
            sim.world.nodes[n].admission_pending = false;
            sim.world.unready_cores -= 1;
        }
    }

    /// Starts `JoinGroup` for node `n` — the event-context form of
    /// [`SimWorld::join_group`], shared by the immediate and the
    /// scheduled (`join_group_at`) paths.
    pub(crate) fn admit_join(sim: &mut Sim, n: usize, group: GroupId, config: GroupConfig) {
        Self::register_membership(sim, n, group);
        let addr = sim.world.nodes[n].addr;
        let (core, actions) = GroupCore::join(group, addr, config).expect("valid config");
        sim.world.nodes[n].core = Some(core);
        sim.world.nodes[n].group = Some(group);
        Self::admission_begin(sim, n);
        Self::execute_group_actions(sim, n, actions);
    }

    pub(crate) fn execute_group_actions(sim: &mut Sim, n: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { dest, msg } => {
                    let from = sim.world.nodes[n].addr;
                    let dest = match dest {
                        Dest::Unicast(addr) => PacketDest::Process(addr),
                        Dest::Group => {
                            PacketDest::Group(sim.world.nodes[n].group.expect("member has group"))
                        }
                    };
                    Self::send_packet(sim, n, dest, SimPacket::Group { from, msg });
                }
                Action::SetTimer { kind, after_us } => Self::set_timer(sim, n, kind, after_us),
                Action::CancelTimer { kind } => {
                    if let Some(ev) = sim.world.nodes[n].proto_timers.remove(&kind) {
                        sim.cancel(ev);
                    }
                }
                Action::Deliver(ev) => Self::app_deliver(sim, n, ev),
                Action::SendDone(result) => Self::app_send_done(sim, n, result),
                Action::JoinDone(result) => {
                    // Both outcomes resolve the pending admission; a
                    // failure additionally counts so `run_until_ready`
                    // can fail fast instead of spinning to its
                    // deadline.
                    Self::admission_settle(sim, n);
                    if result.is_ok() {
                        sim.world.nodes[n].ready = true;
                        Apps::maybe_start(sim, n);
                        Self::maybe_kick(sim, n);
                    } else {
                        sim.world.join_failures += 1;
                    }
                }
                Action::LeaveDone(_) => {
                    // A graceful leave ends the hosted app (its last
                    // callback was the one that requested the leave).
                    Apps::finish(sim, n);
                }
                Action::ResetDone(result) => {
                    Apps::call(
                        sim,
                        n,
                        AppCall::Event(AppEvent::ResetDone(result.map_err(Into::into))),
                    );
                }
            }
        }
    }

    fn set_timer(sim: &mut Sim, n: usize, kind: TimerKind, after_us: u64) {
        if let Some(old) = sim.world.nodes[n].proto_timers.remove(&kind) {
            sim.cancel(old);
        }
        let ev = sim.schedule_in(SimDuration::from_micros(after_us), move |sim| {
            sim.world.nodes[n].proto_timers.remove(&kind);
            let cost = sim.world.cost.timer_dispatch;
            amoeba_net::Net::cpu_run(
                sim,
                HostId(n),
                CpuPriority::Kernel,
                SimDuration::from_micros(cost),
                move |sim| {
                    let Some(core) = sim.world.nodes[n].core.as_mut() else { return };
                    let actions = core.handle_timer(kind);
                    Self::execute_group_actions(sim, n, actions);
                },
            );
        });
        sim.world.nodes[n].proto_timers.insert(kind, ev);
    }

    // ------------------------------------------------------------------
    // Application side
    // ------------------------------------------------------------------

    /// Starts (or continues) the node's application: a sending thread
    /// issues whenever its group's `send_window` has room — window 1 is
    /// the paper's blocking loop, larger windows pipeline. Group sends
    /// come from the hosted [`GroupApp`]'s pending queue; the only
    /// hard-coded workload left is the RPC baseline.
    pub(crate) fn maybe_kick(sim: &mut Sim, n: usize) {
        if !sim.world.nodes[n].ready || sim.world.nodes[n].issuing {
            return;
        }
        if !sim.world.nodes[n].pending_sends.is_empty() {
            let window = sim.world.nodes[n]
                .core
                .as_ref()
                .map(|c| c.config().send_window)
                .unwrap_or(1);
            if (sim.world.nodes[n].in_flight as usize) < window {
                Self::app_issue_send(sim, n);
            }
        }
        match sim.world.nodes[n].workload {
            Workload::RpcPinger { size, remaining, server }
                if remaining > 0 && sim.world.nodes[n].issued_at.is_none() =>
            {
                Self::app_issue_rpc(sim, n, size, server);
            }
            _ => {}
        }
    }

    fn app_issue_send(sim: &mut Sim, n: usize) {
        let Some(payload) = sim.world.nodes[n].pending_sends.pop_front() else { return };
        sim.world.nodes[n].issuing = true; // re-entry guard
        // U1 (call entry) + the user→kernel copy…
        let c = sim.world.cost;
        let user_cost = c.user_send_entry + c.copy_cost(payload.len() as u32);
        let group_cost = c.group_send;
        amoeba_net::Net::cpu_run(
            sim,
            HostId(n),
            CpuPriority::User,
            SimDuration::from_micros(user_cost),
            move |sim| {
                // The call "begins" when the application thread actually
                // reaches SendToGroup (not while it is still queued
                // behind ReceiveFromGroup processing) — backdate to the
                // start of this job, as the paper's measurement loop does.
                let issued = sim.now() - SimDuration::from_micros(user_cost);
                sim.world.nodes[n].issued_q.push_back(issued);
                sim.world.nodes[n].in_flight += 1;
                // …then G1, then the protocol runs.
                amoeba_net::Net::cpu_run(
                    sim,
                    HostId(n),
                    CpuPriority::Kernel,
                    SimDuration::from_micros(group_cost),
                    move |sim| {
                        let Some(core) = sim.world.nodes[n].core.as_mut() else { return };
                        let actions = core.send_to_group(payload);
                        Self::execute_group_actions(sim, n, actions);
                        // The sender thread is free again: with window
                        // room left it loops straight into the next
                        // SendToGroup (pipelining); with window 1 it is
                        // blocked and this kick is a no-op.
                        sim.world.nodes[n].issuing = false;
                        Self::maybe_kick(sim, n);
                    },
                );
            },
        );
    }

    fn app_send_done(sim: &mut Sim, n: usize, result: Result<Seqno, amoeba_core::GroupError>) {
        // Waking the blocked sender thread costs a context switch.
        let cost = sim.world.cost.user_wakeup;
        amoeba_net::Net::cpu_run(
            sim,
            HostId(n),
            CpuPriority::User,
            SimDuration::from_micros(cost),
            move |sim| {
                if let Some(issued) = sim.world.nodes[n].issued_q.pop_front() {
                    sim.world.nodes[n].in_flight =
                        sim.world.nodes[n].in_flight.saturating_sub(1);
                    let delay = (sim.now() - issued).as_micros() as f64;
                    if result.is_ok() {
                        sim.world.metrics.send_delay_us.record(delay);
                        sim.world.metrics.sends_ok.incr();
                        sim.world.nodes[n].stats.sends_ok += 1;
                    } else {
                        sim.world.metrics.sends_err.incr();
                        sim.world.nodes[n].stats.sends_err += 1;
                    }
                }
                // The app reacts (typically by queueing the next send),
                // then the window is re-examined — this is the old
                // hard-coded sender loop, generalized.
                Apps::call(sim, n, AppCall::Event(AppEvent::SendDone(result.map_err(Into::into))));
            },
        );
    }

    fn app_deliver(sim: &mut Sim, n: usize, ev: GroupEvent) {
        let payload_len = match &ev {
            GroupEvent::Message { payload, .. } => payload.len() as u32,
            _ => 0,
        };
        let c = sim.world.cost;
        let was_idle = sim.world.nodes[n].rx_backlog == 0;
        sim.world.nodes[n].rx_backlog += 1;
        // The second copy (history buffer → user space) plus either a
        // cold thread wakeup or a warm hand-off.
        let cost =
            if was_idle { c.user_wakeup } else { c.user_warm } + c.copy_cost(payload_len);
        amoeba_net::Net::cpu_run(
            sim,
            HostId(n),
            CpuPriority::User,
            SimDuration::from_micros(cost),
            move |sim| {
                sim.world.nodes[n].rx_backlog -= 1;
                sim.world.nodes[n].stats.deliveries += 1;
                sim.world.metrics.deliveries.incr();
                Apps::call(sim, n, AppCall::Event(AppEvent::Group(ev)));
            },
        );
    }

    // ------------------------------------------------------------------
    // RPC (baseline)
    // ------------------------------------------------------------------

    fn app_issue_rpc(sim: &mut Sim, n: usize, size: u32, server: FlipAddress) {
        if let Workload::RpcPinger { remaining, .. } = &mut sim.world.nodes[n].workload {
            *remaining -= 1;
        }
        sim.world.nodes[n].issued_at = Some(sim.now()); // re-entry guard
        let c = sim.world.cost;
        let user_cost = c.user_send_entry + c.copy_cost(size);
        let rpc_cost = c.rpc_layer;
        amoeba_net::Net::cpu_run(
            sim,
            HostId(n),
            CpuPriority::User,
            SimDuration::from_micros(user_cost),
            move |sim| {
                let issued = sim.now() - SimDuration::from_micros(user_cost);
                sim.world.nodes[n].issued_at = Some(issued);
                amoeba_net::Net::cpu_run(
                    sim,
                    HostId(n),
                    CpuPriority::Kernel,
                    SimDuration::from_micros(rpc_cost),
                    move |sim| {
                        let payload = sim.world.cached_payload(size);
                        let Some(client) = sim.world.nodes[n].rpc_client.as_mut() else {
                            return;
                        };
                        let actions = client.call(server, payload);
                        Self::execute_rpc_actions(sim, n, actions);
                    },
                );
            },
        );
    }

    fn dispatch_rpc(sim: &mut Sim, n: usize, from: FlipAddress, msg: RpcMsg) {
        // Server side?
        if sim.world.nodes[n].rpc_server.is_some() {
            if let RpcMsg::Request { .. } = msg {
                let (events, actions) = sim.world.nodes[n]
                    .rpc_server
                    .as_mut()
                    .expect("checked")
                    .handle_message(from, msg);
                Self::execute_rpc_actions(sim, n, actions);
                for ServerEvent::Request { id, client, data } in events {
                    // Wake the server application thread, which echoes.
                    let c = sim.world.cost;
                    let cost = c.user_wakeup + c.copy_cost(data.len() as u32);
                    amoeba_net::Net::cpu_run(
                        sim,
                        HostId(n),
                        CpuPriority::User,
                        SimDuration::from_micros(cost),
                        move |sim| {
                            let rpc_cost = sim.world.cost.rpc_layer;
                            amoeba_net::Net::cpu_run(
                                sim,
                                HostId(n),
                                CpuPriority::Kernel,
                                SimDuration::from_micros(rpc_cost),
                                move |sim| {
                                    let Some(server) = sim.world.nodes[n].rpc_server.as_mut()
                                    else {
                                        return;
                                    };
                                    let actions = server.reply(id, client, data.clone());
                                    Self::execute_rpc_actions(sim, n, actions);
                                },
                            );
                        },
                    );
                }
                return;
            }
        }
        // Client side.
        if sim.world.nodes[n].rpc_client.is_some() {
            let actions = sim.world.nodes[n]
                .rpc_client
                .as_mut()
                .expect("checked")
                .handle_message(from, msg);
            Self::execute_rpc_actions(sim, n, actions);
        }
    }

    fn execute_rpc_actions(sim: &mut Sim, n: usize, actions: Vec<RpcAction>) {
        for action in actions {
            match action {
                RpcAction::Send { to, msg } => {
                    let from = sim.world.nodes[n].addr;
                    Self::send_packet(
                        sim,
                        n,
                        PacketDest::Process(to),
                        SimPacket::Rpc { from, msg },
                    );
                }
                RpcAction::SetTimer { after_us } => {
                    if let Some(old) = sim.world.nodes[n].rpc_timer.take() {
                        sim.cancel(old);
                    }
                    let ev = sim.schedule_in(SimDuration::from_micros(after_us), move |sim| {
                        sim.world.nodes[n].rpc_timer = None;
                        let Some(client) = sim.world.nodes[n].rpc_client.as_mut() else {
                            return;
                        };
                        let actions = client.handle_timer();
                        Self::execute_rpc_actions(sim, n, actions);
                    });
                    sim.world.nodes[n].rpc_timer = Some(ev);
                }
                RpcAction::CancelTimer => {
                    if let Some(old) = sim.world.nodes[n].rpc_timer.take() {
                        sim.cancel(old);
                    }
                }
                RpcAction::CallDone(result) => {
                    let ok = result.is_ok();
                    let cost = sim.world.cost.user_wakeup;
                    amoeba_net::Net::cpu_run(
                        sim,
                        HostId(n),
                        CpuPriority::User,
                        SimDuration::from_micros(cost),
                        move |sim| {
                            if let Some(issued) = sim.world.nodes[n].issued_at.take() {
                                if ok {
                                    let delay = (sim.now() - issued).as_micros() as f64;
                                    sim.world.metrics.rpc_delay_us.record(delay);
                                    sim.world.nodes[n].stats.rpcs_ok += 1;
                                }
                            }
                            Self::maybe_kick(sim, n);
                        },
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// SimWorld: the experimenter's facade
// ---------------------------------------------------------------------

/// How [`SimWorld::formed`] admits the members that join (DESIGN.md
/// §10.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Group after group, the founder creates and every other member
    /// joins at once: the paper's figures and [`crate::SimHost`].
    /// Correct for small groups; a join storm at hundreds of members
    /// overruns the sequencer's receive ring.
    Immediate,
    /// Every founder creates first; then the joins go out on one global
    /// timetable, interleaved across the groups because they share the
    /// Ethernet: the j-th member's slot is `1 ms + 17 µs × j` after the
    /// previous join (≈ 1 ms of sequencer CPU plus the per-member
    /// multicast and `JoinAck` wire costs). Staggering also makes
    /// member ids deterministic — member j of every group is its j-th
    /// listed node, as with the live runtime's sequential joins —
    /// where simultaneous joins race for admission order.
    Staggered,
}

/// What [`SimWorld::measure_window`] read over its window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// `SendToGroup`s completed inside the window (all nodes).
    pub sends: u64,
    /// Those sends per simulated second.
    pub rate: f64,
    /// The share of the window the Ethernet carried bits.
    pub busy: f64,
}

/// A complete experiment: hosts on one Ethernet, groups, workloads, and
/// run control.
///
/// # Example
///
/// ```
/// use amoeba_kernel::{CostModel, SimWorld, Workload};
/// use amoeba_core::{GroupConfig, GroupId};
/// use amoeba_sim::SimDuration;
///
/// let mut w = SimWorld::new(CostModel::mc68030_ether10(), 42);
/// let group = GroupId(1);
/// let a = w.add_node();
/// let b = w.add_node();
/// w.create_group(a, group, GroupConfig::paper());
/// w.join_group(b, group, GroupConfig::paper());
/// w.run_until_ready();
/// w.set_workload(b, Workload::Sender { size: 0, remaining: 100 });
/// w.kick();
/// w.run_for(SimDuration::from_secs(2));
/// assert_eq!(w.sim.world.metrics.sends_ok.get(), 100);
/// let mean = w.sim.world.metrics.send_delay_us.mean();
/// assert!(mean > 1_000.0 && mean < 5_000.0, "null broadcast ≈ 2.7 ms, got {mean}");
/// ```
pub struct SimWorld {
    /// The underlying simulation (world exposed for inspection).
    pub sim: Simulation<KernelWorld>,
    next_addr: u64,
}

impl SimWorld {
    /// Creates an empty world on a 10 Mbit/s Ethernet.
    pub fn new(cost: CostModel, seed: u64) -> Self {
        Self::with_net_config(cost, NetConfig::ether_10mbps(), seed)
    }

    /// Creates an empty world with explicit network parameters.
    pub fn with_net_config(cost: CostModel, net_config: NetConfig, seed: u64) -> Self {
        let world = KernelWorld {
            net: Net::new(net_config, seed),
            nodes: Vec::new(),
            routes: RouteTable::new(),
            cost,
            metrics: WorldMetrics::default(),
            unready_cores: 0,
            running_apps: 0,
            join_failures: 0,
            payload_cache: HashMap::new(),
        };
        SimWorld { sim: Simulation::new(world, seed), next_addr: 1 }
    }

    /// `nodes` machines on the paper's testbed
    /// ([`CostModel::mc68030_ether10`]) with `groups` formed on them:
    /// each entry is a group's id, its members (the founder, which
    /// sequences, first) and its configuration. Joins are issued as
    /// `admission` says; returns once every member is admitted.
    pub fn formed(
        seed: u64,
        nodes: usize,
        admission: Admission,
        groups: &[(GroupId, Vec<usize>, GroupConfig)],
    ) -> Self {
        let mut w = SimWorld::new(CostModel::mc68030_ether10(), seed);
        for _ in 0..nodes {
            w.add_node();
        }
        match admission {
            Admission::Immediate => {
                for (id, members, config) in groups {
                    w.create_group(members[0], *id, config.clone());
                    for &m in &members[1..] {
                        w.join_group(m, *id, config.clone());
                    }
                }
            }
            Admission::Staggered => {
                for (id, members, config) in groups {
                    w.create_group(members[0], *id, config.clone());
                }
                let widest = groups.iter().map(|(_, members, _)| members.len()).max();
                let mut at = 0u64;
                for j in 1..widest.unwrap_or(0) {
                    for (id, members, config) in groups {
                        if let Some(&m) = members.get(j) {
                            at += 1_000 + 17 * j as u64;
                            w.join_group_at(m, *id, config.clone(), at);
                        }
                    }
                }
            }
        }
        w.run_until_ready();
        w
    }

    /// Adds a machine and returns its node index.
    pub fn add_node(&mut self) -> usize {
        let host = self.sim.world.net.add_host();
        let addr = FlipAddress::process(self.next_addr);
        self.next_addr += 1;
        self.sim.world.routes.register_process(addr, host);
        self.sim.world.nodes.push(SimNode::new(host, addr));
        debug_assert_eq!(self.sim.world.nodes.len() - 1, host.0);
        host.0
    }

    /// Founds `group` on node `n` (it becomes the sequencer).
    pub fn create_group(&mut self, n: usize, group: GroupId, config: GroupConfig) {
        self.register_membership(n, group);
        let addr = self.sim.world.nodes[n].addr;
        let (core, actions) = GroupCore::create(group, addr, config).expect("valid config");
        self.sim.world.nodes[n].core = Some(core);
        self.sim.world.nodes[n].group = Some(group);
        // Counted before executing the actions: a creator's
        // JoinDone(Ok) fires synchronously and settles this.
        Kernel::admission_begin(&mut self.sim, n);
        Kernel::execute_group_actions(&mut self.sim, n, actions);
    }

    /// Starts `JoinGroup` for node `n` (runs asynchronously; see
    /// [`SimWorld::run_until_ready`]).
    pub fn join_group(&mut self, n: usize, group: GroupId, config: GroupConfig) {
        Kernel::admit_join(&mut self.sim, n, group, config);
    }

    /// Like [`SimWorld::join_group`], but the join request is issued at
    /// simulated instant `at_us` instead of time zero. Large worlds
    /// need this: a thousand simultaneous join requests overflow the
    /// sequencer's 32-slot receive ring faster than retries drain it,
    /// so admission never converges. Staggering the joins (a few
    /// hundred microseconds apart) keeps the ring shallow.
    pub fn join_group_at(&mut self, n: usize, group: GroupId, config: GroupConfig, at_us: u64) {
        // Counted as unready from scheduling time, so a
        // `run_until_ready` issued before `at_us` waits for this
        // admission too (`admission_begin` in `admit_join` is then a
        // no-op — the flag is already set).
        Kernel::admission_begin(&mut self.sim, n);
        self.sim.schedule_at(SimTime::from_micros(at_us), move |sim| {
            Kernel::admit_join(sim, n, group, config);
        });
    }

    fn register_membership(&mut self, n: usize, group: GroupId) {
        Kernel::register_membership(&mut self.sim, n, group);
    }

    /// Configures a node's application behaviour (set before
    /// [`SimWorld::kick`]). `Workload::Sender` desugars to installing
    /// an [`amoeba_app::SenderApp`] — the hard-coded sender loop of
    /// earlier revisions is gone; only the RPC baseline arms remain
    /// enum-driven.
    pub fn set_workload(&mut self, n: usize, workload: Workload) {
        match workload {
            Workload::Sender { size, remaining } => {
                self.set_app(n, Box::new(SenderApp::new(size, remaining)));
                return;
            }
            Workload::RpcPinger { .. } => {
                let addr = self.sim.world.nodes[n].addr;
                self.sim.world.nodes[n].rpc_client = Some(RpcClient::new(addr));
                self.mark_ready(n);
            }
            Workload::RpcEcho => {
                let addr = self.sim.world.nodes[n].addr;
                self.sim.world.nodes[n].rpc_server = Some(RpcServer::new(addr));
                self.mark_ready(n);
            }
            Workload::Idle => {}
        }
        self.sim.world.nodes[n].workload = workload;
    }

    /// Flips `ready` while keeping the admission counter exact.
    fn mark_ready(&mut self, n: usize) {
        Kernel::admission_settle(&mut self.sim, n);
        self.sim.world.nodes[n].ready = true;
    }

    /// Installs an event-driven application on node `n`. The app
    /// starts (`on_start`) at the next [`SimWorld::kick`], or at
    /// admission if the world was already kicked.
    pub fn set_app(&mut self, n: usize, app: Box<dyn GroupApp>) {
        let w = &mut self.sim.world;
        if w.nodes[n].app.is_none() || w.nodes[n].app_done {
            w.running_apps += 1;
        }
        let node = &mut w.nodes[n];
        node.app = Some(app);
        node.app_started = false;
        node.app_done = false;
        node.pending_sends.clear();
    }

    /// Removes and returns node `n`'s application (typically after
    /// [`SimWorld::run_until_apps_done`], to inspect final state).
    pub fn take_app(&mut self, n: usize) -> Option<Box<dyn GroupApp>> {
        let w = &mut self.sim.world;
        if w.nodes[n].app.is_some() && !w.nodes[n].app_done {
            w.running_apps -= 1;
        }
        w.nodes[n].app.take()
    }

    /// Whether node `n`'s app is still running (installed, not yet
    /// stopped/left/crashed).
    pub fn app_running(&self, n: usize) -> bool {
        let node = &self.sim.world.nodes[n];
        node.app.is_some() && !node.app_done
    }

    /// Crashes node `n` mid-run: its protocol entities vanish without a
    /// leave, its traffic blackholes, and its app (if any) ends. The
    /// survivors' failure detection and `ResetGroup` are the recovery
    /// story — this is the simulated counterpart of the live runtime's
    /// `GroupHandle::crash`.
    pub fn crash(&mut self, n: usize) {
        Apps::crash_node(&mut self.sim, n);
    }

    /// Schedules a crash of node `n` at absolute simulated instant
    /// `at_us` (chaos schedules script failures this way — including
    /// the sequencer's).
    pub fn crash_at(&mut self, n: usize, at_us: u64) {
        self.sim.schedule_at(SimTime::from_micros(at_us), move |sim| {
            Apps::crash_node(sim, n);
        });
    }

    /// Restarts a crashed node at absolute simulated instant `at_us`:
    /// its address becomes routable again and a fresh `JoinGroup` runs
    /// against whatever incarnation of `group` is alive then. The node
    /// rejoins as a *new* member (ids are never reused); any app it
    /// hosted before the crash stays ended — the restarted node
    /// participates in the protocol as a passive receiver.
    pub fn restart_at(&mut self, n: usize, group: GroupId, config: GroupConfig, at_us: u64) {
        self.sim.schedule_at(SimTime::from_micros(at_us), move |sim| {
            if sim.world.nodes[n].core.is_some() {
                return; // never crashed (or already restarted)
            }
            let host = HostId(n);
            let addr = sim.world.nodes[n].addr;
            sim.world.routes.register_process(addr, host);
            let gaddr = group.flip_address();
            sim.world.routes.register_group_member(gaddr, host);
            sim.world.routes.set_group_mcast(gaddr, group.0 as u32);
            sim.world.net.join_multicast(host, McastAddr(group.0 as u32));
            let (core, actions) = GroupCore::join(group, addr, config).expect("valid config");
            sim.world.nodes[n].core = Some(core);
            sim.world.nodes[n].group = Some(group);
            sim.world.nodes[n].ready = false;
            Kernel::admission_begin(sim, n);
            Kernel::execute_group_actions(sim, n, actions);
        });
    }

    /// Installs a deterministic fault schedule on the simulated
    /// delivery path (DESIGN.md §9): per-link drop/duplicate/reorder
    /// plus scheduled partitions with heals, all driven by `seed`, with
    /// instants in simulated µs and hosts numbered by node. Without
    /// this call the network is the paper's perfect Ethernet.
    pub fn set_chaos(&mut self, plan: amoeba_net::FaultPlan, seed: u64) {
        self.sim.world.net.set_chaos(plan, seed);
    }

    /// What the chaos layer did so far (zeroes when chaos is off).
    pub fn chaos_stats(&self) -> amoeba_net::ChaosStats {
        self.sim.world.net.chaos_stats()
    }

    /// Runs the simulation until every node with a group core has
    /// completed admission (panics after simulated 60 s — joins are
    /// sub-millisecond on a quiet network).
    pub fn run_until_ready(&mut self) {
        // Bounded stepping (not `run_while`): periodic protocol timers
        // keep the queue non-empty forever, so a formation that cannot
        // converge must be cut off by simulated time, not queue
        // exhaustion.
        let deadline = self.sim.now() + SimDuration::from_secs(60);
        while self.sim.world.unready_cores > 0 {
            assert_eq!(
                self.sim.world.join_failures, 0,
                "group formation failed: JoinGroup gave up on {} node(s)",
                self.sim.world.join_failures
            );
            assert!(
                self.sim.now() <= deadline && self.sim.step(),
                "group formation did not converge within 60 simulated seconds"
            );
        }
        assert_eq!(
            self.sim.world.join_failures, 0,
            "group formation failed: JoinGroup gave up on {} node(s)",
            self.sim.world.join_failures
        );
    }

    /// Starts all configured workloads and installed apps.
    pub fn kick(&mut self) {
        for n in 0..self.sim.world.nodes.len() {
            Apps::maybe_start(&mut self.sim, n);
            Kernel::maybe_kick(&mut self.sim, n);
        }
    }

    /// Runs for `d` simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let until = self.sim.now() + d;
        self.sim.run_until(until);
    }

    /// Runs until every installed app has ended (stopped, left or
    /// crashed), or `limit` of simulated time has passed (a limit the
    /// clock cannot represent is none). Returns whether all apps
    /// finished.
    pub fn run_until_apps_done(&mut self, limit: SimDuration) -> bool {
        let deadline = self.sim.now().checked_add(limit);
        loop {
            if self.sim.world.running_apps == 0 {
                return true;
            }
            if deadline.is_some_and(|d| self.sim.now() > d) || !self.sim.step() {
                return false;
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The fraction of wall time the Ethernet carried bits, since start.
    pub fn utilization(&self) -> f64 {
        self.sim.world.net.utilization(self.sim.now())
    }

    /// Starts every installed workload ([`SimWorld::kick`]), runs
    /// `warmup`, then measures one `window` of steady state.
    pub fn measure_window(&mut self, warmup: SimDuration, window: SimDuration) -> Window {
        let counters =
            |w: &Self| (w.sim.world.metrics.sends_ok.get(), w.sim.world.net.medium.stats.busy_us);
        self.kick();
        self.run_for(warmup);
        let (sends_before, busy_before) = counters(self);
        self.run_for(window);
        let (sends_after, busy_after) = counters(self);
        let sends = sends_after - sends_before;
        let window_us = window.as_micros();
        Window {
            sends,
            rate: sends as f64 / (window_us as f64 / 1_000_000.0),
            busy: (busy_after - busy_before) as f64 / window_us as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_core::{Body, Hdr, MemberId, ViewId, WireMsg};

    /// One multicast on a three-node segment is one `SimPacket`
    /// allocation, shared by every fragment of the send and by every
    /// receive ring the medium copies a frame into.
    #[test]
    fn one_multicast_reaches_every_receiver_as_the_same_packet() {
        let mut w = SimWorld::new(CostModel::mc68030_ether10(), 1);
        let group = GroupId(1);
        for n in 0..3 {
            w.add_node();
            Kernel::register_membership(&mut w.sim, n, group);
        }
        // A receiver whose drain loop looks busy leaves its frames in
        // the ring, where they can be inspected.
        for n in 1..3 {
            w.sim.world.nodes[n].draining = true;
        }
        let msg = WireMsg {
            hdr: Hdr {
                group,
                view: ViewId::INITIAL,
                sender: MemberId(0),
                last_delivered: Seqno::ZERO,
                gc_floor: Seqno::ZERO,
            },
            body: Body::BcastOrig { sender_seq: 1, payload: Bytes::from(vec![0u8; 3_000]) },
        };
        let packet = SimPacket::Group { from: w.sim.world.nodes[0].addr, msg };
        Kernel::send_packet(&mut w.sim, 0, PacketDest::Group(group), packet);
        w.sim.run();
        let mut frames = Vec::new();
        for n in 1..3 {
            while let Some(frame) = w.sim.world.net.host_mut(HostId(n)).nic.pop_rx() {
                frames.push(frame);
            }
        }
        let count = usize::from(frames[0].payload.count);
        assert!(count > 1, "a 3 000-byte packet fragments");
        assert_eq!(frames.len(), 2 * count, "every fragment reaches both receivers");
        let packet = &frames[0].payload.packet;
        assert!(
            frames.iter().all(|f| Rc::ptr_eq(&f.payload.packet, packet)),
            "a ring copied the packet"
        );
        assert_eq!(Rc::strong_count(packet), frames.len(), "only the rings hold it now");
    }
}
