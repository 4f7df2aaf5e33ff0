//! One simulated machine: its kernel protocol entities and the
//! application workload driving them.

use std::rc::Rc;

use amoeba_app::{GroupApp, TimerId};
use amoeba_core::{GroupCore, GroupId, TimerKind};
use amoeba_flip::{FlipAddress, Reassembler};
use amoeba_net::HostId;
use amoeba_rpc::{RpcClient, RpcServer};
use amoeba_sim::{EventId, SimTime};

use crate::payload::SimPacket;

/// The canned application behaviours predating the portable
/// [`GroupApp`] API. `Sender` is now sugar: `SimWorld::set_workload`
/// installs an [`amoeba_app::SenderApp`] for it, so the kernel's only
/// hard-coded application logic left is the RPC baseline (which is not
/// group communication and has no portable host). New scenarios should
/// implement [`GroupApp`] and use `SimWorld::set_app` (or `SimHost`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Receives only.
    Idle,
    /// Sends `remaining` messages of `size` bytes back to back (each
    /// send waits for the previous completion — the paper's delay and
    /// throughput loops). Desugars to [`amoeba_app::SenderApp`].
    Sender {
        /// Payload bytes per message.
        size: u32,
        /// Sends left to issue (`u64::MAX` ≈ continuous).
        remaining: u64,
    },
    /// Issues `remaining` null RPCs of `size` bytes to `server`.
    RpcPinger {
        /// Request bytes.
        size: u32,
        /// Calls left.
        remaining: u64,
        /// The server process.
        server: FlipAddress,
    },
    /// Answers RPCs by echoing.
    RpcEcho,
}

/// Per-node measurement counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// Completed sends.
    pub sends_ok: u64,
    /// Failed sends.
    pub sends_err: u64,
    /// Events delivered to the application.
    pub deliveries: u64,
    /// Completed RPC calls.
    pub rpcs_ok: u64,
}

/// One simulated machine.
pub struct SimNode {
    /// The underlying host (same index as the node).
    pub host: HostId,
    /// This node's FLIP process address.
    pub addr: FlipAddress,
    /// The group membership living on this node, if any.
    pub core: Option<GroupCore>,
    /// Which group the core belongs to.
    pub group: Option<GroupId>,
    /// RPC client entity, if the workload calls.
    pub rpc_client: Option<RpcClient>,
    /// RPC server entity, if the workload answers.
    pub rpc_server: Option<RpcServer>,
    /// The application behaviour (RPC baseline workloads only; group
    /// applications live in `app`).
    pub workload: Workload,
    /// The event-driven application hosted on this node, if any.
    pub(crate) app: Option<Box<dyn GroupApp>>,
    /// The app has been started (`on_start` ran).
    pub(crate) app_started: bool,
    /// The app has ended (stopped, left, or crashed): no further
    /// callbacks.
    pub(crate) app_done: bool,
    /// Simulated instant the app started (zero point of `Ctx::now`).
    pub(crate) app_start: SimTime,
    /// Application sends queued behind the pipelining window, oldest
    /// first. `Kernel::maybe_kick` issues from here whenever the
    /// window has room.
    pub(crate) pending_sends: std::collections::VecDeque<bytes::Bytes>,
    /// Fragment reassembly (per-sender streams).
    pub(crate) reasm: Reassembler<Rc<SimPacket>>,
    pub(crate) next_frag_id: u64,
    /// The receive-interrupt drain loop is running.
    pub(crate) draining: bool,
    /// Application events queued behind the receive thread.
    pub(crate) rx_backlog: u32,
    /// When the current blocking RPC call was issued.
    pub(crate) issued_at: Option<SimTime>,
    /// Group sends in flight (issued, not yet completed). Bounded by
    /// the group's `send_window`; 1 reproduces the paper's blocking
    /// sender loop.
    pub(crate) in_flight: u32,
    /// Issue timestamps of in-flight sends, oldest first (completions
    /// are FIFO in failure-free runs, which is what the delay metric
    /// measures).
    pub(crate) issued_q: std::collections::VecDeque<SimTime>,
    /// The application thread is mid-way through issuing a send (guards
    /// against re-entrant kicks).
    pub(crate) issuing: bool,
    /// Admission completed (JoinDone(Ok) observed).
    pub ready: bool,
    /// Counted in the world's `unready_cores` (an admission outcome —
    /// success, failure, or crash — is still pending). Guards every
    /// increment/decrement so no path can double-count.
    pub(crate) admission_pending: bool,
    /// Armed group-protocol timers. Per-node (not a world-global map
    /// keyed by node) so a crash cancels O(own timers), not O(world).
    pub(crate) proto_timers: std::collections::HashMap<TimerKind, EventId>,
    /// The armed RPC-client retransmit timer, if any.
    pub(crate) rpc_timer: Option<EventId>,
    /// Armed application timers (`Ctx::set_timer`).
    pub(crate) app_timers: std::collections::HashMap<TimerId, EventId>,
    /// Measurement counters.
    pub stats: NodeStats,
}

impl SimNode {
    pub(crate) fn new(host: HostId, addr: FlipAddress) -> Self {
        SimNode {
            host,
            addr,
            core: None,
            group: None,
            rpc_client: None,
            rpc_server: None,
            workload: Workload::Idle,
            app: None,
            app_started: false,
            app_done: false,
            app_start: SimTime::ZERO,
            pending_sends: std::collections::VecDeque::new(),
            reasm: Reassembler::new(),
            next_frag_id: 0,
            draining: false,
            rx_backlog: 0,
            issued_at: None,
            in_flight: 0,
            issued_q: std::collections::VecDeque::new(),
            issuing: false,
            ready: false,
            admission_pending: false,
            proto_timers: std::collections::HashMap::new(),
            rpc_timer: None,
            app_timers: std::collections::HashMap::new(),
            stats: NodeStats::default(),
        }
    }
}

impl std::fmt::Debug for SimNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNode")
            .field("host", &self.host)
            .field("addr", &self.addr)
            .field("group", &self.group)
            .field("workload", &self.workload)
            .field("ready", &self.ready)
            .field("stats", &self.stats)
            .finish()
    }
}
