//! A deterministic in-memory driver for `GroupCore` integration tests.
#![allow(dead_code)] // each test binary uses a different subset
//!
//! This is the *protocol-level* test rig: it executes [`Action`]s,
//! routes packets with configurable loss/duplication, and fires timers
//! on a virtual clock. (Hardware-faithful timing lives in
//! `amoeba-kernel`; correctness only needs causality and adversity.)

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use amoeba_core::{
    Action, Dest, GroupConfig, GroupCore, GroupError, GroupEvent, GroupId, GroupInfo, Seqno,
    TimerKind, WireMsg,
};
use amoeba_flip::FlipAddress;
use bytes::Bytes;

/// Completion notices surfaced by blocking primitives.
#[derive(Debug, Clone, PartialEq)]
pub enum Done {
    Send(Result<Seqno, GroupError>),
    Join(Result<GroupInfo, GroupError>),
    Leave(Result<(), GroupError>),
    Reset(Result<GroupInfo, GroupError>),
}

enum Pending {
    Packet { to: usize, from: FlipAddress, msg: WireMsg },
    Timer { node: usize, kind: TimerKind, deadline: u64 },
}

struct Node {
    core: Option<GroupCore>,
    addr: FlipAddress,
    /// Armed timers: kind → authoritative deadline (stale events skip).
    timers: HashMap<TimerKind, u64>,
    /// Subscribed to the group's multicast address.
    in_group_mcast: bool,
    /// A crashed node drops everything.
    crashed: bool,
    /// A node whose link is cut neither sends nor receives packets; its
    /// timers keep firing.
    cut: bool,
}

/// The test network.
pub struct TestNet {
    nodes: Vec<Node>,
    group: GroupId,
    now: u64,
    seq: u64,
    queue: BinaryHeap<Reverse<(u64, u64, usize)>>,
    pending: HashMap<usize, Pending>,
    rng: u64,
    /// Per-link drop probability (0.0 = reliable).
    pub loss: f64,
    /// Per-link duplication probability.
    pub dup: f64,
    /// One-way packet latency in virtual µs.
    pub latency_us: u64,
    /// Ordered application events per node.
    pub delivered: Vec<Vec<GroupEvent>>,
    /// Completions per node.
    pub done: Vec<Vec<Done>>,
}

impl TestNet {
    pub fn new(group: u64, num_nodes: usize, seed: u64) -> Self {
        TestNet {
            nodes: (0..num_nodes)
                .map(|i| Node {
                    core: None,
                    addr: FlipAddress::process(1000 + i as u64),
                    timers: HashMap::new(),
                    in_group_mcast: false,
                    crashed: false,
                    cut: false,
                })
                .collect(),
            group: GroupId(group),
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            pending: HashMap::new(),
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            loss: 0.0,
            dup: 0.0,
            latency_us: 100,
            delivered: vec![Vec::new(); num_nodes],
            done: vec![Vec::new(); num_nodes],
        }
    }

    fn rand_f64(&mut self) -> f64 {
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn addr_of(&self, node: usize) -> FlipAddress {
        self.nodes[node].addr
    }

    pub fn node_by_addr(&self, addr: FlipAddress) -> Option<usize> {
        self.nodes.iter().position(|n| n.addr == addr)
    }

    pub fn core(&self, node: usize) -> &GroupCore {
        self.nodes[node].core.as_ref().expect("node has a core")
    }

    pub fn core_mut(&mut self, node: usize) -> &mut GroupCore {
        self.nodes[node].core.as_mut().expect("node has a core")
    }

    pub fn now(&self) -> u64 {
        self.now
    }

    // ------------------------------------------------------------------
    // primitives
    // ------------------------------------------------------------------

    pub fn create_group(&mut self, node: usize, config: GroupConfig) {
        let (core, actions) =
            GroupCore::create(self.group, self.nodes[node].addr, config).expect("valid config");
        self.nodes[node].core = Some(core);
        self.nodes[node].in_group_mcast = true;
        self.process(node, actions);
    }

    pub fn join_group(&mut self, node: usize, config: GroupConfig) {
        let (core, actions) =
            GroupCore::join(self.group, self.nodes[node].addr, config).expect("valid config");
        self.nodes[node].core = Some(core);
        self.nodes[node].in_group_mcast = true;
        self.process(node, actions);
    }

    pub fn send(&mut self, node: usize, payload: &[u8]) {
        let actions = self.core_mut(node).send_to_group(Bytes::copy_from_slice(payload));
        self.process(node, actions);
    }

    pub fn leave(&mut self, node: usize) {
        let actions = self.core_mut(node).leave();
        self.process(node, actions);
    }

    pub fn reset(&mut self, node: usize, min_members: usize) {
        let actions = self.core_mut(node).reset(min_members);
        self.process(node, actions);
    }

    /// Crashes a node: it stops sending, receiving and firing timers.
    pub fn crash(&mut self, node: usize) {
        self.nodes[node].crashed = true;
    }

    /// Cuts (`true`) or heals (`false`) a node's link: while cut,
    /// nothing it sends leaves and nothing sent to it arrives.
    pub fn set_cut(&mut self, node: usize, cut: bool) {
        self.nodes[node].cut = cut;
    }

    // ------------------------------------------------------------------
    // engine
    // ------------------------------------------------------------------

    fn schedule(&mut self, at: u64, p: Pending) {
        let id = self.seq as usize;
        self.seq += 1;
        self.queue.push(Reverse((at, id as u64, id)));
        self.pending.insert(id, p);
    }

    fn process(&mut self, node: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { dest, msg } => self.route(node, dest, msg),
                Action::SetTimer { kind, after_us } => {
                    let deadline = self.now + after_us;
                    self.nodes[node].timers.insert(kind, deadline);
                    self.schedule(deadline, Pending::Timer { node, kind, deadline });
                }
                Action::CancelTimer { kind } => {
                    self.nodes[node].timers.remove(&kind);
                }
                Action::Deliver(ev) => self.delivered[node].push(ev),
                Action::SendDone(r) => self.done[node].push(Done::Send(r)),
                Action::JoinDone(r) => self.done[node].push(Done::Join(r)),
                Action::LeaveDone(r) => self.done[node].push(Done::Leave(r)),
                Action::ResetDone(r) => self.done[node].push(Done::Reset(r)),
            }
        }
    }

    fn route(&mut self, from: usize, dest: Dest, msg: WireMsg) {
        let src_addr = self.nodes[from].addr;
        if self.nodes[from].cut {
            return;
        }
        let targets: Vec<usize> = match dest {
            Dest::Unicast(addr) => {
                self.nodes.iter().position(|n| n.addr == addr).into_iter().collect()
            }
            Dest::Group => (0..self.nodes.len())
                .filter(|&i| i != from && self.nodes[i].in_group_mcast)
                .collect(),
        };
        for to in targets {
            if self.nodes[to].cut {
                continue;
            }
            let mut copies = 1;
            if self.loss > 0.0 && self.rand_f64() < self.loss {
                copies = 0;
            } else if self.dup > 0.0 && self.rand_f64() < self.dup {
                copies = 2;
            }
            for c in 0..copies {
                let at = self.now + self.latency_us + c;
                self.schedule(at, Pending::Packet { to, from: src_addr, msg: msg.clone() });
            }
        }
    }

    /// Runs until the queue drains or virtual time passes `until_us`.
    pub fn run_until(&mut self, until_us: u64) {
        while let Some(&Reverse((at, _, id))) = self.queue.peek() {
            if at > until_us {
                break;
            }
            self.queue.pop();
            self.now = at;
            let Some(pending) = self.pending.remove(&id) else { continue };
            match pending {
                Pending::Packet { to, from, msg } => {
                    if self.nodes[to].crashed || self.nodes[to].core.is_none() {
                        continue;
                    }
                    let actions =
                        self.nodes[to].core.as_mut().expect("checked").handle_message(from, msg);
                    self.process(to, actions);
                }
                Pending::Timer { node, kind, deadline } => {
                    if self.nodes[node].crashed || self.nodes[node].core.is_none() {
                        continue;
                    }
                    if self.nodes[node].timers.get(&kind) != Some(&deadline) {
                        continue; // re-armed or cancelled
                    }
                    self.nodes[node].timers.remove(&kind);
                    let actions =
                        self.nodes[node].core.as_mut().expect("checked").handle_timer(kind);
                    self.process(node, actions);
                }
            }
        }
        if self.now < until_us {
            self.now = until_us;
        }
    }

    /// Runs for `us` more virtual microseconds.
    pub fn run_for(&mut self, us: u64) {
        let until = self.now + us;
        self.run_until(until);
    }

    // ------------------------------------------------------------------
    // assertions
    // ------------------------------------------------------------------

    /// The (seqno, debug string) log of ordered events at a node.
    pub fn ordered_log(&self, node: usize) -> Vec<(u64, String)> {
        self.delivered[node]
            .iter()
            .filter_map(|e| e.seqno().map(|s| (s.0, format!("{e:?}"))))
            .collect()
    }

    /// Asserts that (a) every node's ordered log is gapless and
    /// ascending from its first seqno, and (b) for every seqno present
    /// in two nodes' logs, the events are identical — the total-order
    /// property, allowing for different join points. Returns the number
    /// of distinct seqnos observed.
    pub fn assert_prefix_consistent(&self, nodes: &[usize]) -> usize {
        use std::collections::BTreeMap;
        let mut by_seqno: BTreeMap<u64, (usize, String)> = BTreeMap::new();
        for &n in nodes {
            let log = self.ordered_log(n);
            for w in log.windows(2) {
                assert_eq!(
                    w[1].0,
                    w[0].0 + 1,
                    "node {n} has a gap in its ordered log: {} then {}",
                    w[0].0,
                    w[1].0
                );
            }
            for (seqno, event) in log {
                match by_seqno.get(&seqno) {
                    None => {
                        by_seqno.insert(seqno, (n, event));
                    }
                    Some((first, seen)) => {
                        assert_eq!(
                            seen, &event,
                            "nodes {first} and {n} disagree about seqno {seqno}"
                        );
                    }
                }
            }
        }
        by_seqno.len()
    }

    /// Payload strings of delivered application messages at a node.
    pub fn messages_at(&self, node: usize) -> Vec<String> {
        self.delivered[node]
            .iter()
            .filter_map(|e| match e {
                GroupEvent::Message { payload, .. } => {
                    Some(String::from_utf8_lossy(payload).into_owned())
                }
                _ => None,
            })
            .collect()
    }

    /// Most recent send completion at a node, if any.
    pub fn last_send_result(&self, node: usize) -> Option<&Result<Seqno, GroupError>> {
        self.done[node].iter().rev().find_map(|d| match d {
            Done::Send(r) => Some(r),
            _ => None,
        })
    }

    /// Count of successful send completions at a node.
    pub fn sends_completed(&self, node: usize) -> usize {
        self.done[node]
            .iter()
            .filter(|d| matches!(d, Done::Send(Ok(_))))
            .count()
    }

    /// Whether the node observed a successful join.
    pub fn joined_ok(&self, node: usize) -> bool {
        self.done[node].iter().any(|d| matches!(d, Done::Join(Ok(_))))
    }
}

/// Builds a group of `n` members: node 0 creates, 1..n join one by one.
pub fn build_group(n: usize, config: GroupConfig, seed: u64) -> TestNet {
    let mut net = TestNet::new(1, n, seed);
    net.create_group(0, config.clone());
    for i in 1..n {
        net.join_group(i, config.clone());
        net.run_for(50_000);
        assert!(net.joined_ok(i), "node {i} failed to join");
    }
    net
}

/// A config with fast timers for the virtual clock.
pub fn fast_config() -> GroupConfig {
    GroupConfig {
        send_retransmit_us: 5_000,
        nack_retry_us: 3_000,
        sync_interval_us: 50_000,
        sync_round_us: 10_000,
        tentative_resend_us: 5_000,
        join_retry_us: 10_000,
        invite_round_us: 10_000,
        recovery_watchdog_us: 100_000,
        ..GroupConfig::default()
    }
}
