//! The isolated rungs of the ladder: each layer measured on its own,
//! from outside, by timing calls into its public functions.
//!
//! * `core` — the sans-io [`GroupCore`] under a benchmark-owned
//!   single-threaded driver on a *virtual* clock: every packet is
//!   encoded, "travels" 10 µs, is decoded and handled. CPU time per
//!   message is measured; everything counted on the virtual clock
//!   (time per message, packets, flow-control drops, retries, sync
//!   rounds) repeats exactly, because nothing in it depends on the
//!   machine.
//! * codec, transport hops, group formation, and what this machine
//!   charges to wake a thread — the calibration rung that tells a
//!   changed box from changed code.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

use amoeba::core::{
    decode_wire_frame, Action, Body, Dest, FrameEncoder, GroupConfig, GroupCore, GroupEvent,
    GroupId, Hdr, MemberId, Seqno, TimerKind, ViewId, WireFrame, WireMsg,
};
use amoeba::flip::FlipAddress;
use bytes::Bytes;

use crate::gen::Payloads;
use crate::stats;
use crate::workloads::group::{form_group, installation};

/// One-way packet delay on the virtual clock, µs.
const WIRE_US: u64 = 10;
/// Virtual time a caller takes to answer a completion with its next
/// send (a woken client thread), µs. Without it a member whose sends
/// complete locally — the sequencer — would issue them in zero time.
const CLIENT_US: u64 = 10;

/// The three `core` scenarios, mirroring the live workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Member 1 alone, 64-byte payloads, window 1 (`rtt_*`).
    Blocking,
    /// Member 1 alone, 1 KiB payloads, window 32 (`stream_*`).
    Stream,
    /// Members 1 and 2, 4096-byte payloads, window 1 (`allsend_live`).
    Allsend,
}

impl Scenario {
    pub const ALL: [Scenario; 3] = [Scenario::Blocking, Scenario::Stream, Scenario::Allsend];

    pub fn name(self) -> &'static str {
        match self {
            Scenario::Blocking => "blocking",
            Scenario::Stream => "stream",
            Scenario::Allsend => "allsend",
        }
    }

    fn payload_len(self) -> usize {
        match self {
            Scenario::Blocking => 64,
            Scenario::Stream => 1024,
            Scenario::Allsend => 4096,
        }
    }

    fn window(self) -> usize {
        match self {
            Scenario::Stream => 32,
            _ => 1,
        }
    }

    fn senders(self) -> &'static [usize] {
        match self {
            Scenario::Allsend => &[1, 2],
            _ => &[1],
        }
    }
}

/// What one `core` scenario run measured. Everything but `cpu_ns` and
/// `stamp_ns` is exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreRun {
    pub sends: u64,
    pub cpu_ns: u64,
    /// Mean time inside the sequencer's `handle_message` for a send
    /// request, ns (only when asked for: timing every call costs more
    /// than the call).
    pub stamp_ns: Option<f64>,
    pub virtual_us: u64,
    pub packets: u64,
    pub flow_control_drops: u64,
    pub send_retries: u64,
    pub sync_rounds: u64,
    /// Every member delivered every message, in the same order.
    pub delivered_everywhere: bool,
    pub failed_sends: u64,
}

impl CoreRun {
    /// The machine-independent part, for the repeat-exactly gate.
    pub fn exact(&self) -> [u64; 8] {
        [
            self.sends,
            self.virtual_us,
            self.packets,
            self.flow_control_drops,
            self.send_retries,
            self.sync_rounds,
            u64::from(self.delivered_everywhere),
            self.failed_sends,
        ]
    }
}

struct Node {
    core: GroupCore,
    addr: FlipAddress,
    encoder: FrameEncoder,
    /// Armed timers and their deadlines, in arming order (a handful
    /// at most; a map's iteration order would make ties machine-
    /// dependent).
    timers: Vec<(TimerKind, u64)>,
    joined: bool,
    delivered: u64,
    order_digest: u64,
    to_submit: u64,
    completed: u64,
    failed: u64,
    next_index: u64,
}

struct Packet {
    at_us: u64,
    to: usize,
    from: FlipAddress,
    frame: WireFrame,
}

/// The null-transport driver: three cores, one FIFO of in-flight
/// packets and one of callers about to send (both delays are constant,
/// so arrival order is send order), and each core's timer table.
struct Driver {
    now_us: u64,
    nodes: Vec<Node>,
    wire: VecDeque<Packet>,
    /// (when, node) of callers answering a completion.
    callers: VecDeque<(u64, usize)>,
    payloads: Payloads,
    time_stamping: bool,
    stamp_ns: u64,
    stamp_calls: u64,
}

impl Driver {
    fn new(config: &GroupConfig, payloads: Payloads, members: usize) -> Driver {
        let mut d = Driver {
            now_us: 0,
            nodes: Vec::new(),
            wire: VecDeque::new(),
            callers: VecDeque::new(),
            payloads,
            time_stamping: false,
            stamp_ns: 0,
            stamp_calls: 0,
        };
        for i in 0..members {
            let addr = FlipAddress::process(i as u64 + 1);
            let (core, actions) = if i == 0 {
                GroupCore::create(GroupId(1), addr, config.clone())
            } else {
                GroupCore::join(GroupId(1), addr, config.clone())
            }
            .expect("the benchmark's group configuration is valid");
            d.nodes.push(Node {
                core,
                addr,
                encoder: FrameEncoder::new(),
                timers: Vec::new(),
                joined: false,
                delivered: 0,
                order_digest: 0,
                to_submit: 0,
                completed: 0,
                failed: 0,
                next_index: 0,
            });
            d.execute(i, actions);
            // Joins are sequential, as on the live runtime.
            d.run_until(|d| d.nodes[i].joined);
        }
        d
    }

    fn execute(&mut self, n: usize, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { dest, msg } => {
                    let frame = self.nodes[n].encoder.encode_frame(&msg);
                    let from = self.nodes[n].addr;
                    let at_us = self.now_us + WIRE_US;
                    for to in 0..self.nodes.len() {
                        let wanted = match dest {
                            Dest::Unicast(addr) => self.nodes[to].addr == addr,
                            Dest::Group => to != n,
                        };
                        if wanted {
                            self.wire.push_back(Packet {
                                at_us,
                                to,
                                from,
                                frame: frame.clone(),
                            });
                        }
                    }
                }
                Action::SetTimer { kind, after_us } => {
                    let timers = &mut self.nodes[n].timers;
                    timers.retain(|&(k, _)| k != kind);
                    timers.push((kind, self.now_us + after_us));
                }
                Action::CancelTimer { kind } => {
                    self.nodes[n].timers.retain(|&(k, _)| k != kind);
                }
                Action::Deliver(GroupEvent::Message {
                    seqno,
                    origin,
                    payload,
                }) => {
                    let node = &mut self.nodes[n];
                    node.delivered += 1;
                    node.order_digest = crate::workloads::digest_message(
                        node.order_digest,
                        seqno.0,
                        origin.0,
                        &payload,
                    );
                }
                Action::Deliver(_) => {}
                Action::SendDone(result) => {
                    match result {
                        Ok(_) => self.nodes[n].completed += 1,
                        Err(_) => self.nodes[n].failed += 1,
                    }
                    self.callers.push_back((self.now_us + CLIENT_US, n));
                }
                Action::JoinDone(result) => self.nodes[n].joined = result.is_ok(),
                Action::LeaveDone(_) | Action::ResetDone(_) => {}
            }
        }
    }

    /// Submits node `n`'s next send, if it has any left.
    fn submit(&mut self, n: usize) {
        if self.nodes[n].to_submit == 0 {
            return;
        }
        self.nodes[n].to_submit -= 1;
        let index = self.nodes[n].next_index;
        self.nodes[n].next_index += 1;
        let payload = self.payloads.stamped(index, self.now_us);
        let actions = self.nodes[n].core.send_to_group(payload);
        self.execute(n, actions);
    }

    /// Handles the next event: the earliest of the wire's head, the
    /// next caller and the nodes' timers (on a tie packets first, then
    /// callers, then the lowest node's earliest-armed timer).
    fn step(&mut self) -> bool {
        let timer = self
            .nodes
            .iter()
            .enumerate()
            .flat_map(|(n, node)| node.timers.iter().map(move |&(kind, at)| (at, n, kind)))
            .min_by_key(|&(at, _, _)| at);
        let timer_at = timer.map_or(u64::MAX, |(at, _, _)| at);
        let caller_at = self.callers.front().map_or(u64::MAX, |&(at, _)| at);
        let packet_at = self.wire.front().map_or(u64::MAX, |p| p.at_us);
        if packet_at == u64::MAX && caller_at == u64::MAX && timer.is_none() {
            return false;
        }
        if caller_at < packet_at && caller_at <= timer_at {
            let (at, n) = self.callers.pop_front().expect("front was just seen");
            self.now_us = at;
            self.submit(n);
            true
        } else if packet_at <= timer_at {
            let p = self.wire.pop_front().expect("front was just seen");
            self.now_us = p.at_us;
            let msg = decode_wire_frame(p.frame).expect("the driver's own frames decode");
            let timed = self.time_stamping
                && p.to == 0
                && matches!(msg.body, Body::BcastReq { .. } | Body::BcastOrig { .. });
            let actions = if timed {
                let t = Instant::now();
                let actions = self.nodes[p.to].core.handle_message(p.from, msg);
                self.stamp_ns += t.elapsed().as_nanos() as u64;
                self.stamp_calls += 1;
                actions
            } else {
                self.nodes[p.to].core.handle_message(p.from, msg)
            };
            self.execute(p.to, actions);
            true
        } else if let Some((at, n, kind)) = timer {
            self.now_us = at;
            self.nodes[n].timers.retain(|&(k, _)| k != kind);
            let actions = self.nodes[n].core.handle_timer(kind);
            self.execute(n, actions);
            true
        } else {
            false
        }
    }

    /// Steps until `done`; a protocol that stops making progress must
    /// fail the gate, not hang the benchmark.
    fn run_until(&mut self, done: impl Fn(&Driver) -> bool) -> bool {
        let deadline_us = self.now_us + 3_600_000_000;
        while !done(self) {
            if self.now_us > deadline_us || !self.step() {
                return false;
            }
        }
        true
    }
}

/// Runs one `core` scenario of `sends` sends in total.
pub fn core_scenario(scenario: Scenario, seed: u64, sends: u64, time_stamping: bool) -> CoreRun {
    let config = GroupConfig {
        send_window: scenario.window(),
        ..GroupConfig::default()
    };
    let payloads = Payloads::new(seed, scenario.payload_len());
    let mut d = Driver::new(&config, payloads, 3);
    d.time_stamping = time_stamping;
    let before: Vec<_> = d.nodes.iter().map(|n| n.core.stats).collect();
    let senders = scenario.senders();
    for (k, &n) in senders.iter().enumerate() {
        let share =
            sends / senders.len() as u64 + u64::from((k as u64) < sends % senders.len() as u64);
        d.nodes[n].to_submit = share;
    }

    let start_us = d.now_us;
    let started = Instant::now();
    for &n in senders {
        for _ in 0..scenario.window() {
            d.submit(n);
        }
    }
    let finished = d.run_until(|d| {
        let done: u64 = d.nodes.iter().map(|n| n.completed + n.failed).sum();
        done == sends && d.nodes.iter().all(|n| n.delivered >= sends)
    });
    let cpu_ns = started.elapsed().as_nanos() as u64;

    let grew = |f: fn(&amoeba::core::CoreStats) -> u64| -> u64 {
        d.nodes
            .iter()
            .zip(&before)
            .map(|(n, b)| f(&n.core.stats) - f(b))
            .sum()
    };
    let failed_sends: u64 = d.nodes.iter().map(|n| n.failed).sum();
    CoreRun {
        sends,
        cpu_ns,
        stamp_ns: (d.stamp_calls > 0).then(|| d.stamp_ns as f64 / d.stamp_calls as f64),
        virtual_us: d.now_us - start_us,
        packets: grew(|s| s.msgs_out),
        flow_control_drops: grew(|s| s.flow_control_drops),
        send_retries: grew(|s| s.send_retries),
        sync_rounds: grew(|s| s.sync_rounds),
        delivered_everywhere: finished
            && failed_sends == 0
            && d.nodes
                .iter()
                .all(|n| n.delivered == sends && n.order_digest == d.nodes[0].order_digest),
        failed_sends,
    }
}

/// Mean ns of one encode + decode of a send request carrying `len`
/// payload bytes (the 4 KiB case rides as a zero-copy tail segment).
pub fn codec_roundtrip_ns(seed: u64, len: usize) -> f64 {
    const ROUNDS: u32 = 200_000;
    let msg = WireMsg {
        hdr: Hdr {
            group: GroupId(1),
            view: ViewId::INITIAL,
            sender: MemberId(1),
            last_delivered: Seqno(1_000),
            gc_floor: Seqno(900),
        },
        body: Body::BcastReq {
            sender_seq: 7,
            payload: Payloads::new(seed, len).stamped(0, 0),
        },
    };
    let mut encoder = FrameEncoder::new();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        let frame = encoder.encode_frame(black_box(&msg));
        black_box(decode_wire_frame(frame).expect("round trip"));
    }
    started.elapsed().as_nanos() as f64 / f64::from(ROUNDS)
}

/// What this machine charges per thread wake-up, µs: two threads
/// ping-ponging on `std::sync::mpsc`, two wake-ups per round trip.
pub fn thread_wake_us() -> f64 {
    const ROUNDS: u32 = 20_000;
    let (ping_tx, ping_rx) = mpsc::channel::<u32>();
    let (pong_tx, pong_rx) = mpsc::channel::<u32>();
    let echo = std::thread::spawn(move || {
        while let Ok(v) = ping_rx.recv() {
            if pong_tx.send(v).is_err() {
                break;
            }
        }
    });
    let mut samples = Vec::with_capacity(ROUNDS as usize);
    for i in 0..ROUNDS {
        let t = Instant::now();
        ping_tx.send(i).expect("echo thread is alive");
        black_box(pong_rx.recv().expect("echo thread is alive"));
        samples.push(t.elapsed().as_nanos() as f64 / 2e3);
    }
    drop(ping_tx);
    echo.join().expect("echo thread panicked");
    stats::median(&samples)
}

/// One transport's unicast path.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    /// Send → receive on the same thread, median µs.
    pub hop_us: f64,
    /// Time inside `TransportSender::unicast`, median ns.
    pub send_call_ns: f64,
}

/// Measures a 64-byte unicast through the `Transport` trait: the
/// in-memory fabric, or real loopback sockets with their send thread
/// and receive pump.
pub fn transport_hop(udp: bool, seed: u64) -> Hop {
    const ROUNDS: usize = 20_000;
    let amoeba = installation(udp, seed);
    let net = amoeba.transport();
    let (a, b) = (FlipAddress::process(9_001), FlipAddress::process(9_002));
    let _rx_a = net.register(a);
    let rx_b = net.register(b);
    let mut sender = net.sender(a);
    let body: Bytes = Payloads::new(seed, 64).stamped(0, 0);
    let mut hops = Vec::with_capacity(ROUNDS);
    let mut calls = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let frame = WireFrame::from(body.clone());
        let t = Instant::now();
        sender.unicast(b, frame);
        let sent = t.elapsed();
        // Loopback UDP can drop under memory pressure; a lost probe
        // is skipped, not waited for forever.
        if rx_b
            .recv_timeout(std::time::Duration::from_millis(200))
            .is_ok()
        {
            hops.push(t.elapsed().as_nanos() as f64 / 1e3);
            calls.push(sent.as_nanos() as f64);
        }
    }
    drop(sender);
    net.unregister(a);
    net.unregister(b);
    Hop {
        hop_us: stats::median(&hops),
        send_call_ns: stats::median(&calls),
    }
}

/// Median ms to form a three-member group (create + two joins) on the
/// in-memory fabric.
pub fn form_ms(seed: u64) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|i| {
            let amoeba = installation(false, seed + i);
            let t = Instant::now();
            let handles = form_group(&amoeba, &GroupConfig::default(), 3);
            let ms = t.elapsed().as_nanos() as f64 / 1e6;
            drop(handles);
            ms
        })
        .collect();
    stats::median(&samples)
}

/// `stream_live`'s load through the application host: member 1 is the
/// library's own `SenderApp` (1 KiB, window 32) hosted by
/// `amoeba::app::run(Backend::Live, …)`, the other two members only
/// listen. Returns messages per second as the listeners saw them,
/// after the first eighth of the stream.
pub fn hosted_stream_ops_per_s(seed: u64, messages: u64) -> f64 {
    use amoeba::app::{AppEvent, Backend, Ctx, GroupApp, RunSpec, SenderApp};
    use std::sync::{Arc, Mutex};

    struct Listener {
        expect: u64,
        seen: u64,
        warm_ns: u64,
        rate: Arc<Mutex<Vec<f64>>>,
    }

    impl GroupApp for Listener {
        fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
            let AppEvent::Group(GroupEvent::Message { .. }) = event else {
                return;
            };
            self.seen += 1;
            let warm = self.expect / 8;
            if self.seen == warm {
                self.warm_ns = crate::proc::now_ns();
            }
            if self.seen == self.expect {
                let elapsed_s = (crate::proc::now_ns() - self.warm_ns) as f64 / 1e9;
                if let Ok(mut rate) = self.rate.lock() {
                    rate.push((self.expect - warm) as f64 / elapsed_s);
                }
                ctx.stop();
            }
        }
    }

    let rate = Arc::new(Mutex::new(Vec::new()));
    let listener = || {
        Box::new(Listener {
            expect: messages,
            seen: 0,
            warm_ns: 0,
            rate: Arc::clone(&rate),
        })
    };
    let apps: Vec<Box<dyn GroupApp>> = vec![
        listener(),
        Box::new(SenderApp::new(1024, messages)),
        listener(),
    ];
    let config = GroupConfig {
        send_window: 32,
        ..GroupConfig::default()
    };
    drop(amoeba::app::run(
        Backend::Live,
        RunSpec::new(seed).with_config(config),
        apps,
    ));
    let rates = rate.lock().expect("rate lock");
    stats::median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_scenarios_repeat_exactly_and_deliver_everything() {
        for scenario in Scenario::ALL {
            let a = core_scenario(scenario, 3, 2_000, false);
            let b = core_scenario(scenario, 3, 2_000, true);
            assert!(a.delivered_everywhere, "{scenario:?}: {a:?}");
            assert_eq!(
                a.exact(),
                b.exact(),
                "{scenario:?} must not depend on the machine"
            );
            assert!(b.stamp_ns.is_some_and(|ns| ns > 0.0));
            assert!(
                a.packets >= a.sends,
                "{scenario:?}: a send is at least one packet"
            );
        }
    }

    #[test]
    fn the_silent_member_stall_shows_as_a_count() {
        // A stream longer than the history buffer with two silent
        // members: the sequencer refuses requests until a sync round
        // collects their floors. With both of them sending, floors
        // piggyback and nothing is refused.
        let blocking = core_scenario(Scenario::Blocking, 1, 2_000, false);
        let allsend = core_scenario(Scenario::Allsend, 1, 2_000, false);
        assert!(blocking.flow_control_drops > 0, "{blocking:?}");
        assert!(
            blocking.virtual_us > 10 * allsend.virtual_us,
            "{blocking:?} vs {allsend:?}"
        );
    }
}
