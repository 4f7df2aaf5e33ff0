//! `rtt_*` and `stream_*`: one group of three members on the raw
//! blocking API (`Amoeba` / `GroupHandle`), one client, every member
//! with a receiver thread parked in `receive_from_group` — the
//! paper's model.
//!
//! The client is member 1, not the sequencer, so every send crosses
//! the transport twice (request to the sequencer, ordered broadcast
//! back) and the two other members stay silent: their delivery floors
//! reach the sequencer only through sync rounds, which is the load
//! that exposes flow control and history garbage collection.

use std::sync::Arc;
use std::time::Duration;

use amoeba::core::{GroupConfig, GroupEvent, GroupId, MemberId};
use amoeba::runtime::{Amoeba, FaultPlan, GroupHandle, Transport, UdpConfig, UdpNet};

use super::{check_members, each_setup, sorted_us, steady, CpuSampler, MemberView, Outcome};
use crate::gen::{Payloads, FIN};
use crate::proc::{now_ns, Snapshot, Usage};
use crate::trace::{self, Name};

/// Which of the four raw-API workloads to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Real loopback UDP sockets instead of the in-memory fabric.
    pub udp: bool,
    /// Pipelined 1 KiB stream (window 32) instead of blocking 64-byte
    /// sends.
    pub stream: bool,
}

impl Spec {
    pub const RTT_LIVE: Spec = Spec {
        udp: false,
        stream: false,
    };
    pub const RTT_UDP: Spec = Spec {
        udp: true,
        stream: false,
    };
    pub const STREAM_LIVE: Spec = Spec {
        udp: false,
        stream: true,
    };
    pub const STREAM_UDP: Spec = Spec {
        udp: true,
        stream: true,
    };

    fn payload_len(self) -> usize {
        if self.stream {
            1024
        } else {
            64
        }
    }

    /// `GroupConfig::default()` is the subject; only the pipelining
    /// window differs for the stream.
    fn config(self) -> GroupConfig {
        GroupConfig {
            send_window: if self.stream { STREAM_WINDOW } else { 1 },
            ..GroupConfig::default()
        }
    }
}

const MEMBERS: usize = 3;
const CLIENT: usize = 1;
const STREAM_WINDOW: usize = 32;
/// Sends completed before a set-up counts as done: several multiples
/// of `history_cap`, so lazy allocation and the first history-full
/// stalls are behind the timed window.
pub const WARMUP_OPS: u64 = 1024;

pub fn run(spec: Spec, seed: u64, window: Duration, setups: usize) -> Outcome {
    let mut out = Outcome::default();
    each_setup(setups, window, |window| {
        session(spec, seed, window, &mut out)
    });
    out
}

/// A receiver that hears nothing for this long gives up, so a broken
/// group fails the run instead of hanging it.
const RECEIVE_LIMIT: Duration = Duration::from_secs(30);

/// Receives until the client's `FIN` message (or disconnection, or
/// [`RECEIVE_LIMIT`] of silence).
fn receive_all(handle: &GroupHandle, me: MemberId, capacity: usize) -> MemberView {
    let mut view = MemberView::with_capacity(capacity);
    loop {
        let mut span = trace::span(Name::RuntimeReceive, 0);
        let event = handle.receive_timeout(RECEIVE_LIMIT);
        let now = now_ns();
        match event {
            Ok(GroupEvent::Message {
                seqno,
                origin,
                payload,
            }) => {
                let index = view.record(me.0, seqno.0, origin.0, &payload, now);
                span.set_op(index);
                if index == FIN {
                    return view;
                }
            }
            // Joins are ordered before the first message; nothing
            // else happens to a healthy group.
            Ok(_) => {}
            Err(_) => {
                view.gave_up = true;
                return view;
            }
        }
    }
}

/// The timed window as the client saw it.
struct Window {
    start_ns: u64,
    end_ns: u64,
    start: Snapshot,
    end: Snapshot,
    /// (submit, completion) of every send that completed OK from the
    /// window's start on.
    ops: Vec<(u64, u64)>,
    cpu: CpuSampler,
}

struct ClientResult {
    ready_ns: u64,
    sent_ok: u64,
    failed: u64,
    window: Option<Window>,
}

fn blocking_client(
    handle: &GroupHandle,
    payloads: &Payloads,
    window: Option<Duration>,
) -> ClientResult {
    let mut failed = 0;
    let mut sent_ok = 0;
    let mut index = 0u64;
    let mut send = |index: u64, ops: Option<&mut Vec<(u64, u64)>>| {
        let _op = trace::span(Name::BenchOp, index);
        let submit = now_ns();
        let payload = payloads.stamped(index, submit);
        let result = {
            let _send = trace::span(Name::RuntimeSend, index);
            handle.send_to_group(payload)
        };
        match result {
            Ok(_) => {
                sent_ok += 1;
                if let Some(ops) = ops {
                    ops.push((submit, now_ns()));
                }
            }
            Err(_) => failed += 1,
        }
    };
    while index < WARMUP_OPS {
        send(index, None);
        index += 1;
    }
    let ready_ns = now_ns();
    let window = window.map(|length| {
        let mut ops = Vec::with_capacity(1 << 20);
        let mut cpu = CpuSampler::default();
        let start = Snapshot::take();
        let start_ns = now_ns();
        let end_ns = start_ns + length.as_nanos() as u64;
        while now_ns() < end_ns {
            cpu.tick(index);
            send(index, Some(&mut ops));
            index += 1;
        }
        Window {
            start_ns,
            end_ns,
            start,
            end: Snapshot::take(),
            ops,
            cpu,
        }
    });
    send(FIN, None);
    ClientResult {
        ready_ns,
        sent_ok,
        failed,
        window,
    }
}

/// The payload source `send_pipelined` pulls from. The runtime asks
/// for payload *k* right after it has submitted payload *k − 1*, and
/// it submits *k − 1* right after the completion that freed its
/// window slot — so the times of these calls are, from outside, the
/// submit and completion times of every send:
/// `submitted(k) = called[k + 1]`, `completed(k) = called[k + depth + 1]`.
struct Feed<'a> {
    payloads: &'a Payloads,
    depth: u64,
    window: Option<Duration>,
    called: Vec<u64>,
    ready_ns: Option<u64>,
    start: Option<(u64, Snapshot)>,
    end_ns: u64,
    cpu: CpuSampler,
}

impl Iterator for Feed<'_> {
    type Item = bytes::Bytes;

    fn next(&mut self) -> Option<bytes::Bytes> {
        let index = self.called.len() as u64;
        let _span = trace::span(Name::BenchNextPayload, index);
        let mut now = now_ns();
        if self.ready_ns.is_none() && index == WARMUP_OPS + self.depth {
            // The warm-up sends have all completed.
            self.ready_ns = Some(now);
            let length = self.window?;
            let snapshot = Snapshot::take();
            now = now_ns();
            self.start = Some((now, snapshot));
            self.end_ns = now + length.as_nanos() as u64;
        }
        if self.start.is_some() {
            if now >= self.end_ns {
                return None;
            }
            self.cpu.tick(index);
        }
        self.called.push(now);
        Some(self.payloads.stamped(index, now))
    }
}

fn streaming_client(
    handle: &GroupHandle,
    payloads: &Payloads,
    window: Option<Duration>,
) -> ClientResult {
    let depth = STREAM_WINDOW as u64;
    let mut feed = Feed {
        payloads,
        depth,
        window,
        called: Vec::with_capacity(1 << 20),
        ready_ns: None,
        start: None,
        end_ns: 0,
        cpu: CpuSampler::default(),
    };
    let results = {
        let _span = trace::span(Name::RuntimeSendPipelined, 0);
        handle.send_pipelined(&mut feed)
    };
    let end = Snapshot::take();
    let drained_ns = now_ns();
    let mut failed = results.iter().filter(|r| r.is_err()).count() as u64;
    let mut sent_ok = results.len() as u64 - failed;
    let called = &feed.called;
    let window = feed.start.map(|(start_ns, start)| {
        // Completion order equals submission order on a loss-free
        // fabric, so result k belongs to send k. The last `depth`
        // sends complete while the pipeline drains, after the last
        // call into the feed; they count at the drain's end.
        let ops = (0..results.len())
            .filter(|&k| results[k].is_ok())
            .map(|k| {
                let submitted = called.get(k + 1).copied().unwrap_or(drained_ns);
                let completed = called
                    .get(k + depth as usize + 1)
                    .copied()
                    .unwrap_or(drained_ns);
                (submitted, completed)
            })
            .filter(|&(_, completed)| completed >= start_ns)
            .collect();
        Window {
            start_ns,
            end_ns: feed.end_ns,
            start,
            end,
            ops,
            cpu: std::mem::take(&mut feed.cpu),
        }
    });
    match handle.send_to_group(payloads.stamped(FIN, now_ns())) {
        Ok(_) => sent_ok += 1,
        Err(_) => failed += 1,
    }
    ClientResult {
        ready_ns: feed.ready_ns.unwrap_or(drained_ns),
        sent_ok,
        failed,
        window,
    }
}

/// Builds the installation: the in-memory fabric, or real loopback
/// sockets.
pub(crate) fn installation(udp: bool, seed: u64) -> Amoeba {
    if udp {
        let net: Arc<dyn Transport> = UdpNet::new(UdpConfig::default());
        Amoeba::over_transport(net, 1)
    } else {
        Amoeba::new(seed, FaultPlan::reliable())
    }
}

/// Forms a group of `members` on `amoeba`: one create, then joins in
/// order (so member ids equal join order).
pub(crate) fn form_group(
    amoeba: &Amoeba,
    config: &GroupConfig,
    members: usize,
) -> Vec<GroupHandle> {
    let _span = trace::span(Name::RuntimeForm, 0);
    let group = GroupId(1);
    (0..members)
        .map(|i| {
            if i == 0 {
                amoeba.create_group(group, config.clone())
            } else {
                amoeba.join_group(group, config.clone())
            }
            .expect("forming the benchmark's group on a loss-free fabric")
        })
        .collect()
}

/// One set-up, warm-up, optional timed window, and the correctness
/// gates; folds the results into `out`.
fn session(spec: Spec, seed: u64, window: Option<Duration>, out: &mut Outcome) {
    let setup_start = now_ns();
    let payloads = Payloads::new(seed, spec.payload_len());
    let amoeba = installation(spec.udp, seed);
    let handles = form_group(&amoeba, &spec.config(), MEMBERS);
    let capacity = if window.is_some() {
        1 << 20
    } else {
        WARMUP_OPS as usize + 64
    };

    let (client, received) = std::thread::scope(|s| {
        let receivers: Vec<_> = handles
            .iter()
            .enumerate()
            .map(|(i, h)| s.spawn(move || receive_all(h, MemberId(i as u32), capacity)))
            .collect();
        let client = if spec.stream {
            streaming_client(&handles[CLIENT], &payloads, window)
        } else {
            blocking_client(&handles[CLIENT], &payloads, window)
        };
        let received: Vec<MemberView> = receivers
            .into_iter()
            .map(|r| r.join().expect("receiver thread panicked"))
            .collect();
        (client, received)
    });
    drop(handles);
    drop(amoeba);

    out.setup_s
        .push((client.ready_ns - setup_start) as f64 / 1e9);
    out.attempted += client.sent_ok + client.failed;

    out.failed += client.failed;
    check_members(&received.iter().collect::<Vec<_>>(), client.sent_ok, out);

    let Some(mut w) = client.window else { return };
    let in_window = |t: u64| (w.start_ns..w.end_ns).contains(&t);
    // CPU and context switches are charged to every send between the
    // two snapshots, including the few that ran past the window's end.
    out.usage = Usage::between(&w.start, &w.end, w.ops.len() as u64);
    w.ops.retain(|&(_, done)| in_window(done));
    out.window_s = (w.end_ns - w.start_ns) as f64 / 1e9;
    out.ops = w.ops.len() as u64;
    out.steady = steady(
        &mut w.ops,
        w.end_ns - w.start_ns,
        &mut w.cpu.samples,
        w.end.cpu_ns.saturating_sub(w.start.cpu_ns),
    );
    out.op_us = sorted_us(w.ops.iter().copied());
    out.deliver_us = sorted_us(
        received
            .iter()
            .flat_map(|r| r.deliveries.iter().copied())
            .filter(|&(_, at)| in_window(at)),
    );
}
