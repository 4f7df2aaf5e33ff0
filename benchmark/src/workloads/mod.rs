//! The workloads. Each is a closed loop (the paper's API blocks
//! its caller) that sets the system up, warms it with a fixed number
//! of operations, measures a fixed-duration window, and then checks
//! that what the program delivered is correct.

use std::time::Duration;

use crate::gen::{self, FIN};
use crate::proc::Usage;
use crate::stats;

pub mod allsend;
pub mod group;
pub mod routed;
pub mod sim;

/// Every workload the benchmark knows, gated or probe-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RttLive,
    RttUdp,
    StreamLive,
    StreamUdp,
    AllsendLive,
    RoutedLive,
    Sim1000,
}

impl Workload {
    /// The workloads `BENCHMARK.json` lists, in the order `run`
    /// executes them.
    pub const ALL: [Workload; 5] = [
        Workload::RttLive,
        Workload::RttUdp,
        Workload::AllsendLive,
        Workload::RoutedLive,
        Workload::Sim1000,
    ];

    /// Runnable by name and probed by every traced run, but not gated:
    /// a pipelined stream works in ~1 ms bursts between 50 ms stalls,
    /// and its latency and CPU per operation did not repeat within any
    /// admissible bound on a shared host (README "Steadiness").
    pub const PROBE_ONLY: [Workload; 2] = [Workload::StreamLive, Workload::StreamUdp];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RttLive => "rtt_live",
            Workload::RttUdp => "rtt_udp",
            Workload::StreamLive => "stream_live",
            Workload::StreamUdp => "stream_udp",
            Workload::AllsendLive => "allsend_live",
            Workload::RoutedLive => "routed_live",
            Workload::Sim1000 => "sim_1000",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL
            .into_iter()
            .chain(Workload::PROBE_ONLY)
            .find(|w| w.name() == name)
    }

    /// Blocking-latency workloads pin the process to one CPU (see
    /// [`crate::proc::pin`]).
    pub fn pinned(self) -> bool {
        !matches!(self, Workload::Sim1000)
    }

    /// Runs the workload: `setups` times set-up plus warm-up (the
    /// system is torn down again after all but the last), then a
    /// timed window of `window` on the last one.
    pub fn run(self, seed: u64, window: Duration, setups: usize) -> Outcome {
        let setups = setups.max(1);
        match self {
            Workload::RttLive => group::run(group::Spec::RTT_LIVE, seed, window, setups),
            Workload::RttUdp => group::run(group::Spec::RTT_UDP, seed, window, setups),
            Workload::StreamLive => group::run(group::Spec::STREAM_LIVE, seed, window, setups),
            Workload::StreamUdp => group::run(group::Spec::STREAM_UDP, seed, window, setups),
            Workload::AllsendLive => allsend::run(seed, window, setups),
            Workload::RoutedLive => routed::run(seed, window, setups),
            // Its set-up is five times longer than the others'.
            Workload::Sim1000 => sim::run(seed, window, setups.min(3)),
        }
    }
}

/// A layer-specific number a workload observed from outside (router
/// counters, simulator event counts …).
#[derive(Debug, Clone, PartialEq)]
pub struct Extra {
    pub name: &'static str,
    pub value: f64,
}

/// What one run of one workload measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations issued over the whole run, warm-up included.
    pub attempted: u64,
    /// Operations that failed or were refused, plus messages some
    /// member never received.
    pub failed: u64,
    /// Why the outputs are wrong; empty when every gate passed.
    pub violations: Vec<String>,
    /// One sample per set-up: start of set-up to end of warm-up, s.
    pub setup_s: Vec<f64>,
    /// Length of the timed window, s.
    pub window_s: f64,
    /// Operations completed OK inside the window.
    pub ops: u64,
    /// Throughput, median latency and CPU per operation, block by
    /// block (see [`Steady`]).
    pub steady: Steady,
    /// Caller-side latency of every op completed in the window, µs,
    /// ascending (the tails are read from it).
    pub op_us: Vec<f64>,
    /// Send stamp → `ReceiveFromGroup` returns at each other member,
    /// pooled, µs, ascending (group workloads only).
    pub deliver_us: Vec<f64>,
    pub usage: Usage,
    pub pinned: bool,
    pub extras: Vec<Extra>,
}

impl Outcome {
    pub fn setup_median_s(&self) -> f64 {
        stats::median(&self.setup_s)
    }

    pub fn extra(&self, name: &str) -> Option<f64> {
        self.extras.iter().find(|e| e.name == name).map(|e| e.value)
    }

    pub(crate) fn push_extra(&mut self, name: &'static str, value: f64) {
        self.extras.push(Extra { name, value });
    }
}

/// Runs `session` once per set-up; only the last one gets the timed
/// window, the others tear down after their warm-up.
pub(crate) fn each_setup(
    setups: usize,
    window: Duration,
    mut session: impl FnMut(Option<Duration>),
) {
    for rep in 0..setups {
        session((rep + 1 == setups).then_some(window));
    }
}

/// `(from, to)` nanosecond pairs as ascending microsecond durations.
pub(crate) fn sorted_us(pairs: impl Iterator<Item = (u64, u64)>) -> Vec<f64> {
    let mut v: Vec<f64> = pairs
        .map(|(from, to)| to.saturating_sub(from) as f64 / 1e3)
        .collect();
    stats::sort(&mut v);
    v
}

fn mix(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

/// Folds one delivered message into a rolling digest of (seqno,
/// origin, payload length and prefix).
pub(crate) fn digest_message(digest: u64, seqno: u64, origin: u32, payload: &[u8]) -> u64 {
    let mut d = mix(
        mix(mix(digest, seqno), u64::from(origin)),
        payload.len() as u64,
    );
    for chunk in payload[..payload.len().min(32)].chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        d = mix(d, u64::from_le_bytes(word));
    }
    d
}

/// What one member's application saw delivered: the input of the
/// group workloads' correctness gates.
#[derive(Debug, Default)]
pub(crate) struct MemberView {
    pub messages: u64,
    digest: u64,
    gap: bool,
    last_seqno: Option<u64>,
    /// Stopped before the last message (disconnected or timed out).
    pub gave_up: bool,
    /// (send stamp, receive time) of messages from other members.
    pub deliveries: Vec<(u64, u64)>,
}

impl MemberView {
    pub fn with_capacity(deliveries: usize) -> Self {
        MemberView {
            deliveries: Vec::with_capacity(deliveries),
            ..MemberView::default()
        }
    }

    /// Folds in one delivered message; returns the op index its
    /// payload carries ([`FIN`] for a sender's last).
    pub fn record(&mut self, me: u32, seqno: u64, origin: u32, payload: &[u8], now_ns: u64) -> u64 {
        let (stamp, index) = gen::read_stamp(payload).unwrap_or((0, 0));
        self.messages += 1;
        self.digest = digest_message(self.digest, seqno, origin, payload);
        self.gap |= self.last_seqno.is_some_and(|prev| seqno != prev + 1);
        self.last_seqno = Some(seqno);
        if origin != me && index != FIN {
            self.deliveries.push((stamp, now_ns));
        }
        index
    }
}

/// The group gates: every member delivered every completed send, in
/// one gapless order with identical content. Messages some member
/// never received count as failed.
pub(crate) fn check_members(views: &[&MemberView], sent_ok: u64, out: &mut Outcome) {
    out.failed += views
        .iter()
        .map(|v| sent_ok.saturating_sub(v.messages))
        .max()
        .unwrap_or(0);
    for (i, v) in views.iter().enumerate() {
        if v.gave_up {
            out.violations.push(format!(
                "member {i} stopped receiving before the last message"
            ));
        }
        if v.gap {
            out.violations
                .push(format!("member {i} saw a gap in the sequence numbers"));
        }
        if v.messages != sent_ok {
            out.violations.push(format!(
                "member {i} delivered {} messages, {sent_ok} sends completed",
                v.messages
            ));
        }
        if v.digest != views[0].digest {
            out.violations.push(format!(
                "member {i} delivered different content than member 0"
            ));
        }
    }
}

/// Operations per block when a window is cut into blocks of
/// consecutive completions.
pub(crate) const BLOCK_OPS: usize = 1024;

/// Process CPU time read every [`BLOCK_OPS`] operations of one
/// client, so CPU per operation can be taken block by block.
#[derive(Debug, Default)]
pub(crate) struct CpuSampler {
    /// (wall ns, process CPU ns), in time order.
    pub samples: Vec<(u64, u64)>,
    next_at: u64,
}

impl CpuSampler {
    /// Call after every operation with the client's count so far.
    pub fn tick(&mut self, ops_done: u64) {
        if ops_done >= self.next_at {
            self.samples
                .push((crate::proc::now_ns(), crate::proc::cpu_ns()));
            self.next_at = ops_done + BLOCK_OPS as u64;
        }
    }
}

/// The steady part of a window's numbers.
///
/// This machine is shared: for seconds at a time something else slows
/// the process by up to a third, and whole-window figures land
/// wherever the mix of quiet and disturbed stretches puts them.
/// Interference only ever makes a figure *worse*, so each is taken
/// block by block (1024 consecutive completions) and reported at the
/// decile on the undisturbed side: the 90th percentile of the blocks'
/// rates, the 10th of their median latencies and of their CPU per
/// operation. A decile, not the best block: one mistimed block must
/// not set the result either. The README's "Steadiness" section has
/// the measurements behind this.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Steady {
    pub ops_per_s: f64,
    pub op_p50_us: f64,
    pub cpu_us_per_op: f64,
}

/// `ops` are the (submit, completion) times of the operations that
/// completed OK inside the window, in any order; `cpu` the samples of
/// every client. Windows too short for two blocks fall back to whole-
/// window figures (`total_cpu_ns` over all of `ops`).
pub(crate) fn steady(
    ops: &mut [(u64, u64)],
    window_ns: u64,
    cpu: &mut [(u64, u64)],
    total_cpu_ns: u64,
) -> Steady {
    ops.sort_unstable_by_key(|&(_, done)| done);
    let latency_us = |block: &[(u64, u64)]| {
        let v: Vec<f64> = block
            .iter()
            .map(|&(submit, done)| done.saturating_sub(submit) as f64 / 1e3)
            .collect();
        stats::median(&v)
    };
    let whole = Steady {
        ops_per_s: ops.len() as f64 / (window_ns.max(1) as f64 / 1e9),
        op_p50_us: latency_us(ops),
        cpu_us_per_op: total_cpu_ns as f64 / 1e3 / ops.len().max(1) as f64,
    };
    let blocks: Vec<&[(u64, u64)]> = ops.chunks_exact(BLOCK_OPS).collect();
    if blocks.len() < 3 {
        return whole;
    }
    // A block lasts from the completion that ended the previous one.
    let rates: Vec<f64> = blocks
        .windows(2)
        .map(|w| {
            BLOCK_OPS as f64 / ((w[1][BLOCK_OPS - 1].1 - w[0][BLOCK_OPS - 1].1).max(1) as f64 / 1e9)
        })
        .collect();
    let medians: Vec<f64> = blocks.iter().map(|b| latency_us(b)).collect();

    // CPU between consecutive samples, widened until an interval
    // holds a block's worth of completions.
    cpu.sort_unstable();
    let done_before = |t: u64| ops.partition_point(|&(_, done)| done < t);
    let mut per_op = Vec::new();
    let mut from = 0;
    for to in 1..cpu.len() {
        let n = done_before(cpu[to].0) - done_before(cpu[from].0);
        if n >= BLOCK_OPS {
            per_op.push((cpu[to].1 - cpu[from].1) as f64 / 1e3 / n as f64);
            from = to;
        }
    }
    Steady::from_blocks(rates, medians, per_op).unwrap_or(whole)
}

impl Steady {
    /// The steady figures of per-block ones; `None` if any list is
    /// empty.
    pub(crate) fn from_blocks(
        mut rates: Vec<f64>,
        mut latencies_us: Vec<f64>,
        mut cpu_us_per_op: Vec<f64>,
    ) -> Option<Steady> {
        if rates.is_empty() || latencies_us.is_empty() || cpu_us_per_op.is_empty() {
            return None;
        }
        for v in [&mut rates, &mut latencies_us, &mut cpu_us_per_op] {
            stats::sort(v);
        }
        Some(Steady {
            ops_per_s: stats::percentile(&rates, 90.0),
            op_p50_us: stats::percentile(&latencies_us, 10.0),
            cpu_us_per_op: stats::percentile(&cpu_us_per_op, 10.0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_figures_ignore_a_disturbed_stretch() {
        // 40 blocks at 10 us per op, 100 us latency, 2 us CPU per op;
        // blocks 10..20 run three times slower and burn three times
        // the CPU.
        let mut ops = Vec::new();
        let mut cpu = vec![(0, 0)];
        let (mut t, mut c) = (0u64, 0u64);
        for block in 0..40 {
            let slow = if (10..20).contains(&block) { 3 } else { 1 };
            for _ in 0..BLOCK_OPS {
                t += 10_000 * slow;
                ops.push((t - 100_000 * slow, t));
            }
            c += 2_000 * slow * BLOCK_OPS as u64;
            cpu.push((t + 1, c));
        }
        let s = steady(&mut ops, t, &mut cpu, c);
        assert!((s.ops_per_s - 100_000.0).abs() < 1e-6, "{s:?}");
        assert_eq!(s.op_p50_us, 100.0);
        assert!((s.cpu_us_per_op - 2.0).abs() < 1e-9, "{s:?}");

        // Too short for blocks: whole-window figures.
        let mut few = vec![(0, 1_000_000), (500_000, 2_000_000)];
        let s = steady(&mut few, 2_000_000, &mut [], 40_000);
        assert_eq!(
            s,
            Steady {
                ops_per_s: 1000.0,
                op_p50_us: 1250.0,
                cpu_us_per_op: 20.0
            }
        );
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL.into_iter().chain(Workload::PROBE_ONLY) {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
