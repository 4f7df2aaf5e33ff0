//! Cross-backend conformance: the same `GroupApp` scenario, driven
//! through the simulated kernel (`SimHost`), the live runtime
//! (`LiveHost`), and the live runtime over real UDP sockets
//! (`Backend::Udp`, DESIGN.md §12), must produce *identical per-member
//! delivery orders* — the portability contract of DESIGN.md §8. Three
//! scripts hold the line: steady scripted traffic, pipelined bursts
//! with batching on and off, and a sequencer crash + `ResetGroup`
//! recovery.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use amoeba::prelude::*;

/// Per-member delivery log: (origin, payload) of every `Message`, in
/// delivery order. This — not timing, not completion interleaving —
/// is what the total order makes deterministic, so it is what the two
/// backends must agree on.
type Log = Arc<Mutex<Vec<(u32, String)>>>;

fn new_logs(n: usize) -> Vec<Log> {
    (0..n).map(|_| Arc::new(Mutex::new(Vec::new()))).collect()
}

fn snapshot(logs: &[Log]) -> Vec<Vec<(u32, String)>> {
    logs.iter().map(|l| l.lock().unwrap().clone()).collect()
}

/// Runs one scenario on one backend and returns the per-member logs.
fn run_scenario<F>(backend: Backend, spec: RunSpec, members: usize, make: F) -> Vec<Vec<(u32, String)>>
where
    F: Fn(Log) -> Box<dyn GroupApp>,
{
    let logs = new_logs(members);
    let apps: Vec<Box<dyn GroupApp>> = logs.iter().map(|l| make(Arc::clone(l))).collect();
    amoeba::app::run(backend, spec, apps);
    snapshot(&logs)
}

// ---------------------------------------------------------------------
// Script 1: steady traffic (token passing)
// ---------------------------------------------------------------------

/// Message k is sent by member k % N once message k−1 is delivered;
/// member 0 opens. The total order is therefore fully scripted, which
/// is exactly what lets the suite demand byte-identical logs across
/// backends.
struct TokenApp {
    members: u32,
    total: u32,
    log: Log,
}

impl TokenApp {
    fn maybe_send(&self, ctx: &mut dyn Ctx, next: u32) {
        if next < self.total && ctx.info().me.0 == next % self.members {
            ctx.send(Bytes::from(format!("m{next}")));
        }
    }
}

impl GroupApp for TokenApp {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        self.maybe_send(ctx, 0);
    }

    fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
        let AppEvent::Group(GroupEvent::Message { payload, origin, .. }) = event else {
            return;
        };
        let text = String::from_utf8_lossy(&payload).into_owned();
        let k: u32 = text[1..].parse().expect("token payload");
        self.log.lock().unwrap().push((origin.0, text));
        self.maybe_send(ctx, k + 1);
        if k + 1 == self.total {
            ctx.stop();
        }
    }
}

#[test]
fn steady_traffic_delivery_orders_agree_across_backends() {
    const MEMBERS: usize = 3;
    const TOTAL: u32 = 12;
    let make = |log| {
        Box::new(TokenApp { members: MEMBERS as u32, total: TOTAL, log }) as Box<dyn GroupApp>
    };
    let sim = run_scenario(Backend::Sim, RunSpec::new(5), MEMBERS, make);
    let live = run_scenario(Backend::Live, RunSpec::new(5), MEMBERS, make);
    let udp = run_scenario(Backend::Udp, RunSpec::new(5), MEMBERS, make);

    // The script pins the order outright…
    let expected: Vec<(u32, String)> =
        (0..TOTAL).map(|k| (k % MEMBERS as u32, format!("m{k}"))).collect();
    for (m, log) in sim.iter().enumerate() {
        assert_eq!(log, &expected, "sim member {m} diverged from the script");
    }
    // …and both live fabrics must land on exactly the same one.
    assert_eq!(sim, live, "per-member delivery orders differ between sim and live");
    assert_eq!(sim, udp, "per-member delivery orders differ between sim and UDP");
}

// ---------------------------------------------------------------------
// Script 2: pipelined bursts, batching on and off
// ---------------------------------------------------------------------

/// Member i broadcasts a pipelined burst of B messages once member
/// i−1's full burst has been delivered (member 0 opens). Within a
/// burst the protocol guarantees per-sender FIFO, across bursts the
/// script serializes — so the delivery order is pinned even with
/// batching and a pipelining window engaged.
struct BurstApp {
    burst: u32,
    members: u32,
    seen_from_prev: u32,
    log: Log,
}

impl BurstApp {
    fn burst_payloads(me: u32, burst: u32) -> Vec<Bytes> {
        (0..burst).map(|j| Bytes::from(format!("b{me}-{j}"))).collect()
    }
}

impl GroupApp for BurstApp {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        if ctx.info().me.0 == 0 {
            ctx.send_pipelined(Self::burst_payloads(0, self.burst));
        }
    }

    fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
        let AppEvent::Group(GroupEvent::Message { payload, origin, .. }) = event else {
            return;
        };
        let text = String::from_utf8_lossy(&payload).into_owned();
        self.log.lock().unwrap().push((origin.0, text));
        let me = ctx.info().me.0;
        if origin.0 + 1 == self.members && self.log.lock().unwrap().len()
            == (self.members * self.burst) as usize
        {
            ctx.stop();
            return;
        }
        if origin.0 + 1 == me {
            self.seen_from_prev += 1;
            if self.seen_from_prev == self.burst {
                ctx.send_pipelined(Self::burst_payloads(me, self.burst));
            }
        }
    }
}

fn burst_logs(backend: Backend, config: GroupConfig) -> Vec<Vec<(u32, String)>> {
    const MEMBERS: usize = 3;
    const BURST: u32 = 8;
    run_scenario(backend, RunSpec::new(9).with_config(config), MEMBERS, |log| {
        Box::new(BurstApp { burst: BURST, members: MEMBERS as u32, seen_from_prev: 0, log })
    })
}

#[test]
fn pipelined_bursts_agree_across_backends_with_batching_off_and_on() {
    let off_sim = burst_logs(Backend::Sim, GroupConfig::default());
    let off_live = burst_logs(Backend::Live, GroupConfig::default());
    let off_udp = burst_logs(Backend::Udp, GroupConfig::default());
    assert_eq!(off_sim, off_live, "batching-off burst orders differ between backends");
    assert_eq!(off_sim, off_udp, "batching-off burst orders differ on UDP");

    let on_sim = burst_logs(Backend::Sim, GroupConfig::with_batching(4));
    let on_live = burst_logs(Backend::Live, GroupConfig::with_batching(4));
    let on_udp = burst_logs(Backend::Udp, GroupConfig::with_batching(4));
    assert_eq!(on_sim, on_live, "batching-on burst orders differ between backends");
    assert_eq!(on_sim, on_udp, "batching-on burst orders differ on UDP");

    // Batching amortizes interrupts; it must not reorder anything.
    assert_eq!(off_sim, on_sim, "batching changed the delivery order");
}

// ---------------------------------------------------------------------
// Method matrix: the same scripts under BB and Dynamic selection
// ---------------------------------------------------------------------

/// The conformance contract must hold for every broadcast method, not
/// just the PB the default config picks for small payloads: BB routes
/// the payload and its ordering separately (data multicast + short
/// accept), and Dynamic switches per message — both backends must land
/// on identical per-member logs all the same.
#[test]
fn bb_steady_traffic_agrees_across_backends() {
    const MEMBERS: usize = 3;
    const TOTAL: u32 = 10;
    let config = GroupConfig { method: Method::Bb, ..GroupConfig::default() };
    let make = |log| {
        Box::new(TokenApp { members: MEMBERS as u32, total: TOTAL, log }) as Box<dyn GroupApp>
    };
    let spec = || RunSpec::new(21).with_config(config.clone());
    let sim = run_scenario(Backend::Sim, spec(), MEMBERS, make);
    let live = run_scenario(Backend::Live, spec(), MEMBERS, make);
    let udp = run_scenario(Backend::Udp, spec(), MEMBERS, make);
    let expected: Vec<(u32, String)> =
        (0..TOTAL).map(|k| (k % MEMBERS as u32, format!("m{k}"))).collect();
    for (m, log) in sim.iter().enumerate() {
        assert_eq!(log, &expected, "BB sim member {m} diverged from the script");
    }
    assert_eq!(sim, live, "BB per-member delivery orders differ between backends");
    assert_eq!(sim, udp, "BB per-member delivery orders differ on UDP");
}

#[test]
fn bb_and_dynamic_pipelined_bursts_agree_across_backends() {
    // Pure BB: every burst payload is a data multicast plus an accept.
    let bb = GroupConfig { method: Method::Bb, ..GroupConfig::default() };
    let bb_sim = burst_logs(Backend::Sim, bb.clone());
    let bb_live = burst_logs(Backend::Live, bb);
    assert_eq!(bb_sim, bb_live, "BB burst orders differ between backends");

    // Dynamic with a threshold inside the payload-size range: payloads
    // "b{member}-{j}" are 4–5 bytes, so a 4-byte threshold mixes PB
    // (short tags) and BB (longer ones) within one pipelined window.
    let dynamic = GroupConfig {
        method: Method::Dynamic { bb_threshold: 4 },
        ..GroupConfig::default()
    };
    let dyn_sim = burst_logs(Backend::Sim, dynamic.clone());
    let dyn_live = burst_logs(Backend::Live, dynamic);
    assert_eq!(dyn_sim, dyn_live, "Dynamic burst orders differ between backends");

    // The method moves bytes differently; it must not reorder anything.
    assert_eq!(bb_sim, dyn_sim, "method selection changed the delivery order");

    // And with batching engaged on top of BB (accepts coalesce into
    // BcastBatch frames), the logs still match.
    let bb_batched = GroupConfig {
        method: Method::Bb,
        ..GroupConfig::with_batching(4)
    };
    let batched_sim = burst_logs(Backend::Sim, bb_batched.clone());
    let batched_live = burst_logs(Backend::Live, bb_batched);
    assert_eq!(batched_sim, batched_live, "batched-BB burst orders differ between backends");
    assert_eq!(bb_sim, batched_sim, "batching changed the BB delivery order");
}

// ---------------------------------------------------------------------
// Terminal requests void the rest of the callback's batch — identically
// ---------------------------------------------------------------------

/// Member 0 stops and *then* tries to send in the same callback; the
/// send must be void on both backends (a send ordered on one host but
/// dropped on the other would break the delivery-order contract).
struct StopThenSend {
    log: Log,
}

impl GroupApp for StopThenSend {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        if ctx.info().me.0 == 0 {
            ctx.stop();
            ctx.send(Bytes::from_static(b"ghost")); // void: after a terminal request
        } else {
            ctx.set_timer(TimerId(1), Duration::from_millis(300));
        }
    }

    fn on_event(&mut self, _ctx: &mut dyn Ctx, event: AppEvent) {
        if let AppEvent::Group(GroupEvent::Message { payload, origin, .. }) = event {
            self.log
                .lock()
                .unwrap()
                .push((origin.0, String::from_utf8_lossy(&payload).into_owned()));
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx, _timer: TimerId) {
        ctx.stop();
    }
}

#[test]
fn requests_after_stop_are_void_on_both_backends() {
    let make = |log| Box::new(StopThenSend { log }) as Box<dyn GroupApp>;
    let sim = run_scenario(Backend::Sim, RunSpec::new(17), 2, make);
    let live = run_scenario(Backend::Live, RunSpec::new(17), 2, make);
    let udp = run_scenario(Backend::Udp, RunSpec::new(17), 2, make);
    assert_eq!(sim, vec![Vec::new(), Vec::new()], "a post-stop send was ordered on sim");
    assert_eq!(sim, live, "post-stop semantics differ between backends");
    assert_eq!(sim, udp, "post-stop semantics differ on UDP");
}

// ---------------------------------------------------------------------
// Script 3: sequencer crash + ResetGroup
// ---------------------------------------------------------------------

/// Token rounds, then the sequencer (member 0) crashes at a scripted
/// point; member 1 detects the failure by probing, rebuilds the group
/// with `ResetGroup(2)`, and service resumes. Every surviving member
/// must log the same messages in the same order on both backends —
/// including across the recovery boundary.
///
/// Member 0 crashes on a short fuse lit when *it* delivers m2, not in
/// that callback: a sequencer delivers at stamp time, before the
/// stamped message's multicast has left, so an immediate crash can
/// take m2 down with it (with r = 0 the protocol allows exactly that,
/// and the survivors would then rightly never see m2).
///
/// One live-only subtlety the script must absorb: member 0's protocol
/// driver keeps sequencing until the crash lands, so a probe racing
/// that window can still be ordered. Member 1 therefore probes on a
/// timer comfortably past the crash point and re-arms while probes
/// keep succeeding; probes are excluded from the conformance log,
/// which stays deterministic (on the simulated host both fuses burn
/// simulated time, so the first probe always finds the sequencer
/// dead).
struct CrashScript {
    probing: bool,
    log: Log,
}

const PROBE_FUSE: TimerId = TimerId(1);
const CRASH_FUSE: TimerId = TimerId(2);

impl GroupApp for CrashScript {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        if ctx.info().me.0 == 0 {
            ctx.send(Bytes::from_static(b"m0"));
        }
    }

    fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
        match event {
            AppEvent::Group(GroupEvent::Message { payload, origin, .. }) => {
                let text = String::from_utf8_lossy(&payload).into_owned();
                if text.starts_with("probe") {
                    return; // a probe that won the race; not part of the log
                }
                self.log.lock().unwrap().push((origin.0, text.clone()));
                let me = ctx.info().me.0;
                match (me, text.as_str()) {
                    (1, "m0") => ctx.send(Bytes::from_static(b"m1")),
                    (2, "m1") => ctx.send(Bytes::from_static(b"m2")),
                    // The sequencer vanishes once the third round is
                    // ordered and on the wire.
                    (0, "m2") => ctx.set_timer(CRASH_FUSE, Duration::from_millis(50)),
                    (1, "m2") => {
                        self.probing = true;
                        ctx.set_timer(PROBE_FUSE, Duration::from_millis(200));
                    }
                    (_, "post") => ctx.stop(),
                    _ => {}
                }
            }
            AppEvent::SendDone(Ok(_)) if self.probing => {
                // A probe was still ordered (the crash had not landed
                // yet, live only): try again shortly.
                ctx.set_timer(PROBE_FUSE, Duration::from_millis(200));
            }
            AppEvent::SendDone(Err(_)) => {
                // The probe could not be ordered: the sequencer is
                // dead. Rebuild with a 2-member quorum.
                assert_eq!(ctx.info().me.0, 1);
                self.probing = false;
                ctx.reset_group(2);
            }
            AppEvent::ResetDone(result) => {
                let info = result.expect("2 survivors answer the reset");
                assert_eq!(info.num_members(), 2);
                ctx.send(Bytes::from_static(b"post"));
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx, timer: TimerId) {
        if timer == CRASH_FUSE {
            ctx.crash();
            return;
        }
        assert_eq!(timer, PROBE_FUSE);
        ctx.send(Bytes::from_static(b"probe"));
    }
}

#[test]
fn crash_and_reset_script_agrees_across_backends() {
    // Snappy failure detection keeps the live half fast; the simulated
    // half uses the same microsecond budgets in simulated time.
    let config = GroupConfig {
        send_retransmit_us: 30_000,
        send_max_retries: 4,
        ..GroupConfig::default()
    };
    let make = |log| Box::new(CrashScript { probing: false, log }) as Box<dyn GroupApp>;
    let spec = || RunSpec::new(13).with_config(config.clone());
    let sim = run_scenario(Backend::Sim, spec(), 3, make);
    let live = run_scenario(Backend::Live, spec(), 3, make);
    let udp = run_scenario(Backend::Udp, spec(), 3, make);

    let pre: Vec<(u32, String)> =
        (0..3).map(|k| (k, format!("m{k}"))).collect();
    // The crashed sequencer saw exactly the pre-crash prefix…
    assert_eq!(sim[0], pre, "sim: crashed member log");
    // …and the survivors agree on the whole history, recovery included.
    let mut full = pre;
    full.push((1, "post".into()));
    assert_eq!(sim[1], full, "sim: survivor 1 log");
    assert_eq!(sim[2], full, "sim: survivor 2 log");
    assert_eq!(sim, live, "crash + reset delivery orders differ between backends");
    assert_eq!(sim, udp, "crash + reset delivery orders differ on UDP");
}

// ---------------------------------------------------------------------
// Script 4: the sharded serving layer (DESIGN.md §11)
// ---------------------------------------------------------------------

use std::collections::BTreeMap;

use amoeba::shard::{
    run_reshard, run_until, Cluster, Completion, LiveCluster, ReshardGoal, ShardSpec, SimCluster,
};

/// A fully scripted sharded workload: sequential routed writes, an
/// online split, sequential reads. Sequencing every operation (submit,
/// pump to completion, submit the next) pins each gateway's submission
/// order, so both backends must produce identical per-member delivery
/// logs `(origin, gateway seq)` in every group — meta included — and
/// identical per-key final states on every replica.
fn drive_sharded<C: Cluster + ?Sized>(c: &mut C) {
    let await_op = |c: &mut C, id: u64| -> Completion {
        let mut out = None;
        let done = run_until(c, 60_000, |r| {
            if out.is_none() {
                out = r.take(id);
            }
            out.is_some()
        });
        assert!(done, "sharded op {id} never completed");
        out.unwrap()
    };
    for i in 0..8 {
        let id = c.router().put(&format!("user:{i}"), &format!("v{i}"));
        await_op(c, id);
    }
    let (start, end) = {
        let map = c.router().map();
        let i = map.ranges.iter().position(|r| r.group == 1).expect("group 1 owns a range");
        map.bounds(i)
    };
    let mid = start + end.wrapping_sub(start) / 2;
    assert!(run_reshard(c, ReshardGoal::Split { at: mid, to: 3 }, 120_000), "split stalled");
    for i in 0..8 {
        let id = c.router().get(&format!("user:{i}"));
        let Completion::Get { value, .. } = await_op(c, id) else { panic!("expected a Get") };
        assert_eq!(value.as_deref(), Some(&*format!("v{i}")), "sharded read-back");
    }
}

/// Per-group per-member delivery logs plus per-member final stores.
type ShardOutcome = (Vec<Vec<Vec<(u32, u64)>>>, Vec<Vec<BTreeMap<String, String>>>);

fn sharded_logs_and_stores(groups: &[amoeba::shard::ShardGroup]) -> ShardOutcome {
    let logs = groups
        .iter()
        .map(|g| g.logs.iter().map(|l| l.lock().unwrap().clone()).collect())
        .collect();
    let stores = groups
        .iter()
        .map(|g| g.stores.iter().map(|s| s.lock().unwrap().clone()).collect())
        .collect();
    (logs, stores)
}

#[test]
fn sharded_kv_agrees_across_backends() {
    let spec = || ShardSpec::new(23, 2, 3).with_spares(1);

    let sim = {
        let mut c = SimCluster::new(spec());
        drive_sharded(&mut c);
        assert!(c.halt(), "sim shard apps did not stop");
        let mut groups = c.groups;
        groups.push(c.meta);
        sharded_logs_and_stores(&groups)
    };
    let live = {
        let mut c = LiveCluster::new(spec(), FaultPlan::reliable());
        drive_sharded(&mut c);
        assert!(c.halt(), "live shard apps did not stop");
        let mut groups = c.groups;
        groups.push(c.meta);
        sharded_logs_and_stores(&groups)
    };

    // Within each backend, every replica of a group agrees…
    for (g, member_logs) in sim.0.iter().enumerate() {
        for log in member_logs.iter().skip(1) {
            assert_eq!(log, &member_logs[0], "sim group {g}: replica logs diverged");
        }
    }
    // The meta group carries no stores, so its entry is an empty vec.
    for (g, member_stores) in sim.1.iter().enumerate() {
        for store in member_stores.iter().skip(1) {
            assert_eq!(store, &member_stores[0], "sim group {g}: replica stores diverged");
        }
    }
    // …and across backends the histories and final states are equal.
    assert_eq!(sim.0, live.0, "per-shard delivery logs differ between backends");
    assert_eq!(sim.1, live.1, "per-key final states differ between backends");
}
