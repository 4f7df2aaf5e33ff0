//! Executes a [`ScenarioPlan`] on the simulated kernel stack and
//! distills the run into a stable [`Outcome`].
//!
//! Determinism contract: for a given plan (file + seed) the returned
//! outcome — including its `digest` — is bit-identical across runs,
//! machines and process invocations. Everything the runner does is a
//! pure function of the plan: world construction order, the formation
//! schedule, app installation order, fault instants, and the digest's
//! field order. The golden suite (`tests/scenario_golden.rs`) and the
//! chaos determinism suite pin this.
//!
//! Fault instants in a scenario are **relative to workload start**
//! (after formation), not absolute simulated time: large staggered
//! worlds spend seconds of simulated time forming, and a fault pinned
//! to an absolute early instant would land mid-formation on one
//! topology and post-formation on another.

use std::sync::{Arc, Mutex};

use amoeba_app::{AppEvent, Ctx, GroupApp, TimerId};
use amoeba_core::audit::{AuditDelivery, DeliveryAudit, EndFate, MemberRecord};
use amoeba_core::{GroupEvent, GroupId, ViewId};
use amoeba_kernel::{CostModel, SimWorld, Workload};
use amoeba_net::{ChaosPlan, ChaosStats, HostSet, LinkFaults, Partition};
use amoeba_sim::SimDuration;
use bytes::Bytes;

use crate::plan::{Admission, FaultSpec, ScenarioPlan};

/// What one scenario run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The scenario's name.
    pub name: String,
    /// Order-sensitive FNV digest of the run: per-member submission
    /// counts, delivery logs and fates, event and time counters, chaos
    /// statistics and the violation count. Bit-equal across replays.
    pub digest: u64,
    /// Discrete events the simulation executed.
    pub events: u64,
    /// Simulated clock at the end of the run, µs.
    pub now_us: u64,
    /// Completed `SendToGroup`s (all nodes).
    pub sends_ok: u64,
    /// Failed sends.
    pub sends_err: u64,
    /// Messages submitted by scenario apps (tagged mode; 0 in
    /// continuous mode, where senders stream unboundedly).
    pub submitted: u64,
    /// Total deliveries recorded (tagged: across scenario apps;
    /// continuous: the world's delivery counter).
    pub delivered: u64,
    /// Members whose end-of-run fate is `Live`.
    pub live_members: usize,
    /// What the fault layer did.
    pub chaos: ChaosStats,
    /// Delivery-audit violations, rendered with their group id.
    pub violations: Vec<String>,
    /// Aggregate send rate over the measurement window (continuous
    /// mode only), msg/s.
    pub rate: Option<f64>,
    /// Ethernet utilization over the measurement window (continuous
    /// mode only).
    pub utilization: Option<f64>,
    /// `[expect]` assertions that did not hold (empty = scenario
    /// passed).
    pub expect_failures: Vec<String>,
    /// Each member's end-of-run fate, group by group in file order,
    /// members in listed order.
    pub fates: Vec<EndFate>,
    /// Each member's delivery log, in the order of `fates` (tagged
    /// mode; empty in continuous mode). The digest covers them.
    pub logs: Vec<Vec<AuditDelivery>>,
}

// ---------------------------------------------------------------------
// The tagged workload application
// ---------------------------------------------------------------------

/// Shared (app ↔ runner) record of one member's run.
#[derive(Debug, Default)]
struct NodeTrace {
    deliveries: Vec<AuditDelivery>,
    submitted: u64,
}

type SharedTrace = Arc<Mutex<NodeTrace>>;

/// The tagged workload: streams `total` uniquely-tagged messages keeping the
/// pipelining window full, records every delivery, halts on a send
/// failure (ambiguous under Amoeba's semantics) and resumes when a
/// recovered view restores service. The last `late` messages are held
/// on a timer until after the scheduled faults — traffic is what
/// drives failure detection, so an idle tail would let a dead-sequencer
/// group sit divergent forever. A member with `total = 0` is a pure
/// recorder.
struct ScenarioApp {
    node: u32,
    total: u64,
    late: u64,
    payload_pad: u32,
    sent: u64,
    outstanding: u64,
    halted: bool,
    limit: u64,
    late_after: std::time::Duration,
    trace: SharedTrace,
}

const LATE_TIMER: TimerId = TimerId(1);

impl ScenarioApp {
    fn new(
        node: u32,
        total: u64,
        late: u64,
        payload_pad: u32,
        late_after: std::time::Duration,
        trace: SharedTrace,
    ) -> Self {
        ScenarioApp {
            node,
            total,
            late,
            payload_pad,
            sent: 0,
            outstanding: 0,
            halted: false,
            limit: total - late,
            late_after,
            trace,
        }
    }

    fn payload(&self, index: u64) -> Bytes {
        let mut text = format!("m{}-{}", self.node, index);
        let pad = self.payload_pad as usize;
        if text.len() < pad {
            text.extend(std::iter::repeat_n('x', pad - text.len()));
        }
        Bytes::from(text.into_bytes())
    }

    fn top_up(&mut self, ctx: &mut dyn Ctx) {
        let window = ctx.config().send_window.max(1) as u64;
        while !self.halted && self.sent < self.limit && self.outstanding < window {
            let payload = self.payload(self.sent);
            self.sent += 1;
            self.outstanding += 1;
            self.trace.lock().expect("trace lock").submitted = self.sent;
            ctx.send(payload);
        }
    }
}

/// Parses `"m<node>-<index>…padding"` back into an [`AuditDelivery`].
fn parse_payload(payload: &[u8]) -> Option<AuditDelivery> {
    let text = std::str::from_utf8(payload).ok()?;
    let rest = text.strip_prefix('m')?;
    let (node, tail) = rest.split_once('-')?;
    let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
    Some(AuditDelivery { origin: node.parse().ok()?, index: digits.parse().ok()? })
}

impl GroupApp for ScenarioApp {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        if self.late > 0 {
            ctx.set_timer(LATE_TIMER, self.late_after);
        }
        self.top_up(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx, timer: TimerId) {
        if timer == LATE_TIMER {
            self.limit = self.total;
            self.halted = false;
            self.top_up(ctx);
        }
    }

    fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
        match event {
            AppEvent::Group(GroupEvent::Message { payload, .. }) => {
                let d = parse_payload(&payload)
                    .expect("scenario payloads always parse; a garbled one is a runner bug");
                self.trace.lock().expect("trace lock").deliveries.push(d);
            }
            AppEvent::SendDone(Ok(_)) => {
                self.outstanding = self.outstanding.saturating_sub(1);
                self.top_up(ctx);
            }
            AppEvent::SendDone(Err(_)) => {
                self.outstanding = self.outstanding.saturating_sub(1);
                self.halted = true;
            }
            AppEvent::Group(GroupEvent::ViewInstalled { .. }) if self.halted => {
                self.halted = false;
                self.top_up(ctx);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Digest
// ---------------------------------------------------------------------

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;
/// What the classic runner has multiplied by since it was written: a
/// one-digit typo of [`FNV_PRIME`]. Thirteen golden digests depend on
/// it, so it stays until they are re-pinned on their own.
const CLASSIC_PRIME: u64 = 0x1000_0000_01b3;

/// The order-sensitive run digest both runners fold their outcome
/// into.
pub(crate) struct Fnv {
    state: u64,
    prime: u64,
}

impl Fnv {
    /// The shard runner's digest (true FNV-1a).
    pub(crate) fn new() -> Self {
        Fnv { state: 0xcbf2_9ce4_8422_2325, prime: FNV_PRIME }
    }
    /// The classic runner's digest ([`CLASSIC_PRIME`]).
    fn classic() -> Self {
        Fnv { prime: CLASSIC_PRIME, ..Fnv::new() }
    }
    pub(crate) fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.raw(v);
    }
    fn raw(&mut self, v: &[u8]) {
        for &b in v {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(self.prime);
        }
    }
    pub(crate) fn fate(&mut self, fate: EndFate) {
        self.u64(match fate {
            EndFate::Live => 0,
            EndFate::Crashed => 1,
            EndFate::Expelled => 2,
        });
    }
    pub(crate) fn finish(self) -> u64 {
        self.state
    }
}

// ---------------------------------------------------------------------
// The runner
// ---------------------------------------------------------------------

/// Runs a validated plan through the simulated kernel stack.
/// Deterministic: the same plan always returns the same outcome.
pub fn run_plan(plan: &ScenarioPlan) -> Outcome {
    run_plan_world(plan).0
}

/// [`run_plan`], additionally returning the finished world for triage
/// (per-node core state via `GroupCore::debug_state`, NIC counters).
pub fn run_plan_world(plan: &ScenarioPlan) -> (Outcome, SimWorld) {
    let mut w = SimWorld::new(CostModel::mc68030_ether10(), plan.seed);
    for _ in 0..plan.nodes {
        w.add_node();
    }
    let groups_total = plan.groups.len();
    let cfg = |g: usize| plan.groups[g].config(groups_total, g, plan.admission);

    // Formation.
    match plan.admission {
        Admission::Immediate => {
            // The bench harnesses' exact shape (fig6 equivalence rides
            // on this): per group, create then join everyone, one
            // convergence wait at the end.
            for (g, spec) in plan.groups.iter().enumerate() {
                let gid = GroupId(spec.id);
                w.create_group(spec.members[0], gid, cfg(g));
                for &m in &spec.members[1..] {
                    w.join_group(m, gid, cfg(g));
                }
            }
        }
        Admission::Staggered => {
            for (g, spec) in plan.groups.iter().enumerate() {
                w.create_group(spec.members[0], GroupId(spec.id), cfg(g));
            }
            // One global join timetable, interleaved across groups
            // (they share the Ethernet): slot `1 ms + 17 µs × j` covers
            // admitting the j-th member — ~1 ms sequencer CPU plus the
            // per-member multicast send and JoinAck wire costs.
            let widest = plan.groups.iter().map(|s| s.members.len()).max().unwrap_or(0);
            let mut at = 0u64;
            for j in 1..widest {
                for (g, spec) in plan.groups.iter().enumerate() {
                    if let Some(&m) = spec.members.get(j) {
                        at += 1_000 + 17 * j as u64;
                        w.join_group_at(m, GroupId(spec.id), cfg(g), at);
                    }
                }
            }
        }
    }
    w.run_until_ready();

    let out = if plan.continuous() {
        run_continuous(plan, &mut w)
    } else {
        run_tagged(plan, &mut w)
    };
    (out, w)
}

/// Schedules the plan's faults. `base_us` is workload start (fault
/// instants are relative to it).
fn apply_faults(w: &mut SimWorld, plan: &ScenarioPlan, base_us: u64) {
    let mut chaos = ChaosPlan::quiet();
    let mut any_net = false;
    for f in &plan.faults {
        match f {
            FaultSpec::Crash { node, at_ms } => {
                w.crash_at(*node, base_us + at_ms * 1_000);
            }
            FaultSpec::Restart { node, at_ms } => {
                let (g, spec) = plan
                    .groups
                    .iter()
                    .enumerate()
                    .find(|(_, s)| s.members.contains(node))
                    .expect("validated: restarted nodes are members");
                let config = spec.config(plan.groups.len(), g, plan.admission);
                w.restart_at(*node, GroupId(spec.id), config, base_us + at_ms * 1_000);
            }
            FaultSpec::Partition { side_a, from_ms, until_ms } => {
                any_net = true;
                chaos.partitions.push(Partition {
                    side_a: HostSet::from_hosts(side_a.iter().copied()),
                    from_us: base_us + from_ms * 1_000,
                    until_us: base_us + until_ms * 1_000,
                });
            }
            FaultSpec::Noise {
                drop,
                duplicate,
                reorder,
                reorder_min_us,
                reorder_max_us,
                from_ms,
                until_ms,
            } => {
                any_net = true;
                chaos.link = LinkFaults {
                    drop: *drop,
                    duplicate: *duplicate,
                    reorder: *reorder,
                    reorder_min_us: *reorder_min_us,
                    reorder_max_us: *reorder_max_us,
                };
                chaos.noise_from_us = base_us + from_ms * 1_000;
                chaos.noise_until_us = base_us + until_ms * 1_000;
            }
        }
    }
    if any_net {
        w.set_chaos(chaos, plan.seed ^ 0xC4A0_5EED);
    }
}

/// End-of-run fates per group, plus each group's maximum observed view.
/// Ground truth for "still a member" is the surviving sequencer's view
/// (a member silently expelled during a partition may not have learned
/// of it yet); under a transient split brain two sequencers coexist,
/// and the one with the highest view id leads the surviving lineage.
fn group_fates(w: &SimWorld, plan: &ScenarioPlan, g: usize) -> (Vec<EndFate>, ViewId) {
    let spec = &plan.groups[g];
    let crashed = |n: usize| {
        plan.faults.iter().any(|f| matches!(f, FaultSpec::Crash { node, .. } if *node == n))
    };
    let restarted = |n: usize| {
        plan.faults.iter().any(|f| matches!(f, FaultSpec::Restart { node, .. } if *node == n))
    };
    let seq_view: Option<Vec<amoeba_flip::FlipAddress>> = spec
        .members
        .iter()
        .copied()
        .filter(|&n| !crashed(n) || restarted(n))
        .filter_map(|n| {
            let core = w.sim.world.nodes[n].core.as_ref()?;
            (core.is_sequencer() && core.is_member()).then(|| {
                let info = core.info();
                (info.view, info.members.iter().map(|m| m.addr).collect::<Vec<_>>())
            })
        })
        .max_by_key(|(view, _)| *view)
        .map(|(_, members)| members);
    let mut max_view = ViewId::INITIAL;
    let fates = spec
        .members
        .iter()
        .map(|&n| {
            if crashed(n) {
                // A restarted node rejoins as a fresh member but its
                // (ended) app log is frozen at the crash: audit it as
                // crashed.
                return EndFate::Crashed;
            }
            let Some(core) = w.sim.world.nodes[n].core.as_ref() else {
                return EndFate::Crashed;
            };
            let info = core.info();
            if info.view > max_view {
                max_view = info.view;
            }
            if !core.is_member() {
                return EndFate::Expelled;
            }
            match &seq_view {
                Some(view) if !view.contains(&w.sim.world.nodes[n].addr) => EndFate::Expelled,
                _ => EndFate::Live,
            }
        })
        .collect();
    (fates, max_view)
}

fn run_tagged(plan: &ScenarioPlan, w: &mut SimWorld) -> Outcome {
    // Per-sender (messages, payload, late) from the workload tables;
    // everyone else in a group is a pure recorder.
    let sender_spec = |n: usize, gid: u64| -> (u64, u32, u64) {
        for wl in &plan.workloads {
            if wl.group == gid && wl.senders.contains(&n) {
                let late = wl.late.unwrap_or(if plan.faults.is_empty() {
                    0
                } else {
                    (wl.messages / 3).min(2)
                });
                return (wl.messages, wl.payload, late);
            }
        }
        (0, 0, 0)
    };
    // The late phase opens shortly after the last scheduled fault.
    let late_after =
        std::time::Duration::from_micros(plan.last_fault_ms() * 1_000 + 2_000_000);
    let mut traces: Vec<Vec<SharedTrace>> = Vec::with_capacity(plan.groups.len());
    let mut expected_submissions = 0u64;
    for spec in &plan.groups {
        let mut group_traces = Vec::with_capacity(spec.members.len());
        for &m in &spec.members {
            let (total, payload, late) = sender_spec(m, spec.id);
            expected_submissions += total;
            let trace: SharedTrace = Arc::new(Mutex::new(NodeTrace::default()));
            w.set_app(
                m,
                Box::new(ScenarioApp::new(
                    m as u32,
                    total,
                    late,
                    payload,
                    late_after,
                    Arc::clone(&trace),
                )),
            );
            group_traces.push(trace);
        }
        traces.push(group_traces);
    }
    let base_us = w.now().as_micros();
    apply_faults(w, plan, base_us);
    w.kick();
    w.run_for(SimDuration::from_millis(plan.run.limit_ms));

    // Fates, audit and digest, group by group in file order.
    let mut fnv = Fnv::classic();
    let mut violations = Vec::new();
    let mut submitted = 0u64;
    let mut delivered = 0u64;
    let mut all_fates = Vec::with_capacity(plan.nodes);
    let mut logs = Vec::with_capacity(plan.nodes);
    for (g, spec) in plan.groups.iter().enumerate() {
        let (fates, max_view) = group_fates(w, plan, g);
        let mut audit = DeliveryAudit::new()
            .require_convergence(true)
            .strict_expelled(max_view == ViewId::INITIAL);
        for (i, &m) in spec.members.iter().enumerate() {
            let t = std::mem::take(&mut *traces[g][i].lock().expect("trace lock"));
            audit.submitted(m as u32, t.submitted);
            submitted += t.submitted;
            delivered += t.deliveries.len() as u64;
            fnv.u64(t.submitted);
            for d in &t.deliveries {
                fnv.u64(d.origin as u64);
                fnv.u64(d.index);
            }
            fnv.fate(fates[i]);
            audit.member(MemberRecord { fate: fates[i], deliveries: t.deliveries.clone() });
            logs.push(t.deliveries);
        }
        for v in audit.check() {
            violations.push(format!("group {}: {v:?}", spec.id));
        }
        all_fates.extend(fates);
    }
    fnv.u64(w.sim.events_executed());
    fnv.u64(w.now().as_micros());
    let chaos = w.chaos_stats();
    for v in [chaos.dropped, chaos.duplicated, chaos.reordered, chaos.partitioned] {
        fnv.u64(v);
    }
    fnv.u64(violations.len() as u64);

    let sends_ok = w.sim.world.metrics.sends_ok.get();
    let sends_err = w.sim.world.metrics.sends_err.get();
    let mut out = Outcome {
        name: plan.name.clone(),
        digest: fnv.finish(),
        events: w.sim.events_executed(),
        now_us: w.now().as_micros(),
        sends_ok,
        sends_err,
        submitted,
        delivered,
        live_members: live_count(&all_fates),
        chaos,
        violations,
        rate: None,
        utilization: None,
        expect_failures: Vec::new(),
        fates: all_fates,
        logs,
    };
    check_expectations(plan, &mut out, Some(expected_submissions));
    out
}

fn run_continuous(plan: &ScenarioPlan, w: &mut SimWorld) -> Outcome {
    for wl in &plan.workloads {
        for &s in &wl.senders {
            w.set_workload(s, Workload::Sender { size: wl.payload, remaining: u64::MAX });
        }
    }
    let base_us = w.now().as_micros();
    apply_faults(w, plan, base_us);
    let warmup_us = plan.run.warmup_ms.expect("validated: continuous has warmup") * 1_000;
    let window_us = plan.run.window_ms.expect("validated: continuous has window") * 1_000;
    w.kick();
    w.run_for(SimDuration::from_micros(warmup_us));
    let before = w.snapshot_sends();
    let util_before = w.sim.world.net.medium.stats.busy_us;
    w.run_for(SimDuration::from_micros(window_us));
    let after = w.snapshot_sends();
    let util_after = w.sim.world.net.medium.stats.busy_us;
    let secs = window_us as f64 / 1_000_000.0;
    let rate = (after - before) as f64 / secs;
    let util = (util_after - util_before) as f64 / window_us as f64;

    let fates: Vec<EndFate> =
        (0..plan.groups.len()).flat_map(|g| group_fates(w, plan, g).0).collect();
    let live = live_count(&fates);
    let mut fnv = Fnv::classic();
    fnv.u64(after - before);
    fnv.u64(rate.to_bits());
    fnv.u64(util.to_bits());
    fnv.u64(w.sim.events_executed());
    fnv.u64(w.now().as_micros());
    let chaos = w.chaos_stats();
    for v in [chaos.dropped, chaos.duplicated, chaos.reordered, chaos.partitioned] {
        fnv.u64(v);
    }
    fnv.u64(live as u64);

    let mut out = Outcome {
        name: plan.name.clone(),
        digest: fnv.finish(),
        events: w.sim.events_executed(),
        now_us: w.now().as_micros(),
        sends_ok: w.sim.world.metrics.sends_ok.get(),
        sends_err: w.sim.world.metrics.sends_err.get(),
        submitted: 0,
        delivered: w.sim.world.metrics.deliveries.get(),
        live_members: live,
        chaos,
        violations: Vec::new(),
        rate: Some(rate),
        utilization: Some(util),
        expect_failures: Vec::new(),
        fates,
        logs: Vec::new(),
    };
    check_expectations(plan, &mut out, None);
    out
}

fn live_count(fates: &[EndFate]) -> usize {
    fates.iter().filter(|f| **f == EndFate::Live).count()
}

/// Evaluates the plan's `[expect]` block against the outcome.
fn check_expectations(plan: &ScenarioPlan, out: &mut Outcome, expected_submissions: Option<u64>) {
    let e = &plan.expect;
    let mut fails = Vec::new();
    if e.audit && !out.violations.is_empty() {
        fails.push(format!(
            "audit: {} violation(s), first: {}",
            out.violations.len(),
            out.violations[0]
        ));
    }
    if e.all_sends_ok {
        if out.sends_err > 0 {
            fails.push(format!("all_sends_ok: {} send(s) failed", out.sends_err));
        }
        if let Some(expected) = expected_submissions {
            if out.submitted < expected {
                fails.push(format!(
                    "all_sends_ok: only {}/{} messages submitted",
                    out.submitted, expected
                ));
            }
        }
    }
    if let Some(min) = e.min_delivered {
        if out.delivered < min {
            fails.push(format!("min_delivered: {} < {min}", out.delivered));
        }
    }
    if let Some(want) = e.live_members {
        if out.live_members != want {
            fails.push(format!("live_members: {} ≠ {want}", out.live_members));
        }
    }
    if let Some(min) = e.min_rate {
        let rate = out.rate.unwrap_or(0.0);
        if rate < min {
            fails.push(format!("min_rate: {rate:.0} < {min:.0}"));
        }
    }
    out.expect_failures = fails;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_round_trips_through_parse() {
        let late_after = std::time::Duration::from_secs(1);
        let app = |node, pad| ScenarioApp::new(node, 10, 0, pad, late_after, SharedTrace::default());
        let p = app(3, 64).payload(7);
        assert_eq!(p.len(), 64, "padded to the plan's payload size");
        assert_eq!(parse_payload(&p), Some(AuditDelivery { origin: 3, index: 7 }));
        let tiny = app(0, 0).payload(0);
        assert_eq!(parse_payload(&tiny), Some(AuditDelivery { origin: 0, index: 0 }));
        assert_eq!(parse_payload(b"garbage"), None);
    }
}
