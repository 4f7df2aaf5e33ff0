//! The typed scenario schema: validation of a parsed document into a
//! runnable [`ScenarioPlan`], and the canonical serializer back to the
//! file format.
//!
//! The schema layer is deliberately strict (DESIGN.md §9.1): every key
//! is checked against the known set, every member/seqno/window against
//! its valid range, and every rejection names the offending **line**.
//! A scenario file is a test artifact — a typo that silently changed
//! nothing would be a test that silently stopped testing.
//!
//! A group's knobs are one table, `KNOBS`: parsing, range checks and
//! their errors, printing and [`GroupSpec::config`] all walk it.
//!
//! [`ScenarioPlan::to_toml`] emits a canonical document (resolved
//! defaults spelled out, contiguous member sets as `"a..b"` ranges)
//! that parses back to an equal plan; the round-trip property tests in
//! `tests/plan_roundtrip.rs` hold the two directions together.

use std::fmt::{self, Formatter};

use amoeba_core::{BatchPolicy, GroupConfig, Method};
use amoeba_kernel::Admission;
use amoeba_shard::fault_tolerant_config;

use crate::schema::Kind::{self, Bool, Choice, Uint};
use crate::schema::{header, in_range, kv, within, Keys, Quoted};
use crate::toml::{self, Doc};
use crate::Error;

/// Hard cap on world size (the simulator's event lanes and per-node
/// state are sized for thousands, not millions).
pub const MAX_NODES: usize = 4096;
/// Hard cap on per-sender submissions: the message index is the
/// application-level seqno, and a scenario asking for more than this
/// is out of its budget (and would not terminate in CI time anyway).
pub const MAX_MESSAGES: u64 = 100_000;
/// Hard cap on payload bytes (beyond fragmentation sizes there is
/// nothing new to exercise, only wall clock to burn).
pub const MAX_PAYLOAD: u32 = 60_000;
/// Hard cap on a group's `history_cap` (entries): far above what any
/// scenario's message budget can fill, and low enough that the
/// high-water mark (¾ of it) and the core's arithmetic on it cannot
/// overflow.
pub const MAX_HISTORY: u64 = 1 << 20;

/// A group's broadcast method: the core's, spelled `method = "pb"`,
/// `"bb"` or `"dynamic"` (with `bb_threshold`) in a file.
pub type MethodSpec = Method;

/// Optional [`GroupConfig`] overrides a group may set. `None` keeps
/// the base (default or scale-derived) value. Each field is one row of
/// the knob table, which parses, checks, prints and applies it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Knobs {
    /// Broadcast method.
    pub method: Option<MethodSpec>,
    /// Resilience degree r.
    pub resilience: Option<u32>,
    /// Sender pipelining window.
    pub send_window: Option<usize>,
    /// Sequencer batching on/off.
    pub batching: Option<bool>,
    /// Max batched accepts (needs `batching = true`).
    pub batch_max: Option<usize>,
    /// Batch flush timer, µs (needs `batching = true`).
    pub batch_flush_us: Option<u64>,
    /// Hardened repair path (backoff + chunked retransmission).
    pub robust_repair: Option<bool>,
    /// Sync-round period, µs.
    pub sync_interval_us: Option<u64>,
    /// Sync-round reply deadline, µs.
    pub sync_round_us: Option<u64>,
    /// Per-member status-reply stagger quantum, µs.
    pub status_stagger_us: Option<u64>,
    /// History ring capacity (entries).
    pub history_cap: Option<usize>,
    /// Survivors reset automatically on sequencer suspicion.
    pub auto_reset: Option<bool>,
    /// Minimum members for an automatic reset.
    pub auto_reset_min_members: Option<usize>,
}

/// The configuration a group's knobs override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigBase {
    /// The paper profile (`GroupConfig::paper`).
    Paper,
    /// `GroupConfig::scaled_for_world` (`scaled = true`; the default
    /// past 64 members).
    Scaled,
    /// [`fault_tolerant_config`] (`config = "fault_tolerant"`, the same
    /// base the `[shard]` schema offers): scaled for the world, plus
    /// snappy failure detection, robust repair and auto-reset.
    FaultTolerant,
}

/// One group: identity, membership, and configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupSpec {
    /// Wire group id (≥ 1, unique).
    pub id: u64,
    /// Member nodes; the first listed founds the group and sequences.
    pub members: Vec<usize>,
    /// The configuration the knobs are applied on top of.
    pub base: ConfigBase,
    /// Explicit overrides applied on top of the base.
    pub knobs: Knobs,
}

impl GroupSpec {
    /// The concrete configuration this group runs with. `groups` is
    /// the world's group count and `g` this group's index — both feed
    /// the scale policy (wire sharing, timer de-phasing).
    pub fn config(&self, groups: usize, g: usize, admission: Admission) -> GroupConfig {
        let mut c = match self.base {
            ConfigBase::Paper => GroupConfig::paper(),
            ConfigBase::Scaled => GroupConfig::scaled_for_world(self.members.len(), groups),
            ConfigBase::FaultTolerant => fault_tolerant_config(self.members.len(), groups, 1),
        };
        for Knob(_, _, _, field) in KNOBS {
            if let Some(v) = (field.get)(&self.knobs) {
                (field.apply)(&mut c, v);
            }
        }
        if admission == Admission::Staggered { c.dephased(g) } else { c }
    }
}

/// One workload: a set of member nodes streaming messages into their
/// group.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The group the senders belong to.
    pub group: u64,
    /// Sending nodes (must be members of `group`).
    pub senders: Vec<usize>,
    /// Messages per sender. `0` = continuous (rate-measurement mode,
    /// requires `[run] warmup_ms`/`window_ms`).
    pub messages: u64,
    /// Payload bytes per message.
    pub payload: u32,
    /// Messages per sender held back until after the last scheduled
    /// fault (the late-probe phase that drives failure detection; see
    /// `crate::run`). Default: 2 when faults are scheduled, else 0.
    pub late: Option<u64>,
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// A node dies silently.
    Crash {
        /// The node.
        node: usize,
        /// Simulated instant, ms.
        at_ms: u64,
    },
    /// A previously crashed node rejoins as a fresh member.
    Restart {
        /// The node (must have a `crash` scheduled earlier).
        node: usize,
        /// Simulated instant, ms.
        at_ms: u64,
    },
    /// The network splits in two for a window.
    Partition {
        /// Hosts on side A (proper, non-empty subset).
        side_a: Vec<usize>,
        /// Window start, ms.
        from_ms: u64,
        /// Window end (exclusive), ms.
        until_ms: u64,
    },
    /// Per-frame link noise for a window (at most one per scenario —
    /// the fault layer has a single noise schedule).
    Noise {
        /// Per-(frame, receiver) drop probability.
        drop: f64,
        /// Duplication probability.
        duplicate: f64,
        /// Reorder (delay) probability.
        reorder: f64,
        /// Minimum reorder delay, µs.
        reorder_min_us: u64,
        /// Maximum reorder delay, µs.
        reorder_max_us: u64,
        /// Window start, ms.
        from_ms: u64,
        /// Window end, ms.
        until_ms: u64,
    },
}

impl FaultSpec {
    /// When the fault is over (ms): its instant, or its window end.
    pub fn end_ms(&self) -> u64 {
        match *self {
            FaultSpec::Crash { at_ms, .. } | FaultSpec::Restart { at_ms, .. } => at_ms,
            FaultSpec::Partition { until_ms, .. } | FaultSpec::Noise { until_ms, .. } => until_ms,
        }
    }
}

/// Run budget and (for continuous workloads) the measurement window.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Simulated-time budget after workloads start, ms.
    pub limit_ms: u64,
    /// Warm-up before the rate window (continuous mode), ms.
    pub warmup_ms: Option<u64>,
    /// Rate-measurement window (continuous mode), ms.
    pub window_ms: Option<u64>,
}

/// What the scenario asserts about its outcome. Failures are reported
/// by the runner; the golden suite and the `scenario` binary treat any
/// failure as red.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expect {
    /// Run the `DeliveryAudit` over per-member logs and require zero
    /// violations (tagged workloads only).
    pub audit: bool,
    /// Every submitted send must complete `Ok`.
    pub all_sends_ok: bool,
    /// Minimum total deliveries across all members.
    pub min_delivered: Option<u64>,
    /// Exact number of live members (per the end-of-run fates).
    pub live_members: Option<usize>,
    /// Minimum aggregate message rate (continuous mode), msg/s.
    pub min_rate: Option<f64>,
}

/// A fully validated, runnable scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioPlan {
    /// Scenario name (reported, and part of the digest).
    pub name: String,
    /// World seed.
    pub seed: u64,
    /// Hosts on the (single) Ethernet segment.
    pub nodes: usize,
    /// Formation policy.
    pub admission: Admission,
    /// Groups, in file order.
    pub groups: Vec<GroupSpec>,
    /// Workloads, in file order.
    pub workloads: Vec<WorkloadSpec>,
    /// Fault schedule, in file order.
    pub faults: Vec<FaultSpec>,
    /// Budget and measurement window.
    pub run: RunSpec,
    /// Assertions over the outcome.
    pub expect: Expect,
}

// ---------------------------------------------------------------------
// Document → plan
// ---------------------------------------------------------------------

impl ScenarioPlan {
    /// Parses and validates a scenario file.
    pub fn parse(text: &str) -> Result<ScenarioPlan, Error> {
        Self::from_doc(&toml::parse(text)?)
    }

    /// Validates a parsed document (one without a `[shard]` section).
    pub fn from_doc(doc: &Doc) -> Result<ScenarioPlan, Error> {
        let (name, seed) =
            header(doc, &["topology", "run", "expect"], &["group", "workload", "fault"])?;

        // [topology]
        let topo = doc.table("topology").ok_or_else(|| Error::at(1, "missing [topology] section"))?;
        let mut t = Keys::new("[topology]", topo);
        let (nodes, _) = t
            .uint_in("nodes", (1, MAX_NODES as u64), in_range)?
            .ok_or_else(|| t.missing("nodes"))?;
        let nodes = nodes as usize;
        let staggered = match t.choice("admission", &["immediate", "staggered"])? {
            None => nodes > 64,
            Some((i, _)) => i == 1,
        };
        let admission = if staggered { Admission::Staggered } else { Admission::Immediate };
        t.finish()?;

        // [[group]]
        let group_tables = doc.array("group");
        if group_tables.is_empty() {
            return Err(Error::at(1, "a scenario needs at least one [[group]]"));
        }
        let mut groups: Vec<GroupSpec> = Vec::with_capacity(group_tables.len());
        let mut owner = vec![usize::MAX; nodes];
        for gt in &group_tables {
            let mut g = Keys::new("[[group]]", gt);
            let (id, id_line) = g.uint("id")?.ok_or_else(|| g.missing("id"))?;
            if id == 0 {
                return Err(Error::at(id_line, "group `id` must be ≥ 1"));
            }
            if groups.iter().any(|p| p.id == id) {
                return Err(Error::at(id_line, format!("duplicate group id {id}")));
            }
            let (members, members_line) =
                g.node_set("members", nodes)?.ok_or_else(|| g.missing("members"))?;
            for &m in &members {
                if owner[m] != usize::MAX {
                    return Err(Error::at(
                        members_line,
                        format!("node {m} is already a member of group {}", groups[owner[m]].id),
                    ));
                }
                owner[m] = groups.len();
            }
            let fault_tolerant =
                g.choice("config", &["default", "fault_tolerant"])?.is_some_and(|(i, _)| i == 1);
            let base = match g.boolean("scaled")? {
                Some((true, line)) if fault_tolerant => {
                    return Err(Error::at(
                        line,
                        "`scaled = true` cannot combine with `config = \"fault_tolerant\"` \
                         (that base already scales for the world)",
                    ))
                }
                _ if fault_tolerant => ConfigBase::FaultTolerant,
                Some((true, _)) => ConfigBase::Scaled,
                Some((false, _)) => ConfigBase::Paper,
                None if members.len() > 64 => ConfigBase::Scaled,
                None => ConfigBase::Paper,
            };
            let knobs = parse_knobs(&mut g, members.len())?;
            g.finish()?;
            groups.push(GroupSpec { id, members, base, knobs });
        }
        // Each knob was in range on its own line; the configuration
        // the group will run under — base, knobs, de-phasing — must
        // also be one the core accepts.
        for (g, (spec, gt)) in groups.iter().zip(&group_tables).enumerate() {
            spec.config(groups.len(), g, admission)
                .validate()
                .map_err(|e| Error::at(gt.line, format!("group {}: {e}", spec.id)))?;
        }

        // [[workload]]
        let mut workloads = Vec::new();
        let mut continuous = false;
        let mut tagged = false;
        for wt in &doc.array("workload") {
            let mut w = Keys::new("[[workload]]", wt);
            let (gid, gid_line) = w.uint("group")?.ok_or_else(|| w.missing("group"))?;
            let group = groups
                .iter()
                .find(|g| g.id == gid)
                .ok_or_else(|| Error::at(gid_line, format!("no group with id {gid}")))?;
            let (senders, senders_line) =
                w.node_set("senders", nodes)?.ok_or_else(|| w.missing("senders"))?;
            if let Some(s) = senders.iter().find(|s| !group.members.contains(s)) {
                return Err(Error::at(
                    senders_line,
                    format!("sender {s} is not a member of group {gid}"),
                ));
            }
            let (messages, _) = w
                .uint_in("messages", (0, MAX_MESSAGES), |k, v, _, hi| {
                    format!("`{k}` out of range: {v} > {hi} (seqno budget)")
                })?
                .ok_or_else(|| w.missing("messages"))?;
            continuous |= messages == 0;
            tagged |= messages > 0;
            let payload = w
                .uint_in("payload", (0, MAX_PAYLOAD as u64), |k, v, _, hi| {
                    format!("`{k}` out of range: {v} > {hi}")
                })?
                .map_or(0, |(p, _)| p as u32);
            let late = match w.uint("late")? {
                None => None,
                Some((_, line)) if messages == 0 => {
                    return Err(Error::at(line, "`late` needs a bounded workload"))
                }
                Some(got) => Some(within("late", got, (0, messages), |k, l, _, m| {
                    format!("`{k}` = {l} exceeds `messages` = {m}")
                })?),
            };
            w.finish()?;
            workloads.push(WorkloadSpec { group: gid, senders, messages, payload, late });
        }
        if continuous && tagged {
            return Err(Error::at(
                1,
                "continuous (messages = 0) and bounded workloads cannot mix in one scenario",
            ));
        }

        // [[fault]]
        let mut faults = Vec::new();
        let mut crash_at: Vec<Option<(u64, usize)>> = vec![None; nodes]; // (at_ms, line)
        let mut partitions: Vec<(u64, u64, usize)> = Vec::new(); // (from, until, line)
        let mut noise_window: Option<(u64, u64, usize)> = None;
        for ft in &doc.array("fault") {
            let mut f = Keys::new("[[fault]]", ft);
            let kind = f.kind("fault", &["crash", "restart", "partition", "noise"])?;
            let fault = match kind {
                "crash" | "restart" => {
                    let (node, node_line) = f
                        .uint_in("node", (0, nodes as u64 - 1), |k, n, _, hi| {
                            format!("`{k}` {n} out of range (topology has {} nodes)", hi + 1)
                        })?
                        .ok_or_else(|| Error::at(ft.line, format!("{kind} needs `node`")))?;
                    let node = node as usize;
                    if owner[node] == usize::MAX {
                        return Err(Error::at(
                            node_line,
                            format!("node {node} is not a member of any group"),
                        ));
                    }
                    let (at_ms, at_line) = f
                        .uint("at_ms")?
                        .ok_or_else(|| Error::at(ft.line, format!("{kind} needs `at_ms`")))?;
                    if at_ms == 0 {
                        return Err(Error::at(at_line, "`at_ms` must be ≥ 1 (faults follow formation)"));
                    }
                    if kind == "crash" {
                        if let Some((_, prev)) = crash_at[node] {
                            return Err(Error::at(
                                at_line,
                                format!("node {node} already crashes at line {prev}"),
                            ));
                        }
                        crash_at[node] = Some((at_ms, at_line));
                        FaultSpec::Crash { node, at_ms }
                    } else {
                        match crash_at[node] {
                            Some((c, _)) if c < at_ms => {}
                            Some(_) => {
                                return Err(Error::at(
                                    at_line,
                                    format!("restart of node {node} must come after its crash"),
                                ))
                            }
                            None => {
                                return Err(Error::at(
                                    at_line,
                                    format!("restart of node {node} without an earlier crash"),
                                ))
                            }
                        }
                        FaultSpec::Restart { node, at_ms }
                    }
                }
                "partition" => {
                    let (side_a, side_line) = f
                        .node_set("side_a", nodes)?
                        .ok_or_else(|| Error::at(ft.line, "partition needs `side_a`"))?;
                    if side_a.len() >= nodes {
                        return Err(Error::at(
                            side_line,
                            "`side_a` must be a proper subset of the topology",
                        ));
                    }
                    let (from_ms, until_ms, until_line) = f.window()?;
                    for &(pf, pu, pline) in &partitions {
                        if from_ms < pu && pf < until_ms {
                            return Err(Error::at(
                                until_line,
                                format!(
                                    "partition window {from_ms}..{until_ms} ms overlaps the one \
                                     at line {pline} ({pf}..{pu} ms)"
                                ),
                            ));
                        }
                    }
                    partitions.push((from_ms, until_ms, ft.line));
                    FaultSpec::Partition { side_a, from_ms, until_ms }
                }
                "noise" => {
                    let (from_ms, until_ms, until_line) = f.window()?;
                    if let Some((nf, nu, nline)) = noise_window {
                        return Err(Error::at(
                            until_line,
                            format!(
                                "noise window {from_ms}..{until_ms} ms overlaps the one at line \
                                 {nline} ({nf}..{nu} ms): the fault layer has a single noise \
                                 schedule"
                            ),
                        ));
                    }
                    noise_window = Some((from_ms, until_ms, ft.line));
                    let prob = |f: &mut Keys, key: &str| -> Result<f64, Error> {
                        match f.float(key)? {
                            None => Ok(0.0),
                            Some((p, line)) if !(0.0..=1.0).contains(&p) => Err(Error::at(
                                line,
                                format!("`{key}` must be a probability in 0..=1, got {p}"),
                            )),
                            Some((p, _)) => Ok(p),
                        }
                    };
                    let drop = prob(&mut f, "drop")?;
                    let duplicate = prob(&mut f, "duplicate")?;
                    let reorder = prob(&mut f, "reorder")?;
                    let reorder_min_us = f.uint("reorder_min_us")?.map_or(200, |(v, _)| v);
                    let reorder_max_us = f.uint("reorder_max_us")?.map_or(10_000, |(v, _)| v);
                    if reorder_max_us < reorder_min_us {
                        return Err(Error::at(
                            ft.line,
                            "`reorder_max_us` must be ≥ `reorder_min_us`",
                        ));
                    }
                    FaultSpec::Noise {
                        drop,
                        duplicate,
                        reorder,
                        reorder_min_us,
                        reorder_max_us,
                        from_ms,
                        until_ms,
                    }
                }
                _ => unreachable!("`Keys::kind` checked the spelling"),
            };
            f.finish()?;
            faults.push(fault);
        }

        // [run]
        let last_fault_ms = faults.iter().map(|f| f.end_ms()).max().unwrap_or(0);
        let (run, run_line) = match doc.table("run") {
            None => (RunSpec { limit_ms: 60_000, warmup_ms: None, window_ms: None }, 1),
            Some(rt) => {
                let mut r = Keys::new("[run]", rt);
                let limit_ms = r.uint("limit_ms")?.map_or(60_000, |(v, _)| v);
                let warmup_ms = r.uint("warmup_ms")?.map(|(v, _)| v);
                let window_ms = r.uint("window_ms")?.map(|(v, _)| v);
                r.finish()?;
                (RunSpec { limit_ms, warmup_ms, window_ms }, rt.line)
            }
        };
        if continuous && (run.warmup_ms.is_none() || run.window_ms.is_none()) {
            return Err(Error::at(
                run_line,
                "continuous workloads need [run] `warmup_ms` and `window_ms`",
            ));
        }
        if !continuous && (run.warmup_ms.is_some() || run.window_ms.is_some()) {
            return Err(Error::at(
                run_line,
                "`warmup_ms`/`window_ms` only apply to continuous workloads",
            ));
        }
        if !continuous && run.limit_ms <= last_fault_ms + 2_000 && !faults.is_empty() {
            return Err(Error::at(
                run_line,
                format!(
                    "`limit_ms` = {} leaves no settle window after the last fault at {} ms \
                     (need ≥ {} ms)",
                    run.limit_ms,
                    last_fault_ms,
                    last_fault_ms + 2_001
                ),
            ));
        }

        // [expect]
        let expect = match doc.table("expect") {
            None => Expect { audit: tagged, ..Expect::default() },
            Some(et) => {
                let mut e = Keys::new("[expect]", et);
                let audit = match e.boolean("audit")? {
                    None => tagged,
                    Some((true, line)) if continuous => {
                        return Err(Error::at(
                            line,
                            "`audit = true` needs tagged (bounded) workloads, not continuous",
                        ))
                    }
                    Some((b, _)) => b,
                };
                let all_sends_ok = e.boolean("all_sends_ok")?.is_some_and(|(b, _)| b);
                let min_delivered = e.uint("min_delivered")?;
                let live_members = e.uint("live_members")?;
                let min_rate = match e.float("min_rate")? {
                    None => None,
                    Some((_, line)) if !continuous => {
                        return Err(Error::at(line, "`min_rate` needs a continuous workload"))
                    }
                    Some((r, line)) if r < 0.0 => {
                        return Err(Error::at(line, "`min_rate` must be ≥ 0"))
                    }
                    Some((r, _)) => Some(r),
                };
                // A delivery ceiling: every member of a workload's
                // group delivers each message at most once.
                let ceiling: u64 = workloads
                    .iter()
                    .map(|w| {
                        let members = groups
                            .iter()
                            .find(|g| g.id == w.group)
                            .map(|g| g.members.len() as u64)
                            .unwrap_or(0);
                        w.messages * w.senders.len() as u64 * members
                    })
                    .sum();
                if let Some((m, line)) = min_delivered.filter(|&(m, _)| !continuous && m > ceiling)
                {
                    return Err(Error::at(
                        line,
                        format!(
                            "`min_delivered` = {m} exceeds the {ceiling} deliveries this \
                             scenario can produce"
                        ),
                    ));
                }
                if let Some(got) = live_members {
                    within("live_members", got, (0, nodes as u64), |k, l, _, n| {
                        format!("`{k}` = {l} exceeds the {n}-node topology")
                    })?;
                }
                e.finish()?;
                Expect {
                    audit,
                    all_sends_ok,
                    min_delivered: min_delivered.map(|(v, _)| v),
                    live_members: live_members.map(|(v, _)| v as usize),
                    min_rate,
                }
            }
        };

        Ok(ScenarioPlan {
            name,
            seed,
            nodes,
            admission,
            groups,
            workloads,
            faults,
            run,
            expect,
        })
    }

    /// The instant (ms) the last scheduled fault is over.
    pub fn last_fault_ms(&self) -> u64 {
        self.faults.iter().map(|f| f.end_ms()).max().unwrap_or(0)
    }

    /// Whether the scenario runs in continuous (rate-measurement) mode.
    pub fn continuous(&self) -> bool {
        self.workloads.iter().any(|w| w.messages == 0)
    }

    /// Serializes the plan as a canonical scenario file: resolved
    /// defaults spelled out, contiguous node sets as ranges, sections
    /// in schema order. `parse(to_toml(p)) == p`.
    pub fn to_toml(&self) -> String {
        self.to_string()
    }
}

/// The canonical scenario file ([`ScenarioPlan::to_toml`]).
impl fmt::Display for ScenarioPlan {
    fn fmt(&self, f: &mut Formatter) -> fmt::Result {
        kv(f, "name", Quoted(&self.name))?;
        kv(f, "seed", self.seed)?;
        writeln!(f, "\n[topology]")?;
        kv(f, "nodes", self.nodes)?;
        let admission = match self.admission {
            Admission::Immediate => "immediate",
            Admission::Staggered => "staggered",
        };
        kv(f, "admission", Quoted(admission))?;
        for g in &self.groups {
            writeln!(f, "\n[[group]]")?;
            kv(f, "id", g.id)?;
            kv(f, "members", node_set(&g.members))?;
            kv(f, "scaled", g.base == ConfigBase::Scaled)?;
            if g.base == ConfigBase::FaultTolerant {
                kv(f, "config", Quoted("fault_tolerant"))?;
            }
            for Knob(key, kind, _, field) in KNOBS {
                if let Some(v) = (field.get)(&g.knobs) {
                    kind.write(f, key, v)?;
                }
            }
        }
        for w in &self.workloads {
            writeln!(f, "\n[[workload]]")?;
            kv(f, "group", w.group)?;
            kv(f, "senders", node_set(&w.senders))?;
            kv(f, "messages", w.messages)?;
            kv(f, "payload", w.payload)?;
            if let Some(l) = w.late {
                kv(f, "late", l)?;
            }
        }
        for fault in &self.faults {
            writeln!(f, "\n[[fault]]")?;
            match fault {
                FaultSpec::Crash { node, at_ms } => {
                    kv(f, "kind", Quoted("crash"))?;
                    kv(f, "node", node)?;
                    kv(f, "at_ms", at_ms)?;
                }
                FaultSpec::Restart { node, at_ms } => {
                    kv(f, "kind", Quoted("restart"))?;
                    kv(f, "node", node)?;
                    kv(f, "at_ms", at_ms)?;
                }
                FaultSpec::Partition { side_a, from_ms, until_ms } => {
                    kv(f, "kind", Quoted("partition"))?;
                    kv(f, "side_a", node_set(side_a))?;
                    kv(f, "from_ms", from_ms)?;
                    kv(f, "until_ms", until_ms)?;
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
                    kv(f, "kind", Quoted("noise"))?;
                    kv(f, "drop", format_args!("{drop:?}"))?;
                    kv(f, "duplicate", format_args!("{duplicate:?}"))?;
                    kv(f, "reorder", format_args!("{reorder:?}"))?;
                    kv(f, "reorder_min_us", reorder_min_us)?;
                    kv(f, "reorder_max_us", reorder_max_us)?;
                    kv(f, "from_ms", from_ms)?;
                    kv(f, "until_ms", until_ms)?;
                }
            }
        }
        writeln!(f, "\n[run]")?;
        kv(f, "limit_ms", self.run.limit_ms)?;
        if let Some(v) = self.run.warmup_ms {
            kv(f, "warmup_ms", v)?;
        }
        if let Some(v) = self.run.window_ms {
            kv(f, "window_ms", v)?;
        }
        writeln!(f, "\n[expect]")?;
        kv(f, "audit", self.expect.audit)?;
        kv(f, "all_sends_ok", self.expect.all_sends_ok)?;
        if let Some(v) = self.expect.min_delivered {
            kv(f, "min_delivered", v)?;
        }
        if let Some(v) = self.expect.live_members {
            kv(f, "live_members", v)?;
        }
        if let Some(v) = self.expect.min_rate {
            kv(f, "min_rate", format_args!("{v:?}"))?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The knob table
// ---------------------------------------------------------------------

/// One `[[group]]` knob: its key, its kind (a range sees the group's
/// member count), the setting it needs made first, and its [`Field`].
struct Knob(&'static str, Kind<u64>, Option<Needs>, Field);

/// A setting a knob needs made first: as its error names it, and the
/// test for it.
type Needs = (&'static str, fn(&Knobs) -> bool);

/// A knob's value on the group's [`Knobs`] (`None` when unset), and
/// how it applies to the [`GroupConfig`] the group runs with.
struct Field {
    get: fn(&Knobs) -> Option<u64>,
    set: fn(&mut Knobs, u64),
    apply: fn(&mut GroupConfig, u64),
}

/// The [`Field`] of a knob kept as `Knobs::$f`, applied as it is to
/// `GroupConfig::$f` or else by `$apply`.
macro_rules! field {
    ($f:ident) => {
        field!($f, |c, v| c.$f = v as _)
    };
    ($f:ident, $apply:expr) => {
        Field { get: |k| k.$f.map(|v| v as u64), set: |k, v| k.$f = Some(v as _), apply: $apply }
    };
    (bool $f:ident) => {
        Field {
            get: |k| k.$f.map(u64::from),
            set: |k, v| k.$f = Some(v != 0),
            apply: |c, v| c.$f = v != 0,
        }
    };
}

const BATCHING: Needs = ("batching = true", |k| k.batching == Some(true));
const DYNAMIC: Needs =
    ("method = \"dynamic\"", |k| matches!(k.method, Some(Method::Dynamic { .. })));
const POSITIVE: Kind<u64> = Uint(|_| (1, u64::MAX), positive);

/// The `[[group]]` knobs, in canonical print order. Parsing, range
/// checks, printing and [`GroupSpec::config`] all walk this table: a
/// knob is one [`Knobs`] field and one row here.
const KNOBS: &[Knob] = &[
    Knob("method", Choice(&["pb", "bb", "dynamic"]), None, METHOD),
    Knob("bb_threshold", Uint(|_| (0, MAX_PAYLOAD as u64), out_of_range), Some(DYNAMIC), THRESHOLD),
    Knob("resilience", Uint(|&m| (0, m - 1), needs_members), None, field!(resilience)),
    Knob("send_window", Uint(|_| (1, 64), in_range), None, field!(send_window)),
    Knob("batching", Bool, None, BATCH),
    Knob(
        "batch_max",
        Uint(|_| (2, 64), in_range),
        Some(BATCHING),
        field!(batch_max, |c, v| {
            if let BatchPolicy::On { max_batch, .. } = &mut c.batch {
                *max_batch = v as usize;
            }
        }),
    ),
    Knob(
        "batch_flush_us",
        POSITIVE,
        Some(BATCHING),
        field!(batch_flush_us, |c, v| {
            if let BatchPolicy::On { flush_us, .. } = &mut c.batch {
                *flush_us = v;
            }
        }),
    ),
    Knob("robust_repair", Bool, None, field!(bool robust_repair)),
    Knob("sync_interval_us", POSITIVE, None, field!(sync_interval_us)),
    Knob("sync_round_us", POSITIVE, None, field!(sync_round_us)),
    Knob("status_stagger_us", POSITIVE, None, field!(status_stagger_us)),
    Knob(
        "history_cap",
        Uint(|_| (16, MAX_HISTORY), at_least_at_most),
        None,
        field!(history_cap, |c, v| {
            c.history_cap = v as usize;
            c.history_high_water = c.history_cap * 3 / 4;
        }),
    ),
    Knob("auto_reset", Bool, None, field!(bool auto_reset)),
    Knob(
        "auto_reset_min_members",
        Uint(|&m| (1, m), in_range),
        None,
        field!(auto_reset_min_members),
    ),
];

/// The methods in the order `method` spells them. A dynamic method
/// starts at the default threshold, which `bb_threshold` sets.
const METHODS: [Method; 3] = [Method::Pb, Method::Bb, Method::Dynamic { bb_threshold: 256 }];

/// `method`: the index of its spelling.
const METHOD: Field = Field {
    get: |k| {
        k.method.map(|m| match m {
            Method::Pb => 0,
            Method::Bb => 1,
            Method::Dynamic { .. } => 2,
        })
    },
    set: |k, i| k.method = Some(METHODS[i as usize]),
    apply: |c, i| c.method = METHODS[i as usize],
};

/// `bb_threshold`: kept inside a dynamic method.
const THRESHOLD: Field = Field {
    get: |k| match k.method {
        Some(Method::Dynamic { bb_threshold }) => Some(bb_threshold.into()),
        _ => None,
    },
    set: |k, v| k.method = Some(Method::Dynamic { bb_threshold: v as u32 }),
    apply: |c, v| c.method = Method::Dynamic { bb_threshold: v as u32 },
};

/// `batching`: on is an 8-message batch flushed after 200 µs, which
/// `batch_max` and `batch_flush_us` change; off keeps the base's.
const BATCH: Field = Field {
    get: |k| k.batching.map(u64::from),
    set: |k, on| k.batching = Some(on != 0),
    apply: |c, on| {
        if on != 0 {
            c.batch = BatchPolicy::On { max_batch: 8, flush_us: 200 };
        }
    },
};

fn positive(key: &str, _: u64, _: u64, _: u64) -> String {
    format!("`{key}` must be > 0")
}

fn out_of_range(key: &str, v: u64, _: u64, _: u64) -> String {
    format!("`{key}` out of range: {v}")
}

fn needs_members(key: &str, r: u64, _: u64, hi: u64) -> String {
    format!("`{key}` = {r} needs at least {} members, group has {}", r + 1, hi + 1)
}

fn at_least_at_most(key: &str, v: u64, lo: u64, hi: u64) -> String {
    if v < lo {
        format!("`{key}` must be ≥ {lo}, got {v}")
    } else {
        format!("`{key}` must be ≤ {hi}, got {v}")
    }
}

/// Reads the knobs a `[[group]]` of `members` sets, row by row: a
/// value's type, then what it needs set first, then its range.
fn parse_knobs(g: &mut Keys, members: usize) -> Result<Knobs, Error> {
    let mut k = Knobs::default();
    for Knob(key, kind, needs, field) in KNOBS {
        let Some((v, line)) = kind.read(g, key)? else { continue };
        if let Some((what, _)) = needs.filter(|(_, holds)| !holds(&k)) {
            return Err(Error::at(line, format!("`{key}` needs `{what}`")));
        }
        (field.set)(&mut k, kind.check(key, (v, line), &(members as u64))?);
    }
    Ok(k)
}

/// Emits a node set: a `"a..b"` range when contiguous and ascending,
/// an explicit list otherwise.
fn node_set(set: &[usize]) -> String {
    let contiguous =
        set.len() > 1 && set.windows(2).all(|w| w[1] == w[0] + 1);
    if contiguous {
        format!("\"{}..{}\"", set[0], set[set.len() - 1] + 1)
    } else {
        let items: Vec<String> = set.iter().map(|n| n.to_string()).collect();
        format!("[{}]", items.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::tests::ends;

    /// A one-group scenario over eight nodes, `lines` closing its
    /// `[[group]]`, and the line number of the last one.
    fn group_with(lines: &[&str]) -> (String, usize) {
        let mut text =
            String::from("name = \"walk\"\nseed = 1\n[topology]\nnodes = 8\n[[group]]\nid = 1\nmembers = \"0..8\"\n");
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        let last = text.lines().count();
        (text, last)
    }

    /// Every knob reaches the configuration its group runs with.
    #[test]
    fn every_knob_applies_to_the_group_config() {
        let (text, _) = group_with(&[
            "method = \"dynamic\"",
            "bb_threshold = 999",
            "resilience = 3",
            "send_window = 5",
            "batching = true",
            "batch_max = 7",
            "batch_flush_us = 333",
            "robust_repair = true",
            "sync_interval_us = 123456",
            "sync_round_us = 23456",
            "status_stagger_us = 77",
            "history_cap = 400",
            "auto_reset = true",
            "auto_reset_min_members = 2",
        ]);
        let plan = ScenarioPlan::parse(&text).expect("every knob set");
        let c = plan.groups[0].config(1, 0, Admission::Immediate);
        assert_eq!(c.method, Method::Dynamic { bb_threshold: 999 });
        assert_eq!((c.resilience, c.send_window), (3, 5));
        assert_eq!(c.batch, BatchPolicy::On { max_batch: 7, flush_us: 333 });
        assert!(c.robust_repair && c.auto_reset);
        assert_eq!((c.sync_interval_us, c.sync_round_us, c.status_stagger_us), (123456, 23456, 77));
        assert_eq!((c.history_cap, c.history_high_water), (400, 300));
        assert_eq!(c.auto_reset_min_members, 2);
        let base = plan.groups[0].clone();
        let off = GroupSpec { knobs: Knobs { batching: Some(false), ..Knobs::default() }, ..base };
        assert_eq!(off.config(1, 0, Admission::Immediate).batch, BatchPolicy::Off);
    }

    /// Every knob of the table, at each end of its range (every
    /// spelling, both booleans), survives parse → `to_toml` → parse
    /// with its value, and a value just outside the range is rejected
    /// on the knob's own line.
    #[test]
    fn every_knob_round_trips_at_its_ends_and_is_rejected_past_them() {
        for Knob(key, kind, needs, field) in KNOBS {
            let first = needs.map(|(what, _)| what);
            let (fit, past) = ends(kind, &8);
            for (v, code) in fit {
                let line = format!("{key} = {v}");
                let (text, _) = group_with(&[first.unwrap_or(""), &line]);
                let p1 = ScenarioPlan::parse(&text).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!((field.get)(&p1.groups[0].knobs), Some(code), "{line}");
                let canon = p1.to_toml();
                assert!(canon.contains(&format!("\n{line}\n")), "{line} not printed:\n{canon}");
                let p2 = ScenarioPlan::parse(&canon).unwrap_or_else(|e| panic!("{line}: {e}"));
                assert_eq!(p1, p2, "{line}: the round trip changed the plan:\n{canon}");
            }
            for v in past {
                let line = format!("{key} = {v}");
                let (text, last) = group_with(&[first.unwrap_or(""), &line]);
                let err = ScenarioPlan::parse(&text).expect_err(&line);
                assert_eq!(err.line, last, "{line}: {err}");
            }
        }
    }
}
