//! The typed scenario schema: validation of a parsed document into a
//! runnable [`ScenarioPlan`], and the canonical serializer back to the
//! file format.
//!
//! The schema layer is deliberately strict (DESIGN.md §10): every key
//! is checked against the known set, every member/seqno/window against
//! its valid range, and every rejection names the offending **line**.
//! A scenario file is a test artifact — a typo that silently changed
//! nothing would be a test that silently stopped testing.
//!
//! [`ScenarioPlan::to_toml`] emits a canonical document (resolved
//! defaults spelled out, contiguous member sets as `"a..b"` ranges)
//! that parses back to an equal plan; the round-trip property tests in
//! `tests/parser_roundtrip.rs` hold the two directions together.

use amoeba_core::{BatchPolicy, GroupConfig, Method};
use amoeba_shard::fault_tolerant_config;

use crate::toml::{self, Doc, Entry, Table, Value};
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

/// How members are admitted during formation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// All joins submitted at t = 0, exactly like the paper-scale bench
    /// harnesses (`crates/bench`). Correct for small groups; a join
    /// storm at hundreds of members overruns the sequencer's rx ring.
    Immediate,
    /// The scale policy (DESIGN.md §10): joins scheduled on one global
    /// quadratic timetable (slot `1 ms + 17 µs × members-so-far`,
    /// interleaved across groups because they share the Ethernet), and
    /// per-group timer de-phasing.
    Staggered,
}

impl Admission {
    fn as_str(self) -> &'static str {
        match self {
            Admission::Immediate => "immediate",
            Admission::Staggered => "staggered",
        }
    }
}

/// Broadcast method selection (mirrors [`amoeba_core::Method`], which
/// does not itself know scenario-file spellings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodSpec {
    /// PB: point-to-point to the sequencer, sequencer multicasts.
    Pb,
    /// BB: sender multicasts, sequencer multicasts an accept.
    Bb,
    /// Per-message choice by payload size.
    Dynamic {
        /// Payload size (bytes) at which BB takes over.
        bb_threshold: u32,
    },
}

impl MethodSpec {
    fn to_method(self) -> Method {
        match self {
            MethodSpec::Pb => Method::Pb,
            MethodSpec::Bb => Method::Bb,
            MethodSpec::Dynamic { bb_threshold } => Method::Dynamic { bb_threshold },
        }
    }
}

/// Optional [`GroupConfig`] overrides a group may set. `None` keeps
/// the base (default or scale-derived) value.
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
        let k = &self.knobs;
        let mut c = match self.base {
            ConfigBase::Paper => GroupConfig::paper(),
            ConfigBase::Scaled => GroupConfig::scaled_for_world(self.members.len(), groups),
            ConfigBase::FaultTolerant => fault_tolerant_config(self.members.len(), groups, 1),
        };
        if let Some(m) = k.method {
            c.method = m.to_method();
        }
        if let Some(r) = k.resilience {
            c.resilience = r;
        }
        if let Some(w) = k.send_window {
            c.send_window = w;
        }
        if k.batching.unwrap_or(false) {
            c.batch = BatchPolicy::On {
                max_batch: k.batch_max.unwrap_or(8),
                flush_us: k.batch_flush_us.unwrap_or(200),
            };
        }
        if let Some(rr) = k.robust_repair {
            c.robust_repair = rr;
        }
        if let Some(v) = k.sync_interval_us {
            c.sync_interval_us = v;
        }
        if let Some(v) = k.sync_round_us {
            c.sync_round_us = v;
        }
        if let Some(v) = k.status_stagger_us {
            c.status_stagger_us = v;
        }
        if let Some(v) = k.history_cap {
            c.history_cap = v;
            c.history_high_water = v * 3 / 4;
        }
        if let Some(v) = k.auto_reset {
            c.auto_reset = v;
        }
        if let Some(v) = k.auto_reset_min_members {
            c.auto_reset_min_members = v;
        }
        if admission == Admission::Staggered {
            // De-phase the groups' periodic machinery: same-length
            // sync intervals armed at the same instant keep every
            // group's round aligned forever, and same stagger quanta
            // put overlapping rounds' replies on one microsecond grid
            // (chronic collisions, not one-off). Same policy as the
            // scale probe; measured in DESIGN.md §10.
            c.sync_interval_us += g as u64 * (c.sync_round_us / 4);
            c.status_stagger_us += 53 * g as u64;
        }
        c
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
// Typed extraction with unknown-key rejection
// ---------------------------------------------------------------------

/// A [`Table`] reader that tracks which keys were consumed so the
/// leftovers can be rejected by name and line. Shared with the shard
/// scenario schema (`crate::shard`).
pub(crate) struct Keys<'a> {
    section: &'a str,
    table: &'a Table,
    used: Vec<bool>,
}

impl<'a> Keys<'a> {
    pub(crate) fn new(section: &'a str, table: &'a Table) -> Self {
        Keys { section, table, used: vec![false; table.keys.len()] }
    }

    fn take(&mut self, key: &str) -> Option<&'a Entry> {
        for (i, (k, e)) in self.table.keys.iter().enumerate() {
            if k == key {
                self.used[i] = true;
                return Some(e);
            }
        }
        None
    }

    fn type_err(&self, key: &str, e: &Entry, want: &str) -> Error {
        Error::at(
            e.line,
            format!("`{key}` in {} must be {want}, got {}", self.section, e.value.kind()),
        )
    }

    fn int(&mut self, key: &str) -> Result<Option<(i64, usize)>, Error> {
        match self.take(key) {
            None => Ok(None),
            Some(e) => match e.value {
                Value::Int(n) => Ok(Some((n, e.line))),
                _ => Err(self.type_err(key, e, "an integer")),
            },
        }
    }

    /// A non-negative integer fitting `u64`.
    pub(crate) fn uint(&mut self, key: &str) -> Result<Option<(u64, usize)>, Error> {
        match self.int(key)? {
            None => Ok(None),
            Some((n, line)) if n >= 0 => Ok(Some((n as u64, line))),
            Some((n, line)) => {
                Err(Error::at(line, format!("`{key}` in {} must be ≥ 0, got {n}", self.section)))
            }
        }
    }

    fn float(&mut self, key: &str) -> Result<Option<(f64, usize)>, Error> {
        match self.take(key) {
            None => Ok(None),
            Some(e) => match e.value {
                Value::Float(f) => Ok(Some((f, e.line))),
                Value::Int(n) => Ok(Some((n as f64, e.line))),
                _ => Err(self.type_err(key, e, "a number")),
            },
        }
    }

    pub(crate) fn boolean(&mut self, key: &str) -> Result<Option<(bool, usize)>, Error> {
        match self.take(key) {
            None => Ok(None),
            Some(e) => match e.value {
                Value::Bool(b) => Ok(Some((b, e.line))),
                _ => Err(self.type_err(key, e, "a boolean")),
            },
        }
    }

    pub(crate) fn string(&mut self, key: &str) -> Result<Option<(&'a str, usize)>, Error> {
        match self.take(key) {
            None => Ok(None),
            Some(e) => match &e.value {
                Value::Str(s) => Ok(Some((s.as_str(), e.line))),
                _ => Err(self.type_err(key, e, "a string")),
            },
        }
    }

    /// A node set: either a `"a..b"` half-open range string or an
    /// explicit integer list. Bounds-checked against `nodes`.
    fn node_set(&mut self, key: &str, nodes: usize) -> Result<Option<(Vec<usize>, usize)>, Error> {
        let Some(e) = self.take(key) else { return Ok(None) };
        let line = e.line;
        let set = match &e.value {
            Value::Str(s) => {
                let (a, b) = s
                    .split_once("..")
                    .ok_or_else(|| Error::at(line, format!("`{key}`: range must look like \"0..8\"")))?;
                let a: usize = a.trim().parse().map_err(|_| {
                    Error::at(line, format!("`{key}`: bad range start `{}`", a.trim()))
                })?;
                let b: usize = b.trim().parse().map_err(|_| {
                    Error::at(line, format!("`{key}`: bad range end `{}`", b.trim()))
                })?;
                if a >= b {
                    return Err(Error::at(line, format!("`{key}`: empty range {a}..{b}")));
                }
                (a..b).collect()
            }
            Value::List(items) => {
                let mut set = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        Value::Int(n) if *n >= 0 => set.push(*n as usize),
                        _ => {
                            return Err(Error::at(
                                line,
                                format!("`{key}`: list entries must be non-negative integers"),
                            ))
                        }
                    }
                }
                if set.is_empty() {
                    return Err(Error::at(line, format!("`{key}`: empty node list")));
                }
                set
            }
            _ => return Err(self.type_err(key, e, "a \"a..b\" range or an integer list")),
        };
        for &n in &set {
            if n >= nodes {
                return Err(Error::at(
                    line,
                    format!("`{key}`: node {n} out of range (topology has {nodes} nodes)"),
                ));
            }
        }
        let mut dedup = set.clone();
        dedup.sort_unstable();
        dedup.dedup();
        if dedup.len() != set.len() {
            return Err(Error::at(line, format!("`{key}`: duplicate node")));
        }
        Ok(Some((set, line)))
    }

    /// Rejects any key not consumed by the schema.
    pub(crate) fn finish(self) -> Result<(), Error> {
        for (i, (k, e)) in self.table.keys.iter().enumerate() {
            if !self.used[i] {
                return Err(Error::at(e.line, format!("unknown key `{k}` in {}", self.section)));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Document → plan
// ---------------------------------------------------------------------

impl ScenarioPlan {
    /// Parses and validates a scenario file.
    pub fn parse(text: &str) -> Result<ScenarioPlan, Error> {
        let doc = toml::parse(text)?;
        Self::from_doc(&doc)
    }

    fn from_doc(doc: &Doc) -> Result<ScenarioPlan, Error> {
        // Only known sections may appear.
        for (name, t) in &doc.tables {
            if !matches!(name.as_str(), "topology" | "run" | "expect") {
                return Err(Error::at(t.line, format!("unknown section `[{name}]`")));
            }
        }
        for (name, t) in &doc.arrays {
            if !matches!(name.as_str(), "group" | "workload" | "fault") {
                return Err(Error::at(t.line, format!("unknown section `[[{name}]]`")));
            }
        }

        let mut root = Keys::new("the top level", &doc.root);
        let (name, name_line) = root
            .string("name")?
            .map(|(s, l)| (s.to_string(), l))
            .ok_or_else(|| Error::at(1, "missing required key `name`"))?;
        if name.is_empty() {
            return Err(Error::at(name_line, "`name` must be non-empty"));
        }
        let seed = root.uint("seed")?.ok_or_else(|| Error::at(1, "missing required key `seed`"))?.0;
        root.finish()?;

        // [topology]
        let topo = doc.table("topology").ok_or_else(|| Error::at(1, "missing [topology] section"))?;
        let mut t = Keys::new("[topology]", topo);
        let (nodes, nodes_line) =
            t.uint("nodes")?.ok_or_else(|| Error::at(topo.line, "[topology] needs `nodes`"))?;
        let nodes = nodes as usize;
        if nodes == 0 || nodes > MAX_NODES {
            return Err(Error::at(
                nodes_line,
                format!("`nodes` must be in 1..={MAX_NODES}, got {nodes}"),
            ));
        }
        let admission = match t.string("admission")? {
            None => {
                if nodes > 64 {
                    Admission::Staggered
                } else {
                    Admission::Immediate
                }
            }
            Some(("immediate", _)) => Admission::Immediate,
            Some(("staggered", _)) => Admission::Staggered,
            Some((other, line)) => {
                return Err(Error::at(
                    line,
                    format!("`admission` must be \"immediate\" or \"staggered\", got \"{other}\""),
                ))
            }
        };
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
            let (id, id_line) =
                g.uint("id")?.ok_or_else(|| Error::at(gt.line, "[[group]] needs `id`"))?;
            if id == 0 {
                return Err(Error::at(id_line, "group `id` must be ≥ 1"));
            }
            if groups.iter().any(|p| p.id == id) {
                return Err(Error::at(id_line, format!("duplicate group id {id}")));
            }
            let (members, members_line) = g
                .node_set("members", nodes)?
                .ok_or_else(|| Error::at(gt.line, "[[group]] needs `members`"))?;
            for &m in &members {
                if owner[m] != usize::MAX {
                    return Err(Error::at(
                        members_line,
                        format!("node {m} is already a member of group {}", groups[owner[m]].id),
                    ));
                }
                owner[m] = groups.len();
            }
            let fault_tolerant = match g.string("config")? {
                None | Some(("default", _)) => false,
                Some(("fault_tolerant", _)) => true,
                Some((other, line)) => {
                    return Err(Error::at(
                        line,
                        format!(
                            "`config` must be \"default\" or \"fault_tolerant\", got \"{other}\""
                        ),
                    ))
                }
            };
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
            let (gid, gid_line) =
                w.uint("group")?.ok_or_else(|| Error::at(wt.line, "[[workload]] needs `group`"))?;
            let group = groups
                .iter()
                .find(|g| g.id == gid)
                .ok_or_else(|| Error::at(gid_line, format!("no group with id {gid}")))?;
            let (senders, senders_line) = w
                .node_set("senders", nodes)?
                .ok_or_else(|| Error::at(wt.line, "[[workload]] needs `senders`"))?;
            for &s in &senders {
                if !group.members.contains(&s) {
                    return Err(Error::at(
                        senders_line,
                        format!("sender {s} is not a member of group {gid}"),
                    ));
                }
            }
            let (messages, messages_line) = w
                .uint("messages")?
                .ok_or_else(|| Error::at(wt.line, "[[workload]] needs `messages`"))?;
            if messages > MAX_MESSAGES {
                return Err(Error::at(
                    messages_line,
                    format!("`messages` out of range: {messages} > {MAX_MESSAGES} (seqno budget)"),
                ));
            }
            if messages == 0 {
                continuous = true;
            } else {
                tagged = true;
            }
            let payload = match w.uint("payload")? {
                None => 0,
                Some((p, line)) => {
                    if p > MAX_PAYLOAD as u64 {
                        return Err(Error::at(
                            line,
                            format!("`payload` out of range: {p} > {MAX_PAYLOAD}"),
                        ));
                    }
                    p as u32
                }
            };
            let late = match w.uint("late")? {
                None => None,
                Some((l, line)) => {
                    if messages == 0 {
                        return Err(Error::at(line, "`late` needs a bounded workload"));
                    }
                    if l > messages {
                        return Err(Error::at(
                            line,
                            format!("`late` = {l} exceeds `messages` = {messages}"),
                        ));
                    }
                    Some(l)
                }
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
            let (kind, kind_line) =
                f.string("kind")?.ok_or_else(|| Error::at(ft.line, "[[fault]] needs `kind`"))?;
            let fault = match kind {
                "crash" | "restart" => {
                    let (node, node_line) = f
                        .uint("node")?
                        .ok_or_else(|| Error::at(ft.line, format!("{kind} needs `node`")))?;
                    let node = node as usize;
                    if node >= nodes {
                        return Err(Error::at(
                            node_line,
                            format!("`node` {node} out of range (topology has {nodes} nodes)"),
                        ));
                    }
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
                    let (from_ms, until_ms, until_line) = fault_window(&mut f, ft.line)?;
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
                    let (from_ms, until_ms, until_line) = fault_window(&mut f, ft.line)?;
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
                            Some((p, line)) => {
                                if !(0.0..=1.0).contains(&p) {
                                    return Err(Error::at(
                                        line,
                                        format!("`{key}` must be a probability in 0..=1, got {p}"),
                                    ));
                                }
                                Ok(p)
                            }
                        }
                    };
                    let drop = prob(&mut f, "drop")?;
                    let duplicate = prob(&mut f, "duplicate")?;
                    let reorder = prob(&mut f, "reorder")?;
                    let reorder_min_us = f.uint("reorder_min_us")?.map(|(v, _)| v).unwrap_or(200);
                    let reorder_max_us =
                        f.uint("reorder_max_us")?.map(|(v, _)| v).unwrap_or(10_000);
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
                other => {
                    return Err(Error::at(
                        kind_line,
                        format!(
                            "unknown fault kind \"{other}\" (crash, restart, partition, noise)"
                        ),
                    ))
                }
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
                let limit_ms = r.uint("limit_ms")?.map(|(v, _)| v).unwrap_or(60_000);
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
                let all_sends_ok = e.boolean("all_sends_ok")?.map(|(b, _)| b).unwrap_or(false);
                let min_delivered = e.uint("min_delivered")?;
                let live_members = e.uint("live_members")?;
                let min_rate = match e.float("min_rate")? {
                    None => None,
                    Some((_, line)) if !continuous => {
                        return Err(Error::at(line, "`min_rate` needs a continuous workload"))
                    }
                    Some((r, line)) => {
                        if r < 0.0 {
                            return Err(Error::at(line, "`min_rate` must be ≥ 0"));
                        }
                        Some(r)
                    }
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
                if let Some((m, line)) = min_delivered {
                    if !continuous && m > ceiling {
                        return Err(Error::at(
                            line,
                            format!(
                                "`min_delivered` = {m} exceeds the {ceiling} deliveries this \
                                 scenario can produce"
                            ),
                        ));
                    }
                }
                if let Some((l, line)) = live_members {
                    if l as usize > nodes {
                        return Err(Error::at(
                            line,
                            format!("`live_members` = {l} exceeds the {nodes}-node topology"),
                        ));
                    }
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
        let mut s = String::new();
        let p = &mut s;
        use std::fmt::Write;
        writeln!(p, "name = \"{}\"", toml::escape(&self.name)).unwrap();
        writeln!(p, "seed = {}", self.seed).unwrap();
        writeln!(p).unwrap();
        writeln!(p, "[topology]").unwrap();
        writeln!(p, "nodes = {}", self.nodes).unwrap();
        writeln!(p, "admission = \"{}\"", self.admission.as_str()).unwrap();
        for g in &self.groups {
            writeln!(p).unwrap();
            writeln!(p, "[[group]]").unwrap();
            writeln!(p, "id = {}", g.id).unwrap();
            writeln!(p, "members = {}", node_set(&g.members)).unwrap();
            writeln!(p, "scaled = {}", g.base == ConfigBase::Scaled).unwrap();
            if g.base == ConfigBase::FaultTolerant {
                writeln!(p, "config = \"fault_tolerant\"").unwrap();
            }
            let k = &g.knobs;
            if let Some(m) = k.method {
                match m {
                    MethodSpec::Pb => writeln!(p, "method = \"pb\"").unwrap(),
                    MethodSpec::Bb => writeln!(p, "method = \"bb\"").unwrap(),
                    MethodSpec::Dynamic { bb_threshold } => {
                        writeln!(p, "method = \"dynamic\"").unwrap();
                        writeln!(p, "bb_threshold = {bb_threshold}").unwrap();
                    }
                }
            }
            let mut num = |key: &str, v: Option<u64>| {
                if let Some(v) = v {
                    writeln!(p, "{key} = {v}").unwrap();
                }
            };
            num("resilience", k.resilience.map(u64::from));
            num("send_window", k.send_window.map(|v| v as u64));
            if let Some(b) = k.batching {
                writeln!(p, "batching = {b}").unwrap();
            }
            let mut num = |key: &str, v: Option<u64>| {
                if let Some(v) = v {
                    writeln!(p, "{key} = {v}").unwrap();
                }
            };
            num("batch_max", k.batch_max.map(|v| v as u64));
            num("batch_flush_us", k.batch_flush_us);
            if let Some(b) = k.robust_repair {
                writeln!(p, "robust_repair = {b}").unwrap();
            }
            let mut num = |key: &str, v: Option<u64>| {
                if let Some(v) = v {
                    writeln!(p, "{key} = {v}").unwrap();
                }
            };
            num("sync_interval_us", k.sync_interval_us);
            num("sync_round_us", k.sync_round_us);
            num("status_stagger_us", k.status_stagger_us);
            num("history_cap", k.history_cap.map(|v| v as u64));
            if let Some(b) = k.auto_reset {
                writeln!(p, "auto_reset = {b}").unwrap();
            }
            if let Some(v) = k.auto_reset_min_members {
                writeln!(p, "auto_reset_min_members = {v}").unwrap();
            }
        }
        for w in &self.workloads {
            writeln!(p).unwrap();
            writeln!(p, "[[workload]]").unwrap();
            writeln!(p, "group = {}", w.group).unwrap();
            writeln!(p, "senders = {}", node_set(&w.senders)).unwrap();
            writeln!(p, "messages = {}", w.messages).unwrap();
            writeln!(p, "payload = {}", w.payload).unwrap();
            if let Some(l) = w.late {
                writeln!(p, "late = {l}").unwrap();
            }
        }
        for f in &self.faults {
            writeln!(p).unwrap();
            writeln!(p, "[[fault]]").unwrap();
            match f {
                FaultSpec::Crash { node, at_ms } => {
                    writeln!(p, "kind = \"crash\"").unwrap();
                    writeln!(p, "node = {node}").unwrap();
                    writeln!(p, "at_ms = {at_ms}").unwrap();
                }
                FaultSpec::Restart { node, at_ms } => {
                    writeln!(p, "kind = \"restart\"").unwrap();
                    writeln!(p, "node = {node}").unwrap();
                    writeln!(p, "at_ms = {at_ms}").unwrap();
                }
                FaultSpec::Partition { side_a, from_ms, until_ms } => {
                    writeln!(p, "kind = \"partition\"").unwrap();
                    writeln!(p, "side_a = {}", node_set(side_a)).unwrap();
                    writeln!(p, "from_ms = {from_ms}").unwrap();
                    writeln!(p, "until_ms = {until_ms}").unwrap();
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
                    writeln!(p, "kind = \"noise\"").unwrap();
                    writeln!(p, "drop = {drop:?}").unwrap();
                    writeln!(p, "duplicate = {duplicate:?}").unwrap();
                    writeln!(p, "reorder = {reorder:?}").unwrap();
                    writeln!(p, "reorder_min_us = {reorder_min_us}").unwrap();
                    writeln!(p, "reorder_max_us = {reorder_max_us}").unwrap();
                    writeln!(p, "from_ms = {from_ms}").unwrap();
                    writeln!(p, "until_ms = {until_ms}").unwrap();
                }
            }
        }
        writeln!(p).unwrap();
        writeln!(p, "[run]").unwrap();
        writeln!(p, "limit_ms = {}", self.run.limit_ms).unwrap();
        if let Some(v) = self.run.warmup_ms {
            writeln!(p, "warmup_ms = {v}").unwrap();
        }
        if let Some(v) = self.run.window_ms {
            writeln!(p, "window_ms = {v}").unwrap();
        }
        writeln!(p).unwrap();
        writeln!(p, "[expect]").unwrap();
        writeln!(p, "audit = {}", self.expect.audit).unwrap();
        writeln!(p, "all_sends_ok = {}", self.expect.all_sends_ok).unwrap();
        if let Some(v) = self.expect.min_delivered {
            writeln!(p, "min_delivered = {v}").unwrap();
        }
        if let Some(v) = self.expect.live_members {
            writeln!(p, "live_members = {v}").unwrap();
        }
        if let Some(v) = self.expect.min_rate {
            writeln!(p, "min_rate = {v:?}").unwrap();
        }
        s
    }
}

/// Parses a fault's `from_ms`/`until_ms` window.
pub(crate) fn fault_window(f: &mut Keys, section_line: usize) -> Result<(u64, u64, usize), Error> {
    let (from_ms, _) =
        f.uint("from_ms")?.ok_or_else(|| Error::at(section_line, "fault window needs `from_ms`"))?;
    let (until_ms, until_line) = f
        .uint("until_ms")?
        .ok_or_else(|| Error::at(section_line, "fault window needs `until_ms`"))?;
    if until_ms <= from_ms {
        return Err(Error::at(
            until_line,
            format!("empty fault window: until_ms = {until_ms} ≤ from_ms = {from_ms}"),
        ));
    }
    Ok((from_ms, until_ms, until_line))
}

fn parse_knobs(g: &mut Keys, members: usize) -> Result<Knobs, Error> {
    let mut k = Knobs::default();
    let bb_threshold = g.uint("bb_threshold")?;
    k.method = match g.string("method")? {
        None => {
            if let Some((_, line)) = bb_threshold {
                return Err(Error::at(line, "`bb_threshold` needs `method = \"dynamic\"`"));
            }
            None
        }
        Some(("pb", line)) | Some(("bb", line)) if bb_threshold.is_some() => {
            let _ = line;
            return Err(Error::at(
                bb_threshold.expect("checked").1,
                "`bb_threshold` needs `method = \"dynamic\"`",
            ));
        }
        Some(("pb", _)) => Some(MethodSpec::Pb),
        Some(("bb", _)) => Some(MethodSpec::Bb),
        Some(("dynamic", _)) => Some(MethodSpec::Dynamic {
            bb_threshold: match bb_threshold {
                None => 256,
                Some((t, line)) => {
                    if t > MAX_PAYLOAD as u64 {
                        return Err(Error::at(line, format!("`bb_threshold` out of range: {t}")));
                    }
                    t as u32
                }
            },
        }),
        Some((other, line)) => {
            return Err(Error::at(
                line,
                format!("`method` must be \"pb\", \"bb\" or \"dynamic\", got \"{other}\""),
            ))
        }
    };
    k.resilience = match g.uint("resilience")? {
        None => None,
        Some((r, line)) => {
            if r as usize >= members {
                return Err(Error::at(
                    line,
                    format!("`resilience` = {r} needs at least {} members, group has {members}", r + 1),
                ));
            }
            Some(r as u32)
        }
    };
    k.send_window = match g.uint("send_window")? {
        None => None,
        Some((w, line)) => {
            if w == 0 || w > 64 {
                return Err(Error::at(line, format!("`send_window` must be in 1..=64, got {w}")));
            }
            Some(w as usize)
        }
    };
    k.batching = g.boolean("batching")?.map(|(b, _)| b);
    k.batch_max = match g.uint("batch_max")? {
        None => None,
        Some((v, line)) => {
            if k.batching != Some(true) {
                return Err(Error::at(line, "`batch_max` needs `batching = true`"));
            }
            if !(2..=64).contains(&v) {
                return Err(Error::at(line, format!("`batch_max` must be in 2..=64, got {v}")));
            }
            Some(v as usize)
        }
    };
    k.batch_flush_us = match g.uint("batch_flush_us")? {
        None => None,
        Some((v, line)) => {
            if k.batching != Some(true) {
                return Err(Error::at(line, "`batch_flush_us` needs `batching = true`"));
            }
            Some(v)
        }
    };
    k.robust_repair = g.boolean("robust_repair")?.map(|(b, _)| b);
    let positive = |field: Option<(u64, usize)>, key: &str| -> Result<Option<u64>, Error> {
        match field {
            None => Ok(None),
            Some((0, line)) => Err(Error::at(line, format!("`{key}` must be > 0"))),
            Some((v, _)) => Ok(Some(v)),
        }
    };
    k.sync_interval_us = positive(g.uint("sync_interval_us")?, "sync_interval_us")?;
    k.sync_round_us = positive(g.uint("sync_round_us")?, "sync_round_us")?;
    k.status_stagger_us = positive(g.uint("status_stagger_us")?, "status_stagger_us")?;
    k.history_cap = match g.uint("history_cap")? {
        None => None,
        Some((v, line)) => {
            if v < 16 {
                return Err(Error::at(line, format!("`history_cap` must be ≥ 16, got {v}")));
            }
            Some(v as usize)
        }
    };
    k.auto_reset = g.boolean("auto_reset")?.map(|(b, _)| b);
    k.auto_reset_min_members = match g.uint("auto_reset_min_members")? {
        None => None,
        Some((v, line)) => {
            if v == 0 || v as usize > members {
                return Err(Error::at(
                    line,
                    format!("`auto_reset_min_members` must be in 1..={members}, got {v}"),
                ));
            }
            Some(v as usize)
        }
    };
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
