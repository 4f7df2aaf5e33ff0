//! The sharded-serving scenario schema and runner (DESIGN.md §11):
//! declarative files describing a whole sharded cluster — shard count,
//! replication, a routed write workload, online reshard steps, crash
//! and partition faults — executed deterministically on [`SimCluster`].
//!
//! A shard scenario is recognized by its `[shard]` section; the
//! classic schema ([`crate::plan`]) and this one share the file format
//! and the strictness rules (unknown keys rejected by line), but
//! describe different worlds: there a hand-laid topology of groups and
//! senders, here a serving layer whose topology is derived from the
//! shard shape.
//!
//! ```toml
//! name = "shard_split_under_load"
//! seed = 13
//!
//! [shard]
//! shards = 2        # initial data groups owning one uniform range each
//! members = 3       # replicas per data group
//! spares = 1        # extra, initially-empty data groups
//! ops = 96          # routed puts (round-robin over `keys` keys)
//! keys = 16
//! window = 8        # max routed ops in flight
//!
//! [[reshard]]       # steps run in file order, each gated on at_op
//! kind = "split"    # split | rebalance | merge
//! shard = 0         # initial uniform-boundary index the step targets
//! to = 3            # destination group (split/rebalance only)
//! at_op = 32        # start once this many puts are acked
//!
//! [[fault]]
//! kind = "crash"
//! group = 1         # data group id
//! member = 2        # member index (never the gateway)
//! at_op = 16
//!
//! [[fault]]
//! kind = "partition" # cut one member off for a window
//! group = 1
//! member = 2
//! from_ms = 50       # relative to workload start
//! until_ms = 400
//! ```
//!
//! Determinism contract: like [`crate::run::run_plan`], the outcome —
//! including its digest — is a pure function of the file. The driver
//! advances the world in 1 ms quanta and gates every action (submission
//! refill, reshard steps, crashes) on deterministic counters, never on
//! wall clock; partition windows are simulated time from workload start.

use amoeba_core::audit::EndFate;
use amoeba_net::{FaultPlan, HostSet, Partition};
use amoeba_shard::{
    fault_tolerant_config, lost_acked_writes, op, Cluster, MoveController, ReshardGoal, ShardMap,
    ShardSpec, SimCluster,
};

use std::fmt::{self, Formatter};

use crate::plan::{MAX_MESSAGES, MAX_NODES};
use crate::run::Fnv;
use crate::schema::Kind::{self, Choice, Uint};
use crate::schema::{header, in_range, kv, within, Keys, Quoted};
use crate::toml::{self, Doc};
use crate::Error;

/// Base configuration the cluster's groups run with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardConfig {
    /// `GroupConfig::scaled_for_world` defaults (plus de-phasing).
    Default,
    /// The chaos-proven fault-tolerant knob set
    /// ([`fault_tolerant_config`]): snappy failure detection, robust
    /// repair, auto-reset. Required when the scenario schedules crashes.
    FaultTolerant,
}

/// One reshard step, gated on the acked-op counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReshardStep {
    /// What to do with the targeted range.
    pub goal: ReshardGoalSpec,
    /// Start once this many puts are acked (and all earlier steps are
    /// done — steps run strictly in file order).
    pub at_op: u64,
}

/// A reshard goal in file terms: ranges are named by their *initial*
/// uniform-boundary index, resolved against the live map at step start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReshardGoalSpec {
    /// Split the range starting at boundary `shard` at its midpoint;
    /// the upper half moves to group `to`.
    Split {
        /// Initial uniform-boundary index (0-based).
        shard: usize,
        /// Destination data group id.
        to: u64,
    },
    /// Move the whole range starting at boundary `shard` to `to`.
    Rebalance {
        /// Initial uniform-boundary index (0-based).
        shard: usize,
        /// Destination data group id.
        to: u64,
    },
    /// Merge the range starting at boundary `shard` into its
    /// predecessor (both must be owned by the same group by then).
    Merge {
        /// Initial uniform-boundary index (must be ≥ 1).
        shard: usize,
    },
}

/// One scheduled fault against member `member` (never the gateway) of
/// data group `group`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFault {
    /// The member dies silently once `at_op` puts are acked.
    Crash {
        /// Data group id.
        group: u64,
        /// Member index within the group.
        member: usize,
        /// Crash once this many puts are acked.
        at_op: u64,
    },
    /// The member is cut off from every other host for a window of
    /// simulated time, relative to workload start.
    Partition {
        /// Data group id.
        group: u64,
        /// Member index within the group.
        member: usize,
        /// Window start, ms.
        from_ms: u64,
        /// Window end (exclusive), ms.
        until_ms: u64,
    },
}

/// What the scenario asserts about its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardExpect {
    /// Run the delivery audit over every group and require zero
    /// violations (and zero lost acked writes).
    pub audit: bool,
    /// Minimum puts acked (default: all of them).
    pub min_acked: u64,
    /// Exact number of ranges in the final map, when pinned.
    pub final_shards: Option<usize>,
}

/// A fully validated, runnable shard scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// Scenario name (reported, and part of the digest).
    pub name: String,
    /// World seed.
    pub seed: u64,
    /// Initial owning data groups.
    pub shards: usize,
    /// Replicas per data group.
    pub members: usize,
    /// Meta-group replicas.
    pub meta_members: usize,
    /// Extra, initially-empty data groups.
    pub spares: usize,
    /// Base group configuration.
    pub config: ShardConfig,
    /// Routed puts to issue.
    pub ops: u64,
    /// Distinct keys the puts cycle over.
    pub keys: u64,
    /// Value payload length, bytes.
    pub value_len: usize,
    /// Max routed ops in flight.
    pub window: usize,
    /// Reshard steps, in file order.
    pub reshards: Vec<ReshardStep>,
    /// Fault schedule, in file order.
    pub faults: Vec<ShardFault>,
    /// Simulated-time budget, ms (1 pump cycle per ms).
    pub limit_ms: u64,
    /// Assertions over the outcome.
    pub expect: ShardExpect,
}

/// What one shard scenario run produced.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The scenario's name.
    pub name: String,
    /// Order-sensitive FNV digest: per-group submission counts,
    /// delivery logs and fates, acked writes, the final map, router
    /// counters and the simulated clock. Bit-equal across replays.
    pub digest: u64,
    /// Puts acked by their owning groups.
    pub acked: u64,
    /// Router retries (nacks and aborts re-issued).
    pub retries: u64,
    /// Stale-map refreshes the router performed.
    pub map_refreshes: u64,
    /// Ranges in the final map.
    pub final_ranges: usize,
    /// Simulated clock at the end of the run, µs.
    pub now_us: u64,
    /// Audit violations plus lost-acked-write reports.
    pub violations: Vec<String>,
    /// Failed `[expect]` assertions.
    pub expect_failures: Vec<String>,
}

/// Whether `text` is a shard scenario (has a `[shard]` section). The
/// golden suite dispatches between schemas with it; syntax errors
/// answer `false` and surface from the chosen parser.
pub fn is_shard_scenario(text: &str) -> bool {
    toml::parse(text).map(|doc| doc.table("shard").is_some()).unwrap_or(false)
}

/// One `[shard]` key: its name, its kind (a range sees the plan as
/// read so far, so `keys` and `value_len` are bounded by `ops`), its
/// default (`None`: the key is required), and its field on
/// [`ShardPlan`].
struct ShardKey(&'static str, Kind<ShardPlan>, Option<fn(&ShardPlan) -> u64>, Access);

/// Reads and writes one [`ShardPlan`] field as a `u64`.
type Access = (fn(&ShardPlan) -> u64, fn(&mut ShardPlan, u64));

/// The [`Access`] of the integer field `ShardPlan::$f`.
macro_rules! access {
    ($f:ident) => {
        (|p| p.$f as u64, |p, v| p.$f = v as _)
    };
}

/// The `[shard]` keys, in canonical print order: parsing, range checks
/// and printing all walk this table.
const SHARD_KEYS: &[ShardKey] = &[
    ShardKey("shards", Uint(|_| (1, 64), in_range), None, access!(shards)),
    ShardKey("members", Uint(|_| (1, 256), in_range), None, access!(members)),
    ShardKey("meta_members", Uint(|_| (1, 9), in_range), Some(|_| 3), access!(meta_members)),
    ShardKey("spares", Uint(|_| (0, 63), in_range), Some(|_| 0), access!(spares)),
    ShardKey(
        "config",
        Choice(&["default", "fault_tolerant"]),
        Some(|_| 0),
        (
            |p| p.config as u64,
            |p, i| p.config = [ShardConfig::Default, ShardConfig::FaultTolerant][i as usize],
        ),
    ),
    ShardKey(
        "ops",
        Uint(|_| (1, MAX_MESSAGES), |k, _, lo, hi| format!("`{k}` must be in {lo}..={hi}")),
        None,
        access!(ops),
    ),
    ShardKey("keys", Uint(|p| (1, p.ops), in_range), Some(|p| p.ops.min(64)), access!(keys)),
    ShardKey("value_len", Uint(value_lens, in_range), Some(|_| 8), access!(value_len)),
    ShardKey("window", Uint(|_| (1, 64), in_range), Some(|_| 8), access!(window)),
];

/// The pads a value may take: the longest value written is `v{ops −
/// 1}-` and the pad, and the router refuses one the op text format
/// cannot carry.
fn value_lens(p: &ShardPlan) -> (u64, u64) {
    (1, (op::MAX_TOKEN - format!("v{}-", p.ops - 1).len()) as u64)
}

/// The wording of a `group`/`to` that names no data group.
fn not_a_data_group(key: &str, v: u64, lo: u64, hi: u64) -> String {
    format!("`{key}` = {v} is not a data group ({lo}..={hi})")
}

/// The wording of an op count past the scenario's `ops`.
fn exceeds_ops(key: &str, v: u64, _: u64, ops: u64) -> String {
    format!("`{key}` = {v} exceeds `ops` = {ops}")
}

impl ShardPlan {
    /// Parses and validates a shard scenario file.
    pub fn parse(text: &str) -> Result<ShardPlan, Error> {
        Self::from_doc(&toml::parse(text)?)
    }

    /// Validates a parsed document with a `[shard]` section.
    pub fn from_doc(doc: &Doc) -> Result<ShardPlan, Error> {
        let (name, seed) = header(doc, &["shard", "run", "expect"], &["reshard", "fault"])?;
        let mut plan = ShardPlan {
            name,
            seed,
            shards: 0,
            members: 0,
            meta_members: 0,
            spares: 0,
            config: ShardConfig::Default,
            ops: 0,
            keys: 0,
            value_len: 0,
            window: 0,
            reshards: Vec::new(),
            faults: Vec::new(),
            limit_ms: 60_000,
            expect: ShardExpect { audit: true, min_acked: 0, final_shards: None },
        };

        // [shard]
        let st = doc.table("shard").ok_or_else(|| Error::at(1, "missing [shard] section"))?;
        let mut s = Keys::new("[shard]", st);
        for ShardKey(key, kind, default, (_, set)) in SHARD_KEYS {
            let v = match kind.read(&mut s, key)? {
                Some(got) => kind.check(key, got, &plan)?,
                None => match default {
                    Some(default) => default(&plan),
                    None => return Err(s.missing(key)),
                },
            };
            set(&mut plan, v);
        }
        let (shards, members, ops) = (plan.shards, plan.members, plan.ops);
        if shards + plan.spares > 64 {
            return Err(Error::at(st.line, "`shards` + `spares` must be ≤ 64"));
        }
        let total = plan.meta_members + (shards + plan.spares) * members;
        if total > MAX_NODES {
            return Err(Error::at(
                st.line,
                format!("topology would have {total} nodes, the cap is {MAX_NODES}"),
            ));
        }
        s.finish()?;

        // [[reshard]]
        let data_groups = (shards + plan.spares) as u64;
        for rt in &doc.array("reshard") {
            let mut r = Keys::new("[[reshard]]", rt);
            let kind = r.kind("reshard", &["split", "rebalance", "merge"])?;
            let (shard, shard_line) = r
                .uint_in("shard", (0, shards as u64 - 1), |k, v, _, hi| {
                    format!("`{k}` = {v} out of range (initial map has {} ranges)", hi + 1)
                })?
                .ok_or_else(|| r.missing("shard"))?;
            let shard = shard as usize;
            let to = r.uint("to")?;
            let goal = match kind {
                "split" | "rebalance" => {
                    let to = to.ok_or_else(|| {
                        Error::at(rt.line, format!("reshard kind \"{kind}\" needs `to`"))
                    })?;
                    let to = within("to", to, (1, data_groups), not_a_data_group)?;
                    if kind == "split" {
                        ReshardGoalSpec::Split { shard, to }
                    } else {
                        ReshardGoalSpec::Rebalance { shard, to }
                    }
                }
                "merge" => {
                    if let Some((_, line)) = to {
                        return Err(Error::at(line, "`to` does not apply to a merge"));
                    }
                    if shard == 0 {
                        return Err(Error::at(
                            shard_line,
                            "cannot merge range 0 (it has no predecessor on the ring)",
                        ));
                    }
                    ReshardGoalSpec::Merge { shard }
                }
                _ => unreachable!("`Keys::kind` checked the spelling"),
            };
            let at_op = r.uint_in("at_op", (0, ops), exceeds_ops)?.map_or(0, |(v, _)| v);
            r.finish()?;
            plan.reshards.push(ReshardStep { goal, at_op });
        }

        // [[fault]]
        for ft in &doc.array("fault") {
            let mut f = Keys::new("[[fault]]", ft);
            let kind = f.kind("fault", &["crash", "partition"])?;
            let (group, _) = f
                .uint_in("group", (1, data_groups), not_a_data_group)?
                .ok_or_else(|| Error::at(ft.line, format!("{kind} needs `group`")))?;
            let (member, member_line) = f
                .uint_in("member", (0, members as u64 - 1), |k, v, _, hi| {
                    format!("`{k}` = {v} out of range (groups have {} members)", hi + 1)
                })?
                .ok_or_else(|| Error::at(ft.line, format!("{kind} needs `member`")))?;
            let member = member as usize;
            if member == ShardSpec::gateway_member(members) {
                return Err(Error::at(
                    member_line,
                    format!("member {member} is the gateway; a {kind} there severs routing"),
                ));
            }
            let fault = if kind == "partition" {
                let (from_ms, until_ms, _) = f.window()?;
                ShardFault::Partition { group, member, from_ms, until_ms }
            } else {
                if plan.config != ShardConfig::FaultTolerant {
                    return Err(Error::at(
                        ft.line,
                        "crashes need `config = \"fault_tolerant\"` (the stock timers take ~13 \
                         simulated seconds to give up on a dead member)",
                    ));
                }
                let at_op = f.uint_in("at_op", (0, ops), exceeds_ops)?.map_or(0, |(v, _)| v);
                ShardFault::Crash { group, member, at_op }
            };
            f.finish()?;
            plan.faults.push(fault);
        }

        // [run]
        if let Some(rt) = doc.table("run") {
            let mut r = Keys::new("[run]", rt);
            plan.limit_ms =
                r.uint_in("limit_ms", (1, 600_000), in_range)?.map_or(60_000, |(v, _)| v);
            r.finish()?;
        }

        // [expect]
        plan.expect.min_acked = ops;
        if let Some(et) = doc.table("expect") {
            let mut e = Keys::new("[expect]", et);
            plan.expect.audit = e.boolean("audit")?.is_none_or(|(b, _)| b);
            plan.expect.min_acked =
                e.uint_in("min_acked", (0, ops), exceeds_ops)?.map_or(ops, |(v, _)| v);
            plan.expect.final_shards = match e.uint("final_shards")? {
                None => None,
                Some((0, line)) => return Err(Error::at(line, "`final_shards` must be ≥ 1")),
                Some((v, _)) => Some(v as usize),
            };
            e.finish()?;
        }

        // The shape picks every group's configuration (base, scaling,
        // de-phasing): each must be one the core accepts.
        let config_line =
            st.keys.iter().find(|(k, _)| k == "config").map_or(st.line, |(_, e)| e.line);
        let spec = plan.shard_spec();
        for g in 0..=spec.data_groups() {
            spec.config_for(g)
                .validate()
                .map_err(|e| Error::at(config_line, format!("group index {g}: {e}")))?;
        }
        Ok(plan)
    }

    /// Serializes the plan as a canonical shard scenario file:
    /// `parse(to_toml(p)) == p`.
    pub fn to_toml(&self) -> String {
        self.to_string()
    }

    fn shard_spec(&self) -> ShardSpec {
        let mut spec = ShardSpec::new(self.seed, self.shards, self.members).with_spares(self.spares);
        spec.meta_members = self.meta_members;
        if self.config == ShardConfig::FaultTolerant {
            let groups = self.shards + self.spares + 1;
            spec.data_config = Some(fault_tolerant_config(self.members, groups, 1));
            spec.meta_config = Some(fault_tolerant_config(self.meta_members, groups, 1));
        }
        spec
    }
}

/// The canonical shard scenario file ([`ShardPlan::to_toml`]).
impl fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut Formatter) -> fmt::Result {
        kv(f, "name", Quoted(&self.name))?;
        kv(f, "seed", self.seed)?;
        writeln!(f, "\n[shard]")?;
        for ShardKey(key, kind, _, (get, _)) in SHARD_KEYS {
            kind.write(f, key, get(self))?;
        }
        for r in &self.reshards {
            writeln!(f, "\n[[reshard]]")?;
            let (kind, shard, to) = match r.goal {
                ReshardGoalSpec::Split { shard, to } => ("split", shard, Some(to)),
                ReshardGoalSpec::Rebalance { shard, to } => ("rebalance", shard, Some(to)),
                ReshardGoalSpec::Merge { shard } => ("merge", shard, None),
            };
            kv(f, "kind", Quoted(kind))?;
            kv(f, "shard", shard)?;
            if let Some(to) = to {
                kv(f, "to", to)?;
            }
            kv(f, "at_op", r.at_op)?;
        }
        for fault in &self.faults {
            writeln!(f, "\n[[fault]]")?;
            match *fault {
                ShardFault::Crash { group, member, at_op } => {
                    kv(f, "kind", Quoted("crash"))?;
                    kv(f, "group", group)?;
                    kv(f, "member", member)?;
                    kv(f, "at_op", at_op)?;
                }
                ShardFault::Partition { group, member, from_ms, until_ms } => {
                    kv(f, "kind", Quoted("partition"))?;
                    kv(f, "group", group)?;
                    kv(f, "member", member)?;
                    kv(f, "from_ms", from_ms)?;
                    kv(f, "until_ms", until_ms)?;
                }
            }
        }
        writeln!(f, "\n[run]")?;
        kv(f, "limit_ms", self.limit_ms)?;
        writeln!(f, "\n[expect]")?;
        kv(f, "audit", self.expect.audit)?;
        kv(f, "min_acked", self.expect.min_acked)?;
        if let Some(v) = self.expect.final_shards {
            kv(f, "final_shards", v)?;
        }
        Ok(())
    }
}

/// Resolves a file-level goal against the current map: boundary index
/// → concrete ring point (and midpoint, for splits).
fn resolve_goal(goal: &ReshardGoalSpec, shards: usize, map: &ShardMap) -> ReshardGoal {
    match *goal {
        ReshardGoalSpec::Split { shard, to } => {
            let start = ShardMap::uniform_boundary(shard, shards);
            let i = map.range_index(start);
            let (s, e) = map.bounds(i);
            ReshardGoal::Split { at: s + e.wrapping_sub(s) / 2, to }
        }
        ReshardGoalSpec::Rebalance { shard, to } => {
            ReshardGoal::Rebalance { start: ShardMap::uniform_boundary(shard, shards), to }
        }
        ReshardGoalSpec::Merge { shard } => {
            ReshardGoal::Merge { start: ShardMap::uniform_boundary(shard, shards) }
        }
    }
}

/// Runs a validated shard plan on the simulated kernel. Deterministic:
/// the same plan always returns the same outcome.
pub fn run_shard_plan(plan: &ShardPlan) -> ShardOutcome {
    let mut c = SimCluster::new(plan.shard_spec());
    let pad = "x".repeat(plan.value_len);

    // Crashes fire in file order off the acked-op counter; partition
    // windows are installed up front, relative to now (workload start).
    let mut crashes: Vec<(u64, usize, u64)> = Vec::new(); // (group, member, at_op)
    let mut cuts = Vec::new();
    let base_us = c.now_us();
    for f in &plan.faults {
        match *f {
            ShardFault::Crash { group, member, at_op } => crashes.push((group, member, at_op)),
            ShardFault::Partition { group, member, from_ms, until_ms } => cuts.push(Partition {
                side_a: HostSet::from_hosts([c.spec.data_node(group as usize - 1, member)]),
                from_us: base_us + from_ms * 1_000,
                until_us: base_us + until_ms * 1_000,
            }),
        }
    }
    let healed_us = cuts.iter().map(|p| p.until_us).max().unwrap_or(0);
    if !cuts.is_empty() {
        let chaos = FaultPlan { partitions: cuts, ..FaultPlan::reliable() };
        c.world.set_chaos(chaos, plan.seed ^ 0xC4A0_5EED);
    }

    let mut submitted = 0u64;
    let mut fault_next = 0usize;
    let mut reshard_next = 0usize;
    let mut controller: Option<MoveController> = None;
    let meta = c.meta_port();
    let mut halted_ok = false;

    for _ in 0..plan.limit_ms {
        // Keep the submission window full.
        while submitted < plan.ops && c.router().in_flight() < plan.window {
            let key = format!("k{}", submitted % plan.keys);
            let value = format!("v{submitted}-{pad}");
            c.router().put(&key, &value);
            submitted += 1;
        }
        let acked = c.router().stats().puts_acked;
        // Fire due crashes (file order).
        while fault_next < crashes.len() && crashes[fault_next].2 <= acked {
            let (group, member, _) = crashes[fault_next];
            c.world.crash(c.spec.data_node(group as usize - 1, member));
            fault_next += 1;
        }
        // Drive reshard steps, strictly in file order.
        if controller.is_none()
            && reshard_next < plan.reshards.len()
            && plan.reshards[reshard_next].at_op <= acked
        {
            let goal = resolve_goal(&plan.reshards[reshard_next].goal, plan.shards, c.router().map());
            controller = Some(MoveController::new(goal));
        }
        if let Some(ctl) = controller.as_mut() {
            if ctl.step(c.router(), &meta) {
                controller = None;
                reshard_next += 1;
            }
        }
        c.advance();
        if submitted == plan.ops
            && c.router().idle()
            && reshard_next == plan.reshards.len()
            && fault_next == crashes.len()
            && c.now_us() >= healed_us
        {
            // (The halt drain gives a healed member time to repair.)
            halted_ok = c.halt();
            break;
        }
    }

    // Fates: scheduled crashes that actually fired; everyone else live.
    // A crash forfeits whole-group convergence (the dead member's log
    // is frozen mid-stream); a healed partition does not.
    let crashed = &crashes[..fault_next];
    let mut violations = Vec::new();
    let mut fnv = Fnv::new();
    fnv.bytes(plan.name.as_bytes());
    fnv.u64(plan.seed);
    let acked_writes = c.router().acked_writes().clone();
    let stats = c.router().stats().clone();
    let converged = crashes.is_empty();
    for (gi, group) in c.groups.iter().enumerate() {
        let gid = gi as u64 + 1;
        let mut fates = vec![EndFate::Live; group.logs.len()];
        for &(group, member, _) in crashed {
            if group == gid {
                fates[member] = EndFate::Crashed;
            }
        }
        if plan.expect.audit {
            for v in amoeba_shard::audit_group(group, &fates, converged) {
                violations.push(format!("group {gid}: {v}"));
            }
        }
        fnv.u64(group.id);
        fnv.u64(*group.port.submitted.lock().unwrap());
        for (j, log) in group.logs.iter().enumerate() {
            fnv.fate(fates[j]);
            let log = log.lock().unwrap();
            fnv.u64(log.len() as u64);
            for &(origin, gseq) in log.iter() {
                fnv.u64(origin as u64);
                fnv.u64(gseq);
            }
        }
    }
    if plan.expect.audit {
        let live_member = |gi: usize| -> usize {
            let gid = gi as u64 + 1;
            (0..plan.members)
                .find(|&j| !crashed.iter().any(|&(g, m, _)| (g, m) == (gid, j)))
                .expect("a group never loses every member")
        };
        for lost in lost_acked_writes(&acked_writes, &c.board, &c.groups, live_member) {
            violations.push(format!("lost acked write: {lost}"));
        }
    }
    for (k, v) in &acked_writes {
        fnv.bytes(k.as_bytes());
        fnv.bytes(v.as_bytes());
    }
    let final_map = c.board.lock().unwrap().clone();
    fnv.u64(final_map.epoch);
    for r in &final_map.ranges {
        fnv.u64(r.start);
        fnv.u64(r.group);
    }
    fnv.u64(stats.puts_acked);
    fnv.u64(stats.retries);
    fnv.u64(stats.map_refreshes);
    fnv.u64(c.now_us());
    fnv.u64(violations.len() as u64);

    let mut out = ShardOutcome {
        name: plan.name.clone(),
        digest: fnv.finish(),
        acked: stats.puts_acked,
        retries: stats.retries,
        map_refreshes: stats.map_refreshes,
        final_ranges: final_map.ranges.len(),
        now_us: c.now_us(),
        violations,
        expect_failures: Vec::new(),
    };
    if !halted_ok {
        out.expect_failures.push("the cluster did not drain and halt within `limit_ms`".into());
    }
    if plan.expect.audit && !out.violations.is_empty() {
        out.expect_failures
            .push(format!("audit expected clean, found {} violation(s)", out.violations.len()));
    }
    if out.acked < plan.expect.min_acked {
        out.expect_failures
            .push(format!("acked {} < min_acked {}", out.acked, plan.expect.min_acked));
    }
    if let Some(want) = plan.expect.final_shards {
        if out.final_ranges != want {
            out.expect_failures
                .push(format!("final map has {} range(s), expected {want}", out.final_ranges));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::tests::ends;

    /// A one-shard, three-member, 32-op scenario whose `[shard]` ends
    /// with `key = v`, and the line number of that key.
    fn shard_with(key: &str, v: &str) -> (String, usize) {
        let mut text = String::from("name = \"walk\"\nseed = 1\n[shard]\n");
        for (k, base) in [("shards", "1"), ("members", "3"), ("ops", "32")] {
            if k != key {
                text.push_str(&format!("{k} = {base}\n"));
            }
        }
        text.push_str(&format!("{key} = {v}\n"));
        let last = text.lines().count();
        (text, last)
    }

    /// Every `[shard]` key of the table, at each end of its range
    /// (ranges that depend on `ops` see 32), survives parse →
    /// `to_toml` → parse with its value, and a value just outside the
    /// range is rejected on the key's own line.
    #[test]
    fn every_shard_key_round_trips_at_its_ends_and_is_rejected_past_them() {
        let base = ShardPlan::parse(&shard_with("window", "8").0).expect("the base parses");
        for ShardKey(key, kind, _, (get, _)) in SHARD_KEYS {
            let (fit, past) = ends(kind, &base);
            for (v, code) in fit {
                let (text, _) = shard_with(key, &v);
                let p1 = ShardPlan::parse(&text).unwrap_or_else(|e| panic!("{key} = {v}: {e}"));
                assert_eq!(get(&p1), code, "{key} = {v}");
                let canon = p1.to_toml();
                let p2 = ShardPlan::parse(&canon).unwrap_or_else(|e| panic!("{key} = {v}: {e}"));
                assert_eq!(p1, p2, "{key} = {v}: the round trip changed the plan:\n{canon}");
            }
            for v in past {
                let (text, last) = shard_with(key, &v);
                let err = ShardPlan::parse(&text).expect_err(&format!("{key} = {v}"));
                assert_eq!(err.line, last, "{key} = {v}: {err}");
            }
        }
    }
}
