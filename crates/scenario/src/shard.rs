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
use amoeba_net::{ChaosPlan, HostSet, Partition};
use amoeba_shard::{
    fault_tolerant_config, lost_acked_writes, Cluster, MoveController, ReshardGoal, ShardMap,
    ShardSpec, SimCluster,
};

use crate::plan::{fault_window, Keys, MAX_MESSAGES, MAX_NODES};
use crate::run::Fnv;
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

/// Whether `text` is a shard scenario (has a `[shard]` section). Used
/// by the binary and the golden suite to dispatch between schemas;
/// syntax errors answer `false` and surface from the chosen parser.
pub fn is_shard_scenario(text: &str) -> bool {
    toml::parse(text).map(|doc| doc.table("shard").is_some()).unwrap_or(false)
}

impl ShardPlan {
    /// Parses and validates a shard scenario file.
    pub fn parse(text: &str) -> Result<ShardPlan, Error> {
        let doc = toml::parse(text)?;
        Self::from_doc(&doc)
    }

    fn from_doc(doc: &Doc) -> Result<ShardPlan, Error> {
        for (name, t) in &doc.tables {
            if !matches!(name.as_str(), "shard" | "run" | "expect") {
                return Err(Error::at(t.line, format!("unknown section `[{name}]`")));
            }
        }
        for (name, t) in &doc.arrays {
            if !matches!(name.as_str(), "reshard" | "fault") {
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

        // [shard]
        let st = doc.table("shard").ok_or_else(|| Error::at(1, "missing [shard] section"))?;
        let mut s = Keys::new("[shard]", st);
        let shards =
            s.uint("shards")?.ok_or_else(|| Error::at(st.line, "[shard] needs `shards`"))?;
        let shards = bounded(Some(shards), "shards", 1, 64, 0)? as usize;
        let members =
            s.uint("members")?.ok_or_else(|| Error::at(st.line, "[shard] needs `members`"))?;
        let members = bounded(Some(members), "members", 1, 256, 0)? as usize;
        let meta_members = bounded(s.uint("meta_members")?, "meta_members", 1, 9, 3)? as usize;
        let spares = bounded(s.uint("spares")?, "spares", 0, 63, 0)? as usize;
        if shards + spares > 64 {
            return Err(Error::at(st.line, "`shards` + `spares` must be ≤ 64"));
        }
        let total = meta_members + (shards + spares) * members;
        if total > MAX_NODES {
            return Err(Error::at(
                st.line,
                format!("topology would have {total} nodes, the cap is {MAX_NODES}"),
            ));
        }
        let (config, config_line) = match s.string("config")? {
            None => (ShardConfig::Default, st.line),
            Some(("default", line)) => (ShardConfig::Default, line),
            Some(("fault_tolerant", line)) => (ShardConfig::FaultTolerant, line),
            Some((other, line)) => {
                return Err(Error::at(
                    line,
                    format!("`config` must be \"default\" or \"fault_tolerant\", got \"{other}\""),
                ))
            }
        };
        let (ops, ops_line) =
            s.uint("ops")?.ok_or_else(|| Error::at(st.line, "[shard] needs `ops`"))?;
        if ops == 0 || ops > MAX_MESSAGES {
            return Err(Error::at(ops_line, format!("`ops` must be in 1..={MAX_MESSAGES}")));
        }
        let keys = bounded(s.uint("keys")?, "keys", 1, ops.max(1), ops.min(64))?;
        let value_len = bounded(s.uint("value_len")?, "value_len", 1, 1024, 8)? as usize;
        let window = bounded(s.uint("window")?, "window", 1, 64, 8)? as usize;
        s.finish()?;

        // [[reshard]]
        let data_groups = (shards + spares) as u64;
        let mut reshards = Vec::new();
        for rt in &doc.array("reshard") {
            let mut r = Keys::new("[[reshard]]", rt);
            let (kind, kind_line) =
                r.string("kind")?.ok_or_else(|| Error::at(rt.line, "[[reshard]] needs `kind`"))?;
            let (shard, shard_line) = r
                .uint("shard")?
                .ok_or_else(|| Error::at(rt.line, "[[reshard]] needs `shard`"))?;
            if shard as usize >= shards {
                return Err(Error::at(
                    shard_line,
                    format!("`shard` = {shard} out of range (initial map has {shards} ranges)"),
                ));
            }
            let to = r.uint("to")?;
            let goal = match kind {
                "split" | "rebalance" => {
                    let (to, to_line) = to.ok_or_else(|| {
                        Error::at(rt.line, format!("reshard kind \"{kind}\" needs `to`"))
                    })?;
                    if to == 0 || to > data_groups {
                        return Err(Error::at(
                            to_line,
                            format!("`to` = {to} is not a data group (1..={data_groups})"),
                        ));
                    }
                    if kind == "split" {
                        ReshardGoalSpec::Split { shard: shard as usize, to }
                    } else {
                        ReshardGoalSpec::Rebalance { shard: shard as usize, to }
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
                    ReshardGoalSpec::Merge { shard: shard as usize }
                }
                other => {
                    return Err(Error::at(
                        kind_line,
                        format!("unknown reshard kind \"{other}\" (split, rebalance, merge)"),
                    ))
                }
            };
            let at_op = match r.uint("at_op")? {
                None => 0,
                Some((v, line)) => {
                    if v > ops {
                        return Err(Error::at(line, format!("`at_op` = {v} exceeds `ops` = {ops}")));
                    }
                    v
                }
            };
            r.finish()?;
            reshards.push(ReshardStep { goal, at_op });
        }

        // [[fault]]
        let mut faults = Vec::new();
        for ft in &doc.array("fault") {
            let mut f = Keys::new("[[fault]]", ft);
            let (kind, kind_line) =
                f.string("kind")?.ok_or_else(|| Error::at(ft.line, "[[fault]] needs `kind`"))?;
            if kind != "crash" && kind != "partition" {
                return Err(Error::at(
                    kind_line,
                    format!("unknown fault kind \"{kind}\" (crash, partition)"),
                ));
            }
            let (group, group_line) = f
                .uint("group")?
                .ok_or_else(|| Error::at(ft.line, format!("{kind} needs `group`")))?;
            if group == 0 || group > data_groups {
                return Err(Error::at(
                    group_line,
                    format!("`group` = {group} is not a data group (1..={data_groups})"),
                ));
            }
            let (member, member_line) = f
                .uint("member")?
                .ok_or_else(|| Error::at(ft.line, format!("{kind} needs `member`")))?;
            let member = member as usize;
            if member >= members {
                return Err(Error::at(
                    member_line,
                    format!("`member` = {member} out of range (groups have {members} members)"),
                ));
            }
            if member == ShardSpec::gateway_member(members) {
                return Err(Error::at(
                    member_line,
                    format!("member {member} is the gateway; a {kind} there severs routing"),
                ));
            }
            let fault = if kind == "partition" {
                let (from_ms, until_ms, _) = fault_window(&mut f, ft.line)?;
                ShardFault::Partition { group, member, from_ms, until_ms }
            } else {
                if config != ShardConfig::FaultTolerant {
                    return Err(Error::at(
                        ft.line,
                        "crashes need `config = \"fault_tolerant\"` (the stock timers take ~13 \
                         simulated seconds to give up on a dead member)",
                    ));
                }
                let at_op = match f.uint("at_op")? {
                    None => 0,
                    Some((v, line)) => {
                        if v > ops {
                            return Err(Error::at(
                                line,
                                format!("`at_op` = {v} exceeds `ops` = {ops}"),
                            ));
                        }
                        v
                    }
                };
                ShardFault::Crash { group, member, at_op }
            };
            f.finish()?;
            faults.push(fault);
        }

        // [run]
        let limit_ms = match doc.table("run") {
            None => 60_000,
            Some(rt) => {
                let mut r = Keys::new("[run]", rt);
                let v = bounded(r.uint("limit_ms")?, "limit_ms", 1, 600_000, 60_000)?;
                r.finish()?;
                v
            }
        };

        // [expect]
        let expect = match doc.table("expect") {
            None => ShardExpect { audit: true, min_acked: ops, final_shards: None },
            Some(et) => {
                let mut e = Keys::new("[expect]", et);
                let audit = e.boolean("audit")?.map(|(b, _)| b).unwrap_or(true);
                let min_acked = match e.uint("min_acked")? {
                    None => ops,
                    Some((v, line)) => {
                        if v > ops {
                            return Err(Error::at(
                                line,
                                format!("`min_acked` = {v} exceeds `ops` = {ops}"),
                            ));
                        }
                        v
                    }
                };
                let final_shards = match e.uint("final_shards")? {
                    None => None,
                    Some((0, line)) => {
                        return Err(Error::at(line, "`final_shards` must be ≥ 1"))
                    }
                    Some((v, _)) => Some(v as usize),
                };
                e.finish()?;
                ShardExpect { audit, min_acked, final_shards }
            }
        };

        let plan = ShardPlan {
            name,
            seed,
            shards,
            members,
            meta_members,
            spares,
            config,
            ops,
            keys,
            value_len,
            window,
            reshards,
            faults,
            limit_ms,
            expect,
        };
        // The shape picks every group's configuration (base, scaling,
        // de-phasing): each must be one the core accepts.
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
        use std::fmt::Write;
        let mut s = String::new();
        let p = &mut s;
        writeln!(p, "name = \"{}\"", toml::escape(&self.name)).unwrap();
        writeln!(p, "seed = {}", self.seed).unwrap();
        writeln!(p).unwrap();
        writeln!(p, "[shard]").unwrap();
        writeln!(p, "shards = {}", self.shards).unwrap();
        writeln!(p, "members = {}", self.members).unwrap();
        writeln!(p, "meta_members = {}", self.meta_members).unwrap();
        writeln!(p, "spares = {}", self.spares).unwrap();
        let config = match self.config {
            ShardConfig::Default => "default",
            ShardConfig::FaultTolerant => "fault_tolerant",
        };
        writeln!(p, "config = \"{config}\"").unwrap();
        writeln!(p, "ops = {}", self.ops).unwrap();
        writeln!(p, "keys = {}", self.keys).unwrap();
        writeln!(p, "value_len = {}", self.value_len).unwrap();
        writeln!(p, "window = {}", self.window).unwrap();
        for r in &self.reshards {
            writeln!(p).unwrap();
            writeln!(p, "[[reshard]]").unwrap();
            match r.goal {
                ReshardGoalSpec::Split { shard, to } => {
                    writeln!(p, "kind = \"split\"").unwrap();
                    writeln!(p, "shard = {shard}").unwrap();
                    writeln!(p, "to = {to}").unwrap();
                }
                ReshardGoalSpec::Rebalance { shard, to } => {
                    writeln!(p, "kind = \"rebalance\"").unwrap();
                    writeln!(p, "shard = {shard}").unwrap();
                    writeln!(p, "to = {to}").unwrap();
                }
                ReshardGoalSpec::Merge { shard } => {
                    writeln!(p, "kind = \"merge\"").unwrap();
                    writeln!(p, "shard = {shard}").unwrap();
                }
            }
            writeln!(p, "at_op = {}", r.at_op).unwrap();
        }
        for f in &self.faults {
            writeln!(p).unwrap();
            writeln!(p, "[[fault]]").unwrap();
            match *f {
                ShardFault::Crash { group, member, at_op } => {
                    writeln!(p, "kind = \"crash\"").unwrap();
                    writeln!(p, "group = {group}").unwrap();
                    writeln!(p, "member = {member}").unwrap();
                    writeln!(p, "at_op = {at_op}").unwrap();
                }
                ShardFault::Partition { group, member, from_ms, until_ms } => {
                    writeln!(p, "kind = \"partition\"").unwrap();
                    writeln!(p, "group = {group}").unwrap();
                    writeln!(p, "member = {member}").unwrap();
                    writeln!(p, "from_ms = {from_ms}").unwrap();
                    writeln!(p, "until_ms = {until_ms}").unwrap();
                }
            }
        }
        writeln!(p).unwrap();
        writeln!(p, "[run]").unwrap();
        writeln!(p, "limit_ms = {}", self.limit_ms).unwrap();
        writeln!(p).unwrap();
        writeln!(p, "[expect]").unwrap();
        writeln!(p, "audit = {}", self.expect.audit).unwrap();
        writeln!(p, "min_acked = {}", self.expect.min_acked).unwrap();
        if let Some(v) = self.expect.final_shards {
            writeln!(p, "final_shards = {v}").unwrap();
        }
        s
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

/// A parsed value clamped to `lo..=hi`, or `default` when absent.
fn bounded(
    v: Option<(u64, usize)>,
    key: &str,
    lo: u64,
    hi: u64,
    default: u64,
) -> Result<u64, Error> {
    match v {
        None => Ok(default),
        Some((n, _)) if (lo..=hi).contains(&n) => Ok(n),
        Some((n, line)) => Err(Error::at(line, format!("`{key}` must be in {lo}..={hi}, got {n}"))),
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
        let chaos = ChaosPlan { partitions: cuts, ..ChaosPlan::quiet() };
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
