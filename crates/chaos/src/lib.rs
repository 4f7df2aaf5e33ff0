//! The deterministic chaos explorer (DESIGN.md §9, repository root).
//!
//! The paper's central claims are about what the protocol guarantees
//! *under failure* — lost, duplicated and reordered packets, crashed
//! members, a dead sequencer. This crate turns the deterministic
//! simulator into a systematic adversary, and it does so as a **plan
//! generator and minimiser** over the one scenario runner
//! (`amoeba_scenario`, DESIGN.md §10): a root seed expands into an
//! unbounded family of scenario plans (workload × configuration ×
//! fault schedule), [`amoeba_scenario::run_plan`] runs each through
//! the full simulated kernel stack and audits every member's delivery
//! log, and a failing plan is [`minimize`]d by greedily dropping fault
//! events before it is written out — as an ordinary scenario file that
//! `scenario <file>` replays to the same digest.
//!
//! Everything is a pure function of `(root seed, case index)`; each
//! plan's `name` is the command that regenerates it (`chaos --seed S
//! --case K`). [`gen_shard_case`] applies the same discipline to the
//! sharded serving layer (`chaos --shard-cases N`, DESIGN.md §11):
//! sequencer crashes under routed load and splits racing partitions,
//! audited for delivery invariants and zero lost acked writes.

use amoeba_scenario::{
    run_plan, Admission, ConfigBase, Expect, FaultSpec, GroupSpec, Knobs, MethodSpec, ReshardGoalSpec,
    ReshardStep, RunSpec, ScenarioPlan, ShardConfig, ShardExpect, ShardFault, ShardPlan,
    WorkloadSpec,
};
use amoeba_sim::SplitMix64;

/// The group every chaos case forms.
const GROUP: u64 = 7;

/// Settle time appended after the last scheduled fault: long enough
/// for send retries, nack cycles, sync-round expulsions and a full
/// recovery to run to quiescence on the fault-tolerant timers.
const SETTLE_MS: u64 = 20_000;

/// Messages held back for the post-fault phase. Pinned explicitly (the
/// runner's default depends on whether any fault is scheduled) so that
/// dropping faults during minimization leaves the workload unchanged.
fn late(messages: u64) -> u64 {
    (messages / 3).min(2)
}

/// Expands `(root_seed, case)` into a concrete plan. Pure: the same
/// pair always yields the same plan, which is what makes
/// `chaos --seed S --case K` a complete bug report.
pub fn gen_case(root_seed: u64, case: u64) -> ScenarioPlan {
    let mut rng = SplitMix64::new(root_seed).fork(case.wrapping_add(1));
    // The world seed, inside the scenario format's signed-integer range.
    let seed = rng.next_u64() >> 1;
    // Fault family: 0 = link noise only, 1 = partitions (+noise),
    // 2 = crashes (+noise, auto-reset recovery).
    let family = rng.gen_range(3);
    let resilience = [0u32, 1, 4][rng.gen_range(3) as usize];
    // r ackers must exist besides the sequencer, surviving one crash.
    let min_nodes: u64 = if resilience == 4 { 6 } else { 3 };
    let nodes = (min_nodes + rng.gen_range(3)).min(8) as usize;
    let method = match rng.gen_range(3) {
        0 => MethodSpec::Pb,
        1 => MethodSpec::Bb,
        _ => MethodSpec::Dynamic { bb_threshold: 256 },
    };
    let batching = rng.gen_bool(0.4);
    let send_window = if batching { 4 } else { [1usize, 1, 4][rng.gen_range(3) as usize] };
    let messages = 4 + rng.gen_range(9);
    let payload = [0u32, 0, 48, 400, 1600, 4000][rng.gen_range(6) as usize];

    // Link noise: present in most cases, active from workload start
    // until a few simulated seconds in; the rest of the run is the
    // convergence window the audit leans on.
    let mut faults = Vec::new();
    if rng.gen_bool(0.8) {
        faults.push(FaultSpec::Noise {
            drop: 0.02 + rng.gen_f64() * 0.28,
            duplicate: if rng.gen_bool(0.6) { rng.gen_f64() * 0.15 } else { 0.0 },
            reorder: if rng.gen_bool(0.6) { rng.gen_f64() * 0.20 } else { 0.0 },
            reorder_min_us: 200,
            reorder_max_us: 1_000 + rng.gen_range(20_000),
            from_ms: 0,
            until_ms: 3_000 + rng.gen_range(3_000),
        });
    }
    // Survivors run `ResetGroup` automatically on sequencer suspicion:
    // on for crash cases, off for partition cases, where a quorumless
    // reset could split the brain — the paper leaves recovery policy
    // to the user, and so does the generator.
    let mut auto_reset = false;
    match family {
        1 => {
            // One or two windows, back to back (the scenario format
            // rejects overlapping cuts).
            let mut healed_ms = 0;
            for _ in 0..1 + rng.gen_range(2) {
                // A random proper, non-empty subset of hosts on side
                // A: gen_range(all - 1) is exclusive of its bound, so
                // the mask is in 1..=all-1 — never empty, never everyone.
                let all = (1u64 << nodes) - 1;
                let mask = rng.gen_range(all - 1) + 1;
                let from_ms = healed_ms + 1_000 + rng.gen_range(2_000);
                healed_ms = from_ms + 300 + rng.gen_range(1_500);
                faults.push(FaultSpec::Partition {
                    side_a: (0..nodes).filter(|h| (mask >> h) & 1 == 1).collect(),
                    from_ms,
                    until_ms: healed_ms,
                });
            }
        }
        2 => {
            auto_reset = true;
            // Half the crash cases kill the founding sequencer.
            let node =
                if rng.gen_bool(0.5) { 0 } else { 1 + rng.gen_range(nodes as u64 - 1) as usize };
            let at_ms = 1_000 + rng.gen_range(3_000);
            faults.push(FaultSpec::Crash { node, at_ms });
            if rng.gen_bool(0.4) {
                faults.push(FaultSpec::Restart {
                    node,
                    at_ms: at_ms + 2_500 + rng.gen_range(1_000),
                });
            }
        }
        _ => {}
    }

    let last_fault_ms = faults.iter().map(FaultSpec::end_ms).max().unwrap_or(0);
    ScenarioPlan {
        name: format!("chaos --seed {root_seed} --case {case}"),
        seed,
        nodes,
        admission: Admission::Immediate,
        groups: vec![GroupSpec {
            id: GROUP,
            members: (0..nodes).collect(),
            // Failure-detection and retry timers tight enough that a
            // full crash-detect-recover-converge cycle fits the budget.
            base: ConfigBase::FaultTolerant,
            knobs: Knobs {
                method: Some(method),
                resilience: Some(resilience),
                send_window: Some(send_window),
                batching: Some(batching),
                batch_max: batching.then_some(send_window),
                auto_reset: Some(auto_reset),
                ..Knobs::default()
            },
        }],
        workloads: vec![WorkloadSpec {
            group: GROUP,
            senders: (0..nodes).collect(),
            messages,
            payload,
            late: Some(late(messages)),
        }],
        faults,
        run: RunSpec { limit_ms: last_fault_ms + SETTLE_MS, warmup_ms: None, window_ms: None },
        expect: Expect { audit: true, ..Expect::default() },
    }
}

/// Expands `(root_seed, case)` into a concrete shard case. Pure, and
/// deliberately a *different* stream from [`gen_case`]: the two
/// families explore independent spaces under the same root seed.
///
/// - **Sequencer crash under routed load** — the owning data group's
///   founding sequencer dies mid-stream; the fault-tolerant knob set
///   auto-resets the group and the router's retry loop (fresh `gseq`
///   per re-send) must carry every acked write through. Half of these
///   cases then rebalance the wounded group's whole range onto the
///   spare group.
/// - **Split racing a partition** — a range split runs its
///   freeze → install → commit → retire pipeline while a follower
///   replica of the source group is partitioned away; after the heal
///   it must repair the ops it missed (including the freeze and the
///   retire) into the identical total order.
pub fn gen_shard_case(root_seed: u64, case: u64) -> ShardPlan {
    let mut rng = SplitMix64::new(root_seed ^ 0x5AAD_CA5E).fork(case.wrapping_add(1));
    let seed = rng.next_u64() >> 1;
    let shards = 2 + rng.gen_range(2) as usize;
    let members = 3 + rng.gen_range(2) as usize;
    let ops = 48 + rng.gen_range(49);
    let keys = 8 + rng.gen_range(17);
    let window = [2usize, 4, 8][rng.gen_range(3) as usize];
    let spare = shards as u64 + 1;
    let (config, fault, reshard) = if rng.gen_bool(0.5) {
        let group = 1 + rng.gen_range(shards as u64);
        let at_op = 8 + rng.gen_range(ops / 3);
        let reshard = rng.gen_bool(0.5).then(|| ReshardStep {
            goal: ReshardGoalSpec::Rebalance { shard: group as usize - 1, to: spare },
            at_op: at_op + 8 + rng.gen_range(ops / 4),
        });
        // A dead sequencer must be detected and the group auto-reset
        // inside the run budget.
        (ShardConfig::FaultTolerant, ShardFault::Crash { group, member: 0, at_op }, reshard)
    } else {
        let shard = rng.gen_range(shards as u64) as usize;
        let at_op = 8 + rng.gen_range(ops / 3);
        // Neither the sequencer (member 0) nor the gateway (member 1):
        // a pure follower, so the group keeps serving while it is gone.
        let member = 2 + rng.gen_range(members as u64 - 2) as usize;
        let from_ms = 50 + rng.gen_range(150);
        let until_ms = from_ms + 200 + rng.gen_range(400);
        (
            ShardConfig::Default,
            ShardFault::Partition { group: shard as u64 + 1, member, from_ms, until_ms },
            Some(ReshardStep { goal: ReshardGoalSpec::Split { shard, to: spare }, at_op }),
        )
    };
    ShardPlan {
        name: format!("chaos --seed {root_seed} --shard-case {case}"),
        seed,
        shards,
        members,
        meta_members: 3,
        spares: 1,
        config,
        ops,
        keys,
        value_len: 8,
        window,
        reshards: reshard.into_iter().collect(),
        faults: vec![fault],
        limit_ms: 120_000,
        expect: ShardExpect { audit: true, min_acked: ops, final_shards: None },
    }
}

/// Runs one case, turning a panic anywhere in the simulated stack into
/// a finding (its message) instead of the end of the exploration: a
/// reachable `panic!` in the protocol is exactly what the explorer is
/// for, and the plan that reaches it must still be minimized and
/// written out.
pub fn guarded<T>(run: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| p.downcast_ref::<&str>().copied())
            .unwrap_or("(non-string payload)");
        format!("panic: {msg}")
    })
}

/// Shrinks a failing plan by greedily dropping fault events — each
/// fault in turn (a crash takes its restart with it), then each noise
/// probability, then the workload size — keeping a reduction only if
/// the reduced plan still fails its audit (or still panics). Every
/// candidate stays a valid scenario, so the result serializes and
/// replays like any other file.
pub fn minimize(plan: &ScenarioPlan) -> ScenarioPlan {
    let fails = |p: &ScenarioPlan| {
        guarded(|| run_plan(p)).map_or(true, |out| !out.expect_failures.is_empty())
    };
    let mut best = plan.clone();
    if !fails(&best) {
        return best; // not failing: nothing to minimize
    }
    let keep = |best: &mut ScenarioPlan, cand: ScenarioPlan| {
        let red = fails(&cand);
        if red {
            *best = cand;
        }
        red
    };
    for _pass in 0..4 {
        let mut reduced = false;
        for i in (0..best.faults.len()).rev() {
            if i >= best.faults.len() {
                continue; // a crash below took its restart along
            }
            let mut cand = best.clone();
            if let FaultSpec::Crash { node, .. } = cand.faults.remove(i) {
                cand.faults
                    .retain(|f| !matches!(f, FaultSpec::Restart { node: n, .. } if *n == node));
            }
            reduced |= keep(&mut best, cand);
        }
        for knob in 0..3 {
            let mut cand = best.clone();
            let Some(FaultSpec::Noise { drop, duplicate, reorder, .. }) =
                cand.faults.iter_mut().find(|f| matches!(f, FaultSpec::Noise { .. }))
            else {
                break;
            };
            let p = match knob {
                0 => duplicate,
                1 => reorder,
                _ => drop,
            };
            if *p > 0.0 {
                *p = 0.0;
                reduced |= keep(&mut best, cand);
            }
        }
        while best.workloads[0].messages > 1 {
            let mut cand = best.clone();
            let w = &mut cand.workloads[0];
            w.messages /= 2;
            w.late = Some(late(w.messages));
            if !keep(&mut best, cand) {
                break;
            }
            reduced = true;
        }
        if !reduced {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use amoeba_core::audit::EndFate;
    use amoeba_net::ChaosStats;
    use amoeba_scenario::run_shard_plan;

    #[test]
    fn gen_case_is_pure_and_varies_by_index() {
        assert_eq!(gen_case(1, 5), gen_case(1, 5));
        let plans: Vec<ScenarioPlan> = (0..40).map(|k| gen_case(1, k)).collect();
        let any_fault = |pred: fn(&FaultSpec) -> bool| {
            plans.iter().any(|p| p.faults.iter().any(pred))
        };
        assert!(any_fault(|f| matches!(f, FaultSpec::Partition { .. })), "partitions generated");
        assert!(any_fault(|f| matches!(f, FaultSpec::Crash { .. })), "crashes generated");
        assert!(any_fault(|f| matches!(f, FaultSpec::Crash { node: 0, .. })), "sequencer dies too");
        let knobs = |p: &ScenarioPlan| p.groups[0].knobs.clone();
        assert!(plans.iter().any(|p| knobs(p).batching == Some(true)), "batching-on cases");
        assert!(plans.iter().any(|p| knobs(p).batching == Some(false)), "batching-off cases");
        assert!(plans.iter().any(|p| knobs(p).method == Some(MethodSpec::Bb)), "BB cases");
        assert!(plans.iter().any(|p| knobs(p).resilience == Some(4)), "r = 4 cases");
        for p in &plans {
            assert!(p.nodes >= 3 && p.nodes <= 8);
            assert!(
                p.run.limit_ms >= p.last_fault_ms() + SETTLE_MS,
                "the settle window is always present"
            );
            for f in &p.faults {
                if let FaultSpec::Partition { side_a, from_ms, until_ms } = f {
                    assert!(!side_a.is_empty(), "side A is non-empty");
                    assert!(side_a.len() < p.nodes, "proper subset");
                    assert!(side_a.iter().all(|&h| h < p.nodes), "hosts in range");
                    assert!(until_ms > from_ms);
                }
            }
        }
    }

    #[test]
    fn quiet_tiny_case_runs_clean() {
        // A hand-built fault-free case: every node delivers everything.
        let mut plan = gen_case(1, 0);
        plan.nodes = 3;
        plan.groups[0].members = vec![0, 1, 2];
        plan.groups[0].knobs = Knobs::default();
        plan.workloads[0] = WorkloadSpec {
            group: GROUP,
            senders: vec![0, 1, 2],
            messages: 3,
            payload: 0,
            late: Some(1),
        };
        plan.faults.clear();
        plan.run.limit_ms = 10_000;
        let out = run_plan(&plan);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.submitted, 9);
        assert_eq!(out.logs.iter().map(Vec::len).collect::<Vec<_>>(), vec![9, 9, 9]);
        assert!(out.fates.iter().all(|f| *f == EndFate::Live));
        assert_eq!(out.chaos, ChaosStats::default());
    }

    #[test]
    fn gen_shard_case_is_pure_and_varies() {
        assert_eq!(gen_shard_case(1, 3), gen_shard_case(1, 3));
        let plans: Vec<ShardPlan> = (0..24).map(|k| gen_shard_case(1, k)).collect();
        let crash = |p: &ShardPlan| matches!(p.faults[0], ShardFault::Crash { .. });
        assert!(plans.iter().any(crash));
        assert!(
            plans.iter().any(|p| crash(p) && !p.reshards.is_empty()),
            "some crashes are followed by a rebalance"
        );
        assert!(plans.iter().any(|p| !crash(p)));
        for p in &plans {
            assert!(p.shards >= 2 && p.members >= 3 && p.spares == 1);
            match p.faults[0] {
                ShardFault::Crash { group, member, .. } => {
                    assert!(group >= 1 && group <= p.shards as u64);
                    assert_eq!(member, 0, "the sequencer dies");
                }
                ShardFault::Partition { group, member, from_ms, until_ms } => {
                    assert!(group >= 1 && group <= p.shards as u64);
                    assert!(member >= 2 && member < p.members, "victim is a pure follower");
                    assert!(until_ms > from_ms);
                }
            }
        }
    }

    #[test]
    fn sequencer_crash_case_runs_clean() {
        let plan = (0..64)
            .map(|k| gen_shard_case(1, k))
            .find(|p| matches!(p.faults[0], ShardFault::Crash { .. }) && !p.reshards.is_empty())
            .expect("a crash+rebalance case in the first 64");
        let out = run_shard_plan(&plan);
        assert!(out.expect_failures.is_empty(), "{:?}", out.expect_failures);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.acked, plan.ops);
        assert_eq!(run_shard_plan(&plan).digest, out.digest, "replay is bit-equal");
    }

    #[test]
    fn split_vs_partition_case_runs_clean() {
        let plan = (0..64)
            .map(|k| gen_shard_case(1, k))
            .find(|p| matches!(p.faults[0], ShardFault::Partition { .. }))
            .expect("a split-vs-partition case in the first 64");
        let out = run_shard_plan(&plan);
        assert!(out.expect_failures.is_empty(), "{:?}", out.expect_failures);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.acked, plan.ops);
        assert_eq!(out.final_ranges, plan.shards + 1, "the split landed");
    }
}
