//! End-to-end exercises of the sharding layer on the simulated
//! kernel: routing, stale-map retry, split/merge/rebalance under
//! load, cross-shard reads and writes, and recovery from a sequencer
//! crash — each ending with a clean delivery audit and zero lost
//! acked writes.

use amoeba_core::audit::EndFate;
use amoeba_shard::{
    audit_group, fault_tolerant_config, key_hash, lost_acked_writes, run_reshard, run_until,
    Cluster, Completion, ReshardGoal, ShardMap, ShardSpec, SimCluster,
};

/// Pumps until operation `id` completes; panics if it does not within
/// `max` cycles (1 ms simulated each).
fn finish<C: Cluster + ?Sized>(c: &mut C, id: u64, max: usize) -> Completion {
    let mut out = None;
    let done = run_until(c, max, |r| {
        if out.is_none() {
            out = r.take(id);
        }
        out.is_some()
    });
    assert!(done, "operation {id} did not complete in {max} cycles");
    out.unwrap()
}

fn put<C: Cluster + ?Sized>(c: &mut C, key: &str, value: &str) {
    let id = c.router().put(key, value);
    assert!(matches!(finish(c, id, 20_000), Completion::Put { .. }));
}

fn get<C: Cluster + ?Sized>(c: &mut C, key: &str) -> Option<String> {
    let id = c.router().get(key);
    match finish(c, id, 20_000) {
        Completion::Get { value, .. } => value,
        other => panic!("expected a Get completion, got {other:?}"),
    }
}

/// Full-cluster audit: delivery audit per data group (all members
/// live) plus the zero-lost-acked-writes check.
fn assert_clean(c: &mut SimCluster) {
    let acked = c.router().acked_writes().clone();
    for group in &c.groups {
        let fates = vec![EndFate::Live; group.logs.len()];
        let violations = audit_group(group, &fates, true);
        assert!(violations.is_empty(), "group {}: {violations:?}", group.id);
    }
    let lost = lost_acked_writes(&acked, &c.board, &c.groups, |_| 0);
    assert!(lost.is_empty(), "lost acked writes: {lost:?}");
}

#[test]
fn routes_across_shards_and_reads_back() {
    let mut c = SimCluster::new(ShardSpec::new(11, 4, 3));
    let keys: Vec<String> = (0..24).map(|i| format!("k{i}")).collect();
    for (i, k) in keys.iter().enumerate() {
        put(&mut c, k, &format!("v{i}"));
    }
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(get(&mut c, k).as_deref(), Some(format!("v{i}").as_str()));
    }
    assert_eq!(get(&mut c, "absent"), None);
    // With 24 keys over 4 uniform shards, every group should serve
    // some of the traffic.
    let map = c.router().map().clone();
    for gid in 1..=4u64 {
        assert!(
            keys.iter().any(|k| map.owner(key_hash(k)) == gid),
            "no key landed on group {gid}"
        );
    }
    assert!(c.halt(), "apps did not stop");
    assert_clean(&mut c);
}

#[test]
fn overwrites_serialize_per_key() {
    let mut c = SimCluster::new(ShardSpec::new(12, 2, 3));
    // Pipeline five writes to one key without waiting: per-key
    // serialization must apply them in submission order.
    let ids: Vec<u64> = (0..5).map(|i| c.router().put("hot", &format!("v{i}"))).collect();
    for id in ids {
        finish(&mut c, id, 20_000);
    }
    assert_eq!(get(&mut c, "hot").as_deref(), Some("v4"));
    assert!(c.halt());
    assert_clean(&mut c);
}

#[test]
fn split_under_load_keeps_every_acked_write() {
    let spec = ShardSpec::new(13, 2, 3).with_spares(1);
    let mut c = SimCluster::new(spec);
    let keys: Vec<String> = (0..16).map(|i| format!("key-{i}")).collect();
    for k in &keys {
        put(&mut c, k, "before");
    }
    // Split group 1's range at its midpoint and hand the upper half
    // to the spare group 3, while writes keep flowing.
    let (start, end) = {
        let map = c.router().map();
        let i = map.ranges.iter().position(|r| r.group == 1).unwrap();
        map.bounds(i)
    };
    let mid = start + (end.wrapping_sub(start) / 2);
    let goal = ReshardGoal::Split { at: mid, to: 3 };
    let meta = c.meta_port();
    let mut ctl = amoeba_shard::MoveController::new(goal);
    let mut i = 0usize;
    let mut done = false;
    for round in 0..40_000 {
        if !done {
            done = ctl.step(c.router(), &meta);
        }
        // Interleave writes with the move: every 8th cycle, overwrite
        // the next key. Writes into the frozen range are nacked and
        // retried by the router until the new owner serves them.
        if round % 8 == 0 && i < 64 {
            c.router().put(&keys[i % keys.len()], &format!("during-{i}"));
            i += 1;
        }
        c.advance();
        if done && i >= 64 && c.router().idle() {
            break;
        }
    }
    assert!(done, "split did not complete");
    assert!(run_until(&mut c, 20_000, |r| r.idle()), "writes did not drain");
    // The upper half of group 1's old range now belongs to group 3.
    let map = c.router().map().clone();
    assert_eq!(map.owner(mid), 3);
    assert!(map.ranges.iter().any(|r| r.group == 1), "group 1 keeps the lower half");
    let retried = c.router().stats().frozen + c.router().stats().wrong_shard;
    assert!(retried > 0, "the load never raced the move — test is too gentle");
    assert!(c.halt());
    assert_clean(&mut c);
}

#[test]
fn rebalance_then_merge_returns_to_uniform() {
    let spec = ShardSpec::new(14, 2, 3).with_spares(1);
    let mut c = SimCluster::new(spec);
    for i in 0..12 {
        put(&mut c, &format!("m{i}"), &format!("x{i}"));
    }
    // Move group 2's whole range to the spare group 3...
    let start = {
        let map = c.router().map();
        let i = map.ranges.iter().position(|r| r.group == 2).unwrap();
        map.bounds(i).0
    };
    assert!(run_reshard(&mut c, ReshardGoal::Rebalance { start, to: 3 }, 40_000));
    assert_eq!(c.router().map().owner(start), 3);
    for i in 0..12 {
        assert_eq!(get(&mut c, &format!("m{i}")).as_deref(), Some(format!("x{i}").as_str()));
    }
    // ...then hand it to group 1 and merge the boundary away.
    assert!(run_reshard(&mut c, ReshardGoal::Rebalance { start, to: 1 }, 40_000));
    assert!(run_reshard(&mut c, ReshardGoal::Merge { start }, 40_000));
    let map = c.router().map().clone();
    assert_eq!(map.ranges.len(), 1, "ring collapsed to one range: {:?}", map.ranges);
    assert_eq!(map.ranges[0].group, 1);
    for i in 0..12 {
        assert_eq!(get(&mut c, &format!("m{i}")).as_deref(), Some(format!("x{i}").as_str()));
    }
    assert!(c.halt());
    assert_clean(&mut c);
}

#[test]
fn fence_reads_span_shards() {
    let mut c = SimCluster::new(ShardSpec::new(15, 4, 3));
    put(&mut c, "alpha", "1");
    put(&mut c, "beta", "2");
    put(&mut c, "gamma", "3");
    let id = c.router().fence(vec!["alpha".into(), "beta".into(), "gamma".into(), "nil".into()]);
    let Completion::Fence { values } = finish(&mut c, id, 20_000) else { panic!() };
    assert_eq!(
        values,
        vec![
            ("alpha".to_string(), Some("1".to_string())),
            ("beta".to_string(), Some("2".to_string())),
            ("gamma".to_string(), Some("3".to_string())),
            ("nil".to_string(), None),
        ]
    );
    assert!(c.halt());
    assert_clean(&mut c);
}

#[test]
fn cross_shard_write_commits_atomically() {
    let mut c = SimCluster::new(ShardSpec::new(16, 4, 3));
    // Find two keys on different groups so the transaction really
    // spans shards.
    let map = c.router().map().clone();
    let keys: Vec<String> = (0..32).map(|i| format!("t{i}")).collect();
    let a = keys[0].clone();
    let b = keys
        .iter()
        .find(|k| map.owner(key_hash(k)) != map.owner(key_hash(&a)))
        .expect("two shards")
        .clone();
    let id = c.router().cross_put(vec![(a.clone(), "left".into()), (b.clone(), "right".into())]);
    assert!(matches!(finish(&mut c, id, 20_000), Completion::TxCommitted));
    assert_eq!(get(&mut c, &a).as_deref(), Some("left"));
    assert_eq!(get(&mut c, &b).as_deref(), Some("right"));
    // A fence over both must see the committed pair.
    let id = c.router().fence(vec![a.clone(), b.clone()]);
    let Completion::Fence { values } = finish(&mut c, id, 20_000) else { panic!() };
    assert_eq!(values[0].1.as_deref(), Some("left"));
    assert_eq!(values[1].1.as_deref(), Some("right"));
    assert!(c.router().stats().txs_committed >= 1);
    assert!(c.halt());
    assert_clean(&mut c);
}

#[test]
fn cross_put_races_reshard_without_losing_acked_writes() {
    let spec = ShardSpec::new(21, 2, 3).with_spares(1);
    let mut c = SimCluster::new(spec);
    let map = c.router().map().clone();
    // One key on each group, so every transaction spans both — and the
    // move drags key `a`'s whole range out from under the 2PC traffic.
    let a = (0..).map(|i| format!("x{i}")).find(|k| map.owner(key_hash(k)) == 1).unwrap();
    let b = (0..).map(|i| format!("x{i}")).find(|k| map.owner(key_hash(k)) == 2).unwrap();
    put(&mut c, &a, "init");
    put(&mut c, &b, "init");
    let start = {
        let i = map.ranges.iter().position(|r| r.group == 1).unwrap();
        map.bounds(i).0
    };
    let meta = c.meta_port();
    let mut ctl = amoeba_shard::MoveController::new(ReshardGoal::Rebalance { start, to: 3 });
    let (mut issued, mut done) = (0usize, false);
    for round in 0..60_000 {
        if !done {
            done = ctl.step(c.router(), &meta);
        }
        // Keep transactions in flight across the whole move: prepares
        // racing the freeze are rejected and re-run, staged locks make
        // the freeze itself retry, and commits after the flip route to
        // the new owner.
        if round % 5 == 0 && issued < 40 {
            c.router().cross_put(vec![
                (a.clone(), format!("a{issued}")),
                (b.clone(), format!("b{issued}")),
            ]);
            issued += 1;
        }
        c.advance();
        if done && issued >= 40 && c.router().idle() {
            break;
        }
    }
    assert!(done, "reshard did not complete under 2PC load");
    assert!(run_until(&mut c, 40_000, |r| r.idle()), "transactions did not drain");
    assert_eq!(c.router().stats().txs_committed, 40, "every transaction must commit");
    assert_eq!(c.router().map().owner(key_hash(&a)), 3);
    // Per-key claims serialize the transactions, so the last one wins.
    assert_eq!(get(&mut c, &a).as_deref(), Some("a39"));
    assert_eq!(get(&mut c, &b).as_deref(), Some("b39"));
    let stats = c.router().stats().clone();
    assert!(
        stats.frozen + stats.wrong_shard + stats.locked > 0,
        "the transactions never raced the move — test is too gentle"
    );
    assert!(c.halt());
    assert_clean(&mut c);
}

#[test]
fn sequencer_crash_heals_and_routing_resumes() {
    let mut spec = ShardSpec::new(17, 2, 4);
    spec.data_config = Some(fault_tolerant_config(4, 3, 1));
    spec.meta_config = Some(fault_tolerant_config(3, 3, 1));
    let mut c = SimCluster::new(spec);
    for i in 0..8 {
        put(&mut c, &format!("c{i}"), "pre");
    }
    // Crash group 1's sequencer (member 0, which is not the gateway).
    let victim = c.groups[0].nodes[0];
    c.world.crash(victim);
    // Keep writing: sends from group 1's gateway fail, auto-reset
    // rebuilds the group, the gateway re-sends under fresh sequence
    // numbers, and every write is eventually acked.
    for i in 0..8 {
        put(&mut c, &format!("c{i}"), "post");
    }
    for i in 0..8 {
        assert_eq!(get(&mut c, &format!("c{i}")).as_deref(), Some("post"));
    }
    assert!(c.halt());
    // The crashed member's log is frozen mid-run; audit it as crashed.
    let acked = c.router().acked_writes().clone();
    for (gi, group) in c.groups.iter().enumerate() {
        let mut fates = vec![EndFate::Live; group.logs.len()];
        if gi == 0 {
            fates[0] = EndFate::Crashed;
        }
        let violations = audit_group(group, &fates, false);
        assert!(violations.is_empty(), "group {}: {violations:?}", group.id);
    }
    // Member 1 (the gateway) is live in every group.
    let lost = lost_acked_writes(&acked, &c.board, &c.groups, |_| 1);
    assert!(lost.is_empty(), "lost acked writes: {lost:?}");
}

#[test]
fn wrong_shard_nacks_trigger_map_refresh() {
    let spec = ShardSpec::new(18, 2, 3).with_spares(1);
    let mut c = SimCluster::new(spec);
    put(&mut c, "probe", "v0");
    let owner = c.router().map().owner(key_hash("probe"));
    let start = {
        let map = c.router().map();
        let i = map.ranges.iter().position(|r| r.group == owner).unwrap();
        map.bounds(i).0
    };
    // Move the range while the router's map is still pointing at the
    // old owner, then write: replicas nack `WrongShard`/`Frozen`, the
    // router refreshes from the board and retries to the new owner.
    assert!(run_reshard(&mut c, ReshardGoal::Rebalance { start, to: 3 }, 40_000));
    put(&mut c, "probe", "v1");
    assert_eq!(get(&mut c, "probe").as_deref(), Some("v1"));
    assert!(c.router().stats().map_refreshes > 0, "router never refreshed its map");
    assert!(c.halt());
    assert_clean(&mut c);
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut c = SimCluster::new(ShardSpec::new(19, 2, 3));
        for i in 0..10 {
            put(&mut c, &format!("d{i}"), &format!("v{i}"));
        }
        assert!(c.halt());
        let logs: Vec<Vec<(u32, u64)>> = c
            .groups
            .iter()
            .flat_map(|g| g.logs.iter().map(|l| l.lock().unwrap().clone()))
            .collect();
        (c.now_us(), logs)
    };
    assert_eq!(run(), run(), "same spec, same seed, different histories");
}

#[test]
fn uniform_map_matches_spec_boundaries() {
    let spec = ShardSpec::new(20, 8, 2);
    let map = spec.initial_map();
    for i in 0..8 {
        assert_eq!(map.ranges[i].start, ShardMap::uniform_boundary(i, 8));
        assert_eq!(map.ranges[i].group, i as u64 + 1);
    }
}

/// The tier's groups run at the scaled default as it stands: the
/// sequencer asks for floors at 3/4 of its history, so a stream longer
/// than the history is never refused and the gateway never re-sends.
/// (With the mark clamped to the capacity each group was refused once
/// per history and sat out a retransmission timer.)
#[test]
fn a_default_cluster_serves_many_histories_without_a_refusal() {
    let spec = ShardSpec::new(21, 2, 3);
    let mut c = SimCluster::new(spec.clone());
    let mut submitted = 0;
    let drained = run_until(&mut c, 60_000, |r| {
        while submitted < 4_000 && r.in_flight() < 32 {
            r.put(&format!("k{}", submitted % 64), &format!("v{submitted}"));
            submitted += 1;
        }
        r.stats().puts_acked == 4_000
    });
    assert!(drained, "4 000 puts did not drain");
    for g in 0..spec.data_groups() {
        let stats = |member: usize| {
            let node = &c.world.sim.world.nodes[spec.data_node(g, member)];
            node.core.as_ref().expect("a live member").stats
        };
        let (sequencer, gateway) = (stats(0), stats(ShardSpec::gateway_member(spec.members)));
        assert!(
            sequencer.sequenced > spec.config_for(g + 1).history_cap as u64,
            "group {g} ordered too little to fill its history: {}",
            sequencer.sequenced
        );
        assert_eq!(sequencer.flow_control_drops, 0, "group {g}: the sequencer refused a send");
        assert_eq!(gateway.send_retries, 0, "group {g}: the gateway re-sent");
    }
    assert!(c.halt(), "apps did not stop");
    assert_clean(&mut c);
}
