//! Round-trip property for the scenario format: `parse → to_toml →
//! parse` is the identity on valid scenarios, and `to_toml` is a
//! fixpoint (serializing the re-parsed plan reproduces the canonical
//! text byte for byte). The generator below assembles random valid
//! scenario files — group shapes, knob subsets, workload modes and
//! fault schedules — so the property covers the format's surface, not
//! just the checked-in `scenarios/` files. The chaos explorer's
//! generated plans get the stronger form: the written file must also
//! *run* to the digest of the plan it was written from.

use amoeba_scenario::ScenarioPlan;
use proptest::prelude::*;
use std::fmt::Write as _;

/// Deterministically expands `entropy` into knob/fault choices: a tiny
/// splitmix step per draw, so one u64 of strategy input covers the
/// many optional fields without a tuple per knob.
struct Bits(u64);

impl Bits {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    fn chance(&mut self) -> bool {
        self.next() & 1 == 1
    }
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// Builds a valid scenario file from the generated shape parameters.
fn gen_scenario(
    groups: usize,
    members: usize,
    staggered: bool,
    continuous: bool,
    fault_kind: u8,
    entropy: u64,
) -> String {
    let mut b = Bits(entropy);
    let mut s = String::new();
    let nodes = groups * members;
    writeln!(s, "name = \"roundtrip\"").unwrap();
    writeln!(s, "seed = {}", b.below(100_000)).unwrap();
    writeln!(s, "[topology]").unwrap();
    writeln!(s, "nodes = {nodes}").unwrap();
    writeln!(s, "admission = \"{}\"", if staggered { "staggered" } else { "immediate" }).unwrap();

    for g in 0..groups {
        writeln!(s, "[[group]]").unwrap();
        writeln!(s, "id = {}", g + 1).unwrap();
        writeln!(s, "members = \"{}..{}\"", g * members, (g + 1) * members).unwrap();
        match b.below(4) {
            0 => writeln!(s, "method = \"pb\"").unwrap(),
            1 => writeln!(s, "method = \"bb\"").unwrap(),
            2 => {
                writeln!(s, "method = \"dynamic\"").unwrap();
                if b.chance() {
                    writeln!(s, "bb_threshold = {}", b.below(4096)).unwrap();
                }
            }
            _ => {}
        }
        if b.chance() {
            writeln!(s, "resilience = {}", b.below(members as u64)).unwrap();
        }
        if b.chance() {
            writeln!(s, "send_window = {}", 1 + b.below(8)).unwrap();
        }
        if b.chance() {
            writeln!(s, "batching = true").unwrap();
            if b.chance() {
                writeln!(s, "batch_max = {}", 2 + b.below(15)).unwrap();
            }
            if b.chance() {
                writeln!(s, "batch_flush_us = {}", 50 + b.below(1000)).unwrap();
            }
        }
        if b.chance() {
            writeln!(s, "robust_repair = {}", b.chance()).unwrap();
        }
        if b.chance() {
            writeln!(s, "sync_interval_us = {}", 100_000 + b.below(5_000_000)).unwrap();
        }
        if b.chance() {
            writeln!(s, "status_stagger_us = {}", 100 + b.below(5_000)).unwrap();
        }
    }

    // Workloads: one per group, all bounded or all continuous (the
    // format rejects mixing).
    for g in 0..groups {
        writeln!(s, "[[workload]]").unwrap();
        writeln!(s, "group = {}", g + 1).unwrap();
        let senders = 1 + b.below(members as u64) as usize;
        writeln!(s, "senders = \"{}..{}\"", g * members, g * members + senders).unwrap();
        if continuous {
            writeln!(s, "messages = 0").unwrap();
        } else {
            let messages = 1 + b.below(50);
            writeln!(s, "messages = {messages}").unwrap();
            if b.chance() {
                writeln!(s, "payload = {}", b.below(4096)).unwrap();
            }
            if b.chance() {
                writeln!(s, "late = {}", b.below(messages + 1)).unwrap();
            }
        }
    }

    // Faults only in tagged mode (a crash mid-measurement has no
    // defined rate semantics, and audit scenarios are where they bite).
    let mut last_fault_ms = 0;
    if !continuous {
        match fault_kind {
            1 => {
                let node = b.below(nodes as u64);
                let at = 1 + b.below(3_000);
                writeln!(s, "[[fault]]").unwrap();
                writeln!(s, "kind = \"crash\"").unwrap();
                writeln!(s, "node = {node}").unwrap();
                writeln!(s, "at_ms = {at}").unwrap();
                last_fault_ms = at;
                if b.chance() {
                    let back = at + 1 + b.below(2_000);
                    writeln!(s, "[[fault]]").unwrap();
                    writeln!(s, "kind = \"restart\"").unwrap();
                    writeln!(s, "node = {node}").unwrap();
                    writeln!(s, "at_ms = {back}").unwrap();
                    last_fault_ms = back;
                }
            }
            2 => {
                // Two partition windows, disjoint by construction.
                let f1 = 1 + b.below(1_000);
                let u1 = f1 + 1 + b.below(1_000);
                writeln!(s, "[[fault]]").unwrap();
                writeln!(s, "kind = \"partition\"").unwrap();
                writeln!(s, "side_a = \"0..{}\"", 1 + b.below(nodes as u64 - 1)).unwrap();
                writeln!(s, "from_ms = {f1}").unwrap();
                writeln!(s, "until_ms = {u1}").unwrap();
                let f2 = u1 + 1 + b.below(1_000);
                let u2 = f2 + 1 + b.below(1_000);
                writeln!(s, "[[fault]]").unwrap();
                writeln!(s, "kind = \"partition\"").unwrap();
                writeln!(s, "side_a = [{}]", nodes - 1).unwrap();
                writeln!(s, "from_ms = {f2}").unwrap();
                writeln!(s, "until_ms = {u2}").unwrap();
                last_fault_ms = u2;
            }
            3 => {
                let f = 1 + b.below(1_000);
                let u = f + 1 + b.below(3_000);
                writeln!(s, "[[fault]]").unwrap();
                writeln!(s, "kind = \"noise\"").unwrap();
                writeln!(s, "drop = 0.{:02}", b.below(100)).unwrap();
                writeln!(s, "duplicate = 0.{:02}", b.below(100)).unwrap();
                writeln!(s, "reorder = 0.{:02}", b.below(100)).unwrap();
                writeln!(s, "from_ms = {f}").unwrap();
                writeln!(s, "until_ms = {u}").unwrap();
                last_fault_ms = u;
            }
            _ => {}
        }
    }

    writeln!(s, "[run]").unwrap();
    writeln!(s, "limit_ms = {}", last_fault_ms + 2_001 + b.below(60_000)).unwrap();
    if continuous {
        writeln!(s, "warmup_ms = {}", 100 + b.below(1_000)).unwrap();
        writeln!(s, "window_ms = {}", 500 + b.below(3_000)).unwrap();
    }

    if b.chance() {
        writeln!(s, "[expect]").unwrap();
        if continuous {
            if b.chance() {
                writeln!(s, "min_rate = {}.5", b.below(1_000)).unwrap();
            }
        } else if b.chance() {
            writeln!(s, "audit = {}", b.chance()).unwrap();
        }
        if b.chance() {
            writeln!(s, "all_sends_ok = true").unwrap();
        }
        if b.chance() {
            writeln!(s, "live_members = {}", b.below(nodes as u64 + 1)).unwrap();
        }
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_serialize_parse_is_identity(
        groups in 1usize..4,
        members in 2usize..7,
        staggered in any::<bool>(),
        continuous in any::<bool>(),
        fault_kind in 0u8..4,
        entropy in any::<u64>(),
    ) {
        let text = gen_scenario(groups, members, staggered, continuous, fault_kind, entropy);
        let p1 = ScenarioPlan::parse(&text)
            .unwrap_or_else(|e| panic!("generated scenario must parse: {e}\n---\n{text}"));
        let canon = p1.to_toml();
        let p2 = ScenarioPlan::parse(&canon)
            .unwrap_or_else(|e| panic!("canonical form must re-parse: {e}\n---\n{canon}"));
        prop_assert_eq!(&p1, &p2, "round-trip changed the plan:\n---\n{}", canon);
        prop_assert_eq!(&canon, &p2.to_toml(), "to_toml is not a fixpoint");
    }
}

/// The same identity + fixpoint property for the shard schema, over
/// the checked-in shard scenarios (the schema's surface is small
/// enough that the three files cover every section kind).
#[test]
fn shard_plans_round_trip() {
    use amoeba_scenario::ShardPlan;
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios/") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.starts_with("shard_") || !name.ends_with(".toml") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).expect("read scenario");
        let p1 = ShardPlan::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        let canon = p1.to_toml();
        let p2 = ShardPlan::parse(&canon)
            .unwrap_or_else(|e| panic!("{name}: canonical form must re-parse: {e}\n---\n{canon}"));
        assert_eq!(p1, p2, "{name}: round-trip changed the plan:\n---\n{canon}");
        assert_eq!(canon, p2.to_toml(), "{name}: to_toml is not a fixpoint");
    }
    assert!(seen >= 3, "expected at least three shard_*.toml scenarios, found {seen}");
}

/// What the chaos explorer writes on a red case is what `scenario`
/// replays: every generated plan survives `to_toml → parse` unchanged
/// and the parsed plan runs to the same digest as the generated one.
#[test]
fn chaos_generated_plans_round_trip_and_replay_bit_equal() {
    use amoeba_scenario::{run_plan, run_shard_plan, ShardPlan};
    for seed in [1, 7] {
        for case in 0..64 {
            let plan = amoeba_chaos::gen_case(seed, case);
            let text = plan.to_toml();
            let parsed = ScenarioPlan::parse(&text)
                .unwrap_or_else(|e| panic!("{}: must re-parse: {e}\n---\n{text}", plan.name));
            assert_eq!(parsed, plan, "round-trip changed the plan:\n---\n{text}");
            assert_eq!(run_plan(&parsed).digest, run_plan(&plan).digest, "{}", plan.name);
        }
        for case in 0..32 {
            let plan = amoeba_chaos::gen_shard_case(seed, case);
            let text = plan.to_toml();
            let parsed = ShardPlan::parse(&text)
                .unwrap_or_else(|e| panic!("{}: must re-parse: {e}\n---\n{text}", plan.name));
            assert_eq!(parsed, plan, "round-trip changed the plan:\n---\n{text}");
            let (replayed, generated) = (run_shard_plan(&parsed), run_shard_plan(&plan));
            assert_eq!(replayed.digest, generated.digest, "{}", plan.name);
        }
    }
}
