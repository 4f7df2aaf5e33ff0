//! The golden suite: every file under `scenarios/` is pinned to the
//! exact digest and chaos statistics it produced when it was written.
//! A digest shift means the simulation's behaviour changed — timer
//! arithmetic, wire model, protocol logic, formation schedule or the
//! runner itself — and must be a conscious decision, not drift. (The
//! digests are identical in debug and release builds; the runner is a
//! pure function of the plan.)
//!
//! Each scenario is its own `#[test]` so the harness runs them in
//! parallel (the thousand-node worlds dominate the wall clock).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use amoeba_scenario::{is_shard_scenario, run_plan, run_shard_plan, ScenarioPlan, ShardPlan};

fn scenarios_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

/// Runs one scenario file and checks the pinned digest and chaos
/// statistics, plus the invariants every golden scenario must hold:
/// no audit violations and no failed `[expect]` assertions.
fn golden(file: &str, digest: u64, chaos: (u64, u64, u64, u64)) {
    let path = scenarios_dir().join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let plan = ScenarioPlan::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    let out = run_plan(&plan);
    assert_eq!(
        out.digest, digest,
        "{file}: digest {:016x} != pinned {digest:016x} — simulation behaviour changed",
        out.digest
    );
    let got = (
        out.chaos.dropped,
        out.chaos.duplicated,
        out.chaos.reordered,
        out.chaos.partitioned,
    );
    assert_eq!(got, chaos, "{file}: chaos statistics shifted");
    assert!(out.violations.is_empty(), "{file}: audit violations: {:?}", out.violations);
    assert!(
        out.expect_failures.is_empty(),
        "{file}: expectations failed: {:?}",
        out.expect_failures
    );
}

#[test]
fn batching_pipeline() {
    golden("batching_pipeline.toml", 0xa880a6431d05c0e2, (0, 0, 0, 0));
}

#[test]
fn bb_large_payload() {
    golden("bb_large_payload.toml", 0x6a1274bf02189ec7, (0, 0, 0, 0));
}

#[test]
fn crash_sequencer() {
    golden("crash_sequencer.toml", 0x7e0761e3be457926, (0, 0, 0, 0));
}

#[test]
fn fig6_parallel_peak() {
    golden("fig6_parallel_peak.toml", 0x1e37ed4654c99feb, (0, 0, 0, 0));
}

#[test]
fn grid_512() {
    golden("grid_512.toml", 0xafa09d46f295d800, (0, 0, 0, 0));
}

#[test]
fn multi_8x128() {
    golden("multi_8x128.toml", 0x8ad133b527cbfb75, (0, 0, 0, 0));
}

#[test]
fn noisy_link() {
    golden("noisy_link.toml", 0xb343834fa54cf139, (26, 7, 13, 0));
}

#[test]
fn paper_2() {
    golden("paper_2.toml", 0xdabbed828a74505d, (0, 0, 0, 0));
}

#[test]
fn paper_30() {
    golden("paper_30.toml", 0x0b785b5200cd1da7, (0, 0, 0, 0));
}

#[test]
fn paper_8() {
    golden("paper_8.toml", 0x876ed03611b2112f, (0, 0, 0, 0));
}

#[test]
fn partition_heal() {
    golden("partition_heal.toml", 0xfbe7c43faa81dcdf, (0, 0, 0, 0));
}

#[test]
fn resilience_r4() {
    golden("resilience_r4.toml", 0xc46b07a51f28d6c8, (0, 0, 0, 0));
}

#[test]
fn stress_1000() {
    golden("stress_1000.toml", 0x59bd7767b807503a, (0, 0, 0, 0));
}

/// Runs one *shard* scenario file (the `[shard]` schema, DESIGN.md
/// §11) and checks its pinned digest plus the invariants every golden
/// shard scenario must hold: clean audit, zero lost acked writes, and
/// no failed `[expect]` assertions.
///
/// All three were re-pinned once, by the change that put the shard
/// tier at the live default: its groups ask for floors at 3/4 of the
/// history (`ShardSpec::config_for` no longer clamps the mark), and a
/// gateway sends what queued as one multi-body frame, so the same
/// operations take fewer, differently-timed ordered messages.
fn golden_shard(file: &str, digest: u64) {
    let path = scenarios_dir().join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    assert!(is_shard_scenario(&text), "{file}: expected a [shard] scenario");
    let plan = ShardPlan::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    let out = run_shard_plan(&plan);
    assert_eq!(
        out.digest, digest,
        "{file}: digest {:016x} != pinned {digest:016x} — simulation behaviour changed",
        out.digest
    );
    assert!(out.violations.is_empty(), "{file}: violations: {:?}", out.violations);
    assert!(
        out.expect_failures.is_empty(),
        "{file}: expectations failed: {:?}",
        out.expect_failures
    );
}

#[test]
fn shard_8x32() {
    golden_shard("shard_8x32.toml", 0x73bc2e04106d35f4);
}

#[test]
fn shard_split_under_load() {
    golden_shard("shard_split_under_load.toml", 0xd5719609a0f303cf);
}

#[test]
fn shard_rebalance_after_crash() {
    golden_shard("shard_rebalance_after_crash.toml", 0xae2252d93ce669fb);
}

/// Every file in `scenarios/` must be pinned above — a scenario with
/// no golden entry is invisible to regression testing — and the suite
/// must stay at or above the ten-file floor.
#[test]
fn every_scenario_file_is_pinned() {
    let pinned: BTreeSet<&str> = [
        "batching_pipeline.toml",
        "bb_large_payload.toml",
        "crash_sequencer.toml",
        "fig6_parallel_peak.toml",
        "grid_512.toml",
        "multi_8x128.toml",
        "noisy_link.toml",
        "paper_2.toml",
        "paper_30.toml",
        "paper_8.toml",
        "partition_heal.toml",
        "resilience_r4.toml",
        "shard_8x32.toml",
        "shard_rebalance_after_crash.toml",
        "shard_split_under_load.toml",
        "stress_1000.toml",
    ]
    .into_iter()
    .collect();
    let on_disk: BTreeSet<String> = std::fs::read_dir(scenarios_dir())
        .expect("scenarios/ directory")
        .map(|e| e.expect("dir entry").file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".toml"))
        .collect();
    let on_disk_refs: BTreeSet<&str> = on_disk.iter().map(String::as_str).collect();
    assert_eq!(on_disk_refs, pinned, "scenarios/ and the golden table must match");
    assert!(pinned.len() >= 10, "the suite keeps at least ten scenarios");
}
