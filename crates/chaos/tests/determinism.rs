//! The determinism pin: the property the whole chaos engine rests on.
//! The same root seed must produce bit-identical delivery logs, event
//! counts, fault statistics and audit results across two runs of the
//! same case — otherwise `chaos --seed S --case K` is not a bug
//! report, and plan minimization (which re-runs candidate plans and
//! compares outcomes) is meaningless.

use amoeba_chaos::gen_case;
use amoeba_scenario::{run_plan, FaultSpec};

/// A case index from each fault family under the default seed
/// (checked by the assertions below, so generator drift is caught).
const CASES: [u64; 4] = [0, 2, 7, 12];

#[test]
fn same_seed_same_run_bit_for_bit() {
    let mut families = (false, false, false);
    for &k in &CASES {
        let plan = gen_case(1, k);
        for f in &plan.faults {
            families.0 |= matches!(f, FaultSpec::Crash { .. });
            families.1 |= matches!(f, FaultSpec::Partition { .. });
            families.2 |= matches!(f, FaultSpec::Noise { drop, .. } if *drop > 0.0);
        }
        assert_eq!(plan, gen_case(1, k), "case generation must be pure");
        let a = run_plan(&plan);
        let b = run_plan(&plan);
        assert_eq!(a.digest, b.digest, "case {k}: digests diverged");
        assert_eq!(a.logs, b.logs, "case {k}: delivery logs diverged");
        assert_eq!(a.events, b.events, "case {k}: event counts diverged");
        assert_eq!(a.chaos, b.chaos, "case {k}: fault statistics diverged");
        assert_eq!(a.fates, b.fates, "case {k}: member fates diverged");
        assert_eq!(
            a.violations, b.violations,
            "case {k}: audit results diverged"
        );
    }
    assert!(families.0, "sample must include a crash case");
    assert!(families.1, "sample must include a partition case");
    assert!(families.2, "sample must include link noise");
}

/// The scale pin: the thousand-node, eight-group scenario world must
/// replay bit-for-bit. The chaos engine's determinism argument covers
/// small worlds case by case; this extends it to the event lanes' hot
/// path at full scale, where a single unstable ordering decision
/// (a same-instant tie, an iteration over an unordered map, a stray
/// `HashMap` in per-node state) would shift the digest.
#[test]
fn thousand_node_scenario_replays_bit_for_bit() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios/multi_8x128.toml");
    let text = std::fs::read_to_string(&path).expect("scenarios/multi_8x128.toml");
    let plan = amoeba_scenario::ScenarioPlan::parse(&text).expect("pinned scenario parses");
    let a = run_plan(&plan);
    let b = run_plan(&plan);
    assert_eq!(a.digest, b.digest, "scenario digests diverged across replays");
    assert_eq!(a.events, b.events, "event counts diverged");
    assert_eq!(a.now_us, b.now_us, "final clocks diverged");
    assert_eq!(a.live_members, b.live_members, "member fates diverged");
    assert_eq!(a.delivered, b.delivered, "delivery counts diverged");
    assert!(a.violations.is_empty(), "the pinned scenario must audit clean: {:?}", a.violations);
    assert!(a.expect_failures.is_empty(), "expectations failed: {:?}", a.expect_failures);
}

#[test]
fn different_seeds_and_cases_diverge() {
    let base = run_plan(&gen_case(1, 0));
    assert_ne!(
        base.digest,
        run_plan(&gen_case(2, 0)).digest,
        "different root seeds must explore different runs"
    );
    assert_ne!(
        base.digest,
        run_plan(&gen_case(1, 1)).digest,
        "different case indices must explore different runs"
    );
}

/// The CI smoke (`chaos --seed 2 --cases 64`) pinned to its totals. The
/// golden digests missed a `run_until` that ran one event past its
/// deadline; these totals did not. An engine change that reorders,
/// drops or adds an event turns this red instead of going unnoticed.
#[test]
fn the_ci_smoke_seed_replays_to_its_pinned_totals() {
    let (mut submitted, mut errs, mut events) = (0, 0, 0);
    let mut faults = [0u64; 4];
    for k in 0..64 {
        let out = run_plan(&gen_case(2, k));
        submitted += out.submitted;
        errs += out.sends_err;
        events += out.events;
        let c = &out.chaos;
        for (total, n) in faults.iter_mut().zip([c.dropped, c.duplicated, c.reordered, c.partitioned]) {
            *total += n;
        }
    }
    assert_eq!((submitted, errs, events), (2_247, 183, 401_645), "submitted, send errors, events");
    assert_eq!(faults, [10_912, 2_153, 2_960, 3_586], "dropped, duplicated, reordered, partitioned");
}
