//! A fault-finding harness that has never found a fault proves
//! nothing. This suite deliberately breaks one protocol branch (via
//! `amoeba_core::sabotage`) and demands that the chaos audit flags the
//! damage within the CI smoke budget (64 cases), and that minimization
//! still reproduces the failure on a reduced plan that names its repro
//! line and replays from its serialized form.
//!
//! One `#[test]` only: the sabotage switch is process-global, so the
//! two modes must run sequentially and reset on every path out.

use amoeba_chaos::{gen_case, minimize};
use amoeba_core::sabotage::{self, Sabotage};
use amoeba_scenario::{run_plan, FaultSpec, ScenarioPlan};

const SMOKE_BUDGET: u64 = 64;

/// Runs the smoke budget under `mode` and returns the first failing
/// (plan, violations). Violations are rendered `Violation`s, variant
/// name first.
fn first_failure(mode: Sabotage) -> Option<(ScenarioPlan, Vec<String>)> {
    sabotage::set(mode);
    let result = (0..SMOKE_BUDGET).find_map(|k| {
        let plan = gen_case(1, k);
        let out = run_plan(&plan);
        (!out.violations.is_empty()).then_some((plan, out.violations))
    });
    sabotage::set(Sabotage::None);
    result
}

/// The one fault minimization edits in place (its probabilities).
fn noise(f: &FaultSpec) -> bool {
    matches!(f, FaultSpec::Noise { .. })
}

#[test]
fn sabotaged_protocol_branches_are_caught_and_minimized() {
    // Mode 1: the sequencer stops consulting its duplicate filter.
    // A retransmitted request whose original was already stamped gets
    // stamped again — exactly-once (and, under pipelining, FIFO) dies.
    let (dup_plan, dup_violations) =
        first_failure(Sabotage::SkipDupFilter).expect("skip-dup-filter must be caught");
    assert!(
        dup_violations.iter().any(|v| v.contains("Duplicate {") || v.contains("FifoOrder {")),
        "dup-filter sabotage should surface as duplicate/FIFO damage: {dup_violations:?}"
    );

    // Mode 2: the sequencer ignores retransmission requests. A
    // loss-induced gap can never heal, so the group never converges.
    let (retrans_plan, retrans_violations) =
        first_failure(Sabotage::SkipRetransmit).expect("skip-retransmit must be caught");
    assert!(
        retrans_violations
            .iter()
            .any(|v| v.contains("NoConvergence {") || v.contains("OrderDivergence {")),
        "retransmit sabotage should surface as a convergence failure: {retrans_violations:?}"
    );

    // Minimization must still reproduce each failure under its
    // sabotage, strip it to no more fault events than the original,
    // keep the repro line, and survive the trip through a scenario
    // file: what `chaos --out` writes is what `scenario` replays.
    for (mode, plan) in
        [(Sabotage::SkipDupFilter, &dup_plan), (Sabotage::SkipRetransmit, &retrans_plan)]
    {
        sabotage::set(mode);
        let minimized = minimize(plan);
        let red = run_plan(&minimized);
        let replayed = ScenarioPlan::parse(&minimized.to_toml()).map(|p| run_plan(&p));
        sabotage::set(Sabotage::None);
        assert!(!red.violations.is_empty(), "{mode:?}: the minimized plan must still fail");
        assert!(!red.expect_failures.is_empty(), "{mode:?}: and `scenario` would exit red on it");
        let replayed = replayed.expect("the minimized plan is a valid scenario file");
        assert_eq!(replayed.digest, red.digest, "{mode:?}: the written file replays bit-equal");
        assert_eq!(replayed.violations, red.violations);
        assert!(
            minimized.faults.len() <= plan.faults.len()
                && minimized.faults.iter().all(|f| plan.faults.contains(f) || noise(f))
                && minimized.workloads[0].messages <= plan.workloads[0].messages,
            "{mode:?}: minimization never grows the plan"
        );
        assert_eq!(minimized.name, plan.name, "the plan keeps its name");
        assert!(
            plan.name.starts_with("chaos --seed 1 --case "),
            "which is the line that regenerates the case from two integers: {}",
            plan.name
        );
    }

    // And with the protocol intact, the same budget is clean (the
    // harness isn't just flagging everything).
    assert_eq!(sabotage::current(), Sabotage::None);
    for k in 0..8 {
        let out = run_plan(&gen_case(1, k));
        assert!(out.violations.is_empty(), "intact protocol flagged at case {k}");
    }
}
