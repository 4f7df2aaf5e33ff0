//! A bounded slice of the explorer runs inside the tier-1 suite: a
//! spread of seeded adversarial schedules (loss/duplication/reorder,
//! partitions with heals, crashes — sequencer included — across
//! PB/BB/Dynamic and batching on/off) must uphold every protocol
//! invariant. CI runs a larger smoke via the `chaos` binary; the
//! nightly soak runs thousands.

use amoeba_chaos::gen_case;
use amoeba_scenario::{run_plan, FaultSpec};

#[test]
fn a_spread_of_seeded_schedules_upholds_the_invariants() {
    let mut crashes = 0;
    let mut partitions = 0;
    let mut delivered = 0usize;
    for k in 0..24 {
        let plan = gen_case(7, k);
        let count = |pred: fn(&FaultSpec) -> bool| plan.faults.iter().filter(|f| pred(f)).count();
        crashes += count(|f| matches!(f, FaultSpec::Crash { .. }));
        partitions += count(|f| matches!(f, FaultSpec::Partition { .. }));
        let out = run_plan(&plan);
        assert!(
            out.violations.is_empty(),
            "case {k} ({plan:?}) violated the protocol: {:?}",
            out.violations
        );
        delivered += out.logs.iter().map(Vec::len).sum::<usize>();
    }
    assert!(crashes > 0, "the slice exercised crashes");
    assert!(partitions > 0, "the slice exercised partitions");
    assert!(delivered > 500, "the runs actually delivered traffic: {delivered}");
}
