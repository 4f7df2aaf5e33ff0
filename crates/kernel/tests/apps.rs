//! App hosting inside the simulated kernel: `SimHost` end to end, the
//! `Workload::Sender` → `SenderApp` desugaring, and crash semantics.

use amoeba_app::{AppEvent, Ctx, GroupApp, SenderApp};
use amoeba_core::{GroupConfig, GroupEvent, GroupId};
use amoeba_kernel::{CostModel, SimHost, SimWorld, Workload};
use amoeba_sim::SimDuration;

#[test]
fn sim_host_forms_runs_and_returns_apps() {
    let mut host = SimHost::new(42, GroupId(1), GroupConfig::paper());
    host.add_app(Box::new(SenderApp::new(0, 25)));
    host.add_app(Box::new(SenderApp::new(0, 25)));
    host.add_app(Box::new(SenderApp::new(1024, 10)));
    let run = host.run();
    assert!(run.all_done, "all senders finish well under the limit");
    assert_eq!(run.apps.len(), 3);
    let world = run.into_world();
    assert_eq!(world.sim.world.metrics.sends_ok.get(), 60);
    // Every member (sequencer included) saw all 60 ordered messages.
    for n in 0..3 {
        assert!(world.sim.world.nodes[n].stats.deliveries >= 60);
    }
}

/// The desugaring is exact: driving a world through
/// `set_workload(Sender…)` and through an explicitly installed
/// `SenderApp` produces the *same simulation* — same completions, same
/// latencies, same event count. (The paper-anchor guarantee of this PR
/// in miniature.)
#[test]
fn workload_sender_desugars_to_sender_app_bit_identically() {
    let run = |explicit_app: bool| {
        let mut w = SimWorld::new(CostModel::mc68030_ether10(), 7);
        let group = GroupId(1);
        for _ in 0..4 {
            w.add_node();
        }
        w.create_group(0, group, GroupConfig::paper());
        for n in 1..4 {
            w.join_group(n, group, GroupConfig::paper());
        }
        w.run_until_ready();
        for n in 0..4 {
            if explicit_app {
                w.set_app(n, Box::new(SenderApp::new(512, 40)));
            } else {
                w.set_workload(n, Workload::Sender { size: 512, remaining: 40 });
            }
        }
        w.kick();
        w.run_for(SimDuration::from_secs(5));
        (
            w.sim.world.metrics.sends_ok.get(),
            w.sim.world.metrics.send_delay_us.mean(),
            w.sim.world.metrics.deliveries.get(),
            w.sim.events_executed(),
        )
    };
    assert_eq!(run(false), run(true));
}

/// Counts deliveries; crashes itself when told to.
struct CountAndCrash {
    crash_after: usize,
    seen: usize,
}

impl GroupApp for CountAndCrash {
    fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
        if let AppEvent::Group(GroupEvent::Message { .. }) = event {
            self.seen += 1;
            if self.seen == self.crash_after {
                ctx.crash();
            }
        }
    }
}

#[test]
fn crashed_node_goes_silent_and_the_group_keeps_ordering() {
    let mut w = SimWorld::new(CostModel::mc68030_ether10(), 11);
    let group = GroupId(1);
    for _ in 0..3 {
        w.add_node();
    }
    w.create_group(0, group, GroupConfig::paper());
    for n in 1..3 {
        w.join_group(n, group, GroupConfig::paper());
    }
    w.run_until_ready();
    // Node 1 streams; node 2 crashes itself after 5 deliveries.
    w.set_workload(1, Workload::Sender { size: 0, remaining: 30 });
    w.set_app(2, Box::new(CountAndCrash { crash_after: 5, seen: 0 }));
    w.kick();
    w.run_for(SimDuration::from_secs(5));
    // The sender (talking to the surviving sequencer) is unaffected.
    assert_eq!(w.sim.world.metrics.sends_ok.get(), 30);
    assert!(!w.app_running(2), "crashed app has ended");
    assert!(w.sim.world.nodes[2].core.is_none(), "crashed kernel is gone");
    let dead_deliveries = w.sim.world.nodes[2].stats.deliveries;
    assert!(
        dead_deliveries < 30,
        "a dead machine must stop delivering (got {dead_deliveries})"
    );
    // And the survivors saw everything.
    assert!(w.sim.world.nodes[0].stats.deliveries >= 30);
}
