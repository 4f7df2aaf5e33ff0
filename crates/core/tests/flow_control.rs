//! History flow control with a lone sender among silent members: the
//! high-water sync round (`GroupConfig::history_high_water`), the
//! refusal at `history_cap`, and the two profiles that differ in
//! whether the first is reached before the second.

mod common;

use amoeba_core::{CoreStats, GroupConfig};
use common::{build_group, Done, TestNet};

const SENDER: usize = 1;

/// Member 1's closed loop: `total` sends, `window` in flight.
struct Stream {
    total: usize,
    window: usize,
    submitted: usize,
}

impl Stream {
    fn new(total: usize, window: usize) -> Stream {
        Stream { total, window, submitted: 0 }
    }

    fn done(&self, net: &TestNet) -> usize {
        net.done[SENDER].iter().filter(|d| matches!(d, Done::Send(_))).count()
    }

    /// Runs until every send has completed or virtual time passes
    /// `until_us`.
    fn run(&mut self, net: &mut TestNet, until_us: u64) {
        while self.done(net) < self.total && net.now() < until_us {
            while self.submitted < self.total && self.submitted - self.done(net) < self.window {
                net.send(SENDER, format!("m{}", self.submitted).as_bytes());
                self.submitted += 1;
            }
            net.run_for(50);
        }
    }
}

/// What the three members counted since `before`, summed.
fn grew(net: &TestNet, before: &[CoreStats], f: fn(&CoreStats) -> u64) -> u64 {
    (0..3).map(|n| f(&net.core(n).stats) - f(&before[n])).sum()
}

fn stats(net: &TestNet) -> Vec<CoreStats> {
    (0..3).map(|n| net.core(n).stats).collect()
}

fn assert_all_delivered_in_one_order(net: &TestNet, sends: usize) {
    for node in 0..3 {
        assert_eq!(net.messages_at(node).len(), sends, "node {node}");
    }
    assert_eq!(net.sends_completed(SENDER), sends);
    net.assert_prefix_consistent(&[0, 1, 2]);
}

#[test]
fn a_lone_sender_never_meets_the_full_buffer_at_the_default_profile() {
    let base = GroupConfig::default();
    let sends = 10 * base.history_cap;
    for window in [1, 32] {
        let config = GroupConfig { send_window: window, ..base.clone() };
        let mut net = build_group(3, config, 91);
        let before = stats(&net);
        Stream::new(sends, window).run(&mut net, 10_000_000);
        net.run_for(1_000);

        assert_eq!(grew(&net, &before, |s| s.flow_control_drops), 0, "window {window}");
        assert_eq!(grew(&net, &before, |s| s.send_retries), 0, "window {window}");
        // A round frees at most a full buffer and is needed at least
        // every high-water's worth of messages.
        let rounds = grew(&net, &before, |s| s.sync_rounds) as usize;
        let bounds = sends / base.history_cap..=sends / base.history_high_water + 1;
        assert!(bounds.contains(&rounds), "window {window}: {rounds} rounds, expected {bounds:?}");
        assert_all_delivered_in_one_order(&net, sends);
    }
}

#[test]
fn the_paper_profile_keeps_the_1996_refusals() {
    let base = GroupConfig::paper();
    let sends = 10 * base.history_cap;
    for window in [1, 32] {
        let config = GroupConfig { send_window: window, ..base.clone() };
        let mut net = build_group(3, config, 92);
        let before = stats(&net);
        Stream::new(sends, window).run(&mut net, 60_000_000);
        net.run_for(1_000);

        // The mechanism behind the paper's Figures 4 and 5: the buffer
        // fills, the request is refused, the sender's timer retries it.
        assert!(grew(&net, &before, |s| s.flow_control_drops) > 0, "window {window}");
        assert!(grew(&net, &before, |s| s.send_retries) > 0, "window {window}");
        assert_all_delivered_in_one_order(&net, sends);
    }
}

#[test]
fn a_cut_off_member_still_fills_the_buffer_and_loses_nothing() {
    let config = GroupConfig::default();
    let cap = config.history_cap;
    let sends = cap + 40;
    let mut net = build_group(3, config, 93);
    let before = stats(&net);

    net.set_cut(2, true);
    let cut_at = net.now();
    let mut stream = Stream::new(sends, 1);
    stream.run(&mut net, cut_at + 200_000);

    // Member 2 answers no round, so the history filled to the cap and
    // the next request was refused: back-pressure, as in 1996.
    let seq = net.core(0).info();
    assert_eq!(seq.history_len, cap);
    assert!(grew(&net, &before, |s| s.flow_control_drops) > 0);
    assert!(stream.done(&net) <= cap, "more sends completed than the buffer holds");
    assert_eq!(stream.submitted, stream.done(&net) + 1, "the refused send is still pending");
    // One round, however many requests arrived above the high-water
    // mark while it was open (re-asks belong to the same round).
    assert_eq!(grew(&net, &before, |s| s.sync_rounds), 1);
    // Nothing member 2 lacks has been collected: the history reaches
    // back to the first seqno it is missing.
    let lacking = seq.last_delivered.0 - net.core(2).info().last_delivered.0;
    assert!(lacking >= cap as u64 - 1, "member 2 received while cut off");
    assert!(seq.history_len as u64 >= lacking);

    net.set_cut(2, false);
    stream.run(&mut net, cut_at + 5_000_000);
    net.run_for(10_000);

    // Caught up from the sequencer's history, and the refused send
    // (with everything behind it) completed.
    assert!(grew(&net, &before, |s| s.retransmissions) >= lacking);
    assert_eq!(grew(&net, &before, |s| s.expels), 0);
    assert_all_delivered_in_one_order(&net, sends);
}

#[test]
fn the_profiles_differ_in_exactly_two_fields() {
    let live = GroupConfig::default();
    let paper = GroupConfig::paper();
    assert_ne!(live.history_high_water, paper.history_high_water);
    assert_ne!(live.status_stagger_us, paper.status_stagger_us);
    assert_eq!(paper.history_high_water, paper.history_cap, "1996: ask only when full");
    let patched = GroupConfig {
        history_high_water: paper.history_high_water,
        status_stagger_us: paper.status_stagger_us,
        ..live
    };
    assert_eq!(patched, paper);
}
