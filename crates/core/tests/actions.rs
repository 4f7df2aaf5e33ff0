//! Action-level tests: drive a single `GroupCore` directly and inspect
//! the exact actions it emits — error paths, guards, and wire shapes
//! that the end-to-end suites don't pin down individually.

use amoeba_core::{
    Action, Body, Dest, GroupConfig, GroupCore, GroupError, GroupId, Hdr, MemberId, Method,
    Seqno, TimerKind, ViewId, WireMsg,
};
use amoeba_flip::FlipAddress;
use bytes::Bytes;

fn founder() -> GroupCore {
    let (core, _) =
        GroupCore::create(GroupId(1), FlipAddress::process(10), GroupConfig::default())
            .expect("valid config");
    core
}

fn joiner() -> (GroupCore, Vec<Action>) {
    GroupCore::join(GroupId(1), FlipAddress::process(20), GroupConfig::default())
        .expect("valid config")
}

fn sends(actions: &[Action]) -> Vec<(&Dest, &WireMsg)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send { dest, msg } => Some((dest, msg)),
            _ => None,
        })
        .collect()
}

fn hdr_from(sender: u32, view: u32) -> Hdr {
    Hdr {
        group: GroupId(1),
        view: ViewId(view, 0),
        sender: MemberId(sender),
        last_delivered: Seqno::ZERO,
        gc_floor: Seqno::ZERO,
    }
}

#[test]
fn create_completes_synchronously_with_correct_info() {
    let (core, actions) =
        GroupCore::create(GroupId(9), FlipAddress::process(1), GroupConfig::default())
            .expect("valid");
    let info = match &actions[..] {
        [.., Action::JoinDone(Ok(info))] => info,
        other => panic!("expected JoinDone(Ok) last, got {other:?}"),
    };
    assert_eq!(info.me, MemberId(0));
    assert!(info.is_sequencer);
    assert_eq!(info.view, ViewId(1, 0));
    assert_eq!(info.num_members(), 1);
    assert_eq!(core.group(), GroupId(9));
}

#[test]
fn bad_config_is_rejected_at_construction() {
    let bad = GroupConfig { history_cap: 0, ..GroupConfig::default() };
    let err = GroupCore::create(GroupId(1), FlipAddress::process(1), bad).unwrap_err();
    assert!(matches!(err, GroupError::BadConfig(_)));
}

#[test]
fn join_multicasts_request_and_arms_retry() {
    let (_, actions) = joiner();
    let s = sends(&actions);
    assert_eq!(s.len(), 1);
    assert!(matches!(s[0].0, Dest::Group));
    assert!(matches!(s[0].1.body, Body::JoinReq { .. }));
    assert!(actions
        .iter()
        .any(|a| matches!(a, Action::SetTimer { kind: TimerKind::JoinRetry, .. })));
}

#[test]
fn send_while_joining_fails_not_member() {
    let (mut core, _) = joiner();
    let actions = core.send_to_group(Bytes::new());
    assert!(actions
        .iter()
        .any(|a| matches!(a, Action::SendDone(Err(GroupError::NotMember)))));
}

#[test]
fn reset_while_joining_fails_not_member() {
    let (mut core, _) = joiner();
    let actions = core.reset(1);
    assert!(actions
        .iter()
        .any(|a| matches!(a, Action::ResetDone(Err(GroupError::NotMember)))));
}

#[test]
fn leave_after_leave_is_idempotent_ok() {
    let mut core = founder();
    let first = core.leave();
    assert!(first.iter().any(|a| matches!(a, Action::LeaveDone(Ok(())))));
    let second = core.leave();
    assert!(second.iter().any(|a| matches!(a, Action::LeaveDone(Ok(())))));
}

#[test]
fn ping_is_answered_with_pong_to_source() {
    let mut core = founder();
    let from = FlipAddress::process(77);
    let msg = WireMsg { hdr: hdr_from(5, 1), body: Body::Ping { nonce: 42 } };
    let actions = core.handle_message(from, msg);
    let s = sends(&actions);
    assert_eq!(s.len(), 1);
    assert!(matches!(s[0].0, Dest::Unicast(a) if *a == from));
    assert!(matches!(s[0].1.body, Body::Pong { nonce: 42 }));
}

#[test]
fn view_query_is_answered_with_current_view() {
    let mut core = founder();
    let from = FlipAddress::process(88);
    let actions = core.handle_message(from, WireMsg { hdr: hdr_from(5, 1), body: Body::ViewQuery });
    let s = sends(&actions);
    assert_eq!(s.len(), 1);
    match &s[0].1.body {
        Body::NewView { view, members, sequencer, .. } => {
            assert_eq!(*view, ViewId(1, 0));
            assert_eq!(members.len(), 1);
            assert_eq!(*sequencer, MemberId(0));
        }
        other => panic!("expected NewView, got {other:?}"),
    }
}

#[test]
fn wrong_group_messages_are_ignored() {
    let mut core = founder();
    let msg = WireMsg {
        hdr: Hdr { group: GroupId(999), ..hdr_from(1, 1) },
        body: Body::Ping { nonce: 1 },
    };
    let actions = core.handle_message(FlipAddress::process(5), msg);
    assert!(actions.is_empty());
}

#[test]
fn stale_epoch_data_is_dropped() {
    let mut core = founder();
    // view 0 < our view 1: stale.
    let msg = WireMsg {
        hdr: hdr_from(3, 0),
        body: Body::TentAck { seqno: Seqno(1) },
    };
    let actions = core.handle_message(FlipAddress::process(5), msg);
    assert!(sends(&actions).is_empty());
}

#[test]
fn method_selection_shapes_the_wire() {
    // Non-sequencer member: construct by joining, then force a view via
    // JoinAck.
    let config = GroupConfig {
        method: Method::Dynamic { bb_threshold: 100 },
        ..GroupConfig::default()
    };
    let (mut core, actions) =
        GroupCore::join(GroupId(1), FlipAddress::process(20), config).expect("valid");
    let nonce = match &sends(&actions)[0].1.body {
        Body::JoinReq { nonce, .. } => *nonce,
        other => panic!("expected JoinReq, got {other:?}"),
    };
    let ack = WireMsg {
        hdr: hdr_from(0, 1),
        body: Body::JoinAck {
            member: MemberId(1),
            view: ViewId(1, 0),
            join_seqno: Seqno(1),
            members: vec![
                amoeba_core::MemberMeta { id: MemberId(0), addr: FlipAddress::process(10) },
                amoeba_core::MemberMeta { id: MemberId(1), addr: FlipAddress::process(20) },
            ],
            resilience: 0,
            nonce,
        },
    };
    let actions = core.handle_message(FlipAddress::process(10), ack);
    assert!(actions.iter().any(|a| matches!(a, Action::JoinDone(Ok(_)))));

    // Small payload → PB request, point-to-point to the sequencer.
    let actions = core.send_to_group(Bytes::from(vec![0u8; 50]));
    let s = sends(&actions);
    assert!(matches!(s[0].0, Dest::Unicast(a) if *a == FlipAddress::process(10)));
    assert!(matches!(s[0].1.body, Body::BcastReq { .. }));
    // Cancel the outstanding send by simulating its acceptance.
    let bcast = WireMsg {
        hdr: hdr_from(0, 1),
        body: Body::BcastData {
            entry: amoeba_core::Stamped {
                seqno: Seqno(2),
                kind: amoeba_core::SequencedKind::App {
                    origin: MemberId(1),
                    sender_seq: 1,
                    payload: Bytes::from(vec![0u8; 50]),
                },
            }.into(),
        },
    };
    let actions = core.handle_message(FlipAddress::process(10), bcast);
    assert!(actions.iter().any(|a| matches!(a, Action::SendDone(Ok(Seqno(2))))));

    // Large payload → BB original, multicast to the group.
    let actions = core.send_to_group(Bytes::from(vec![0u8; 500]));
    let s = sends(&actions);
    assert!(matches!(s[0].0, Dest::Group));
    assert!(matches!(s[0].1.body, Body::BcastOrig { .. }));
}

#[test]
fn second_send_while_pending_is_busy() {
    let config = GroupConfig::default();
    let (mut core, actions) =
        GroupCore::join(GroupId(1), FlipAddress::process(20), config).expect("valid");
    let nonce = match &sends(&actions)[0].1.body {
        Body::JoinReq { nonce, .. } => *nonce,
        other => panic!("expected JoinReq, got {other:?}"),
    };
    let ack = WireMsg {
        hdr: hdr_from(0, 1),
        body: Body::JoinAck {
            member: MemberId(1),
            view: ViewId(1, 0),
            join_seqno: Seqno(1),
            members: vec![
                amoeba_core::MemberMeta { id: MemberId(0), addr: FlipAddress::process(10) },
                amoeba_core::MemberMeta { id: MemberId(1), addr: FlipAddress::process(20) },
            ],
            resilience: 0,
            nonce,
        },
    };
    core.handle_message(FlipAddress::process(10), ack);
    core.send_to_group(Bytes::from_static(b"first"));
    let actions = core.send_to_group(Bytes::from_static(b"second"));
    assert!(actions
        .iter()
        .any(|a| matches!(a, Action::SendDone(Err(GroupError::Busy)))));
}

#[test]
fn oversized_send_rejected_with_sizes() {
    let mut core = founder();
    let actions = core.send_to_group(Bytes::from(vec![0u8; 8_001]));
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::SendDone(Err(GroupError::MessageTooLarge { size: 8_001, max: 8_000 }))
    )));
}

#[test]
fn singleton_sequencer_send_has_no_network_traffic() {
    let mut core = founder();
    let actions = core.send_to_group(Bytes::from_static(b"solo"));
    assert!(sends(&actions).is_empty(), "no other member exists to hear a multicast");
    assert!(actions.iter().any(|a| matches!(a, Action::SendDone(Ok(_)))));
    assert!(actions.iter().any(|a| matches!(a, Action::Deliver(_))));
}

#[test]
fn stats_track_wire_traffic() {
    let mut core = founder();
    let before = core.stats.msgs_out;
    core.handle_message(
        FlipAddress::process(5),
        WireMsg { hdr: hdr_from(5, 1), body: Body::Ping { nonce: 1 } },
    );
    assert_eq!(core.stats.msgs_out, before + 1, "the pong counts");
    assert_eq!(core.stats.msgs_in, 1);
}
