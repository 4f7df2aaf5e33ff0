//! Hostile/corrupt wire input must never turn into unbounded
//! allocations. The flat containers of PR 3 index directly by seqno
//! and member id — values that arrive off the wire — so the core
//! guards them: implausible seqnos are dropped like garbled packets
//! (`seqno_plausible`), and out-of-range member ids land in a sparse
//! overflow instead of resizing the dense tables.

use amoeba_core::{
    Body, GroupConfig, GroupCore, GroupId, Hdr, MemberId, Seqno, SequencedKind, Stamped,
    ViewId,
};
use amoeba_flip::FlipAddress;
use bytes::Bytes;

fn member_core() -> GroupCore {
    // A joined member of a 2-member group: member 1, sequencer 0.
    let (mut core, _) =
        GroupCore::join(GroupId(1), FlipAddress::process(2), GroupConfig::default())
            .expect("valid config");
    let seq_addr = FlipAddress::process(1);
    let join_ack = amoeba_core::WireMsg {
        hdr: Hdr {
            group: GroupId(1),
            view: ViewId::INITIAL,
            sender: MemberId(0),
            last_delivered: Seqno(1),
            gc_floor: Seqno::ZERO,
        },
        body: Body::JoinAck {
            member: MemberId(1),
            view: ViewId::INITIAL,
            join_seqno: Seqno(1),
            members: vec![
                amoeba_core::MemberMeta { id: MemberId(0), addr: seq_addr },
                amoeba_core::MemberMeta { id: MemberId(1), addr: FlipAddress::process(2) },
            ],
            resilience: 0,
            nonce: FlipAddress::process(2).as_u64() ^ 0x6A6F_696E,
        },
    };
    core.handle_message(seq_addr, join_ack);
    assert!(core.is_member(), "test harness: join must complete");
    core
}

fn hdr_from(sender: MemberId) -> Hdr {
    Hdr {
        group: GroupId(1),
        view: ViewId::INITIAL,
        sender,
        last_delivered: Seqno::ZERO,
        gc_floor: Seqno::ZERO,
    }
}

#[test]
fn absurd_seqno_is_dropped_like_a_garbled_packet() {
    let mut core = member_core();
    let seq_addr = FlipAddress::process(1);
    for seqno in [u64::MAX, u64::MAX - 1, 1 << 40] {
        let msg = amoeba_core::WireMsg {
            hdr: hdr_from(MemberId(0)),
            body: Body::BcastData {
                entry: Stamped {
                    seqno: Seqno(seqno),
                    kind: SequencedKind::App {
                        origin: MemberId(0),
                        sender_seq: 1,
                        payload: Bytes::from_static(b"evil"),
                    },
                }.into(),
            },
        };
        // Must not OOM/panic; must not deliver.
        let actions = core.handle_message(seq_addr, msg);
        assert!(
            !actions.iter().any(|a| matches!(a, amoeba_core::Action::Deliver(_))),
            "implausible seqno {seqno} must not deliver"
        );
    }
    // Tentative path takes the same guard.
    let msg = amoeba_core::WireMsg {
        hdr: hdr_from(MemberId(0)),
        body: Body::Tentative {
            entry: Stamped {
                seqno: Seqno(u64::MAX - 7),
                kind: SequencedKind::App {
                    origin: MemberId(0),
                    sender_seq: 2,
                    payload: Bytes::new(),
                },
            }.into(),
            resilience: 1,
        },
    };
    core.handle_message(seq_addr, msg);
}

#[test]
fn seqno_plausibility_window_edge_is_exact() {
    // The guard admits seqnos up to next_expected + max(4·history_cap,
    // 4096). With the default config (cap 128) and a fresh member at
    // next_expected = 2, the last admissible seqno is 2 + 4096 = 4098.
    let window = 4096u64;
    let make = |seqno: u64| amoeba_core::WireMsg {
        hdr: hdr_from(MemberId(0)),
        body: Body::BcastData {
            entry: Stamped {
                seqno: Seqno(seqno),
                kind: SequencedKind::App {
                    origin: MemberId(0),
                    sender_seq: 1,
                    payload: Bytes::from_static(b"edge"),
                },
            }.into(),
        },
    };
    let seq_addr = FlipAddress::process(1);

    // At the edge: the entry is admitted into the out-of-order buffer,
    // which opens a gap and emits a negative acknowledgement.
    let mut core = member_core();
    let actions = core.handle_message(seq_addr, make(2 + window));
    assert!(
        actions.iter().any(|a| matches!(
            a,
            amoeba_core::Action::Send { msg, .. }
                if matches!(msg.body, Body::RetransReq { .. })
        )),
        "the last in-window seqno must be admitted (observable as a nack)"
    );

    // One past the edge: dropped like a garbled packet — no admission,
    // no nack, no allocation proportional to the gap.
    let mut core = member_core();
    let actions = core.handle_message(seq_addr, make(2 + window + 1));
    assert!(
        actions.is_empty(),
        "one past the window must be ignored outright: {actions:?}"
    );

    // The boundary never panics or wraps for bases near the integer
    // edges either (saturating arithmetic on the window addition).
    let mut core = member_core();
    for s in [u64::MAX, u64::MAX - window, u32::MAX as u64, u32::MAX as u64 + window] {
        core.handle_message(seq_addr, make(s));
    }
}

#[test]
fn absurd_member_ids_do_not_resize_the_flat_tables() {
    let mut core = member_core();
    let evil = FlipAddress::process(66);
    // BcastOrig parks by wire-supplied origin; Accept records by the
    // body's origin. Both used to be HashMaps — the flat tables must
    // not turn these ids into multi-gigabyte dense arrays.
    for id in [u32::MAX - 1, u32::MAX - 2, 1 << 30] {
        let orig = amoeba_core::WireMsg {
            hdr: hdr_from(MemberId(id)),
            body: Body::BcastOrig { sender_seq: 1, payload: Bytes::from_static(b"bb") },
        };
        core.handle_message(evil, orig);
        let accept = amoeba_core::WireMsg {
            hdr: hdr_from(MemberId(0)),
            body: Body::Accept { seqno: Seqno(500), origin: MemberId(id), sender_seq: 1 },
        };
        core.handle_message(FlipAddress::process(1), accept);
    }
    // The member still works: a normal broadcast delivers.
    let normal = amoeba_core::WireMsg {
        hdr: hdr_from(MemberId(0)),
        body: Body::BcastData {
            entry: Stamped {
                seqno: Seqno(2),
                kind: SequencedKind::App {
                    origin: MemberId(0),
                    sender_seq: 1,
                    payload: Bytes::from_static(b"ok"),
                },
            }.into(),
        },
    };
    let actions = core.handle_message(FlipAddress::process(1), normal);
    assert!(
        actions.iter().any(|a| matches!(a, amoeba_core::Action::Deliver(_))),
        "the member must keep delivering after hostile traffic"
    );
}
