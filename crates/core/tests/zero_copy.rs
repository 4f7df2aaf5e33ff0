//! Zero-copy guards for the wire path (DESIGN.md §7).
//!
//! These tests pin the *mechanism*, not just the behavior: decoded
//! payloads must be refcounted views of the incoming frame (pointer
//! identity, same allocation), and the frame encoder must reuse its
//! scratch allocation once every receiver lets go. A future codec edit
//! that silently reintroduces a copy fails here, not in a profiler
//! three PRs later.

use amoeba_core::{
    decode_wire_msg, encode_wire_msg, Action, BatchItem, Body, FrameEncoder, GroupConfig,
    GroupCore, GroupId, Hdr, MemberId, Seqno, Sequenced, SequencedKind, Stamped, ViewId, WireMsg,
};
use amoeba_flip::FlipAddress;
use bytes::Bytes;

fn hdr() -> Hdr {
    Hdr {
        group: GroupId(1),
        view: ViewId(1, 0),
        sender: MemberId(2),
        last_delivered: Seqno(41),
        gc_floor: Seqno(40),
    }
}

fn app_entry(seqno: u64, payload: Bytes) -> Sequenced {
    Stamped {
        seqno: Seqno(seqno),
        kind: SequencedKind::App { origin: MemberId(2), sender_seq: seqno, payload },
    }.into()
}

/// The payload of a decoded message, or a panic if it is not an app
/// entry.
fn payload_of(msg: &WireMsg) -> &Bytes {
    match &msg.body {
        Body::BcastData { entry } => match &entry.kind {
            SequencedKind::App { payload, .. } => payload,
            other => panic!("expected app entry, got {other:?}"),
        },
        Body::BcastReq { payload, .. } | Body::BcastOrig { payload, .. } => payload,
        other => panic!("expected a payload-carrying body, got {other:?}"),
    }
}

#[test]
fn decoded_payload_shares_the_frame_allocation() {
    let msg = WireMsg {
        hdr: hdr(),
        body: Body::BcastData { entry: app_entry(7, Bytes::from(vec![0xAB; 8_000])) },
    };
    let frame = encode_wire_msg(&msg);
    let decoded = decode_wire_msg(&mut frame.clone()).expect("decodes");
    let payload = payload_of(&decoded);

    // Same allocation (shared refcount)…
    assert!(
        payload.shares_allocation(&frame),
        "decoded payload must be a view of the frame, not a copy"
    );
    // …and pointer identity: the payload points *into* the frame bytes.
    let base = frame.as_ptr() as usize;
    let p = payload.as_ptr() as usize;
    assert!(
        p >= base && p + payload.len() <= base + frame.len(),
        "payload {p:#x}+{} must lie within the frame {base:#x}+{}",
        payload.len(),
        frame.len()
    );
    assert_eq!(&payload[..], &vec![0xAB; 8_000][..]);
}

#[test]
fn every_payload_in_a_batch_frame_is_a_view() {
    let msg = WireMsg {
        hdr: hdr(),
        body: Body::BcastBatch {
            items: vec![
                BatchItem::Entry(app_entry(1, Bytes::from(vec![1u8; 300]))),
                BatchItem::Accept { seqno: Seqno(2), origin: MemberId(1), sender_seq: 9 },
                BatchItem::Entry(app_entry(3, Bytes::from(vec![3u8; 700]))),
            ],
        },
    };
    let frame = encode_wire_msg(&msg);
    let decoded = decode_wire_msg(&mut frame.clone()).expect("decodes");
    let Body::BcastBatch { items } = &decoded.body else { panic!("batch expected") };
    let mut seen = 0;
    for item in items {
        if let BatchItem::Entry(entry) = item {
            if let SequencedKind::App { payload, .. } = &entry.kind {
                assert!(payload.shares_allocation(&frame), "batched payload copied");
                seen += 1;
            }
        }
    }
    assert_eq!(seen, 2);
}

#[test]
fn frame_encoder_reuses_its_scratch_allocation() {
    let msg = WireMsg {
        hdr: hdr(),
        body: Body::BcastData { entry: app_entry(7, Bytes::from(vec![7u8; 4_000])) },
    };
    let mut enc = FrameEncoder::new();
    let first = enc.encode(&msg);
    let first_ptr = first.as_ptr() as usize;
    drop(first); // every receiver is done with the frame
    let second = enc.encode(&msg);
    assert_eq!(
        second.as_ptr() as usize,
        first_ptr,
        "the encoder must reclaim and reuse the previous frame's allocation"
    );
}

#[test]
fn frame_encoder_leaves_live_frames_alone() {
    let msg = WireMsg {
        hdr: hdr(),
        body: Body::BcastData { entry: app_entry(7, Bytes::from(vec![7u8; 512])) },
    };
    let mut enc = FrameEncoder::new();
    let first = enc.encode(&msg);
    let snapshot = first.to_vec();
    // A decoded payload still references the frame: no reuse allowed.
    let decoded = decode_wire_msg(&mut first.clone()).expect("decodes");
    let held = payload_of(&decoded).clone();
    drop(decoded);
    drop(first);
    let second = enc.encode(&msg);
    assert!(!second.shares_allocation(&held), "a pinned frame must not be recycled");
    assert_eq!(&held[..], &vec![7u8; 512][..], "retained payload unchanged");
    assert_eq!(second.to_vec(), snapshot, "same message, same bytes");
}

#[test]
fn encoder_and_oneshot_produce_identical_frames() {
    let bodies = vec![
        Body::BcastReq { sender_seq: 1, payload: Bytes::from(vec![9u8; 100]) },
        Body::Status,
        Body::Accept { seqno: Seqno(4), origin: MemberId(0), sender_seq: 6 },
        Body::BcastData { entry: app_entry(5, Bytes::from(vec![5u8; 2_000])) },
    ];
    let mut enc = FrameEncoder::new();
    for body in bodies {
        let msg = WireMsg { hdr: hdr(), body };
        let pooled = enc.encode(&msg);
        let oneshot = encode_wire_msg(&msg);
        assert_eq!(pooled, oneshot, "scratch reuse must not change the wire bytes");
    }
}

// ---------------------------------------------------------------------
// Stamped entries: one allocation per stamp (DESIGN.md §7)
// ---------------------------------------------------------------------

const SEQ_ADDR: FlipAddress = FlipAddress::process(10);
const MEMBER_ADDR: FlipAddress = FlipAddress::process(20);

/// The packets among `actions`. In a two-member group every one of
/// them is addressed to the other member.
fn sent(actions: Vec<Action>) -> Vec<WireMsg> {
    actions
        .into_iter()
        .filter_map(|a| match a {
            Action::Send { msg, .. } => Some(msg),
            _ => None,
        })
        .collect()
}

/// A sequencer and one member, formed sans-io by handing each packet
/// to the other core as it is: no codec, so nothing on the way is
/// decoded into a fresh allocation.
fn sequencer_and_member() -> (GroupCore, GroupCore) {
    let config = GroupConfig::default();
    let (mut seq, _) = GroupCore::create(GroupId(1), SEQ_ADDR, config.clone()).expect("valid");
    let (mut member, join) = GroupCore::join(GroupId(1), MEMBER_ADDR, config).expect("valid");
    let mut to_seq = sent(join);
    while !to_seq.is_empty() {
        let to_member: Vec<WireMsg> =
            to_seq.drain(..).flat_map(|m| sent(seq.handle_message(MEMBER_ADDR, m))).collect();
        to_seq = to_member
            .into_iter()
            .flat_map(|m| sent(member.handle_message(SEQ_ADDR, m)))
            .collect();
    }
    assert!(member.is_member(), "the member was admitted");
    (seq, member)
}

fn entry_of(msg: &WireMsg) -> &Sequenced {
    match &msg.body {
        Body::BcastData { entry } => entry,
        other => panic!("expected BcastData, got {other:?}"),
    }
}

/// The entry the sequencer stamps is the one its multicast carries, the
/// one the member caches in its history, and the one a retransmission
/// answer carries: every holder shares the stamp's allocation.
#[test]
fn a_stamped_entry_is_one_allocation_in_every_holder() {
    let (mut seq, mut member) = sequencer_and_member();
    let msgs = sent(seq.send_to_group(Bytes::from_static(b"shared")));
    let [bcast] = &msgs[..] else { panic!("one multicast per send, got {msgs:?}") };
    let seqno = entry_of(bcast).seqno;
    let stamped = seq.history().get(seqno).expect("the sequencer keeps its stamp").clone();
    assert!(Sequenced::ptr_eq(entry_of(bcast), &stamped), "the multicast copied the entry");

    for msg in msgs {
        member.handle_message(SEQ_ADDR, msg);
    }
    let cached = member.history().get(seqno).expect("the member caches what it delivered");
    assert!(Sequenced::ptr_eq(cached, &stamped), "the member's history copied the entry");

    let info = member.info();
    let nack = WireMsg {
        hdr: Hdr {
            group: GroupId(1),
            view: info.view,
            sender: info.me,
            last_delivered: Seqno::ZERO,
            gc_floor: Seqno::ZERO,
        },
        body: Body::RetransReq { from: seqno, to: seqno },
    };
    let answer = sent(seq.handle_message(MEMBER_ADDR, nack));
    let [resent] = &answer[..] else { panic!("one retransmission, got {answer:?}") };
    assert!(Sequenced::ptr_eq(entry_of(resent), &stamped), "the retransmission copied the entry");
}
