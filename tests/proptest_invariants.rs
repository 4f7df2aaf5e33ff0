//! Property-based tests of the protocol's core invariants: codec
//! round-trips, fragmentation coverage, history-buffer laws, and the
//! total-order property under randomized loss/duplication schedules.

use amoeba::core::{
    decode_wire_frame, decode_wire_msg, encode_wire_msg, pack_batch_items, BatchItem, BatchReq,
    Body, FrameEncoder, GroupId, Hdr, HistoryBuffer, MemberId, Seqno, SequencedKind, Stamped,
    ViewId, WireMsg, BATCH_FRAME_BUDGET,
};
use amoeba::flip::{split_lens, FlipAddress, FragKey, Reassembler};
use bytes::Bytes;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Codec round-trip over arbitrary message contents
// ---------------------------------------------------------------------

fn arb_member() -> impl Strategy<Value = MemberId> {
    (0u32..64).prop_map(MemberId)
}

fn arb_seqno() -> impl Strategy<Value = Seqno> {
    (0u64..1 << 40).prop_map(Seqno)
}

fn arb_payload() -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..2_000).prop_map(Bytes::from)
}

fn arb_kind() -> impl Strategy<Value = SequencedKind> {
    prop_oneof![
        (arb_member(), any::<u64>(), arb_payload()).prop_map(|(origin, sender_seq, payload)| {
            SequencedKind::App { origin, sender_seq, payload }
        }),
        (arb_member(), any::<u64>()).prop_map(|(id, n)| SequencedKind::Join {
            member: amoeba::core::MemberMeta {
                id,
                addr: FlipAddress::process(n % (1 << 62)),
            },
        }),
        (arb_member(), any::<bool>())
            .prop_map(|(member, forced)| SequencedKind::Leave { member, forced }),
        arb_member().prop_map(|m| SequencedKind::SequencerHandoff { new_sequencer: m }),
    ]
}

fn arb_body() -> impl Strategy<Value = Body> {
    prop_oneof![
        (any::<u64>(), arb_payload())
            .prop_map(|(sender_seq, payload)| Body::BcastReq { sender_seq, payload }),
        (arb_seqno(), arb_kind()).prop_map(|(seqno, kind)| Body::BcastData {
            entry: Stamped { seqno, kind }.into()
        }),
        (any::<u64>(), arb_payload())
            .prop_map(|(sender_seq, payload)| Body::BcastOrig { sender_seq, payload }),
        (arb_seqno(), arb_member(), any::<u64>()).prop_map(|(seqno, origin, sender_seq)| {
            Body::Accept { seqno, origin, sender_seq }
        }),
        (arb_seqno(), arb_kind(), 0u32..32).prop_map(|(seqno, kind, resilience)| {
            Body::Tentative { entry: Stamped { seqno, kind }.into(), resilience }
        }),
        arb_seqno().prop_map(|seqno| Body::TentAck { seqno }),
        (arb_seqno(), arb_seqno()).prop_map(|(from, to)| Body::RetransReq { from, to }),
        arb_seqno().prop_map(|horizon| Body::SyncReq { horizon }),
        Just(Body::Status),
        Just(Body::ViewQuery),
        Just(Body::LeaveAck),
        (any::<u64>(), any::<u64>()).prop_map(|(a, nonce)| Body::JoinReq {
            addr: FlipAddress::process(a % (1 << 62)),
            nonce,
        }),
        any::<u64>().prop_map(|nonce| Body::LeaveReq { nonce }),
        (0u32..1000, arb_member()).prop_map(|(attempt, coord)| Body::Invite { attempt, coord }),
        (any::<u64>(), any::<u64>()).prop_map(|(n, _)| Body::Ping { nonce: n }),
        (any::<u64>(), any::<u64>()).prop_map(|(n, _)| Body::Pong { nonce: n }),
        proptest::collection::vec(arb_batch_item(), 0..12)
            .prop_map(|items| Body::BcastBatch { items }),
        proptest::collection::vec(
            (any::<u64>(), arb_payload())
                .prop_map(|(sender_seq, payload)| BatchReq { sender_seq, payload }),
            0..8,
        )
        .prop_map(|reqs| Body::BcastReqBatch { reqs }),
    ]
}

fn arb_batch_item() -> impl Strategy<Value = BatchItem> {
    prop_oneof![
        (arb_seqno(), arb_kind())
            .prop_map(|(seqno, kind)| BatchItem::Entry(Stamped { seqno, kind }.into())),
        (arb_seqno(), arb_member(), any::<u64>()).prop_map(|(seqno, origin, sender_seq)| {
            BatchItem::Accept { seqno, origin, sender_seq }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn codec_roundtrips_arbitrary_messages(
        group in any::<u64>(),
        view in any::<u32>(),
        sender in arb_member(),
        last in arb_seqno(),
        floor in arb_seqno(),
        body in arb_body(),
    ) {
        let msg = WireMsg {
            hdr: Hdr {
                group: GroupId(group),
                view: ViewId(view, 0),
                sender,
                last_delivered: last,
                gc_floor: floor,
            },
            body,
        };
        let bytes = encode_wire_msg(&msg);
        let decoded = decode_wire_msg(&mut bytes.clone()).expect("round trip decodes");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn codec_never_panics_on_garbage(raw in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Arbitrary bytes must decode to Ok or Err, never panic.
        let _ = decode_wire_msg(&mut Bytes::from(raw));
    }

    #[test]
    fn gather_frames_roundtrip_arbitrary_messages(
        sender in arb_member(),
        body in arb_body(),
    ) {
        // The segmented (gather) encoding must be observably identical
        // to the contiguous one for every body shape — payloads above
        // the gather threshold just travel as a shared tail segment.
        let msg = WireMsg {
            hdr: Hdr {
                group: GroupId(5),
                view: ViewId(3, 0),
                sender,
                last_delivered: Seqno(10),
                gc_floor: Seqno(9),
            },
            body,
        };
        let mut enc = FrameEncoder::new();
        let frame = enc.encode_frame(&msg);
        // The joined segments are byte-identical to the one-shot frame.
        prop_assert_eq!(frame.to_contiguous(), encode_wire_msg(&msg));
        let decoded = decode_wire_frame(frame).expect("frame decodes");
        prop_assert_eq!(decoded, msg);
    }

    #[test]
    fn packed_batches_never_straddle_the_fragmentation_limit(
        items in proptest::collection::vec(arb_batch_item(), 0..64),
        max_batch in 1usize..32,
        hdr_bits in any::<u64>(),
    ) {
        // The sequencer's flush logic promises (DESIGN.md §6): a frame
        // with 2+ items encodes within one Ethernet frame's budget (so
        // "one interrupt per batch" is physically true), order and
        // multiset of items are preserved, and a lone oversized item
        // ships alone.
        let frames = pack_batch_items(items.clone(), max_batch, BatchItem::wire_size);
        let hdr = Hdr {
            group: GroupId(hdr_bits),
            view: ViewId(hdr_bits as u32, 0),
            sender: MemberId(3),
            last_delivered: Seqno(hdr_bits >> 8),
            gc_floor: Seqno(hdr_bits >> 9),
        };
        let mut reassembled = Vec::new();
        for frame in frames {
            prop_assert!(!frame.is_empty(), "no empty frames");
            prop_assert!(frame.len() <= max_batch);
            let msg = WireMsg { hdr, body: Body::BcastBatch { items: frame.clone() } };
            if frame.len() >= 2 {
                prop_assert!(
                    msg.wire_size() <= BATCH_FRAME_BUDGET,
                    "a {}-item frame of {} bytes straddles the limit",
                    frame.len(),
                    msg.wire_size()
                );
            }
            // Every packed frame must round-trip through the codec.
            let bytes = encode_wire_msg(&msg);
            let decoded = decode_wire_msg(&mut bytes.clone()).expect("frame decodes");
            prop_assert_eq!(decoded, msg);
            reassembled.extend(frame);
        }
        prop_assert_eq!(reassembled, items, "pack must preserve order and multiset");
    }

    #[test]
    fn split_lens_partitions_exactly(total in 0u32..100_000, max in 1u32..9_000) {
        let lens = split_lens(total, max);
        prop_assert_eq!(lens.iter().sum::<u32>(), total);
        prop_assert!(lens.iter().all(|&l| l <= max));
        // Only a zero-length message produces a zero-length fragment.
        if total > 0 {
            prop_assert!(lens.iter().all(|&l| l > 0));
        } else {
            prop_assert_eq!(lens.len(), 1);
        }
    }

    #[test]
    fn reassembly_completes_in_any_arrival_order(
        count in 1u16..20,
        seed in any::<u64>(),
    ) {
        // Shuffle fragment arrival with a simple LCG.
        let mut order: Vec<u16> = (0..count).collect();
        let mut state = seed | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let key = FragKey { src: FlipAddress::process(1), msg_id: 7 };
        let mut r = Reassembler::new();
        let mut done = None;
        for (k, &idx) in order.iter().enumerate() {
            let result = r.insert(key, idx, count, idx, k as u64);
            if k + 1 < order.len() {
                prop_assert!(result.is_none(), "completed early");
            } else {
                done = result;
            }
        }
        let parts = done.expect("last fragment completes the message");
        prop_assert_eq!(parts, (0..count).collect::<Vec<_>>());
    }

    #[test]
    fn history_gc_keeps_exactly_the_tail(
        inserts in 1u64..300,
        cap in 1usize..512,
        floor in 0u64..400,
    ) {
        prop_assume!((inserts as usize) <= cap);
        let mut h = HistoryBuffer::new(cap);
        for i in 1..=inserts {
            h.insert(Stamped {
                seqno: Seqno(i),
                kind: SequencedKind::App {
                    origin: MemberId(0),
                    sender_seq: i,
                    payload: Bytes::new(),
                },
            }.into());
        }
        h.gc(Seqno(floor));
        let expected_remaining = inserts.saturating_sub(floor);
        prop_assert_eq!(h.len() as u64, expected_remaining);
        if expected_remaining > 0 {
            prop_assert_eq!(h.lowest(), Some(Seqno(floor + 1)));
            prop_assert_eq!(h.highest(), Some(Seqno(inserts)));
        }
    }

    #[test]
    fn evicting_insert_never_exceeds_cap(
        cap in 1usize..64,
        inserts in 1u64..200,
    ) {
        let mut h = HistoryBuffer::new(cap);
        for i in 1..=inserts {
            h.insert_evicting(Stamped {
                seqno: Seqno(i),
                kind: SequencedKind::App {
                    origin: MemberId(0),
                    sender_seq: i,
                    payload: Bytes::new(),
                },
            }.into());
            prop_assert!(h.len() <= cap);
        }
        // The retained window is always the newest suffix.
        prop_assert_eq!(h.highest(), Some(Seqno(inserts)));
    }
}
