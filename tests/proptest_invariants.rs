//! Property-based tests of the protocol's core invariants: codec
//! round-trips, fragmentation coverage and history-buffer laws. Each
//! property is a seeded loop over its cases
//! (`common::cases::for_each_case`).

mod common;

use amoeba::core::{
    decode_wire_frame, decode_wire_msg, encode_wire_msg, pack_batch_items, BatchItem, BatchReq,
    Body, FrameEncoder, GroupId, Hdr, HistoryBuffer, MemberId, Seqno, SequencedKind, Stamped,
    ViewId, WireMsg, BATCH_FRAME_BUDGET,
};
use amoeba::flip::{split_lens, FlipAddress, FragKey, Reassembler};
use amoeba::sim::SplitMix64;
use bytes::Bytes;
use common::cases::{for_each_case, pick, vec_of};

// ---------------------------------------------------------------------
// Codec round-trip over arbitrary message contents
// ---------------------------------------------------------------------

fn member(rng: &mut SplitMix64) -> MemberId {
    MemberId(pick(rng, 0..64) as u32)
}

fn seqno(rng: &mut SplitMix64) -> Seqno {
    Seqno(pick(rng, 0..1 << 40))
}

fn payload(rng: &mut SplitMix64) -> Bytes {
    Bytes::from(vec_of(rng, 0..2_000, |rng| rng.next_u64() as u8))
}

fn kind(rng: &mut SplitMix64) -> SequencedKind {
    match rng.gen_range(4) {
        0 => SequencedKind::App {
            origin: member(rng),
            sender_seq: rng.next_u64(),
            payload: payload(rng),
        },
        1 => SequencedKind::Join {
            member: amoeba::core::MemberMeta {
                id: member(rng),
                addr: FlipAddress::process(rng.next_u64() % (1 << 62)),
            },
        },
        2 => SequencedKind::Leave { member: member(rng), forced: rng.gen_bool(0.5) },
        _ => SequencedKind::SequencerHandoff { new_sequencer: member(rng) },
    }
}

fn body(rng: &mut SplitMix64) -> Body {
    match rng.gen_range(18) {
        0 => Body::BcastReq { sender_seq: rng.next_u64(), payload: payload(rng) },
        1 => Body::BcastData { entry: Stamped { seqno: seqno(rng), kind: kind(rng) }.into() },
        2 => Body::BcastOrig { sender_seq: rng.next_u64(), payload: payload(rng) },
        3 => Body::Accept { seqno: seqno(rng), origin: member(rng), sender_seq: rng.next_u64() },
        4 => Body::Tentative {
            entry: Stamped { seqno: seqno(rng), kind: kind(rng) }.into(),
            resilience: pick(rng, 0..32) as u32,
        },
        5 => Body::TentAck { seqno: seqno(rng) },
        6 => Body::RetransReq { from: seqno(rng), to: seqno(rng) },
        7 => Body::SyncReq { horizon: seqno(rng) },
        8 => Body::Status,
        9 => Body::ViewQuery,
        10 => Body::LeaveAck,
        11 => Body::JoinReq {
            addr: FlipAddress::process(rng.next_u64() % (1 << 62)),
            nonce: rng.next_u64(),
        },
        12 => Body::LeaveReq { nonce: rng.next_u64() },
        13 => Body::Invite { attempt: pick(rng, 0..1000) as u32, coord: member(rng) },
        14 => Body::Ping { nonce: rng.next_u64() },
        15 => Body::Pong { nonce: rng.next_u64() },
        16 => Body::BcastBatch { items: vec_of(rng, 0..12, batch_item) },
        _ => Body::BcastReqBatch {
            reqs: vec_of(rng, 0..8, |rng| BatchReq {
                sender_seq: rng.next_u64(),
                payload: payload(rng),
            }),
        },
    }
}

fn batch_item(rng: &mut SplitMix64) -> BatchItem {
    if rng.gen_bool(0.5) {
        BatchItem::Entry(Stamped { seqno: seqno(rng), kind: kind(rng) }.into())
    } else {
        BatchItem::Accept { seqno: seqno(rng), origin: member(rng), sender_seq: rng.next_u64() }
    }
}

#[test]
fn codec_roundtrips_arbitrary_messages() {
    for_each_case("codec_roundtrips_arbitrary_messages", 256, |rng| {
        let msg = WireMsg {
            hdr: Hdr {
                group: GroupId(rng.next_u64()),
                view: ViewId(rng.next_u64() as u32, 0),
                sender: member(rng),
                last_delivered: seqno(rng),
                gc_floor: seqno(rng),
            },
            body: body(rng),
        };
        let bytes = encode_wire_msg(&msg);
        let decoded = decode_wire_msg(&mut bytes.clone()).expect("round trip decodes");
        assert_eq!(decoded, msg);
    });
}

#[test]
fn codec_never_panics_on_garbage() {
    for_each_case("codec_never_panics_on_garbage", 256, |rng| {
        // Arbitrary bytes must decode to Ok or Err, never panic.
        let raw = vec_of(rng, 0..256, |rng| rng.next_u64() as u8);
        let _ = decode_wire_msg(&mut Bytes::from(raw));
    });
}

#[test]
fn gather_frames_roundtrip_arbitrary_messages() {
    for_each_case("gather_frames_roundtrip_arbitrary_messages", 256, |rng| {
        // The segmented (gather) encoding must be observably identical
        // to the contiguous one for every body shape — payloads above
        // the gather threshold just travel as a shared tail segment.
        let msg = WireMsg {
            hdr: Hdr {
                group: GroupId(5),
                view: ViewId(3, 0),
                sender: member(rng),
                last_delivered: Seqno(10),
                gc_floor: Seqno(9),
            },
            body: body(rng),
        };
        let mut enc = FrameEncoder::new();
        let frame = enc.encode_frame(&msg);
        // The joined segments are byte-identical to the one-shot frame.
        assert_eq!(frame.to_contiguous(), encode_wire_msg(&msg));
        let decoded = decode_wire_frame(frame).expect("frame decodes");
        assert_eq!(decoded, msg);
    });
}

#[test]
fn packed_batches_never_straddle_the_fragmentation_limit() {
    for_each_case("packed_batches_never_straddle_the_fragmentation_limit", 256, |rng| {
        let items = vec_of(rng, 0..64, batch_item);
        let max_batch = pick(rng, 1..32) as usize;
        let hdr_bits = rng.next_u64();
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
            assert!(!frame.is_empty(), "no empty frames");
            assert!(frame.len() <= max_batch);
            let msg = WireMsg { hdr, body: Body::BcastBatch { items: frame.clone() } };
            if frame.len() >= 2 {
                assert!(
                    msg.wire_size() <= BATCH_FRAME_BUDGET,
                    "a {}-item frame of {} bytes straddles the limit",
                    frame.len(),
                    msg.wire_size()
                );
            }
            // Every packed frame must round-trip through the codec.
            let bytes = encode_wire_msg(&msg);
            let decoded = decode_wire_msg(&mut bytes.clone()).expect("frame decodes");
            assert_eq!(decoded, msg);
            reassembled.extend(frame);
        }
        assert_eq!(reassembled, items, "pack must preserve order and multiset");
    });
}

#[test]
fn split_lens_partitions_exactly() {
    for_each_case("split_lens_partitions_exactly", 256, |rng| {
        let total = pick(rng, 0..100_000) as u32;
        let max = pick(rng, 1..9_000) as u32;
        let lens = split_lens(total, max);
        assert_eq!(lens.iter().sum::<u32>(), total);
        assert!(lens.iter().all(|&l| l <= max));
        // Only a zero-length message produces a zero-length fragment.
        if total > 0 {
            assert!(lens.iter().all(|&l| l > 0));
        } else {
            assert_eq!(lens.len(), 1);
        }
    });
}

#[test]
fn reassembly_completes_in_any_arrival_order() {
    for_each_case("reassembly_completes_in_any_arrival_order", 256, |rng| {
        let count = pick(rng, 1..20) as u16;
        // Fisher–Yates shuffle of the fragments' arrival order.
        let mut order: Vec<u16> = (0..count).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(i as u64 + 1) as usize);
        }
        let key = FragKey { src: FlipAddress::process(1), msg_id: 7 };
        let mut r = Reassembler::new();
        let mut done = None;
        for (k, &idx) in order.iter().enumerate() {
            let result = r.insert(key, idx, count, idx, k as u64);
            if k + 1 < order.len() {
                assert!(result.is_none(), "completed early");
            } else {
                done = result;
            }
        }
        let parts = done.expect("last fragment completes the message");
        assert_eq!(parts, (0..count).collect::<Vec<_>>());
    });
}

fn app_entry(i: u64) -> amoeba::core::Sequenced {
    Stamped {
        seqno: Seqno(i),
        kind: SequencedKind::App { origin: MemberId(0), sender_seq: i, payload: Bytes::new() },
    }
    .into()
}

#[test]
fn history_gc_keeps_exactly_the_tail() {
    for_each_case("history_gc_keeps_exactly_the_tail", 256, |rng| {
        let inserts = pick(rng, 1..300);
        let cap = pick(rng, 1..512) as usize;
        let floor = pick(rng, 0..400);
        if inserts as usize > cap {
            return; // the buffer never holds more than its cap
        }
        let mut h = HistoryBuffer::new(cap);
        for i in 1..=inserts {
            h.insert(app_entry(i));
        }
        h.gc(Seqno(floor));
        let expected_remaining = inserts.saturating_sub(floor);
        assert_eq!(h.len() as u64, expected_remaining);
        if expected_remaining > 0 {
            assert_eq!(h.lowest(), Some(Seqno(floor + 1)));
            assert_eq!(h.highest(), Some(Seqno(inserts)));
        }
    });
}

#[test]
fn evicting_insert_never_exceeds_cap() {
    for_each_case("evicting_insert_never_exceeds_cap", 256, |rng| {
        let cap = pick(rng, 1..64) as usize;
        let inserts = pick(rng, 1..200);
        let mut h = HistoryBuffer::new(cap);
        for i in 1..=inserts {
            h.insert_evicting(app_entry(i));
            assert!(h.len() <= cap);
        }
        // The retained window is always the newest suffix.
        assert_eq!(h.highest(), Some(Seqno(inserts)));
    });
}
