//! Binary codec for [`WireMsg`].
//!
//! The simulator never serializes (it charges the paper's header sizes
//! via [`WireMsg::wire_size`]); the live runtime uses this codec so that
//! packets really cross process-agnostic byte boundaries. The framing is
//! self-describing and round-trip property-tested; it is *not*
//! byte-identical to the historical Amoeba layout (sizes for cost
//! accounting come from `wire_size`, not from this encoding).
//!
//! **Zero-copy wire path** (DESIGN.md §7): decoding consumes a
//! [`Bytes`] — every payload comes back as a shared-ownership slice of
//! the incoming buffer (one refcount bump, no byte copy; guarded by a
//! pointer-identity test). Encoding goes through a [`FrameEncoder`]
//! whose per-endpoint scratch is reclaimed once every receiver drops
//! the frame, so a steady-state sender allocates nothing per frame.

use std::collections::VecDeque;

use bytes::{Buf, BufMut, Bytes, BytesMut};

use amoeba_flip::FlipAddress;

use crate::ids::{GroupId, MemberId, Seqno, ViewId};
use crate::message::{BatchItem, BatchReq, Body, Hdr, Sequenced, SequencedKind, WireMsg};
use crate::view::MemberMeta;

/// Failure to decode a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Ran out of bytes.
    Truncated,
    /// Unknown body tag.
    BadBodyTag(u8),
    /// Unknown sequenced-kind tag.
    BadKindTag(u8),
    /// A length field exceeded the remaining buffer.
    BadLength(u64),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "packet truncated"),
            DecodeError::BadBodyTag(t) => write!(f, "unknown body tag {t}"),
            DecodeError::BadKindTag(t) => write!(f, "unknown sequenced-kind tag {t}"),
            DecodeError::BadLength(l) => write!(f, "length field {l} exceeds buffer"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a packet to bytes (one-shot; allocates a fresh buffer).
/// Hot paths hold a [`FrameEncoder`] instead and reuse its scratch.
pub fn encode_wire_msg(msg: &WireMsg) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + msg.wire_size() as usize);
    put_hdr(&mut buf, &msg.hdr);
    put_body(&mut buf, &msg.body);
    buf.freeze()
}

/// Decodes a packet produced by [`encode_wire_msg`] /
/// [`FrameEncoder::encode`], consuming `buf`.
///
/// Payload fields of the returned message are zero-copy slices sharing
/// `buf`'s allocation: the frame stays alive as long as any decoded
/// payload does (and is reclaimed by the sender's [`FrameEncoder`] only
/// after all of them drop).
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, unknown tags, or
/// inconsistent length fields.
pub fn decode_wire_msg(buf: &mut Bytes) -> Result<WireMsg, DecodeError> {
    let hdr = get_hdr(buf)?;
    let body = get_body(buf)?;
    Ok(WireMsg { hdr, body })
}

/// Payloads at least this large travel as a gathered tail segment
/// (below it, the copy into the head is cheaper than the extra
/// refcount traffic of a second segment).
const GATHER_MIN: usize = 512;

/// A wire frame as handed to the transport: head bytes plus an
/// optional **zero-copy payload tail**.
///
/// For the payload-carrying hot-path bodies (`BcastReq`, `BcastOrig`,
/// `BcastData`/`Tentative` with an app entry) whose payload is the
/// frame's final field, [`FrameEncoder::encode_frame`] writes only the
/// protocol fields into the head and ships the application payload as
/// a second segment sharing the *sender's* allocation — the payload
/// bytes are never copied anywhere between `SendToGroup` and delivery
/// (DESIGN.md §7). Everything else travels as a single contiguous
/// head.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Protocol fields (and, for non-gathered frames, everything).
    pub head: Bytes,
    /// The gathered application payload, if split out.
    pub tail: Option<Bytes>,
}

impl WireFrame {
    /// Total frame length in bytes.
    pub fn len(&self) -> usize {
        self.head.len() + self.tail.as_ref().map_or(0, Bytes::len)
    }

    /// Whether the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Joins the segments into one contiguous buffer (copies iff a
    /// tail is present; test/diagnostic use).
    pub fn to_contiguous(&self) -> Bytes {
        match &self.tail {
            None => self.head.clone(),
            Some(tail) => {
                let mut out = BytesMut::with_capacity(self.len());
                out.put_slice(&self.head);
                out.put_slice(tail);
                out.freeze()
            }
        }
    }
}

impl From<Bytes> for WireFrame {
    fn from(head: Bytes) -> Self {
        WireFrame { head, tail: None }
    }
}

/// The gatherable payload of a message: the app payload when it is the
/// frame's final field and large enough to be worth a second segment.
fn gather_payload(msg: &WireMsg) -> Option<&Bytes> {
    let payload = match &msg.body {
        Body::BcastReq { payload, .. } | Body::BcastOrig { payload, .. } => payload,
        Body::BcastData { entry } | Body::Tentative { entry, .. } => match &entry.kind {
            SequencedKind::App { payload, .. } => payload,
            _ => return None,
        },
        _ => return None,
    };
    (payload.len() >= GATHER_MIN).then_some(payload)
}

/// Decodes a [`WireFrame`] (the inverse of
/// [`FrameEncoder::encode_frame`]). A gathered tail is handed back as
/// the payload without being copied or even inspected.
///
/// # Errors
///
/// Returns a [`DecodeError`] on truncation, unknown tags, inconsistent
/// length fields, or a tail attached to a body shape that cannot carry
/// one.
pub fn decode_wire_frame(frame: WireFrame) -> Result<WireMsg, DecodeError> {
    let WireFrame { head, tail } = frame;
    let mut buf = head;
    let Some(tail) = tail else { return decode_wire_msg(&mut buf) };
    let hdr = get_hdr(&mut buf)?;
    need(&buf, 1)?;
    let body = match buf.get_u8() {
        T_BCAST_REQ => {
            need(&buf, 8)?;
            let sender_seq = buf.get_u64();
            Body::BcastReq { sender_seq, payload: take_tail(&mut buf, tail)? }
        }
        T_BCAST_ORIG => {
            need(&buf, 8)?;
            let sender_seq = buf.get_u64();
            Body::BcastOrig { sender_seq, payload: take_tail(&mut buf, tail)? }
        }
        T_BCAST_DATA => Body::BcastData { entry: get_sequenced_gather(&mut buf, tail)? },
        T_TENTATIVE => {
            need(&buf, 4)?;
            let resilience = buf.get_u32();
            Body::Tentative { entry: get_sequenced_gather(&mut buf, tail)?, resilience }
        }
        other => return Err(DecodeError::BadBodyTag(other)),
    };
    Ok(WireMsg { hdr, body })
}

/// Consumes the payload length field closing a gathered head and
/// validates the tail against it.
fn take_tail(buf: &mut Bytes, tail: Bytes) -> Result<Bytes, DecodeError> {
    need(buf, 4)?;
    let len = buf.get_u32() as usize;
    if buf.remaining() != 0 || tail.len() != len {
        return Err(DecodeError::BadLength(len as u64));
    }
    Ok(tail)
}

fn get_sequenced_gather(buf: &mut Bytes, tail: Bytes) -> Result<Sequenced, DecodeError> {
    need(buf, 9)?;
    let seqno = Seqno(buf.get_u64());
    match buf.get_u8() {
        K_APP => {
            need(buf, 12)?;
            let origin = MemberId(buf.get_u32());
            let sender_seq = buf.get_u64();
            let payload = take_tail(buf, tail)?;
            Ok(Sequenced::new(seqno, SequencedKind::App { origin, sender_seq, payload }))
        }
        other => Err(DecodeError::BadKindTag(other)),
    }
}

/// How many recently encoded frames an encoder watches for reclaim.
const ENCODER_POOL: usize = 8;

/// A frame encoder with reusable scratch buffers.
///
/// Each [`FrameEncoder::encode`] writes into a recycled allocation when
/// one is free: the encoder keeps handles to its last few frames and
/// reclaims an allocation as soon as every receiver (and every decoded
/// payload slice) has dropped it. Frames whose payloads are retained
/// (e.g. parked in a history buffer) simply age out of the watch window
/// and are freed by the last owner, as usual.
///
/// One encoder per sending endpoint: it is deliberately not `Sync` —
/// wrap it in the endpoint's own lock, not a global one.
#[derive(Debug, Default)]
pub struct FrameEncoder {
    /// Recently encoded frames, oldest first, watched for reclaim.
    in_flight: VecDeque<Bytes>,
    /// Reclaimed allocations ready for reuse.
    spare: Vec<Vec<u8>>,
}

impl FrameEncoder {
    /// Creates an encoder with empty scratch.
    pub fn new() -> Self {
        FrameEncoder::default()
    }

    /// Encodes `msg`, reusing a reclaimed allocation when possible.
    pub fn encode(&mut self, msg: &WireMsg) -> Bytes {
        self.reclaim();
        let mut v = self.spare.pop().unwrap_or_default();
        v.clear();
        let mut buf = BytesMut::from_vec(v);
        buf.reserve(64 + msg.wire_size() as usize);
        put_hdr(&mut buf, &msg.hdr);
        put_body(&mut buf, &msg.body);
        let out = buf.freeze();
        if self.in_flight.len() >= ENCODER_POOL {
            self.in_flight.pop_front(); // aged out: the last owner frees it
        }
        self.in_flight.push_back(out.clone());
        out
    }

    /// Encodes `msg` as a [`WireFrame`], gathering a large trailing
    /// payload into a zero-copy tail segment (the payload bytes are
    /// shared with the caller's `Bytes`, not copied into the frame).
    pub fn encode_frame(&mut self, msg: &WireMsg) -> WireFrame {
        let Some(payload) = gather_payload(msg) else {
            return WireFrame { head: self.encode(msg), tail: None };
        };
        let payload = payload.clone();
        self.reclaim();
        let mut v = self.spare.pop().unwrap_or_default();
        v.clear();
        let mut buf = BytesMut::from_vec(v);
        buf.reserve(96);
        put_hdr(&mut buf, &msg.hdr);
        put_gather_head(&mut buf, &msg.body, payload.len() as u32);
        let head = buf.freeze();
        if self.in_flight.len() >= ENCODER_POOL {
            self.in_flight.pop_front();
        }
        self.in_flight.push_back(head.clone());
        WireFrame { head, tail: Some(payload) }
    }

    /// Moves every watched frame that has become sole-owned back into
    /// the spare pool.
    fn reclaim(&mut self) {
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].is_unique() {
                let frame = self.in_flight.remove(i).expect("index in range");
                if let Ok(v) = frame.try_unwrap_vec() {
                    self.spare.push(v);
                }
            } else {
                i += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// header
// ---------------------------------------------------------------------

/// Writes the head of a gathered frame: every protocol field of the
/// body including the payload's length prefix, but not the payload
/// bytes themselves (those ship as the frame's tail segment). Must
/// mirror [`put_body`] exactly for the gatherable shapes.
///
/// # Panics
///
/// Panics on a non-gatherable body ([`gather_payload`] pre-filters).
fn put_gather_head(buf: &mut BytesMut, body: &Body, payload_len: u32) {
    match body {
        Body::BcastReq { sender_seq, .. } => {
            buf.put_u8(T_BCAST_REQ);
            buf.put_u64(*sender_seq);
        }
        Body::BcastOrig { sender_seq, .. } => {
            buf.put_u8(T_BCAST_ORIG);
            buf.put_u64(*sender_seq);
        }
        Body::BcastData { entry } => {
            buf.put_u8(T_BCAST_DATA);
            put_sequenced_gather_head(buf, entry);
        }
        Body::Tentative { entry, resilience } => {
            buf.put_u8(T_TENTATIVE);
            buf.put_u32(*resilience);
            put_sequenced_gather_head(buf, entry);
        }
        other => panic!("body {} is not gatherable", other.tag()),
    }
    buf.put_u32(payload_len);
}

fn put_sequenced_gather_head(buf: &mut BytesMut, entry: &Sequenced) {
    buf.put_u64(entry.seqno.0);
    match &entry.kind {
        SequencedKind::App { origin, sender_seq, .. } => {
            buf.put_u8(K_APP);
            buf.put_u32(origin.0);
            buf.put_u64(*sender_seq);
        }
        other => panic!("entry kind {other:?} is not gatherable"),
    }
}

// The header is fixed-layout, so both directions move it as one
// 36-byte block instead of six bounds-checked cursor ops — this runs
// once per frame on the hot path.

fn put_hdr(buf: &mut BytesMut, hdr: &Hdr) {
    let mut b = [0u8; 36];
    b[0..8].copy_from_slice(&hdr.group.0.to_be_bytes());
    b[8..12].copy_from_slice(&hdr.view.0.to_be_bytes());
    b[12..16].copy_from_slice(&hdr.view.1.to_be_bytes());
    b[16..20].copy_from_slice(&hdr.sender.0.to_be_bytes());
    b[20..28].copy_from_slice(&hdr.last_delivered.0.to_be_bytes());
    b[28..36].copy_from_slice(&hdr.gc_floor.0.to_be_bytes());
    buf.put_slice(&b);
}

fn get_hdr(buf: &mut Bytes) -> Result<Hdr, DecodeError> {
    need(buf, 36)?;
    let b = buf.chunk();
    let hdr = Hdr {
        group: GroupId(u64::from_be_bytes(b[0..8].try_into().expect("fixed slice"))),
        view: ViewId(
            u32::from_be_bytes(b[8..12].try_into().expect("fixed slice")),
            u32::from_be_bytes(b[12..16].try_into().expect("fixed slice")),
        ),
        sender: MemberId(u32::from_be_bytes(b[16..20].try_into().expect("fixed slice"))),
        last_delivered: Seqno(u64::from_be_bytes(b[20..28].try_into().expect("fixed slice"))),
        gc_floor: Seqno(u64::from_be_bytes(b[28..36].try_into().expect("fixed slice"))),
    };
    buf.advance(36);
    Ok(hdr)
}

// ---------------------------------------------------------------------
// bodies
// ---------------------------------------------------------------------

const T_BCAST_REQ: u8 = 1;
const T_BCAST_DATA: u8 = 2;
const T_BCAST_ORIG: u8 = 3;
const T_ACCEPT: u8 = 4;
const T_TENTATIVE: u8 = 5;
const T_TENT_ACK: u8 = 6;
const T_RETRANS_REQ: u8 = 7;
const T_SYNC_REQ: u8 = 8;
const T_STATUS: u8 = 9;
const T_JOIN_REQ: u8 = 10;
const T_JOIN_ACK: u8 = 11;
const T_LEAVE_REQ: u8 = 12;
const T_LEAVE_ACK: u8 = 13;
const T_VIEW_QUERY: u8 = 14;
const T_INVITE: u8 = 15;
const T_INVITE_ACK: u8 = 16;
const T_NEW_VIEW: u8 = 17;
const T_PING: u8 = 18;
const T_PONG: u8 = 19;
const T_BCAST_BATCH: u8 = 20;
const T_BCAST_REQ_BATCH: u8 = 21;

// Item tags inside a BcastBatch frame.
const I_ENTRY: u8 = 1;
const I_ACCEPT: u8 = 2;

fn put_body(buf: &mut BytesMut, body: &Body) {
    match body {
        Body::BcastReq { sender_seq, payload } => {
            buf.put_u8(T_BCAST_REQ);
            buf.put_u64(*sender_seq);
            put_bytes(buf, payload);
        }
        Body::BcastData { entry } => {
            buf.put_u8(T_BCAST_DATA);
            put_sequenced(buf, entry);
        }
        Body::BcastBatch { items } => {
            buf.put_u8(T_BCAST_BATCH);
            buf.put_u16(items.len() as u16);
            for item in items {
                match item {
                    BatchItem::Entry(entry) => {
                        buf.put_u8(I_ENTRY);
                        put_sequenced(buf, entry);
                    }
                    BatchItem::Accept { seqno, origin, sender_seq } => {
                        buf.put_u8(I_ACCEPT);
                        buf.put_u64(seqno.0);
                        buf.put_u32(origin.0);
                        buf.put_u64(*sender_seq);
                    }
                }
            }
        }
        Body::BcastReqBatch { reqs } => {
            buf.put_u8(T_BCAST_REQ_BATCH);
            buf.put_u16(reqs.len() as u16);
            for req in reqs {
                buf.put_u64(req.sender_seq);
                put_bytes(buf, &req.payload);
            }
        }
        Body::BcastOrig { sender_seq, payload } => {
            buf.put_u8(T_BCAST_ORIG);
            buf.put_u64(*sender_seq);
            put_bytes(buf, payload);
        }
        Body::Accept { seqno, origin, sender_seq } => {
            buf.put_u8(T_ACCEPT);
            buf.put_u64(seqno.0);
            buf.put_u32(origin.0);
            buf.put_u64(*sender_seq);
        }
        Body::Tentative { entry, resilience } => {
            buf.put_u8(T_TENTATIVE);
            buf.put_u32(*resilience);
            put_sequenced(buf, entry);
        }
        Body::TentAck { seqno } => {
            buf.put_u8(T_TENT_ACK);
            buf.put_u64(seqno.0);
        }
        Body::RetransReq { from, to } => {
            buf.put_u8(T_RETRANS_REQ);
            buf.put_u64(from.0);
            buf.put_u64(to.0);
        }
        Body::SyncReq { horizon } => {
            buf.put_u8(T_SYNC_REQ);
            buf.put_u64(horizon.0);
        }
        Body::Status => buf.put_u8(T_STATUS),
        Body::JoinReq { addr, nonce } => {
            buf.put_u8(T_JOIN_REQ);
            buf.put_u64(addr.as_u64());
            buf.put_u64(*nonce);
        }
        Body::JoinAck { member, view, join_seqno, members, resilience, nonce } => {
            buf.put_u8(T_JOIN_ACK);
            buf.put_u32(member.0);
            buf.put_u32(view.0);
            buf.put_u32(view.1);
            buf.put_u64(join_seqno.0);
            buf.put_u32(*resilience);
            buf.put_u64(*nonce);
            put_members(buf, members);
        }
        Body::LeaveReq { nonce } => {
            buf.put_u8(T_LEAVE_REQ);
            buf.put_u64(*nonce);
        }
        Body::LeaveAck => buf.put_u8(T_LEAVE_ACK),
        Body::ViewQuery => buf.put_u8(T_VIEW_QUERY),
        Body::Invite { attempt, coord } => {
            buf.put_u8(T_INVITE);
            buf.put_u32(*attempt);
            buf.put_u32(coord.0);
        }
        Body::InviteAck { attempt, highest, addr } => {
            buf.put_u8(T_INVITE_ACK);
            buf.put_u32(*attempt);
            buf.put_u64(highest.0);
            buf.put_u64(addr.as_u64());
        }
        Body::NewView { attempt, view, members, sequencer, next_seqno } => {
            buf.put_u8(T_NEW_VIEW);
            buf.put_u32(*attempt);
            buf.put_u32(view.0);
            buf.put_u32(view.1);
            buf.put_u32(sequencer.0);
            buf.put_u64(next_seqno.0);
            put_members(buf, members);
        }
        Body::Ping { nonce } => {
            buf.put_u8(T_PING);
            buf.put_u64(*nonce);
        }
        Body::Pong { nonce } => {
            buf.put_u8(T_PONG);
            buf.put_u64(*nonce);
        }
    }
}

fn get_body(buf: &mut Bytes) -> Result<Body, DecodeError> {
    need(buf, 1)?;
    let tag = buf.get_u8();
    Ok(match tag {
        T_BCAST_REQ => {
            need(buf, 8)?;
            let sender_seq = buf.get_u64();
            Body::BcastReq { sender_seq, payload: get_bytes(buf)? }
        }
        T_BCAST_DATA => Body::BcastData { entry: get_sequenced(buf)? },
        T_BCAST_BATCH => {
            need(buf, 2)?;
            let n = buf.get_u16() as usize;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                need(buf, 1)?;
                items.push(match buf.get_u8() {
                    I_ENTRY => BatchItem::Entry(get_sequenced(buf)?),
                    I_ACCEPT => {
                        need(buf, 20)?;
                        BatchItem::Accept {
                            seqno: Seqno(buf.get_u64()),
                            origin: MemberId(buf.get_u32()),
                            sender_seq: buf.get_u64(),
                        }
                    }
                    other => return Err(DecodeError::BadKindTag(other)),
                });
            }
            Body::BcastBatch { items }
        }
        T_BCAST_REQ_BATCH => {
            need(buf, 2)?;
            let n = buf.get_u16() as usize;
            let mut reqs = Vec::with_capacity(n);
            for _ in 0..n {
                need(buf, 8)?;
                let sender_seq = buf.get_u64();
                reqs.push(BatchReq { sender_seq, payload: get_bytes(buf)? });
            }
            Body::BcastReqBatch { reqs }
        }
        T_BCAST_ORIG => {
            need(buf, 8)?;
            let sender_seq = buf.get_u64();
            Body::BcastOrig { sender_seq, payload: get_bytes(buf)? }
        }
        T_ACCEPT => {
            need(buf, 20)?;
            Body::Accept {
                seqno: Seqno(buf.get_u64()),
                origin: MemberId(buf.get_u32()),
                sender_seq: buf.get_u64(),
            }
        }
        T_TENTATIVE => {
            need(buf, 4)?;
            let resilience = buf.get_u32();
            Body::Tentative { entry: get_sequenced(buf)?, resilience }
        }
        T_TENT_ACK => {
            need(buf, 8)?;
            Body::TentAck { seqno: Seqno(buf.get_u64()) }
        }
        T_RETRANS_REQ => {
            need(buf, 16)?;
            Body::RetransReq { from: Seqno(buf.get_u64()), to: Seqno(buf.get_u64()) }
        }
        T_SYNC_REQ => {
            need(buf, 8)?;
            Body::SyncReq { horizon: Seqno(buf.get_u64()) }
        }
        T_STATUS => Body::Status,
        T_JOIN_REQ => {
            need(buf, 16)?;
            Body::JoinReq {
                addr: FlipAddress::from_u64(buf.get_u64()),
                nonce: buf.get_u64(),
            }
        }
        T_JOIN_ACK => {
            need(buf, 32)?;
            let member = MemberId(buf.get_u32());
            let view = ViewId(buf.get_u32(), buf.get_u32());
            let join_seqno = Seqno(buf.get_u64());
            let resilience = buf.get_u32();
            let nonce = buf.get_u64();
            Body::JoinAck {
                member,
                view,
                join_seqno,
                members: get_members(buf)?,
                resilience,
                nonce,
            }
        }
        T_LEAVE_REQ => {
            need(buf, 8)?;
            Body::LeaveReq { nonce: buf.get_u64() }
        }
        T_LEAVE_ACK => Body::LeaveAck,
        T_VIEW_QUERY => Body::ViewQuery,
        T_INVITE => {
            need(buf, 8)?;
            Body::Invite { attempt: buf.get_u32(), coord: MemberId(buf.get_u32()) }
        }
        T_INVITE_ACK => {
            need(buf, 20)?;
            Body::InviteAck {
                attempt: buf.get_u32(),
                highest: Seqno(buf.get_u64()),
                addr: FlipAddress::from_u64(buf.get_u64()),
            }
        }
        T_NEW_VIEW => {
            need(buf, 24)?;
            let attempt = buf.get_u32();
            let view = ViewId(buf.get_u32(), buf.get_u32());
            let sequencer = MemberId(buf.get_u32());
            let next_seqno = Seqno(buf.get_u64());
            Body::NewView { attempt, view, members: get_members(buf)?, sequencer, next_seqno }
        }
        T_PING => {
            need(buf, 8)?;
            Body::Ping { nonce: buf.get_u64() }
        }
        T_PONG => {
            need(buf, 8)?;
            Body::Pong { nonce: buf.get_u64() }
        }
        other => return Err(DecodeError::BadBodyTag(other)),
    })
}

// ---------------------------------------------------------------------
// pieces
// ---------------------------------------------------------------------

const K_APP: u8 = 1;
const K_JOIN: u8 = 2;
const K_LEAVE: u8 = 3;
const K_HANDOFF: u8 = 4;

fn put_sequenced(buf: &mut BytesMut, entry: &Sequenced) {
    buf.put_u64(entry.seqno.0);
    match &entry.kind {
        SequencedKind::App { origin, sender_seq, payload } => {
            buf.put_u8(K_APP);
            buf.put_u32(origin.0);
            buf.put_u64(*sender_seq);
            put_bytes(buf, payload);
        }
        SequencedKind::Join { member } => {
            buf.put_u8(K_JOIN);
            buf.put_u32(member.id.0);
            buf.put_u64(member.addr.as_u64());
        }
        SequencedKind::Leave { member, forced } => {
            buf.put_u8(K_LEAVE);
            buf.put_u32(member.0);
            buf.put_u8(u8::from(*forced));
        }
        SequencedKind::SequencerHandoff { new_sequencer } => {
            buf.put_u8(K_HANDOFF);
            buf.put_u32(new_sequencer.0);
        }
    }
}

fn get_sequenced(buf: &mut Bytes) -> Result<Sequenced, DecodeError> {
    need(buf, 9)?;
    let seqno = Seqno(buf.get_u64());
    let kind = match buf.get_u8() {
        K_APP => {
            need(buf, 12)?;
            let origin = MemberId(buf.get_u32());
            let sender_seq = buf.get_u64();
            SequencedKind::App { origin, sender_seq, payload: get_bytes(buf)? }
        }
        K_JOIN => {
            need(buf, 12)?;
            SequencedKind::Join {
                member: MemberMeta {
                    id: MemberId(buf.get_u32()),
                    addr: FlipAddress::from_u64(buf.get_u64()),
                },
            }
        }
        K_LEAVE => {
            need(buf, 5)?;
            SequencedKind::Leave { member: MemberId(buf.get_u32()), forced: buf.get_u8() != 0 }
        }
        K_HANDOFF => {
            need(buf, 4)?;
            SequencedKind::SequencerHandoff { new_sequencer: MemberId(buf.get_u32()) }
        }
        other => return Err(DecodeError::BadKindTag(other)),
    };
    Ok(Sequenced::new(seqno, kind))
}

fn put_members(buf: &mut BytesMut, members: &[MemberMeta]) {
    buf.put_u16(members.len() as u16);
    for m in members {
        buf.put_u32(m.id.0);
        buf.put_u64(m.addr.as_u64());
    }
}

fn get_members(buf: &mut Bytes) -> Result<Vec<MemberMeta>, DecodeError> {
    need(buf, 2)?;
    let n = buf.get_u16() as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        need(buf, 12)?;
        out.push(MemberMeta {
            id: MemberId(buf.get_u32()),
            addr: FlipAddress::from_u64(buf.get_u64()),
        });
    }
    Ok(out)
}

fn put_bytes(buf: &mut BytesMut, bytes: &Bytes) {
    buf.put_u32(bytes.len() as u32);
    buf.put_slice(bytes);
}

fn get_bytes(buf: &mut Bytes) -> Result<Bytes, DecodeError> {
    need(buf, 4)?;
    let len = buf.get_u32() as usize;
    if buf.remaining() < len {
        return Err(DecodeError::BadLength(len as u64));
    }
    // O(1): a refcounted view into the frame, not a copy.
    Ok(buf.copy_to_bytes(len))
}

fn need(buf: &Bytes, n: usize) -> Result<(), DecodeError> {
    if buf.remaining() < n {
        Err(DecodeError::Truncated)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> Hdr {
        Hdr {
            group: GroupId(3),
            view: ViewId(2, 0),
            sender: MemberId(5),
            last_delivered: Seqno(77),
            gc_floor: Seqno(70),
        }
    }

    fn roundtrip(body: Body) {
        let msg = WireMsg { hdr: hdr(), body };
        let bytes = encode_wire_msg(&msg);
        let decoded = decode_wire_msg(&mut bytes.clone()).expect("decodes");
        assert_eq!(decoded, msg);
    }

    #[test]
    fn roundtrip_every_body_variant() {
        let meta = MemberMeta { id: MemberId(4), addr: FlipAddress::process(44) };
        let app = Sequenced::new(
            Seqno(9),
            SequencedKind::App {
                origin: MemberId(1),
                sender_seq: 2,
                payload: Bytes::from_static(b"data"),
            },
        );
        roundtrip(Body::BcastReq { sender_seq: 1, payload: Bytes::from_static(b"xyz") });
        roundtrip(Body::BcastData { entry: app.clone() });
        roundtrip(Body::BcastData {
            entry: Sequenced::new(Seqno(1), SequencedKind::Join { member: meta }),
        });
        roundtrip(Body::BcastData {
            entry: Sequenced::new(
                Seqno(2),
                SequencedKind::Leave { member: MemberId(9), forced: true },
            ),
        });
        roundtrip(Body::BcastData {
            entry: Sequenced::new(
                Seqno(3),
                SequencedKind::SequencerHandoff { new_sequencer: MemberId(2) },
            ),
        });
        roundtrip(Body::BcastOrig { sender_seq: 8, payload: Bytes::new() });
        roundtrip(Body::BcastBatch { items: Vec::new() });
        roundtrip(Body::BcastBatch {
            items: vec![
                BatchItem::Entry(app.clone()),
                BatchItem::Accept { seqno: Seqno(10), origin: MemberId(2), sender_seq: 3 },
                BatchItem::Entry(Sequenced::new(
                    Seqno(11),
                    SequencedKind::Leave { member: MemberId(5), forced: false },
                )),
            ],
        });
        roundtrip(Body::BcastReqBatch { reqs: Vec::new() });
        roundtrip(Body::BcastReqBatch {
            reqs: vec![
                BatchReq { sender_seq: 1, payload: Bytes::from_static(b"a") },
                BatchReq { sender_seq: 2, payload: Bytes::new() },
                BatchReq { sender_seq: 3, payload: Bytes::from_static(b"ccc") },
            ],
        });
        roundtrip(Body::Accept { seqno: Seqno(4), origin: MemberId(0), sender_seq: 6 });
        roundtrip(Body::Tentative { entry: app, resilience: 3 });
        roundtrip(Body::TentAck { seqno: Seqno(11) });
        roundtrip(Body::RetransReq { from: Seqno(1), to: Seqno(5) });
        roundtrip(Body::SyncReq { horizon: Seqno(30) });
        roundtrip(Body::Status);
        roundtrip(Body::JoinReq { addr: FlipAddress::process(9), nonce: 1 });
        roundtrip(Body::JoinAck {
            member: MemberId(3),
            view: ViewId(1, 0),
            join_seqno: Seqno(12),
            members: vec![meta],
            resilience: 1,
            nonce: 5,
        });
        roundtrip(Body::LeaveReq { nonce: 3 });
        roundtrip(Body::LeaveAck);
        roundtrip(Body::ViewQuery);
        roundtrip(Body::Invite { attempt: 2, coord: MemberId(1) });
        roundtrip(Body::InviteAck {
            attempt: 2,
            highest: Seqno(40),
            addr: FlipAddress::process(2),
        });
        roundtrip(Body::NewView {
            attempt: 2,
            view: ViewId(3, 0),
            members: vec![meta],
            sequencer: MemberId(4),
            next_seqno: Seqno(41),
        });
        roundtrip(Body::Ping { nonce: 77 });
        roundtrip(Body::Pong { nonce: 77 });
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let msg = WireMsg {
            hdr: hdr(),
            body: Body::JoinAck {
                member: MemberId(3),
                view: ViewId(1, 0),
                join_seqno: Seqno(12),
                members: vec![MemberMeta { id: MemberId(4), addr: FlipAddress::process(44) }],
                resilience: 1,
                nonce: 5,
            },
        };
        let bytes = encode_wire_msg(&msg);
        for cut in 0..bytes.len() {
            let mut slice = bytes.slice(0..cut);
            assert!(
                decode_wire_msg(&mut slice).is_err(),
                "decoding a {cut}-byte prefix of {} must fail",
                bytes.len()
            );
        }
    }

    #[test]
    fn batch_truncation_is_detected_everywhere() {
        let msg = WireMsg {
            hdr: hdr(),
            body: Body::BcastBatch {
                items: vec![
                    BatchItem::Entry(Sequenced::new(
                        Seqno(9),
                        SequencedKind::App {
                            origin: MemberId(1),
                            sender_seq: 2,
                            payload: Bytes::from_static(b"data"),
                        },
                    )),
                    BatchItem::Accept { seqno: Seqno(10), origin: MemberId(2), sender_seq: 3 },
                ],
            },
        };
        let bytes = encode_wire_msg(&msg);
        for cut in 0..bytes.len() {
            let mut slice = bytes.slice(0..cut);
            assert!(decode_wire_msg(&mut slice).is_err(), "{cut}-byte prefix must fail");
        }
    }

    #[test]
    fn bad_batch_item_tag_rejected() {
        let msg = WireMsg {
            hdr: hdr(),
            body: Body::BcastBatch {
                items: vec![BatchItem::Accept {
                    seqno: Seqno(1),
                    origin: MemberId(0),
                    sender_seq: 0,
                }],
            },
        };
        let mut raw = encode_wire_msg(&msg).to_vec();
        raw[36 + 1 + 2] = 99; // first item tag (after header, body tag, count)
        assert_eq!(decode_wire_msg(&mut Bytes::from(raw)), Err(DecodeError::BadKindTag(99)));
    }

    #[test]
    fn bad_tags_are_rejected() {
        let msg = WireMsg { hdr: hdr(), body: Body::Status };
        let bytes = encode_wire_msg(&msg);
        let mut raw = bytes.to_vec();
        raw[36] = 200; // body tag position (after the 36-byte header)
        assert_eq!(
            decode_wire_msg(&mut Bytes::from(raw)),
            Err(DecodeError::BadBodyTag(200))
        );
    }

    #[test]
    fn oversized_length_field_rejected() {
        let msg = WireMsg {
            hdr: hdr(),
            body: Body::BcastReq { sender_seq: 1, payload: Bytes::from_static(b"abc") },
        };
        let mut raw = encode_wire_msg(&msg).to_vec();
        // Corrupt the payload length (immediately after tag + u64).
        let pos = 36 + 1 + 8;
        raw[pos..pos + 4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_wire_msg(&mut Bytes::from(raw)),
            Err(DecodeError::BadLength(_)) | Err(DecodeError::Truncated)
        ));
    }
}
