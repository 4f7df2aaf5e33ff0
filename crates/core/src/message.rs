//! Wire messages of the group protocol.
//!
//! Batch frames (`BcastBatch` / `BcastReqBatch`, DESIGN.md §6) carry
//! several protocol messages in one packet so that one multicast and
//! one receive interrupt are amortized over the whole batch.

use std::ops::Deref;
use std::sync::Arc;

use amoeba_flip::FlipAddress;
use bytes::Bytes;

use crate::config::{GROUP_HEADER_LEN, USER_HEADER_LEN};
use crate::ids::{GroupId, MemberId, Seqno, ViewId};
use crate::view::MemberMeta;

/// The group protocol header carried on every packet.
///
/// `last_delivered` is the piggybacked acknowledgement that drives
/// history garbage collection: every message a member sends to the
/// sequencer reports the highest sequence number it has delivered
/// in order (paper §3.1). In the other direction, `gc_floor` on
/// sequencer-originated packets tells members how far *everyone* has
/// acknowledged, so member-side history caches can be pruned too.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hdr {
    /// Which group this packet belongs to.
    pub group: GroupId,
    /// The sender's view (epoch); packets from other epochs are stale.
    pub view: ViewId,
    /// The sending member (or [`MemberId::UNASSIGNED`] for joiners).
    pub sender: MemberId,
    /// Piggybacked ack: highest in-order seqno the sender has delivered.
    pub last_delivered: Seqno,
    /// On sequencer-originated packets: the globally acknowledged floor.
    pub gc_floor: Seqno,
}

/// An event fixed in the total order by the sequencer. This is what the
/// history buffer stores and what retransmissions replay: application
/// messages and membership changes flow through the *same* ordered,
/// reliable stream — exactly the property the paper advertises ("even
/// the events of a new member joining the group … are totally-ordered").
///
/// A shared handle: the entry is allocated once, where it is stamped
/// (or decoded off a wire), and every later holder — the sequencer's
/// history, the `BcastData`/`Tentative`/batch bodies, each member's
/// out-of-order window and history cache, retransmission answers —
/// keeps a refcount on that one allocation (DESIGN.md §7). Fields read
/// through [`Deref`]; equality compares contents.
#[derive(Clone, PartialEq, Eq)]
pub struct Sequenced(Arc<Stamped>);

/// The contents of a [`Sequenced`] entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stamped {
    /// Position in the group's total order.
    pub seqno: Seqno,
    /// What happened at that position.
    pub kind: SequencedKind,
}

impl Sequenced {
    /// Allocates the entry stamped `seqno` for `kind`.
    pub fn new(seqno: Seqno, kind: SequencedKind) -> Self {
        Sequenced(Arc::new(Stamped { seqno, kind }))
    }

    /// Whether `a` and `b` are handles on the same allocation.
    pub fn ptr_eq(a: &Sequenced, b: &Sequenced) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl From<Stamped> for Sequenced {
    fn from(stamped: Stamped) -> Self {
        Sequenced(Arc::new(stamped))
    }
}

impl Deref for Sequenced {
    type Target = Stamped;

    fn deref(&self) -> &Stamped {
        &self.0
    }
}

impl std::fmt::Debug for Sequenced {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sequenced").field("seqno", &self.seqno).field("kind", &self.kind).finish()
    }
}

/// The payload of a [`Sequenced`] slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SequencedKind {
    /// An application message from `origin`.
    App {
        /// Sending member.
        origin: MemberId,
        /// The sender-local request number (dedup across retransmits).
        sender_seq: u64,
        /// Application bytes.
        payload: Bytes,
    },
    /// `member` joined the group.
    Join {
        /// The new member.
        member: MemberMeta,
    },
    /// `member` left the group.
    Leave {
        /// The departing member.
        member: MemberId,
        /// True when the sequencer expelled an unresponsive member
        /// (failure detection) rather than serving a voluntary leave.
        forced: bool,
    },
    /// The sequencer handed its role to `new_sequencer` and left the
    /// group (graceful leave of a sequencer, after draining the
    /// history). Atomic: the departure and the role change are one
    /// ordered event, so sequence numbers cannot collide across the
    /// transition.
    SequencerHandoff {
        /// The member taking over sequencing.
        new_sequencer: MemberId,
    },
}

impl SequencedKind {
    /// Bytes this entry contributes to a packet carrying it (user header
    /// plus payload for app messages; control entries are header-only).
    pub fn wire_size(&self) -> u32 {
        match self {
            SequencedKind::App { payload, .. } => USER_HEADER_LEN + payload.len() as u32,
            SequencedKind::Join { .. } => 16,
            SequencedKind::Leave { .. } => 8,
            SequencedKind::SequencerHandoff { .. } => 8,
        }
    }
}

/// One element of a sequencer batch frame (`BcastBatch`).
///
/// A batch mixes the two shapes the sequencer multicasts per message:
/// full stamped entries (the PB path, where the sequencer relays the
/// payload) and short accepts (the BB path, where the payload already
/// travelled on the origin's multicast). See DESIGN.md §6 for the
/// PB/BB × batching interaction matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchItem {
    /// A full stamped entry (PB: payload rides in the batch).
    Entry(Sequenced),
    /// A short accept for a payload that travelled separately (BB).
    Accept {
        /// The assigned sequence number.
        seqno: Seqno,
        /// The member whose message was accepted.
        origin: MemberId,
        /// The origin's request number.
        sender_seq: u64,
    },
}

impl BatchItem {
    /// Bytes this item contributes inside a batch frame: a 1-byte item
    /// tag plus the content (mirrors [`Body::body_size`] accounting).
    pub fn wire_size(&self) -> u32 {
        1 + match self {
            BatchItem::Entry(entry) => 8 + entry.kind.wire_size(),
            BatchItem::Accept { .. } => 20,
        }
    }

    /// The seqno this item stamps (for flush bookkeeping and tests).
    pub fn seqno(&self) -> Seqno {
        match self {
            BatchItem::Entry(entry) => entry.seqno,
            BatchItem::Accept { seqno, .. } => *seqno,
        }
    }
}

/// One queued request inside a `BcastReqBatch` frame: what a pipelining
/// sender would have put in a standalone `BcastReq`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchReq {
    /// Sender-local request number (for duplicate suppression).
    pub sender_seq: u64,
    /// Application bytes.
    pub payload: Bytes,
}

impl BatchReq {
    /// Bytes this request contributes inside a request-batch frame.
    pub fn wire_size(&self) -> u32 {
        8 + USER_HEADER_LEN + self.payload.len() as u32
    }
}

/// Packs `items` into frames that never straddle the fragmentation
/// limit: each returned frame either stays within
/// [`crate::config::BATCH_FRAME_BUDGET`] (counting the group header and the 2-byte
/// item count) or is a singleton whose lone item is itself oversized
/// (it fragments exactly as the unbatched protocol would). Order and
/// multiset of items are preserved. `max_batch` additionally caps the
/// items per frame.
pub fn pack_batch_items<T>(
    items: Vec<T>,
    max_batch: usize,
    item_size: impl Fn(&T) -> u32,
) -> Vec<Vec<T>> {
    let budget = crate::config::BATCH_ITEMS_BUDGET;
    let mut frames: Vec<Vec<T>> = Vec::new();
    let mut current: Vec<T> = Vec::new();
    let mut current_bytes = 0u32;
    for item in items {
        let size = item_size(&item);
        let fits = current.len() < max_batch.max(1)
            && current_bytes.saturating_add(size) <= budget;
        if !current.is_empty() && !fits {
            frames.push(std::mem::take(&mut current));
            current_bytes = 0;
        }
        current_bytes += size;
        current.push(item);
        // An item alone over budget ships alone (it will fragment, as
        // the unbatched protocol's packet for it would have).
        if current_bytes > budget {
            frames.push(std::mem::take(&mut current));
            current_bytes = 0;
        }
    }
    if !current.is_empty() {
        frames.push(current);
    }
    frames
}

/// A group protocol packet body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body {
    // ----------------------------------------------------- data path --
    /// PB: point-to-point request to the sequencer to broadcast.
    BcastReq {
        /// Sender-local request number (for duplicate suppression).
        sender_seq: u64,
        /// Application bytes.
        payload: Bytes,
    },
    /// Sequencer → group: an accepted, stamped entry (the PB broadcast;
    /// also the unicast retransmission answer).
    BcastData {
        /// The ordered entry.
        entry: Sequenced,
    },
    /// BB: the sender's own multicast of the payload, awaiting an accept.
    BcastOrig {
        /// Sender-local request number (matches the later accept).
        sender_seq: u64,
        /// Application bytes.
        payload: Bytes,
    },
    /// Sequencer → group: one frame carrying several stamped messages
    /// (full entries and/or short accepts), in seqno order — the
    /// batching layer's data path (DESIGN.md §6). Also used unicast to
    /// answer retransmission requests in bulk.
    BcastBatch {
        /// The batched items, ascending by seqno.
        items: Vec<BatchItem>,
    },
    /// Member → sequencer: several queued PB requests in one frame (a
    /// pipelining sender coalesces its window while an earlier request
    /// is still in flight).
    BcastReqBatch {
        /// The queued requests, ascending by `sender_seq`.
        reqs: Vec<BatchReq>,
    },
    /// Sequencer → group: short accept stamping a previously multicast
    /// (BB) payload, or finalizing a tentative (r > 0) broadcast.
    Accept {
        /// The assigned sequence number.
        seqno: Seqno,
        /// The member whose message was accepted.
        origin: MemberId,
        /// The origin's request number.
        sender_seq: u64,
    },
    /// Sequencer → group: a stamped entry that is *not yet official*; it
    /// must be buffered (it may be replayed during recovery) and, by the
    /// `r` lowest-numbered members, acknowledged (paper §3.1).
    Tentative {
        /// The ordered entry (carries the payload).
        entry: Sequenced,
        /// How many acknowledgements the accept requires.
        resilience: u32,
    },
    /// Member → sequencer: acknowledgement of a tentative broadcast.
    TentAck {
        /// The acknowledged sequence number.
        seqno: Seqno,
    },
    // --------------------------------------------------- reliability --
    /// Member → sequencer: negative acknowledgement. "I am missing
    /// sequence numbers `from..=to`; retransmit them."
    RetransReq {
        /// First missing seqno.
        from: Seqno,
        /// Last missing seqno.
        to: Seqno,
    },
    /// Sequencer → group: "report your status" (sync round). Forces
    /// silent members to reveal their delivery floor so history can be
    /// garbage collected; unanswered rounds drive failure detection.
    SyncReq {
        /// The highest seqno assigned so far (members can nack gaps).
        horizon: Seqno,
    },
    /// Member → sequencer: sync answer. The floor rides in
    /// [`Hdr::last_delivered`].
    Status,
    // --------------------------------------------------- membership ---
    /// Prospective member → group address: request admission.
    JoinReq {
        /// The joiner's FLIP process address.
        addr: FlipAddress,
        /// Joiner-local request number (dedup across retries).
        nonce: u64,
    },
    /// Sequencer → joiner: admission granted (after the join event was
    /// sequenced).
    JoinAck {
        /// The id assigned to the joiner.
        member: MemberId,
        /// Current view (epoch).
        view: ViewId,
        /// The seqno of the join event; the joiner delivers from the
        /// next seqno onward.
        join_seqno: Seqno,
        /// Membership at the join point (including the joiner).
        members: Vec<MemberMeta>,
        /// The group's resilience degree.
        resilience: u32,
        /// Echo of the join request nonce.
        nonce: u64,
    },
    /// Member → sequencer: request a voluntary leave.
    LeaveReq {
        /// Member-local request number (dedup across retries).
        nonce: u64,
    },
    /// Sequencer → departing member: the leave was sequenced.
    LeaveAck,
    /// "What view are you in?" — sent when higher-epoch traffic reveals
    /// that a recovery happened without us; answered with `NewView`.
    ViewQuery,
    // ----------------------------------------------------- recovery ---
    /// Recovery coordinator → all: "the group is being rebuilt; report."
    Invite {
        /// Coordinator's attempt number (monotone per coordinator).
        attempt: u32,
        /// The coordinator's member id (lowest id wins conflicts).
        coord: MemberId,
    },
    /// Member → coordinator: "alive; here is what I hold."
    InviteAck {
        /// Echo of the coordinator's attempt.
        attempt: u32,
        /// Highest seqno present in the responder's history/delivery.
        highest: Seqno,
        /// The responder's FLIP process address.
        addr: FlipAddress,
    },
    /// Coordinator → survivors: install the rebuilt view.
    NewView {
        /// Echo of the attempt that succeeded.
        attempt: u32,
        /// The new view id (old + 1).
        view: ViewId,
        /// Members of the rebuilt group.
        members: Vec<MemberMeta>,
        /// The new sequencer (holder of the fullest history).
        sequencer: MemberId,
        /// The first seqno the new sequencer will assign.
        next_seqno: Seqno,
    },
    // ----------------------------------------------- failure probes ---
    /// Liveness probe.
    Ping {
        /// Correlates the reply.
        nonce: u64,
    },
    /// Liveness reply.
    Pong {
        /// Echoed nonce.
        nonce: u64,
    },
}

/// A complete group-protocol packet: header plus body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireMsg {
    /// The group header (28 bytes on the wire).
    pub hdr: Hdr,
    /// The body.
    pub body: Body,
}

impl WireMsg {
    /// The packet's size above the FLIP layer, in bytes: the 28-byte
    /// group header plus body-specific content. This is what the cost
    /// model and the simulated wire charge.
    pub fn wire_size(&self) -> u32 {
        GROUP_HEADER_LEN + self.body.body_size()
    }
}

impl Body {
    /// Bytes the body contributes above the group header.
    pub fn body_size(&self) -> u32 {
        match self {
            Body::BcastReq { payload, .. } | Body::BcastOrig { payload, .. } => {
                USER_HEADER_LEN + payload.len() as u32
            }
            Body::BcastData { entry } => entry.kind.wire_size(),
            Body::BcastBatch { items } => {
                2 + items.iter().map(BatchItem::wire_size).sum::<u32>()
            }
            Body::BcastReqBatch { reqs } => {
                2 + reqs.iter().map(BatchReq::wire_size).sum::<u32>()
            }
            Body::Tentative { entry, .. } => entry.kind.wire_size() + 4,
            Body::Accept { .. } => 16,
            Body::TentAck { .. } => 8,
            Body::RetransReq { .. } => 16,
            Body::SyncReq { .. } => 8,
            Body::Status => 0,
            Body::JoinReq { .. } => 16,
            Body::JoinAck { members, .. } => 32 + members.len() as u32 * 16,
            Body::LeaveReq { .. } => 8,
            Body::LeaveAck => 0,
            Body::ViewQuery => 0,
            Body::Invite { .. } => 8,
            Body::InviteAck { .. } => 24,
            Body::NewView { members, .. } => 24 + members.len() as u32 * 16,
            Body::Ping { .. } | Body::Pong { .. } => 8,
        }
    }

    /// A short tag for tracing and statistics.
    pub fn tag(&self) -> &'static str {
        match self {
            Body::BcastReq { .. } => "bcast_req",
            Body::BcastData { .. } => "bcast_data",
            Body::BcastBatch { .. } => "bcast_batch",
            Body::BcastReqBatch { .. } => "bcast_req_batch",
            Body::BcastOrig { .. } => "bcast_orig",
            Body::Accept { .. } => "accept",
            Body::Tentative { .. } => "tentative",
            Body::TentAck { .. } => "tent_ack",
            Body::RetransReq { .. } => "retrans_req",
            Body::SyncReq { .. } => "sync_req",
            Body::Status => "status",
            Body::JoinReq { .. } => "join_req",
            Body::JoinAck { .. } => "join_ack",
            Body::LeaveReq { .. } => "leave_req",
            Body::LeaveAck => "leave_ack",
            Body::ViewQuery => "view_query",
            Body::Invite { .. } => "invite",
            Body::InviteAck { .. } => "invite_ack",
            Body::NewView { .. } => "new_view",
            Body::Ping { .. } => "ping",
            Body::Pong { .. } => "pong",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr() -> Hdr {
        Hdr {
            group: GroupId(1),
            view: ViewId::INITIAL,
            sender: MemberId(0),
            last_delivered: Seqno::ZERO,
            gc_floor: Seqno::ZERO,
        }
    }

    #[test]
    fn null_app_message_costs_user_header_only() {
        let msg = WireMsg {
            hdr: hdr(),
            body: Body::BcastReq { sender_seq: 1, payload: Bytes::new() },
        };
        // 28 (group) + 32 (user) + 0 payload = 60 above FLIP; with
        // 40 FLIP + 16 link = 116 total, the paper's number.
        assert_eq!(msg.wire_size(), 60);
    }

    #[test]
    fn payload_bytes_count() {
        let msg = WireMsg {
            hdr: hdr(),
            body: Body::BcastOrig { sender_seq: 1, payload: Bytes::from(vec![0u8; 1000]) },
        };
        assert_eq!(msg.wire_size(), 28 + 32 + 1000);
    }

    #[test]
    fn accept_is_short_regardless_of_original_size() {
        let msg = WireMsg {
            hdr: hdr(),
            body: Body::Accept { seqno: Seqno(9), origin: MemberId(1), sender_seq: 4 },
        };
        assert!(msg.wire_size() < 60, "accepts must stay a fraction of a data packet");
    }

    #[test]
    fn sequenced_app_size_includes_user_header() {
        let kind = SequencedKind::App {
            origin: MemberId(1),
            sender_seq: 1,
            payload: Bytes::from(vec![0u8; 100]),
        };
        assert_eq!(kind.wire_size(), USER_HEADER_LEN + 100);
    }

    #[test]
    fn tags_are_unique() {
        use std::collections::HashSet;
        let bodies = [
            Body::BcastReq { sender_seq: 0, payload: Bytes::new() },
            Body::Status,
            Body::Accept { seqno: Seqno(1), origin: MemberId(0), sender_seq: 0 },
            Body::BcastBatch { items: Vec::new() },
            Body::BcastReqBatch { reqs: Vec::new() },
            Body::Ping { nonce: 0 },
            Body::Pong { nonce: 0 },
        ];
        let tags: HashSet<_> = bodies.iter().map(|b| b.tag()).collect();
        assert_eq!(tags.len(), bodies.len());
    }

    /// Every member's history cache and out-of-order window is a ring
    /// of `Option<Sequenced>` slots, written once per delivery: a
    /// handle, not an inline copy of the entry.
    #[test]
    fn a_ring_slot_is_one_pointer() {
        assert_eq!(std::mem::size_of::<Option<Sequenced>>(), 8);
    }

    #[test]
    fn clones_share_the_entry_and_compare_by_value() {
        let kind = SequencedKind::Leave { member: MemberId(3), forced: false };
        let a = Sequenced::new(Seqno(4), kind.clone());
        let b = a.clone();
        assert!(Sequenced::ptr_eq(&a, &b));
        let c: Sequenced = Stamped { seqno: Seqno(4), kind }.into();
        assert!(!Sequenced::ptr_eq(&a, &c));
        assert_eq!(a, c);
        assert_eq!(format!("{a:?}"), format!("{c:?}"));
        assert!(format!("{a:?}").starts_with("Sequenced { seqno: "));
    }

    fn entry_item(seqno: u64, payload_len: usize) -> BatchItem {
        BatchItem::Entry(Sequenced::new(
            Seqno(seqno),
            SequencedKind::App {
                origin: MemberId(1),
                sender_seq: seqno,
                payload: Bytes::from(vec![0u8; payload_len]),
            },
        ))
    }

    #[test]
    fn batch_beats_per_message_framing() {
        // The whole point: N null messages in one batch cost far less
        // wire than N BcastData packets (each with its own 28-byte
        // group header and, on the real wire, its own interrupt).
        let items: Vec<BatchItem> = (1..=8).map(|s| entry_item(s, 0)).collect();
        let batched = WireMsg { hdr: hdr(), body: Body::BcastBatch { items } }.wire_size();
        let unbatched: u32 = (1..=8)
            .map(|s| {
                let BatchItem::Entry(entry) = entry_item(s, 0) else { unreachable!() };
                WireMsg { hdr: hdr(), body: Body::BcastData { entry } }.wire_size()
            })
            .sum();
        assert!(batched < unbatched, "batched {batched} vs unbatched {unbatched}");
    }

    #[test]
    fn pack_respects_max_batch_and_order() {
        let items: Vec<BatchItem> = (1..=10).map(|s| entry_item(s, 0)).collect();
        let frames = pack_batch_items(items, 4, BatchItem::wire_size);
        assert_eq!(frames.iter().map(Vec::len).collect::<Vec<_>>(), vec![4, 4, 2]);
        let seqnos: Vec<u64> =
            frames.iter().flatten().map(|i| i.seqno().0).collect();
        assert_eq!(seqnos, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn pack_never_straddles_the_fragmentation_limit() {
        // Mixed sizes: frames with 2+ items stay under the budget.
        let items: Vec<BatchItem> =
            (1..=12).map(|s| entry_item(s, (s as usize * 137) % 1200)).collect();
        let frames = pack_batch_items(items, 64, BatchItem::wire_size);
        for frame in &frames {
            if frame.len() >= 2 {
                let wire = WireMsg {
                    hdr: hdr(),
                    body: Body::BcastBatch { items: frame.clone() },
                }
                .wire_size();
                assert!(wire <= crate::config::BATCH_FRAME_BUDGET, "frame of {wire} bytes");
            }
        }
    }

    #[test]
    fn pack_ships_oversized_items_alone() {
        // A 4000-byte entry cannot fit the budget: it must travel as a
        // singleton (fragmenting like the unbatched packet would), and
        // its neighbours must still coalesce.
        let items =
            vec![entry_item(1, 10), entry_item(2, 4000), entry_item(3, 10), entry_item(4, 10)];
        let frames = pack_batch_items(items, 64, BatchItem::wire_size);
        assert_eq!(frames.iter().map(Vec::len).collect::<Vec<_>>(), vec![1, 1, 2]);
        assert_eq!(frames[1][0].seqno(), Seqno(2));
    }
}
