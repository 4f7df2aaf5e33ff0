//! The sequencer role: stamping, history, flow control, batching,
//! resilience acknowledgements, sync rounds and failure detection.
//!
//! "The sequencer performs a simple and computationally unintensive task
//! and can therefore process many hundreds of messages per second"
//! (paper §2.2) — this module is that task.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;

use crate::action::Dest;
use crate::config::GroupConfig;
use crate::core::{GroupCore, Mode};
use crate::flat::OriginTable;
use crate::ids::{MemberId, Seqno};
use crate::message::{BatchItem, Body, Hdr, Sequenced, SequencedKind};
use crate::timer::TimerKind;

/// A resilient broadcast awaiting its acknowledgements (paper §3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PendingAccept {
    /// Members whose acknowledgement is still required.
    pub(crate) need: BTreeSet<MemberId>,
    /// The message's origin (for the final accept packet).
    pub(crate) origin: MemberId,
    /// The origin's request number.
    pub(crate) sender_seq: u64,
    /// Re-multicast attempts so far.
    pub(crate) resends: u32,
}

/// Per-origin duplicate-suppression record.
///
/// `strict` enforces FIFO admission: a request whose `sender_seq` jumps
/// past `seen + 1` is *not* stamped — the origin's in-order
/// retransmission (the whole unstamped tail in one `BcastReqBatch`)
/// will present it again behind its predecessors. This is what keeps
/// pipelined windows sender-FIFO even when an earlier request frame is
/// lost. The flag starts false after a recovery rebuild (the surviving
/// history may legitimately have holes below the origin's next
/// request) and latches true at the first stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DupState {
    /// Highest `sender_seq` stamped for this origin.
    pub(crate) seen: u64,
    /// The seqno that highest request received.
    pub(crate) seqno: Seqno,
    /// Enforce in-order admission (see above).
    pub(crate) strict: bool,
    /// Requests below `seen` skipped when a non-strict (post-recovery)
    /// resync admitted a forward jump: they stay admittable out of
    /// order so a reordered resubmission cannot wedge an older pending
    /// send. Within one view epoch this cannot re-stamp a completed
    /// request (pre-recovery duplicates fail the epoch check), and
    /// entries clear as they are stamped.
    pub(crate) gaps: std::collections::BTreeSet<u64>,
}

/// Sequencer-side state, present on exactly one member per group.
#[derive(Debug)]
pub(crate) struct SequencerState {
    /// The next sequence number to assign.
    pub(crate) next_seqno: Seqno,
    /// Highest in-order seqno each member has acknowledged (via
    /// piggyback or status replies). Flat per-member table: the floor
    /// note sits on every received packet's path.
    pub(crate) floors: OriginTable<Seqno>,
    /// Duplicate suppression, per origin, in a flat per-member table
    /// (consulted once per stamped message).
    pub(crate) dup: OriginTable<DupState>,
    /// Stamped items awaiting the next batch flush (batching on;
    /// DESIGN.md §6). Entries here are already in the history and
    /// delivered locally — the batch only delays their multicast.
    pub(crate) batch: Vec<crate::message::BatchItem>,
    /// Running wire size of `batch` (flush-before-overflow bookkeeping).
    pub(crate) batch_bytes: u32,
    /// Tentative broadcasts awaiting acknowledgements, by seqno.
    pub(crate) pending_acc: BTreeMap<Seqno, PendingAccept>,
    /// Consecutive tentative re-multicast rounds without a fresh
    /// tentative being added (exponential-backoff driver; see
    /// [`GroupCore::on_tentative_resend`]).
    pub(crate) resend_round: u32,
    /// The globally acknowledged floor (history ≤ this is discarded).
    pub(crate) gc_floor: Seqno,
    /// An open status round: members yet to answer, and retries used.
    pub(crate) sync: Option<SyncRound>,
    /// Next member id to assign to a joiner (ids are never reused).
    pub(crate) next_member_id: u32,
    /// Admission record per joiner address: assigned id and join seqno
    /// (re-answers duplicate join requests verbatim).
    pub(crate) joined_at: BTreeMap<u64, (MemberId, Seqno)>,
    /// Set while the sequencer is draining history to leave gracefully.
    pub(crate) leaving: bool,
}

#[derive(Debug)]
pub(crate) struct SyncRound {
    pub(crate) pending: BTreeSet<MemberId>,
    pub(crate) retries: u32,
}

impl SequencerState {
    pub(crate) fn new(_config: &GroupConfig) -> Self {
        SequencerState {
            next_seqno: Seqno::ZERO.next(),
            floors: OriginTable::new(),
            dup: OriginTable::new(),
            batch: Vec::new(),
            batch_bytes: 0,
            pending_acc: BTreeMap::new(),
            resend_round: 0,
            gc_floor: Seqno::ZERO,
            sync: None,
            next_member_id: 1,
            joined_at: BTreeMap::new(),
            leaving: false,
        }
    }

    /// State for a member assuming the role mid-life (handoff or
    /// recovery): seqnos resume at `next_seqno`; duplicate filters are
    /// rebuilt from the retained history by the caller.
    pub(crate) fn assume(next_seqno: Seqno, next_member_id: u32, conservative_floor: Seqno) -> Self {
        SequencerState {
            next_seqno,
            floors: OriginTable::new(),
            dup: OriginTable::new(),
            batch: Vec::new(),
            batch_bytes: 0,
            pending_acc: BTreeMap::new(),
            resend_round: 0,
            gc_floor: conservative_floor,
            sync: None,
            next_member_id,
            joined_at: BTreeMap::new(),
            leaving: false,
        }
    }

    pub(crate) fn note_member_joined(&mut self, id: MemberId, at: Seqno) {
        self.floors.insert(id, at);
        // A freshly admitted member numbers its requests from 1, so its
        // duplicate filter starts *strict*: if the head of its first
        // pipelined window is lost (e.g. an overflowing receive ring
        // under fragmented BB multicasts), the survivors must NOT be
        // stamped ahead of it — the member's in-order retransmission
        // presents them again behind their predecessors. The lenient
        // accept-as-is path stays reserved for origins unknown after a
        // recovery rebuild, whose earlier requests may have legitimately
        // completed in the previous incarnation. (Found by the chaos
        // explorer: first-contact jump admission broke per-sender FIFO
        // on a fault-free network.)
        // Insert-if-absent: member ids are never reused, so an existing
        // entry can only be the one `assume_sequencer_role` rebuilt
        // from the retained history/ooo *before* the install drain
        // re-delivers this Join entry — clobbering it back to seen = 0
        // would re-admit an already-stamped request #1 (duplicate
        // delivery) and drop the member's genuine next request forever
        // under strict FIFO.
        if self.dup.get(id).is_none() {
            self.dup.insert(
                id,
                DupState { seen: 0, seqno: Seqno::ZERO, strict: true, gaps: BTreeSet::new() },
            );
        }
        if id.0 >= self.next_member_id {
            self.next_member_id = id.0 + 1;
        }
    }

    pub(crate) fn note_member_left(&mut self, id: MemberId) {
        self.floors.remove(id);
        self.dup.remove(id);
        // A departed member can no longer acknowledge: shrink needs.
        for p in self.pending_acc.values_mut() {
            p.need.remove(&id);
        }
    }
}

impl GroupCore {
    // ------------------------------------------------------------------
    // Stamping
    // ------------------------------------------------------------------

    /// Core of the sequencer: assign the next seqno to `kind`, record it
    /// in history, and deliver it locally (the sequencer's own member
    /// sees every event the moment it is ordered).
    ///
    /// Returns the stamped entry. Callers decide how it reaches the
    /// other members (full data multicast, short accept, or tentative).
    pub(crate) fn sequence_entry(&mut self, kind: SequencedKind) -> Sequenced {
        // A resync jump can skip at most the origin's pending tail —
        // one send window (256 floors the cap for mixed-config groups).
        let gap_cap = (self.config.send_window as u64).max(256);
        let ss = self.seq_state.as_mut().expect("sequence_entry requires the sequencer role");
        let seqno = ss.next_seqno;
        ss.next_seqno = seqno.next();
        if let SequencedKind::App { origin, sender_seq, .. } = &kind {
            // First contact starts non-strict: if the origin's very
            // first stamped request jumps past sender_seq 1 (an earlier
            // frame of its window was lost), the skipped range is
            // recorded as gaps below so the retransmission can still be
            // stamped.
            let d = ss.dup.or_insert_with(*origin, || DupState {
                seen: 0,
                seqno: Seqno::ZERO,
                strict: false,
                gaps: BTreeSet::new(),
            });
            if *sender_seq > d.seen {
                if !d.strict {
                    // Non-strict resync jumped over these: keep them
                    // admittable, bounded by the pending-tail cap.
                    let lo = (d.seen + 1).max(sender_seq.saturating_sub(gap_cap));
                    d.gaps.extend(lo..*sender_seq);
                }
                d.seen = *sender_seq;
                d.seqno = seqno;
            } else {
                d.gaps.remove(sender_seq);
            }
            d.strict = true;
        }
        if crate::sabotage::trace_on() {
            if let SequencedKind::App { origin, sender_seq, .. } = &kind {
                eprintln!(
                    "STAMP view={} seq_member={} seqno={} origin={} sender_seq={}",
                    self.view.view_id, self.me, seqno, origin, sender_seq
                );
            }
        }
        let entry = Sequenced { seqno, kind };
        self.history.insert(entry.clone());
        self.stats.sequenced += 1;
        // The sequencer's member delivers immediately: it defines the
        // order. (With r > 0 this matches the paper: "members other than
        // the sequencer" wait for the accept.)
        self.ooo.insert(seqno, entry.clone());
        self.drain_deliverable();
        // Our own floor is by construction the newest seqno.
        let me = self.me;
        self.sequencer_note_floor(me, seqno);
        entry
    }

    /// Whether a new application message can be admitted right now.
    ///
    /// From `history_high_water` entries up, every arriving request
    /// also asks the members for their floors (one round at a time) so
    /// that room opens *before* the buffer fills: members that never
    /// send piggyback nothing, and a sync round is the only way to
    /// learn how far they got. The check runs on arrival, before the
    /// request is stamped, so the round's horizon names only seqnos
    /// that are already on the wire.
    fn admission_check(&mut self) -> bool {
        if self.history.len() >= self.config.history_high_water {
            self.sequencer_start_sync_round();
        }
        if self.history.has_room_for_app() {
            return true;
        }
        // Full: refuse. This is the back-pressure against a member that
        // really lags; the round above is what reopens the buffer.
        self.stats.flow_control_drops += 1;
        false
    }

    /// `SendToGroup` invoked *on* the sequencer: no request packet is
    /// needed; stamp locally and multicast (or batch).
    pub(crate) fn sequencer_local_send(&mut self) {
        let me = self.me;
        let r = self.config.resilience;
        loop {
            let Some((sender_seq, payload)) = self
                .pending_sends
                .iter()
                .find(|p| !p.submitted)
                .map(|p| (p.sender_seq, p.payload.clone()))
            else {
                return;
            };
            // A resubmission after recovery may already be stamped in
            // the surviving history (we held the fullest prefix):
            // complete it instead of stamping a duplicate.
            let prior = self
                .seq_state
                .as_ref()
                .and_then(|ss| ss.dup.get(me))
                .and_then(|d| {
                    if d.seen < sender_seq {
                        return None;
                    }
                    if d.seen == sender_seq {
                        return Some(d.seqno);
                    }
                    self.stamped_seqno(me, sender_seq)
                });
            if let Some(seqno) = prior {
                self.maybe_complete_send(me, sender_seq, seqno);
                continue;
            }
            if !self.admission_check() {
                // Buffer full: retry on the send timer like everyone else.
                self.push(crate::action::Action::SetTimer {
                    kind: TimerKind::SendRetransmit,
                    after_us: self.config.send_retransmit_us,
                });
                return;
            }
            if let Some(p) =
                self.pending_sends.iter_mut().find(|p| p.sender_seq == sender_seq)
            {
                p.submitted = true;
            }
            let entry = self.sequence_entry(SequencedKind::App {
                origin: me,
                sender_seq,
                payload,
            });
            if r == 0 {
                self.dispatch_stamped_entry(entry.clone());
                self.maybe_complete_send(me, sender_seq, entry.seqno);
            } else {
                self.begin_tentative(entry, r);
                // Completion happens when the acks arrive (handle_tent_ack).
            }
        }
    }

    /// PB request: a member asks us to broadcast.
    pub(crate) fn handle_bcast_req(&mut self, hdr: Hdr, sender_seq: u64, payload: Bytes) {
        if !self.is_sequencer() || !matches!(self.mode, Mode::Normal) {
            return; // stray request; sender will retry (or recover)
        }
        let origin = hdr.sender;
        if !self.view.contains(origin) {
            return;
        }
        if !self.admit_request(origin, sender_seq) {
            return;
        }
        if !self.admission_check() {
            return; // dropped; origin's retransmit timer recovers
        }
        let entry = self.sequence_entry(SequencedKind::App { origin, sender_seq, payload });
        let r = self.config.resilience;
        if r == 0 {
            self.dispatch_stamped_entry(entry);
        } else {
            self.begin_tentative(entry, r);
        }
    }

    /// A coalesced frame of PB requests from a pipelining sender:
    /// admit each in order (the whole point of request batching is that
    /// the tail cannot overtake the head).
    pub(crate) fn handle_bcast_req_batch(&mut self, hdr: Hdr, reqs: Vec<crate::message::BatchReq>) {
        for req in reqs {
            self.handle_bcast_req(hdr, req.sender_seq, req.payload);
        }
    }

    /// BB original data arriving at the sequencer: stamp it and multicast
    /// the short accept (the payload already travelled).
    pub(crate) fn handle_bcast_orig_at_sequencer(
        &mut self,
        hdr: Hdr,
        sender_seq: u64,
        payload: Bytes,
    ) {
        if !matches!(self.mode, Mode::Normal) {
            return;
        }
        let origin = hdr.sender;
        if !self.view.contains(origin) {
            return;
        }
        if !self.admit_request(origin, sender_seq) {
            return;
        }
        if !self.admission_check() {
            return;
        }
        let entry = self.sequence_entry(SequencedKind::App { origin, sender_seq, payload });
        let r = self.config.resilience;
        if r == 0 {
            if self.config.batch.is_on() {
                self.enqueue_batch_item(BatchItem::Accept {
                    seqno: entry.seqno,
                    origin,
                    sender_seq,
                });
            } else {
                let accept =
                    self.make_msg(Body::Accept { seqno: entry.seqno, origin, sender_seq });
                self.send_to(Dest::Group, accept);
            }
        } else {
            // With r > 0 the tentative carries the payload again — a
            // deliberate simplification (the paper only evaluates r > 0
            // under PB; see DESIGN.md).
            self.begin_tentative(entry, r);
        }
    }

    /// Admission control against the duplicate filter. Returns `true`
    /// when the request is fresh and next-in-order (the caller stamps
    /// it). Duplicates are re-answered; out-of-order jumps are dropped
    /// under strict FIFO (the origin's in-order retransmission will
    /// resubmit them behind their predecessors).
    fn admit_request(&mut self, origin: MemberId, sender_seq: u64) -> bool {
        if crate::sabotage::current() == crate::sabotage::Sabotage::SkipDupFilter {
            return true; // test-only: prove the chaos audit catches this
        }
        if crate::sabotage::trace_on() {
            let d = self.seq_state.as_ref().and_then(|ss| ss.dup.get(origin));
            eprintln!(
                "ADMIT? view={} origin={} sender_seq={} dup={:?}",
                self.view.view_id,
                origin,
                sender_seq,
                d.map(|d| (d.seen, d.strict, d.gaps.len()))
            );
        }
        let ss = self.seq_state.as_ref().expect("sequencer role");
        let Some(d) = ss.dup.get(origin) else {
            // First contact (fresh member, or a post-recovery rebuild
            // that retained nothing for this origin): accept as-is.
            return true;
        };
        let (seen, seqno) = (d.seen, d.seqno);
        if sender_seq == seen + 1 || (!d.strict && sender_seq > seen) {
            return true;
        }
        if sender_seq == seen {
            // Exact duplicate: re-answer point-to-point; the data can
            // be re-fetched via RetransReq if the origin lacks it.
            // Never for an entry still awaiting its resilience acks —
            // an accept now would let the origin deliver and complete
            // while fewer than r members hold the message, voiding the
            // r-crash guarantee (the TentativeResend timer keeps
            // nudging until the acks arrive). Found by the chaos
            // explorer: the leaked accept also live-locked the group,
            // because the early-delivering origin stopped re-acking.
            if self.accept_released(seqno) {
                if let Some(meta) = self.view.member(origin) {
                    let msg = self.make_msg(Body::Accept { seqno, origin, sender_seq });
                    self.send_to(Dest::Unicast(meta.addr), msg);
                }
            }
            return false;
        }
        if sender_seq < seen {
            if d.gaps.contains(&sender_seq) {
                // Skipped by a non-strict resync: still stampable.
                return true;
            }
            // Older than the newest stamp. If it is still in history it
            // was stamped — re-answer its accept (released entries
            // only, as above). If it has been garbage-collected, every
            // member (the origin included) delivered it, so the origin
            // cannot be waiting on it: this is a late network
            // duplicate, and stamping it again would break
            // exactly-once. Ignore.
            if let (Some(seqno), Some(meta)) =
                (self.stamped_seqno(origin, sender_seq), self.view.member(origin))
            {
                if self.accept_released(seqno) {
                    let msg = self.make_msg(Body::Accept { seqno, origin, sender_seq });
                    self.send_to(Dest::Unicast(meta.addr), msg);
                }
            }
            return false;
        }
        // sender_seq > seen + 1 under strict FIFO: an earlier request
        // of this origin's window is still missing. Drop; the origin's
        // retransmit timer resends its whole unstamped tail in order.
        false
    }

    /// Whether a duplicate request may be re-answered with an accept
    /// for `seqno` — i.e. the entry is not still gathering resilience
    /// acknowledgements. In paper-exact mode (no `robust_repair`) the
    /// answer is always yes, as the 1996 protocol re-answered
    /// unconditionally.
    fn accept_released(&self, seqno: Seqno) -> bool {
        !self.config.robust_repair
            || self
                .seq_state
                .as_ref()
                .is_none_or(|ss| !ss.pending_acc.contains_key(&seqno))
    }

    /// The seqno at which `(origin, sender_seq)` was stamped, if the
    /// entry is still in the history — or, right after a recovery, in
    /// the not-yet-drained out-of-order buffer (see
    /// [`GroupCore::assume_sequencer_role`]).
    fn stamped_seqno(&self, origin: MemberId, sender_seq: u64) -> Option<Seqno> {
        self.history
            .iter()
            .chain(self.ooo.iter().map(|(_, e)| e))
            .find_map(|e| match &e.kind {
                SequencedKind::App { origin: o, sender_seq: s, .. }
                    if *o == origin && *s == sender_seq =>
                {
                    Some(e.seqno)
                }
                _ => None,
            })
    }

    /// Routes a freshly stamped r = 0 entry to the group: batched when
    /// the policy is on, its own `BcastData` multicast otherwise.
    pub(crate) fn dispatch_stamped_entry(&mut self, entry: Sequenced) {
        if self.config.batch.is_on() {
            self.enqueue_batch_item(BatchItem::Entry(entry));
        } else {
            self.broadcast_entry(entry);
        }
    }

    /// Multicasts a stamped entry as full data (PB path / retransmission
    /// fan-out / control events). Control entries flush the pending
    /// batch first so the wire never carries a higher seqno before a
    /// batched lower one. Skipped when no *other* member exists to hear
    /// it.
    pub(crate) fn broadcast_entry(&mut self, entry: Sequenced) {
        self.flush_batch();
        let me = self.me;
        if !self.view.members().iter().any(|m| m.id != me) {
            return;
        }
        let msg = self.make_msg(Body::BcastData { entry });
        self.send_to(Dest::Group, msg);
    }

    // ------------------------------------------------------------------
    // Sequencer batching (DESIGN.md §6)
    // ------------------------------------------------------------------

    /// Appends a stamped item to the pending batch, flushing first if
    /// the item would overflow the size trigger or the frame budget,
    /// and flushing after if the size trigger is reached. The first
    /// item of a batch arms the flush timer.
    pub(crate) fn enqueue_batch_item(&mut self, item: BatchItem) {
        let budget = crate::config::BATCH_ITEMS_BUDGET;
        let max_batch = self.config.batch.max_batch();
        let size = item.wire_size();
        let flush_us = self.config.batch.flush_us();
        let ss = self.seq_state.as_mut().expect("sequencer role");
        if !ss.batch.is_empty() && ss.batch_bytes.saturating_add(size) > budget {
            self.flush_batch();
        }
        let ss = self.seq_state.as_mut().expect("sequencer role");
        let was_empty = ss.batch.is_empty();
        ss.batch_bytes += size;
        ss.batch.push(item);
        let full = ss.batch.len() >= max_batch || ss.batch_bytes > budget;
        if full {
            self.flush_batch();
        } else if was_empty {
            self.push(crate::action::Action::SetTimer {
                kind: TimerKind::BatchFlush,
                after_us: flush_us,
            });
        }
    }

    /// Multicasts the pending batch (no-op when empty). A singleton
    /// batch degrades to the plain per-message frame, so a lone message
    /// under a light load costs exactly what the unbatched protocol
    /// charges.
    pub(crate) fn flush_batch(&mut self) {
        let Some(ss) = self.seq_state.as_mut() else { return };
        if ss.batch.is_empty() {
            return;
        }
        let items = std::mem::take(&mut ss.batch);
        ss.batch_bytes = 0;
        self.push(crate::action::Action::CancelTimer { kind: TimerKind::BatchFlush });
        let me = self.me;
        if !self.view.members().iter().any(|m| m.id != me) {
            return; // singleton group: local delivery already happened
        }
        if items.len() == 1 {
            let msg = match items.into_iter().next().expect("len checked") {
                BatchItem::Entry(entry) => self.make_msg(Body::BcastData { entry }),
                BatchItem::Accept { seqno, origin, sender_seq } => {
                    self.make_msg(Body::Accept { seqno, origin, sender_seq })
                }
            };
            self.send_to(Dest::Group, msg);
            return;
        }
        self.stats.batches_out += 1;
        self.stats.batched_entries += items.len() as u64;
        let msg = self.make_msg(Body::BcastBatch { items });
        self.send_to(Dest::Group, msg);
    }

    /// The batch flush timer fired (the *timer* trigger).
    pub(crate) fn on_batch_flush(&mut self) {
        self.flush_batch();
    }

    /// Starts the resilient path for a freshly stamped entry: tentative
    /// multicast, then wait for the `r` lowest-numbered members. Any
    /// pending batch flushes first (ordering on the wire).
    pub(crate) fn begin_tentative(&mut self, entry: Sequenced, r: u32) {
        self.flush_batch();
        let (origin, sender_seq) = match &entry.kind {
            SequencedKind::App { origin, sender_seq, .. } => (*origin, *sender_seq),
            _ => (self.me, 0), // control entries use the plain path
        };
        let need: BTreeSet<MemberId> = self.view.resilience_ackers(r).into_iter().collect();
        if need.is_empty() {
            // Degenerate group (no other members): accept immediately.
            let accept = self.make_msg(Body::Accept { seqno: entry.seqno, origin, sender_seq });
            self.send_to(Dest::Group, accept);
            self.maybe_complete_send(origin, sender_seq, entry.seqno);
            return;
        }
        let ss = self.seq_state.as_mut().expect("sequencer role");
        ss.resend_round = 0; // fresh entry: resume the base cadence
        ss.pending_acc.insert(
            entry.seqno,
            PendingAccept { need, origin, sender_seq, resends: 0 },
        );
        let msg = self.make_msg(Body::Tentative { entry, resilience: r });
        self.send_to(Dest::Group, msg);
        self.push(crate::action::Action::SetTimer {
            kind: TimerKind::TentativeResend,
            after_us: self.config.tentative_resend_us,
        });
    }

    /// A member acknowledged a tentative broadcast.
    pub(crate) fn handle_tent_ack(&mut self, from: MemberId, seqno: Seqno) {
        if crate::sabotage::trace_on() {
            eprintln!("TENTACK at={} from={} seqno={}", self.me, from, seqno);
        }
        let Some(ss) = self.seq_state.as_mut() else { return };
        let Some(p) = ss.pending_acc.get_mut(&seqno) else { return };
        p.need.remove(&from);
        self.release_accepted();
    }

    /// Emits accepts for every pending entry whose need-set emptied
    /// (needs also shrink when members leave).
    pub(crate) fn release_accepted(&mut self) {
        loop {
            let Some(ss) = self.seq_state.as_mut() else { return };
            let Some((&seqno, p)) = ss.pending_acc.iter().find(|(_, p)| p.need.is_empty()) else {
                if ss.pending_acc.is_empty() {
                    self.push(crate::action::Action::CancelTimer {
                        kind: TimerKind::TentativeResend,
                    });
                }
                return;
            };
            let (origin, sender_seq) = (p.origin, p.sender_seq);
            ss.pending_acc.remove(&seqno);
            let accept = self.make_msg(Body::Accept { seqno, origin, sender_seq });
            self.send_to(Dest::Group, accept);
            self.maybe_complete_send(origin, sender_seq, seqno);
        }
    }

    /// Re-multicast tentative entries still missing acks.
    pub(crate) fn on_tentative_resend(&mut self) {
        let Some(ss) = self.seq_state.as_mut() else { return };
        if ss.pending_acc.is_empty() {
            return;
        }
        let resend: Vec<Seqno> = ss.pending_acc.keys().copied().collect();
        for seqno in resend {
            let Some(ss) = self.seq_state.as_mut() else { return };
            if let Some(p) = ss.pending_acc.get_mut(&seqno) {
                p.resends += 1;
            }
            if let Some(entry) = self.history.get(seqno).cloned() {
                let r = self.config.resilience;
                let msg = self.make_msg(Body::Tentative { entry, resilience: r });
                self.send_to(Dest::Group, msg);
            }
        }
        // Dead ackers are eventually expelled by sync rounds, which
        // shrinks the need-sets; keep nudging meanwhile — with the
        // congestion guards on, backing off exponentially:
        // re-multicasting every pending entry (each a multi-fragment
        // frame burst) at a fixed short cadence can saturate the
        // shared wire and starve the very acks and repairs that would
        // drain the backlog (chaos-explorer finding).
        self.sequencer_start_sync_round();
        let round = {
            let ss = self.seq_state.as_mut().expect("sequencer role");
            ss.resend_round += 1;
            ss.resend_round
        };
        let shift = if self.config.robust_repair { round.min(6) } else { 0 };
        self.push(crate::action::Action::SetTimer {
            kind: TimerKind::TentativeResend,
            after_us: self.config.tentative_resend_us << shift,
        });
    }

    // ------------------------------------------------------------------
    // Retransmission service (the answer to negative acknowledgements)
    // ------------------------------------------------------------------

    /// Serves a retransmission request from the history buffer,
    /// point-to-point (paper §6: "our protocol uses point-to-point
    /// messages whenever possible, reducing interrupts at each node").
    pub(crate) fn handle_retrans_req(
        &mut self,
        from_member: MemberId,
        from_addr: amoeba_flip::FlipAddress,
        lo: Seqno,
        hi: Seqno,
    ) {
        if !self.is_sequencer() {
            return; // only the sequencer serves retransmissions
        }
        if crate::sabotage::current() == crate::sabotage::Sabotage::SkipRetransmit {
            return; // test-only: prove the chaos audit catches this
        }
        if crate::sabotage::trace_on() {
            eprintln!("RTREQ at={} from={} lo={} hi={}", self.me, from_member, lo, hi);
        }
        // Watermark trigger: a nack proves a member is waiting on
        // seqnos that may still sit in the pending batch — flush it
        // before serving from history.
        self.flush_batch();
        let dest = self
            .view
            .member(from_member)
            .map(|m| m.addr)
            .unwrap_or(from_addr);
        let mut served = 0u64;
        // With the congestion guards on, serve a bounded chunk per
        // request. A member many entries behind re-nacks as its
        // delivery point advances, so the catch-up is flow-controlled
        // by the receiver instead of dumping the full range — whose
        // burst (entries × fragments) would otherwise collide with its
        // own duplicates from the member's retries and melt the shared
        // wire (chaos-explorer finding: congestion collapse under a
        // 28-entry backlog of 4-Kbyte messages).
        let chunk =
            if self.config.robust_repair { 16 } else { usize::MAX };
        let entries: Vec<Sequenced> =
            self.history.range(lo, hi).take(chunk).cloned().collect();
        if self.config.batch.is_on() {
            // Serve in bulk: pack the catch-up into batch frames (one
            // interrupt per frame at the receiver instead of one per
            // entry). Tentative entries keep their own frames — the
            // resilience metadata cannot ride in a batch item.
            let mut plain: Vec<BatchItem> = Vec::new();
            for entry in entries {
                served += 1;
                let tentative = self
                    .seq_state
                    .as_ref()
                    .is_some_and(|ss| ss.pending_acc.contains_key(&entry.seqno));
                if tentative {
                    let msg = self
                        .make_msg(Body::Tentative { entry, resilience: self.config.resilience });
                    self.send_to(Dest::Unicast(dest), msg);
                } else {
                    plain.push(BatchItem::Entry(entry));
                }
            }
            let max_batch = self.config.batch.max_batch();
            for frame in
                crate::message::pack_batch_items(plain, max_batch, BatchItem::wire_size)
            {
                let msg = if frame.len() == 1 {
                    let BatchItem::Entry(entry) =
                        frame.into_iter().next().expect("len checked")
                    else {
                        unreachable!("retransmission packs entries only")
                    };
                    self.make_msg(Body::BcastData { entry })
                } else {
                    self.make_msg(Body::BcastBatch { items: frame })
                };
                self.send_to(Dest::Unicast(dest), msg);
            }
        } else {
            for entry in entries {
                let tentative = self
                    .seq_state
                    .as_ref()
                    .is_some_and(|ss| ss.pending_acc.contains_key(&entry.seqno));
                let body = if tentative {
                    Body::Tentative { entry, resilience: self.config.resilience }
                } else {
                    Body::BcastData { entry }
                };
                let msg = self.make_msg(body);
                self.send_to(Dest::Unicast(dest), msg);
                served += 1;
            }
        }
        self.stats.retransmissions += served;
    }

    // ------------------------------------------------------------------
    // Floors, garbage collection and sync rounds
    // ------------------------------------------------------------------

    /// Records that `member` has delivered through `floor` (from a
    /// piggybacked header or a status reply).
    pub(crate) fn sequencer_note_floor(&mut self, member: MemberId, floor: Seqno) {
        let Some(ss) = self.seq_state.as_mut() else { return };
        if !self.view.contains(member) && member != self.me {
            return;
        }
        let slot = ss.floors.or_insert_with(member, || Seqno::ZERO);
        if floor > *slot {
            *slot = floor;
        }
        if let Some(sync) = &mut ss.sync {
            sync.pending.remove(&member);
            if sync.pending.is_empty() {
                ss.sync = None;
                self.push(crate::action::Action::CancelTimer { kind: TimerKind::SyncRound });
            }
        }
        self.sequencer_after_floor_change();
    }

    /// Recomputes the GC floor and prunes history; also progresses a
    /// graceful sequencer leave once everything is acknowledged.
    pub(crate) fn sequencer_after_floor_change(&mut self) {
        let Some(ss) = self.seq_state.as_mut() else { return };
        let min = self
            .view
            .members()
            .iter()
            .map(|m| ss.floors.get(m.id).copied().unwrap_or(Seqno::ZERO))
            .min()
            .unwrap_or(Seqno::ZERO);
        if min > ss.gc_floor {
            ss.gc_floor = min;
            self.history.gc(min);
        }
        let drained = {
            let ss = self.seq_state.as_ref().expect("still sequencer");
            ss.leaving && ss.gc_floor == ss.next_seqno.prev() && ss.pending_acc.is_empty()
        };
        if drained {
            self.sequencer_finish_leave();
        }
    }

    /// Starts (or refreshes) a status round: ask every member to report
    /// its floor. Used periodically, under buffer pressure, and to
    /// detect dead members.
    pub(crate) fn sequencer_start_sync_round(&mut self) {
        // Watermark trigger: the round's horizon advertises every
        // stamped seqno, so anything still batched must hit the wire
        // first or the whole group nacks it.
        self.flush_batch();
        let me = self.me;
        let members: Vec<MemberId> =
            self.view.members().iter().map(|m| m.id).filter(|&id| id != me).collect();
        let Some(ss) = self.seq_state.as_mut() else { return };
        if ss.sync.is_some() || members.is_empty() {
            return; // one round at a time
        }
        ss.sync = Some(SyncRound { pending: members.into_iter().collect(), retries: 0 });
        let horizon = ss.next_seqno.prev();
        self.stats.sync_rounds += 1;
        let msg = self.make_msg(Body::SyncReq { horizon });
        self.send_to(Dest::Group, msg);
        self.push(crate::action::Action::SetTimer {
            kind: TimerKind::SyncRound,
            after_us: self.config.sync_round_us,
        });
    }

    /// The status round deadline passed.
    pub(crate) fn on_sync_round_timeout(&mut self) {
        let Some(ss) = self.seq_state.as_mut() else { return };
        let Some(sync) = &mut ss.sync else { return };
        if sync.pending.is_empty() {
            ss.sync = None;
            return;
        }
        sync.retries += 1;
        if sync.retries <= self.config.sync_max_retries {
            let horizon = ss.next_seqno.prev();
            let msg = self.make_msg(Body::SyncReq { horizon });
            self.send_to(Dest::Group, msg);
            self.push(crate::action::Action::SetTimer {
                kind: TimerKind::SyncRound,
                after_us: self.config.sync_round_us,
            });
            return;
        }
        // "If after a certain number of trials a process does not
        // respond, the process is declared dead" (paper §2.1).
        let dead: Vec<MemberId> = sync.pending.iter().copied().collect();
        ss.sync = None;
        for member in dead {
            self.stats.expels += 1;
            let entry = self.sequence_entry(SequencedKind::Leave { member, forced: true });
            self.broadcast_entry(entry);
        }
    }

    /// Periodic sync tick.
    pub(crate) fn on_sync_interval(&mut self) {
        if !self.is_sequencer() || !matches!(self.mode, Mode::Normal) {
            return;
        }
        let worth_it = {
            let ss = self.seq_state.as_ref().expect("sequencer role");
            !self.history.is_empty() || ss.leaving
        };
        if worth_it {
            self.sequencer_start_sync_round();
        }
        self.arm_sync_interval();
    }

    // ------------------------------------------------------------------
    // Graceful sequencer leave (drain, then hand off)
    // ------------------------------------------------------------------

    pub(crate) fn sequencer_begin_leave(&mut self) {
        if self.view.len() == 1 {
            // Sole member: the group dissolves.
            self.mode = Mode::Left;
            self.pending_leave = false;
            self.seq_state = None;
            self.push(crate::action::Action::LeaveDone(Ok(())));
            return;
        }
        self.seq_state.as_mut().expect("sequencer role").leaving = true;
        self.sequencer_start_sync_round();
        // Completion continues in sequencer_after_floor_change once the
        // history drains.
    }

    fn sequencer_finish_leave(&mut self) {
        let Some(successor) = self.view.handoff_candidate() else {
            self.mode = Mode::Left;
            self.pending_leave = false;
            self.seq_state = None;
            self.push(crate::action::Action::LeaveDone(Ok(())));
            return;
        };
        // One atomic ordered event: the handoff implies our departure.
        // Delivering it locally (inside sequence_entry) flips us to
        // Left, completes the pending leave and drops the role; the
        // multicast below still goes out to the survivors.
        let handoff = self.sequence_entry(SequencedKind::SequencerHandoff {
            new_sequencer: successor,
        });
        self.broadcast_entry(handoff);
    }

    // ------------------------------------------------------------------
    // Role assumption (handoff target or recovery winner)
    // ------------------------------------------------------------------

    /// Becomes the sequencer starting at `next_seqno`, rebuilding
    /// duplicate filters from the retained history *and* the surviving
    /// out-of-order entries. The latter matter after a recovery: the
    /// winner's not-yet-delivered prefix tail is still in `ooo` when
    /// this runs (it reaches the history only during the install
    /// drain), and a duplicate filter blind to those entries would
    /// re-stamp a resubmitted request that is already in the order.
    /// (Found by the chaos explorer: a recovery racing in-flight sends
    /// could deliver the same message twice.)
    pub(crate) fn assume_sequencer_role(&mut self, next_seqno: Seqno) {
        let next_member_id =
            self.view.members().iter().map(|m| m.id.0 + 1).max().unwrap_or(1);
        let conservative_floor = self
            .history
            .lowest()
            .map(|s| s.prev())
            .unwrap_or_else(|| next_seqno.prev());
        let mut ss = SequencerState::assume(next_seqno, next_member_id, conservative_floor);
        let mut max_seqs = self.history.max_sender_seqs();
        for (_, e) in self.ooo.iter() {
            if let SequencedKind::App { origin, sender_seq, .. } = &e.kind {
                let slot = max_seqs.entry(*origin).or_insert(0);
                if *sender_seq > *slot {
                    *slot = *sender_seq;
                }
            }
        }
        for (origin, sender_seq) in max_seqs {
            // Seqno lookup for the dup answer: scan is fine (≤ cap).
            let seqno = self
                .history
                .iter()
                .chain(self.ooo.iter().map(|(_, e)| e))
                .filter_map(|e| match &e.kind {
                    SequencedKind::App { origin: o, sender_seq: s, .. }
                        if *o == origin && *s == sender_seq =>
                    {
                        Some(e.seqno)
                    }
                    _ => None,
                })
                .last()
                .unwrap_or(Seqno::ZERO);
            // Not strict: with r = 0 a completed send may not have
            // survived the recovery, so the origin's next request can
            // legitimately jump past the rebuilt `seen`.
            ss.dup.insert(
                origin,
                DupState { seen: sender_seq, seqno, strict: false, gaps: BTreeSet::new() },
            );
        }
        for m in self.view.members() {
            ss.floors.insert(m.id, conservative_floor);
        }
        let me = self.me;
        ss.floors.insert(me, next_seqno.prev());
        self.seq_state = Some(ss);
        self.resync_serial = false; // our own sends are stamped locally
        self.arm_sync_interval();
        // Learn real floors promptly.
        self.sequencer_start_sync_round();
    }
}
