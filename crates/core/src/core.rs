//! The group protocol state machine.
//!
//! [`GroupCore`] is one process's view of one group: it plays the member
//! role always, and the sequencer role when it holds that office. It is
//! strictly sans-io — see [`crate::action`].

use std::collections::{BTreeSet, VecDeque};

use amoeba_flip::FlipAddress;
use bytes::Bytes;

use crate::action::{Action, Dest};
use crate::config::GroupConfig;
use crate::error::GroupError;
use crate::event::GroupEvent;
use crate::flat::{OriginSeqTable, SeqRing};
use crate::history::HistoryBuffer;
use crate::ids::{GroupId, MemberId, Seqno};
use crate::info::GroupInfo;
use crate::message::{Body, Hdr, Sequenced, SequencedKind, WireMsg};
use crate::recovery::RecoveryState;
use crate::sequencer::SequencerState;
use crate::stats::CoreStats;
use crate::timer::TimerKind;
use crate::view::{GroupView, MemberMeta};

/// Lifecycle of a [`GroupCore`].
#[derive(Debug)]
pub(crate) enum Mode {
    /// `JoinGroup` sent; waiting for admission.
    Joining(JoinState),
    /// An ordinary member (possibly the sequencer).
    Normal,
    /// Participating in (or coordinating) a `ResetGroup` recovery.
    Recovering(RecoveryState),
    /// No longer a member (left, expelled, or join failed).
    Left,
}

#[derive(Debug)]
pub(crate) struct JoinState {
    pub(crate) nonce: u64,
    pub(crate) retries: u32,
}

/// One `SendToGroup` in flight. With `send_window` 1 there is at most
/// one (the paper's blocking API); a pipelining sender queues up to the
/// window.
#[derive(Debug)]
pub(crate) struct PendingSend {
    pub(crate) sender_seq: u64,
    pub(crate) payload: Bytes,
    pub(crate) retries: u32,
    /// The method chosen for this message (resolved, never `Dynamic`).
    pub(crate) method: crate::config::Method,
    /// Member role: the request has been transmitted (false while it is
    /// coalescing behind in-flight traffic, DESIGN.md §6). Sequencer
    /// role: the message has been stamped (false while admission is
    /// blocked on a full history buffer).
    pub(crate) submitted: bool,
    /// The seqno at which *we ourselves delivered* this message, if we
    /// have (set in `deliver_entry`). A send can be delivered yet
    /// uncompleted: with r > 0 completion waits for the resilience
    /// acknowledgements. Recovery consults this — a pending send
    /// already delivered within the recovered horizon is in the order
    /// and must be *completed*, not resubmitted, or it would be
    /// stamped twice (found by the chaos explorer under cascading
    /// recoveries, where the duplicate filter alone cannot remember
    /// garbage-collected stamps).
    pub(crate) delivered_at: Option<Seqno>,
}

/// The Amoeba group communication protocol, as a deterministic state
/// machine.
///
/// One instance exists per (process, group) pair. Public methods
/// correspond to the paper's primitives (Table 1); each returns the
/// [`Action`]s the driver must carry out. Incoming packets and timer
/// expirations are fed through [`GroupCore::handle_message`] and
/// [`GroupCore::handle_timer`].
///
/// # Example
///
/// ```
/// use amoeba_core::{GroupConfig, GroupCore, GroupId};
/// use amoeba_flip::FlipAddress;
///
/// // The creator becomes member 0 and the sequencer.
/// let (core, actions) = GroupCore::create(
///     GroupId(1),
///     FlipAddress::process(10),
///     GroupConfig::default(),
/// ).expect("default config is valid");
/// assert!(core.info().is_sequencer);
/// // Creation completes synchronously: the driver sees JoinDone(Ok(_)).
/// assert!(actions.iter().any(|a| matches!(a, amoeba_core::Action::JoinDone(Ok(_)))));
/// ```
#[derive(Debug)]
pub struct GroupCore {
    pub(crate) group: GroupId,
    pub(crate) my_addr: FlipAddress,
    pub(crate) me: MemberId,
    pub(crate) config: GroupConfig,
    pub(crate) view: GroupView,
    pub(crate) mode: Mode,

    // ---- ordered delivery (member role) ----
    /// Next seqno to deliver to the application.
    pub(crate) next_expected: Seqno,
    /// Received entries not yet delivered (gaps before them, or gated
    /// by a pending accept). Seqno-indexed ring: O(1) insert/remove on
    /// the per-message delivery path.
    pub(crate) ooo: SeqRing<Sequenced>,
    /// Seqnos held tentatively (r > 0): present in `ooo` but not
    /// deliverable until accepted.
    pub(crate) tentative: BTreeSet<Seqno>,
    /// Tentative seqnos we must acknowledge once our prefix below them
    /// is complete (the contiguity rule that makes recovery sound).
    pub(crate) deferred_tent_acks: BTreeSet<Seqno>,
    /// BB payloads (and our own sends) parked until their accept, in a
    /// flat per-member table.
    pub(crate) parked: OriginSeqTable<Bytes>,
    /// Accepts that arrived before their BB payload: seqno by origin,
    /// in a flat per-member table.
    pub(crate) accepted_awaiting_data: OriginSeqTable<Seqno>,
    /// Seqnos whose accept arrived before their data/tentative packet.
    pub(crate) pre_accepted: BTreeSet<Seqno>,
    /// Local retransmission cache / recovery store.
    pub(crate) history: HistoryBuffer,
    /// Open gap we have nacked (cleared when it closes).
    pub(crate) nack_open: Option<(Seqno, Seqno)>,
    pub(crate) nack_retries: u32,
    /// A [`TimerKind::TentativeStall`] timer is pending (delivery is
    /// blocked on an unaccepted tentative entry).
    pub(crate) tent_stall_armed: bool,
    /// Highest floor this member has explicitly reported (batching
    /// watermark acks; see [`GroupCore::maybe_report_floor`]).
    pub(crate) last_reported_floor: Seqno,

    // ---- sending (member role) ----
    pub(crate) sender_seq: u64,
    /// Sends in flight, oldest first (≤ `config.send_window`).
    pub(crate) pending_sends: VecDeque<PendingSend>,
    /// A voluntary leave awaiting its ack.
    pub(crate) pending_leave: bool,
    /// Serialize sending to one in-flight request: set when a new
    /// sequencer may hold a *rebuilt* (non-strict) duplicate filter for
    /// us — after a recovery install or a sequencer handoff — and
    /// cleared by the first completion. A non-strict filter admits one
    /// forward jump; if two of our requests were in flight and the
    /// older frame was lost or overtaken, that jump would stamp the
    /// newer one first and break our FIFO order. Keeping exactly one
    /// request outstanding until a completion proves the filter has
    /// latched strict makes the single admissible jump land on our
    /// oldest pending request, which is the only FIFO-safe one.
    /// (Found by the chaos explorer: resubmission loss after a
    /// recovery reordered a sender's pipelined window.)
    pub(crate) resync_serial: bool,
    /// Completions at or below this seqno do not end resync
    /// serialization: they report stamps by a *previous* sequencer
    /// (recovered history backfill), which prove nothing about the
    /// current one's filter. Set to the recovery horizon (or handoff
    /// seqno) whenever `resync_serial` is raised.
    pub(crate) resync_horizon: Seqno,
    /// Recovery resubmission is deferred until our delivery crosses
    /// this horizon. A member far behind the recovered prefix cannot
    /// know whether its pending sends are already *in* that prefix:
    /// the origin has not delivered them and the new sequencer may
    /// have garbage-collected them. Catching up first decides it —
    /// backfill either completes the send (it was stamped) or reaches
    /// the horizon without it (it genuinely needs resubmission).
    /// (Found by the chaos explorer: a laggard member re-submitting
    /// into a rebuilt group duplicated an already-ordered message.)
    pub(crate) resubmit_after: Option<Seqno>,
    /// The first seqno of the *current incarnation*, when known — 1
    /// for the initial view, the coordinator's `next_seqno` for an
    /// installed one, and `None` for a member admitted into an
    /// already-recovered incarnation (its join point says nothing
    /// about where the incarnation began). This, not any evolving
    /// local delivery point, is what a `ViewQuery` answer must
    /// advertise as the resume: a stale member adopting the view
    /// truncates its old-lineage state above `resume − 1`, and a wrong
    /// value either keeps abandoned-lineage entries (too high) or
    /// needlessly self-expels a healthy adopter (too low) — so a
    /// member that does not know simply declines to teach the view
    /// and the straggler learns from one that does (the sequencer
    /// always knows). Chaos-explorer finding.
    pub(crate) view_resume: Option<Seqno>,

    // ---- sequencer role ----
    pub(crate) seq_state: Option<SequencerState>,

    // ---- recovery ----
    /// Monotone attempt counter for recoveries we coordinate.
    pub(crate) recovery_attempt: u32,
    /// A user-level `ResetGroup` awaits completion.
    pub(crate) pending_reset_user: bool,

    /// Counters.
    pub stats: CoreStats,
    pub(crate) actions: Vec<Action>,
}

impl GroupCore {
    // ------------------------------------------------------------------
    // Construction: CreateGroup / JoinGroup
    // ------------------------------------------------------------------

    /// `CreateGroup`: founds a group. The creator is member 0 and the
    /// initial sequencer. Completes synchronously with `JoinDone(Ok)`.
    ///
    /// # Errors
    ///
    /// Returns [`GroupError::BadConfig`] if `config` fails validation.
    pub fn create(
        group: GroupId,
        my_addr: FlipAddress,
        config: GroupConfig,
    ) -> Result<(Self, Vec<Action>), GroupError> {
        config.validate().map_err(GroupError::BadConfig)?;
        let me = MemberId::FOUNDER;
        let meta = MemberMeta { id: me, addr: my_addr };
        let mut core = GroupCore {
            group,
            my_addr,
            me,
            view: GroupView::initial(meta),
            mode: Mode::Normal,
            next_expected: Seqno::ZERO.next(),
            ooo: SeqRing::new(),
            tentative: BTreeSet::new(),
            deferred_tent_acks: BTreeSet::new(),
            parked: OriginSeqTable::new(),
            accepted_awaiting_data: OriginSeqTable::new(),
            pre_accepted: BTreeSet::new(),
            history: HistoryBuffer::new(config.history_cap),
            nack_open: None,
            nack_retries: 0,
            tent_stall_armed: false,
            last_reported_floor: Seqno::ZERO,
            sender_seq: 0,
            pending_sends: VecDeque::new(),
            pending_leave: false,
            resync_serial: false,
            resync_horizon: Seqno::ZERO,
            resubmit_after: None,
            view_resume: Some(Seqno(1)),
            seq_state: Some(SequencerState::new(&config)),
            recovery_attempt: 0,
            pending_reset_user: false,
            stats: CoreStats::default(),
            actions: Vec::new(),
            config,
        };
        core.arm_sync_interval();
        let info = core.info();
        core.push(Action::JoinDone(Ok(info)));
        let actions = core.take_actions();
        Ok((core, actions))
    }

    /// `JoinGroup`: starts the admission protocol. Completes (via
    /// `JoinDone`) when the sequencer's answer arrives or retries are
    /// exhausted. The driver must already have subscribed this process
    /// to the group's FLIP address so it can receive multicasts.
    ///
    /// # Errors
    ///
    /// Returns [`GroupError::BadConfig`] if `config` fails validation.
    pub fn join(
        group: GroupId,
        my_addr: FlipAddress,
        config: GroupConfig,
    ) -> Result<(Self, Vec<Action>), GroupError> {
        config.validate().map_err(GroupError::BadConfig)?;
        let placeholder = MemberMeta { id: MemberId::UNASSIGNED, addr: my_addr };
        let nonce = my_addr.as_u64() ^ 0x6A6F_696E; // deterministic, per-process
        let mut core = GroupCore {
            group,
            my_addr,
            me: MemberId::UNASSIGNED,
            view: GroupView::initial(placeholder),
            mode: Mode::Joining(JoinState { nonce, retries: 0 }),
            next_expected: Seqno::ZERO.next(),
            ooo: SeqRing::new(),
            tentative: BTreeSet::new(),
            deferred_tent_acks: BTreeSet::new(),
            parked: OriginSeqTable::new(),
            accepted_awaiting_data: OriginSeqTable::new(),
            pre_accepted: BTreeSet::new(),
            history: HistoryBuffer::new(config.history_cap),
            nack_open: None,
            nack_retries: 0,
            tent_stall_armed: false,
            last_reported_floor: Seqno::ZERO,
            sender_seq: 0,
            pending_sends: VecDeque::new(),
            pending_leave: false,
            resync_serial: false,
            resync_horizon: Seqno::ZERO,
            resubmit_after: None,
            view_resume: None,
            seq_state: None,
            recovery_attempt: 0,
            pending_reset_user: false,
            stats: CoreStats::default(),
            actions: Vec::new(),
            config,
        };
        core.send_join_request();
        let actions = core.take_actions();
        Ok((core, actions))
    }

    // ------------------------------------------------------------------
    // User primitives
    // ------------------------------------------------------------------

    /// `SendToGroup`: submits `payload` for a totally-ordered broadcast.
    /// Completes via `SendDone(Ok(seqno))` once the message is accepted
    /// (and, with resilience r > 0, held by at least r other kernels).
    pub fn send_to_group(&mut self, payload: Bytes) -> Vec<Action> {
        match self.mode {
            Mode::Normal => {}
            Mode::Recovering(_) => {
                self.push(Action::SendDone(Err(GroupError::Recovering)));
                return self.take_actions();
            }
            Mode::Joining(_) | Mode::Left => {
                self.push(Action::SendDone(Err(GroupError::NotMember)));
                return self.take_actions();
            }
        }
        if self.pending_sends.len() >= self.config.send_window || self.pending_leave {
            self.push(Action::SendDone(Err(GroupError::Busy)));
            return self.take_actions();
        }
        if payload.len() > self.config.max_message {
            self.push(Action::SendDone(Err(GroupError::MessageTooLarge {
                size: payload.len(),
                max: self.config.max_message,
            })));
            return self.take_actions();
        }
        self.sender_seq += 1;
        let sender_seq = self.sender_seq;
        let method = self.config.method.pick(payload.len() as u32);
        if self.is_sequencer() {
            self.pending_sends.push_back(PendingSend {
                sender_seq,
                payload,
                retries: 0,
                method,
                submitted: false,
                delivered_at: None,
            });
            self.sequencer_local_send();
        } else {
            self.parked.insert(self.me, sender_seq, payload.clone());
            // Nagle-style coalescing (DESIGN.md §6): with batching on, a
            // PB request queues behind in-flight traffic and rides the
            // next BcastReqBatch instead of taking its own frame. BB
            // payload multicasts always travel immediately (the group
            // needs the data no matter when the accept comes) — except
            // under resync serialization, where exactly one request may
            // be outstanding until the new sequencer's filter latches.
            let serial_hold = self.resync_serial && !self.pending_sends.is_empty();
            let coalesce = serial_hold
                || (self.config.batch.is_on()
                    && !matches!(method, crate::config::Method::Bb)
                    && self.pending_sends.iter().any(|p| p.submitted));
            self.pending_sends.push_back(PendingSend {
                sender_seq,
                payload,
                retries: 0,
                method,
                submitted: !coalesce,
                delivered_at: None,
            });
            if !coalesce {
                self.transmit_request(sender_seq);
            }
            self.push(Action::SetTimer {
                kind: TimerKind::SendRetransmit,
                after_us: self.config.send_retransmit_us,
            });
        }
        self.take_actions()
    }

    /// `LeaveGroup`: departs gracefully. Completes via `LeaveDone`.
    /// A leaving sequencer first drains its history, then hands off.
    pub fn leave(&mut self) -> Vec<Action> {
        match self.mode {
            Mode::Normal => {}
            Mode::Left => {
                self.push(Action::LeaveDone(Ok(())));
                return self.take_actions();
            }
            _ => {
                self.push(Action::LeaveDone(Err(GroupError::Recovering)));
                return self.take_actions();
            }
        }
        if !self.pending_sends.is_empty() || self.pending_leave {
            self.push(Action::LeaveDone(Err(GroupError::Busy)));
            return self.take_actions();
        }
        self.pending_leave = true;
        if self.is_sequencer() {
            self.sequencer_begin_leave();
        } else {
            self.sender_seq += 1;
            let msg = self.make_msg(Body::LeaveReq { nonce: self.sender_seq });
            self.send_to(Dest::Unicast(self.view.sequencer_meta().addr), msg);
            self.push(Action::SetTimer {
                kind: TimerKind::SendRetransmit,
                after_us: self.config.send_retransmit_us,
            });
        }
        self.take_actions()
    }

    /// `ResetGroup`: rebuilds the group after a suspected failure,
    /// requiring at least `min_members` survivors (this caller
    /// included). Completes via `ResetDone`.
    pub fn reset(&mut self, min_members: usize) -> Vec<Action> {
        match self.mode {
            Mode::Normal | Mode::Recovering(_) => {}
            Mode::Joining(_) | Mode::Left => {
                self.push(Action::ResetDone(Err(GroupError::NotMember)));
                return self.take_actions();
            }
        }
        self.start_recovery(min_members, true);
        self.take_actions()
    }

    /// `GetInfoGroup`: a snapshot of this member's group state.
    pub fn info(&self) -> GroupInfo {
        GroupInfo {
            group: self.group,
            me: self.me,
            my_addr: self.my_addr,
            view: self.view.view_id,
            members: self.view.members().to_vec(),
            sequencer: self.view.sequencer,
            is_sequencer: self.is_sequencer(),
            resilience: self.config.resilience,
            last_delivered: self.next_expected.prev(),
            history_len: self.history.len(),
            recovering: matches!(self.mode, Mode::Recovering(_)),
        }
    }

    /// The group this core belongs to.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// This process's FLIP address.
    pub fn my_addr(&self) -> FlipAddress {
        self.my_addr
    }

    /// The group configuration this member runs with (drivers read the
    /// batching and pipelining knobs from here).
    pub fn config(&self) -> &GroupConfig {
        &self.config
    }

    /// Whether this member currently holds the sequencer role.
    pub fn is_sequencer(&self) -> bool {
        self.seq_state.is_some()
    }

    /// Whether this process is an admitted, current member.
    pub fn is_member(&self) -> bool {
        matches!(self.mode, Mode::Normal | Mode::Recovering(_))
    }

    /// The history buffer (the sequencer's retransmission store, a
    /// member's cache), for test harnesses.
    #[doc(hidden)]
    pub fn history(&self) -> &HistoryBuffer {
        &self.history
    }

    /// One-line dump of the ordering internals, for test harnesses and
    /// chaos-run triage (not a stable format).
    #[doc(hidden)]
    pub fn debug_state(&self) -> String {
        let ooo_span = match (self.ooo.first_seqno(), self.ooo.last_seqno()) {
            (Some(a), Some(b)) => format!("{a}..{b} ({})", self.ooo.len()),
            _ => "-".into(),
        };
        let tent: Vec<u64> = self.tentative.iter().take(6).map(|s| s.0).collect();
        let pend: Vec<String> = self
            .seq_state
            .as_ref()
            .map(|ss| {
                ss.pending_acc
                    .iter()
                    .take(6)
                    .map(|(s, p)| format!("{s}?{:?}", p.need))
                    .collect()
            })
            .unwrap_or_default();
        format!(
            "next={} ooo={} tentative({})={:?} pre_acc={} pending_sends={} pending_acc({})={:?} nack={:?} serial={}",
            self.next_expected,
            ooo_span,
            self.tentative.len(),
            tent,
            self.pre_accepted.len(),
            self.pending_sends.len(),
            self.seq_state.as_ref().map(|ss| ss.pending_acc.len()).unwrap_or(0),
            pend,
            self.nack_open,
            self.resync_serial,
        )
    }

    // ------------------------------------------------------------------
    // Input dispatch
    // ------------------------------------------------------------------

    /// Processes an incoming packet.
    pub fn handle_message(&mut self, from: FlipAddress, msg: WireMsg) -> Vec<Action> {
        if msg.hdr.group != self.group {
            return Vec::new(); // not ours; drivers normally pre-filter
        }
        self.stats.msgs_in += 1;

        // Piggybacked acknowledgement: any packet from a member tells the
        // sequencer how far that member has delivered (paper §3.1).
        if self.is_sequencer() && msg.hdr.sender != MemberId::UNASSIGNED {
            self.sequencer_note_floor(msg.hdr.sender, msg.hdr.last_delivered);
        }
        // Sequencer-advertised GC floor: prune the local cache.
        if msg.hdr.gc_floor > Seqno::ZERO {
            self.history.gc(msg.hdr.gc_floor);
        }

        match self.epoch_check(&msg) {
            EpochVerdict::Process => {}
            EpochVerdict::Drop => return self.take_actions(),
        }

        match msg.body {
            // data path
            Body::BcastReq { sender_seq, payload } => {
                self.handle_bcast_req(msg.hdr, sender_seq, payload)
            }
            Body::BcastData { entry } => self.handle_bcast_data(entry),
            Body::BcastBatch { items } => self.handle_bcast_batch(items),
            Body::BcastReqBatch { reqs } => self.handle_bcast_req_batch(msg.hdr, reqs),
            Body::BcastOrig { sender_seq, payload } => {
                self.handle_bcast_orig(msg.hdr, sender_seq, payload)
            }
            Body::Accept { seqno, origin, sender_seq } => {
                self.handle_accept(seqno, origin, sender_seq)
            }
            Body::Tentative { entry, resilience } => self.handle_tentative(entry, resilience),
            Body::TentAck { seqno } => self.handle_tent_ack(msg.hdr.sender, seqno),
            // reliability
            Body::RetransReq { from: lo, to: hi } => {
                self.handle_retrans_req(msg.hdr.sender, from, lo, hi)
            }
            Body::SyncReq { horizon } => self.handle_sync_req(horizon),
            Body::Status => { /* floor already noted above */ }
            // membership
            Body::JoinReq { addr, nonce } => self.handle_join_req(addr, nonce),
            Body::JoinAck { member, view, join_seqno, members, resilience, nonce } => {
                self.handle_join_ack(msg.hdr.sender, member, view, join_seqno, members, resilience, nonce)
            }
            Body::LeaveReq { nonce } => self.handle_leave_req(msg.hdr.sender, nonce),
            Body::LeaveAck => self.handle_leave_ack(),
            // recovery
            Body::Invite { attempt, coord } => self.handle_invite(msg.hdr.view, attempt, coord),
            Body::InviteAck { attempt, highest, addr } => {
                self.handle_invite_ack(msg.hdr.sender, attempt, highest, addr)
            }
            Body::NewView { attempt, view, members, sequencer, next_seqno } => {
                self.handle_new_view(attempt, view, members, sequencer, next_seqno)
            }
            Body::ViewQuery => self.handle_view_query(from),
            // probes
            Body::Ping { nonce } => {
                let pong = self.make_msg(Body::Pong { nonce });
                self.send_to(Dest::Unicast(from), pong);
            }
            Body::Pong { .. } => { /* liveness noted via stats.msgs_in */ }
        }
        self.take_actions()
    }

    /// Processes a timer expiry.
    pub fn handle_timer(&mut self, kind: TimerKind) -> Vec<Action> {
        match kind {
            TimerKind::SendRetransmit => self.on_send_retransmit(),
            TimerKind::NackRetry => self.on_nack_retry(),
            TimerKind::SyncRound => self.on_sync_round_timeout(),
            TimerKind::SyncInterval => self.on_sync_interval(),
            TimerKind::TentativeResend => self.on_tentative_resend(),
            TimerKind::TentativeStall => self.on_tentative_stall(),
            TimerKind::BatchFlush => self.on_batch_flush(),
            TimerKind::JoinRetry => self.on_join_retry(),
            TimerKind::StatusReply => self.on_status_reply(),
            TimerKind::InviteRound => self.on_invite_round(),
            TimerKind::RecoveryWatchdog => self.on_recovery_watchdog(),
            TimerKind::ProbeTimeout { .. } => { /* probes are fire-and-forget */ }
        }
        self.take_actions()
    }

    // ------------------------------------------------------------------
    // Ordered delivery engine (shared by every role)
    // ------------------------------------------------------------------

    /// Integrates a sequenced entry received from the network (already
    /// accepted). The heart of total ordering: entries are admitted into
    /// `ooo`, gaps are nacked, and the contiguous prefix is delivered.
    pub(crate) fn ingest_sequenced(&mut self, entry: Sequenced) {
        if entry.seqno < self.next_expected {
            self.stats.duplicates += 1;
            // Still useful as retransmission fodder for recovery.
            self.history.insert_evicting(entry);
            return;
        }
        if !self.seqno_plausible(entry.seqno) {
            return; // corrupt/hostile seqno: treat like a garbled packet
        }
        // Completion of our own pending send can ride on any copy.
        if let SequencedKind::App { origin, sender_seq, .. } = &entry.kind {
            self.maybe_complete_send(*origin, *sender_seq, entry.seqno);
        }
        self.tentative.remove(&entry.seqno);
        let seqno = entry.seqno;
        self.ooo.insert_if_absent(seqno, entry);
        self.drain_deliverable();
        self.check_gap();
    }

    /// Delivers every deliverable entry: contiguous from `next_expected`
    /// and not gated by a pending accept.
    pub(crate) fn drain_deliverable(&mut self) {
        loop {
            let next = self.next_expected;
            if self.tentative.contains(&next) {
                break;
            }
            let Some(entry) = self.ooo.remove(next) else { break };
            self.deliver_entry(entry);
            if matches!(self.mode, Mode::Left) {
                break; // delivered our own expulsion/leave
            }
        }
        self.flush_deferred_tent_acks();
        if let Some((lo, _)) = self.nack_open {
            if self.next_expected > lo {
                // The gap we complained about has (at least partly)
                // closed; stop retrying unless a new gap appears.
                self.nack_open = None;
                self.nack_retries = 0;
                self.push(Action::CancelTimer { kind: TimerKind::NackRetry });
                self.check_gap();
            }
        }
        self.watch_tentative_stall();
        // Deferred recovery resubmission: once the backfill carries us
        // past the install horizon, every pending send's fate is known
        // (completed by ingest, or genuinely absent from the order) —
        // the survivors may now be resubmitted.
        if let Some(h) = self.resubmit_after {
            if self.next_expected > h && matches!(self.mode, Mode::Normal) {
                self.resubmit_after = None;
                if !self.is_sequencer() {
                    self.flush_queued_requests();
                }
            }
        }
    }

    /// Arms (or disarms) the tentative-stall watchdog: delivery blocked
    /// on an unaccepted tentative entry is invisible to the gap
    /// detector (the entry fills its own slot), so a lost *final*
    /// accept would stall this member forever. Called wherever the
    /// blocked-on-tentative condition can change (delivery progress and
    /// tentative arrival).
    pub(crate) fn watch_tentative_stall(&mut self) {
        if !self.config.robust_repair {
            return; // paper-exact mode: no stall watchdog
        }
        let stalled =
            matches!(self.mode, Mode::Normal) && self.tentative.contains(&self.next_expected);
        if stalled && !self.tent_stall_armed {
            self.tent_stall_armed = true;
            self.push(Action::SetTimer {
                kind: TimerKind::TentativeStall,
                after_us: self.config.tentative_resend_us.saturating_mul(2),
            });
        } else if !stalled && self.tent_stall_armed {
            self.tent_stall_armed = false;
            self.push(Action::CancelTimer { kind: TimerKind::TentativeStall });
        }
    }

    /// The tentative-stall timer fired: if delivery is still blocked on
    /// an unaccepted entry, re-fetch its authoritative form from the
    /// sequencer. A released entry comes back as plain `BcastData` and
    /// unblocks delivery; a genuinely pending one comes back tentative
    /// (harmless) while the resilience machinery keeps gathering acks —
    /// so the timer re-arms rather than escalating to suspicion.
    fn on_tentative_stall(&mut self) {
        self.tent_stall_armed = false;
        if !matches!(self.mode, Mode::Normal) || self.is_sequencer() {
            return;
        }
        let blocked = self.next_expected;
        if !self.tentative.contains(&blocked) {
            return; // resolved between arming and expiry
        }
        self.stats.nacks_sent += 1;
        let msg = self.make_msg(Body::RetransReq { from: blocked, to: blocked });
        self.send_to(Dest::Unicast(self.view.sequencer_meta().addr), msg);
        self.tent_stall_armed = true;
        self.push(Action::SetTimer {
            kind: TimerKind::TentativeStall,
            after_us: self.config.tentative_resend_us.saturating_mul(2),
        });
    }

    /// Applies one entry at `next_expected`: hand it to the application
    /// and update membership state.
    fn deliver_entry(&mut self, entry: Sequenced) {
        debug_assert_eq!(entry.seqno, self.next_expected);
        self.next_expected = self.next_expected.next();
        let seqno = entry.seqno;
        // The application gets the kind (a payload refcount); the
        // shared entry itself moves into the history cache.
        let kind = entry.kind.clone();
        self.history.insert_evicting(entry);
        self.stats.delivered += 1;
        match kind {
            SequencedKind::App { origin, sender_seq, payload } => {
                if origin == self.me {
                    if self.is_sequencer() {
                        // Deliver-at-stamp: with r > 0 the completion
                        // must wait for the resilience acks; recovery
                        // still needs to know (see PendingSend).
                        if let Some(p) = self
                            .pending_sends
                            .iter_mut()
                            .find(|p| p.sender_seq == sender_seq)
                        {
                            p.delivered_at = Some(seqno);
                        }
                    } else {
                        // A member delivers an entry only once it is
                        // official (r > 0 entries are accept-gated), so
                        // delivering our own message IS its completion
                        // — including during a post-recovery catch-up,
                        // where missing this would leave the send
                        // pending and a later resubmission would stamp
                        // it twice (chaos-explorer finding).
                        self.maybe_complete_send(origin, sender_seq, seqno);
                    }
                }
                self.push(Action::Deliver(GroupEvent::Message { seqno, origin, payload }));
            }
            SequencedKind::Join { member } => {
                self.view.add(member);
                if let Some(ss) = &mut self.seq_state {
                    ss.note_member_joined(member.id, seqno);
                }
                self.push(Action::Deliver(GroupEvent::Joined { seqno, member }));
            }
            SequencedKind::Leave { member, forced } => {
                self.view.remove(member);
                if let Some(ss) = &mut self.seq_state {
                    ss.note_member_left(member);
                    self.sequencer_after_floor_change();
                }
                self.push(Action::Deliver(GroupEvent::Left { seqno, member, forced }));
                if member == self.me {
                    self.mode = Mode::Left;
                    if self.pending_leave {
                        self.pending_leave = false;
                        self.push(Action::LeaveDone(Ok(())));
                    } else {
                        self.push(Action::Deliver(GroupEvent::Expelled));
                    }
                }
            }
            SequencedKind::SequencerHandoff { new_sequencer } => {
                let old_sequencer = self.view.sequencer;
                self.view.remove(old_sequencer);
                self.view.sequencer = new_sequencer;
                // The successor rebuilds its duplicate filters from
                // history (non-strict): serialize our sends until a
                // completion beyond the handoff proves its record for
                // us latched strict.
                self.resync_serial = true;
                self.resync_horizon = seqno;
                self.push(Action::Deliver(GroupEvent::SequencerChanged {
                    seqno,
                    old_sequencer,
                    new_sequencer,
                }));
                if old_sequencer == self.me {
                    // Our own graceful departure completes here.
                    self.mode = Mode::Left;
                    self.seq_state = None;
                    if self.pending_leave {
                        self.pending_leave = false;
                        self.push(Action::LeaveDone(Ok(())));
                    }
                } else if new_sequencer == self.me && self.seq_state.is_none() {
                    self.assume_sequencer_role(seqno.next());
                }
            }
        }
    }

    /// Whether a wire-supplied seqno is within plausible reach of our
    /// delivery point. The flow-control window bounds how far a correct
    /// sequencer can run ahead of the slowest member (the history cap,
    /// plus always-admitted control entries), so anything far beyond it
    /// is corruption or hostility — and the seqno-indexed ring must
    /// never turn such a value into an allocation size (the ordered map
    /// this replaced stored one entry; the ring would reserve the gap).
    /// Dropping a frame here is indistinguishable from wire loss: the
    /// negative-acknowledgement machinery recovers if we are wrong.
    pub(crate) fn seqno_plausible(&self, seqno: Seqno) -> bool {
        let window = (self.config.history_cap as u64).saturating_mul(4).max(4096);
        seqno.0 <= self.next_expected.0.saturating_add(window)
    }

    /// If entries are parked beyond a hole, ask the sequencer to
    /// retransmit the hole (the negative acknowledgement of paper §2.2).
    pub(crate) fn check_gap(&mut self) {
        if self.nack_open.is_some() {
            return; // one outstanding complaint at a time
        }
        let Some(first_parked) = self.ooo.first_seqno() else { return };
        if first_parked <= self.next_expected {
            return; // no hole: either deliverable or accept-gated
        }
        let lo = self.next_expected;
        let hi = first_parked.prev();
        self.send_nack(lo, hi);
    }

    pub(crate) fn send_nack(&mut self, lo: Seqno, hi: Seqno) {
        self.nack_open = Some((lo, hi));
        self.stats.nacks_sent += 1;
        let msg = self.make_msg(Body::RetransReq { from: lo, to: hi });
        self.send_to(Dest::Unicast(self.view.sequencer_meta().addr), msg);
        self.push(Action::SetTimer {
            kind: TimerKind::NackRetry,
            after_us: self.config.nack_retry_us,
        });
    }

    fn on_nack_retry(&mut self) {
        let Some((lo, hi)) = self.nack_open else { return };
        if !matches!(self.mode, Mode::Normal) {
            return;
        }
        self.nack_retries += 1;
        if self.nack_retries > self.config.send_max_retries {
            self.nack_retries = 0;
            self.nack_open = None;
            self.suspect_sequencer();
            return;
        }
        let lo = lo.max(self.next_expected);
        self.stats.nacks_sent += 1;
        let msg = self.make_msg(Body::RetransReq { from: lo, to: hi });
        self.send_to(Dest::Unicast(self.view.sequencer_meta().addr), msg);
        // With the congestion guards on, back off exponentially: a
        // fixed retry interval shorter than the multi-fragment answer's
        // wire time makes every behind member re-request the full range
        // before the previous answer drains, and the duplicated answers
        // saturate the shared Ethernet until nothing — answers,
        // accepts, acks — gets through (congestion collapse;
        // chaos-explorer finding on large catch-up ranges).
        let shift = if self.config.robust_repair { self.nack_retries.min(6) } else { 0 };
        self.push(Action::SetTimer {
            kind: TimerKind::NackRetry,
            after_us: self.config.nack_retry_us << shift,
        });
    }

    /// The sequencer has repeatedly failed to answer. Tell the
    /// application (and optionally start recovery ourselves).
    pub(crate) fn suspect_sequencer(&mut self) {
        self.push(Action::Deliver(GroupEvent::SequencerSuspected));
        if self.config.auto_reset && matches!(self.mode, Mode::Normal) {
            let min = self.config.auto_reset_min_members;
            self.start_recovery(min, false);
        }
    }

    // ------------------------------------------------------------------
    // Helpers shared across modules
    // ------------------------------------------------------------------

    pub(crate) fn push(&mut self, action: Action) {
        if matches!(action, Action::Send { .. }) {
            self.stats.msgs_out += 1;
        }
        self.actions.push(action);
    }

    pub(crate) fn take_actions(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.actions)
    }

    pub(crate) fn send_to(&mut self, dest: Dest, msg: WireMsg) {
        self.push(Action::Send { dest, msg });
    }

    /// Builds a packet with the standard header (piggybacked floor
    /// included).
    pub(crate) fn make_msg(&self, body: Body) -> WireMsg {
        WireMsg {
            hdr: Hdr {
                group: self.group,
                view: self.view.view_id,
                sender: self.me,
                last_delivered: self.next_expected.prev(),
                gc_floor: self
                    .seq_state
                    .as_ref()
                    .map_or(Seqno::ZERO, |s| s.gc_floor),
            },
            body,
        }
    }

    /// The highest seqno such that this member holds *everything* up to
    /// it (delivered prefix extended by contiguous parked entries).
    pub(crate) fn contiguous_prefix(&self) -> Seqno {
        let mut s = self.next_expected.prev();
        let mut probe = self.next_expected;
        while self.ooo.contains(probe) {
            s = probe;
            probe = probe.next();
        }
        s
    }

    /// Completes a pending send if `origin`/`sender_seq` identify one.
    /// A completion is also the signal that frees coalesced requests to
    /// go on the wire (DESIGN.md §6).
    pub(crate) fn maybe_complete_send(&mut self, origin: MemberId, sender_seq: u64, seqno: Seqno) {
        if origin != self.me {
            return;
        }
        let Some(idx) = self.pending_sends.iter().position(|p| p.sender_seq == sender_seq)
        else {
            return;
        };
        self.pending_sends.remove(idx);
        self.parked.remove(origin, sender_seq);
        if self.pending_sends.is_empty() {
            self.push(Action::CancelTimer { kind: TimerKind::SendRetransmit });
        }
        self.push(Action::SendDone(Ok(seqno)));
        // A completion stamped *beyond the resync horizon* proves the
        // current sequencer's duplicate filter holds a strict record
        // for us: resync serialization (if any) is over and the queued
        // tail may pipeline. Completions at or below the horizon are
        // backfill of a previous sequencer's stamps and prove nothing.
        if seqno > self.resync_horizon {
            self.resync_serial = false;
        }
        if !self.is_sequencer() {
            self.flush_queued_requests();
        }
    }

    fn epoch_check(&mut self, msg: &WireMsg) -> EpochVerdict {
        // Recovery and admission traffic has its own epoch rules.
        match &msg.body {
            Body::JoinReq { .. }
            | Body::JoinAck { .. }
            | Body::NewView { .. }
            | Body::Invite { .. }
            | Body::InviteAck { .. }
            | Body::ViewQuery
            | Body::Ping { .. }
            | Body::Pong { .. } => return EpochVerdict::Process,
            _ => {}
        }
        if msg.hdr.view == self.view.view_id {
            return EpochVerdict::Process;
        }
        if msg.hdr.view < self.view.view_id {
            return EpochVerdict::Drop; // stale epoch
        }
        // Traffic from a future epoch: a recovery happened without us.
        // Ask the sender for the installed view; we either adopt it (we
        // are a member) or learn we were expelled.
        if let Some(sender) = self.view.member(msg.hdr.sender) {
            let q = self.make_msg(Body::ViewQuery);
            self.send_to(Dest::Unicast(sender.addr), q);
        }
        EpochVerdict::Drop
    }

    pub(crate) fn arm_sync_interval(&mut self) {
        if self.is_sequencer() && self.config.sync_interval_us > 0 {
            self.push(Action::SetTimer {
                kind: TimerKind::SyncInterval,
                after_us: self.config.sync_interval_us,
            });
        }
    }
}

enum EpochVerdict {
    Process,
    Drop,
}
