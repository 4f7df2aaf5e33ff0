//! The member role: the receive side of the broadcast protocol (PB and
//! BB, single frames and batches), tentative buffering for resilience,
//! send pipelining/coalescing, and send retransmission.

use bytes::Bytes;

use crate::action::{Action, Dest};
use crate::config::Method;
use crate::core::{GroupCore, Mode};
use crate::ids::{MemberId, Seqno};
use crate::message::{BatchItem, BatchReq, Body, Hdr, Sequenced, SequencedKind};
use crate::timer::TimerKind;

impl GroupCore {
    // ------------------------------------------------------------------
    // Receive path
    // ------------------------------------------------------------------

    /// Full stamped data from the sequencer (PB multicast or a
    /// retransmission answer).
    pub(crate) fn handle_bcast_data(&mut self, entry: Sequenced) {
        if !matches!(self.mode, Mode::Normal) || self.is_sequencer() {
            return;
        }
        if crate::sabotage::trace_on() {
            eprintln!("DATA at={} seqno={} next={}", self.me, entry.seqno, self.next_expected);
        }
        self.pre_accepted.remove(&entry.seqno);
        if let SequencedKind::App { origin, sender_seq, .. } = &entry.kind {
            self.accepted_awaiting_data.remove(*origin, *sender_seq);
            self.parked.remove(*origin, *sender_seq);
        }
        self.ingest_sequenced(entry);
        self.maybe_report_floor();
    }

    /// A tentative (r > 0) stamped entry: buffer it, gate delivery on
    /// the accept, and acknowledge if we are one of the r designated
    /// members *and* our prefix below it is complete (the contiguity
    /// rule that makes a tentative ack a promise of full history).
    pub(crate) fn handle_tentative(&mut self, entry: Sequenced, resilience: u32) {
        if !matches!(self.mode, Mode::Normal) || self.is_sequencer() {
            return;
        }
        if crate::sabotage::trace_on() {
            eprintln!("TENT at={} seqno={} next={}", self.me, entry.seqno, self.next_expected);
        }
        let seqno = entry.seqno;
        if seqno < self.next_expected {
            self.stats.duplicates += 1;
            // Already delivered, so our prefix certainly covers it: if
            // we are one of the r designated ackers, ack *again* — the
            // sequencer is re-multicasting precisely because it still
            // lacks acknowledgements, and our original ack may be the
            // lost one. Staying silent here live-locked the group
            // (chaos-explorer finding: a member that delivered early
            // via a leaked accept never re-acked, and the tentative
            // was re-sent forever). Robust-repair mode only: the 1996
            // protocol stayed silent.
            if self.config.robust_repair
                && self.view.resilience_ackers(resilience).contains(&self.me)
            {
                self.send_tent_ack(seqno);
            }
            return;
        }
        if !self.seqno_plausible(seqno) {
            return; // corrupt/hostile seqno (see seqno_plausible)
        }
        if self.pre_accepted.remove(&seqno) {
            // The accept raced ahead of the data: it is official.
            self.ingest_sequenced(entry);
            return;
        }
        if let SequencedKind::App { origin, sender_seq, .. } = &entry.kind {
            self.parked.remove(*origin, *sender_seq);
        }
        self.tentative.insert(seqno);
        self.ooo.insert_if_absent(seqno, entry);
        self.watch_tentative_stall();
        let am_acker = self.view.resilience_ackers(resilience).contains(&self.me);
        if am_acker {
            if self.contiguous_prefix() >= seqno {
                self.send_tent_ack(seqno);
            } else {
                self.deferred_tent_acks.insert(seqno);
                self.check_gap();
            }
        } else {
            self.check_gap();
        }
    }

    pub(crate) fn send_tent_ack(&mut self, seqno: Seqno) {
        self.stats.tent_acks_sent += 1;
        let msg = self.make_msg(Body::TentAck { seqno });
        self.send_to(Dest::Unicast(self.view.sequencer_meta().addr), msg);
    }

    /// Acks deferred for contiguity become sendable as gaps close.
    pub(crate) fn flush_deferred_tent_acks(&mut self) {
        if self.deferred_tent_acks.is_empty() {
            return;
        }
        let prefix = self.contiguous_prefix();
        let ready: Vec<Seqno> =
            self.deferred_tent_acks.range(..=prefix).copied().collect();
        for seqno in ready {
            self.deferred_tent_acks.remove(&seqno);
            self.send_tent_ack(seqno);
        }
    }

    /// A short accept: stamps BB data we already hold, releases a
    /// tentative entry, or (for our own message) completes the send.
    pub(crate) fn handle_accept(&mut self, seqno: Seqno, origin: MemberId, sender_seq: u64) {
        if !matches!(self.mode, Mode::Normal) || self.is_sequencer() {
            return;
        }
        if !self.seqno_plausible(seqno) {
            return; // corrupt/hostile seqno (see seqno_plausible)
        }
        // Take the parked payload (if any) *before* completing the send:
        // completion bookkeeping also clears the parked entry, and for
        // our own BB messages that payload is the data the accept stamps.
        let parked = self.parked.remove(origin, sender_seq);
        self.maybe_complete_send(origin, sender_seq, seqno);
        if seqno < self.next_expected {
            return; // already delivered
        }
        if self.tentative.remove(&seqno) {
            self.drain_deliverable();
            self.check_gap();
            return;
        }
        if self.ooo.contains(seqno) {
            return; // data present and already official
        }
        if let Some(payload) = parked {
            // BB: we hold the multicast payload; the accept gives it its
            // place in the total order.
            let entry = Sequenced::new(seqno, SequencedKind::App { origin, sender_seq, payload });
            self.ingest_sequenced(entry);
            self.maybe_report_floor();
            return;
        }
        // Accept without data: remember it and ask for the payload.
        // Origin-keyed bookkeeping only for current members — an origin
        // we do not know (not yet joined in our view, or a forged id)
        // must not grow the per-member tables. The nack still goes out
        // either way (it is a single slot, not a table): if the origin
        // is real, the retransmission brings both its Join and its data.
        if self.view.contains(origin) {
            self.pre_accepted.insert(seqno);
            self.accepted_awaiting_data.insert(origin, sender_seq, seqno);
        }
        if self.nack_open.is_none() {
            self.send_nack(self.next_expected, seqno);
        }
    }

    /// BB original data from a peer member: park it until its accept
    /// (or stamp it immediately if the accept already arrived).
    pub(crate) fn handle_bcast_orig(&mut self, hdr: Hdr, sender_seq: u64, payload: Bytes) {
        if self.is_sequencer() {
            self.handle_bcast_orig_at_sequencer(hdr, sender_seq, payload);
            return;
        }
        if !matches!(self.mode, Mode::Normal) {
            return;
        }
        let origin = hdr.sender;
        if let Some(seqno) = self.accepted_awaiting_data.remove(origin, sender_seq) {
            self.pre_accepted.remove(&seqno);
            let entry = Sequenced::new(seqno, SequencedKind::App { origin, sender_seq, payload });
            self.ingest_sequenced(entry);
            return;
        }
        // Park only for current members: a sender we have not seen join
        // (or a forged origin) must not grow the parked table — its
        // message, if real, reaches us via the sequencer's stamped
        // retransmission once the accept opens a gap.
        if !self.view.contains(origin) {
            return;
        }
        self.parked.insert(origin, sender_seq, payload);
    }

    /// The sequencer asks for status: nack anything we did not know we
    /// were missing right away, but *stagger* the status reply by our
    /// rank so a large group's answers do not land on the sequencer in
    /// one burst (ack implosion — §2.2's argument against naive
    /// positive-acknowledgement schemes applies to status storms too).
    pub(crate) fn handle_sync_req(&mut self, horizon: Seqno) {
        if !matches!(self.mode, Mode::Normal) || self.is_sequencer() {
            return;
        }
        let rank = self
            .view
            .members()
            .iter()
            .filter(|m| m.id != self.view.sequencer)
            .position(|m| m.id == self.me)
            .unwrap_or(0) as u64;
        let delay = rank * self.config.status_stagger_us;
        if delay == 0 {
            let msg = self.make_msg(Body::Status);
            self.send_to(Dest::Unicast(self.view.sequencer_meta().addr), msg);
        } else {
            self.push(crate::action::Action::SetTimer {
                kind: TimerKind::StatusReply,
                after_us: delay,
            });
        }
        if horizon > self.contiguous_prefix() && self.nack_open.is_none() {
            self.send_nack(self.next_expected, horizon);
        }
    }

    /// The staggered status reply timer fired.
    pub(crate) fn on_status_reply(&mut self) {
        if !matches!(self.mode, Mode::Normal) || self.is_sequencer() {
            return;
        }
        let msg = self.make_msg(Body::Status);
        self.send_to(Dest::Unicast(self.view.sequencer_meta().addr), msg);
    }

    // ------------------------------------------------------------------
    // Receive path: batch frames
    // ------------------------------------------------------------------

    /// A sequencer batch frame: unpack and process each item as if it
    /// had arrived in its own packet (DESIGN.md §6). The amortization is
    /// physical (one multicast, one interrupt), not semantic — ordering
    /// and dedup behave exactly as for the unbatched frames.
    pub(crate) fn handle_bcast_batch(&mut self, items: Vec<BatchItem>) {
        for item in items {
            match item {
                BatchItem::Entry(entry) => self.handle_bcast_data(entry),
                BatchItem::Accept { seqno, origin, sender_seq } => {
                    self.handle_accept(seqno, origin, sender_seq)
                }
            }
        }
    }

    /// Watermark acknowledgement (batching only): a member that only
    /// receives never piggybacks its delivery floor on outgoing
    /// requests, so under a pipelined load the sequencer's history
    /// fills against it and flow control stalls the whole group until
    /// the next sync round. With batching on, a passive member reports
    /// its floor (a bare `Status`) every quarter-history of deliveries,
    /// keeping the garbage-collection watermark moving at a cost of one
    /// short frame per `history_cap / 4` messages. `BatchPolicy::Off`
    /// keeps the paper's sync-round-only behaviour.
    pub(crate) fn maybe_report_floor(&mut self) {
        if !self.config.batch.is_on()
            || self.is_sequencer()
            || !matches!(self.mode, Mode::Normal)
        {
            return;
        }
        let floor = self.next_expected.prev();
        let threshold = (self.config.history_cap as u64 / 4).max(1);
        if floor.0 >= self.last_reported_floor.0.saturating_add(threshold) {
            self.last_reported_floor = floor;
            let msg = self.make_msg(Body::Status);
            self.send_to(Dest::Unicast(self.view.sequencer_meta().addr), msg);
        }
    }

    // ------------------------------------------------------------------
    // Send path (non-sequencer)
    // ------------------------------------------------------------------

    /// Puts one queued request on the wire (first attempt path).
    pub(crate) fn transmit_request(&mut self, sender_seq: u64) {
        let Some(p) = self.pending_sends.iter().find(|p| p.sender_seq == sender_seq) else {
            return;
        };
        if crate::sabotage::trace_on() {
            eprintln!(
                "XMIT member={} view={} sender_seq={} method={:?} serial={}",
                self.me, self.view.view_id, sender_seq, p.method, self.resync_serial
            );
        }
        let (payload, method) = (p.payload.clone(), p.method);
        match method {
            Method::Pb | Method::Dynamic { .. } => {
                let msg = self.make_msg(Body::BcastReq { sender_seq, payload });
                self.send_to(Dest::Unicast(self.view.sequencer_meta().addr), msg);
            }
            Method::Bb => {
                let msg = self.make_msg(Body::BcastOrig { sender_seq, payload });
                self.send_to(Dest::Group, msg);
            }
        }
    }

    /// Transmits every request still waiting for the wire (coalesced
    /// behind in-flight traffic), batching PB requests into
    /// `BcastReqBatch` frames. Called when a completion frees the
    /// pipeline and from the retransmit timer.
    pub(crate) fn flush_queued_requests(&mut self) {
        if self.resync_serial {
            // Resync serialization: only the oldest pending request may
            // be outstanding until the new sequencer's filter latches
            // (see `GroupCore::resync_serial`).
            let Some(head) = self.pending_sends.front_mut() else { return };
            if !head.submitted {
                head.submitted = true;
                let seq = head.sender_seq;
                self.transmit_requests(&[seq]);
            }
            return;
        }
        let queued: Vec<u64> = self
            .pending_sends
            .iter()
            .filter(|p| !p.submitted)
            .map(|p| p.sender_seq)
            .collect();
        if queued.is_empty() {
            return;
        }
        for p in self.pending_sends.iter_mut() {
            p.submitted = true;
        }
        self.transmit_requests(&queued);
    }

    /// Puts the given queued requests on the wire **in `sender_seq`
    /// order** (the sequencer's FIFO admission depends on it),
    /// coalescing runs of adjacent PB requests into `BcastReqBatch`
    /// frames that stay within the batch frame budget. A BB request
    /// flushes the accumulated PB run first, then multicasts its
    /// payload, so a mixed-method window never overtakes itself.
    pub(crate) fn transmit_requests(&mut self, sender_seqs: &[u64]) {
        let mut pb_run: Vec<BatchReq> = Vec::new();
        for &sender_seq in sender_seqs {
            let Some(p) = self.pending_sends.iter().find(|p| p.sender_seq == sender_seq)
            else {
                continue;
            };
            match p.method {
                Method::Bb => {
                    self.send_pb_run(std::mem::take(&mut pb_run));
                    self.transmit_request(sender_seq);
                }
                Method::Pb | Method::Dynamic { .. } => {
                    pb_run.push(BatchReq { sender_seq, payload: p.payload.clone() })
                }
            }
        }
        self.send_pb_run(pb_run);
    }

    /// Ships one in-order run of PB requests: packed `BcastReqBatch`
    /// frames, with a lone request degrading to a plain `BcastReq`.
    fn send_pb_run(&mut self, reqs: Vec<BatchReq>) {
        if reqs.is_empty() {
            return;
        }
        let seq_addr = self.view.sequencer_meta().addr;
        // With batching off every request ships as its own plain
        // BcastReq, even from a pipelined window — `BatchPolicy::Off`
        // means no batch frames on the wire, period.
        let max_batch = if self.config.batch.is_on() {
            self.config.batch.max_batch().max(self.config.send_window)
        } else {
            1
        };
        for frame in crate::message::pack_batch_items(reqs, max_batch, BatchReq::wire_size) {
            if frame.len() == 1 {
                let req = frame.into_iter().next().expect("len checked");
                let msg = self.make_msg(Body::BcastReq {
                    sender_seq: req.sender_seq,
                    payload: req.payload,
                });
                self.send_to(Dest::Unicast(seq_addr), msg);
            } else {
                self.stats.req_batches_out += 1;
                let msg = self.make_msg(Body::BcastReqBatch { reqs: frame });
                self.send_to(Dest::Unicast(seq_addr), msg);
            }
        }
    }

    /// The send (or leave) request timer fired.
    pub(crate) fn on_send_retransmit(&mut self) {
        if !matches!(self.mode, Mode::Normal) {
            return;
        }
        if !self.pending_sends.is_empty() {
            if self.is_sequencer() {
                // We were waiting out our own full history buffer.
                self.sequencer_local_send();
                return; // if still blocked, the timer was re-armed inside
            }
            if self.resubmit_after.is_some() {
                // Recovery resubmission is deferred until we catch up
                // to the install horizon: nothing to retransmit yet
                // (the nack machinery owns the catch-up), but keep the
                // timer alive so a member that cannot catch up still
                // fails its sends and suspects.
                let head = self.pending_sends.front_mut().expect("checked above");
                head.retries += 1;
                if head.retries > self.config.send_max_retries {
                    while self.pending_sends.pop_front().is_some() {
                        self.push(Action::SendDone(Err(
                            crate::error::GroupError::SequencerUnreachable,
                        )));
                    }
                    self.resubmit_after = None;
                    self.suspect_sequencer();
                    return;
                }
                let backoff = self.config.send_retransmit_us << head.retries.min(6);
                self.push(Action::SetTimer {
                    kind: TimerKind::SendRetransmit,
                    after_us: backoff,
                });
                return;
            }
            let head = self.pending_sends.front_mut().expect("checked above");
            head.retries += 1;
            let retries = head.retries;
            if retries > self.config.send_max_retries {
                // The sequencer is not answering: every queued send is
                // equally stuck. Fail them all, oldest first.
                while self.pending_sends.pop_front().is_some() {
                    self.push(Action::SendDone(Err(
                        crate::error::GroupError::SequencerUnreachable,
                    )));
                }
                self.suspect_sequencer();
                return;
            }
            self.stats.send_retries += 1;
            // Retransmit the head plus the PB tail (one cheap batch
            // frame). BB tail payloads are *not* re-multicast — the
            // sequencer admits strictly in order anyway, so a BB tail
            // entry retries once it becomes the head; this keeps retry
            // wire cost from scaling with the window (the seed resent
            // exactly one frame here). Under resync serialization only
            // the head may be on the wire at all (see `resync_serial`).
            let serial = self.resync_serial;
            let resend: Vec<u64> = self
                .pending_sends
                .iter()
                .enumerate()
                .filter(|(i, p)| {
                    *i == 0 || (!serial && !matches!(p.method, Method::Bb))
                })
                .map(|(_, p)| p.sender_seq)
                .collect();
            for (i, p) in self.pending_sends.iter_mut().enumerate() {
                if !serial || i == 0 {
                    p.submitted = true;
                }
            }
            self.transmit_requests(&resend);
            let backoff = self.config.send_retransmit_us << retries.min(6);
            self.push(Action::SetTimer { kind: TimerKind::SendRetransmit, after_us: backoff });
        } else if self.pending_leave && !self.is_sequencer() {
            let msg = self.make_msg(Body::LeaveReq { nonce: self.sender_seq });
            self.send_to(Dest::Unicast(self.view.sequencer_meta().addr), msg);
            self.push(Action::SetTimer {
                kind: TimerKind::SendRetransmit,
                after_us: self.config.send_retransmit_us,
            });
        }
    }
}
