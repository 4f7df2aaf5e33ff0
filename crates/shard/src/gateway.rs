//! The gateway: the one member per group that injects routed
//! operations into the group's total order.
//!
//! A router cannot broadcast into a group it is not a member of, so
//! every group designates one member — member index 1, deliberately
//! *not* the founding sequencer, so a sequencer crash does not sever
//! routing — as its gateway. Because one gateway serializes all routed
//! operations for its group, replicas never see two racing copies of
//! the control plane.
//!
//! **One frame in flight, one frame per drain** (DESIGN.md §11.2).
//! Whenever the gateway has no send outstanding — its poll timer
//! fired, the router's pump woke it, the previous send completed, a
//! view was installed — it moves everything in its inbox into one
//! ordered message ([`crate::op::frame`]), up to the group's
//! `max_message`; a body that alone exceeds it rides alone. The batch
//! is whatever arrived while the previous frame was being ordered: no
//! flush timer, no batch bound, and one history slot per frame. The
//! poll timer is the only trigger a simulated run has and the safety
//! net of a live one, where it is fired through a [`Ctx::waker`] by
//! the router's next pump after a body found the inbox empty, or at
//! once by a direct [`GatewayPort::push`].
//!
//! The bodies of a failed frame are held back until a recovery installs
//! a new view or a retry timer fires, then lead the next frame, in
//! order, under *fresh* sequence numbers (the delivery audit tolerates
//! per-origin gaps but flags duplicates). Bodies pushed meanwhile keep
//! flowing, so one body the group refuses cannot starve the rest.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use amoeba_app::{Ctx, TimerId};
use bytes::Bytes;

use crate::op::{frame, Reply, GSEQ_MAX_LEN};

/// Queue of encoded operation bodies a router pushes for a gateway.
pub type Inbox = Arc<Mutex<VecDeque<String>>>;
/// Queue of replies a gateway pushes for its router.
pub type Outbox = Arc<Mutex<VecDeque<Reply>>>;
/// The gateway's submission count (its next gseq), read by the audit
/// as the per-origin "messages submitted" figure.
pub type SubmitCount = Arc<Mutex<u64>>;

/// The shared-memory endpoints connecting one gateway to its router.
#[derive(Clone, Default)]
pub struct GatewayPort {
    /// Router → gateway: operation bodies to broadcast.
    pub inbox: Inbox,
    /// Gateway → router: replies from applied operations.
    pub outbox: Outbox,
    /// How many bodies the gateway has submitted (for auditing).
    pub submitted: SubmitCount,
    /// The gateway's actual member id, recorded at app start (`None`
    /// until then) — the audit keys submissions by member id.
    pub member: Arc<Mutex<Option<u32>>>,
    /// Fires the gateway's poll timer now; set at app start.
    waker: Arc<OnceLock<Arc<dyn Fn() + Send + Sync>>>,
}

impl GatewayPort {
    /// Fresh, empty endpoints.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues one body for the gateway to broadcast, and wakes the
    /// gateway if it found the inbox empty. Only that body has to: the
    /// gateway takes all it finds, or leaves the rest with a frame in
    /// flight whose completion looks again.
    pub fn push(&self, body: String) {
        if self.enqueue(body) {
            self.wake();
        }
    }

    /// Queues one body without waking; true if the inbox was empty, so
    /// the gateway must be [woken](Self::wake) for it.
    pub(crate) fn enqueue(&self, body: String) -> bool {
        let mut inbox = self.inbox.lock().unwrap();
        inbox.push_back(body);
        inbox.len() == 1
    }

    /// Fires the gateway's poll timer now (nothing before its start).
    pub(crate) fn wake(&self) {
        if let Some(wake) = self.waker.get() {
            wake();
        }
    }
}

/// Timer the gateway polls its inbox on.
pub const POLL_TIMER: TimerId = TimerId(0xFEED_0001);
/// Poll period (simulated/wall): what a routed operation waits for an
/// idle gateway on a host that ignores the wake.
const POLL: Duration = Duration::from_millis(1);
/// Timer the gateway retries failed sends on.
pub const RETRY_TIMER: TimerId = TimerId(0xFEED_0002);
/// Backoff before re-sending bodies whose send failed, if no new view
/// arrives first.
const RETRY_AFTER: Duration = Duration::from_millis(500);

/// The embeddable gateway role. Apps that may act as a gateway hold an
/// `Option<Gateway>` and forward their callbacks here.
pub struct Gateway {
    port: GatewayPort,
    /// Next sequence number to assign (== bodies submitted so far).
    gseq: u64,
    /// The bodies of the frame submitted and not yet completed.
    inflight: Option<Vec<String>>,
    /// Bodies of failed frames, held back until a view or the retry
    /// timer releases them.
    retry: Vec<String>,
    /// The group's `max_message`, read at start.
    max_frame: usize,
}

impl Gateway {
    /// A gateway serving `port`.
    pub fn new(port: GatewayPort) -> Self {
        Gateway { port, gseq: 0, inflight: None, retry: Vec::new(), max_frame: 0 }
    }

    /// Call from `GroupApp::on_start`.
    pub fn on_start(&mut self, ctx: &mut dyn Ctx) {
        *self.port.member.lock().unwrap() = Some(ctx.info().me.0);
        self.max_frame = ctx.config().max_message;
        let _ = self.port.waker.set(ctx.waker(POLL_TIMER));
        ctx.set_timer(POLL_TIMER, POLL);
    }

    /// Call from `GroupApp::on_timer`; returns `true` if the timer was
    /// one of the gateway's.
    pub fn on_timer(&mut self, ctx: &mut dyn Ctx, timer: TimerId) -> bool {
        match timer {
            POLL_TIMER => {
                self.flush(ctx);
                ctx.set_timer(POLL_TIMER, POLL);
                true
            }
            RETRY_TIMER => {
                self.release_retries(ctx);
                true
            }
            _ => false,
        }
    }

    /// Call for every `AppEvent::SendDone`.
    pub fn on_send_done(&mut self, ctx: &mut dyn Ctx, ok: bool) {
        // A completion with no frame outstanding is not this gateway's.
        let Some(bodies) = self.inflight.take() else { return };
        if ok {
            self.flush(ctx);
        } else {
            // The frame may or may not have been ordered (ambiguity is
            // inherent); its bodies will be re-broadcast under fresh
            // gseqs and replicas apply them idempotently. A group that
            // refuses sends refuses the next one too: no flush here.
            self.retry.extend(bodies);
            ctx.set_timer(RETRY_TIMER, RETRY_AFTER);
        }
    }

    /// Call when a `ViewInstalled` arrives: recovery finished, so
    /// failed bodies can go out immediately.
    pub fn on_view_installed(&mut self, ctx: &mut dyn Ctx) {
        self.release_retries(ctx);
    }

    /// Puts the held-back bodies at the head of the inbox, in order.
    fn release_retries(&mut self, ctx: &mut dyn Ctx) {
        let mut inbox = self.port.inbox.lock().unwrap();
        for body in self.retry.drain(..).rev() {
            inbox.push_front(body);
        }
        drop(inbox);
        self.flush(ctx);
    }

    /// With no frame in flight, sends everything in the inbox that one
    /// message holds (at least one body) as one frame.
    fn flush(&mut self, ctx: &mut dyn Ctx) {
        if self.inflight.is_some() {
            return;
        }
        let mut inbox = self.port.inbox.lock().unwrap();
        // A frame is its sequence number and a separator ahead of
        // every body.
        let mut len = GSEQ_MAX_LEN;
        let fit = inbox
            .iter()
            .take_while(|body| {
                len += 1 + body.len();
                len <= self.max_frame
            })
            .count();
        let take = fit.max(1).min(inbox.len());
        let bodies: Vec<String> = inbox.drain(..take).collect();
        drop(inbox);
        if bodies.is_empty() {
            return;
        }
        ctx.send(Bytes::from(frame(self.gseq, &bodies)));
        self.gseq += bodies.len() as u64;
        *self.port.submitted.lock().unwrap() = self.gseq;
        self.inflight = Some(bodies);
    }

    /// Pushes a reply onto the outbox for the router.
    pub fn reply(&self, r: Reply) {
        self.port.outbox.lock().unwrap().push_back(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::unframe;
    use crate::server::tests::StubCtx;

    fn started(max_message: usize) -> (Gateway, GatewayPort, StubCtx) {
        let port = GatewayPort::new();
        let mut gateway = Gateway::new(port.clone());
        let mut ctx = StubCtx { max_message, ..StubCtx::default() };
        gateway.on_start(&mut ctx);
        (gateway, port, ctx)
    }

    /// The frames sent since the last call, each as its `(gseq, body)`
    /// walk.
    fn frames(ctx: &mut StubCtx) -> Vec<Vec<(u64, String)>> {
        ctx.sent
            .drain(..)
            .map(|p| unframe(&p).map(|(gseq, body)| (gseq, body.to_string())).collect())
            .collect()
    }

    fn numbered(from: u64, bodies: &[&str]) -> Vec<(u64, String)> {
        bodies.iter().enumerate().map(|(i, b)| (from + i as u64, b.to_string())).collect()
    }

    #[test]
    fn queued_bodies_leave_as_one_frame_with_consecutive_gseqs() {
        let (mut gateway, port, mut ctx) = started(8_000);
        let bodies: Vec<String> = (0..7).map(|i| format!("G|{i}|k{i}")).collect();
        for body in &bodies {
            port.push(body.clone());
        }
        gateway.on_timer(&mut ctx, POLL_TIMER);
        let refs: Vec<&str> = bodies.iter().map(String::as_str).collect();
        assert_eq!(frames(&mut ctx), [numbered(0, &refs)]);
        assert_eq!(*port.submitted.lock().unwrap(), 7);
    }

    #[test]
    fn a_frame_splits_at_a_body_boundary_and_an_oversize_body_rides_alone() {
        // Room for the sequence number and two 30-byte bodies, not three.
        let (mut gateway, port, mut ctx) = started(GSEQ_MAX_LEN + 2 * 31 + 20);
        let small = |c: char| c.to_string().repeat(30);
        let oversize = "x".repeat(200);
        for body in [small('a'), small('b'), small('c'), oversize.clone(), small('d')] {
            port.push(body);
        }
        let mut sent = Vec::new();
        gateway.on_timer(&mut ctx, POLL_TIMER);
        for _ in 0..4 {
            sent.extend(frames(&mut ctx));
            gateway.on_send_done(&mut ctx, true);
        }
        assert_eq!(
            sent,
            [
                numbered(0, &[&small('a'), &small('b')]),
                numbered(2, &[&small('c')]),
                numbered(3, &[&oversize]),
                numbered(4, &[&small('d')]),
            ]
        );
        assert_eq!(*port.submitted.lock().unwrap(), 5);
    }

    #[test]
    fn one_frame_in_flight_and_a_failed_frame_leads_the_next_under_fresh_gseqs() {
        let (mut gateway, port, mut ctx) = started(8_000);
        port.push("a".into());
        port.push("b".into());
        gateway.on_timer(&mut ctx, POLL_TIMER);
        assert_eq!(frames(&mut ctx), [numbered(0, &["a", "b"])]);

        // Nothing leaves while that frame is out, whatever fires.
        port.push("c".into());
        gateway.on_timer(&mut ctx, POLL_TIMER);
        gateway.on_view_installed(&mut ctx);
        port.push("d".into());
        gateway.on_timer(&mut ctx, RETRY_TIMER);
        assert!(ctx.sent.is_empty(), "a second frame left with one in flight");

        // It fails: nothing is re-sent into a group that just refused,
        // and the new view releases its bodies ahead of what queued.
        gateway.on_send_done(&mut ctx, false);
        assert!(ctx.sent.is_empty(), "a failed frame was re-sent at once");
        gateway.on_view_installed(&mut ctx);
        assert_eq!(frames(&mut ctx), [numbered(2, &["a", "b", "c", "d"])]);
        assert_eq!(*port.submitted.lock().unwrap(), 6);

        // The success drains what queued behind it, by itself.
        port.push("e".into());
        gateway.on_send_done(&mut ctx, true);
        assert_eq!(frames(&mut ctx), [numbered(6, &["e"])]);
    }

    /// Bodies pushed while failed ones are held back flow on the poll
    /// timer, and the retry timer releases the held ones.
    #[test]
    fn held_back_bodies_do_not_block_the_inbox() {
        let (mut gateway, port, mut ctx) = started(8_000);
        port.push("refused".into());
        gateway.on_timer(&mut ctx, POLL_TIMER);
        gateway.on_send_done(&mut ctx, false);
        port.push("fresh".into());
        gateway.on_timer(&mut ctx, POLL_TIMER);
        gateway.on_send_done(&mut ctx, true);
        gateway.on_timer(&mut ctx, RETRY_TIMER);
        assert_eq!(
            frames(&mut ctx),
            [numbered(0, &["refused"]), numbered(1, &["fresh"]), numbered(2, &["refused"])]
        );
    }

    /// A completion with nothing in flight (a host's bug, or a peer's
    /// doing) is ignored: no panic, no send, no retry.
    #[test]
    fn a_spurious_send_done_is_ignored() {
        let (mut gateway, port, mut ctx) = started(8_000);
        gateway.on_send_done(&mut ctx, true);
        gateway.on_send_done(&mut ctx, false);
        port.push("a".into());
        gateway.on_timer(&mut ctx, RETRY_TIMER);
        assert_eq!(frames(&mut ctx), [numbered(0, &["a"])]);
    }

    /// The push that finds the inbox empty wakes the gateway; the ones
    /// behind it ride the same wake-up.
    #[test]
    fn only_the_push_into_an_empty_inbox_wakes() {
        use std::sync::atomic::Ordering;

        let port = GatewayPort::new();
        let mut gateway = Gateway::new(port.clone());
        let mut ctx = StubCtx::default();
        let wakes = Arc::clone(&ctx.wakes);
        port.push("before start".into()); // nobody to wake yet: the first poll finds it
        gateway.on_start(&mut ctx);
        gateway.on_timer(&mut ctx, POLL_TIMER);
        assert_eq!(wakes.load(Ordering::SeqCst), 0);
        for i in 0..100 {
            port.push(format!("G|{i}|k"));
        }
        assert_eq!(wakes.load(Ordering::SeqCst), 1);
        // The completion drains all hundred; the next push wakes again.
        gateway.on_send_done(&mut ctx, true);
        port.push("next".into());
        assert_eq!(wakes.load(Ordering::SeqCst), 2);
        assert_eq!(ctx.sent.len(), 2);
    }
}
