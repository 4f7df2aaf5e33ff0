//! The data-group replica: a sharded KV state machine driven entirely
//! by the group's total order.
//!
//! Every member of a data group runs one [`ShardServerApp`]. All state
//! transitions — writes, freezes, installs, retires, 2PC lock traffic
//! — are applications of totally-ordered messages, so replicas stay
//! identical by construction. The member that is also the group's
//! gateway additionally emits a [`Reply`] for each operation *it*
//! originated, at the operation's delivery point (i.e. once the
//! operation holds a position in the total order and has been applied
//! locally).
//!
//! Range ownership lives here redundantly with the shard map: a
//! replica nacks operations for ranges it does not own (`WrongShard`,
//! the router's cue to refresh its map) and for ranges frozen by an
//! in-flight move (`Frozen`, the router's cue to retry shortly). A
//! frozen range refuses reads as well as writes — the range has
//! exactly one serving group at every instant, so a cross-shard read
//! can never observe a half-moved range.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use amoeba_app::{AppEvent, Ctx, GroupApp, TimerId};
use amoeba_core::{GroupEvent, MemberId};

use crate::gateway::Gateway;
use crate::map::{key_hash, range_contains, range_covers};
use crate::op::{unframe, NackReason, Reply, ShardOp};

/// A replica's KV store, shared with the harness for final-state
/// inspection (the replica holds the only writer during a run).
pub type SharedStore = Arc<Mutex<BTreeMap<String, String>>>;
/// A replica's delivery log of `(origin member, gateway seq)` pairs,
/// shared with the harness for delivery auditing.
pub type SharedLog = Arc<Mutex<Vec<(u32, u64)>>>;

/// The sharded-KV replica app. See the module docs.
pub struct ShardServerApp {
    /// Ranges this group serves. Kept as an explicit list (not derived
    /// from the map board) so ownership changes are totally ordered
    /// with the data they govern.
    owned: Vec<(u64, u64)>,
    /// Owned ranges currently frozen for a move.
    frozen: Vec<(u64, u64)>,
    store: SharedStore,
    /// 2PC locks: key → (transaction, attempt, staged value).
    locks: BTreeMap<String, (u64, u64, String)>,
    /// Move ids already applied — a re-delivered move step (a gateway
    /// retry after an ambiguous send) must be a no-op, or a duplicate
    /// `Install` would clobber writes applied after the move committed.
    applied_moves: BTreeSet<u64>,
    /// Per-transaction highest attempt resolved here (committed or
    /// aborted). 2PC traffic at or below the resolved attempt is a
    /// stale duplicate and is ignored — a late re-delivered `Prepare`
    /// must never re-acquire locks nothing will ever release.
    tx_resolved: BTreeMap<u64, u64>,
    log: SharedLog,
    /// Present on the gateway member only.
    gateway: Option<Gateway>,
    me: MemberId,
}

impl ShardServerApp {
    /// A replica initially owning `owned`, with harness-shared store
    /// and delivery log. Pass a [`Gateway`] on the gateway member.
    pub fn new(
        owned: Vec<(u64, u64)>,
        store: SharedStore,
        log: SharedLog,
        gateway: Option<Gateway>,
    ) -> Self {
        ShardServerApp {
            owned,
            frozen: Vec::new(),
            store,
            locks: BTreeMap::new(),
            applied_moves: BTreeSet::new(),
            tx_resolved: BTreeMap::new(),
            log,
            gateway,
            me: MemberId(u32::MAX),
        }
    }

    fn owns(&self, h: u64) -> bool {
        self.owned.iter().any(|&r| range_contains(r, h))
    }

    fn is_frozen(&self, h: u64) -> bool {
        self.frozen.iter().any(|&r| range_contains(r, h))
    }

    /// `WrongShard`/`Frozen` gate shared by every keyed operation.
    fn availability(&self, key: &str) -> Option<NackReason> {
        let h = key_hash(key);
        if !self.owns(h) {
            Some(NackReason::WrongShard)
        } else if self.is_frozen(h) {
            Some(NackReason::Frozen)
        } else {
            None
        }
    }

    fn reply(&self, is_origin: bool, r: Reply) {
        if is_origin {
            if let Some(gw) = &self.gateway {
                gw.reply(r);
            }
        }
    }

    /// Applies one delivered operation; replies if we originated it.
    fn apply(&mut self, ctx: &mut dyn Ctx, is_origin: bool, op: ShardOp) {
        match op {
            ShardOp::Put { id, key, value } => {
                let verdict = self.availability(&key).or_else(|| {
                    self.locks.contains_key(&key).then_some(NackReason::Locked)
                });
                match verdict {
                    Some(why) => self.reply(is_origin, Reply::Nacked { id, why }),
                    None => {
                        self.store.lock().unwrap().insert(key, value);
                        self.reply(is_origin, Reply::Acked { id, value: None });
                    }
                }
            }
            // A read changes nothing: only the replica that answers it
            // looks the keys up.
            ShardOp::Get { id, key } => match self.availability(&key) {
                Some(why) => self.reply(is_origin, Reply::Nacked { id, why }),
                None if is_origin => {
                    let value = self.store.lock().unwrap().get(&key).cloned();
                    self.reply(is_origin, Reply::Acked { id, value });
                }
                None => {}
            },
            ShardOp::Fence { id, attempt, keys } => {
                if let Some(why) = keys.iter().find_map(|k| self.availability(k)) {
                    self.reply(is_origin, Reply::Nacked { id, why });
                } else if is_origin {
                    let store = self.store.lock().unwrap();
                    let values =
                        keys.iter().map(|k| (k.clone(), store.get(k).cloned())).collect();
                    drop(store);
                    self.reply(is_origin, Reply::FenceRead { id, attempt, values });
                }
            }
            ShardOp::Freeze { mv, start, end } => {
                if self.applied_moves.contains(&mv) {
                    // Duplicate delivery; the first application already
                    // froze the range and replied.
                    return;
                }
                if !self.owned.iter().any(|&r| range_covers(r, (start, end))) {
                    self.reply(is_origin, Reply::Nacked { id: mv, why: NackReason::WrongShard });
                    return;
                }
                // Never freeze over staged 2PC locks: the snapshot
                // would exclude them, and a commit acked after the
                // destination installed that snapshot would be an
                // acked write the destination never sees. Nack instead
                // — the controller retries the freeze once the
                // transaction resolves (prepares arriving after the
                // freeze are rejected `Frozen`, so the wait is finite).
                if self.locks.keys().any(|k| range_contains((start, end), key_hash(k))) {
                    self.reply(is_origin, Reply::Nacked { id: mv, why: NackReason::Locked });
                    return;
                }
                self.applied_moves.insert(mv);
                if !self.frozen.contains(&(start, end)) {
                    self.frozen.push((start, end));
                }
                // The snapshot is taken at this delivery point: every
                // previously-acked write to the range is in the store,
                // every later write will be nacked `Frozen` until the
                // move commits elsewhere.
                let entries = self
                    .store
                    .lock()
                    .unwrap()
                    .iter()
                    .filter(|(k, _)| range_contains((start, end), key_hash(k)))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                self.reply(is_origin, Reply::Frozen { mv, entries });
            }
            ShardOp::Install { mv, start, end, entries } => {
                if !self.applied_moves.insert(mv) {
                    // Duplicate delivery: re-inserting the snapshot
                    // would clobber writes applied since the move
                    // committed.
                    return;
                }
                if !self.owned.contains(&(start, end)) {
                    self.owned.push((start, end));
                }
                let mut store = self.store.lock().unwrap();
                for (k, v) in entries {
                    store.insert(k, v);
                }
                drop(store);
                self.reply(is_origin, Reply::Installed { mv });
            }
            ShardOp::Retire { mv, start, end } => {
                if !self.applied_moves.insert(mv) {
                    // Duplicate delivery: the range may have moved back
                    // here since; dropping it again would lose data.
                    return;
                }
                self.owned.retain(|&r| r != (start, end));
                self.frozen.retain(|&r| r != (start, end));
                self.store
                    .lock()
                    .unwrap()
                    .retain(|k, _| !range_contains((start, end), key_hash(k)));
                // Freeze refuses ranges with staged locks and prepares
                // are rejected while frozen, so no lock can be in a
                // retired range — nothing to clean up here.
                debug_assert!(
                    !self.locks.keys().any(|k| range_contains((start, end), key_hash(k))),
                    "retired range [{start}, {end}) still holds 2PC locks"
                );
                self.reply(is_origin, Reply::Retired { mv });
            }
            ShardOp::Prepare { tx, attempt, writes } => {
                if self.tx_resolved.get(&tx).is_some_and(|&a| a >= attempt) {
                    // Stale duplicate: this attempt already committed
                    // or aborted here. Re-staging its locks would leave
                    // them held forever (no further Commit/Abort will
                    // arrive), wedging every future write to the keys.
                    return;
                }
                let verdict = writes.iter().find_map(|(k, _)| {
                    self.availability(k).or_else(|| {
                        self.locks
                            .get(k)
                            .is_some_and(|&(owner, _, _)| owner != tx)
                            .then_some(NackReason::Locked)
                    })
                });
                match verdict {
                    Some(why) => self.reply(is_origin, Reply::TxRejected { tx, attempt, why }),
                    None => {
                        for (k, v) in writes {
                            self.locks.insert(k, (tx, attempt, v));
                        }
                        self.reply(is_origin, Reply::TxPrepared { tx, attempt });
                    }
                }
            }
            ShardOp::Commit { tx, attempt } => {
                if self.tx_resolved.get(&tx).is_some_and(|&a| a >= attempt) {
                    return; // duplicate delivery; already resolved
                }
                let staged: Vec<(String, String)> = self
                    .locks
                    .iter()
                    .filter(|(_, &(owner, a, _))| owner == tx && a == attempt)
                    .map(|(k, (_, _, v))| (k.clone(), v.clone()))
                    .collect();
                // Freeze refuses ranges with staged locks, so staged
                // keys are owned and unfrozen here by invariant; if
                // that ever breaks, refuse to ack writes a move's
                // snapshot may have missed — the router aborts and
                // re-runs the transaction under a fresh attempt.
                if let Some(why) = staged.iter().find_map(|(k, _)| self.availability(k)) {
                    self.reply(is_origin, Reply::TxRejected { tx, attempt, why });
                    return;
                }
                self.tx_resolved.insert(tx, attempt);
                let mut store = self.store.lock().unwrap();
                for (k, v) in staged {
                    self.locks.remove(&k);
                    store.insert(k, v);
                }
                drop(store);
                self.reply(is_origin, Reply::TxCommitted { tx, attempt });
            }
            ShardOp::Abort { tx, attempt } => {
                // Drop only locks staged at or below this attempt — a
                // stale duplicate Abort must not release locks a newer
                // prepare round has staged since. Unlike Commit, an
                // Abort always replies: a replica that already resolved
                // the attempt (it committed, then the router learned
                // another group refused) still owes the abort round an
                // answer, and the router filters replies by attempt.
                if self.tx_resolved.get(&tx).is_none_or(|&a| a < attempt) {
                    self.tx_resolved.insert(tx, attempt);
                }
                self.locks.retain(|_, &mut (owner, a, _)| owner != tx || a > attempt);
                self.reply(is_origin, Reply::TxAborted { tx, attempt });
            }
            ShardOp::Halt => ctx.stop(),
        }
    }
}

impl GroupApp for ShardServerApp {
    fn on_start(&mut self, ctx: &mut dyn Ctx) {
        self.me = ctx.info().me;
        if let Some(gw) = &mut self.gateway {
            gw.on_start(ctx);
        }
    }

    fn on_event(&mut self, ctx: &mut dyn Ctx, event: AppEvent) {
        match event {
            AppEvent::Group(GroupEvent::Message { origin, payload, .. }) => {
                let log = Arc::clone(&self.log);
                let mut log = log.lock().unwrap();
                for (gseq, body) in unframe(&payload) {
                    log.push((origin.0, gseq));
                    let op = ShardOp::decode(body);
                    // The app stops here, on every replica alike: what
                    // follows a `Halt` in its frame is never seen.
                    let halt = op == Some(ShardOp::Halt);
                    if let Some(op) = op {
                        self.apply(ctx, origin == self.me, op);
                    }
                    if halt {
                        break;
                    }
                }
            }
            AppEvent::Group(GroupEvent::ViewInstalled { .. }) => {
                if let Some(gw) = &mut self.gateway {
                    gw.on_view_installed(ctx);
                }
            }
            // With auto-reset the runtime recovers on its own;
            // otherwise the replica initiates recovery (paper §2.1),
            // accepting any survivor set.
            AppEvent::Group(GroupEvent::SequencerSuspected) if !ctx.config().auto_reset => {
                ctx.reset_group(1);
            }
            AppEvent::Group(GroupEvent::Expelled) => ctx.stop(),
            AppEvent::SendDone(r) => {
                if let Some(gw) = &mut self.gateway {
                    gw.on_send_done(ctx, r.is_ok());
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Ctx, timer: TimerId) {
        if let Some(gw) = &mut self.gateway {
            gw.on_timer(ctx, timer);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    use amoeba_core::{GroupConfig, GroupId, GroupInfo, MemberMeta, Seqno, ViewId};
    use amoeba_flip::FlipAddress;
    use bytes::Bytes;

    use crate::op::frame;

    use super::*;

    /// A recording stand-in for a host's [`Ctx`], shared by this crate's
    /// unit tests. It presents a real single-member view — the full
    /// `on_event` surface (which reads `info` at start and `config` on
    /// suspicion) must be drivable through it, not just the `apply`
    /// core, so hostile-frame tests can cover every arm.
    pub(crate) struct StubCtx {
        /// Every payload handed to `send`, in order.
        pub(crate) sent: Vec<Bytes>,
        /// Answered by `config`.
        pub(crate) max_message: usize,
        /// Whether `stop` was called.
        pub(crate) stopped: bool,
        /// How often a handle from `waker` was called.
        pub(crate) wakes: Arc<AtomicUsize>,
    }

    impl Default for StubCtx {
        fn default() -> Self {
            StubCtx {
                sent: Vec::new(),
                max_message: GroupConfig::default().max_message,
                stopped: false,
                wakes: Arc::default(),
            }
        }
    }

    impl Ctx for StubCtx {
        fn send(&mut self, payload: Bytes) {
            self.sent.push(payload);
        }
        fn reset_group(&mut self, _: usize) {}
        fn leave(&mut self) {}
        fn crash(&mut self) {}
        fn set_timer(&mut self, _: TimerId, _: Duration) {}
        fn cancel_timer(&mut self, _: TimerId) {}
        fn now(&self) -> Duration {
            Duration::ZERO
        }
        fn info(&self) -> GroupInfo {
            let founder = MemberMeta { id: MemberId(0), addr: FlipAddress::process(1) };
            GroupInfo {
                group: GroupId(1),
                me: founder.id,
                my_addr: founder.addr,
                view: ViewId::INITIAL,
                members: vec![founder],
                sequencer: founder.id,
                is_sequencer: true,
                resilience: 0,
                last_delivered: Seqno::ZERO,
                history_len: 0,
                recovering: false,
            }
        }
        fn config(&self) -> GroupConfig {
            GroupConfig { max_message: self.max_message, ..GroupConfig::default() }
        }
        fn stop(&mut self) {
            self.stopped = true;
        }
        fn waker(&self, _: TimerId) -> Arc<dyn Fn() + Send + Sync> {
            let wakes = Arc::clone(&self.wakes);
            Arc::new(move || {
                wakes.fetch_add(1, Ordering::SeqCst);
            })
        }
    }

    fn replica(owned: Vec<(u64, u64)>) -> (ShardServerApp, crate::gateway::GatewayPort) {
        let port = crate::gateway::GatewayPort::new();
        let app = ShardServerApp::new(
            owned,
            Arc::new(Mutex::new(BTreeMap::new())),
            Arc::new(Mutex::new(Vec::new())),
            Some(crate::gateway::Gateway::new(port.clone())),
        );
        (app, port)
    }

    fn replies(port: &crate::gateway::GatewayPort) -> Vec<Reply> {
        port.outbox.lock().unwrap().drain(..).collect()
    }

    fn value_of(app: &ShardServerApp, key: &str) -> Option<String> {
        app.store.lock().unwrap().get(key).cloned()
    }

    #[test]
    fn duplicate_install_does_not_clobber_later_writes() {
        let (mut app, port) = replica(Vec::new());
        let mut ctx = StubCtx::default();
        let install = ShardOp::Install {
            mv: 1,
            start: 0,
            end: 0,
            entries: vec![("k".into(), "snapshot".into())],
        };
        app.apply(&mut ctx, true, install.clone());
        assert!(matches!(replies(&port)[..], [Reply::Installed { mv: 1 }]));
        app.apply(&mut ctx, true, ShardOp::Put { id: 2, key: "k".into(), value: "newer".into() });
        assert!(matches!(replies(&port)[..], [Reply::Acked { id: 2, .. }]));
        // A gateway retry after an ambiguous send re-delivers the
        // Install; it must be a no-op, not a snapshot restore.
        app.apply(&mut ctx, true, install);
        assert!(replies(&port).is_empty(), "duplicate Install must not re-reply");
        assert_eq!(value_of(&app, "k").as_deref(), Some("newer"));
    }

    #[test]
    fn duplicate_retire_does_not_drop_a_reinstalled_range() {
        let (mut app, port) = replica(vec![(0, 0)]);
        let mut ctx = StubCtx::default();
        app.apply(&mut ctx, true, ShardOp::Put { id: 1, key: "k".into(), value: "v1".into() });
        app.apply(&mut ctx, true, ShardOp::Freeze { mv: 2, start: 0, end: 0 });
        app.apply(&mut ctx, true, ShardOp::Retire { mv: 3, start: 0, end: 0 });
        assert!(app.owned.is_empty());
        // The range moves back here under a later move id...
        app.apply(
            &mut ctx,
            true,
            ShardOp::Install { mv: 4, start: 0, end: 0, entries: vec![("k".into(), "v2".into())] },
        );
        replies(&port);
        // ...and the old Retire is re-delivered. It must not retire
        // the re-installed range.
        app.apply(&mut ctx, true, ShardOp::Retire { mv: 3, start: 0, end: 0 });
        assert!(replies(&port).is_empty());
        assert_eq!(app.owned, vec![(0, 0)]);
        assert_eq!(value_of(&app, "k").as_deref(), Some("v2"));
    }

    #[test]
    fn freeze_refuses_staged_locks_until_the_tx_resolves() {
        let (mut app, port) = replica(vec![(0, 0)]);
        let mut ctx = StubCtx::default();
        app.apply(
            &mut ctx,
            true,
            ShardOp::Prepare { tx: 7, attempt: 1, writes: vec![("k".into(), "v".into())] },
        );
        assert!(matches!(replies(&port)[..], [Reply::TxPrepared { tx: 7, attempt: 1 }]));
        // The staged lock is not in the store yet, so a freeze snapshot
        // here would lose the write once the commit acks: refuse it.
        app.apply(&mut ctx, true, ShardOp::Freeze { mv: 9, start: 0, end: 0 });
        assert!(matches!(
            replies(&port)[..],
            [Reply::Nacked { id: 9, why: NackReason::Locked }]
        ));
        app.apply(&mut ctx, true, ShardOp::Commit { tx: 7, attempt: 1 });
        assert!(matches!(replies(&port)[..], [Reply::TxCommitted { tx: 7, attempt: 1 }]));
        // The retried freeze now succeeds and its snapshot carries the
        // committed write.
        app.apply(&mut ctx, true, ShardOp::Freeze { mv: 9, start: 0, end: 0 });
        match &replies(&port)[..] {
            [Reply::Frozen { mv: 9, entries }] => {
                assert_eq!(entries, &vec![("k".to_string(), "v".to_string())]);
            }
            other => panic!("expected Frozen, got {other:?}"),
        }
    }

    #[test]
    fn late_duplicate_prepare_after_commit_stays_ignored() {
        let (mut app, port) = replica(vec![(0, 0)]);
        let mut ctx = StubCtx::default();
        let prepare =
            ShardOp::Prepare { tx: 5, attempt: 1, writes: vec![("k".into(), "v".into())] };
        app.apply(&mut ctx, true, prepare.clone());
        app.apply(&mut ctx, true, ShardOp::Commit { tx: 5, attempt: 1 });
        replies(&port);
        // The re-delivered Prepare must not re-acquire locks: no
        // Commit/Abort will ever arrive for them again.
        app.apply(&mut ctx, true, prepare);
        assert!(replies(&port).is_empty(), "stale Prepare must not reply");
        assert!(app.locks.is_empty(), "stale Prepare re-acquired locks");
        app.apply(&mut ctx, true, ShardOp::Put { id: 8, key: "k".into(), value: "w".into() });
        assert!(
            matches!(replies(&port)[..], [Reply::Acked { id: 8, .. }]),
            "key wedged by a phantom lock"
        );
    }

    #[test]
    fn stale_abort_does_not_release_a_newer_attempts_locks() {
        let (mut app, port) = replica(vec![(0, 0)]);
        let mut ctx = StubCtx::default();
        app.apply(
            &mut ctx,
            true,
            ShardOp::Prepare { tx: 6, attempt: 1, writes: vec![("k".into(), "v".into())] },
        );
        app.apply(&mut ctx, true, ShardOp::Abort { tx: 6, attempt: 1 });
        app.apply(
            &mut ctx,
            true,
            ShardOp::Prepare { tx: 6, attempt: 2, writes: vec![("k".into(), "v".into())] },
        );
        replies(&port);
        // A re-delivered Abort of the old attempt arrives after the new
        // prepare round staged its locks: they must survive.
        app.apply(&mut ctx, true, ShardOp::Abort { tx: 6, attempt: 1 });
        assert!(matches!(replies(&port)[..], [Reply::TxAborted { tx: 6, attempt: 1 }]));
        assert_eq!(app.locks.len(), 1, "stale Abort released the new attempt's locks");
        app.apply(&mut ctx, true, ShardOp::Commit { tx: 6, attempt: 2 });
        assert!(matches!(replies(&port)[..], [Reply::TxCommitted { tx: 6, attempt: 2 }]));
        assert_eq!(value_of(&app, "k").as_deref(), Some("v"));
    }

    /// Delivers raw bytes through the full `on_event` surface, exactly
    /// as a group message would arrive off the wire.
    fn deliver(app: &mut ShardServerApp, ctx: &mut StubCtx, seqno: u64, payload: Bytes) {
        app.on_event(
            ctx,
            AppEvent::Group(GroupEvent::Message {
                seqno: Seqno(seqno),
                origin: MemberId(3),
                payload,
            }),
        );
    }

    /// A replica shares its group with gateways that relay arbitrary
    /// client bytes; none of them may panic it or corrupt its store.
    /// Every malformed shape is dropped before `apply`; only payloads
    /// that at least carry a frame reach the delivery log.
    #[test]
    fn hostile_payloads_are_dropped_without_panicking() {
        let (mut app, port) = replica(vec![(0, 0)]);
        let mut ctx = StubCtx::default();
        app.on_start(&mut ctx);
        replies(&port);
        let cases: &[&[u8]] = &[
            b"",                         // empty
            b"\xff\xfe\x80",             // not UTF-8
            b"no-frame-at-all",          // UTF-8 but no gseq frame
            b"|P|1|k|v",                 // empty gseq
            b"nan|P|1|k|v",              // non-numeric gseq
            b"99999999999999999999|P|1|k|v", // gseq overflows u64
        ];
        for raw in cases {
            deliver(&mut app, &mut ctx, 1, Bytes::copy_from_slice(raw));
        }
        assert!(app.log.lock().unwrap().is_empty(), "unframed bytes must not be logged");

        // Framed but bodies that must fail `ShardOp::decode`.
        let bad_bodies = [
            "",                // no tag
            "Z|1|k|v",         // unknown tag
            "P|nan|k|v",       // non-numeric id
            "P|1|k",           // missing value
            "P|1|k|v|extra",   // trailing field
            "F|1|2",           // Freeze missing end
            "TC|1",            // Commit missing attempt
            "I|1|0|0",         // Install missing entries
        ];
        for (i, body) in bad_bodies.iter().enumerate() {
            deliver(&mut app, &mut ctx, i as u64 + 1, Bytes::from(frame(i as u64 + 1, &[body])));
        }
        // Framed garbage is logged (it held a slot in the total order)
        // but decodes to nothing, so nothing was applied or replied.
        assert_eq!(app.log.lock().unwrap().len(), bad_bodies.len());
        assert!(replies(&port).is_empty(), "garbage must not produce replies");
        assert!(app.store.lock().unwrap().is_empty(), "garbage must not write");

        // Frames only a hostile peer builds. Numbering that would pass
        // u64::MAX: the slots that exist are logged, the rest dropped.
        // Doubled and trailing separators: empty slots, held and logged.
        app.log.lock().unwrap().clear();
        let top = u64::MAX - 1;
        for raw in [format!("{top}|Z\nZ\nP|1|k|v\nP|2|k|v"), "7|\n\nZ\n".to_string()] {
            deliver(&mut app, &mut ctx, 20, Bytes::from(raw));
        }
        assert_eq!(
            *app.log.lock().unwrap(),
            [(3, top), (3, u64::MAX), (3, 7), (3, 8), (3, 9), (3, 10)]
        );
        assert!(replies(&port).is_empty(), "hostile frames must not produce replies");
        assert!(app.store.lock().unwrap().is_empty(), "hostile frames must not write");

        // The replica still works after the barrage.
        app.apply(&mut ctx, true, ShardOp::Put { id: 1, key: "k".into(), value: "v".into() });
        assert!(matches!(replies(&port)[..], [Reply::Acked { id: 1, .. }]));
    }

    /// Sixteen bodies in one frame and the same sixteen in a frame each
    /// are one history: equal logs, stores and replies.
    #[test]
    fn a_frame_of_sixteen_applies_like_sixteen_frames_of_one() {
        let bodies: Vec<String> = (0..16u64)
            .map(|i| match i % 4 {
                0 | 1 => ShardOp::Put { id: i, key: format!("k{}", i % 6), value: format!("v{i}") },
                2 => ShardOp::Get { id: i, key: format!("k{}", i % 6) },
                _ => ShardOp::Prepare { tx: i, attempt: 1, writes: vec![("k1".into(), "t".into())] },
            })
            .map(|op| op.encode())
            .collect();
        let run = |payloads: Vec<String>| {
            let (mut app, port) = replica(vec![(0, 0)]);
            let mut ctx = StubCtx::default();
            app.on_start(&mut ctx);
            app.me = MemberId(3);
            for (i, payload) in payloads.into_iter().enumerate() {
                deliver(&mut app, &mut ctx, i as u64 + 1, Bytes::from(payload));
            }
            let log = app.log.lock().unwrap().clone();
            let store = app.store.lock().unwrap().clone();
            (log, store, replies(&port))
        };
        let together = run(vec![frame(5, &bodies)]);
        let apart = run(bodies.iter().enumerate().map(|(i, b)| frame(5 + i as u64, &[b])).collect());
        assert_eq!(together, apart);
        assert_eq!(together.0.len(), 16);
        assert_eq!(together.2.len(), 16);
    }

    /// A `Halt` ends its frame: what follows it is neither logged nor
    /// applied — on a live host the stop would have applied only after
    /// the callback, on every replica at a different place.
    #[test]
    fn a_halt_ends_its_frame() {
        let (mut app, port) = replica(vec![(0, 0)]);
        let mut ctx = StubCtx::default();
        app.on_start(&mut ctx);
        app.me = MemberId(3);
        let bodies = ["P|1|a|1".to_string(), ShardOp::Halt.encode(), "P|2|b|2".to_string()];
        deliver(&mut app, &mut ctx, 1, Bytes::from(frame(0, &bodies)));
        assert!(ctx.stopped);
        assert_eq!(*app.log.lock().unwrap(), [(3, 0), (3, 1)]);
        assert!(matches!(replies(&port)[..], [Reply::Acked { id: 1, .. }]));
        assert_eq!(value_of(&app, "b"), None);
    }

    /// A `Put` routed to the wrong group (its key hashes outside every
    /// owned range) nacks `WrongShard` — through the full `on_event`
    /// path, origin included, so the gateway's misrouted client sees
    /// the refusal instead of a hang or a misplaced write.
    #[test]
    fn misrouted_put_nacks_wrong_shard_through_on_event() {
        // Own a range that cannot contain any key: [h, h) is empty
        // unless h wraps — pick the hash of the probe key plus one.
        let h = crate::map::key_hash("misrouted");
        let (mut app, port) = replica(vec![(h.wrapping_add(1), h.wrapping_add(1))]);
        let mut ctx = StubCtx::default();
        app.on_start(&mut ctx);
        let op = ShardOp::Put { id: 9, key: "misrouted".into(), value: "v".into() };
        // origin == me (MemberId::max placeholder is never origin 3, so
        // route through apply's origin flag directly via on_event with
        // the replica as origin).
        app.me = MemberId(3);
        deliver(&mut app, &mut ctx, 1, Bytes::from(frame(1, &[op.encode()])));
        assert!(
            matches!(replies(&port)[..], [Reply::Nacked { id: 9, why: NackReason::WrongShard }]),
            "a misrouted Put must nack WrongShard"
        );
        assert!(app.store.lock().unwrap().is_empty(), "misrouted Put must not write");
    }

    /// `SequencerSuspected` consults `ctx.config()` — the stub now
    /// answers it, and with auto-reset off the replica initiates the
    /// recovery itself.
    #[test]
    fn sequencer_suspicion_is_handled_through_the_stub_ctx() {
        let (mut app, _port) = replica(vec![(0, 0)]);
        let mut ctx = StubCtx::default();
        app.on_event(&mut ctx, AppEvent::Group(GroupEvent::SequencerSuspected));
    }
}
