//! The client-side router: maps keys to owning groups, feeds gateway
//! inboxes, consumes replies, and retries on stale maps.
//!
//! The router is a plain state machine pumped by the cluster driver
//! (no threads of its own). A submitted operation's body goes into its
//! gateway's inbox at once, but the gateway is handed it — woken — at
//! the next `pump()` (DESIGN.md §11.2), once per gateway however many
//! bodies it got. `pump()` wakes those gateways, refreshes the cached
//! map from the [`MapBoard`], re-issues operations that were nacked in
//! the previous cycle, drains every gateway outbox, and wakes the
//! gateways of whatever it issued itself. A `WrongShard` nack is the
//! signal that the cached map went stale — the next pump re-routes the
//! operation under the refreshed map; so is a map naming a group the
//! router has no port for. A `Frozen`/`Locked` nack simply retries
//! until the blocking move or transaction finishes.
//!
//! Single-key operations are serialized per key (at most one in
//! flight; later ones queue), which makes the cluster-level audit
//! exact: the final replicated value of a key must equal the last
//! *acknowledged* write the router recorded for it — anything else is
//! a lost acked write. Cross-shard transactions claim all their keys
//! before issuing (all-or-queue, so two transactions can never
//! deadlock on each other's partial claims). Claims and their queues
//! are one hashed table; no hashed state is ever iterated, so what is
//! sent, and in what order, never depends on a hash.
//!
//! Fences and transactions re-run from scratch on any setback, and
//! every run carries an *attempt* number echoed in replies: a
//! straggling reply from a superseded attempt is discarded rather
//! than merged into the current one (see [`crate::op`]).

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};

use crate::gateway::GatewayPort;
use crate::map::{key_hash, MapBoard, ShardMap};
use crate::op::{token_ok, NackReason, Reply, ShardOp};

/// Routing and retry counters.
#[derive(Debug, Default, Clone)]
pub struct RouterStats {
    /// Puts acknowledged by their owning group.
    pub puts_acked: u64,
    /// Gets served.
    pub gets_acked: u64,
    /// Cross-shard fence reads completed.
    pub fences_done: u64,
    /// Cross-shard transactions committed.
    pub txs_committed: u64,
    /// Operations re-issued after a nack or abort.
    pub retries: u64,
    /// `WrongShard` nacks and routes to a group with no port
    /// (stale-map detections).
    pub wrong_shard: u64,
    /// `Frozen` nacks (operation raced an in-flight move).
    pub frozen: u64,
    /// `Locked` nacks/rejections (operation raced a transaction).
    pub locked: u64,
    /// Times the cached map was refreshed from the board.
    pub map_refreshes: u64,
    /// Replies for operations already completed (idempotent-retry
    /// duplicates; harmless).
    pub duplicate_replies: u64,
}

/// A finished operation, retrieved with [`Router::take`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Completion {
    /// The write is applied on the owning group.
    Put { key: String, value: String },
    /// The read executed.
    Get { key: String, value: Option<String> },
    /// Every involved group served its slice of the fence.
    Fence { values: Vec<(String, Option<String>)> },
    /// Freeze applied at the source; `entries` is the range snapshot.
    Frozen { entries: Vec<(String, String)> },
    /// Install applied at the destination.
    Installed,
    /// Retire applied at the source.
    Retired,
    /// The cross-shard transaction committed on every involved group.
    TxCommitted,
}

#[derive(PartialEq)]
enum MoveKind {
    Freeze,
    Install,
    Retire,
}

#[derive(PartialEq)]
enum TxPhase {
    Preparing,
    Committing,
    Aborting,
}

/// One group's fence result: each key read at that group's fence
/// point (`None` until the group's `FenceRead` reply arrives).
type FencePart = Option<Vec<(String, Option<String>)>>;

enum Pending {
    Put { key: String, value: String },
    Get { key: String },
    /// `attempt` is bumped on every (re-)issue; replies echo it, so
    /// stragglers from a superseded attempt are discarded instead of
    /// filling a slot of the current one. `owners` records each key's
    /// owning group at issue time — if any differs at assembly time,
    /// ownership moved mid-fence and the whole fence re-runs
    /// (DESIGN.md §11.4).
    Fence {
        keys: Vec<String>,
        attempt: u64,
        owners: BTreeMap<String, u64>,
        parts: BTreeMap<u64, FencePart>,
    },
    Move { kind: MoveKind, group: u64, start: u64, end: u64, entries: Vec<(String, String)> },
    /// `attempt` is bumped on each fresh prepare round; replicas
    /// resolve (commit/abort) per attempt and the router drops replies
    /// from superseded attempts.
    Tx {
        writes: Vec<(String, String)>,
        attempt: u64,
        waits: BTreeMap<u64, bool>,
        phase: TxPhase,
    },
}

/// See the module docs.
pub struct Router {
    board: MapBoard,
    map: ShardMap,
    ports: BTreeMap<u64, GatewayPort>,
    /// Gateways whose inbox a body found empty since the last wake.
    to_wake: Vec<u64>,
    next_id: u64,
    pending: HashMap<u64, Pending>,
    completed: HashMap<u64, Completion>,
    /// The claim table: a key has an entry while an operation holds
    /// it, and the entry queues the operations waiting for it.
    claims: HashMap<String, VecDeque<u64>>,
    /// Operations to re-issue on the next pump (nacked this cycle),
    /// in id order.
    deferred: BTreeSet<u64>,
    /// Last acknowledged write per key — the audit's ground truth.
    acked: BTreeMap<String, String>,
    stats: RouterStats,
}

impl Router {
    /// A router over the given gateway ports, reading maps from
    /// `board` (which must already hold the initial map).
    pub fn new(board: MapBoard, ports: BTreeMap<u64, GatewayPort>) -> Self {
        let map = board.lock().unwrap().clone();
        Router {
            board,
            map,
            ports,
            to_wake: Vec::new(),
            next_id: 1,
            pending: HashMap::new(),
            completed: HashMap::new(),
            claims: HashMap::new(),
            deferred: BTreeSet::new(),
            acked: BTreeMap::new(),
            stats: RouterStats::default(),
        }
    }

    /// Submits a write; returns its operation id. Unless the key is
    /// busy, its body is in the gateway's inbox on return; the gateway
    /// is woken for it by the next [`pump`](Self::pump).
    ///
    /// # Panics
    ///
    /// If `key` or `value` fails [`token_ok`]: the op text format
    /// cannot carry it, and replicas would drop or misread its body.
    pub fn put(&mut self, key: &str, value: &str) -> u64 {
        assert_tokens([key, value]);
        self.submit(Pending::Put { key: key.to_string(), value: value.to_string() })
    }

    /// Submits a read; returns its operation id. Handed over like a
    /// [`put`](Self::put).
    ///
    /// # Panics
    ///
    /// If `key` fails [`token_ok`].
    pub fn get(&mut self, key: &str) -> u64 {
        assert_tokens([key]);
        self.submit(Pending::Get { key: key.to_string() })
    }

    /// Submits a cross-shard fence read over `keys`.
    ///
    /// # Panics
    ///
    /// If `keys` is empty, or one fails [`token_ok`].
    pub fn fence(&mut self, keys: Vec<String>) -> u64 {
        assert!(!keys.is_empty());
        assert_tokens(keys.iter().map(String::as_str));
        let (owners, parts) = (BTreeMap::new(), BTreeMap::new());
        self.submit(Pending::Fence { keys, attempt: 0, owners, parts })
    }

    /// Submits a cross-shard transactional write (2PC over the
    /// involved groups' gateways).
    ///
    /// # Panics
    ///
    /// If `writes` is empty, or a key or value fails [`token_ok`].
    pub fn cross_put(&mut self, writes: Vec<(String, String)>) -> u64 {
        assert!(!writes.is_empty());
        assert_tokens(writes.iter().flat_map(|(k, v)| [k.as_str(), v.as_str()]));
        let waits = BTreeMap::new();
        self.submit(Pending::Tx { writes, attempt: 0, waits, phase: TxPhase::Preparing })
    }

    /// Move step 1: freeze `[start, end)` at `group` (the controller's
    /// API; see [`crate::moves`]).
    pub fn freeze(&mut self, group: u64, start: u64, end: u64) -> u64 {
        self.submit(Pending::Move { kind: MoveKind::Freeze, group, start, end, entries: vec![] })
    }

    /// Move step 2: install `[start, end)` with `entries` at `group`.
    pub fn install(
        &mut self,
        group: u64,
        start: u64,
        end: u64,
        entries: Vec<(String, String)>,
    ) -> u64 {
        self.submit(Pending::Move { kind: MoveKind::Install, group, start, end, entries })
    }

    /// Move step 3: retire `[start, end)` from `group`.
    pub fn retire(&mut self, group: u64, start: u64, end: u64) -> u64 {
        self.submit(Pending::Move { kind: MoveKind::Retire, group, start, end, entries: vec![] })
    }

    fn submit(&mut self, op: Pending) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.insert(id, op);
        self.enqueue_or_issue(id);
        id
    }

    /// One router cycle: wake every gateway handed work since the last
    /// pump, refresh the map, re-issue nacked operations, drain every
    /// gateway outbox, and wake the gateways of what this cycle issued
    /// (re-issues, and waiters a completion released). A gateway is
    /// woken at most once per wake point however many bodies it got.
    pub fn pump(&mut self) {
        self.wake_gateways();
        {
            let board = self.board.lock().unwrap();
            if board.epoch > self.map.epoch {
                self.map = board.clone();
                self.stats.map_refreshes += 1;
            }
        }
        for id in std::mem::take(&mut self.deferred) {
            if self.pending.contains_key(&id) {
                self.stats.retries += 1;
                self.issue(id);
            }
        }
        let groups: Vec<u64> = self.ports.keys().copied().collect();
        for g in groups {
            let replies = std::mem::take(&mut *self.ports[&g].outbox.lock().unwrap());
            for r in replies {
                self.handle(g, r);
            }
        }
        self.wake_gateways();
    }

    fn wake_gateways(&mut self) {
        for g in self.to_wake.drain(..) {
            self.ports[&g].wake();
        }
    }

    /// Retrieves (and removes) a finished operation's result.
    pub fn take(&mut self, id: u64) -> Option<Completion> {
        self.completed.remove(&id)
    }

    /// Operations submitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is in flight.
    pub fn idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// The router's current (possibly stale) map.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Last acknowledged write per key: the ground truth for the
    /// zero-lost-acked-writes audit.
    pub fn acked_writes(&self) -> &BTreeMap<String, String> {
        &self.acked
    }

    /// Routing and retry counters.
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Claims the operation's keys and issues it, or queues it behind
    /// the first busy key (all-or-queue, so claims never deadlock).
    fn enqueue_or_issue(&mut self, id: u64) {
        let keys = claim_keys(&self.pending[&id]);
        if let Some(busy) = keys.clone().find(|k| self.claims.contains_key(*k)) {
            self.claims.get_mut(busy).expect("a busy key is claimed").push_back(id);
            return;
        }
        for k in keys {
            self.claims.insert(k.clone(), VecDeque::new());
        }
        self.issue(id);
    }

    /// Releases a finished operation's claims, then offers each freed
    /// key to its waiters in order. A waiter may re-queue on a
    /// different busy key (multi-key transactions), in which case the
    /// next one gets its chance; once one claims the key, the rest wait
    /// behind it, ahead of anything queued on it meanwhile.
    fn release<'k>(&mut self, keys: impl Iterator<Item = &'k String>) {
        let freed: Vec<(&String, VecDeque<u64>)> = keys
            .filter_map(|k| Some((k, self.claims.remove(k).filter(|q| !q.is_empty())?)))
            .collect();
        for (k, mut queue) in freed {
            loop {
                if let Some(later) = self.claims.get_mut(k) {
                    queue.append(later);
                    *later = queue;
                    break;
                }
                let Some(next) = queue.pop_front() else { break };
                self.enqueue_or_issue(next);
            }
        }
    }

    /// Puts each op's body in its group's inbox, to be woken at the
    /// next wake point — all of them, or none if the map names a group
    /// this router has no port for: that map is treated as stale, and
    /// the operation is re-routed on a later pump.
    fn send(&mut self, id: u64, ops: &[(u64, ShardOp)]) {
        if !ops.iter().all(|(g, _)| self.ports.contains_key(g)) {
            self.stats.wrong_shard += 1;
            self.deferred.insert(id);
            return;
        }
        for (g, op) in ops {
            if self.ports[g].enqueue(op.encode()) && !self.to_wake.contains(g) {
                self.to_wake.push(*g);
            }
        }
    }

    /// (Re-)issues an operation under the current map. Safe to call
    /// again after a nack: replicas apply duplicates idempotently and
    /// the router ignores duplicate replies.
    fn issue(&mut self, id: u64) {
        let map = &self.map;
        let ops: Vec<_> = match self.pending.get_mut(&id).expect("issue of unknown op") {
            Pending::Put { key, value } => {
                let to = map.owner(key_hash(key));
                let op = ShardOp::Put { id, key: key.clone(), value: value.clone() };
                return self.send(id, &[(to, op)]);
            }
            Pending::Get { key } => {
                let (to, op) = (map.owner(key_hash(key)), ShardOp::Get { id, key: key.clone() });
                return self.send(id, &[(to, op)]);
            }
            Pending::Fence { keys, attempt, owners, parts } => {
                *attempt += 1;
                let attempt = *attempt;
                let mut by_group: BTreeMap<u64, Vec<String>> = BTreeMap::new();
                owners.clear();
                for k in keys.iter() {
                    let g = map.owner(key_hash(k));
                    owners.insert(k.clone(), g);
                    by_group.entry(g).or_default().push(k.clone());
                }
                *parts = by_group.keys().map(|&g| (g, None)).collect();
                by_group
                    .into_iter()
                    .map(|(g, keys)| (g, ShardOp::Fence { id, attempt, keys }))
                    .collect()
            }
            Pending::Move { kind, group, start, end, entries } => {
                let (to, start, end) = (*group, *start, *end);
                let op = match kind {
                    MoveKind::Freeze => ShardOp::Freeze { mv: id, start, end },
                    MoveKind::Install => {
                        ShardOp::Install { mv: id, start, end, entries: entries.clone() }
                    }
                    MoveKind::Retire => ShardOp::Retire { mv: id, start, end },
                };
                return self.send(id, &[(to, op)]);
            }
            // Prepare routes by the current map; Commit and Abort must
            // go to exactly the groups the prepare reached (recorded in
            // `waits`), never re-routed — a map refresh mid-transaction
            // must not strand locks.
            Pending::Tx { writes, attempt, waits, phase } => match phase {
                TxPhase::Preparing => {
                    *attempt += 1;
                    let attempt = *attempt;
                    let mut by_group: BTreeMap<u64, Vec<(String, String)>> = BTreeMap::new();
                    for (k, v) in writes.iter() {
                        let to = by_group.entry(map.owner(key_hash(k))).or_default();
                        to.push((k.clone(), v.clone()));
                    }
                    *waits = by_group.keys().map(|&g| (g, false)).collect();
                    by_group
                        .into_iter()
                        .map(|(g, writes)| (g, ShardOp::Prepare { tx: id, attempt, writes }))
                        .collect()
                }
                TxPhase::Committing | TxPhase::Aborting => {
                    let (tx, attempt) = (id, *attempt);
                    let op = match phase {
                        TxPhase::Committing => ShardOp::Commit { tx, attempt },
                        _ => ShardOp::Abort { tx, attempt },
                    };
                    waits.values_mut().for_each(|d| *d = false);
                    waits.keys().map(|&g| (g, op.clone())).collect()
                }
            },
        };
        self.send(id, &ops);
    }

    /// Removes a finished operation, releases its claims and files its
    /// result for [`take`](Self::take).
    fn complete(&mut self, id: u64, result: Completion) {
        let op = self.pending.remove(&id).expect("complete of an unknown op");
        self.release(claim_keys(&op));
        self.completed.insert(id, result);
    }

    fn note_nack(&mut self, why: NackReason) {
        match why {
            NackReason::WrongShard => self.stats.wrong_shard += 1,
            NackReason::Frozen => self.stats.frozen += 1,
            NackReason::Locked => self.stats.locked += 1,
        }
    }

    fn handle(&mut self, from: u64, reply: Reply) {
        match reply {
            // The entry moves into the result: nothing is cloned but the
            // ledger's copy, and that into its old allocation if it has one.
            Reply::Acked { id, value } => match self.pending.remove(&id) {
                Some(Pending::Put { key, value: v }) => {
                    match self.acked.get_mut(&key) {
                        Some(old) => old.clone_from(&v),
                        None => {
                            self.acked.insert(key.clone(), v.clone());
                        }
                    }
                    self.stats.puts_acked += 1;
                    self.release(std::iter::once(&key));
                    self.completed.insert(id, Completion::Put { key, value: v });
                }
                Some(Pending::Get { key }) => {
                    self.stats.gets_acked += 1;
                    self.release(std::iter::once(&key));
                    self.completed.insert(id, Completion::Get { key, value });
                }
                other => {
                    if let Some(op) = other {
                        self.pending.insert(id, op);
                    }
                    self.stats.duplicate_replies += 1;
                }
            },
            Reply::Nacked { id, why } => {
                self.note_nack(why);
                if self.pending.contains_key(&id) {
                    self.deferred.insert(id);
                } else {
                    self.stats.duplicate_replies += 1;
                }
            }
            Reply::FenceRead { id, attempt, values } => {
                let Some(Pending::Fence { keys, attempt: cur, owners, parts }) =
                    self.pending.get_mut(&id)
                else {
                    self.stats.duplicate_replies += 1;
                    return;
                };
                if attempt != *cur {
                    // Straggler from a superseded attempt (it was
                    // re-issued after a nack) — mixing it in would
                    // assemble a cross-attempt, pre-move snapshot.
                    self.stats.duplicate_replies += 1;
                    return;
                }
                match parts.get_mut(&from) {
                    Some(slot) => {
                        if slot.replace(values).is_some() {
                            self.stats.duplicate_replies += 1;
                        }
                    }
                    None => {
                        self.stats.duplicate_replies += 1;
                        return;
                    }
                }
                if parts.values().all(Option::is_some) {
                    // Assembly-time check (DESIGN.md §11.4): if any
                    // involved key's owner differs from the owner the
                    // fence was issued against, ownership moved
                    // between the first and last reply — the combined
                    // snapshot spans a move, so the whole fence
                    // re-runs under the refreshed map.
                    if keys.iter().any(|k| self.map.owner(key_hash(k)) != owners[k]) {
                        self.deferred.insert(id);
                        return;
                    }
                    let mut merged: BTreeMap<String, Option<String>> = BTreeMap::new();
                    for part in parts.values().flatten() {
                        for (k, v) in part {
                            merged.insert(k.clone(), v.clone());
                        }
                    }
                    let values: Vec<(String, Option<String>)> = keys
                        .iter()
                        .map(|k| (k.clone(), merged.get(k).cloned().flatten()))
                        .collect();
                    self.stats.fences_done += 1;
                    self.complete(id, Completion::Fence { values });
                }
            }
            Reply::Frozen { mv, entries } => {
                self.move_done(mv, MoveKind::Freeze, Completion::Frozen { entries });
            }
            Reply::Installed { mv } => self.move_done(mv, MoveKind::Install, Completion::Installed),
            Reply::Retired { mv } => self.move_done(mv, MoveKind::Retire, Completion::Retired),
            Reply::TxPrepared { tx, attempt } => {
                if self.tx_answer(tx, attempt, from, TxPhase::Preparing, TxPhase::Committing) {
                    self.issue(tx);
                }
            }
            Reply::TxRejected { tx, attempt, why } => {
                self.note_nack(why);
                let Some(Pending::Tx { attempt: cur, phase, .. }) = self.pending.get_mut(&tx)
                else {
                    self.stats.duplicate_replies += 1;
                    return;
                };
                if attempt != *cur {
                    self.stats.duplicate_replies += 1;
                    return;
                }
                match phase {
                    // Preparing: some group refused to lock. Committing:
                    // a replica refused to apply (its staged range went
                    // frozen or unowned). Either way, roll back whatever
                    // did prepare and retry the whole transaction under
                    // a refreshed map and a fresh attempt.
                    TxPhase::Preparing | TxPhase::Committing => {
                        *phase = TxPhase::Aborting;
                        self.issue(tx);
                    }
                    TxPhase::Aborting => {}
                }
            }
            Reply::TxCommitted { tx, attempt } => {
                if self.tx_answer(tx, attempt, from, TxPhase::Committing, TxPhase::Committing) {
                    let Some(Pending::Tx { writes, .. }) = self.pending.get(&tx) else {
                        unreachable!()
                    };
                    self.acked.extend(writes.iter().cloned());
                    self.stats.txs_committed += 1;
                    self.complete(tx, Completion::TxCommitted);
                }
            }
            Reply::TxAborted { tx, attempt } => {
                if self.tx_answer(tx, attempt, from, TxPhase::Aborting, TxPhase::Preparing) {
                    self.deferred.insert(tx);
                }
            }
        }
    }

    /// Completes move step `mv` if it is still pending as a `kind`.
    fn move_done(&mut self, mv: u64, kind: MoveKind, result: Completion) {
        match self.pending.get(&mv) {
            Some(Pending::Move { kind: k, .. }) if *k == kind => self.complete(mv, result),
            _ => self.stats.duplicate_replies += 1,
        }
    }

    /// Records `from`'s answer to the `round` of transaction `tx` at
    /// attempt `at`; once every group the round reached has answered,
    /// moves the transaction to `next` and returns true. An answer to
    /// another round or attempt is a straggler.
    fn tx_answer(&mut self, tx: u64, at: u64, from: u64, round: TxPhase, next: TxPhase) -> bool {
        match self.pending.get_mut(&tx) {
            Some(Pending::Tx { attempt, waits, phase, .. }) if *attempt == at && *phase == round => {
                if let Some(done) = waits.get_mut(&from) {
                    *done = true;
                }
                let all = waits.values().all(|&d| d);
                if all {
                    *phase = next;
                }
                all
            }
            _ => {
                self.stats.duplicate_replies += 1;
                false
            }
        }
    }
}

/// Keys an operation must hold exclusively before issuing.
fn claim_keys(op: &Pending) -> impl Iterator<Item = &String> + Clone {
    let (one, writes) = match op {
        Pending::Put { key, .. } | Pending::Get { key } => (Some(key), &[][..]),
        Pending::Tx { writes, .. } => (None, &writes[..]),
        Pending::Fence { .. } | Pending::Move { .. } => (None, &[][..]),
    };
    one.into_iter().chain(writes.iter().map(|(k, _)| k))
}

/// Panics on a key or value the op text format cannot carry
/// ([`token_ok`]): its body would be dropped by every replica, or split
/// into bodies the gateway never numbered.
fn assert_tokens<'a>(tokens: impl IntoIterator<Item = &'a str>) {
    for token in tokens {
        assert!(token_ok(token), "the op text format cannot carry {token:?} (op::token_ok)");
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use crate::gateway::Gateway;
    use crate::map::{new_board, publish, MapCmd};
    use crate::server::tests::StubCtx;

    use super::*;

    /// A two-group router over bare ports — the tests below play the
    /// replica side by hand, which is the only way to inject the
    /// stale/straggler replies a live cluster produces rarely.
    fn setup() -> (Router, GatewayPort, GatewayPort, crate::map::MapBoard) {
        let map = crate::map::ShardMap::uniform(&[1, 2]);
        let board = new_board(map);
        let (p1, p2) = (GatewayPort::new(), GatewayPort::new());
        let ports = BTreeMap::from([(1, p1.clone()), (2, p2.clone())]);
        (Router::new(board.clone(), ports), p1, p2, board)
    }

    /// A key owned by `group` under `map`.
    fn key_on(map: &ShardMap, group: u64) -> String {
        (0..)
            .map(|i| format!("key{i}"))
            .find(|k| map.owner(key_hash(k)) == group)
            .unwrap()
    }

    fn sent_ops(port: &GatewayPort) -> Vec<ShardOp> {
        port.inbox.lock().unwrap().drain(..).map(|b| ShardOp::decode(&b).unwrap()).collect()
    }

    fn reply(port: &GatewayPort, r: Reply) {
        port.outbox.lock().unwrap().push_back(r);
    }

    fn fence_read(key: &str, value: &str, attempt: u64, id: u64) -> Reply {
        Reply::FenceRead {
            id,
            attempt,
            values: vec![(key.to_string(), Some(value.to_string()))],
        }
    }

    /// A value over `token_ok`'s 512 bytes: every replica's `decode`
    /// would refuse the body, and the put would never be acked.
    #[test]
    #[should_panic(expected = "op text format cannot carry")]
    fn a_value_longer_than_a_token_is_refused_at_submission() {
        let (mut r, _p1, _p2, _board) = setup();
        r.put("k", &"x".repeat(600));
    }

    /// A key holding the frame's separators: framed, it would split
    /// into two bodies, the second a put the gateway never numbered.
    #[test]
    #[should_panic(expected = "op text format cannot carry")]
    fn a_key_with_separators_cannot_forge_a_second_body() {
        let (mut r, _p1, _p2, _board) = setup();
        r.put("x|1\nP|7|y", "z");
    }

    #[test]
    fn stale_fence_reply_cannot_complete_a_fresh_attempt() {
        let (mut r, p1, p2, _board) = setup();
        let map = r.map().clone();
        let (a, b) = (key_on(&map, 1), key_on(&map, 2));
        let id = r.fence(vec![a.clone(), b.clone()]);
        assert!(matches!(sent_ops(&p1)[..], [ShardOp::Fence { attempt: 1, .. }]));
        assert!(matches!(sent_ops(&p2)[..], [ShardOp::Fence { attempt: 1, .. }]));
        // Group 1 answers; group 2 nacks (mid-move), so the fence
        // re-runs as attempt 2.
        reply(&p1, fence_read(&a, "old-a", 1, id));
        reply(&p2, Reply::Nacked { id, why: NackReason::Frozen });
        r.pump();
        r.pump(); // re-issue of the deferred fence
        assert!(matches!(sent_ops(&p1)[..], [ShardOp::Fence { attempt: 2, .. }]));
        assert!(matches!(sent_ops(&p2)[..], [ShardOp::Fence { attempt: 2, .. }]));
        // A straggler from attempt 1 (the nacked broadcast was also
        // applied — ambiguous sends do that) must not fill attempt 2's
        // slot with a pre-move snapshot.
        reply(&p2, fence_read(&b, "stale-b", 1, id));
        r.pump();
        assert!(r.take(id).is_none(), "fence completed off a stale straggler");
        reply(&p1, fence_read(&a, "new-a", 2, id));
        reply(&p2, fence_read(&b, "new-b", 2, id));
        r.pump();
        let Some(Completion::Fence { values }) = r.take(id) else {
            panic!("fence did not complete");
        };
        assert_eq!(
            values,
            vec![
                (a, Some("new-a".to_string())),
                (b, Some("new-b".to_string())),
            ]
        );
        assert!(r.stats().duplicate_replies > 0);
    }

    #[test]
    fn fence_reruns_when_ownership_moves_between_replies() {
        let (mut r, p1, p2, board) = setup();
        let map = r.map().clone();
        let (a, b) = (key_on(&map, 1), key_on(&map, 2));
        let id = r.fence(vec![a.clone(), b.clone()]);
        sent_ops(&p1);
        sent_ops(&p2);
        reply(&p1, fence_read(&a, "pre-move", 1, id));
        // Between the two replies, a's whole range moves to group 2.
        let start = map.ranges[map.range_index(key_hash(&a))].start;
        let mut moved = board.lock().unwrap().clone();
        moved.apply(&MapCmd::BeginMove { start, to: 2 });
        moved.apply(&MapCmd::CommitMove { start });
        publish(&board, &moved);
        reply(&p2, fence_read(&b, "post-move", 1, id));
        r.pump();
        assert!(r.take(id).is_none(), "fence merged replies spanning a move");
        // The re-run routes both keys to the new owner and completes.
        r.pump();
        assert!(sent_ops(&p1).is_empty(), "group 1 no longer owns any fence key");
        match &sent_ops(&p2)[..] {
            [ShardOp::Fence { attempt: 2, keys, .. }] => assert_eq!(keys.len(), 2),
            other => panic!("expected one combined fence, got {other:?}"),
        }
        reply(
            &p2,
            Reply::FenceRead {
                id,
                attempt: 2,
                values: vec![(a.clone(), Some("a2".into())), (b.clone(), Some("b2".into()))],
            },
        );
        r.pump();
        assert!(matches!(r.take(id), Some(Completion::Fence { .. })));
    }

    #[test]
    fn commit_rejection_aborts_and_reruns_the_transaction() {
        let (mut r, p1, p2, _board) = setup();
        let map = r.map().clone();
        let (a, b) = (key_on(&map, 1), key_on(&map, 2));
        let tx = r.cross_put(vec![(a.clone(), "va".into()), (b.clone(), "vb".into())]);
        assert!(matches!(sent_ops(&p1)[..], [ShardOp::Prepare { attempt: 1, .. }]));
        assert!(matches!(sent_ops(&p2)[..], [ShardOp::Prepare { attempt: 1, .. }]));
        reply(&p1, Reply::TxPrepared { tx, attempt: 1 });
        reply(&p2, Reply::TxPrepared { tx, attempt: 1 });
        r.pump();
        assert!(matches!(sent_ops(&p1)[..], [ShardOp::Commit { attempt: 1, .. }]));
        assert!(matches!(sent_ops(&p2)[..], [ShardOp::Commit { attempt: 1, .. }]));
        // Group 1 applies; group 2 refuses (its staged range froze
        // under it). The router must abort the attempt everywhere and
        // re-run — not record the write as acked.
        reply(&p1, Reply::TxCommitted { tx, attempt: 1 });
        reply(&p2, Reply::TxRejected { tx, attempt: 1, why: NackReason::Frozen });
        r.pump();
        assert!(r.acked_writes().is_empty(), "half-committed tx recorded as acked");
        assert!(matches!(sent_ops(&p1)[..], [ShardOp::Abort { attempt: 1, .. }]));
        assert!(matches!(sent_ops(&p2)[..], [ShardOp::Abort { attempt: 1, .. }]));
        reply(&p1, Reply::TxAborted { tx, attempt: 1 });
        reply(&p2, Reply::TxAborted { tx, attempt: 1 });
        r.pump();
        r.pump(); // re-issue of the deferred transaction
        assert!(matches!(sent_ops(&p1)[..], [ShardOp::Prepare { attempt: 2, .. }]));
        assert!(matches!(sent_ops(&p2)[..], [ShardOp::Prepare { attempt: 2, .. }]));
        reply(&p1, Reply::TxPrepared { tx, attempt: 2 });
        reply(&p2, Reply::TxPrepared { tx, attempt: 2 });
        r.pump();
        sent_ops(&p1);
        sent_ops(&p2);
        reply(&p1, Reply::TxCommitted { tx, attempt: 2 });
        reply(&p2, Reply::TxCommitted { tx, attempt: 2 });
        r.pump();
        assert!(matches!(r.take(tx), Some(Completion::TxCommitted)));
        assert_eq!(r.acked_writes().get(&a).map(String::as_str), Some("va"));
        assert_eq!(r.acked_writes().get(&b).map(String::as_str), Some("vb"));
    }

    /// Any meta member can broadcast `B|<start>|99` then `C|<start>`:
    /// the board then names a group this router has no port for. The op
    /// waits like one routed under a stale map, and goes out once a
    /// later map names a group that exists.
    #[test]
    fn a_map_naming_an_unknown_group_defers_instead_of_panicking() {
        let (mut r, p1, p2, board) = setup();
        let map = r.map().clone();
        let a = key_on(&map, 1);
        let start = map.ranges[map.range_index(key_hash(&a))].start;
        let move_to = |to: u64| {
            let mut moved = board.lock().unwrap().clone();
            moved.apply(&MapCmd::BeginMove { start, to });
            moved.apply(&MapCmd::CommitMove { start });
            publish(&board, &moved);
        };
        move_to(99);
        r.pump();
        let id = r.put(&a, "v");
        r.pump();
        assert_eq!(r.in_flight(), 1);
        assert!(r.stats().wrong_shard >= 1);
        assert!(sent_ops(&p1).is_empty() && sent_ops(&p2).is_empty());

        move_to(1);
        r.pump();
        assert!(matches!(&sent_ops(&p1)[..], [ShardOp::Put { id: i, .. }] if *i == id));
        reply(&p1, Reply::Acked { id, value: None });
        r.pump();
        assert!(matches!(r.take(id), Some(Completion::Put { .. })));
    }

    /// A port whose gateway started on a [`StubCtx`]: its waker counts.
    fn counted(port: &GatewayPort) -> Arc<AtomicUsize> {
        let mut ctx = StubCtx::default();
        Gateway::new(port.clone()).on_start(&mut ctx);
        ctx.wakes
    }

    #[test]
    fn submissions_wake_each_gateway_once_at_the_next_pump() {
        let (mut r, p1, p2, _board) = setup();
        let (w1, w2) = (counted(&p1), counted(&p2));
        let wakes = || (w1.load(Ordering::SeqCst), w2.load(Ordering::SeqCst));
        let map = r.map().clone();
        let map = &map;
        let on =
            |g: u64| (0..).map(|i| format!("k{i}")).filter(move |k| map.owner(key_hash(k)) == g);
        for (k1, k2) in on(1).zip(on(2)).take(16) {
            r.put(&k1, "v");
            r.put(&k2, "v");
        }
        assert_eq!(wakes(), (0, 0), "a submission woke its gateway");
        r.pump();
        assert_eq!(wakes(), (1, 1));
        r.pump();
        assert_eq!(wakes(), (1, 1), "a pump with nothing new woke a gateway");

        // The gateways take their bodies. A nack is re-issued by the
        // pump after the one that read it, and that pump wakes.
        let ops = sent_ops(&p1);
        assert_eq!((ops.len(), sent_ops(&p2).len()), (16, 16));
        let ShardOp::Put { id: nacked, .. } = ops[0] else { panic!("{:?}", ops[0]) };
        reply(&p1, Reply::Nacked { id: nacked, why: NackReason::Frozen });
        r.pump();
        assert_eq!(wakes(), (1, 1));
        r.pump();
        assert_eq!(wakes(), (2, 1));
        assert_eq!(sent_ops(&p1).len(), 1);

        // A waiter released by a completion is woken by the same pump.
        let k = on(2).nth(20).unwrap();
        let first = r.put(&k, "1");
        r.put(&k, "2");
        r.pump();
        assert_eq!(sent_ops(&p2).len(), 1);
        assert_eq!(wakes(), (2, 2));
        reply(&p2, Reply::Acked { id: first, value: None });
        r.pump();
        assert_eq!(wakes(), (2, 3));
        assert!(matches!(&sent_ops(&p2)[..], [ShardOp::Put { value, .. }] if value == "2"));
    }

    /// Acks `id` at `port`, pumps, and returns what the pump sent there.
    fn ack(r: &mut Router, port: &GatewayPort, id: u64) -> Vec<ShardOp> {
        reply(port, Reply::Acked { id, value: None });
        r.pump();
        sent_ops(port)
    }

    #[test]
    fn the_claim_table_keeps_all_or_queue_and_per_key_order() {
        let (mut r, p1, p2, _board) = setup();
        let map = r.map().clone();
        let (a, b) = (key_on(&map, 1), key_on(&map, 2));

        // One key: put → get → put go out one at a time, in order.
        let put1 = r.put(&a, "1");
        let get = r.get(&a);
        let put2 = r.put(&a, "2");
        assert!(matches!(&sent_ops(&p1)[..], [ShardOp::Put { id, .. }] if *id == put1));
        assert!(matches!(&ack(&mut r, &p1, put1)[..], [ShardOp::Get { id, .. }] if *id == get));
        assert!(matches!(&ack(&mut r, &p1, get)[..], [ShardOp::Put { id, .. }] if *id == put2));
        assert!(ack(&mut r, &p1, put2).is_empty());
        assert_eq!(r.acked_writes().get(&a).map(String::as_str), Some("2"));

        // A transaction over {a, b} with b busy waits and holds nothing:
        // a get of a goes straight out.
        let busy = r.put(&b, "b0");
        sent_ops(&p2);
        let tx = r.cross_put(vec![(a.clone(), "ta".into()), (b.clone(), "tb".into())]);
        let free = r.get(&a);
        assert!(matches!(&sent_ops(&p1)[..], [ShardOp::Get { id, .. }] if *id == free));
        assert!(sent_ops(&p2).is_empty(), "the transaction went out with b busy");
        ack(&mut r, &p1, free);

        // Once b frees, it claims both; a get of a queues behind it.
        assert!(matches!(ack(&mut r, &p2, busy)[..], [ShardOp::Prepare { .. }]));
        assert!(matches!(sent_ops(&p1)[..], [ShardOp::Prepare { .. }]));
        let behind = r.get(&a);
        assert!(sent_ops(&p1).is_empty(), "the get overtook the transaction");
        for p in [&p1, &p2] {
            reply(p, Reply::TxPrepared { tx, attempt: 1 });
        }
        r.pump();
        assert!(matches!(sent_ops(&p1)[..], [ShardOp::Commit { .. }]));
        sent_ops(&p2);
        for p in [&p1, &p2] {
            reply(p, Reply::TxCommitted { tx, attempt: 1 });
        }
        r.pump();
        assert!(matches!(r.take(tx), Some(Completion::TxCommitted)));
        assert!(matches!(&sent_ops(&p1)[..], [ShardOp::Get { id, .. }] if *id == behind));
    }
}
