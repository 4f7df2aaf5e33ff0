//! Model-based property test: the seqno-ring [`HistoryBuffer`] against
//! the ordered-map semantics it replaced.
//!
//! PR 3 swapped the history buffer's `BTreeMap<Seqno, Sequenced>` for a
//! contiguous seqno-indexed ring (O(1) hot path). The protocol's
//! correctness leans on this store's exact semantics — retransmission
//! ranges, GC floors, recovery truncation — so this test replays
//! arbitrary operation sequences against a straightforward `BTreeMap`
//! model (a transliteration of the pre-ring implementation) and
//! requires observable equivalence after every step: length, bounds,
//! membership, range queries, full iteration order, and the per-origin
//! `max_sender_seqs` reconstruction. The same operation sequences
//! replay at seqno base 0 and at bands around the `u32` boundary.

mod common;

use std::collections::BTreeMap;

use amoeba::core::{HistoryBuffer, MemberId, Seqno, Sequenced, SequencedKind, Stamped};
use amoeba::sim::SplitMix64;
use bytes::Bytes;
use common::cases::{for_each_case, pick, vec_of};

/// The pre-PR-3 implementation, kept as the executable specification.
#[derive(Default)]
struct ModelBuffer {
    entries: BTreeMap<Seqno, Sequenced>,
    cap: usize,
}

impl ModelBuffer {
    fn new(cap: usize) -> Self {
        ModelBuffer { entries: BTreeMap::new(), cap }
    }

    fn has_room_for_app(&self) -> bool {
        self.entries.len() < self.cap
    }

    fn insert(&mut self, entry: Sequenced) {
        if let Some(existing) = self.entries.get(&entry.seqno) {
            assert_eq!(existing, &entry);
            return;
        }
        self.entries.insert(entry.seqno, entry);
    }

    fn insert_evicting(&mut self, entry: Sequenced) {
        if self.entries.contains_key(&entry.seqno) {
            return;
        }
        // Deliberate PR 3 divergence from the pre-ring code: the cache
        // retains a window of at most `cap` consecutive seqnos ending
        // at the highest entry (the old map hoarded arbitrary
        // stragglers, evicting useful entries when full; the ring would
        // additionally grow O(gap) hole slots). The model encodes the
        // new spec so the equivalence is exact.
        let cap = self.cap as u64;
        if let Some((&highest, _)) = self.entries.iter().next_back() {
            if highest.0.saturating_sub(entry.seqno.0) >= cap {
                return;
            }
        }
        self.entries = self.entries.split_off(&Seqno((entry.seqno.0 + 1).saturating_sub(cap)));
        if self.entries.len() >= self.cap {
            if let Some((&lowest, _)) = self.entries.iter().next() {
                self.entries.remove(&lowest);
            }
        }
        self.entries.insert(entry.seqno, entry);
    }

    fn truncate_above(&mut self, bound: Seqno) -> usize {
        self.entries.split_off(&bound.next()).len()
    }

    fn gc(&mut self, floor: Seqno) -> usize {
        let keep = self.entries.split_off(&floor.next());
        let dropped = self.entries.len();
        self.entries = keep;
        dropped
    }
}

/// One step of the generated workload.
#[derive(Debug, Clone)]
enum Op {
    /// Sequencer-style insert (applied only when legal, mirroring the
    /// protocol's admission check).
    Insert { seqno: u64, origin: u32, sender_seq: u64 },
    /// Member-cache insert (evicts the lowest when full).
    InsertEvicting { seqno: u64, origin: u32, sender_seq: u64 },
    /// Control entry (always admitted, even when full).
    InsertControl { seqno: u64, member: u32 },
    /// GC below a floor.
    Gc { floor: u64 },
    /// Recovery truncation above a horizon.
    TruncateAbove { bound: u64 },
}

fn op(rng: &mut SplitMix64) -> Op {
    // Seqnos stay in a small dense band — exactly the protocol's usage
    // (a window above the GC floor) and the regime where ring and map
    // must agree on every observable.
    match rng.gen_range(5) {
        0 => Op::Insert {
            seqno: pick(rng, 1..120),
            origin: pick(rng, 0..6) as u32,
            sender_seq: pick(rng, 1..50),
        },
        1 => Op::InsertEvicting {
            seqno: pick(rng, 1..120),
            origin: pick(rng, 0..6) as u32,
            sender_seq: pick(rng, 1..50),
        },
        2 => Op::InsertControl { seqno: pick(rng, 1..120), member: pick(rng, 0..6) as u32 },
        3 => Op::Gc { floor: pick(rng, 0..130) },
        _ => Op::TruncateAbove { bound: pick(rng, 1..130) },
    }
}

fn app(seqno: u64, origin: u32, sender_seq: u64) -> Sequenced {
    Stamped {
        seqno: Seqno(seqno),
        kind: SequencedKind::App {
            origin: MemberId(origin),
            sender_seq,
            payload: Bytes::new(),
        },
    }.into()
}

fn control(seqno: u64, member: u32) -> Sequenced {
    Stamped {
        seqno: Seqno(seqno),
        kind: SequencedKind::Leave { member: MemberId(member), forced: false },
    }.into()
}

/// Applies one op, with every seqno shifted up by `base`, to both
/// buffers.
fn apply(op: &Op, base: u64, real: &mut HistoryBuffer, model: &mut ModelBuffer) {
    // Skip seqnos already holding a different entry (the protocol
    // never re-stamps a seqno).
    let fresh = |real: &HistoryBuffer, candidate: &Sequenced| {
        !real.get(candidate.seqno).is_some_and(|e| e != candidate)
    };
    match *op {
        Op::Insert { seqno, origin, sender_seq } => {
            // Mirror the protocol: app inserts only when admitted (same
            // predicate on both sides, which assert_equivalent has
            // already proven equal).
            let candidate = app(base + seqno, origin, sender_seq);
            let admitted = real.has_room_for_app() || real.contains(candidate.seqno);
            if admitted && fresh(real, &candidate) {
                real.insert(candidate.clone());
                model.insert(candidate);
            }
        }
        Op::InsertEvicting { seqno, origin, sender_seq } => {
            let candidate = app(base + seqno, origin, sender_seq);
            if fresh(real, &candidate) {
                real.insert_evicting(candidate.clone());
                model.insert_evicting(candidate);
            }
        }
        Op::InsertControl { seqno, member } => {
            let candidate = control(base + seqno, member);
            if fresh(real, &candidate) {
                real.insert(candidate.clone());
                model.insert(candidate);
            }
        }
        // At a straddling base, floor advances and truncations cross
        // the `u32` edge.
        Op::Gc { floor } => {
            assert_eq!(real.gc(Seqno(base + floor)), model.gc(Seqno(base + floor)));
        }
        Op::TruncateAbove { bound } => {
            assert_eq!(
                real.truncate_above(Seqno(base + bound)),
                model.truncate_above(Seqno(base + bound))
            );
        }
    }
}

/// Every observable of the two buffers agrees, with probes and range
/// windows shifted up by `base`.
fn assert_equivalent(real: &HistoryBuffer, model: &ModelBuffer, base: u64) {
    assert_eq!(real.len(), model.entries.len(), "len diverged");
    assert_eq!(real.is_empty(), model.entries.is_empty());
    assert_eq!(real.lowest(), model.entries.keys().next().copied(), "lowest diverged");
    assert_eq!(real.highest(), model.entries.keys().next_back().copied(), "highest diverged");
    assert_eq!(real.has_room_for_app(), model.has_room_for_app());
    let real_all: Vec<&Sequenced> = real.iter().collect();
    let model_all: Vec<&Sequenced> = model.entries.values().collect();
    assert_eq!(real_all, model_all, "iteration order/content diverged at base {base}");
    for probe in (0..130u64).map(|p| base + p) {
        assert_eq!(
            real.contains(Seqno(probe)),
            model.entries.contains_key(&Seqno(probe)),
            "contains({probe}) diverged"
        );
    }
    // Retransmission range queries over a few windows.
    // (Inverted windows are excluded: the map model's `range` panics on
    // them, i.e. the protocol never issues one.)
    for (lo, hi) in [(1u64, 129u64), (10, 40), (60, 61)].map(|(l, h)| (base + l, base + h)) {
        let real_range: Vec<Seqno> = real.range(Seqno(lo), Seqno(hi)).map(|e| e.seqno).collect();
        let model_range: Vec<Seqno> =
            model.entries.range(Seqno(lo)..=Seqno(hi)).map(|(s, _)| *s).collect();
        assert_eq!(real_range, model_range, "range({lo}, {hi}) diverged");
    }
    assert_eq!(real.max_sender_seqs(), {
        let mut out = BTreeMap::new();
        for e in model.entries.values() {
            if let SequencedKind::App { origin, sender_seq, .. } = &e.kind {
                let slot = out.entry(*origin).or_insert(0);
                if *sender_seq > *slot {
                    *slot = *sender_seq;
                }
            }
        }
        out
    });
}

/// Offsets at which the seqno band is planted besides 0. The ring
/// stores `u64` seqnos, but several wire fields and counters are
/// 32-bit adjacent — a band straddling `u32::MAX` is where an
/// accidental narrowing or wrap in index arithmetic would show, and a
/// floor advance (`gc`) that crosses the boundary walks `base += 1`
/// right over the edge.
const HIGH_BASES: [u64; 3] = [
    u32::MAX as u64 - 60,        // band straddles u32::MAX
    u32::MAX as u64 + 1,         // band starts just past it
    (1u64 << 48) - 60,           // and a deeper 64-bit band
];

/// Replays `ops` on a ring and the model of capacity `cap`, every
/// seqno shifted up by `base`, comparing them after every op and once
/// more at the end (the only comparison when `ops` is empty).
fn replay(cap: usize, ops: &[Op], base: u64) {
    let mut real = HistoryBuffer::new(cap);
    let mut model = ModelBuffer::new(cap);
    for op in ops {
        apply(op, base, &mut real, &mut model);
        assert_equivalent(&real, &model, base);
    }
    assert_equivalent(&real, &model, base);
}

#[test]
fn ring_matches_the_ordered_map_model() {
    for_each_case("ring_matches_the_ordered_map_model", 256, |rng| {
        let cap = pick(rng, 1..24) as usize;
        replay(cap, &vec_of(rng, 0..120, op), 0);
    });
}

/// The same model equivalence, with every seqno shifted to each band
/// around the `u32` boundary: inserts on both sides of the edge, floor
/// advances (`gc`) and recovery truncations crossing it.
#[test]
fn ring_matches_the_model_near_the_u32_wrap_boundary() {
    for_each_case("ring_matches_the_model_near_the_u32_wrap_boundary", 256, |rng| {
        let cap = pick(rng, 1..24) as usize;
        let ops = vec_of(rng, 0..120, op);
        for base in HIGH_BASES {
            replay(cap, &ops, base);
        }
    });
}
