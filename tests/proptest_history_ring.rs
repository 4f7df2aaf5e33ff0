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
//! `max_sender_seqs` reconstruction.

use std::collections::BTreeMap;

use amoeba::core::{HistoryBuffer, MemberId, Seqno, Sequenced, SequencedKind, Stamped};
use bytes::Bytes;
use proptest::prelude::*;

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

fn arb_op() -> impl Strategy<Value = Op> {
    // Seqnos stay in a small dense band — exactly the protocol's usage
    // (a window above the GC floor) and the regime where ring and map
    // must agree on every observable.
    let seqno = 1u64..120;
    prop_oneof![
        (seqno.clone(), 0u32..6, 1u64..50)
            .prop_map(|(seqno, origin, sender_seq)| Op::Insert { seqno, origin, sender_seq }),
        (seqno.clone(), 0u32..6, 1u64..50).prop_map(|(seqno, origin, sender_seq)| {
            Op::InsertEvicting { seqno, origin, sender_seq }
        }),
        (seqno.clone(), 0u32..6).prop_map(|(seqno, member)| Op::InsertControl { seqno, member }),
        (0u64..130).prop_map(|floor| Op::Gc { floor }),
        (1u64..130).prop_map(|bound| Op::TruncateAbove { bound }),
    ]
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

fn assert_equivalent(real: &HistoryBuffer, model: &ModelBuffer) {
    assert_eq!(real.len(), model.entries.len(), "len diverged");
    assert_eq!(real.is_empty(), model.entries.is_empty());
    assert_eq!(real.lowest(), model.entries.keys().next().copied(), "lowest diverged");
    assert_eq!(real.highest(), model.entries.keys().next_back().copied(), "highest diverged");
    assert_eq!(real.has_room_for_app(), model.has_room_for_app());
    let real_all: Vec<&Sequenced> = real.iter().collect();
    let model_all: Vec<&Sequenced> = model.entries.values().collect();
    assert_eq!(real_all, model_all, "iteration order/content diverged");
    for probe in 0..130u64 {
        assert_eq!(
            real.contains(Seqno(probe)),
            model.entries.contains_key(&Seqno(probe)),
            "contains({probe}) diverged"
        );
    }
    // Retransmission range queries over a few windows.
    // (Inverted windows are excluded: the map model's `range` panics on
    // them, i.e. the protocol never issues one.)
    for (lo, hi) in [(1u64, 129u64), (10, 40), (60, 61)] {
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

/// Offsets at which the high-base variant plants its seqno band. The
/// ring stores `u64` seqnos, but several wire fields and counters are
/// 32-bit adjacent — a band straddling `u32::MAX` is where an
/// accidental narrowing or wrap in index arithmetic would show, and a
/// floor advance (`gc`) that crosses the boundary walks `base += 1`
/// right over the edge.
const HIGH_BASES: [u64; 3] = [
    u32::MAX as u64 - 60,        // band straddles u32::MAX
    u32::MAX as u64 + 1,         // band starts just past it
    (1u64 << 48) - 60,           // and a deeper 64-bit band
];

proptest! {
    /// The same model equivalence, with every seqno shifted to a band
    /// around the `u32` boundary: inserts on both sides of the edge,
    /// floor advances (`gc`) and recovery truncations crossing it.
    #[test]
    fn ring_matches_the_model_near_the_u32_wrap_boundary(
        which in 0usize..HIGH_BASES.len(),
        cap in 1usize..24,
        ops in proptest::collection::vec(arb_op(), 0..120),
    ) {
        let base = HIGH_BASES[which];
        let mut real = HistoryBuffer::new(cap);
        let mut model = ModelBuffer::new(cap);
        for op in ops {
            match op {
                Op::Insert { seqno, origin, sender_seq } => {
                    let seqno = base + seqno;
                    if real.has_room_for_app() || real.contains(Seqno(seqno)) {
                        let candidate = app(seqno, origin, sender_seq);
                        let occupied_differently =
                            real.get(Seqno(seqno)).is_some_and(|e| e != &candidate);
                        if !occupied_differently {
                            real.insert(candidate.clone());
                            model.insert(candidate);
                        }
                    }
                }
                Op::InsertEvicting { seqno, origin, sender_seq } => {
                    let candidate = app(base + seqno, origin, sender_seq);
                    let occupied_differently =
                        real.get(Seqno(base + seqno)).is_some_and(|e| e != &candidate);
                    if !occupied_differently {
                        real.insert_evicting(candidate.clone());
                        model.insert_evicting(candidate);
                    }
                }
                Op::InsertControl { seqno, member } => {
                    let candidate = control(base + seqno, member);
                    let occupied_differently =
                        real.get(Seqno(base + seqno)).is_some_and(|e| e != &candidate);
                    if !occupied_differently {
                        real.insert(candidate.clone());
                        model.insert(candidate);
                    }
                }
                Op::Gc { floor } => {
                    // The floor advance crosses the band edge for the
                    // straddling base.
                    prop_assert_eq!(real.gc(Seqno(base + floor)), model.gc(Seqno(base + floor)));
                }
                Op::TruncateAbove { bound } => {
                    prop_assert_eq!(
                        real.truncate_above(Seqno(base + bound)),
                        model.truncate_above(Seqno(base + bound))
                    );
                }
            }
            // The cheap observables every step; the full comparison
            // (ranges, per-origin reconstruction) once at the end.
            prop_assert_eq!(real.len(), model.entries.len());
            prop_assert_eq!(real.lowest(), model.entries.keys().next().copied());
            prop_assert_eq!(real.highest(), model.entries.keys().next_back().copied());
        }
        let real_all: Vec<&Sequenced> = real.iter().collect();
        let model_all: Vec<&Sequenced> = model.entries.values().collect();
        prop_assert_eq!(real_all, model_all, "iteration diverged at base {}", base);
        let (lo, hi) = (Seqno(base + 1), Seqno(base + 129));
        let real_range: Vec<Seqno> = real.range(lo, hi).map(|e| e.seqno).collect();
        let model_range: Vec<Seqno> =
            model.entries.range(lo..=hi).map(|(s, _)| *s).collect();
        prop_assert_eq!(real_range, model_range, "range diverged at base {}", base);
    }

    #[test]
    fn ring_matches_the_ordered_map_model(
        cap in 1usize..24,
        ops in proptest::collection::vec(arb_op(), 0..120),
    ) {
        let mut real = HistoryBuffer::new(cap);
        let mut model = ModelBuffer::new(cap);
        for op in ops {
            match op {
                Op::Insert { seqno, origin, sender_seq } => {
                    // Mirror the protocol: app inserts only when
                    // admitted (same predicate on both sides, which
                    // assert_equivalent has already proven equal).
                    if real.has_room_for_app() || real.contains(Seqno(seqno)) {
                        // Skip seqnos already holding a different entry
                        // (the protocol never re-stamps a seqno).
                        let candidate = app(seqno, origin, sender_seq);
                        let occupied_differently =
                            real.get(Seqno(seqno)).is_some_and(|e| e != &candidate);
                        if !occupied_differently {
                            real.insert(candidate.clone());
                            model.insert(candidate);
                        }
                    }
                }
                Op::InsertEvicting { seqno, origin, sender_seq } => {
                    let candidate = app(seqno, origin, sender_seq);
                    let occupied_differently =
                        real.get(Seqno(seqno)).is_some_and(|e| e != &candidate);
                    if !occupied_differently {
                        real.insert_evicting(candidate.clone());
                        model.insert_evicting(candidate);
                    }
                }
                Op::InsertControl { seqno, member } => {
                    let candidate = control(seqno, member);
                    let occupied_differently =
                        real.get(Seqno(seqno)).is_some_and(|e| e != &candidate);
                    if !occupied_differently {
                        real.insert(candidate.clone());
                        model.insert(candidate);
                    }
                }
                Op::Gc { floor } => {
                    prop_assert_eq!(real.gc(Seqno(floor)), model.gc(Seqno(floor)));
                }
                Op::TruncateAbove { bound } => {
                    prop_assert_eq!(
                        real.truncate_above(Seqno(bound)),
                        model.truncate_above(Seqno(bound))
                    );
                }
            }
            assert_equivalent(&real, &model);
        }
    }
}
