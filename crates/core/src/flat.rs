//! Flat, index-addressed hot-path containers.
//!
//! The protocol's per-message work used to run through ordered maps
//! (`BTreeMap<Seqno, _>`, `BTreeMap<MemberId, _>`, tuple-keyed
//! `HashMap`s). Sequence numbers are dense (every seqno from 1 upward
//! names exactly one event) and member ids are assigned sequentially
//! and never reused, so both key spaces are *array* key spaces:
//!
//! * [`SeqRing`] — a contiguous seqno-indexed ring (base seqno plus a
//!   `VecDeque` of slots) with O(1) insert/lookup and O(dropped)
//!   floor/ceiling advance. Backs the history buffer and the
//!   out-of-order delivery window.
//! * [`OriginTable`] — a dense per-member table indexed by
//!   `MemberId.0`, with a side slot for [`MemberId::UNASSIGNED`].
//!   Backs the sequencer's duplicate filters and delivery floors.
//! * [`OriginSeqTable`] — per-origin `(sender_seq → V)` association
//!   backed by an [`OriginTable`] of small vectors (entries per origin
//!   are bounded by the send window). Backs the parked-payload and
//!   accept-awaiting-data tables.
//!
//! Memory and ownership of the wire path (who holds what, and for how
//! long) is documented in DESIGN.md §7.

use std::collections::VecDeque;

use crate::ids::{MemberId, Seqno};

// ---------------------------------------------------------------------
// SeqRing
// ---------------------------------------------------------------------

/// A seqno-indexed ring: slot `s` lives at offset `s - base` in a
/// `VecDeque`. Both ends stay trimmed (the front and back slots are
/// always occupied when the ring is non-empty), so first/last are O(1)
/// and the span never exceeds `last - first + 1` slots.
#[derive(Debug, Clone)]
pub(crate) struct SeqRing<T> {
    /// Seqno of `slots[0]` (meaningful only when `slots` is non-empty).
    base: u64,
    slots: VecDeque<Option<T>>,
    /// Occupied slot count.
    len: usize,
}

impl<T> Default for SeqRing<T> {
    fn default() -> Self {
        SeqRing::new()
    }
}

impl<T: PartialEq> PartialEq for SeqRing<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl<T: Eq> Eq for SeqRing<T> {}

impl<T> SeqRing<T> {
    /// Creates an empty ring.
    pub(crate) fn new() -> Self {
        SeqRing { base: 0, slots: VecDeque::new(), len: 0 }
    }

    /// Number of occupied slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn index(&self, seqno: Seqno) -> Option<usize> {
        if self.slots.is_empty() || seqno.0 < self.base {
            return None;
        }
        let idx = (seqno.0 - self.base) as usize;
        (idx < self.slots.len()).then_some(idx)
    }

    /// Whether `seqno` is occupied.
    pub(crate) fn contains(&self, seqno: Seqno) -> bool {
        self.get(seqno).is_some()
    }

    /// The value at `seqno`.
    pub(crate) fn get(&self, seqno: Seqno) -> Option<&T> {
        self.index(seqno).and_then(|i| self.slots[i].as_ref())
    }

    /// Stores `value` at `seqno`, returning what it replaced.
    pub(crate) fn insert(&mut self, seqno: Seqno, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = seqno.0;
            self.slots.push_back(Some(value));
            self.len = 1;
            return None;
        }
        if seqno.0 < self.base {
            // Grow the front: (base - seqno - 1) holes, then the slot.
            for _ in 0..(self.base - seqno.0 - 1) {
                self.slots.push_front(None);
            }
            self.slots.push_front(Some(value));
            self.base = seqno.0;
            self.len += 1;
            return None;
        }
        let idx = (seqno.0 - self.base) as usize;
        if idx >= self.slots.len() {
            // Grow the back: holes up to the slot.
            for _ in self.slots.len()..idx {
                self.slots.push_back(None);
            }
            self.slots.push_back(Some(value));
            self.len += 1;
            return None;
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Stores `value` at `seqno` only if the slot is free (the
    /// `entry(..).or_insert(..)` idiom of the map it replaced).
    pub(crate) fn insert_if_absent(&mut self, seqno: Seqno, value: T) {
        if !self.contains(seqno) {
            self.insert(seqno, value);
        }
    }

    /// Removes and returns the value at `seqno`.
    pub(crate) fn remove(&mut self, seqno: Seqno) -> Option<T> {
        let idx = self.index(seqno)?;
        let old = self.slots[idx].take();
        if old.is_some() {
            self.len -= 1;
            self.trim();
        }
        old
    }

    fn trim(&mut self) {
        if self.len == 0 {
            self.slots.clear();
            self.base = 0;
            return;
        }
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.base += 1;
        }
        while matches!(self.slots.back(), Some(None)) {
            self.slots.pop_back();
        }
    }

    /// The lowest occupied seqno (O(1): ends are trimmed).
    pub(crate) fn first_seqno(&self) -> Option<Seqno> {
        (!self.slots.is_empty()).then_some(Seqno(self.base))
    }

    /// The highest occupied seqno (O(1): ends are trimmed).
    pub(crate) fn last_seqno(&self) -> Option<Seqno> {
        (!self.slots.is_empty()).then(|| Seqno(self.base + self.slots.len() as u64 - 1))
    }

    /// Removes the lowest-numbered entry.
    pub(crate) fn remove_first(&mut self) -> Option<(Seqno, T)> {
        let first = self.first_seqno()?;
        let value = self.remove(first)?;
        Some((first, value))
    }

    /// Drops every entry with seqno strictly below `bound` (the floor
    /// advance). Returns how many occupied slots were discarded.
    pub(crate) fn remove_below(&mut self, bound: Seqno) -> usize {
        if self.slots.is_empty() || bound.0 <= self.base {
            return 0; // nothing below; the ends are already trimmed
        }
        let mut dropped = 0;
        while !self.slots.is_empty() && self.base < bound.0 {
            if self.slots.pop_front().expect("non-empty").is_some() {
                dropped += 1;
                self.len -= 1;
            }
            self.base += 1;
        }
        self.trim();
        dropped
    }

    /// Drops every entry with seqno strictly above `bound`. Returns how
    /// many occupied slots were discarded.
    pub(crate) fn remove_above(&mut self, bound: Seqno) -> usize {
        let mut dropped = 0;
        while let Some(last) = self.last_seqno() {
            if last <= bound {
                break;
            }
            if self.slots.pop_back().expect("non-empty").is_some() {
                dropped += 1;
                self.len -= 1;
            }
        }
        self.trim();
        dropped
    }

    /// Iterates occupied slots in ascending seqno order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Seqno, &T)> {
        let base = self.base;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|v| (Seqno(base + i as u64), v)))
    }

    /// Iterates occupied slots within `from..=to`, ascending. The ring
    /// is index-addressed, so the window start is computed directly —
    /// no scan over the slots below `from` (retransmission requests
    /// near the top of a large history stay O(answer), not O(cap)).
    pub(crate) fn range(&self, from: Seqno, to: Seqno) -> impl Iterator<Item = (Seqno, &T)> {
        let len = self.slots.len() as u64;
        let start = from.0.saturating_sub(self.base).min(len) as usize;
        let end = if to.0 < self.base {
            0
        } else {
            ((to.0 - self.base).saturating_add(1)).min(len) as usize
        }
        .max(start);
        let first = self.base + start as u64;
        self.slots
            .range(start..end)
            .enumerate()
            .filter_map(move |(i, s)| s.as_ref().map(|v| (Seqno(first + i as u64), v)))
    }
}

// ---------------------------------------------------------------------
// OriginTable
// ---------------------------------------------------------------------

/// Member ids below this bound live in the dense array; anything above
/// (including [`MemberId::UNASSIGNED`] and garbled/hostile wire ids)
/// falls back to a small linear-scan overflow list. The id is
/// wire-supplied on several paths, so it must never become an
/// allocation size directly — 64 Ki dense slots is far beyond any real
/// group while keeping the worst-case resize harmless.
const DENSE_IDS: usize = 1 << 16;

/// A dense per-member table: slot `m` lives at index `MemberId(m).0`.
/// Ids are assigned sequentially by the sequencer and never reused, so
/// the table stays compact; out-of-range ids (joiners' `UNASSIGNED`,
/// corrupt frames) go to the sparse overflow instead of an absurd
/// index.
#[derive(Debug, Clone)]
pub(crate) struct OriginTable<T> {
    slots: Vec<Option<T>>,
    /// Entries with id ≥ [`DENSE_IDS`] (rare; linear scan).
    sparse: Vec<(MemberId, T)>,
}

impl<T> Default for OriginTable<T> {
    fn default() -> Self {
        OriginTable::new()
    }
}

impl<T> OriginTable<T> {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        OriginTable { slots: Vec::new(), sparse: Vec::new() }
    }

    fn dense(id: MemberId) -> Option<usize> {
        let idx = id.0 as usize;
        (idx < DENSE_IDS).then_some(idx)
    }

    /// The value for `id`.
    pub(crate) fn get(&self, id: MemberId) -> Option<&T> {
        match Self::dense(id) {
            Some(idx) => self.slots.get(idx).and_then(|s| s.as_ref()),
            None => self.sparse.iter().find(|(k, _)| *k == id).map(|(_, v)| v),
        }
    }

    /// Stores `value` for `id`, returning what it replaced.
    pub(crate) fn insert(&mut self, id: MemberId, value: T) -> Option<T> {
        match Self::dense(id) {
            Some(idx) => {
                if idx >= self.slots.len() {
                    self.slots.resize_with(idx + 1, || None);
                }
                self.slots[idx].replace(value)
            }
            None => {
                for (k, v) in self.sparse.iter_mut() {
                    if *k == id {
                        return Some(std::mem::replace(v, value));
                    }
                }
                self.sparse.push((id, value));
                None
            }
        }
    }

    /// Removes the value for `id`.
    pub(crate) fn remove(&mut self, id: MemberId) -> Option<T> {
        match Self::dense(id) {
            Some(idx) => self.slots.get_mut(idx).and_then(|s| s.take()),
            None => {
                let at = self.sparse.iter().position(|(k, _)| *k == id)?;
                Some(self.sparse.swap_remove(at).1)
            }
        }
    }

    /// The value for `id`, inserting `default()` first if absent.
    pub(crate) fn or_insert_with(&mut self, id: MemberId, default: impl FnOnce() -> T) -> &mut T {
        if self.get(id).is_none() {
            self.insert(id, default());
        }
        match Self::dense(id) {
            Some(idx) => self.slots[idx].as_mut().expect("just filled"),
            None => {
                let at = self.sparse.iter().position(|(k, _)| *k == id).expect("just filled");
                &mut self.sparse[at].1
            }
        }
    }

    /// Iterates occupied entries: dense ids in ascending order, then
    /// sparse ones in insertion order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (MemberId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (MemberId(i as u32), v)))
            .chain(self.sparse.iter().map(|(k, v)| (*k, v)))
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.sparse.clear();
    }
}

// ---------------------------------------------------------------------
// OriginSeqTable
// ---------------------------------------------------------------------

/// Hard ceiling on retained entries per origin: a correct sender keeps
/// at most `send_window` (≤ 256) outstanding, so overflow means loss,
/// reordering pathology, or hostility — evict the oldest rather than
/// let wire traffic grow the scan list (and the scan cost) unboundedly.
const PER_ORIGIN_CAP: usize = 1024;

/// Per-origin `(sender_seq → V)` association: a flat per-member table
/// of small vectors. The entries per origin are bounded by the send
/// window (≤ 256) and capped at [`PER_ORIGIN_CAP`], so a linear scan
/// beats any tree or hash overhead.
#[derive(Debug, Clone, Default)]
pub(crate) struct OriginSeqTable<V> {
    inner: OriginTable<Vec<(u64, V)>>,
}

impl<V> OriginSeqTable<V> {
    /// Creates an empty table.
    pub(crate) fn new() -> Self {
        OriginSeqTable { inner: OriginTable::new() }
    }

    /// Stores `value` under `(origin, sender_seq)`, returning what it
    /// replaced. At [`PER_ORIGIN_CAP`] entries the oldest is evicted.
    pub(crate) fn insert(&mut self, origin: MemberId, sender_seq: u64, value: V) -> Option<V> {
        let entries = self.inner.or_insert_with(origin, Vec::new);
        for (seq, v) in entries.iter_mut() {
            if *seq == sender_seq {
                return Some(std::mem::replace(v, value));
            }
        }
        if entries.len() >= PER_ORIGIN_CAP {
            entries.remove(0); // oldest first; recovery refetches if real
        }
        entries.push((sender_seq, value));
        None
    }

    /// Removes the value under `(origin, sender_seq)`.
    pub(crate) fn remove(&mut self, origin: MemberId, sender_seq: u64) -> Option<V> {
        let entries = self.inner.get_mut_vec(origin)?;
        let idx = entries.iter().position(|(seq, _)| *seq == sender_seq)?;
        Some(entries.swap_remove(idx).1)
    }

    /// Drops every entry except those of `keep` (recovery invalidates
    /// other members' parked payloads but not our own pending send).
    pub(crate) fn retain_origin(&mut self, keep: MemberId) {
        let kept = self.inner.remove(keep);
        self.inner.clear();
        if let Some(entries) = kept {
            self.inner.insert(keep, entries);
        }
    }

    /// Drops every entry.
    pub(crate) fn clear(&mut self) {
        self.inner.clear();
    }
}

impl<V> OriginTable<Vec<(u64, V)>> {
    fn get_mut_vec(&mut self, id: MemberId) -> Option<&mut Vec<(u64, V)>> {
        match Self::dense(id) {
            Some(idx) => self.slots.get_mut(idx)?.as_mut(),
            None => self.sparse.iter_mut().find(|(k, _)| *k == id).map(|(_, v)| v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_insert_lookup_remove() {
        let mut r = SeqRing::new();
        assert!(r.is_empty());
        r.insert(Seqno(5), "e5");
        r.insert(Seqno(3), "e3");
        r.insert(Seqno(9), "e9");
        assert_eq!(r.len(), 3);
        assert_eq!(r.get(Seqno(5)), Some(&"e5"));
        assert_eq!(r.get(Seqno(4)), None);
        assert_eq!(r.first_seqno(), Some(Seqno(3)));
        assert_eq!(r.last_seqno(), Some(Seqno(9)));
        assert_eq!(r.remove(Seqno(3)), Some("e3"));
        assert_eq!(r.first_seqno(), Some(Seqno(5)), "front re-trims past holes");
        assert_eq!(r.remove(Seqno(3)), None);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn ring_floor_and_ceiling_advance() {
        let mut r = SeqRing::new();
        for i in 1..=10u64 {
            r.insert(Seqno(i), i);
        }
        assert_eq!(r.remove_below(Seqno(4)), 3);
        assert_eq!(r.first_seqno(), Some(Seqno(4)));
        assert_eq!(r.remove_above(Seqno(7)), 3);
        assert_eq!(r.last_seqno(), Some(Seqno(7)));
        assert_eq!(r.len(), 4);
        let got: Vec<u64> = r.iter().map(|(_, v)| *v).collect();
        assert_eq!(got, vec![4, 5, 6, 7]);
    }

    #[test]
    fn ring_range_skips_holes() {
        let mut r = SeqRing::new();
        r.insert(Seqno(1), 1);
        r.insert(Seqno(3), 3);
        r.insert(Seqno(6), 6);
        let got: Vec<u64> = r.range(Seqno(2), Seqno(6)).map(|(s, _)| s.0).collect();
        assert_eq!(got, vec![3, 6]);
    }

    #[test]
    fn ring_emptied_resets_cleanly() {
        let mut r = SeqRing::new();
        r.insert(Seqno(100), ());
        assert_eq!(r.remove_first(), Some((Seqno(100), ())));
        assert!(r.is_empty());
        assert_eq!(r.first_seqno(), None);
        r.insert(Seqno(2), ());
        assert_eq!(r.first_seqno(), Some(Seqno(2)));
    }

    #[test]
    fn ring_equality_is_content_based() {
        let mut a = SeqRing::new();
        let mut b = SeqRing::new();
        a.insert(Seqno(50), 1);
        a.remove(Seqno(50));
        assert_eq!(a, b, "emptied ring equals a fresh one");
        a.insert(Seqno(7), 7);
        b.insert(Seqno(7), 7);
        assert_eq!(a, b);
    }

    #[test]
    fn origin_table_dense_and_unassigned() {
        let mut t = OriginTable::new();
        t.insert(MemberId(0), "a");
        t.insert(MemberId(3), "b");
        t.insert(MemberId::UNASSIGNED, "joiner");
        assert_eq!(t.get(MemberId(3)), Some(&"b"));
        assert_eq!(t.get(MemberId(2)), None);
        assert_eq!(t.get(MemberId::UNASSIGNED), Some(&"joiner"));
        let ids: Vec<MemberId> = t.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![MemberId(0), MemberId(3), MemberId::UNASSIGNED]);
        assert_eq!(t.remove(MemberId(3)), Some("b"));
        assert_eq!(t.remove(MemberId(3)), None);
        *t.or_insert_with(MemberId(5), || "c") = "c2";
        assert_eq!(t.get(MemberId(5)), Some(&"c2"));
    }

    #[test]
    fn hostile_ids_never_become_allocation_sizes() {
        let mut t = OriginTable::new();
        // Wire-supplied garbage ids land in the sparse overflow; the
        // dense array never resizes past DENSE_IDS.
        t.insert(MemberId(u32::MAX - 1), "evil");
        t.insert(MemberId::UNASSIGNED, "joiner");
        assert!(t.slots.len() <= DENSE_IDS);
        assert_eq!(t.get(MemberId(u32::MAX - 1)), Some(&"evil"));
        assert_eq!(t.remove(MemberId(u32::MAX - 1)), Some("evil"));
        assert_eq!(t.get(MemberId::UNASSIGNED), Some(&"joiner"));
        *t.or_insert_with(MemberId(u32::MAX - 7), || "x") = "y";
        assert_eq!(t.get(MemberId(u32::MAX - 7)), Some(&"y"));
    }

    #[test]
    fn origin_seq_table_round_trip() {
        let mut t = OriginSeqTable::new();
        assert_eq!(t.insert(MemberId(1), 10, "x"), None);
        assert_eq!(t.insert(MemberId(1), 10, "y"), Some("x"), "replace semantics");
        t.insert(MemberId(1), 11, "z");
        t.insert(MemberId(2), 10, "other");
        assert_eq!(t.remove(MemberId(1), 10), Some("y"));
        assert_eq!(t.remove(MemberId(1), 10), None);
        t.retain_origin(MemberId(1));
        assert_eq!(t.remove(MemberId(2), 10), None, "other origins dropped");
        assert_eq!(t.remove(MemberId(1), 11), Some("z"), "kept origin survives");
    }
}
