//! The history buffer: the sequencer's retransmission store.
//!
//! The sequencer keeps every recently stamped entry until it knows all
//! members have received it (paper §3.1). The buffer is the protocol's
//! central flow-control device: when it fills (128 entries in the
//! paper's experiments), new application messages are refused until the
//! acknowledgement floor advances — which is what produces the
//! throughput collapse for large messages in Figure 4/5.
//!
//! Non-sequencer members keep the same structure as a cache: it serves
//! resilience (r > 0) buffering and lets a member take over as sequencer
//! after recovery.
//!
//! Sequence numbers are dense, so the store is a contiguous
//! seqno-indexed ring ([`crate::flat::SeqRing`]): insert, lookup and
//! the floor advance are O(1) per entry instead of the O(log n) of the
//! ordered map it replaced — this sits on the per-message hot path of
//! both the sequencer (stamp) and every member (deliver). A model-based
//! property test (`tests/proptest_history_ring.rs` at the workspace
//! root) pins the ring to the documented cache semantics.

use std::collections::BTreeMap;

use crate::flat::SeqRing;
use crate::ids::Seqno;
use crate::message::{Sequenced, SequencedKind};

/// A bounded, seqno-indexed store of [`Sequenced`] entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoryBuffer {
    entries: SeqRing<Sequenced>,
    cap: usize,
}

impl HistoryBuffer {
    /// Creates a buffer holding at most `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "history capacity must be positive");
        HistoryBuffer { entries: SeqRing::new(), cap }
    }

    /// The configured capacity.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether an *application* entry may be admitted. Control entries
    /// (joins, leaves, handoffs) are always admitted — refusing them
    /// could deadlock failure handling against a full buffer.
    pub fn has_room_for_app(&self) -> bool {
        self.entries.len() < self.cap
    }

    /// Inserts an entry.
    ///
    /// # Panics
    ///
    /// Panics if an application entry is inserted while full (callers
    /// must check [`HistoryBuffer::has_room_for_app`] first) or if the
    /// seqno is already present with different contents.
    pub fn insert(&mut self, entry: Sequenced) {
        if matches!(entry.kind, SequencedKind::App { .. }) {
            assert!(
                self.has_room_for_app() || self.entries.contains(entry.seqno),
                "history buffer full; caller must refuse app messages first"
            );
        }
        if let Some(existing) = self.entries.get(entry.seqno) {
            assert_eq!(existing, &entry, "conflicting history entries for {}", entry.seqno);
            return;
        }
        self.entries.insert(entry.seqno, entry);
    }

    /// Inserts an entry, evicting the lowest-numbered entry if the
    /// buffer is full. This is the *member-side cache* insert: a member
    /// keeps recent entries opportunistically (to take over sequencing
    /// after recovery); the sequencer itself must use
    /// [`HistoryBuffer::insert`], which never silently discards.
    pub fn insert_evicting(&mut self, entry: Sequenced) {
        if let Some(existing) = self.entries.get(entry.seqno) {
            debug_assert_eq!(existing, &entry, "conflicting history entries for {}", entry.seqno);
            return;
        }
        // The cache retains a window of at most `cap` *consecutive*
        // seqnos ending at the highest retained entry — never arbitrary
        // stragglers. An entry more than `cap` below the highest is
        // dropped (the ordered-map version stored it by evicting a
        // useful entry), and an entry that raises the highest first
        // evicts everything that falls out of its window. Both rules
        // exist so the seqno-indexed ring's span — and therefore its
        // memory — stays O(cap) no matter what gaps the wire supplies.
        let cap = self.cap as u64;
        if let Some(highest) = self.entries.last_seqno() {
            if highest.0.saturating_sub(entry.seqno.0) >= cap {
                return;
            }
        }
        self.entries.remove_below(Seqno((entry.seqno.0 + 1).saturating_sub(cap)));
        if self.entries.len() >= self.cap {
            self.entries.remove_first();
        }
        self.entries.insert(entry.seqno, entry);
    }

    /// Drops every entry with seqno strictly greater than `bound`
    /// (used when a recovery decides those entries did not survive).
    /// Returns how many entries were discarded.
    pub fn truncate_above(&mut self, bound: Seqno) -> usize {
        self.entries.remove_above(bound)
    }

    /// Looks up the entry at `seqno`.
    pub fn get(&self, seqno: Seqno) -> Option<&Sequenced> {
        self.entries.get(seqno)
    }

    /// Whether `seqno` is retained.
    pub fn contains(&self, seqno: Seqno) -> bool {
        self.entries.contains(seqno)
    }

    /// Drops every entry with seqno ≤ `floor` (they are globally
    /// acknowledged). Returns how many entries were discarded.
    pub fn gc(&mut self, floor: Seqno) -> usize {
        self.entries.remove_below(floor.next())
    }

    /// The highest retained seqno.
    pub fn highest(&self) -> Option<Seqno> {
        self.entries.last_seqno()
    }

    /// The lowest retained seqno.
    pub fn lowest(&self) -> Option<Seqno> {
        self.entries.first_seqno()
    }

    /// Iterates entries in seqno order.
    pub fn iter(&self) -> impl Iterator<Item = &Sequenced> {
        self.entries.iter().map(|(_, e)| e)
    }

    /// Entries within `from..=to`, in order.
    pub fn range(&self, from: Seqno, to: Seqno) -> impl Iterator<Item = &Sequenced> {
        self.entries.range(from, to).map(|(_, e)| e)
    }

    /// The highest `sender_seq` stamped per origin, reconstructed by a
    /// new sequencer after recovery to restore duplicate suppression.
    pub fn max_sender_seqs(&self) -> BTreeMap<crate::ids::MemberId, u64> {
        let mut out = BTreeMap::new();
        for e in self.iter() {
            if let SequencedKind::App { origin, sender_seq, .. } = &e.kind {
                let slot = out.entry(*origin).or_insert(0);
                if *sender_seq > *slot {
                    *slot = *sender_seq;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::MemberId;
    use bytes::Bytes;

    fn app(seqno: u64, origin: u32, sender_seq: u64) -> Sequenced {
        Sequenced::new(
            Seqno(seqno),
            SequencedKind::App { origin: MemberId(origin), sender_seq, payload: Bytes::new() },
        )
    }

    fn leave(seqno: u64, member: u32) -> Sequenced {
        let kind = SequencedKind::Leave { member: MemberId(member), forced: true };
        Sequenced::new(Seqno(seqno), kind)
    }

    #[test]
    fn insert_get_gc_roundtrip() {
        let mut h = HistoryBuffer::new(8);
        for i in 1..=5 {
            h.insert(app(i, 0, i));
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.lowest(), Some(Seqno(1)));
        assert_eq!(h.highest(), Some(Seqno(5)));
        assert!(h.contains(Seqno(3)));
        assert_eq!(h.gc(Seqno(3)), 3);
        assert_eq!(h.lowest(), Some(Seqno(4)));
        assert!(!h.contains(Seqno(3)));
    }

    #[test]
    fn range_query() {
        let mut h = HistoryBuffer::new(8);
        for i in 1..=6 {
            h.insert(app(i, 0, i));
        }
        let got: Vec<u64> = h.range(Seqno(2), Seqno(4)).map(|e| e.seqno.0).collect();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut h = HistoryBuffer::new(2);
        h.insert(app(1, 0, 1));
        h.insert(app(1, 0, 1)); // same entry again: fine
        assert_eq!(h.len(), 1);
    }

    #[test]
    #[should_panic(expected = "conflicting history entries")]
    fn conflicting_insert_panics() {
        let mut h = HistoryBuffer::new(2);
        h.insert(app(1, 0, 1));
        h.insert(app(1, 1, 9));
    }

    #[test]
    fn full_buffer_refuses_app_but_accepts_control() {
        let mut h = HistoryBuffer::new(2);
        h.insert(app(1, 0, 1));
        h.insert(app(2, 0, 2));
        assert!(!h.has_room_for_app());
        // Control entries always fit: expelling a dead member is what
        // un-sticks a full buffer.
        h.insert(leave(3, 7));
        assert_eq!(h.len(), 3);
    }

    #[test]
    #[should_panic(expected = "history buffer full")]
    fn full_buffer_panics_on_forced_app_insert() {
        let mut h = HistoryBuffer::new(1);
        h.insert(app(1, 0, 1));
        h.insert(app(2, 0, 2));
    }

    #[test]
    fn max_sender_seqs_reconstruction() {
        let mut h = HistoryBuffer::new(8);
        h.insert(app(1, 0, 5));
        h.insert(app(2, 1, 3));
        h.insert(app(3, 0, 7));
        h.insert(leave(4, 2));
        let m = h.max_sender_seqs();
        assert_eq!(m.get(&MemberId(0)), Some(&7));
        assert_eq!(m.get(&MemberId(1)), Some(&3));
        assert_eq!(m.get(&MemberId(2)), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_cap_rejected() {
        HistoryBuffer::new(0);
    }

    #[test]
    fn evicting_insert_drops_oldest_when_full() {
        let mut h = HistoryBuffer::new(2);
        h.insert_evicting(app(1, 0, 1));
        h.insert_evicting(app(2, 0, 2));
        h.insert_evicting(app(3, 0, 3));
        assert_eq!(h.len(), 2);
        assert_eq!(h.lowest(), Some(Seqno(2)));
        assert_eq!(h.highest(), Some(Seqno(3)));
    }

    #[test]
    fn truncate_above_discards_tail() {
        let mut h = HistoryBuffer::new(8);
        for i in 1..=5 {
            h.insert(app(i, 0, i));
        }
        assert_eq!(h.truncate_above(Seqno(3)), 2);
        assert_eq!(h.highest(), Some(Seqno(3)));
        assert_eq!(h.truncate_above(Seqno(9)), 0);
    }
}
