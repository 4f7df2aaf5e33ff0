//! Fragmentation and reassembly.
//!
//! Messages larger than one Ethernet frame (payload budget ≈ 1514 − link
//! − FLIP − group headers) are cut into fragments; the receiver
//! reassembles them keyed by (source address, message id). The paper's
//! 1-Kbyte to 8000-byte experiments all exercise this path — an
//! 8000-byte broadcast is 6 fragments on the wire.
//!
//! The paper notes Amoeba deliberately had *no multicast flow control*
//! (an open research problem in 1996) and capped messages at 8000 bytes;
//! we mirror that: reassembly recovers from loss only through the group
//! layer's retransmission, and stale partial messages are purged by age.

use std::collections::HashMap;

use bytes::{BufMut, Bytes, BytesMut};

use crate::addr::FlipAddress;

/// Splits `total_len` bytes into per-fragment lengths of at most
/// `max_frag` each. A zero-length message still produces one (empty)
/// fragment, because a header must travel.
///
/// # Panics
///
/// Panics if `max_frag` is zero.
///
/// # Example
///
/// ```
/// use amoeba_flip::split_lens;
/// assert_eq!(split_lens(8_000, 1_430), vec![1_430, 1_430, 1_430, 1_430, 1_430, 850]);
/// assert_eq!(split_lens(0, 1_430), vec![0]);
/// ```
pub fn split_lens(total_len: u32, max_frag: u32) -> Vec<u32> {
    assert!(max_frag > 0, "fragment size must be positive");
    if total_len == 0 {
        return vec![0];
    }
    let mut lens = Vec::with_capacity(total_len.div_ceil(max_frag) as usize);
    let mut remaining = total_len;
    while remaining > 0 {
        let take = remaining.min(max_frag);
        lens.push(take);
        remaining -= take;
    }
    lens
}

/// Slices a payload into at most `max_frag`-byte fragments **without
/// copying**: every fragment is a shared-ownership view of the parent
/// allocation (see [`bytes::Bytes::slice`]). An empty payload yields
/// one empty fragment, mirroring [`split_lens`].
///
/// # Panics
///
/// Panics if `max_frag` is zero.
///
/// # Example
///
/// ```
/// use amoeba_flip::split_payload;
/// use bytes::Bytes;
/// let payload = Bytes::from(vec![7u8; 8_000]);
/// let frags = split_payload(&payload, 1_430);
/// assert_eq!(frags.len(), 6);
/// assert_eq!(frags.iter().map(|f| f.len()).sum::<usize>(), 8_000);
/// ```
pub fn split_payload(payload: &Bytes, max_frag: u32) -> Vec<Bytes> {
    let lens = split_lens(payload.len() as u32, max_frag);
    let mut frags = Vec::with_capacity(lens.len());
    let mut off = 0usize;
    for len in lens {
        let len = len as usize;
        frags.push(payload.slice(off..off + len));
        off += len;
    }
    frags
}

/// Joins in-order fragment bodies back into one contiguous payload with
/// **exactly one allocation** — and none at all for a single fragment,
/// which is returned as-is (the unfragmented fast path).
pub fn assemble(frags: Vec<Bytes>) -> Bytes {
    if frags.len() == 1 {
        return frags.into_iter().next().expect("len checked");
    }
    let total: usize = frags.iter().map(Bytes::len).sum();
    let mut out = BytesMut::with_capacity(total);
    for frag in &frags {
        out.put_slice(frag);
    }
    out.freeze()
}

/// Identifies a message being reassembled: fragments of the same message
/// share the sender's address and the sender-local message id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FragKey {
    /// Source process address.
    pub src: FlipAddress,
    /// Sender-local message id.
    pub msg_id: u64,
}

#[derive(Debug)]
struct Pending<B> {
    slots: Vec<Option<B>>,
    received: u16,
    created_at: u64,
}

/// Reassembles fragmented messages.
///
/// Generic over the fragment body `B`: the live runtime reassembles real
/// byte chunks, the simulator reassembles logical message handles (only
/// timing is simulated there).
///
/// # Example
///
/// ```
/// use amoeba_flip::{FlipAddress, FragKey, Reassembler};
/// let mut r = Reassembler::new();
/// let key = FragKey { src: FlipAddress::process(1), msg_id: 5 };
/// assert_eq!(r.insert(key, 1, 2, "world", 0), None);
/// assert_eq!(r.insert(key, 0, 2, "hello", 0), Some(vec!["hello", "world"]));
/// ```
#[derive(Debug)]
pub struct Reassembler<B> {
    pending: HashMap<FragKey, Pending<B>>,
}

impl<B> Default for Reassembler<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B> Reassembler<B> {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Reassembler { pending: HashMap::new() }
    }

    /// Accepts fragment `index` of `count` for `key`, stamped with an
    /// arrival time `now` (any monotonic scale; used only for purging).
    ///
    /// Returns the in-order fragment bodies once the message completes.
    /// Duplicate fragments are ignored; a fragment whose `count` differs
    /// from what was seen before resets the entry (a stale collision on
    /// the key).
    pub fn insert(&mut self, key: FragKey, index: u16, count: u16, body: B, now: u64) -> Option<Vec<B>> {
        if count == 0 || index >= count {
            return None; // malformed; header decoding normally rejects this
        }
        if count == 1 {
            // Fast path: unfragmented (a stale partial under the same
            // key is dropped; with none pending there is nothing to hash).
            if !self.pending.is_empty() {
                self.pending.remove(&key);
            }
            return Some(vec![body]);
        }
        let entry = self.pending.entry(key).or_insert_with(|| Pending {
            slots: Vec::new(),
            received: 0,
            created_at: now,
        });
        if entry.slots.len() != count as usize {
            // First fragment, or a conflicting count: (re)initialize.
            entry.slots = (0..count).map(|_| None).collect();
            entry.received = 0;
            entry.created_at = now;
        }
        let slot = &mut entry.slots[index as usize];
        if slot.is_some() {
            return None; // duplicate
        }
        *slot = Some(body);
        entry.received += 1;
        if entry.received == count {
            let done = self.pending.remove(&key).expect("entry exists");
            Some(done.slots.into_iter().map(|s| s.expect("all slots filled")).collect())
        } else {
            None
        }
    }

    /// Discards partial messages first seen strictly before `cutoff`.
    /// Returns how many were discarded.
    pub fn purge_older_than(&mut self, cutoff: u64) -> usize {
        let before = self.pending.len();
        self.pending.retain(|_, p| p.created_at >= cutoff);
        before - self.pending.len()
    }

    /// Number of messages currently awaiting fragments.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }
}

impl Reassembler<Bytes> {
    /// [`Reassembler::insert`] for real byte fragments: on completion
    /// the bodies are joined via [`assemble`] — exactly one allocation,
    /// zero for the single-fragment fast path.
    pub fn insert_payload(
        &mut self,
        key: FragKey,
        index: u16,
        count: u16,
        body: Bytes,
        now: u64,
    ) -> Option<Bytes> {
        self.insert(key, index, count, body, now).map(assemble)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(msg_id: u64) -> FragKey {
        FragKey { src: FlipAddress::process(9), msg_id }
    }

    #[test]
    fn split_covers_exactly() {
        for (total, max) in [(1u32, 10u32), (10, 10), (11, 10), (8_000, 1_430), (99, 7)] {
            let lens = split_lens(total, max);
            assert_eq!(lens.iter().sum::<u32>(), total);
            assert!(lens.iter().all(|&l| l > 0 && l <= max));
        }
    }

    #[test]
    fn split_zero_gives_one_empty_fragment() {
        assert_eq!(split_lens(0, 100), vec![0]);
    }

    #[test]
    #[should_panic(expected = "fragment size must be positive")]
    fn split_rejects_zero_max() {
        split_lens(10, 0);
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut r = Reassembler::new();
        assert_eq!(r.insert(key(1), 2, 3, "c", 0), None);
        assert_eq!(r.insert(key(1), 0, 3, "a", 1), None);
        assert_eq!(r.insert(key(1), 1, 3, "b", 2), Some(vec!["a", "b", "c"]));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn duplicates_ignored() {
        let mut r = Reassembler::new();
        assert_eq!(r.insert(key(2), 0, 2, 10, 0), None);
        assert_eq!(r.insert(key(2), 0, 2, 11, 0), None, "duplicate index dropped");
        assert_eq!(r.insert(key(2), 1, 2, 20, 0), Some(vec![10, 20]));
    }

    #[test]
    fn interleaved_messages_do_not_mix() {
        let mut r = Reassembler::new();
        assert_eq!(r.insert(key(1), 0, 2, "a1", 0), None);
        assert_eq!(r.insert(key(2), 0, 2, "b1", 0), None);
        assert_eq!(r.insert(key(2), 1, 2, "b2", 0), Some(vec!["b1", "b2"]));
        assert_eq!(r.insert(key(1), 1, 2, "a2", 0), Some(vec!["a1", "a2"]));
    }

    #[test]
    fn single_fragment_fast_path() {
        let mut r = Reassembler::new();
        assert_eq!(r.insert(key(3), 0, 1, 42, 0), Some(vec![42]));
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn conflicting_count_resets_entry() {
        let mut r = Reassembler::new();
        assert_eq!(r.insert(key(4), 0, 3, 1, 0), None);
        // Same key arrives claiming 2 fragments: stale entry is replaced.
        assert_eq!(r.insert(key(4), 0, 2, 5, 1), None);
        assert_eq!(r.insert(key(4), 1, 2, 6, 1), Some(vec![5, 6]));
    }

    #[test]
    fn purge_drops_stale_partials() {
        let mut r = Reassembler::new();
        r.insert(key(1), 0, 2, 0, 100);
        r.insert(key(2), 0, 2, 0, 200);
        assert_eq!(r.pending(), 2);
        assert_eq!(r.purge_older_than(150), 1);
        assert_eq!(r.pending(), 1);
        // The survivor can still complete.
        assert_eq!(r.insert(key(2), 1, 2, 1, 300), Some(vec![0, 1]));
    }

    #[test]
    fn split_payload_is_zero_copy() {
        let payload = Bytes::from((0..=255u8).cycle().take(4000).collect::<Vec<u8>>());
        let frags = split_payload(&payload, 1430);
        assert_eq!(frags.len(), 3);
        let mut off = 0;
        for frag in &frags {
            assert!(frag.shares_allocation(&payload), "fragment must be a view, not a copy");
            assert_eq!(&frag[..], &payload[off..off + frag.len()]);
            off += frag.len();
        }
        assert_eq!(off, payload.len());
    }

    #[test]
    fn split_payload_empty_gives_one_empty_fragment() {
        let frags = split_payload(&Bytes::new(), 100);
        assert_eq!(frags.len(), 1);
        assert!(frags[0].is_empty());
    }

    #[test]
    fn assemble_round_trips_and_single_frag_is_free() {
        let payload = Bytes::from(vec![42u8; 5000]);
        let frags = split_payload(&payload, 1430);
        assert_eq!(assemble(frags), payload);
        // One fragment: returned as-is, same allocation.
        let single = split_payload(&payload, 8000);
        assert_eq!(single.len(), 1);
        assert!(assemble(single).shares_allocation(&payload));
    }

    #[test]
    fn reassembler_joins_real_bytes() {
        let payload = Bytes::from(vec![9u8; 3000]);
        let frags = split_payload(&payload, 1430);
        let count = frags.len() as u16;
        let mut r = Reassembler::new();
        let mut done = None;
        // Deliver out of order.
        for (i, frag) in frags.into_iter().enumerate().rev() {
            done = r.insert_payload(key(7), i as u16, count, frag, 0);
        }
        assert_eq!(done.expect("completes"), payload);
    }

    #[test]
    fn malformed_fragment_fields_rejected() {
        let mut r = Reassembler::new();
        assert_eq!(r.insert(key(5), 5, 5, 0, 0), None);
        assert_eq!(r.insert(key(5), 0, 0, 0, 0), None);
        assert_eq!(r.pending(), 0);
    }
}
