//! The future-event set: one FIFO lane per distinct instant.
//!
//! Events pop in exact `(at, seq)` order — earliest time first, FIFO
//! among equal times — which is the property every golden test and
//! paper anchor depends on. The simulation hands out `seq` in
//! increasing order, so appending to an instant's lane keeps that lane
//! in `seq` order by construction: the front of the first lane is
//! always the global minimum, with no comparison between events at all.
//!
//! Simulated worlds schedule in large same-instant bursts (one
//! multicast on a thousand-member group schedules a thousand deliveries
//! at the same microsecond), so distinct instants are far fewer than
//! events: a burst is one lane, and the ordered map over instants stays
//! small. Cancelling removes the event from its lane in place (the lane
//! is sorted by `seq`, so the search is a binary one); nothing cancelled
//! is ever left behind to be skipped on pop.

use std::collections::{BTreeMap, VecDeque};

/// Emptied lanes kept for reuse, so a steady stream of bursts does not
/// reallocate a deque per instant.
const SPARE_LANES: usize = 64;

type Lane<T> = VecDeque<(u64, T)>;

/// A priority queue over `(at, seq)` keys, where `seq` rises with every
/// push.
pub(crate) struct Lanes<T> {
    /// Instant → its events in push order. No lane is ever empty.
    lanes: BTreeMap<u64, Lane<T>>,
    spare: Vec<Lane<T>>,
    len: usize,
}

impl<T> Lanes<T> {
    pub(crate) fn new() -> Self {
        Lanes { lanes: BTreeMap::new(), spare: Vec::new(), len: 0 }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Queues `item` at `(at, seq)`. `seq` must exceed every `seq`
    /// pushed before it.
    pub(crate) fn push(&mut self, at: u64, seq: u64, item: T) {
        let spare = &mut self.spare;
        let lane = self.lanes.entry(at).or_insert_with(|| spare.pop().unwrap_or_default());
        debug_assert!(lane.back().is_none_or(|&(last, _)| last < seq));
        lane.push_back((seq, item));
        self.len += 1;
    }

    /// The instant of the earliest item.
    pub(crate) fn peek(&self) -> Option<u64> {
        self.lanes.first_key_value().map(|(&at, _)| at)
    }

    /// Removes and returns the earliest item as `(at, seq, item)`.
    pub(crate) fn pop(&mut self) -> Option<(u64, u64, T)> {
        let mut first = self.lanes.first_entry()?;
        let at = *first.key();
        let (seq, item) = first.get_mut().pop_front().expect("lanes are never empty");
        if first.get().is_empty() {
            let lane = first.remove();
            self.retire(lane);
        }
        self.len -= 1;
        Some((at, seq, item))
    }

    /// Removes the item queued at `(at, seq)`, if it is still queued.
    pub(crate) fn remove(&mut self, at: u64, seq: u64) -> Option<T> {
        let lane = self.lanes.get_mut(&at)?;
        let i = lane.binary_search_by_key(&seq, |&(s, _)| s).ok()?;
        let (_, item) = lane.remove(i).expect("index was found");
        if lane.is_empty() {
            let lane = self.lanes.remove(&at).expect("lane exists");
            self.retire(lane);
        }
        self.len -= 1;
        Some(item)
    }

    fn retire(&mut self, lane: Lane<T>) {
        if self.spare.len() < SPARE_LANES {
            self.spare.push(lane);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::cmp::Reverse;
    use std::collections::{BTreeSet, BinaryHeap};

    #[test]
    fn pops_in_at_then_seq_order() {
        let mut q = Lanes::new();
        q.push(30, 0, "c");
        q.push(10, 1, "a");
        q.push(10, 2, "a2");
        q.push(20, 3, "b");
        assert_eq!(q.peek(), Some(10));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![(10, 1, "a"), (10, 2, "a2"), (20, 3, "b"), (30, 0, "c")]
        );
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn push_behind_an_idle_advanced_clock_is_found() {
        let mut q = Lanes::new();
        q.push(1_000_000, 0, 0);
        assert_eq!(q.pop(), Some((1_000_000, 0, 0)));
        // A far-future item arrives first; a later push just after the
        // last popped instant must still pop before it.
        q.push(5_000_000, 1, 1);
        assert_eq!(q.peek(), Some(5_000_000));
        q.push(1_000_001, 2, 2);
        assert_eq!(q.pop(), Some((1_000_001, 2, 2)));
        assert_eq!(q.pop(), Some((5_000_000, 1, 1)));
    }

    #[test]
    fn same_instant_burst_is_fifo() {
        let mut q = Lanes::new();
        for seq in 0..1000 {
            q.push(42, seq, seq);
        }
        for seq in 0..1000 {
            assert_eq!(q.pop(), Some((42, seq, seq)));
        }
    }

    /// The property everything depends on: identical pop order to a
    /// binary heap over `(at, seq)` across sparse and dense phases, with
    /// cancels of queued, already-popped and already-cancelled items
    /// interleaved. The reference cancels lazily (a cancelled key is
    /// skipped when it surfaces), so it shares no mechanism with
    /// in-place removal.
    #[test]
    fn differential_vs_binary_heap() {
        let mut rng = SplitMix64::new(0xCA1E);
        let mut q = Lanes::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut live: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut issued: Vec<(u64, u64)> = Vec::new();
        let (mut seq, mut now) = (0u64, 0u64);
        let (mut hits, mut misses) = (0, 0);
        for round in 0..30_000u64 {
            // Mixed workload: mostly near-future pushes, occasional
            // far-future timers, interleaved pops, bursty phases.
            let burst = if round % 7_000 < 300 { 4 } else { 1 };
            for _ in 0..burst {
                let delta = match rng.gen_range(10) {
                    0 => rng.gen_range(2_000_000), // watchdog-like
                    1..=3 => 0,                    // same instant
                    _ => rng.gen_range(500),       // typical spacing
                };
                let key = (now + delta, seq);
                q.push(key.0, key.1, seq);
                heap.push(Reverse(key));
                live.insert(key);
                issued.push(key);
                seq += 1;
            }
            if rng.gen_range(4) == 0 {
                let key = issued[rng.gen_range(issued.len() as u64) as usize];
                let want = live.remove(&key).then_some(key.1);
                assert_eq!(q.remove(key.0, key.1), want, "cancel diverged at round {round}");
                if want.is_some() {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            if rng.gen_range(3) > 0 {
                let want = std::iter::from_fn(|| heap.pop())
                    .map(|Reverse(key)| key)
                    .find(|key| live.remove(key))
                    .map(|(at, s)| (at, s, s));
                let got = q.pop();
                assert_eq!(got, want, "diverged at round {round}");
                if let Some((at, _, _)) = got {
                    now = at;
                }
            }
            assert_eq!(q.len(), live.len());
        }
        assert!(hits > 1_000 && misses > 1_000, "cancels must hit both cases: {hits} / {misses}");
        for key in std::iter::from_fn(|| heap.pop()).map(|Reverse(key)| key) {
            if live.remove(&key) {
                assert_eq!(q.pop(), Some((key.0, key.1, key.1)));
            }
        }
        assert!(q.pop().is_none());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn empties_and_refills_without_losing_items() {
        let mut q = Lanes::new();
        for seq in 0..10_000u64 {
            q.push(seq * 3, seq, seq);
        }
        for seq in 0..9_990u64 {
            assert_eq!(q.pop(), Some((seq * 3, seq, seq)));
        }
        assert_eq!(q.len(), 10);
        // Refill in bursts of eight per instant, reusing retired lanes.
        for seq in 10_000..20_000u64 {
            q.push(30_000 + seq / 8, seq, seq);
        }
        let mut last = (0, 0);
        let mut count = 0;
        while let Some((at, s, _)) = q.pop() {
            assert!((at, s) > last || count == 0);
            last = (at, s);
            count += 1;
        }
        assert_eq!(count, 10_010);
    }
}
