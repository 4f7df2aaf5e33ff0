//! Group views: who is in the group, and who sequences.

use amoeba_flip::FlipAddress;

use crate::ids::{MemberId, ViewId};

/// One member's identity: its group-local id and its FLIP process
/// address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemberMeta {
    /// Group-local member id (stable, never reused).
    pub id: MemberId,
    /// The member's FLIP process address.
    pub addr: FlipAddress,
}

/// The membership of a group in one incarnation.
///
/// Views change in two ways: *in-band* (joins and leaves sequenced
/// through the total order, same [`ViewId`]) and *out-of-band* (a
/// `ResetGroup` recovery installs a view with the next [`ViewId`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupView {
    /// The incarnation.
    pub view_id: ViewId,
    /// Current members, sorted by member id.
    members: Vec<MemberMeta>,
    /// Which member is the sequencer.
    pub sequencer: MemberId,
}

impl GroupView {
    /// The initial view of a freshly created group: the founder alone,
    /// sequencing.
    pub fn initial(founder: MemberMeta) -> Self {
        GroupView { view_id: ViewId::INITIAL, members: vec![founder], sequencer: founder.id }
    }

    /// Builds a view from parts (used when installing a recovered view).
    ///
    /// # Panics
    ///
    /// Panics if `sequencer` is not among `members`.
    pub fn new(view_id: ViewId, mut members: Vec<MemberMeta>, sequencer: MemberId) -> Self {
        members.sort_by_key(|m| m.id);
        members.dedup_by_key(|m| m.id);
        assert!(
            members.iter().any(|m| m.id == sequencer),
            "sequencer {sequencer} must be a member"
        );
        GroupView { view_id, members, sequencer }
    }

    /// The members, sorted by id.
    pub fn members(&self) -> &[MemberMeta] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the view has no members (never true for a live group).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Looks up a member by id.
    pub fn member(&self, id: MemberId) -> Option<MemberMeta> {
        self.position(id).ok().map(|i| self.members[i])
    }

    /// Where `id` is (`Ok`) or would be inserted (`Err`) in the sorted
    /// member list.
    fn position(&self, id: MemberId) -> Result<usize, usize> {
        self.members.binary_search_by_key(&id, |m| m.id)
    }

    /// Looks up a member by process address.
    pub fn member_by_addr(&self, addr: FlipAddress) -> Option<MemberMeta> {
        self.members.iter().find(|m| m.addr == addr).copied()
    }

    /// Whether `id` is a current member.
    pub fn contains(&self, id: MemberId) -> bool {
        self.member(id).is_some()
    }

    /// The sequencer's metadata.
    ///
    /// # Panics
    ///
    /// Panics if the view is internally inconsistent (the sequencer must
    /// always be a member).
    pub fn sequencer_meta(&self) -> MemberMeta {
        self.member(self.sequencer).expect("sequencer is always a member")
    }

    /// Adds a member (in-band join). Idempotent by member id.
    pub fn add(&mut self, meta: MemberMeta) {
        if let Err(i) = self.position(meta.id) {
            self.members.insert(i, meta);
        }
    }

    /// Removes a member (in-band leave). Idempotent.
    pub fn remove(&mut self, id: MemberId) {
        if let Ok(i) = self.position(id) {
            self.members.remove(i);
        }
    }

    /// The `r` lowest-numbered members excluding the sequencer — the
    /// members that must acknowledge a tentative broadcast of resilience
    /// `r` (paper §3.1: "to simplify the implementation we pick the r
    /// lowest-numbered"). The sequencer already holds the message, so it
    /// never acknowledges to itself; together the sequencer plus the `r`
    /// ackers are `r + 1` holders, so any `r` crashes leave at least one
    /// survivor with the full history — the paper's stated guarantee.
    pub fn resilience_ackers(&self, r: u32) -> Vec<MemberId> {
        self.members
            .iter()
            .map(|m| m.id)
            .filter(|&id| id != self.sequencer)
            .take(r as usize)
            .collect()
    }

    /// The member id that should take over sequencing if the current
    /// sequencer leaves gracefully: the lowest-numbered other member.
    pub fn handoff_candidate(&self) -> Option<MemberId> {
        self.members.iter().map(|m| m.id).find(|&id| id != self.sequencer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(id: u32) -> MemberMeta {
        MemberMeta { id: MemberId(id), addr: FlipAddress::process(100 + id as u64) }
    }

    #[test]
    fn initial_view_is_founder_sequencing() {
        let v = GroupView::initial(meta(0));
        assert_eq!(v.view_id, ViewId::INITIAL);
        assert_eq!(v.len(), 1);
        assert_eq!(v.sequencer, MemberId(0));
        assert_eq!(v.sequencer_meta().addr, FlipAddress::process(100));
    }

    #[test]
    fn add_remove_members_keeps_sorted_ids() {
        let mut v = GroupView::initial(meta(0));
        v.add(meta(2));
        v.add(meta(1));
        v.add(meta(2)); // idempotent
        assert_eq!(v.members().iter().map(|m| m.id.0).collect::<Vec<_>>(), vec![0, 1, 2]);
        v.remove(MemberId(1));
        assert!(!v.contains(MemberId(1)));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn lookup_by_addr() {
        let mut v = GroupView::initial(meta(0));
        v.add(meta(3));
        assert_eq!(v.member_by_addr(FlipAddress::process(103)).unwrap().id, MemberId(3));
        assert_eq!(v.member_by_addr(FlipAddress::process(999)), None);
    }

    #[test]
    fn resilience_ackers_are_lowest_excluding_sequencer() {
        let mut v = GroupView::initial(meta(0)); // member 0 sequences
        for i in 1..6 {
            v.add(meta(i));
        }
        // r=2: candidates are 1,2,3,4,5 -> take 1,2.
        assert_eq!(v.resilience_ackers(2), vec![MemberId(1), MemberId(2)]);
        // r larger than candidates: everyone but the sequencer.
        assert_eq!(v.resilience_ackers(10).len(), 5);
        // In the paper's Figure 7 setup (group size r+1), every
        // non-sequencer member acknowledges: 3 + r messages per send.
        assert_eq!(v.resilience_ackers(5).len(), 5);
    }

    #[test]
    fn handoff_prefers_lowest_other_member() {
        let mut v = GroupView::initial(meta(0));
        assert_eq!(v.handoff_candidate(), None);
        v.add(meta(4));
        v.add(meta(2));
        assert_eq!(v.handoff_candidate(), Some(MemberId(2)));
    }

    /// Binary-searched lookups and positional inserts agree with an
    /// ordered map under random adds (ids out of order, repeats) and
    /// removes.
    #[test]
    fn random_edits_match_an_ordered_map() {
        let mut v = GroupView::initial(meta(0));
        let mut reference = std::collections::BTreeMap::from([(MemberId(0), meta(0))]);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..5_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let id = MemberId((x >> 8) as u32 % 200);
            match x % 3 {
                0 if id != v.sequencer => {
                    v.remove(id);
                    reference.remove(&id);
                }
                _ => {
                    v.add(meta(id.0));
                    reference.entry(id).or_insert(meta(id.0));
                }
            }
            assert_eq!(v.members(), reference.values().copied().collect::<Vec<_>>());
            let probe = MemberId((x >> 32) as u32 % 220);
            assert_eq!(v.member(probe), reference.get(&probe).copied());
            assert_eq!(v.contains(probe), reference.contains_key(&probe));
        }
        assert_eq!(v.sequencer_meta(), meta(0));
    }

    #[test]
    #[should_panic(expected = "must be a member")]
    fn new_view_requires_sequencer_membership() {
        GroupView::new(ViewId(2, 0), vec![meta(1)], MemberId(9));
    }
}
