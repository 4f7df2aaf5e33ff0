//! Protocol identifiers.

/// Identifies a process group. Also determines the group's FLIP address
/// ([`GroupId::flip_address`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub u64);

impl GroupId {
    /// The FLIP group address all members listen on.
    pub fn flip_address(self) -> amoeba_flip::FlipAddress {
        amoeba_flip::FlipAddress::group(self.0)
    }
}

impl std::fmt::Display for GroupId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "group{}", self.0)
    }
}

/// A member's identifier within its group, assigned at join time by the
/// sequencer.
///
/// Member ids are *never reused* within a group's lifetime: resilience
/// acknowledgements are sent by the "r lowest-numbered" live members
/// (paper §3.1), which must be unambiguous across membership changes.
/// The group's creator is member 0 and the initial sequencer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemberId(pub u32);

impl MemberId {
    /// The group creator (initial sequencer).
    pub const FOUNDER: MemberId = MemberId(0);
    /// Placeholder used by processes that have not been admitted yet.
    pub const UNASSIGNED: MemberId = MemberId(u32::MAX);
}

impl std::fmt::Display for MemberId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == MemberId::UNASSIGNED {
            write!(f, "m?")
        } else {
            write!(f, "m{}", self.0)
        }
    }
}

/// The group's incarnation, bumped by each successful `ResetGroup`
/// recovery. Ordinary joins and leaves do *not* bump the view: they
/// are ordinary events inside the total order.
///
/// An incarnation is `(epoch, coordinator)`, ordered epoch-first. The
/// coordinator disambiguator is load-bearing: two recoveries can race
/// to completion (invitations and abdications are lossy best-effort),
/// and with a bare epoch both would install the *same* view id over
/// different member sets and horizons — the epoch check would then
/// freely mix traffic of two incompatible lineages and the total
/// order would diverge silently (chaos-explorer finding under
/// cascading recoveries). With the pair, concurrent incarnations get
/// distinct, totally-ordered ids; the higher one wins and the other
/// lineage's members learn they are out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewId(
    /// The recovery epoch (1 at creation).
    pub u32,
    /// The member id of the coordinator that installed this
    /// incarnation (0 — the founder — at creation).
    pub u32,
);

impl ViewId {
    /// The view a freshly created group starts in.
    pub const INITIAL: ViewId = ViewId(1, 0);

    /// The view a recovery coordinated by `coord` installs on top of
    /// this one.
    pub fn succ(self, coord: MemberId) -> ViewId {
        ViewId(self.0 + 1, coord.0)
    }

    /// The recovery epoch.
    pub fn epoch(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for ViewId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.1 == 0 {
            write!(f, "v{}", self.0)
        } else {
            write!(f, "v{}.{}", self.0, self.1)
        }
    }
}

/// A global sequence number stamped by the sequencer. The sequence is
/// dense: every seqno from 1 upward names exactly one accepted event
/// (message, join, or leave), group-wide. `Seqno(0)` means "nothing yet".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Seqno(pub u64);

impl Seqno {
    /// "Nothing delivered yet" / the predecessor of the first seqno.
    pub const ZERO: Seqno = Seqno(0);

    /// The next sequence number.
    pub fn next(self) -> Seqno {
        Seqno(self.0 + 1)
    }

    /// The previous sequence number.
    ///
    /// # Panics
    ///
    /// Panics on `Seqno::ZERO`.
    pub fn prev(self) -> Seqno {
        Seqno(self.0.checked_sub(1).expect("Seqno::ZERO has no predecessor"))
    }
}

impl std::fmt::Display for Seqno {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_flip_address_is_a_group_address() {
        assert!(GroupId(5).flip_address().is_group());
        assert_eq!(GroupId(5).flip_address().id(), 5);
    }

    #[test]
    fn seqno_succession() {
        assert_eq!(Seqno::ZERO.next(), Seqno(1));
        assert_eq!(Seqno(5).prev(), Seqno(4));
        assert!(Seqno(2) < Seqno(10));
    }

    #[test]
    #[should_panic(expected = "no predecessor")]
    fn seqno_zero_has_no_prev() {
        Seqno::ZERO.prev();
    }

    #[test]
    fn view_succession() {
        assert_eq!(ViewId::INITIAL.succ(MemberId(3)), ViewId(2, 3));
        assert!(ViewId(2, 1) < ViewId(2, 3), "same epoch orders by coordinator");
        assert!(ViewId(2, 9) < ViewId(3, 0), "epoch dominates");
        assert_eq!(ViewId(2, 3).to_string(), "v2.3");
    }

    #[test]
    fn displays() {
        assert_eq!(GroupId(1).to_string(), "group1");
        assert_eq!(MemberId(3).to_string(), "m3");
        assert_eq!(MemberId::UNASSIGNED.to_string(), "m?");
        assert_eq!(ViewId(2, 0).to_string(), "v2");
        assert_eq!(Seqno(9).to_string(), "#9");
    }
}
