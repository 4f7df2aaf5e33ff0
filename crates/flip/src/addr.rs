//! FLIP addresses: location-independent names for processes and groups.

/// A 64-bit FLIP address naming a process or a process group.
///
/// Real FLIP addresses are 64-bit random bitstrings chosen by the owner
/// (a "private" address is put through a one-way function to obtain the
/// "public" address others send to). This reproduction keeps the 64-bit
/// space and the process/group distinction — the properties the group
/// protocol relies on — and uses a tag bit instead of cryptography, which
/// the paper's experiments never exercise.
///
/// # Example
///
/// ```
/// use amoeba_flip::FlipAddress;
/// let p = FlipAddress::process(12);
/// let g = FlipAddress::group(12);
/// assert!(p.is_process() && !p.is_group());
/// assert!(g.is_group());
/// assert_ne!(p, g);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlipAddress(u64);

const GROUP_TAG: u64 = 1 << 63;

impl FlipAddress {
    /// The null address (never routable).
    pub const NULL: FlipAddress = FlipAddress(0);

    /// Creates the address of process number `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` has the group tag bit set.
    pub const fn process(n: u64) -> Self {
        assert!(n & GROUP_TAG == 0, "process id must not use the group tag bit");
        FlipAddress(n)
    }

    /// Creates the address of group number `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` has the group tag bit set.
    pub const fn group(n: u64) -> Self {
        assert!(n & GROUP_TAG == 0, "group id must not use the group tag bit");
        FlipAddress(n | GROUP_TAG)
    }

    /// Whether this address names a group.
    pub const fn is_group(self) -> bool {
        self.0 & GROUP_TAG != 0
    }

    /// Whether this address names a single process.
    pub const fn is_process(self) -> bool {
        !self.is_group() && self.0 != 0
    }

    /// The raw 64-bit representation (tag bit included).
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs an address from its raw representation.
    pub const fn from_u64(raw: u64) -> Self {
        FlipAddress(raw)
    }

    /// The untagged id (process number or group number).
    pub const fn id(self) -> u64 {
        self.0 & !GROUP_TAG
    }
}

impl std::fmt::Display for FlipAddress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == FlipAddress::NULL {
            write!(f, "flip:null")
        } else if self.is_group() {
            write!(f, "flip:g{}", self.id())
        } else {
            write!(f, "flip:p{}", self.id())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_and_group_namespaces_are_disjoint() {
        for n in [1u64, 2, 999, 1 << 40] {
            assert_ne!(FlipAddress::process(n), FlipAddress::group(n));
            assert_eq!(FlipAddress::process(n).id(), n);
            assert_eq!(FlipAddress::group(n).id(), n);
        }
    }

    #[test]
    fn null_is_neither() {
        assert!(!FlipAddress::NULL.is_process());
        assert!(!FlipAddress::NULL.is_group());
    }

    #[test]
    fn raw_roundtrip() {
        let g = FlipAddress::group(77);
        assert_eq!(FlipAddress::from_u64(g.as_u64()), g);
    }

    #[test]
    fn display_distinguishes_kinds() {
        assert_eq!(FlipAddress::process(3).to_string(), "flip:p3");
        assert_eq!(FlipAddress::group(3).to_string(), "flip:g3");
        assert_eq!(FlipAddress::NULL.to_string(), "flip:null");
    }
}
