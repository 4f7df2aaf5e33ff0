//! The FLIP packet header and its binary codec.
//!
//! The paper's accounting charges **40 bytes** of FLIP header on every
//! packet (part of the 116-byte overhead of a null broadcast); the layout
//! here is sized to exactly that.

use bytes::{Buf, BufMut};

use crate::addr::FlipAddress;

/// Size of an encoded [`FlipHeader`] in bytes (paper: 40).
pub const FLIP_HEADER_LEN: u32 = 40;

const MAGIC: u16 = 0xF11F;

/// The FLIP packet type.
///
/// Real FLIP distinguishes several operations; the evaluation exercises
/// point-to-point sends and group sends, plus the locate mechanism that
/// resolves an address the sender has no route for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlipKind {
    /// Point-to-point datagram to a process address.
    Unidata,
    /// Datagram to a group address (may fan out as hardware multicast or
    /// as n point-to-point packets — FLIP treats multicast as an
    /// optimization).
    Multidata,
    /// "Where is this address?" — broadcast when no route is known.
    Locate,
    /// Answer to a locate.
    HereIs,
}

impl FlipKind {
    fn to_byte(self) -> u8 {
        match self {
            FlipKind::Unidata => 0,
            FlipKind::Multidata => 1,
            FlipKind::Locate => 2,
            FlipKind::HereIs => 3,
        }
    }

    fn from_byte(b: u8) -> Result<Self, DecodeFlipError> {
        Ok(match b {
            0 => FlipKind::Unidata,
            1 => FlipKind::Multidata,
            2 => FlipKind::Locate,
            3 => FlipKind::HereIs,
            other => return Err(DecodeFlipError::BadKind(other)),
        })
    }
}

/// A decoded FLIP header.
///
/// Fragmentation fields: a message of `total_len` payload bytes is cut
/// into `frag_count` fragments; this packet carries fragment
/// `frag_index`. Unfragmented messages use `frag_index = 0`,
/// `frag_count = 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlipHeader {
    /// Packet type.
    pub kind: FlipKind,
    /// Source process address.
    pub src: FlipAddress,
    /// Destination process or group address.
    pub dst: FlipAddress,
    /// Sender-local message identifier (scopes fragment reassembly).
    pub msg_id: u64,
    /// Index of this fragment within the message.
    pub frag_index: u16,
    /// Total number of fragments in the message.
    pub frag_count: u16,
    /// Total payload length of the whole message in bytes.
    pub total_len: u32,
}

impl FlipHeader {
    /// Builds an unfragmented header.
    pub fn single(kind: FlipKind, src: FlipAddress, dst: FlipAddress, msg_id: u64, len: u32) -> Self {
        FlipHeader { kind, src, dst, msg_id, frag_index: 0, frag_count: 1, total_len: len }
    }

    /// Encodes into exactly [`FLIP_HEADER_LEN`] bytes.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u16(MAGIC);
        buf.put_u8(self.kind.to_byte());
        buf.put_u8(0); // flags, reserved
        buf.put_u64(self.src.as_u64());
        buf.put_u64(self.dst.as_u64());
        buf.put_u64(self.msg_id);
        buf.put_u16(self.frag_index);
        buf.put_u16(self.frag_count);
        buf.put_u32(self.total_len);
        buf.put_u32(0); // reserved padding to 40 bytes
    }

    /// Decodes a header previously produced by [`FlipHeader::encode`].
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer is short, the magic number is
    /// wrong, the kind byte is unknown, or the fragment fields are
    /// inconsistent.
    pub fn decode(buf: &mut impl Buf) -> Result<Self, DecodeFlipError> {
        if buf.remaining() < FLIP_HEADER_LEN as usize {
            return Err(DecodeFlipError::Truncated);
        }
        let magic = buf.get_u16();
        if magic != MAGIC {
            return Err(DecodeFlipError::BadMagic(magic));
        }
        let kind = FlipKind::from_byte(buf.get_u8())?;
        let _flags = buf.get_u8();
        let src = FlipAddress::from_u64(buf.get_u64());
        let dst = FlipAddress::from_u64(buf.get_u64());
        let msg_id = buf.get_u64();
        let frag_index = buf.get_u16();
        let frag_count = buf.get_u16();
        let total_len = buf.get_u32();
        let _reserved = buf.get_u32();
        if frag_count == 0 || frag_index >= frag_count {
            return Err(DecodeFlipError::BadFragment { index: frag_index, count: frag_count });
        }
        Ok(FlipHeader { kind, src, dst, msg_id, frag_index, frag_count, total_len })
    }
}

/// Failure to decode a [`FlipHeader`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeFlipError {
    /// Fewer than 40 bytes available.
    Truncated,
    /// The magic number did not match.
    BadMagic(u16),
    /// Unknown packet kind byte.
    BadKind(u8),
    /// `frag_index`/`frag_count` are inconsistent.
    BadFragment {
        /// Claimed fragment index.
        index: u16,
        /// Claimed fragment count.
        count: u16,
    },
}

impl std::fmt::Display for DecodeFlipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeFlipError::Truncated => write!(f, "flip header truncated"),
            DecodeFlipError::BadMagic(m) => write!(f, "bad flip magic {m:#06x}"),
            DecodeFlipError::BadKind(k) => write!(f, "unknown flip packet kind {k}"),
            DecodeFlipError::BadFragment { index, count } => {
                write!(f, "inconsistent fragment fields {index}/{count}")
            }
        }
    }
}

impl std::error::Error for DecodeFlipError {}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn sample() -> FlipHeader {
        FlipHeader {
            kind: FlipKind::Multidata,
            src: FlipAddress::process(42),
            dst: FlipAddress::group(17),
            msg_id: 0xDEAD_BEEF,
            frag_index: 2,
            frag_count: 6,
            total_len: 8_000,
        }
    }

    #[test]
    fn encode_is_exactly_40_bytes() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        assert_eq!(buf.len(), FLIP_HEADER_LEN as usize);
    }

    #[test]
    fn roundtrip_all_kinds() {
        for kind in [FlipKind::Unidata, FlipKind::Multidata, FlipKind::Locate, FlipKind::HereIs] {
            let hdr = FlipHeader { kind, ..sample() };
            let mut buf = BytesMut::new();
            hdr.encode(&mut buf);
            assert_eq!(FlipHeader::decode(&mut buf.freeze()).unwrap(), hdr);
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        let mut short = buf.freeze().slice(0..20);
        assert_eq!(FlipHeader::decode(&mut short), Err(DecodeFlipError::Truncated));
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        let mut bytes = buf.to_vec();
        bytes[0] = 0;
        assert!(matches!(
            FlipHeader::decode(&mut &bytes[..]),
            Err(DecodeFlipError::BadMagic(_))
        ));
    }

    #[test]
    fn decode_rejects_bad_kind() {
        let mut buf = BytesMut::new();
        sample().encode(&mut buf);
        let mut bytes = buf.to_vec();
        bytes[2] = 200;
        assert_eq!(FlipHeader::decode(&mut &bytes[..]), Err(DecodeFlipError::BadKind(200)));
    }

    #[test]
    fn decode_rejects_inconsistent_fragments() {
        let mut hdr = sample();
        hdr.frag_index = 6; // == count: out of range
        let mut buf = BytesMut::new();
        hdr.encode(&mut buf);
        assert!(matches!(
            FlipHeader::decode(&mut buf.freeze()),
            Err(DecodeFlipError::BadFragment { index: 6, count: 6 })
        ));
    }

    #[test]
    fn single_constructor() {
        let h = FlipHeader::single(
            FlipKind::Unidata,
            FlipAddress::process(1),
            FlipAddress::process(2),
            9,
            100,
        );
        assert_eq!(h.frag_count, 1);
        assert_eq!(h.frag_index, 0);
        assert_eq!(h.total_len, 100);
    }
}
