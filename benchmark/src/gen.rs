//! Seeded inputs. Everything a workload feeds the program is derived
//! from `--seed` here — payload bytes, key order, the put/get choice —
//! by a generator the benchmark owns, so the same seed gives the same
//! inputs on every commit regardless of what the program's own RNGs
//! do.

use bytes::Bytes;

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, and good enough
/// for payload bytes and key choice.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Every message a group workload sends starts with this header; the
/// rest of the payload is seeded filler.
pub const STAMP_LEN: usize = 16;

/// Op index marking a sender's last message: receivers stop on it.
pub const FIN: u64 = u64::MAX;

/// Payload bodies for a group workload: a pool of seeded buffers of
/// one size, stamped per message with the send time and op index so
/// receivers can time delivery and digest content without shared
/// state.
#[derive(Debug, Clone)]
pub struct Payloads {
    pool: Vec<Vec<u8>>,
}

impl Payloads {
    /// `size` is the full payload length (header included).
    pub fn new(seed: u64, size: usize) -> Self {
        assert!(size >= STAMP_LEN, "payloads carry a {STAMP_LEN}-byte stamp");
        let mut rng = Rng::new(seed ^ 0x7061_796C_6F61_6473);
        let pool = (0..64)
            .map(|_| {
                let mut buf = vec![0u8; size];
                for chunk in buf[STAMP_LEN..].chunks_mut(8) {
                    let word = rng.next_u64().to_le_bytes();
                    chunk.copy_from_slice(&word[..chunk.len()]);
                }
                buf
            })
            .collect();
        Payloads { pool }
    }

    /// The payload of op `index`, stamped `stamp_ns`.
    pub fn stamped(&self, index: u64, stamp_ns: u64) -> Bytes {
        let mut buf = self.pool[(index % self.pool.len() as u64) as usize].clone();
        buf[..8].copy_from_slice(&stamp_ns.to_le_bytes());
        buf[8..STAMP_LEN].copy_from_slice(&index.to_le_bytes());
        Bytes::from(buf)
    }
}

/// Reads `(stamp_ns, index)` back out of a payload; `None` for a
/// payload too short to be one of ours.
pub fn read_stamp(payload: &[u8]) -> Option<(u64, u64)> {
    let stamp = payload.get(..8)?.try_into().ok()?;
    let index = payload.get(8..STAMP_LEN)?.try_into().ok()?;
    Some((u64::from_le_bytes(stamp), u64::from_le_bytes(index)))
}

/// One routed key operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyOp {
    pub put: bool,
    pub key: u32,
}

/// The routed workload's op stream: uniform keys out of `keys`, half
/// puts and half gets.
#[derive(Debug, Clone)]
pub struct KeyOps {
    rng: Rng,
    keys: u32,
}

impl KeyOps {
    pub fn new(seed: u64, keys: u32) -> Self {
        KeyOps {
            rng: Rng::new(seed ^ 0x6B65_796F_7073),
            keys,
        }
    }
}

impl Iterator for KeyOps {
    type Item = KeyOp;

    fn next(&mut self) -> Option<KeyOp> {
        let r = self.rng.next_u64();
        Some(KeyOp {
            put: r & 1 == 0,
            key: ((r >> 1) % u64::from(self.keys)) as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs_and_other_seeds_differ() {
        let a = Payloads::new(7, 1024);
        let b = Payloads::new(7, 1024);
        let c = Payloads::new(8, 1024);
        for i in [0u64, 1, 63, 64, 1000] {
            assert_eq!(a.stamped(i, 5), b.stamped(i, 5));
        }
        assert_ne!(a.stamped(0, 5), c.stamped(0, 5));
        assert_ne!(a.stamped(0, 5)[STAMP_LEN..], a.stamped(1, 5)[STAMP_LEN..]);

        let ops = |seed| KeyOps::new(seed, 1024).take(500).collect::<Vec<_>>();
        assert_eq!(ops(7), ops(7));
        assert_ne!(ops(7), ops(8));
        let puts = ops(7).iter().filter(|op| op.put).count();
        assert!(
            (200..300).contains(&puts),
            "about half are puts, got {puts}/500"
        );
        assert!(ops(7).iter().all(|op| op.key < 1024));
    }

    #[test]
    fn stamps_round_trip_through_the_payload() {
        let p = Payloads::new(1, 64);
        let bytes = p.stamped(42, 123_456_789);
        assert_eq!(bytes.len(), 64);
        assert_eq!(read_stamp(&bytes), Some((123_456_789, 42)));
        assert_eq!(read_stamp(&p.stamped(FIN, 0)), Some((0, FIN)));
        assert_eq!(read_stamp(&[0u8; 15]), None);
    }
}
