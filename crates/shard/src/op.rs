//! Data-plane operations and replies.
//!
//! Every operation a router wants executed is encoded as a short text
//! body, handed to the owning group's *gateway* member, and broadcast
//! by the gateway through that group's total order. One ordered
//! message — a *frame* — carries every body that was waiting when the
//! gateway sent it: `"<gseq>|<body>\n<body>…"` ([`frame`]; a body
//! cannot contain the separator, see [`token_ok`]). Body *i* holds the
//! gateway's monotone sequence number `gseq + i`, and [`unframe`] —
//! the one walk replicas and meta members share — yields those pairs;
//! members log `(origin, gseq + i)`, which is what
//! [`amoeba_core::audit::DeliveryAudit`]-style checking consumes, so a
//! frame of sixteen bodies and sixteen frames of one leave the same
//! logs, stores and replies. A gateway that must retry a failed frame
//! re-encodes its bodies under *fresh* gseqs — the audit tolerates
//! gaps but flags duplicates, so renumbering keeps retries clean.
//!
//! All operations are idempotent at the replica: an ambiguous send
//! (reported failed but actually ordered) that is retried applies
//! twice with the same effect, and the router drops the second reply.
//! Two mechanisms make that exact rather than approximate. Move steps
//! carry a move id and replicas apply each id at most once (a
//! re-delivered `Install` must not clobber writes applied after the
//! move committed). Fences and 2PC operations additionally carry an
//! *attempt* number, bumped by the router each time it re-runs the
//! operation from scratch: replicas ignore 2PC traffic for attempts
//! they have already resolved (committed or aborted), and both sides
//! echo the attempt in replies so the router can discard stragglers
//! from a superseded attempt instead of mixing them into the current
//! one.

/// One operation submitted to a data group. `end == 0` in range fields
/// means the top of the ring (see [`crate::map::range_contains`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardOp {
    /// Write `key = value`. Acked by the gateway once applied on the
    /// owning group.
    Put { id: u64, key: String, value: String },
    /// Read `key`.
    Get { id: u64, key: String },
    /// Cross-shard consistent read: executes at one point of *this*
    /// group's total order; the router assembles one fence per
    /// involved group and retries the whole set (under a fresh
    /// `attempt`) if any group's ownership moved in between (see
    /// DESIGN.md §11.4).
    Fence { id: u64, attempt: u64, keys: Vec<String> },
    /// Move step 1 (at the source): stop serving `[start, end)` and
    /// snapshot its entries at this point of the total order.
    Freeze { mv: u64, start: u64, end: u64 },
    /// Move step 2 (at the destination): adopt `[start, end)` with the
    /// frozen entries.
    Install { mv: u64, start: u64, end: u64, entries: Vec<(String, String)> },
    /// Move step 3 (at the source, after the map committed): drop the
    /// range and its entries.
    Retire { mv: u64, start: u64, end: u64 },
    /// 2PC phase 1: lock the listed keys for transaction `tx` (run
    /// number `attempt`) and stage the writes.
    Prepare { tx: u64, attempt: u64, writes: Vec<(String, String)> },
    /// 2PC phase 2: apply this group's writes staged for `(tx,
    /// attempt)`.
    Commit { tx: u64, attempt: u64 },
    /// 2PC abort: drop this group's locks for `tx` and resolve
    /// `attempt`.
    Abort { tx: u64, attempt: u64 },
    /// Shut the group down: every member stops its app.
    Halt,
}

/// Why a replica refused an operation. All nacks are retryable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NackReason {
    /// The key's range is not owned here — the router's map is stale.
    WrongShard,
    /// The key's range is frozen for an in-flight move.
    Frozen,
    /// The key is locked by an in-flight transaction.
    Locked,
}

/// What the gateway reports back to its router after an operation was
/// applied at the gateway's own position in the total order. Replies
/// stay in-process (gateway and router share an outbox); only
/// operations travel the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Put applied (`value` None) or Get executed (`value` is the
    /// key's value, if present).
    Acked { id: u64, value: Option<String> },
    /// Operation refused; retry (after a map refresh if `WrongShard`).
    Nacked { id: u64, why: NackReason },
    /// Fence executed: one consistent point per key in this group.
    /// Echoes the fence's attempt so the router can discard replies
    /// from a superseded attempt.
    FenceRead { id: u64, attempt: u64, values: Vec<(String, Option<String>)> },
    /// Freeze applied; `entries` is the range snapshot.
    Frozen { mv: u64, entries: Vec<(String, String)> },
    /// Install applied.
    Installed { mv: u64 },
    /// Retire applied.
    Retired { mv: u64 },
    /// All keys locked and writes staged (for this attempt).
    TxPrepared { tx: u64, attempt: u64 },
    /// Some key was unavailable; nothing was locked here.
    TxRejected { tx: u64, attempt: u64, why: NackReason },
    /// Staged writes applied.
    TxCommitted { tx: u64, attempt: u64 },
    /// Locks dropped.
    TxAborted { tx: u64, attempt: u64 },
}

/// The longest key or value, in bytes, the op text format carries.
pub const MAX_TOKEN: usize = 512;

/// Keys and values travel in a pipe/semicolon/equals-delimited text
/// format, so they must avoid those delimiters (and be at most
/// [`MAX_TOKEN`] bytes long). The router refuses any other.
pub fn token_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= MAX_TOKEN
        && s.bytes().all(|b| !matches!(b, b'|' | b';' | b'=' | b'\n'))
}

fn encode_entries(entries: &[(String, String)]) -> String {
    let parts: Vec<String> = entries.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.join(";")
}

/// Formats a hot body in one allocation: `strings` bytes of key and
/// value, plus room for the tag, the separators and the widest id.
fn sized(strings: usize, body: std::fmt::Arguments) -> String {
    let mut s = String::with_capacity(24 + strings);
    let _ = std::fmt::Write::write_fmt(&mut s, body);
    s
}

fn decode_entries(s: &str) -> Option<Vec<(String, String)>> {
    if s.is_empty() {
        return Some(Vec::new());
    }
    s.split(';')
        .map(|kv| {
            let (k, v) = kv.split_once('=')?;
            (token_ok(k) && token_ok(v)).then(|| (k.to_string(), v.to_string()))
        })
        .collect()
}

impl ShardOp {
    /// Wire encoding of the operation body (without the gateway's gseq
    /// prefix).
    pub fn encode(&self) -> String {
        match self {
            ShardOp::Put { id, key, value } => {
                sized(key.len() + value.len(), format_args!("P|{id}|{key}|{value}"))
            }
            ShardOp::Get { id, key } => sized(key.len(), format_args!("G|{id}|{key}")),
            ShardOp::Fence { id, attempt, keys } => format!("X|{id}|{attempt}|{}", keys.join(";")),
            ShardOp::Freeze { mv, start, end } => format!("F|{mv}|{start}|{end}"),
            ShardOp::Install { mv, start, end, entries } => {
                format!("I|{mv}|{start}|{end}|{}", encode_entries(entries))
            }
            ShardOp::Retire { mv, start, end } => format!("R|{mv}|{start}|{end}"),
            ShardOp::Prepare { tx, attempt, writes } => {
                format!("TP|{tx}|{attempt}|{}", encode_entries(writes))
            }
            ShardOp::Commit { tx, attempt } => format!("TC|{tx}|{attempt}"),
            ShardOp::Abort { tx, attempt } => format!("TA|{tx}|{attempt}"),
            ShardOp::Halt => "Q".to_string(),
        }
    }

    /// Parses [`ShardOp::encode`] output; `None` on any malformed body.
    pub fn decode(s: &str) -> Option<ShardOp> {
        let mut it = s.splitn(2, '|');
        let tag = it.next()?;
        let rest = it.next().unwrap_or("");
        match tag {
            "P" => {
                let mut f = rest.split('|');
                let id = f.next()?.parse().ok()?;
                let key = f.next()?;
                let value = f.next()?;
                (token_ok(key) && token_ok(value) && f.next().is_none()).then(|| ShardOp::Put {
                    id,
                    key: key.to_string(),
                    value: value.to_string(),
                })
            }
            "G" => {
                let (id, key) = rest.split_once('|')?;
                let id = id.parse().ok()?;
                token_ok(key).then(|| ShardOp::Get { id, key: key.to_string() })
            }
            "X" => {
                let mut f = rest.splitn(3, '|');
                let id = f.next()?.parse().ok()?;
                let attempt = f.next()?.parse().ok()?;
                let keys: Option<Vec<String>> = f
                    .next()?
                    .split(';')
                    .map(|k| token_ok(k).then(|| k.to_string()))
                    .collect();
                let keys = keys?;
                (!keys.is_empty()).then_some(ShardOp::Fence { id, attempt, keys })
            }
            "F" | "R" => {
                let mut f = rest.split('|');
                let mv = f.next()?.parse().ok()?;
                let start = f.next()?.parse().ok()?;
                let end = f.next()?.parse().ok()?;
                if f.next().is_some() {
                    return None;
                }
                Some(if tag == "F" {
                    ShardOp::Freeze { mv, start, end }
                } else {
                    ShardOp::Retire { mv, start, end }
                })
            }
            "I" => {
                let mut f = rest.splitn(4, '|');
                let mv = f.next()?.parse().ok()?;
                let start = f.next()?.parse().ok()?;
                let end = f.next()?.parse().ok()?;
                let entries = decode_entries(f.next()?)?;
                Some(ShardOp::Install { mv, start, end, entries })
            }
            "TP" => {
                let mut f = rest.splitn(3, '|');
                let tx = f.next()?.parse().ok()?;
                let attempt = f.next()?.parse().ok()?;
                let writes = decode_entries(f.next()?)?;
                (!writes.is_empty()).then_some(ShardOp::Prepare { tx, attempt, writes })
            }
            "TC" | "TA" => {
                let (tx, attempt) = rest.split_once('|')?;
                let tx = tx.parse().ok()?;
                let attempt = attempt.parse().ok()?;
                Some(if tag == "TC" {
                    ShardOp::Commit { tx, attempt }
                } else {
                    ShardOp::Abort { tx, attempt }
                })
            }
            "Q" => rest.is_empty().then_some(ShardOp::Halt),
            _ => None,
        }
    }
}

/// The most bytes [`frame`] spends on a sequence number.
pub(crate) const GSEQ_MAX_LEN: usize = 20;

/// Frames `bodies` under consecutive gateway sequence numbers from
/// `gseq`: `"<gseq>|<body>\n<body>…"`.
pub fn frame<S: AsRef<str>>(gseq: u64, bodies: &[S]) -> String {
    let mut payload = gseq.to_string();
    let mut separator = '|';
    for body in bodies {
        payload.push(separator);
        payload.push_str(body.as_ref());
        separator = '\n';
    }
    payload
}

/// Walks a delivered payload as `(gseq + i, body)` pairs. Anything a
/// peer can send is safe to walk: bytes that are not UTF-8 or carry no
/// numeric gseq yield nothing, an empty body (doubled or trailing
/// separator) is yielded empty — it held a slot — and a frame whose
/// numbering would pass `u64::MAX` ends at the last number that exists.
pub fn unframe(payload: &[u8]) -> impl Iterator<Item = (u64, &str)> {
    let framed = std::str::from_utf8(payload).ok().and_then(|text| {
        let (gseq, bodies) = text.split_once('|')?;
        Some((gseq.parse::<u64>().ok()?, bodies))
    });
    framed.into_iter().flat_map(|(gseq, bodies)| {
        bodies.split('\n').enumerate().map_while(move |(i, body)| {
            Some((gseq.checked_add(i as u64)?, body))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_codec_round_trips() {
        let ops = [
            ShardOp::Put { id: 1, key: "k".into(), value: "v".into() },
            ShardOp::Get { id: 2, key: "key-2".into() },
            ShardOp::Fence { id: 3, attempt: 2, keys: vec!["a".into(), "b".into()] },
            ShardOp::Freeze { mv: 4, start: 10, end: 0 },
            ShardOp::Install {
                mv: 5,
                start: 0,
                end: 9,
                entries: vec![("a".into(), "1".into()), ("b".into(), "2".into())],
            },
            ShardOp::Install { mv: 6, start: 0, end: 9, entries: vec![] },
            ShardOp::Retire { mv: 7, start: 3, end: 4 },
            ShardOp::Prepare { tx: 8, attempt: 1, writes: vec![("x".into(), "y".into())] },
            ShardOp::Commit { tx: 9, attempt: 3 },
            ShardOp::Abort { tx: 10, attempt: 1 },
            ShardOp::Halt,
        ];
        for op in ops {
            let enc = op.encode();
            assert_eq!(ShardOp::decode(&enc), Some(op), "{enc}");
        }
    }

    #[test]
    fn malformed_bodies_rejected() {
        for bad in [
            "", "Z|1", "P|1|k", "P|x|k|v", "G|1|", "X|1|", "X|1|2|", "X|1|a", "I|1|2|3",
            "Q|extra", "P|1|k|v|w", "TP|1|k=v", "TC|9", "TA|10", "TC|9|x",
        ] {
            assert_eq!(ShardOp::decode(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn framing_round_trips() {
        for n in [1usize, 16] {
            let bodies: Vec<String> =
                (0..n).map(|i| ShardOp::Get { id: i as u64, key: format!("k{i}") }.encode()).collect();
            let payload = frame(42, &bodies);
            let walked: Vec<(u64, &str)> = unframe(payload.as_bytes()).collect();
            let expect: Vec<(u64, &str)> =
                bodies.iter().enumerate().map(|(i, b)| (42 + i as u64, b.as_str())).collect();
            assert_eq!(walked, expect);
        }
        assert_eq!(unframe(b"nope").count(), 0);
    }

    /// What a peer can put on the wire, frame by frame: each walk ends
    /// without a panic and yields exactly the slots that exist.
    #[test]
    fn hostile_frames_walk_to_the_slots_that_exist() {
        let walk = |p: &str| unframe(p.as_bytes()).map(|(g, b)| (g, b.to_string())).collect::<Vec<_>>();
        let slot = |g: u64, b: &str| (g, b.to_string());
        // The numbering passes u64::MAX after two bodies: the rest is dropped.
        let top = u64::MAX - 1;
        assert_eq!(walk(&format!("{top}|a\nb\nc\nd")), [slot(top, "a"), slot(u64::MAX, "b")]);
        // Doubled and trailing separators hold (empty) slots.
        assert_eq!(walk("5|a\n\nb"), [slot(5, "a"), slot(6, ""), slot(7, "b")]);
        assert_eq!(walk("5|a\n"), [slot(5, "a"), slot(6, "")]);
        // No gseq, no frame.
        assert_eq!(walk("|a\nb"), []);
        assert_eq!(walk("nan|a"), []);
        assert_eq!(walk("99999999999999999999|a"), []);
        assert_eq!(unframe(b"\xff\xfe|a").count(), 0);
    }

    #[test]
    fn token_rules() {
        assert!(token_ok("plain-key_0"));
        assert!(!token_ok(""));
        assert!(!token_ok("a|b"));
        assert!(!token_ok("a=b"));
        assert!(!token_ok("a;b"));
    }
}
