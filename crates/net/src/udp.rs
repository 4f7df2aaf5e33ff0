//! The inter-process UDP fabric: real `std::net::UdpSocket`s carrying
//! the existing [`WireFrame`] encoding between OS processes.
//!
//! This is the third backend of the stack (DESIGN.md §12): where
//! `LiveNet` moves refcounted frame segments between threads, `UdpNet`
//! moves *bytes* between processes, reusing two layers that already
//! exist — the zero-copy frame codec of `amoeba-core` and the
//! fragmentation/reassembly of `amoeba-flip` — against a real datagram
//! ceiling instead of a simulated one.
//!
//! **Endpoints.** Each registered FLIP address owns one UDP socket
//! bound to 127.0.0.1 (or a port pre-bound via
//! [`UdpNet::bind_endpoint`] so a harness can exchange ports before
//! the protocol starts talking) and **no thread of its own**. The
//! receive side is the [`Inbox`] that `register` returns: whoever
//! holds its read token ([`ReadToken`]) — a caller blocked on the
//! member, or else its driver — runs `recv_from`, the envelope check,
//! the subscription filter and reassembly on its own thread, with the
//! socket's read timeout as its wait (counted by Linux in scheduler
//! ticks, rounded up twice). One holder at a time, so one message's
//! fragments meet in one reassembler. Sends run on the caller's
//! thread too: a [`TransportSender`] gather-encodes each fragment
//! (envelope + head slice + tail slice) into its own reusable scratch
//! buffer and writes it to the endpoint's socket, one `send_to` per
//! fragment per target.
//!
//! **Peer table.** The authoritative registry (peer socket addresses,
//! local endpoints, local multicast subscriptions) lives behind one
//! mutex, but neither senders nor inboxes ever take it: they read the
//! published [`Peers`] view through `crate::snapshot`, the discipline
//! `LiveNet` sends through too (DESIGN.md §7).
//!
//! **Multicast.** A real LAN would let the NIC filter multicast; over
//! unicast UDP we do the moral equivalent: a multicast send fans out
//! one copy per known peer (sender excluded, as on real hardware) with
//! the *group* address in the envelope, and the receiving inbox drops
//! group traffic for groups its endpoint never joined. Remote group
//! membership is therefore not tracked at all — exactly like an
//! Ethernet, where the wire does not know who listens.
//!
//! **Copies.** The receive path performs exactly one userspace copy:
//! socket scratch → an exact-size refcounted buffer. Everything
//! downstream — envelope split, reassembly fast path, frame decode,
//! payload delivery — is a shared-ownership view of that buffer
//! (pinned by `decoded_body_shares_the_datagram_allocation` below).
//!
//! **Bounds.** Partial reassemblies are purged by age and capped by
//! count and by bytes, oldest first ([`Partials`]): a lost fragment or
//! a peer spraying first-fragments costs bounded memory.
//!
//! Delivery is best-effort by design: unknown peers and socket errors
//! drop silently, whatever the inbox discards is counted by reason
//! ([`InboxDrops`], [`UdpNet::drops`]), and the group protocol's
//! negative-acknowledgement machinery recovers, exactly as it does on
//! a lossy wire.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amoeba_core::{GroupId, WireFrame};
use amoeba_flip::{split_lens, FlipAddress, FragKey, Reassembler};
use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};

use crate::snapshot::{Snapshot, SnapshotCache};
use crate::transport::{Datagram, Inbox, Source, Transport, TransportSender};

/// Wire envelope prefixed to every datagram: magic (2) + version (1) +
/// src (8) + dst (8) + msg id (8) + fragment index (2) + count (2).
pub const ENVELOPE_LEN: usize = 31;

/// Largest payload a UDP datagram can carry (IPv4, minus IP/UDP
/// headers). [`UdpConfig::max_datagram`] must stay at or below this.
pub const MAX_UDP_DATAGRAM: usize = 65_507;

const MAGIC: u16 = 0xA0EB;
const VERSION: u8 = 1;

/// The group tag bit of a raw FLIP address (see `amoeba_flip`): set in
/// an envelope's `dst` when the datagram is group traffic.
const GROUP_TAG: u64 = 1 << 63;

/// Tuning for the UDP fabric.
#[derive(Debug, Clone, Copy)]
pub struct UdpConfig {
    /// Datagram size ceiling, envelope included. Frames larger than
    /// `max_datagram - ENVELOPE_LEN` fragment via `amoeba-flip`. The
    /// default stays under [`MAX_UDP_DATAGRAM`] with margin; tests
    /// shrink it to force multi-fragment paths on small payloads.
    pub max_datagram: usize,
    /// Partial reassemblies older than this are purged (loss of one
    /// fragment must not leak the rest forever).
    pub purge_after: Duration,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig { max_datagram: 60_000, purge_after: Duration::from_secs(5) }
    }
}

struct Envelope {
    src: u64,
    dst: u64,
    msg_id: u64,
    index: u16,
    count: u16,
}

fn encode_envelope(out: &mut Vec<u8>, env: &Envelope) {
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(VERSION);
    out.extend_from_slice(&env.src.to_be_bytes());
    out.extend_from_slice(&env.dst.to_be_bytes());
    out.extend_from_slice(&env.msg_id.to_be_bytes());
    out.extend_from_slice(&env.index.to_be_bytes());
    out.extend_from_slice(&env.count.to_be_bytes());
}

/// Splits a received datagram into its envelope and body. The body is
/// a shared-ownership **view** of `datagram` (no copy). `None` on any
/// malformed input — wrong magic or version, truncation, impossible
/// fragment fields; a hostile or stray datagram must never panic the
/// receiving thread.
fn split_envelope(datagram: &Bytes) -> Option<(Envelope, Bytes)> {
    if datagram.len() < ENVELOPE_LEN {
        return None;
    }
    let b = &datagram[..];
    if u16::from_be_bytes([b[0], b[1]]) != MAGIC || b[2] != VERSION {
        return None;
    }
    let u64_at = |i: usize| u64::from_be_bytes(b[i..i + 8].try_into().expect("8 bytes"));
    let env = Envelope {
        src: u64_at(3),
        dst: u64_at(11),
        msg_id: u64_at(19),
        index: u16::from_be_bytes([b[27], b[28]]),
        count: u16::from_be_bytes([b[29], b[30]]),
    };
    if env.count == 0 || env.index >= env.count {
        return None;
    }
    Some((env, datagram.slice(ENVELOPE_LEN..)))
}

/// Appends `frame`'s bytes in `[off, off + len)` to `out`, gathering
/// across the head/tail segment boundary without materializing a
/// contiguous frame.
fn gather_range(out: &mut Vec<u8>, frame: &WireFrame, off: usize, len: usize) {
    let head_len = frame.head.len();
    let end = off + len;
    if off < head_len {
        out.extend_from_slice(&frame.head[off..end.min(head_len)]);
    }
    if end > head_len {
        let tail = frame.tail.as_ref().expect("range extends past head");
        out.extend_from_slice(&tail[off.saturating_sub(head_len)..end - head_len]);
    }
}

/// The registry as senders and inboxes read it, lock-free.
struct Peers {
    peers: HashMap<FlipAddress, SocketAddr>,
    /// *Local* multicast subscriptions only (see module docs).
    groups: HashMap<GroupId, HashSet<FlipAddress>>,
}

impl Peers {
    fn of(reg: &Registry) -> Self {
        Peers { peers: reg.peers.clone(), groups: reg.groups.clone() }
    }
}

/// What an endpoint's inbox received and discarded, one count per
/// reason (see [`UdpNet::drops`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InboxDrops {
    /// Wrong magic or version, truncation, impossible fragment fields.
    pub bad_envelope: u64,
    /// The envelope's source is not a process address.
    pub bad_source: u64,
    /// Group traffic for a group this endpoint never joined.
    pub not_joined: u64,
    /// Unicast addressed to another endpoint.
    pub stray_unicast: u64,
    /// Partial messages evicted for outliving `purge_after`.
    pub partial_aged: u64,
    /// Partial messages evicted over the per-endpoint count.
    pub partial_count: u64,
    /// Partial messages evicted over the per-endpoint bytes.
    pub partial_bytes: u64,
}

/// One registered endpoint: its socket, shared by the inbox and every
/// sending port handed out for the address.
struct Endpoint {
    sock: UdpSocket,
    /// Where `sock` listens: where its wake ([`Inbox::wake`]) sends.
    local: SocketAddr,
    /// Set on unregister: senders blackhole.
    shutdown: AtomicBool,
    /// The next message id. Shared, so ids stay unique per endpoint
    /// however many senders exist — receivers key reassembly on
    /// `(source, id)`.
    next_msg_id: AtomicU64,
    drops: Mutex<InboxDrops>,
}

/// Authoritative state, mutated under its mutex.
struct Registry {
    peers: HashMap<FlipAddress, SocketAddr>,
    groups: HashMap<GroupId, HashSet<FlipAddress>>,
    local: HashMap<FlipAddress, Arc<Endpoint>>,
    /// Sockets bound ahead of registration (port exchange).
    prebound: HashMap<FlipAddress, UdpSocket>,
}

/// The inter-process UDP datagram fabric. See the module docs.
pub struct UdpNet {
    cfg: UdpConfig,
    /// Shared with every inbox and sender (an `Arc` of its own, so
    /// neither keeps the fabric itself alive).
    table: Arc<Snapshot<Registry, Peers>>,
}

impl std::fmt::Debug for UdpNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let reg = self.table.registry();
        f.debug_struct("UdpNet")
            .field("peers", &reg.peers.len())
            .field("local", &reg.local.len())
            .field("max_datagram", &self.cfg.max_datagram)
            .finish()
    }
}

impl UdpNet {
    /// Creates a fabric with the given tuning.
    ///
    /// # Panics
    ///
    /// Panics if `max_datagram` leaves no room for a fragment body or
    /// exceeds what UDP can carry.
    pub fn new(cfg: UdpConfig) -> Arc<Self> {
        assert!(
            cfg.max_datagram > ENVELOPE_LEN && cfg.max_datagram <= MAX_UDP_DATAGRAM,
            "max_datagram must be in ({ENVELOPE_LEN}, {MAX_UDP_DATAGRAM}]"
        );
        let registry = Registry {
            peers: HashMap::new(),
            groups: HashMap::new(),
            local: HashMap::new(),
            prebound: HashMap::new(),
        };
        Arc::new(UdpNet { cfg, table: Arc::new(Snapshot::new(registry, Peers::of)) })
    }

    /// Binds `addr`'s socket ahead of registration and returns the OS
    /// port, so a multi-process harness can exchange ports before any
    /// endpoint starts the protocol. A later [`Transport::register`]
    /// of the same address adopts this socket.
    ///
    /// # Errors
    ///
    /// The underlying bind error, if the OS refuses a loopback socket.
    pub fn bind_endpoint(&self, addr: FlipAddress) -> io::Result<SocketAddr> {
        let sock = UdpSocket::bind(("127.0.0.1", 0))?;
        let local = sock.local_addr()?;
        self.table.registry().prebound.insert(addr, sock);
        Ok(local)
    }

    /// Records where a *remote* peer (another OS process) listens.
    pub fn add_peer(&self, addr: FlipAddress, at: SocketAddr) {
        self.table.publish(|reg| reg.peers.insert(addr, at));
    }

    /// The socket address a registered or pre-bound local endpoint
    /// listens on (tests and harnesses read ports through this).
    pub fn local_addr(&self, addr: FlipAddress) -> Option<SocketAddr> {
        let reg = self.table.registry();
        if let Some(sock) = reg.prebound.get(&addr) {
            return sock.local_addr().ok();
        }
        reg.peers.get(&addr).copied()
    }

    /// What a registered local endpoint's inbox has discarded so far.
    pub fn drops(&self, addr: FlipAddress) -> Option<InboxDrops> {
        self.table.registry().local.get(&addr).map(|ep| *ep.drops.lock())
    }
}

impl Transport for UdpNet {
    /// Plugs `addr` in: adopts its pre-bound socket (or binds a fresh
    /// loopback port) and announces the port to local senders.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to bind — endpoint creation failing is
    /// a harness-level error, not a protocol outcome.
    fn register(&self, addr: FlipAddress) -> Inbox {
        let endpoint = self.table.publish(|reg| {
            // Re-registration replaces the endpoint (mirrors LiveNet).
            if let Some(old) = reg.local.remove(&addr) {
                old.shutdown.store(true, Ordering::Relaxed);
            }
            let sock = reg.prebound.remove(&addr).unwrap_or_else(|| {
                UdpSocket::bind(("127.0.0.1", 0)).expect("bind UDP endpoint")
            });
            let local = sock.local_addr().expect("bound socket has an address");
            let endpoint = Arc::new(Endpoint {
                sock,
                local,
                shutdown: AtomicBool::new(false),
                next_msg_id: AtomicU64::new(1),
                drops: Mutex::default(),
            });
            reg.peers.insert(addr, local);
            reg.local.insert(addr, Arc::clone(&endpoint));
            endpoint
        });
        Inbox(Source::Udp(Box::new(UdpInbox {
            endpoint,
            me: addr,
            table: Arc::clone(&self.table),
            started: Instant::now(),
            state: Mutex::new(RecvState {
                scratch: vec![0u8; MAX_UDP_DATAGRAM],
                partials: Partials::new(self.cfg.purge_after),
                cache: self.table.cache(),
                read_timeout: None,
            }),
        })))
    }

    fn unregister(&self, addr: FlipAddress) {
        self.table.publish(|reg| {
            if let Some(ep) = reg.local.remove(&addr) {
                ep.shutdown.store(true, Ordering::Relaxed);
            }
            reg.peers.remove(&addr);
            reg.prebound.remove(&addr);
            for members in reg.groups.values_mut() {
                members.remove(&addr);
            }
        });
    }

    fn join_mcast(&self, group: GroupId, addr: FlipAddress) {
        self.table.publish(|reg| reg.groups.entry(group).or_default().insert(addr));
    }

    /// A sending port for `from`. An address that is not registered
    /// gets a port whose traffic blackholes: best-effort, like the
    /// fabric itself.
    fn sender(&self, from: FlipAddress) -> Box<dyn TransportSender> {
        Box::new(UdpSender {
            endpoint: self.table.registry().local.get(&from).cloned(),
            from,
            cache: self.table.cache(),
            table: Arc::clone(&self.table),
            scratch: Vec::with_capacity(self.cfg.max_datagram),
            max_datagram: self.cfg.max_datagram,
        })
    }
}

/// The per-endpoint sending port: fragments against the datagram
/// ceiling and gather-encodes envelope + frame slices into one
/// reusable scratch per `send_to`, on the calling thread.
struct UdpSender {
    /// `None` for an address that was never registered.
    endpoint: Option<Arc<Endpoint>>,
    from: FlipAddress,
    table: Arc<Snapshot<Registry, Peers>>,
    cache: SnapshotCache<Peers>,
    scratch: Vec<u8>,
    max_datagram: usize,
}

impl TransportSender for UdpSender {
    fn unicast(&mut self, to: FlipAddress, frame: WireFrame) {
        self.emit(to.as_u64(), Some(to), &frame);
    }

    fn multicast(&mut self, group: GroupId, frame: WireFrame) {
        self.emit(GROUP_TAG | (group.0 & !GROUP_TAG), None, &frame);
    }
}

impl UdpSender {
    /// Fragments and writes one frame to `to`, or to every known peer
    /// but the sender itself. Socket errors drop silently
    /// (best-effort), and so does everything once the endpoint is
    /// unregistered.
    fn emit(&mut self, dst: u64, to: Option<FlipAddress>, frame: &WireFrame) {
        let Some(endpoint) = &self.endpoint else { return };
        if endpoint.shutdown.load(Ordering::Relaxed) {
            return;
        }
        let peers = &self.cache.get(&self.table).peers;
        let one = match to.map(|to| peers.get(&to)) {
            Some(None) => return,
            Some(Some(at)) => Some(*at),
            None => None,
        };
        let budget = (self.max_datagram - ENVELOPE_LEN) as u32;
        let lens = split_lens(frame.len() as u32, budget);
        if lens.len() > u16::MAX as usize {
            return; // cannot be expressed on the wire; drop
        }
        let count = lens.len() as u16;
        // Relaxed: the id only has to be unique, it publishes nothing.
        let msg_id = endpoint.next_msg_id.fetch_add(1, Ordering::Relaxed);
        let mut off = 0usize;
        for (index, len) in lens.into_iter().enumerate() {
            self.scratch.clear();
            let env = Envelope {
                src: self.from.as_u64(),
                dst,
                msg_id,
                index: index as u16,
                count,
            };
            encode_envelope(&mut self.scratch, &env);
            gather_range(&mut self.scratch, frame, off, len as usize);
            match one {
                Some(at) => drop(endpoint.sock.send_to(&self.scratch, at)),
                None => {
                    for (_, at) in peers.iter().filter(|(a, _)| **a != self.from) {
                        let _ = endpoint.sock.send_to(&self.scratch, at);
                    }
                }
            }
            off += len as usize;
        }
    }
}

/// Most partial messages one endpoint holds at a time.
const MAX_PARTIALS: usize = 256;

/// Most bytes one endpoint's partial messages hold at a time
/// (fragment bodies plus their slot tables).
const MAX_PARTIAL_BYTES: usize = 16 << 20;

/// Fragment reassembly with bounded memory. [`Reassembler`] drops
/// nothing by itself, so every partial message is entered here under a
/// unique, increasing stamp — which is also the "time" the reassembler
/// files it under — and the oldest are evicted (`purge_older_than` the
/// next stamp) once they outlive `purge_after` or the endpoint holds
/// more than [`MAX_PARTIALS`] messages or [`MAX_PARTIAL_BYTES`] bytes.
struct Partials {
    reasm: Reassembler<Bytes>,
    /// Pending messages by stamp: (key, arrival in ms, bytes charged).
    held: BTreeMap<u64, (FragKey, u64, usize)>,
    stamps: HashMap<FragKey, u64>,
    next_stamp: u64,
    bytes: usize,
    purge_ms: u64,
}

impl Partials {
    fn new(purge_after: Duration) -> Self {
        Partials {
            reasm: Reassembler::new(),
            held: BTreeMap::new(),
            stamps: HashMap::new(),
            next_stamp: 0,
            bytes: 0,
            purge_ms: purge_after.as_millis().max(1) as u64,
        }
    }

    /// Accepts one fragment of a multi-fragment message; returns the
    /// message once complete.
    fn insert(
        &mut self,
        key: FragKey,
        index: u16,
        count: u16,
        body: Bytes,
        now_ms: u64,
        drops: &mut InboxDrops,
    ) -> Option<Bytes> {
        let mut charge = body.len();
        let stamp = *self.stamps.entry(key).or_insert_with(|| {
            self.next_stamp += 1;
            charge += count as usize * std::mem::size_of::<Option<Bytes>>();
            self.next_stamp
        });
        let complete = self.reasm.insert_payload(key, index, count, body, stamp);
        if complete.is_some() {
            self.forget(stamp);
        } else {
            self.held.entry(stamp).or_insert((key, now_ms, 0)).2 += charge;
            self.bytes += charge;
            self.trim(now_ms, drops);
        }
        complete
    }

    fn forget(&mut self, stamp: u64) {
        if let Some((key, _, bytes)) = self.held.remove(&stamp) {
            self.stamps.remove(&key);
            self.bytes -= bytes;
        }
    }

    /// Evicts from the oldest end until age, count and bytes are all
    /// within bounds, counting each eviction under its reason.
    fn trim(&mut self, now_ms: u64, drops: &mut InboxDrops) {
        while let Some((&stamp, &(_, at_ms, _))) = self.held.first_key_value() {
            let reason = if now_ms.saturating_sub(at_ms) >= self.purge_ms {
                &mut drops.partial_aged
            } else if self.held.len() > MAX_PARTIALS {
                &mut drops.partial_count
            } else if self.bytes > MAX_PARTIAL_BYTES {
                &mut drops.partial_bytes
            } else {
                break;
            };
            *reason += 1;
            self.forget(stamp);
            self.reasm.purge_older_than(stamp + 1);
        }
    }
}

/// A UDP endpoint's receiving side, run by whoever holds its read
/// token: blocks on the socket, validates envelopes, filters group
/// traffic by the endpoint's own subscriptions and reassembles
/// fragments.
pub(crate) struct UdpInbox {
    endpoint: Arc<Endpoint>,
    me: FlipAddress,
    table: Arc<Snapshot<Registry, Peers>>,
    started: Instant,
    /// The read token: its holder is the socket's one reader.
    state: Mutex<RecvState>,
}

struct RecvState {
    scratch: Vec<u8>,
    partials: Partials,
    cache: SnapshotCache<Peers>,
    /// The socket's read timeout as last set (`None`: it blocks).
    read_timeout: Option<Duration>,
}

/// The read token of a UDP [`Inbox`] ([`Inbox::try_read`]): while a
/// thread holds it, that thread is the socket's one reader.
pub struct ReadToken<'a> {
    inbox: &'a UdpInbox,
    state: MutexGuard<'a, RecvState>,
}

impl ReadToken<'_> {
    /// Reads the next datagram, as [`Inbox::recv_timeout`] does: up to
    /// `timeout`, a zero one polls, and `None` is its `Timeout` (the
    /// wait ran out, or [`Inbox::wake`] ended it).
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<Datagram> {
        self.inbox.recv(&mut self.state, timeout)
    }
}

impl UdpInbox {
    /// The read token, waiting for it if another thread holds it.
    pub(crate) fn read(&self) -> ReadToken<'_> {
        ReadToken { inbox: self, state: self.state.lock() }
    }

    /// The read token, if nobody holds it.
    pub(crate) fn try_read(&self) -> Option<ReadToken<'_>> {
        self.state.try_lock().map(|state| ReadToken { inbox: self, state })
    }

    /// An empty datagram to the endpoint's own port, which no envelope
    /// check accepts: it ends the holder's current or next wait.
    pub(crate) fn poke(&self) {
        let _ = self.endpoint.sock.send_to(&[], self.endpoint.local);
    }

    /// See [`ReadToken::recv_timeout`]. A zero `timeout` polls: it
    /// reads what the socket already holds and returns at the first
    /// read that would block. A `timeout` the clock cannot represent
    /// waits with no deadline.
    fn recv(&self, state: &mut RecvState, timeout: Duration) -> Option<Datagram> {
        let RecvState { scratch, partials, cache, read_timeout } = state;
        let Endpoint { sock, drops, .. } = &*self.endpoint;
        let poll = timeout.is_zero();
        let mut now = Instant::now();
        let deadline = now.checked_add(timeout);
        loop {
            let received = if poll {
                // Sends share the socket: it blocks again at once.
                let _ = sock.set_nonblocking(true);
                let received = sock.recv_from(scratch);
                let _ = sock.set_nonblocking(false);
                received
            } else {
                let left = deadline.map(|d| d.saturating_duration_since(now));
                if left.is_some_and(|left| left.is_zero()) {
                    return None;
                }
                // Down to a power of two in µs, so the wait may end early
                // and loop but never late, and a long one keeps one
                // setting across reads: set only when it changes.
                let want = left.map(|left| {
                    let us = u64::try_from(left.as_micros()).unwrap_or(u64::MAX).max(1);
                    Duration::from_micros(1 << us.ilog2())
                });
                if want != *read_timeout && sock.set_read_timeout(want).is_ok() {
                    *read_timeout = want;
                }
                sock.recv_from(scratch)
            };
            now = Instant::now();
            // Age out stale partials on every wake — datagram or
            // timeout — so steady traffic cannot postpone it.
            let now_ms = now.duration_since(self.started).as_millis() as u64;
            if !partials.held.is_empty() {
                partials.trim(now_ms, &mut drops.lock());
            }
            let n = match received {
                Ok((0, _)) => return None, // a wake
                Ok((n, _)) => n,
                // The socket is empty (a poll), or the wait ran out (the
                // kernel counts it in ticks, so possibly early), or a
                // transient error: loopback can surface ICMP-style
                // failures.
                Err(_) if poll => return None,
                Err(_) => continue,
            };
            // The one userspace copy of the receive path: socket
            // scratch → exact-size refcounted buffer. The envelope
            // split, reassembly fast path and frame decode below are
            // all views of this allocation.
            let datagram = Bytes::from(scratch[..n].to_vec());
            let Some((env, body)) = split_envelope(&datagram) else {
                drops.lock().bad_envelope += 1;
                continue;
            };
            let src = FlipAddress::from_u64(env.src);
            if !src.is_process() {
                drops.lock().bad_source += 1;
                continue;
            }
            let dst = FlipAddress::from_u64(env.dst);
            if dst.is_group() {
                // The "NIC multicast filter": drop traffic for groups
                // this endpoint never joined.
                let joined = cache
                    .get(&self.table)
                    .groups
                    .get(&GroupId(dst.id()))
                    .is_some_and(|m| m.contains(&self.me));
                if !joined {
                    drops.lock().not_joined += 1;
                    continue;
                }
            } else if dst != self.me {
                drops.lock().stray_unicast += 1;
                continue;
            }
            let complete = if env.count == 1 {
                Some(body)
            } else {
                let key = FragKey { src, msg_id: env.msg_id };
                partials.insert(key, env.index, env.count, body, now_ms, &mut drops.lock())
            };
            if let Some(buf) = complete {
                return Some((src, WireFrame::from(buf)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> FlipAddress {
        FlipAddress::process(n)
    }

    fn frame(payload: Vec<u8>) -> WireFrame {
        WireFrame::from(Bytes::from(payload))
    }

    fn encode_datagram(env: &Envelope, body: &[u8]) -> Bytes {
        let mut out = Vec::new();
        encode_envelope(&mut out, env);
        out.extend_from_slice(body);
        Bytes::from(out)
    }

    fn recv(rx: &Inbox) -> Datagram {
        rx.recv_timeout(Duration::from_secs(5)).expect("delivered")
    }

    #[test]
    fn envelope_round_trips() {
        let env = Envelope { src: 3, dst: GROUP_TAG | 9, msg_id: 77, index: 2, count: 5 };
        let datagram = encode_datagram(&env, b"body");
        let (back, body) = split_envelope(&datagram).expect("valid");
        assert_eq!((back.src, back.dst, back.msg_id), (3, GROUP_TAG | 9, 77));
        assert_eq!((back.index, back.count), (2, 5));
        assert_eq!(&body[..], b"body");
    }

    #[test]
    fn malformed_envelopes_rejected() {
        let good = encode_datagram(
            &Envelope { src: 1, dst: 2, msg_id: 1, index: 0, count: 1 },
            b"x",
        );
        assert!(split_envelope(&good).is_some());
        // Truncated.
        assert!(split_envelope(&good.slice(..ENVELOPE_LEN - 1)).is_none());
        // Wrong magic / version.
        let mut bad = good.to_vec();
        bad[0] ^= 0xFF;
        assert!(split_envelope(&Bytes::from(bad)).is_none());
        let mut bad = good.to_vec();
        bad[2] = VERSION + 1;
        assert!(split_envelope(&Bytes::from(bad)).is_none());
        // Impossible fragment fields.
        for (index, count) in [(0u16, 0u16), (3, 3), (4, 3)] {
            let d = encode_datagram(
                &Envelope { src: 1, dst: 2, msg_id: 1, index, count },
                b"x",
            );
            assert!(split_envelope(&d).is_none(), "index {index} of {count}");
        }
        assert!(split_envelope(&Bytes::new()).is_none());
    }

    /// The zero-copy claim of the receive path, pinned: after the one
    /// scratch → buffer copy, the body is a refcounted view of the
    /// datagram buffer, and the single-fragment fast path hands that
    /// very allocation onward as the frame.
    #[test]
    fn decoded_body_shares_the_datagram_allocation() {
        let env = Envelope { src: 1, dst: 2, msg_id: 9, index: 0, count: 1 };
        let datagram = encode_datagram(&env, &vec![7u8; 4096]);
        let (_, body) = split_envelope(&datagram).expect("valid");
        assert!(body.shares_allocation(&datagram), "body must be a view, not a copy");
        let mut r: Reassembler<Bytes> = Reassembler::new();
        let key = FragKey { src: addr(1), msg_id: 9 };
        let assembled = r.insert_payload(key, 0, 1, body, 0).expect("fast path");
        assert!(assembled.shares_allocation(&datagram), "fast path must not copy");
    }

    #[test]
    fn gather_range_crosses_the_segment_boundary() {
        let f = WireFrame {
            head: Bytes::from_static(b"headxx"),
            tail: Some(Bytes::from_static(b"TAILBYTES")),
        };
        let mut out = Vec::new();
        gather_range(&mut out, &f, 0, f.len());
        assert_eq!(out, b"headxxTAILBYTES");
        out.clear();
        gather_range(&mut out, &f, 4, 5); // xx + TAI
        assert_eq!(out, b"xxTAI");
        out.clear();
        gather_range(&mut out, &f, 7, 4); // tail only
        assert_eq!(out, b"AILB");
    }

    #[test]
    fn unicast_reaches_endpoint() {
        let net = UdpNet::new(UdpConfig::default());
        let rx = net.register(addr(1));
        net.register(addr(2));
        let mut tx = net.sender(addr(2));
        tx.unicast(addr(1), frame(b"hi".to_vec()));
        let (from, f) = recv(&rx);
        assert_eq!(from, addr(2));
        assert_eq!(&f.to_contiguous()[..], b"hi");
    }

    #[test]
    fn multicast_excludes_sender_and_respects_subscriptions() {
        let net = UdpNet::new(UdpConfig::default());
        let g = GroupId(9);
        let rx1 = net.register(addr(1));
        let rx2 = net.register(addr(2));
        let rx3 = net.register(addr(3));
        net.join_mcast(g, addr(1));
        net.join_mcast(g, addr(2));
        // addr(3) never joins: its inbox must filter the group traffic.
        let mut tx = net.sender(addr(1));
        tx.multicast(g, frame(b"m".to_vec()));
        let (from, f) = recv(&rx2);
        assert_eq!(from, addr(1));
        assert_eq!(&f.to_contiguous()[..], b"m");
        assert!(rx1.recv_timeout(Duration::from_millis(100)).is_err(), "no loopback");
        assert!(rx3.recv_timeout(Duration::from_millis(100)).is_err(), "not subscribed");
    }

    #[test]
    fn large_frames_fragment_and_reassemble() {
        // A tiny ceiling forces many fragments out of a small payload.
        let net = UdpNet::new(UdpConfig {
            max_datagram: ENVELOPE_LEN + 16,
            ..UdpConfig::default()
        });
        let rx = net.register(addr(1));
        net.register(addr(2));
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut tx = net.sender(addr(2));
        tx.unicast(addr(1), frame(payload.clone()));
        let (_, f) = recv(&rx);
        assert_eq!(&f.to_contiguous()[..], &payload[..]);
    }

    /// One message's fragments, read by two threads that take the read
    /// token in turn, one fragment each: the reassembler the holders
    /// share puts the message together exactly once, on the thread
    /// that read the last fragment, and keeps nothing behind.
    #[test]
    fn fragments_read_by_alternating_token_holders_reassemble_once() {
        const FRAGS: u16 = 4;
        let net = UdpNet::new(UdpConfig::default());
        let rx = net.register(addr(1));
        let at = net.local_addr(addr(1)).expect("registered");
        let raw = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        let payload: Vec<u8> = (0..FRAGS as u8 * 16).collect();
        let mut read_on = Vec::new();
        let mut got = Vec::new();
        std::thread::scope(|s| {
            let holders: Vec<_> = (0..2)
                .map(|_| {
                    let (turn_tx, turn_rx) = std::sync::mpsc::channel::<()>();
                    let (read_tx, read_rx) = std::sync::mpsc::channel();
                    let rx = &rx;
                    s.spawn(move || {
                        for () in turn_rx {
                            let mut token = rx.try_read().expect("nobody else holds it");
                            let read = token.recv_timeout(Duration::from_secs(5));
                            drop(token);
                            read_tx.send((std::thread::current().id(), read)).expect("listening");
                        }
                    });
                    (turn_tx, read_rx)
                })
                .collect();
            for (index, chunk) in (0..FRAGS).zip(payload.chunks(16)) {
                let (src, dst) = (addr(2).as_u64(), addr(1).as_u64());
                let env = Envelope { src, dst, msg_id: 7, index, count: FRAGS };
                raw.send_to(&encode_datagram(&env, chunk), at).expect("send");
                if index + 1 < FRAGS {
                    rx.wake(); // behind the fragment: the read ends there
                }
                let (turn, read) = &holders[usize::from(index % 2)];
                turn.send(()).expect("holder waits");
                let (on, datagram) = read.recv_timeout(Duration::from_secs(10)).expect("read");
                read_on.push(on);
                got.push(datagram.map(|(from, f)| (from, f.to_contiguous().to_vec())));
            }
        });
        assert_eq!(got[..FRAGS as usize - 1].iter().flatten().count(), 0, "complete too early");
        assert_eq!(got.last(), Some(&Some((addr(2), payload))));
        assert!(read_on.windows(2).all(|w| w[0] != w[1]), "the holders alternate");
        let Source::Udp(inbox) = &rx.0 else { unreachable!("a socket") };
        assert_eq!(inbox.state.lock().partials.held.len(), 0, "nothing left to reassemble");
        assert_eq!(net.drops(addr(1)), Some(InboxDrops::default()));
    }

    #[test]
    fn unknown_destination_drops_silently() {
        let net = UdpNet::new(UdpConfig::default());
        net.register(addr(1));
        let mut tx = net.sender(addr(1));
        // Nothing to assert beyond "no panic".
        tx.unicast(addr(99), frame(b"x".to_vec()));
    }

    #[test]
    fn sender_outliving_unregister_blackholes() {
        let net = UdpNet::new(UdpConfig::default());
        let rx = net.register(addr(1));
        net.register(addr(2));
        let mut tx = net.sender(addr(2));
        tx.unicast(addr(1), frame(b"before".to_vec()));
        assert_eq!(&recv(&rx).1.to_contiguous()[..], b"before");
        net.unregister(addr(2));
        tx.unicast(addr(1), frame(b"after".to_vec()));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err(), "endpoint is gone");
        // Never registered at all: the same.
        net.sender(addr(7)).unicast(addr(1), frame(b"nobody".to_vec()));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    /// Two ports onto one endpoint, sending from two threads at once:
    /// their fragments interleave on the wire, and only message ids
    /// that are unique per *endpoint* keep the receiver from splicing
    /// one sender's fragments into the other's frame.
    #[test]
    fn two_senders_for_one_address_interleave_and_reassemble_intact() {
        const FRAMES: u8 = 8;
        let net = UdpNet::new(UdpConfig {
            max_datagram: ENVELOPE_LEN + 16,
            ..UdpConfig::default()
        });
        let rx = net.register(addr(1));
        net.register(addr(2));
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for port in 0..2u8 {
                let mut tx = net.sender(addr(2));
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    for n in 0..FRAMES {
                        // 10 fragments, every byte naming its frame.
                        tx.unicast(addr(1), frame(vec![port * FRAMES + n; 160]));
                    }
                });
            }
        });
        let mut seen: Vec<u8> = (0..2 * FRAMES)
            .map(|_| {
                let f = recv(&rx).1.to_contiguous();
                assert_eq!(f.len(), 160);
                assert!(f.iter().all(|b| *b == f[0]), "fragments of two frames spliced");
                f[0]
            })
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..2 * FRAMES).collect::<Vec<_>>(), "every frame exactly once");
    }

    /// A peer spraying first-fragments (or a lossy wire orphaning
    /// them) while complete messages keep flowing — so the inbox never
    /// sees a quiet tick — must not grow the reassembler past its caps.
    #[test]
    fn orphan_fragments_under_continuous_traffic_stay_under_the_caps() {
        let mut p = Partials::new(Duration::from_millis(500));
        let d = &mut InboxDrops::default();
        let key = |msg_id| FragKey { src: addr(9), msg_id };
        let body = || Bytes::from_static(&[0u8; 64]);
        for n in 0..1_000u64 {
            assert!(p.insert(key(n), 0, 2, body(), n, d).is_none(), "orphan {n}");
            // The continuous traffic: a two-fragment message completes.
            assert!(p.insert(key(10_000 + n), 0, 2, body(), n, d).is_none());
            assert!(p.insert(key(10_000 + n), 1, 2, body(), n, d).is_some(), "message {n}");
            assert!(p.reasm.pending() <= MAX_PARTIALS, "{} pending", p.reasm.pending());
            assert_eq!(p.reasm.pending(), p.held.len(), "ledger and reassembler agree");
        }
        // By count: the newest survive, the oldest went first (the
        // message in flight took the 256th place while it lasted).
        assert_eq!(p.reasm.pending(), MAX_PARTIALS - 1);
        assert!(p.stamps.contains_key(&key(999)) && !p.stamps.contains_key(&key(0)));
        assert_eq!(d.partial_count, 1_000 - (MAX_PARTIALS as u64 - 1));
        // By age, without a quiet tick: one more datagram, late enough.
        p.trim(999 + 500, d);
        assert_eq!((p.reasm.pending(), p.bytes), (0, 0));
        assert_eq!(d.partial_aged, MAX_PARTIALS as u64 - 1);
        // By bytes: a huge fragment count charges its slot table.
        for n in 0..100u64 {
            p.insert(key(n), 0, u16::MAX, body(), 2_000, d);
            assert!(p.bytes <= MAX_PARTIAL_BYTES);
        }
        assert!(p.reasm.pending() < 100, "{} pending", p.reasm.pending());
        assert_eq!(d.partial_bytes, 100 - p.reasm.pending() as u64);
    }

    #[test]
    fn unregistered_endpoint_blackholes() {
        let net = UdpNet::new(UdpConfig::default());
        let rx = net.register(addr(1));
        net.register(addr(2));
        net.unregister(addr(1));
        let mut tx = net.sender(addr(2));
        tx.unicast(addr(1), frame(b"x".to_vec()));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn prebound_socket_is_adopted_by_register() {
        let net = UdpNet::new(UdpConfig::default());
        let before = net.bind_endpoint(addr(1)).expect("bind");
        let rx = net.register(addr(1));
        assert_eq!(net.local_addr(addr(1)), Some(before), "same socket, same port");
        net.register(addr(2));
        let mut tx = net.sender(addr(2));
        tx.unicast(addr(1), frame(b"pb".to_vec()));
        let (_, f) = recv(&rx);
        assert_eq!(&f.to_contiguous()[..], b"pb");
    }

    #[test]
    fn add_peer_routes_to_a_foreign_socket() {
        // Simulate a remote process with a hand-bound socket.
        let foreign = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        foreign.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
        let at = foreign.local_addr().expect("addr");
        let net = UdpNet::new(UdpConfig::default());
        net.register(addr(1));
        net.add_peer(addr(2), at);
        let mut tx = net.sender(addr(1));
        tx.unicast(addr(2), frame(b"remote".to_vec()));
        let mut buf = [0u8; 256];
        let (n, _) = foreign.recv_from(&mut buf).expect("datagram arrives");
        let (env, body) = split_envelope(&Bytes::from(buf[..n].to_vec())).expect("valid");
        assert_eq!(env.src, addr(1).as_u64());
        assert_eq!(env.dst, addr(2).as_u64());
        assert_eq!(&body[..], b"remote");
    }

    /// One datagram of each kind the inbox discards, each read back as
    /// a count of one under its own reason — and nothing else counted.
    #[test]
    fn every_discard_is_counted_under_its_reason() {
        let raw = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
        let me = addr(1);
        // Plugs `me` into a fresh fabric; `flush` sends it one good
        // datagram and receives it, so everything sent before has been
        // through the inbox.
        let plug = |purge_after| {
            let net = UdpNet::new(UdpConfig { purge_after, ..UdpConfig::default() });
            let rx = net.register(me);
            (net.local_addr(me).expect("registered"), rx, net)
        };
        let env =
            |src: u64, dst: u64, msg_id, count| Envelope { src, dst, msg_id, index: 0, count };
        let send = |at, env: Envelope| raw.send_to(&encode_datagram(&env, b"x"), at).expect("send");
        let flush = |at, rx: &Inbox| {
            send(at, env(2, me.as_u64(), 0, 1));
            assert_eq!(recv(rx).0, addr(2));
        };

        let (at, rx, net) = plug(Duration::from_secs(60));
        raw.send_to(b"not an envelope", at).expect("send");
        send(at, env(GROUP_TAG | 5, me.as_u64(), 1, 1)); // a group cannot be a source
        send(at, env(2, GROUP_TAG | 9, 2, 1)); // group 9 was never joined
        send(at, env(2, addr(7).as_u64(), 3, 1)); // somebody else's unicast
        flush(at, &rx);
        let simple = InboxDrops {
            bad_envelope: 1,
            bad_source: 1,
            not_joined: 1,
            stray_unicast: 1,
            ..InboxDrops::default()
        };
        assert_eq!(net.drops(me), Some(simple));
        // One first-fragment more than the endpoint holds: the oldest
        // goes. (Flushed as it goes, so the socket buffer never fills.)
        for n in 0..=MAX_PARTIALS as u64 {
            send(at, env(2, me.as_u64(), 100 + n, 2));
            if n % 64 == 63 {
                flush(at, &rx);
            }
        }
        flush(at, &rx);
        assert_eq!(net.drops(me), Some(InboxDrops { partial_count: 1, ..simple }));

        // By bytes: each slot table of a 65 535-fragment message is
        // charged, and the one that crosses the cap evicts the oldest.
        let (at, rx, net) = plug(Duration::from_secs(60));
        let charge = 1 + u16::MAX as usize * std::mem::size_of::<Option<Bytes>>();
        for n in 0..=(MAX_PARTIAL_BYTES / charge) as u64 {
            send(at, env(2, me.as_u64(), 100 + n, u16::MAX));
        }
        flush(at, &rx);
        assert_eq!(net.drops(me), Some(InboxDrops { partial_bytes: 1, ..InboxDrops::default() }));

        // By age: the next wake after `purge_after` finds it stale.
        let (at, rx, net) = plug(Duration::from_millis(20));
        send(at, env(2, me.as_u64(), 100, 2));
        flush(at, &rx);
        std::thread::sleep(Duration::from_millis(30));
        flush(at, &rx);
        assert_eq!(net.drops(me), Some(InboxDrops { partial_aged: 1, ..InboxDrops::default() }));
    }
}
