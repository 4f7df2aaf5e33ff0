//! The network orchestrator: hosts, medium access (CSMA/CD) and CPU
//! dispatch, driven by the discrete-event simulation.

use std::collections::{BTreeSet, HashMap};

use amoeba_sim::{SimDuration, SimTime, Simulation, SplitMix64};

use crate::chaos::{ChaosPlan, ChaosState, ChaosStats};
use crate::cpu::{Cpu, CpuPriority};
use crate::frame::{Frame, FrameDst, MacAddr, McastAddr};
use crate::medium::{Medium, MediumState};
use crate::nic::{Nic, TxState};

/// Identifies a host (station) on the simulated segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub usize);

impl std::fmt::Display for HostId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Physical parameters of the simulated segment and interfaces.
///
/// The defaults ([`NetConfig::ether_10mbps`]) match the paper's testbed:
/// 10 Mbit/s Ethernet, 51.2 µs slot time, 9.6 µs inter-frame gap,
/// 1514-byte frames, Lance interfaces buffering 32 packets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    /// Link speed in bits per second.
    pub bit_rate: u64,
    /// Collision window / backoff quantum.
    pub slot_time: SimDuration,
    /// Jam signal duration after a collision.
    pub jam_time: SimDuration,
    /// Mandatory quiet time between frames.
    pub inter_frame_gap: SimDuration,
    /// Maximum frame length on the wire including the link header.
    pub mtu: u32,
    /// Receive-ring capacity of each interface (Lance: 32).
    pub rx_ring_cap: usize,
    /// Transmission attempts before a frame is abandoned.
    pub max_attempts: u32,
}

impl NetConfig {
    /// The paper's network: 10 Mbit/s Ethernet with Lance interfaces.
    pub fn ether_10mbps() -> Self {
        NetConfig {
            bit_rate: 10_000_000,
            slot_time: SimDuration::from_micros(51),
            jam_time: SimDuration::from_micros(5),
            inter_frame_gap: SimDuration::from_micros(10),
            mtu: 1514,
            rx_ring_cap: 32,
            max_attempts: 16,
        }
    }

    /// Time to clock one frame onto the wire: preamble (8 B) + frame
    /// (padded to the 60-byte minimum) + FCS (4 B) at `bit_rate`.
    pub fn wire_time(&self, frame_len: u32) -> SimDuration {
        let bytes = 8 + u64::from(frame_len.max(60)) + 4;
        SimDuration::from_micros(bytes * 8 * 1_000_000 / self.bit_rate)
    }
}

/// The embedding world's view of the network.
///
/// Implemented by the simulated Amoeba kernel (`amoeba-kernel`); the
/// network calls up when hardware events need software attention.
pub trait NetView: Sized + 'static {
    /// The logical contents of frames (never serialized in simulation).
    type Payload: Clone + 'static;

    /// Accessor for the network state within the world.
    fn net(&mut self) -> &mut Net<Self>;

    /// A frame landed in `host`'s receive ring. The kernel should charge
    /// receive-interrupt cost and drain with [`Nic::pop_rx`].
    fn on_frame_buffered(sim: &mut Simulation<Self>, host: HostId);

    /// A frame was dropped after exhausting its transmission attempts
    /// (16 collisions in a row). Default: ignore (protocol timers recover).
    fn on_tx_aborted(sim: &mut Simulation<Self>, host: HostId, frame: Frame<Self::Payload>) {
        let _ = (sim, host, frame);
    }
}

/// One simulated machine: a Lance NIC and a CPU.
pub struct Host<W: NetView> {
    /// This host's id (index on the segment).
    pub id: HostId,
    /// The network interface.
    pub nic: Nic<W::Payload>,
    /// The processor.
    pub cpu: Cpu<W>,
}

impl<W: NetView> std::fmt::Debug for Host<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Host").field("id", &self.id).field("cpu", &self.cpu).finish()
    }
}

/// The simulated network: a single shared segment plus its stations.
///
/// All mutation goes through associated functions taking the enclosing
/// [`Simulation`], because hardware activity (transmission end, backoff
/// expiry, CPU work completion) schedules future events.
pub struct Net<W: NetView> {
    /// Physical parameters.
    pub config: NetConfig,
    /// The shared wire.
    pub medium: Medium,
    hosts: Vec<Host<W>>,
    /// Hosts subscribed to each multicast address, ascending by id.
    /// Mirrors the per-NIC filters so the delivery fan-out is
    /// O(listeners) instead of a scan over every station — the scan is
    /// what made thousand-node worlds quadratic in the segment size.
    mcast_members: HashMap<McastAddr, Vec<HostId>>,
    /// Hosts with frames queued for transmission. Lets the idle-kick
    /// walk only the backlog instead of every station on the segment;
    /// `BTreeSet` keeps the kick order (ascending id) identical to the
    /// full scan it replaces.
    tx_backlog: BTreeSet<HostId>,
    rng_seed: SplitMix64,
    /// Installed fault schedule, if any ([`Net::set_chaos`]). `None`
    /// (the default) leaves the delivery path byte-identical to the
    /// fault-free simulator.
    chaos: Option<ChaosState>,
}

impl<W: NetView> std::fmt::Debug for Net<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Net")
            .field("config", &self.config)
            .field("hosts", &self.hosts.len())
            .field("medium", &self.medium)
            .finish()
    }
}

impl<W: NetView> Net<W> {
    /// Creates an empty segment. `seed` drives per-NIC backoff draws.
    pub fn new(config: NetConfig, seed: u64) -> Self {
        Net {
            config,
            medium: Medium::new(),
            hosts: Vec::new(),
            mcast_members: HashMap::new(),
            tx_backlog: BTreeSet::new(),
            rng_seed: SplitMix64::new(seed),
            chaos: None,
        }
    }

    /// Installs a deterministic fault schedule on the delivery path
    /// (see [`ChaosPlan`]). `seed` roots the decorrelated per-link
    /// randomness; the same `(plan, seed)` pair replays bit-exactly.
    pub fn set_chaos(&mut self, plan: ChaosPlan, seed: u64) {
        self.chaos = Some(ChaosState::new(plan, seed));
    }

    /// Removes the fault schedule (subsequent deliveries are perfect).
    pub fn clear_chaos(&mut self) {
        self.chaos = None;
    }

    /// What the chaos layer has done so far (zeroes with no plan).
    pub fn chaos_stats(&self) -> ChaosStats {
        self.chaos.as_ref().map(|c| c.stats).unwrap_or_default()
    }

    /// Attaches a new host to the segment and returns its id.
    pub fn add_host(&mut self) -> HostId {
        let id = HostId(self.hosts.len());
        let nic = Nic::new(
            MacAddr(id.0 as u16),
            self.config.rx_ring_cap,
            self.rng_seed.fork(id.0 as u64 + 1),
        );
        self.hosts.push(Host { id, nic, cpu: Cpu::new() });
        id
    }

    /// Immutable access to a host.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Net::add_host`].
    pub fn host(&self, id: HostId) -> &Host<W> {
        &self.hosts[id.0]
    }

    /// Mutable access to a host.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not returned by [`Net::add_host`].
    pub fn host_mut(&mut self, id: HostId) -> &mut Host<W> {
        &mut self.hosts[id.0]
    }

    /// Iterates over all hosts.
    pub fn hosts(&self) -> impl Iterator<Item = &Host<W>> {
        self.hosts.iter()
    }

    /// Subscribes `host` to `group`: programs the NIC filter and the
    /// segment-wide membership index the delivery fan-out reads. Always
    /// use this (not [`Nic::join_multicast`] directly) on an attached
    /// NIC, or multicast frames will miss the host.
    pub fn join_multicast(&mut self, host: HostId, group: McastAddr) {
        self.hosts[host.0].nic.join_multicast(group);
        let members = self.mcast_members.entry(group).or_default();
        if let Err(i) = members.binary_search(&host) {
            members.insert(i, host);
        }
    }

    /// Unsubscribes `host` from `group` (filter and index).
    pub fn leave_multicast(&mut self, host: HostId, group: McastAddr) {
        self.hosts[host.0].nic.leave_multicast(group);
        if let Some(members) = self.mcast_members.get_mut(&group) {
            if let Ok(i) = members.binary_search(&host) {
                members.remove(i);
            }
            if members.is_empty() {
                self.mcast_members.remove(&group);
            }
        }
    }

    // ------------------------------------------------------------------
    // Transmit path (CSMA/CD)
    // ------------------------------------------------------------------

    /// Queues `frame` for transmission from `host`. The source MAC is
    /// overwritten with the host's own address.
    pub fn send_frame(sim: &mut Simulation<W>, host: HostId, mut frame: Frame<W::Payload>) {
        let net = sim.world.net();
        assert!(
            frame.wire_len <= net.config.mtu,
            "frame of {} bytes exceeds the {}-byte MTU; fragment in FLIP first",
            frame.wire_len,
            net.config.mtu
        );
        frame.src = net.hosts[host.0].nic.mac;
        net.hosts[host.0].nic.tx_queue.push_back(frame);
        net.tx_backlog.insert(host);
        Self::try_start_tx(sim, host);
    }

    /// Attempts to put `host`'s head-of-queue frame on the wire.
    fn try_start_tx(sim: &mut Simulation<W>, host: HostId) {
        let now = sim.now();
        let (window, state) = {
            let net = sim.world.net();
            let nic = &net.hosts[host.0].nic;
            if nic.tx_state != TxState::Idle || nic.tx_queue.is_empty() {
                return;
            }
            (net.config.slot_time, net.medium.state)
        };
        match state {
            MediumState::Idle => Self::begin_tx(sim, host),
            MediumState::Busy { station, start } if now < start + window => {
                Self::collide(sim, host, station);
            }
            MediumState::Busy { .. } | MediumState::Jamming | MediumState::InterFrameGap => {
                let net = sim.world.net();
                net.hosts[host.0].nic.tx_state = TxState::Deferring;
                net.medium.deferring.push(host);
            }
        }
    }

    fn begin_tx(sim: &mut Simulation<W>, host: HostId) {
        let now = sim.now();
        let dur = {
            let net = sim.world.net();
            let wire_len =
                net.hosts[host.0].nic.tx_queue.front().expect("queue checked nonempty").wire_len;
            net.hosts[host.0].nic.tx_state = TxState::Transmitting;
            net.medium.state = MediumState::Busy { station: host, start: now };
            net.config.wire_time(wire_len)
        };
        let end = sim.schedule_in(dur, move |sim| Self::finish_tx(sim, host));
        sim.world.net().medium.end_event = Some(end);
    }

    /// Two stations' transmissions overlapped inside the collision
    /// window: destroy the frame in flight, jam, and back both off.
    fn collide(sim: &mut Simulation<W>, attacker: HostId, victim: HostId) {
        let (jam, end_event) = {
            let net = sim.world.net();
            net.medium.stats.collisions += 1;
            net.medium.stats.collision_us += net.config.jam_time.as_micros();
            net.medium.state = MediumState::Jamming;
            (net.config.jam_time, net.medium.end_event.take())
        };
        if let Some(ev) = end_event {
            sim.cancel(ev);
        }
        sim.schedule_in(jam, Self::medium_idle);
        Self::apply_backoff(sim, victim);
        Self::apply_backoff(sim, attacker);
    }

    fn apply_backoff(sim: &mut Simulation<W>, host: HostId) {
        let (max_attempts, slot, jam) = {
            let c = sim.world.net().config;
            (c.max_attempts, c.slot_time, c.jam_time)
        };
        let aborted = {
            let nic = &mut sim.world.net().hosts[host.0].nic;
            nic.stats.collisions += 1;
            nic.attempts += 1;
            if nic.attempts > max_attempts {
                nic.attempts = 0;
                nic.stats.tx_aborted += 1;
                nic.tx_state = TxState::Idle;
                nic.tx_queue.pop_front()
            } else {
                nic.tx_state = TxState::BackingOff;
                None
            }
        };
        if let Some(frame) = aborted {
            if sim.world.net().hosts[host.0].nic.tx_queue.is_empty() {
                sim.world.net().tx_backlog.remove(&host);
            }
            W::on_tx_aborted(sim, host, frame);
            // The next queued frame (if any) gets a fresh chance once the
            // medium idles; register interest via the deferral list.
            let net = sim.world.net();
            if !net.hosts[host.0].nic.tx_queue.is_empty() {
                net.hosts[host.0].nic.tx_state = TxState::Deferring;
                net.medium.deferring.push(host);
            }
            return;
        }
        let slots = sim.world.net().hosts[host.0].nic.backoff_slots();
        let delay = jam + slot.saturating_mul(slots);
        sim.schedule_in(delay, move |sim| {
            let nic = &mut sim.world.net().hosts[host.0].nic;
            if nic.tx_state == TxState::BackingOff {
                nic.tx_state = TxState::Idle;
                Self::try_start_tx(sim, host);
            }
        });
    }

    /// A frame finished without collision: deliver it and free the wire.
    fn finish_tx(sim: &mut Simulation<W>, host: HostId) {
        let (frame, ifg) = {
            let net = sim.world.net();
            net.medium.end_event = None;
            let nic = &mut net.hosts[host.0].nic;
            let frame = nic.tx_queue.pop_front().expect("transmitting NIC owns head frame");
            nic.tx_state = TxState::Idle;
            nic.attempts = 0;
            nic.stats.tx_frames += 1;
            if net.hosts[host.0].nic.tx_queue.is_empty() {
                net.tx_backlog.remove(&host);
            }
            net.medium.stats.frames += 1;
            net.medium.stats.busy_us += net.config.wire_time(frame.wire_len).as_micros();
            net.medium.state = MediumState::InterFrameGap;
            (frame, net.config.inter_frame_gap)
        };
        sim.schedule_in(ifg, Self::medium_idle);
        Self::deliver(sim, frame);
    }

    /// Copies the frame into every matching receive ring, raising
    /// [`NetView::on_frame_buffered`] per successful buffering. With a
    /// [`ChaosPlan`] installed, each `(frame, receiver)` pair is judged
    /// independently — one multicast can reach some members and not
    /// others, the failure mode the negative-acknowledgement scheme
    /// exists to fix.
    fn deliver(sim: &mut Simulation<W>, frame: Frame<W::Payload>) {
        // Receiver resolution is indexed — O(listeners), not a scan of
        // the segment — but always yields ascending host order, exactly
        // like the scan it replaced (delivery order is observable
        // through chaos-delayed event sequence numbers).
        let receivers: Vec<HostId> = {
            let net = &*sim.world.net();
            match frame.dst {
                // MACs are host indices by construction (`add_host`).
                FrameDst::Unicast(mac) => net
                    .hosts
                    .get(mac.0 as usize)
                    .filter(|h| h.nic.mac != frame.src)
                    .map(|h| vec![h.id])
                    .unwrap_or_default(),
                FrameDst::Multicast(group) => net
                    .mcast_members
                    .get(&group)
                    .map(|members| {
                        members
                            .iter()
                            .copied()
                            .filter(|h| net.hosts[h.0].nic.mac != frame.src)
                            .collect()
                    })
                    .unwrap_or_default(),
                FrameDst::Broadcast => net
                    .hosts
                    .iter()
                    .filter(|h| h.nic.mac != frame.src)
                    .map(|h| h.id)
                    .collect(),
            }
        };
        let src = frame.src.0 as usize;
        for r in receivers {
            let now = sim.now();
            let Some(chaos) = sim.world.net().chaos.as_mut() else {
                Self::deliver_to(sim, r, frame.clone());
                continue;
            };
            let verdict = chaos.judge(now, src, r.0);
            for _ in 0..verdict.immediate {
                Self::deliver_to(sim, r, frame.clone());
            }
            if let Some((copies, delay_us)) = verdict.delayed {
                for _ in 0..copies {
                    let late = frame.clone();
                    sim.schedule_in(SimDuration::from_micros(delay_us), move |sim| {
                        Self::deliver_to(sim, r, late);
                    });
                }
            }
        }
    }

    /// Buffers one frame copy at `host`'s NIC (the tail of the wire).
    fn deliver_to(sim: &mut Simulation<W>, host: HostId, frame: Frame<W::Payload>) {
        let buffered = sim.world.net().hosts[host.0].nic.rx_accept(frame);
        if buffered {
            W::on_frame_buffered(sim, host);
        }
    }

    /// The wire went quiet: kick every station with pending traffic.
    /// Each station restarts after a small random offset (under one
    /// slot time) — stations that pick the same slot still collide, so
    /// a saturated segment stays contention-limited (the paper's ~61 %
    /// utilization), but two lightly loaded stations don't collide on
    /// *every* idle transition as a naive simultaneous restart would.
    fn medium_idle(sim: &mut Simulation<W>) {
        let kick: Vec<HostId> = {
            let net = sim.world.net();
            net.medium.state = MediumState::Idle;
            let mut kick = std::mem::take(&mut net.medium.deferring);
            for host in &kick {
                let nic = &mut net.hosts[host.0].nic;
                if nic.tx_state == TxState::Deferring {
                    nic.tx_state = TxState::Idle;
                }
            }
            // Also wake stations that finished a frame and have more
            // queued — the backlog set, in ascending id order like the
            // full-segment scan this replaced.
            for &h in &net.tx_backlog {
                let nic = &net.hosts[h.0].nic;
                if nic.tx_state == TxState::Idle && !nic.tx_queue.is_empty() && !kick.contains(&h) {
                    kick.push(h);
                }
            }
            kick
        };
        for host in kick {
            let jitter = {
                let net = sim.world.net();
                let slot = net.config.slot_time.as_micros();
                SimDuration::from_micros(net.hosts[host.0].nic.rng.gen_range(slot.max(1)))
            };
            sim.schedule_in(jitter, move |sim| Self::try_start_tx(sim, host));
        }
    }

    // ------------------------------------------------------------------
    // CPU dispatch
    // ------------------------------------------------------------------

    /// Runs `work` on `host`'s CPU: it occupies the CPU for `cost`, then
    /// `work` executes (at completion time) and the next queued item
    /// starts. Higher [`CpuPriority`] work runs first; equal priorities
    /// run FIFO.
    pub fn cpu_run(
        sim: &mut Simulation<W>,
        host: HostId,
        prio: CpuPriority,
        cost: SimDuration,
        work: impl FnOnce(&mut Simulation<W>) + 'static,
    ) {
        let cpu = &mut sim.world.net().hosts[host.0].cpu;
        if cpu.busy {
            cpu.enqueue(prio, cost, Box::new(work));
        } else {
            cpu.busy = true;
            Self::execute(sim, host, cost, work);
        }
    }

    fn execute(
        sim: &mut Simulation<W>,
        host: HostId,
        cost: SimDuration,
        work: impl FnOnce(&mut Simulation<W>) + 'static,
    ) {
        {
            let cpu = &mut sim.world.net().hosts[host.0].cpu;
            cpu.stats.busy_us += cost.as_micros();
            cpu.stats.jobs += 1;
        }
        sim.schedule_in(cost, move |sim| {
            work(sim);
            Self::cpu_complete(sim, host);
        });
    }

    fn cpu_complete(sim: &mut Simulation<W>, host: HostId) {
        let next = sim.world.net().hosts[host.0].cpu.dequeue();
        match next {
            Some(w) => Self::execute(sim, host, w.cost, w.run),
            None => sim.world.net().hosts[host.0].cpu.busy = false,
        }
    }

    /// Total elapsed-time utilization of the wire since simulation start.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.medium.stats.utilization(now - SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::McastAddr;
    use amoeba_sim::Simulation;

    struct World {
        net: Net<World>,
        received: Vec<(HostId, u32)>,
        aborted: usize,
    }

    impl NetView for World {
        type Payload = u32;
        fn net(&mut self) -> &mut Net<World> {
            &mut self.net
        }
        fn on_frame_buffered(sim: &mut Simulation<World>, host: HostId) {
            while let Some(f) = sim.world.net.host_mut(host).nic.pop_rx() {
                sim.world.received.push((host, f.payload));
            }
        }
        fn on_tx_aborted(sim: &mut Simulation<World>, _host: HostId, _frame: Frame<u32>) {
            sim.world.aborted += 1;
        }
    }

    fn world(hosts: usize) -> Simulation<World> {
        let mut net = Net::new(NetConfig::ether_10mbps(), 7);
        for _ in 0..hosts {
            net.add_host();
        }
        Simulation::new(World { net, received: vec![], aborted: 0 }, 7)
    }

    #[test]
    fn unicast_reaches_only_target() {
        let mut sim = world(3);
        Net::send_frame(&mut sim, HostId(0), Frame::unicast(HostId(0), HostId(2), 116, 5));
        sim.run();
        assert_eq!(sim.world.received, vec![(HostId(2), 5)]);
    }

    #[test]
    fn broadcast_reaches_everyone_but_sender() {
        let mut sim = world(4);
        Net::send_frame(&mut sim, HostId(1), Frame::broadcast(HostId(1), 116, 9));
        sim.run();
        let mut hosts: Vec<usize> = sim.world.received.iter().map(|(h, _)| h.0).collect();
        hosts.sort_unstable();
        assert_eq!(hosts, vec![0, 2, 3]);
    }

    #[test]
    fn multicast_respects_filters() {
        let mut sim = world(4);
        let g = McastAddr(1);
        sim.world.net.join_multicast(HostId(2), g);
        sim.world.net.join_multicast(HostId(3), g);
        Net::send_frame(&mut sim, HostId(0), Frame::multicast(HostId(0), g, 116, 1));
        sim.run();
        let mut hosts: Vec<usize> = sim.world.received.iter().map(|(h, _)| h.0).collect();
        hosts.sort_unstable();
        assert_eq!(hosts, vec![2, 3]);
    }

    #[test]
    fn wire_time_matches_10mbps() {
        let c = NetConfig::ether_10mbps();
        // 116-byte frame: 8 + 116 + 4 = 128 bytes = 1024 bits at 10 Mbps
        // = 102.4 us, truncated to 102.
        assert_eq!(c.wire_time(116), SimDuration::from_micros(102));
        // Minimum frame padding applies below 60 bytes.
        assert_eq!(c.wire_time(10), c.wire_time(60));
    }

    #[test]
    fn sender_drains_queue_back_to_back() {
        let mut sim = world(2);
        for i in 0..5 {
            Net::send_frame(&mut sim, HostId(0), Frame::unicast(HostId(0), HostId(1), 1000, i));
        }
        sim.run();
        let payloads: Vec<u32> = sim.world.received.iter().map(|(_, p)| *p).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4], "frames arrive in order");
        assert_eq!(sim.world.net.host(HostId(0)).nic.stats.tx_frames, 5);
    }

    #[test]
    fn contending_senders_collide_then_both_deliver() {
        let mut sim = world(3);
        // Two stations transmit "simultaneously": both frames must still
        // arrive (after collisions and backoff).
        Net::send_frame(&mut sim, HostId(0), Frame::unicast(HostId(0), HostId(2), 500, 100));
        Net::send_frame(&mut sim, HostId(1), Frame::unicast(HostId(1), HostId(2), 500, 200));
        sim.run();
        let mut payloads: Vec<u32> = sim.world.received.iter().map(|(_, p)| *p).collect();
        payloads.sort_unstable();
        assert_eq!(payloads, vec![100, 200]);
        assert!(sim.world.net.medium.stats.collisions >= 1, "simultaneous start must collide");
        assert_eq!(sim.world.aborted, 0);
    }

    #[test]
    fn heavy_contention_still_delivers_everything() {
        let mut sim = world(10);
        let mut expected = 0;
        for h in 0..9 {
            for i in 0..20 {
                Net::send_frame(
                    &mut sim,
                    HostId(h),
                    Frame::unicast(HostId(h), HostId(9), 200, (h * 100 + i) as u32),
                );
                expected += 1;
            }
        }
        sim.run();
        assert_eq!(sim.world.received.len(), expected);
        assert!(sim.world.net.medium.stats.collisions > 0);
    }

    #[test]
    fn rx_ring_overflow_drops_frames() {
        let mut sim = world(2);
        // Make the receiver's CPU never drain by using a tiny ring and
        // many frames: on_frame_buffered drains here, so instead fill the
        // ring directly to verify drop accounting at the NIC level.
        let receiver = HostId(1);
        for i in 0..40 {
            let f = Frame::unicast(HostId(0), receiver, 116, i);
            sim.world.net.host_mut(receiver).nic.rx_accept(f);
        }
        let stats = sim.world.net.host(receiver).nic.stats;
        assert_eq!(stats.rx_frames, 32, "Lance buffers exactly 32");
        assert_eq!(stats.rx_overflow, 8);
    }

    #[test]
    fn medium_tracks_utilization() {
        let mut sim = world(2);
        Net::send_frame(&mut sim, HostId(0), Frame::unicast(HostId(0), HostId(1), 1000, 1));
        sim.run();
        let stats = sim.world.net.medium.stats;
        assert_eq!(stats.frames, 1);
        assert_eq!(stats.busy_us, NetConfig::ether_10mbps().wire_time(1000).as_micros());
    }

    #[test]
    fn cpu_runs_by_priority_and_charges_time() {
        let mut sim = world(1);
        let h = HostId(0);
        // Submit user work first; while it runs, queue interrupt + user.
        Net::cpu_run(&mut sim, h, CpuPriority::User, SimDuration::from_micros(100), |sim| {
            sim.world.received.push((HostId(0), 1));
        });
        Net::cpu_run(&mut sim, h, CpuPriority::User, SimDuration::from_micros(100), |sim| {
            sim.world.received.push((HostId(0), 3));
        });
        Net::cpu_run(&mut sim, h, CpuPriority::Interrupt, SimDuration::from_micros(50), |sim| {
            sim.world.received.push((HostId(0), 2));
        });
        sim.run();
        let order: Vec<u32> = sim.world.received.iter().map(|(_, p)| *p).collect();
        assert_eq!(order, vec![1, 2, 3], "running job finishes; interrupt preempts queue order");
        assert_eq!(sim.world.net.host(h).cpu.stats.busy_us, 250);
        assert_eq!(sim.world.net.host(h).cpu.stats.jobs, 3);
        assert_eq!(sim.now(), amoeba_sim::SimTime::from_micros(250));
    }

    #[test]
    #[should_panic(expected = "exceeds the 1514-byte MTU")]
    fn oversized_frame_panics() {
        let mut sim = world(2);
        Net::send_frame(&mut sim, HostId(0), Frame::unicast(HostId(0), HostId(1), 3000, 0));
    }

    #[test]
    fn chaos_partition_cuts_and_heals() {
        use crate::chaos::{ChaosPlan, HostSet, LinkFaults, Partition};
        let mut sim = world(3);
        // Host 2 is cut off from hosts 0 and 1 until t = 2000 µs.
        sim.world.net.set_chaos(
            ChaosPlan {
                link: LinkFaults::none(),
                noise_from_us: 0,
                noise_until_us: 0,
                partitions: vec![Partition {
                    side_a: HostSet::from_mask(0b100),
                    from_us: 0,
                    until_us: 2_000,
                }],
            },
            1,
        );
        Net::send_frame(&mut sim, HostId(0), Frame::broadcast(HostId(0), 116, 1));
        sim.run_until(amoeba_sim::SimTime::from_micros(2_000));
        assert_eq!(sim.world.received, vec![(HostId(1), 1)], "host 2 is partitioned away");
        assert_eq!(sim.world.net.chaos_stats().partitioned, 1);
        // After the heal, everything flows again.
        Net::send_frame(&mut sim, HostId(0), Frame::broadcast(HostId(0), 116, 2));
        sim.run();
        let mut got = sim.world.received.clone();
        got.sort_unstable_by_key(|(h, p)| (*p, h.0));
        assert_eq!(
            got,
            vec![(HostId(1), 1), (HostId(1), 2), (HostId(2), 2)],
            "post-heal broadcast reaches everyone"
        );
    }

    #[test]
    fn chaos_duplication_is_judged_per_receiver() {
        use crate::chaos::{ChaosPlan, LinkFaults};
        let mut sim = world(3);
        // Full-probability duplication: every receiver of the
        // broadcast gets two copies, each link judged on its own.
        sim.world.net.set_chaos(
            ChaosPlan {
                link: LinkFaults { duplicate: 1.0, ..LinkFaults::none() },
                noise_from_us: 0,
                noise_until_us: u64::MAX,
                partitions: Vec::new(),
            },
            5,
        );
        Net::send_frame(&mut sim, HostId(0), Frame::broadcast(HostId(0), 116, 7));
        sim.run();
        assert_eq!(sim.world.received.len(), 4, "both receivers get two copies");
        assert_eq!(sim.world.net.chaos_stats().duplicated, 2);
    }

    #[test]
    fn chaos_reorder_delays_past_later_frames() {
        use crate::chaos::{ChaosPlan, LinkFaults};
        let mut sim = world(2);
        let mut plan = ChaosPlan::quiet();
        plan.link = LinkFaults {
            drop: 0.0,
            duplicate: 0.0,
            reorder: 1.0,
            reorder_min_us: 50_000,
            reorder_max_us: 50_000,
        };
        plan.noise_until_us = 150; // only the first frame is judged inside the window
        sim.world.net.set_chaos(plan, 2);
        // Queued back to back: frame 1 lands inside the noise window and
        // is delayed 50 ms; frame 2 lands after it and passes through.
        Net::send_frame(&mut sim, HostId(0), Frame::unicast(HostId(0), HostId(1), 116, 1));
        Net::send_frame(&mut sim, HostId(0), Frame::unicast(HostId(0), HostId(1), 116, 2));
        sim.run();
        let payloads: Vec<u32> = sim.world.received.iter().map(|(_, p)| *p).collect();
        assert_eq!(payloads, vec![2, 1], "the delayed copy arrives after the later frame");
        assert_eq!(sim.world.net.chaos_stats().reordered, 1);
    }

    #[test]
    fn chaos_off_is_the_default_and_clear_restores_it() {
        let mut sim = world(2);
        assert_eq!(sim.world.net.chaos_stats(), crate::chaos::ChaosStats::default());
        sim.world.net.set_chaos(
            crate::chaos::ChaosPlan {
                link: crate::chaos::LinkFaults { drop: 1.0, ..crate::chaos::LinkFaults::none() },
                noise_from_us: 0,
                noise_until_us: u64::MAX,
                partitions: Vec::new(),
            },
            1,
        );
        Net::send_frame(&mut sim, HostId(0), Frame::unicast(HostId(0), HostId(1), 116, 1));
        sim.run();
        assert!(sim.world.received.is_empty());
        sim.world.net.clear_chaos();
        Net::send_frame(&mut sim, HostId(0), Frame::unicast(HostId(0), HostId(1), 116, 2));
        sim.run();
        assert_eq!(sim.world.received, vec![(HostId(1), 2)]);
    }

    #[test]
    fn deterministic_under_seed() {
        fn run(seed: u64) -> Vec<(HostId, u32)> {
            let mut net = Net::new(NetConfig::ether_10mbps(), seed);
            for _ in 0..5 {
                net.add_host();
            }
            let mut sim = Simulation::new(World { net, received: vec![], aborted: 0 }, seed);
            for h in 0..4 {
                for i in 0..10 {
                    Net::send_frame(
                        &mut sim,
                        HostId(h),
                        Frame::unicast(HostId(h), HostId(4), 300, (h * 10 + i) as u32),
                    );
                }
            }
            sim.run();
            sim.world.received
        }
        assert_eq!(run(3), run(3));
    }
}
