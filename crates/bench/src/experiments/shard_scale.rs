//! The `shard_scale` experiment: aggregate key-ops/s of the sharded
//! serving layer (DESIGN.md §11) as the shard count grows on one
//! simulated Ethernet.
//!
//! One world per shard count (data groups of 3 replicas each, one
//! 3-member meta group), identical routed workload: 32 768 writes over
//! 8 192 keys with up to 2 048 in flight. The figure of merit is acked
//! writes per *simulated* second from workload start to drain — each
//! shard is an independent total order with its own sequencer and
//! gateway, so the aggregate rate scales until the shared 10 Mbit/s
//! wire saturates, and the share of that window the wire carried bits
//! is reported beside every point. The worlds are the same at both
//! scales (each runs in under a second of wall clock).
//!
//! **The load is what saturates one shard.** Until a gateway sent what
//! queued as one frame (DESIGN.md §11.2) every write was its own
//! ordered message, 64 in flight over 960 writes loaded every world,
//! and the curve rose 281 → 558 → 1 069 → 1 864 from 1 to 8 shards.
//! The same load now reads 8 136 / 7 680 / 8 421 / 7 742: one shard
//! carries four times what eight did, and a curve that flat says only
//! that nothing was loaded. At 2 048 in flight the curve is the paper's
//! Fig. 6 (`scenarios/fig6_parallel_peak.toml`) one tier up: it rises
//! from one shard to two, peaks with the wire carrying bits ≈ 3/4 of
//! the time — a contended Ethernet gives no more; the paper measured
//! 61 % at its own peak — and then falls as more uncoordinated senders
//! spend the wire on collisions.

use amoeba_core::{BatchPolicy, GroupConfig};
use amoeba_shard::{Cluster, ShardSpec, SimCluster};
use amoeba_sim::Series;

use crate::report::{Figure, Scale};

const SHARDS: [usize; 4] = [1, 2, 4, 8];
const OPS: u64 = 32_768;
const KEYS: u64 = 8_192;
const WINDOW: usize = 2_048;
const MEMBERS: usize = 3;

/// Acked writes per simulated second on a `shards`-shard cluster, and
/// the share of that time the wire carried bits.
fn measure(shards: usize) -> (f64, f64) {
    let mut spec = ShardSpec::new(90 + shards as u64, shards, MEMBERS);
    // Batch the sequencers' accepts too (DESIGN.md §6): an accept per
    // frame is wire time that has nothing to do with sharding.
    let mut data = GroupConfig::scaled_for_world(MEMBERS, shards + 1);
    data.batch = BatchPolicy::On { max_batch: 8, flush_us: 200 };
    spec.data_config = Some(data);
    let mut c = SimCluster::new(spec);

    // `utilization` is a share of all simulated time: busy time is
    // that share times the clock, at both ends of the window.
    let busy_us = |c: &SimCluster| c.world.utilization() * c.now_us() as f64;
    let (started_us, busy_before) = (c.now_us(), busy_us(&c));
    let mut submitted = 0u64;
    let mut cycles = 0u64;
    while c.router().stats().puts_acked < OPS {
        while submitted < OPS && c.router().in_flight() < WINDOW {
            let key = format!("k{}", submitted % KEYS);
            c.router().put(&key, &format!("v{submitted}"));
            submitted += 1;
        }
        c.advance();
        cycles += 1;
        assert!(cycles < 600_000, "{shards}-shard workload never drained");
    }
    let sim_us = (c.now_us() - started_us) as f64;
    let wire = (busy_us(&c) - busy_before) / sim_us;
    assert!(c.halt(), "{shards}-shard cluster did not halt");
    (OPS as f64 / (sim_us / 1_000_000.0), wire)
}

/// Routed key-ops per simulated second versus shard count.
pub fn shard_scale(_scale: Scale) -> Figure {
    let mut rate = Series::new("key-ops/s");
    let mut wire = Series::new("wire busy %");
    for &shards in &SHARDS {
        let (ops_per_s, busy) = measure(shards);
        rate.push(shards as f64, ops_per_s);
        wire.push(shards as f64, busy * 100.0);
    }
    Figure {
        id: "shard_scale",
        title: "Routed writes per simulated second vs shard count (3 replicas, batching on)",
        x_label: "shards",
        y_label: "acked ops per simulated second; share of it the wire carried bits",
        series: vec![rate, wire],
        anchors: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the curve read, per shard count, while every write was its
    /// own ordered message (64 in flight, 960 writes).
    const ONE_MESSAGE_PER_WRITE: [f64; 4] = [281.4, 558.1, 1_069.0, 1_864.1];

    /// "Every doubling" ends where the module doc says it does: at the
    /// doubling that finds the shared wire full.
    #[test]
    fn throughput_rises_with_every_doubling_of_the_shard_count() {
        let fig = shard_scale(Scale::Quick);
        let ys = |i: usize| fig.series[i].points().iter().map(|&(_, y)| y).collect::<Vec<f64>>();
        let (rates, wire) = (ys(0), ys(1));
        assert_eq!(rates.len(), SHARDS.len());
        assert!(
            rates.iter().zip(ONE_MESSAGE_PER_WRITE).all(|(now, then)| *now > then),
            "a point fell below one message per write: {rates:?}"
        );
        assert!(rates[0] >= 20.0 * ONE_MESSAGE_PER_WRITE[0], "one shard: {rates:?}");
        // It rises while the wire has room and stops where it has none.
        let peak = (0..rates.len()).max_by(|&a, &b| rates[a].total_cmp(&rates[b])).expect("points");
        assert!(peak > 0, "a second shard added nothing: {rates:?}");
        assert!(wire[0] < 55.0, "one shard already fills the wire: {wire:?}");
        assert!(
            wire[peak..].iter().all(|busy| *busy >= 65.0),
            "the curve stopped rising at {} shards with the wire idle: {rates:?} {wire:?}",
            SHARDS[peak]
        );
    }
}
