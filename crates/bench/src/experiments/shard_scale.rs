//! The `shard_scale` experiment: aggregate key-ops/s of the sharded
//! serving layer (DESIGN.md §11) as the shard count grows on one
//! simulated Ethernet.
//!
//! One world per shard count (data groups of 3 replicas each, one
//! 3-member meta group), identical routed workload: 960 writes over
//! 256 keys with up to 64 in flight. The figure of merit is acked
//! writes per *simulated* second from workload start to drain — each
//! shard is an independent total order with its own sequencer and
//! gateway, so the aggregate rate should scale until the shared
//! 10 Mbit/s wire saturates. The worlds are the same at both scales
//! (each runs in milliseconds of wall clock).

use amoeba_core::{BatchPolicy, GroupConfig};
use amoeba_shard::{Cluster, ShardSpec, SimCluster};
use amoeba_sim::Series;

use crate::report::{Figure, Scale};

const SHARDS: [usize; 4] = [1, 2, 4, 8];
const OPS: u64 = 960;
const KEYS: u64 = 256;
const WINDOW: usize = 64;
const MEMBERS: usize = 3;

/// Acked writes per simulated second on a `shards`-shard cluster.
fn measure(shards: usize) -> f64 {
    let mut spec = ShardSpec::new(90 + shards as u64, shards, MEMBERS);
    // Batch the sequencers' accepts: unbatched small-payload PB
    // saturates the 10 Mbit/s wire near 4000 ops/s aggregate, which
    // would flatten the curve for reasons that have nothing to do
    // with sharding (DESIGN.md §6).
    let mut data = GroupConfig::scaled_for_world(MEMBERS, shards + 1);
    data.batch = BatchPolicy::On { max_batch: 8, flush_us: 200 };
    spec.data_config = Some(data);
    let mut c = SimCluster::new(spec);

    let started_us = c.now_us();
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
    let sim_us = c.now_us() - started_us;
    assert!(c.halt(), "{shards}-shard cluster did not halt");
    OPS as f64 / (sim_us as f64 / 1_000_000.0)
}

/// Routed key-ops per simulated second versus shard count.
pub fn shard_scale(_scale: Scale) -> Figure {
    let mut s = Series::new("key-ops/s");
    for &shards in &SHARDS {
        s.push(shards as f64, measure(shards));
    }
    Figure {
        id: "shard_scale",
        title: "Routed writes per simulated second vs shard count (3 replicas, batching on)",
        x_label: "shards",
        y_label: "acked ops per simulated second",
        series: vec![s],
        anchors: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_rises_with_every_doubling_of_the_shard_count() {
        let fig = shard_scale(Scale::Quick);
        let rates: Vec<f64> = fig.series[0].points().iter().map(|&(_, y)| y).collect();
        assert_eq!(rates.len(), SHARDS.len());
        assert!(rates.windows(2).all(|w| w[1] > w[0]), "not monotone: {rates:?}");
        assert!(rates[3] >= 3.0 * rates[0], "1 → 8 shards scales < 3x: {rates:?}");
    }
}
