//! Figure 6: disjoint groups sharing one Ethernet.

use amoeba_core::{GroupConfig, GroupId, Method};
use amoeba_kernel::{Admission, SimWorld, Workload};
use amoeba_sim::Series;

use crate::report::{Anchor, Figure, Scale};

/// Builds `groups` disjoint groups of `members` each (every member on
/// its own host, all hosts on one segment), everyone sending 0-byte
/// messages continuously; returns (aggregate broadcasts/s, utilization).
fn parallel_groups_rate(groups: usize, members: usize, scale: Scale, seed: u64) -> (f64, f64) {
    let config = GroupConfig { method: Method::Pb, ..GroupConfig::paper() };
    let formation: Vec<_> = (0..groups)
        .map(|g| (GroupId(1 + g as u64), (g * members..(g + 1) * members).collect(), config.clone()))
        .collect();
    let nodes = groups * members;
    let mut w = SimWorld::formed(seed, nodes, Admission::Immediate, &formation);
    for n in 0..nodes {
        w.set_workload(n, Workload::Sender { size: 0, remaining: u64::MAX });
    }
    let window = w.measure_window(scale.warmup(), scale.window());
    (window.rate, window.busy)
}

/// Figure 6: "Throughput for groups of 2, 4, and 8 members running in
/// parallel and using the PB method."
///
/// Paper anchors: the aggregate maximum is 3175 broadcasts/s with 5
/// groups of 2; beyond that Ethernet collisions erode it; utilization
/// at the peak is ≈ 61 % — "as much as can be expected from an Ethernet
/// with multiple uncoordinated senders". The paper could not measure
/// more groups of 8 for lack of machines; we sweep what they swept.
pub fn fig6_parallel_groups(scale: Scale) -> Figure {
    let mut series = Vec::new();
    let mut peak = 0.0f64;
    let mut util_at_peak = 0.0f64;
    for &members in &[2usize, 4, 8] {
        let max_groups = match members {
            2 => 7,
            4 => 7,
            _ => 3, // the paper ran out of machines for 8-member groups too
        };
        let mut s = Series::new(format!("{members} members"));
        for groups in 1..=max_groups {
            let (rate, util) =
                parallel_groups_rate(groups, members, scale, 600 + (members * 10 + groups) as u64);
            s.push(groups as f64, rate);
            if rate > peak {
                peak = rate;
                util_at_peak = util;
            }
        }
        series.push(s);
    }
    Figure {
        id: "fig6",
        title: "Aggregate throughput of disjoint parallel groups (PB, 0-byte)",
        x_label: "groups",
        y_label: "broadcasts/second (all groups)",
        anchors: vec![
            Anchor {
                what: "peak aggregate throughput".into(),
                paper: 3175.0,
                measured: peak,
                unit: "msg/s",
            },
            Anchor {
                what: "Ethernet utilization at peak".into(),
                paper: 0.61,
                measured: util_at_peak,
                unit: "frac",
            },
        ],
        series,
    }
}
