//! The `batch_sweep` experiment: sequencer batching × group size.
//!
//! This sweep goes *beyond the paper*: §5 identifies the sequencer's
//! per-message work (a stamp, a multicast, an interrupt per receiver)
//! as the throughput ceiling (Figs. 4–6, 8) and leaves amortization on
//! the table. With `BatchPolicy::On` the sequencer coalesces up to
//! `max_batch` messages per `BcastBatch` frame and senders pipeline a
//! window of requests into `BcastReqBatch` frames (DESIGN.md §6), so
//! the per-packet costs — interrupts, driver work, multicast fan-out —
//! are paid once per batch instead of once per message. The curve to
//! expect: "batch off" reproduces Fig. 4's ≈815 msg/s plateau; each
//! doubling of the batch size lifts the plateau until the per-message
//! residue (stamping, delivery context switches) dominates.

use amoeba_core::{GroupConfig, Method};
use amoeba_sim::Series;

use super::measure_throughput_cfg;
use crate::report::{Anchor, Figure, Scale};

/// Group sizes swept on the x-axis (group size = #senders, as in the
/// paper's throughput figures).
const GROUPS: [usize; 4] = [2, 4, 8, 12];

/// Batch sizes swept (0 = `BatchPolicy::Off`). The pipelining window
/// follows the batch size (`GroupConfig::with_batching`'s two fields
/// over `GroupConfig::paper`).
const BATCHES: [usize; 4] = [0, 4, 8, 16];

/// The acceptance bar: batching must at least double the zero-byte
/// peak at group size 8 (ISSUE 2 / ROADMAP "heavy traffic").
const TARGET_SPEEDUP: f64 = 2.0;

fn cfg_for(batch: usize) -> GroupConfig {
    // Pin PB so the sweep isolates batching (Dynamic picks PB at these
    // sizes anyway; BB interacts via accept-batching, covered by tests).
    let paper = GroupConfig { method: Method::Pb, ..GroupConfig::paper() };
    if batch == 0 {
        return paper;
    }
    let preset = GroupConfig::with_batching(batch);
    GroupConfig { batch: preset.batch, send_window: preset.send_window, ..paper }
}

/// Throughput for 0-byte messages, batching off vs. increasing batch
/// sizes, group size = #senders.
pub fn batch_sweep(scale: Scale) -> Figure {
    let mut series = Vec::new();
    let mut off_at_8 = 0.0f64;
    let mut best_on_at_8 = 0.0f64;
    for &batch in &BATCHES {
        let label =
            if batch == 0 { "batch off".to_string() } else { format!("batch {batch}") };
        let mut s = Series::new(label);
        for &g in &GROUPS {
            let seed = 4200 + (batch * 31 + g) as u64;
            let rate = measure_throughput_cfg(g, 0, cfg_for(batch), scale, seed);
            if g == 8 {
                if batch == 0 {
                    off_at_8 = rate;
                } else {
                    best_on_at_8 = best_on_at_8.max(rate);
                }
            }
            s.push(g as f64, rate);
        }
        series.push(s);
    }
    let speedup = if off_at_8 > 0.0 { best_on_at_8 / off_at_8 } else { 0.0 };
    Figure {
        id: "batch_sweep",
        title: "Throughput with sequencer batching (0-byte, PB, group size = #senders)",
        x_label: "group size",
        y_label: "broadcasts/second",
        anchors: vec![
            Anchor {
                what: "unbatched peak reproduces Fig. 4 (sequencer-bound)".into(),
                paper: 815.0,
                measured: series[0].y_max().unwrap_or(0.0),
                unit: "msg/s",
            },
            Anchor {
                what: "best batched / unbatched throughput at group 8".into(),
                paper: TARGET_SPEEDUP,
                measured: speedup,
                unit: "ratio",
            },
        ],
        series,
    }
}
