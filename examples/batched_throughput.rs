//! Pipelined and batched broadcast: the performance knobs in action.
//!
//! Streams the same workload through three groups — the paper's
//! blocking API (`BatchPolicy::Off`, window 1), a pipelining window
//! alone, and the window plus sequencer batching (DESIGN.md §6) — and
//! reports wall-clock throughput and frames per message on the live
//! runtime. On an in-memory fabric a frame costs microseconds, so the
//! window is what buys wall-clock time and batching buys *frames* (on
//! the paper's hardware a frame is an interrupt at every member, and
//! batching's 200 µs flush timer is a tenth of one message's cost; here
//! it is thirty messages' worth). The calibrated answer to "how much
//! does batching buy on the paper's hardware?" is the `batch_sweep`
//! experiment (`cargo run -p amoeba-bench --bin figures --release --
//! batch_sweep`); this example shows the same machinery working over
//! real threads and the real codec.
//!
//! ```text
//! cargo run --release --example batched_throughput
//! ```

use std::time::Instant;

use amoeba::prelude::*;

const MESSAGES: usize = 4_000;

/// Runs `MESSAGES` broadcasts through a fresh 3-member group whose
/// other two members stay silent; returns (messages per second, frames
/// the three members sent per message).
fn run(config: GroupConfig, seed: u64) -> Result<(f64, f64), Error> {
    let amoeba = Amoeba::new(seed, FaultPlan::reliable());
    let group = GroupId(1);
    let receiver = amoeba.create_group(group, config.clone())?;
    let sender = amoeba.join_group(group, config.clone())?;
    let observer = amoeba.join_group(group, config)?;
    let members = [&receiver, &sender, &observer];
    let frames = || members.iter().map(|m| m.stats().msgs_out).sum::<u64>();

    let payloads: Vec<Bytes> = (0..MESSAGES).map(|i| Bytes::from(format!("m{i:04}"))).collect();
    let frames_before = frames();
    let start = Instant::now();
    for result in sender.send_pipelined(payloads) {
        result?;
    }
    let elapsed = start.elapsed().as_secs_f64();

    let mut delivered = 0;
    while delivered < MESSAGES {
        if let GroupEvent::Message { .. } =
            receiver.receive_timeout(std::time::Duration::from_secs(10))?
        {
            delivered += 1;
        }
    }
    assert_eq!(receiver.stats().flow_control_drops, 0, "the history buffer filled");
    let per_message = (frames() - frames_before) as f64 / MESSAGES as f64;
    Ok((MESSAGES as f64 / elapsed, per_message))
}

fn main() -> Result<(), Error> {
    // The paper's API: one frame per message, one send in flight.
    let blocking = GroupConfig::default();
    // The performance knobs (README "Performance knobs"): a window of
    // 16 requests in flight…
    let pipelined = GroupConfig { send_window: 16, ..GroupConfig::default() };
    // …and the sequencer coalescing up to 16 messages per batch frame.
    let batched = GroupConfig {
        batch: BatchPolicy::On { max_batch: 16, flush_us: 200 },
        ..pipelined.clone()
    };

    let (rate_off, frames_off) = run(blocking, 7)?;
    let (rate_win, frames_win) = run(pipelined, 7)?;
    let (rate_on, frames_on) = run(batched, 7)?;

    println!("{MESSAGES} broadcasts through a 3-member live group (one sender):");
    println!("  window 1, batching off:  {rate_off:>8.0} msg/s  {frames_off:.2} frames/msg");
    println!(
        "  window 16, batching off: {rate_win:>8.0} msg/s  {frames_win:.2} frames/msg  ({:.1}x)",
        rate_win / rate_off
    );
    println!(
        "  window 16, batch 16:     {rate_on:>8.0} msg/s  {frames_on:.2} frames/msg  ({:.1}x)",
        rate_on / rate_off
    );
    assert!(rate_win > rate_off, "pipelining must not be slower than blocking");
    assert!(frames_on < frames_win / 2.0, "batching must at least halve the frames per message");
    Ok(())
}
