//! Metric names, units and bounds, and how a run's measurements become
//! the metrics `BENCHMARK.json` lists: the end-to-end ones from an
//! untraced run, the per-layer ones from a traced run plus the
//! isolated rungs and short probes of every layer.

use std::time::Duration;

use crate::json::Value;
use crate::proc;
use crate::rungs::{self, Scenario};
use crate::stats;
use crate::trace::Collected;
use crate::workloads::{Outcome, Workload};

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// A metric with the unit its table gives it ("?" for a name that is
/// in neither table, which [`per_layer`] reports as a gate failure).
fn metric(name: impl Into<String>, value: f64) -> Metric {
    let name = name.into();
    let unit = END_TO_END
        .iter()
        .map(|d| (d.name, d.unit))
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("?", |(_, unit)| unit);
    Metric { name, unit, value }
}

/// An end-to-end metric: what a user of the system sees, with the
/// share of the parent's median by which it may worsen before a
/// change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// The end-to-end metrics; every workload reports all of them.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

/// The per-layer metrics, in the order a traced run prints them:
/// name and unit. `BENCHMARK.json` lists exactly these.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("bench.traced_ops_per_s", "1/s"),
    ("bench.spans", "count"),
    ("bench.self_us_per_op", "us"),
    ("tail.op_p99_us", "us"),
    ("tail.op_p999_us", "us"),
    ("tail.op_hi_pct", "%"),
    ("tail.op_samples", "count"),
    ("proc.pinned", "count"),
    ("proc.threads", "count"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.sys_share", "ratio"),
    ("proc.peak_rss_mb", "MB"),
    ("proc.thread_wake_us", "us"),
    ("core.codec_roundtrip_64_ns", "ns"),
    ("core.codec_roundtrip_4k_ns", "ns"),
    ("core.blocking.cpu_ns_per_msg", "ns"),
    ("core.blocking.virtual_us_per_msg", "virt_us"),
    ("core.blocking.pkts_per_msg", "count"),
    ("core.blocking.flow_control_drops", "count"),
    ("core.blocking.send_retries", "count"),
    ("core.blocking.sync_rounds", "count"),
    ("core.stamp_ns", "ns"),
    ("core.stream.cpu_ns_per_msg", "ns"),
    ("core.stream.virtual_us_per_msg", "virt_us"),
    ("core.stream.pkts_per_msg", "count"),
    ("core.stream.flow_control_drops", "count"),
    ("core.stream.send_retries", "count"),
    ("core.stream.sync_rounds", "count"),
    ("core.allsend.cpu_ns_per_msg", "ns"),
    ("core.allsend.virtual_us_per_msg", "virt_us"),
    ("core.allsend.pkts_per_msg", "count"),
    ("core.allsend.flow_control_drops", "count"),
    ("core.allsend.send_retries", "count"),
    ("core.allsend.sync_rounds", "count"),
    ("runtime.livenet_hop_us", "us"),
    ("runtime.form_ms", "ms"),
    ("net.udp_hop_us", "us"),
    ("net.udp_send_call_ns", "ns"),
    ("runtime.rtt_p50_us", "us"),
    ("runtime.deliver_p50_us", "us"),
    ("tail.deliver_p99_us", "us"),
    ("runtime.stream_ops_per_s", "1/s"),
    ("runtime.stream_op_p50_us", "us"),
    ("runtime.stream_cpu_us_per_op", "us"),
    ("runtime.rtt_unattributed_us", "us"),
    ("net.udp_rtt_p50_us", "us"),
    ("net.udp_rtt_extra_us", "us"),
    ("net.udp_stream_ops_per_s", "1/s"),
    ("net.udp_stream_op_p50_us", "us"),
    ("net.udp_stream_cpu_us_per_op", "us"),
    ("net.udp_stream_ratio", "ratio"),
    ("app.hosted_stream_ops_per_s", "1/s"),
    ("app.host_overhead_share", "ratio"),
    ("shard.put_p50_us", "us"),
    ("shard.get_p50_us", "us"),
    ("shard.router_call_ns", "ns"),
    ("shard.router_pump_ns", "ns"),
    ("shard.router_busy_share", "ratio"),
    ("shard.pumps_per_op", "count"),
    ("shard.retries", "count"),
    ("shard.wrong_shard", "count"),
    ("shard.form_ms", "ms"),
    ("shard.routed_ops_per_s", "1/s"),
    ("shard.routed_vs_raw", "ratio"),
    ("kernel.formation_s", "s"),
    ("kernel.events_total", "count"),
    ("kernel.events_per_delivery", "count"),
    ("kernel.sim_us_per_send", "sim_us"),
    ("kernel.events_per_s", "1/s"),
];

/// Per-layer metrics that are counts on a virtual or simulated clock:
/// they repeat exactly for one seed, so `compare` checks them for
/// equality instead of against a bound.
pub fn is_exact(name: &str) -> bool {
    const EXACT_CORE: [&str; 5] = [
        "virtual_us_per_msg",
        "pkts_per_msg",
        "flow_control_drops",
        "send_retries",
        "sync_rounds",
    ];
    const EXACT_KERNEL: [&str; 3] = [
        "kernel.events_total",
        "kernel.events_per_delivery",
        "kernel.sim_us_per_send",
    ];
    EXACT_KERNEL.contains(&name)
        || (name.starts_with("core.") && EXACT_CORE.iter().any(|suffix| name.ends_with(suffix)))
}

/// How much of everything a run does: the full sizes, or the
/// `--smoke` ones that only prove the gates still pass.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub window: Duration,
    /// Set-ups per untraced run (the median is reported; `sim_1000`
    /// makes at most three).
    pub setups: usize,
    /// Sends per isolated `core` scenario.
    pub core_sends: u64,
    /// Window of the short probes a traced run adds for the layers
    /// its own workload does not load.
    pub probe: Duration,
    /// Messages of the hosted-stream rung.
    pub hosted_messages: u64,
}

impl Plan {
    pub fn full(window: Duration) -> Plan {
        Plan {
            window,
            setups: 5,
            core_sends: 100_000,
            probe: Duration::from_millis(1500),
            hosted_messages: 4096,
        }
    }

    pub fn smoke() -> Plan {
        Plan {
            window: Duration::from_secs(1),
            setups: 1,
            core_sends: 10_000,
            probe: Duration::from_millis(300),
            hosted_messages: 1024,
        }
    }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    vec![
        metric("ops_per_s", o.steady.ops_per_s),
        metric("op_p50_us", o.steady.op_p50_us),
        metric("cpu_us_per_op", o.steady.cpu_us_per_op),
        metric("setup_s", o.setup_median_s()),
    ]
}

/// The part of the per-layer list that describes the traced run's own
/// workload window: tails, process counters, and what tracing saw.
fn window_metrics(o: &Outcome, traced: &Collected, out: &mut Vec<Metric>) {
    let ops = o.ops.max(1) as f64;
    out.push(metric("bench.traced_ops_per_s", o.steady.ops_per_s));
    out.push(metric("bench.spans", traced.spans() as f64));
    out.push(metric(
        "bench.self_us_per_op",
        traced.bench_self_ns() as f64 / 1e3 / ops,
    ));
    out.push(metric("tail.op_p99_us", stats::percentile(&o.op_us, 99.0)));
    out.push(metric("tail.op_p999_us", stats::percentile(&o.op_us, 99.9)));
    out.push(metric(
        "tail.op_hi_pct",
        stats::highest_supported_percentile(o.op_us.len()),
    ));
    out.push(metric("tail.op_samples", o.op_us.len() as f64));
    out.push(metric("proc.pinned", f64::from(u8::from(o.pinned))));
    out.push(metric("proc.threads", o.usage.threads));
    out.push(metric(
        "proc.ctx_switches_per_op",
        o.usage.ctx_switches_per_op,
    ));
    out.push(metric("proc.sys_share", o.usage.sys_share));
    out.push(metric("proc.peak_rss_mb", o.usage.peak_rss_mb));
}

/// Runs `workload` as a short probe, folding its gate results into
/// `violations`.
fn probe(workload: Workload, seed: u64, plan: &Plan, violations: &mut Vec<String>) -> Outcome {
    let o = workload.run(seed, plan.probe, 1);
    violations.extend(
        o.violations
            .iter()
            .map(|v| format!("{} probe: {v}", workload.name())),
    );
    if o.failed > 0 {
        violations.push(format!(
            "{} probe: {} operations failed",
            workload.name(),
            o.failed
        ));
    }
    o
}

/// The isolated rungs and the short probes: every layer's own
/// numbers, the same list whatever workload the traced run was for.
/// Gate failures are appended to `violations`.
fn ladder_metrics(seed: u64, plan: &Plan, out: &mut Vec<Metric>, violations: &mut Vec<String>) {
    // Everything threaded is measured on one CPU, like the workloads.
    let pinned = proc::pin();

    let wake_us = rungs::thread_wake_us();
    out.push(metric("proc.thread_wake_us", wake_us));
    out.push(metric(
        "core.codec_roundtrip_64_ns",
        rungs::codec_roundtrip_ns(seed, 64),
    ));
    out.push(metric(
        "core.codec_roundtrip_4k_ns",
        rungs::codec_roundtrip_ns(seed, 4096),
    ));

    let mut blocking_cpu_us = 0.0;
    for scenario in Scenario::ALL {
        let run = rungs::core_scenario(scenario, seed, plan.core_sends, false);
        // The repeat proves the counts do not depend on the machine;
        // the blocking one also times the sequencer's stamping call.
        let again = rungs::core_scenario(
            scenario,
            seed,
            plan.core_sends,
            scenario == Scenario::Blocking,
        );
        if !run.delivered_everywhere {
            violations.push(format!(
                "core.{}: not every member delivered every send",
                scenario.name()
            ));
        }
        if run.exact() != again.exact() {
            violations.push(format!(
                "core.{}: two runs of one seed differ: {:?} then {:?}",
                scenario.name(),
                run.exact(),
                again.exact()
            ));
        }
        let per_msg = |v: u64| v as f64 / run.sends.max(1) as f64;
        let name = |what: &str| format!("core.{}.{what}", scenario.name());
        out.push(metric(name("cpu_ns_per_msg"), per_msg(run.cpu_ns)));
        out.push(metric(name("virtual_us_per_msg"), per_msg(run.virtual_us)));
        out.push(metric(name("pkts_per_msg"), per_msg(run.packets)));
        out.push(metric(
            name("flow_control_drops"),
            run.flow_control_drops as f64,
        ));
        out.push(metric(name("send_retries"), run.send_retries as f64));
        out.push(metric(name("sync_rounds"), run.sync_rounds as f64));
        if scenario == Scenario::Blocking {
            blocking_cpu_us = per_msg(run.cpu_ns) / 1e3;
            out.push(metric("core.stamp_ns", again.stamp_ns.unwrap_or(0.0)));
        }
    }

    let live_hop = rungs::transport_hop(false, seed);
    let udp_hop = rungs::transport_hop(true, seed);
    out.push(metric("runtime.livenet_hop_us", live_hop.hop_us));
    out.push(metric("runtime.form_ms", rungs::form_ms(seed)));
    out.push(metric("net.udp_hop_us", udp_hop.hop_us));
    out.push(metric("net.udp_send_call_ns", udp_hop.send_call_ns));

    let rtt_live = probe(Workload::RttLive, seed, plan, violations);
    let rtt_udp = probe(Workload::RttUdp, seed, plan, violations);
    let stream_live = probe(Workload::StreamLive, seed, plan, violations);
    let stream_udp = probe(Workload::StreamUdp, seed, plan, violations);
    let hosted = rungs::hosted_stream_ops_per_s(seed, plan.hosted_messages);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    out.push(metric("runtime.rtt_p50_us", rtt_live.steady.op_p50_us));
    out.push(metric(
        "runtime.deliver_p50_us",
        stats::percentile(&rtt_live.deliver_us, 50.0),
    ));
    out.push(metric(
        "tail.deliver_p99_us",
        stats::percentile(&rtt_live.deliver_us, 99.0),
    ));
    out.push(metric(
        "runtime.stream_ops_per_s",
        stream_live.steady.ops_per_s,
    ));
    out.push(metric(
        "runtime.stream_op_p50_us",
        stream_live.steady.op_p50_us,
    ));
    out.push(metric(
        "runtime.stream_cpu_us_per_op",
        stream_live.steady.cpu_us_per_op,
    ));
    // The ladder's closing error: what the blocking round trip costs
    // beyond the core's own work, two transport hops and the four
    // wake-ups on its path (client → driver → sequencer's driver →
    // client's driver → client).
    let rungs_us = blocking_cpu_us + 2.0 * live_hop.hop_us + 4.0 * wake_us;
    out.push(metric(
        "runtime.rtt_unattributed_us",
        rtt_live.steady.op_p50_us - rungs_us,
    ));
    out.push(metric("net.udp_rtt_p50_us", rtt_udp.steady.op_p50_us));
    out.push(metric(
        "net.udp_rtt_extra_us",
        rtt_udp.steady.op_p50_us - rtt_live.steady.op_p50_us,
    ));
    out.push(metric(
        "net.udp_stream_ops_per_s",
        stream_udp.steady.ops_per_s,
    ));
    out.push(metric(
        "net.udp_stream_op_p50_us",
        stream_udp.steady.op_p50_us,
    ));
    out.push(metric(
        "net.udp_stream_cpu_us_per_op",
        stream_udp.steady.cpu_us_per_op,
    ));
    out.push(metric(
        "net.udp_stream_ratio",
        ratio(stream_udp.steady.ops_per_s, stream_live.steady.ops_per_s),
    ));
    out.push(metric("app.hosted_stream_ops_per_s", hosted));
    out.push(metric(
        "app.host_overhead_share",
        1.0 - ratio(hosted, stream_live.steady.ops_per_s),
    ));

    let routed = probe(Workload::RoutedLive, seed, plan, violations);
    for name in [
        "shard.put_p50_us",
        "shard.get_p50_us",
        "shard.router_call_ns",
        "shard.router_pump_ns",
        "shard.router_busy_share",
        "shard.pumps_per_op",
        "shard.retries",
        "shard.wrong_shard",
        "shard.form_ms",
    ] {
        out.push(metric(name, routed.extra(name).unwrap_or(0.0)));
    }
    out.push(metric("shard.routed_ops_per_s", routed.steady.ops_per_s));
    out.push(metric(
        "shard.routed_vs_raw",
        ratio(routed.steady.ops_per_s, 2.0 * stream_live.steady.ops_per_s),
    ));

    if let Some(old) = pinned {
        proc::unpin(old);
    }
    let sim = probe(Workload::Sim1000, seed, plan, violations);
    for name in [
        "kernel.formation_s",
        "kernel.events_total",
        "kernel.events_per_delivery",
        "kernel.sim_us_per_send",
        "kernel.events_per_s",
    ] {
        out.push(metric(name, sim.extra(name).unwrap_or(0.0)));
    }
}

/// Every per-layer metric of a traced run of one workload.
pub fn per_layer(
    seed: u64,
    plan: &Plan,
    o: &Outcome,
    traced: &Collected,
    violations: &mut Vec<String>,
) -> Vec<Metric> {
    let mut out = Vec::new();
    window_metrics(o, traced, &mut out);
    ladder_metrics(seed, plan, &mut out, violations);
    if !out.iter().map(|m| (m.name.as_str(), m.unit)).eq(PER_LAYER) {
        violations.push("the metrics printed are not the PER_LAYER table".into());
    }
    out
}

/// The one-line result the contract asks for.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let entry = Value::obj([
                            ("value", Value::Num(m.value)),
                            ("unit", Value::str(m.unit)),
                        ]);
                        (m.name.clone(), entry)
                    })
                    .collect(),
            ),
        ),
    ])
    .to_line()
}

/// The rungs of a blocking round trip, their sum, the measured
/// median and what is left over — for `rtt_live` and `rtt_udp`.
pub fn ladder_text(metrics: &[Metric]) -> String {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let core_us = get("core.blocking.cpu_ns_per_msg") / 1e3;
    let wake_us = get("proc.thread_wake_us");
    let mut text = String::new();
    for (title, hop_name, p50_name) in [
        ("rtt_live", "runtime.livenet_hop_us", "runtime.rtt_p50_us"),
        ("rtt_udp", "net.udp_hop_us", "net.udp_rtt_p50_us"),
    ] {
        let hop_us = get(hop_name);
        let sum = core_us + 2.0 * hop_us + 4.0 * wake_us;
        let p50 = get(p50_name);
        text.push_str(&format!(
            "ladder {title}: core.blocking.cpu {core_us:.2} us + 2 x {hop_name} {hop_us:.2} us \
             + 4 x proc.thread_wake_us {wake_us:.2} us = {sum:.2} us; measured p50 {p50:.2} us; \
             unattributed {:.2} us\n",
            p50 - sum
        ));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` at the repository root is the contract; the
    /// tables here are what the code prints. They must not drift.
    #[test]
    fn benchmark_json_lists_exactly_the_metrics_the_code_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let field =
            |m: &Value, key: &str| m.get(key).and_then(Value::as_str).expect(key).to_string();
        let listed = |key: &str| doc.get(key).and_then(Value::as_arr).expect(key).to_vec();

        let end_to_end: Vec<_> = listed("end_to_end")
            .iter()
            .map(|m| {
                (
                    field(m, "name"),
                    field(m, "unit"),
                    field(m, "better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect();
        let ours: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                let better = if d.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    better.to_string(),
                    Some(d.bound),
                )
            })
            .collect();
        assert_eq!(end_to_end, ours);

        let per_layer: Vec<_> = listed("per_layer")
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect();
        let ours: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(per_layer, ours);

        let workloads: Vec<_> = listed("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(crate::DEFAULT_SECONDS as f64),
            "`run` defaults to the contract's window"
        );
    }

    #[test]
    fn exact_metrics_are_the_virtual_and_simulated_counts() {
        let exact: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| is_exact(n))
            .collect();
        assert_eq!(exact.len(), 3 * 5 + 3, "{exact:?}");
        assert!(is_exact("core.stream.flow_control_drops"));
        assert!(!is_exact("core.stream.cpu_ns_per_msg"));
        assert!(!is_exact("kernel.events_per_s"));
    }
}
