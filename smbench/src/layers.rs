//! The per-layer table of the traced run: probe medians, counts read from
//! the engine's registry, the recovery phases, the overload phase, and the
//! chain3-floor probe with the reconciliation of its latency against its
//! layers.

use std::time::Duration;

use streammine::common::event::Value;
use streammine::obs::{RecoveryTimeline, RegistrySnapshot, SampleValue};
use streammine::storage::DiskSpec;

use crate::overload;
use crate::probes;
use crate::spans::{Spans, NO_EVENT};
use crate::stats::{median, percentile};
use crate::system;
use crate::workloads::Workload;
use crate::{run_trials, Metric, Pooled};

/// Kill point of the late-kill probe: past the ~64-event history a
/// worker can recover from.
const LATE_KILL_HISTORY: usize = 100;

/// Sum of every sample named `name` (counters and gauges, any labels).
fn total(m: &RegistrySnapshot, name: &str) -> f64 {
    m.samples
        .iter()
        .filter(|s| s.name == name)
        .map(|s| match &s.value {
            SampleValue::Counter(v) => *v as f64,
            SampleValue::Gauge(v) => *v as f64,
            SampleValue::Histogram(_) => 0.0,
        })
        .fold(0.0, |a, b| a + b)
}

/// `(sum, count)` over every histogram named `name`.
fn hist_sum_count(m: &RegistrySnapshot, name: &str) -> (f64, f64) {
    m.samples.iter().filter(|s| s.name == name).fold((0.0, 0.0), |(s, c), x| match &x.value {
        SampleValue::Histogram(h) => (s + h.sum as f64, c + h.count() as f64),
        _ => (s, c),
    })
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Registry-derived rates summed over every trial of `runs`.
fn registry_rates(runs: &[&Pooled]) -> [f64; 6] {
    let snaps: Vec<&RegistrySnapshot> =
        runs.iter().flat_map(|p| p.trials.iter().map(|t| &t.metrics)).collect();
    let sum = |name: &str| snaps.iter().map(|m| total(m, name)).sum::<f64>();
    let events: f64 = runs.iter().map(|p| p.attempted() as f64).sum();
    let aborts = ["stm.aborts_conflict", "stm.aborts_stale", "stm.aborts_cascade"]
        .iter()
        .map(|n| sum(n))
        .sum::<f64>();
    let hits = sum("stm.fastpath.hits");
    let (gsum, gcount) = snaps
        .iter()
        .map(|m| hist_sum_count(m, "log.batch_groups"))
        .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
    [
        ratio(aborts, sum("stm.started")),
        ratio(hits, hits + sum("stm.fastpath.fallbacks")),
        ratio(gsum, gcount),
        ratio(sum("transport.frames_out"), events),
        ratio(1e3 * sum("spec.cap_hits"), events),
        ratio(1e3 * sum("backpressure.stalls"), events),
    ]
}

/// Median (ms) of one recovery phase across `timelines`.
fn phase_ms(
    timelines: &[(RecoveryTimeline, u64)],
    f: impl Fn(&RecoveryTimeline, u64) -> Option<u64>,
) -> f64 {
    median(
        &timelines
            .iter()
            .filter_map(|(t, kill)| f(t, *kill))
            .map(|us| us as f64 / 1e3)
            .collect::<Vec<_>>(),
    )
}

/// Trials of the chain3-floor probe.
const FLOOR_TRIALS: usize = 6;

/// Runs one untraced trial of `w` (seeded from `seed`), for the recovery
/// phases of a workload this run is not.
fn probe_trial(w: Workload, seed: u64) -> Pooled {
    run_trials(w, seed, 1, |_| false, &mut Spans::new(false)).0
}

/// The per-layer metrics of workload `w`, from its untraced (`plain`) and
/// traced trials plus the layer probes. Prints the reconciliation row.
pub fn per_layer(
    w: Workload,
    seed: u64,
    plain: &Pooled,
    traced: &Pooled,
    spans: &mut Spans,
) -> Vec<Metric> {
    let probe = |spans: &mut Spans, name: &'static str, f: &mut dyn FnMut() -> f64| {
        spans.time(name, NO_EVENT, None, f)
    };
    let commit1 = probe(spans, "probe.stm.commit_1var", &mut || probes::stm_commit_ns(1, 20_000));
    let commit8 = probe(spans, "probe.stm.commit_8var", &mut || probes::stm_commit_ns(8, 5_000));
    let commit64 = probe(spans, "probe.stm.commit_64var", &mut || probes::stm_commit_ns(64, 1_000));
    let dev0 = probe(spans, "probe.log.append_dev0", &mut || {
        probes::log_append_us(vec![DiskSpec::simulated(Duration::ZERO)], 2_000)
    });
    let dev2ms = probe(spans, "probe.log.append_dev2ms", &mut || {
        let disk = DiskSpec::simulated(streammine_bench::LOG_LATENCY);
        probes::log_append_us(vec![disk; streammine_bench::LOG_DISKS], 100)
    });
    let (cm_w, cm_d, _) = system::CM;
    let cp_save = probe(spans, "probe.checkpoint.save", &mut || {
        probes::checkpoint_save_us(cm_w * cm_d * 8, 300)
    });
    let hop = probe(spans, "probe.link.hop", &mut || probes::link_hop_us(5_000));
    let mem_rtt = probe(spans, "probe.transport.mem_rtt", &mut || probes::mem_frame_rtt_us(3_000));
    let tcp_rtt = probe(spans, "probe.transport.tcp_rtt", &mut || probes::tcp_frame_rtt_us(2_000));
    let codec = spans
        .time("probe.codec", NO_EVENT, None, || probes::codec_cost(&Value::Int(1 << 40), 200, 100));

    // Recovery phases: this workload's own faults where it has them, a
    // probe trial of the workload that has them otherwise.
    let cluster = if w == Workload::Cluster3Kill {
        None
    } else {
        Some(probe_trial(Workload::Cluster3Kill, seed))
    };
    let cluster_runs: Vec<&Pooled> = match &cluster {
        Some(p) => vec![p],
        None => vec![plain, traced],
    };
    let timelines: Vec<(RecoveryTimeline, u64)> = cluster_runs
        .iter()
        .flat_map(|p| p.trials.iter())
        .filter_map(|t| Some((t.timelines.first()?.clone(), t.fault_cluster_us?)))
        .collect();
    let approx = if w == Workload::SketchCrashApprox {
        None
    } else {
        Some(probe_trial(Workload::SketchCrashApprox, seed))
    };
    let approx_runs: Vec<&Pooled> = match &approx {
        Some(p) => vec![p],
        None => vec![plain, traced],
    };
    let approx_trials: Vec<_> = approx_runs.iter().flat_map(|p| p.trials.iter()).collect();
    let resume_ms = median(&approx_trials.iter().map(|t| t.fault_call_ms).collect::<Vec<_>>());
    let skipped = median(
        &approx_trials
            .iter()
            .map(|t| total(&t.metrics, "recovery.error_budget.lost"))
            .collect::<Vec<_>>(),
    );
    let deviation = median(&approx_trials.iter().map(|t| t.deviation as f64).collect::<Vec<_>>());

    let [abort_ratio, fastpath, group_size, frames_per_event, cap_hits, stalls] =
        registry_rates(&[plain, traced]);
    let push_us = median(&spans.durations_us("gen.push"));
    let lags: Vec<f64> = traced.trials.iter().flat_map(|t| t.lag_us.iter().copied()).collect();
    let finalize_lag: Vec<f64> =
        traced.trials.iter().flat_map(|t| t.finalize_lag_us.iter().copied()).collect();
    let untraced_p50 = plain.over_chunks(|c| c.final_p50_us);
    let traced_p50 = traced.over_chunks(|c| c.final_p50_us);

    // The engine floor: chain3-floor trials, traced for their push times.
    // Reconciliation: each of its hops pays a link hop, a one-variable STM
    // commit and a log append on the 0 µs device; the source pays a push.
    let mut floor_spans = Spans::new(true);
    let floor = run_trials(Workload::Chain3Floor, seed, FLOOR_TRIALS, |_| true, &mut floor_spans).1;
    let floor_p50 = floor.over_chunks(|c| c.final_p50_us);
    let floor_push = median(&floor_spans.durations_us("gen.push"));
    let explained = system::CHAIN_HOPS as f64 * (hop + commit1 / 1e3 + dev0) + floor_push;
    let residual = floor_p50 - explained;
    eprintln!(
        "reconciliation (chain3-floor): {} x (link hop {hop:.1} + stm commit {:.2} + log append \
         {dev0:.1}) + source push {floor_push:.1} = {explained:.1} us explained of final p50 \
         {floor_p50:.1} us; residual {residual:.1} us ({:.0}%)",
        system::CHAIN_HOPS,
        commit1 / 1e3,
        100.0 * residual / floor_p50
    );

    // The overload phase and the defect probes come last: they may leave
    // a wedged graph behind.
    let mut rng = streammine::common::rng::DetRng::seed_from(seed ^ 0x0fe7_10ad);
    let plan = w.plan(&mut rng, 0, 1);
    let inputs = w.inputs(&mut rng, plan.events());
    let bin = crate::worker_bin();
    let over = spans.time("overload", NO_EVENT, None, || {
        overload::overload(w.build(&bin), &w.operator_names(), inputs)
    });
    // The same phase on the engine floor: the 3-hop speculative chain.
    let floor_inputs = Workload::Chain3Floor.inputs(&mut rng, plan.events());
    let floor_over = spans.time("overload.floor", NO_EVENT, None, || {
        let names = Workload::Chain3Floor.operator_names();
        overload::overload(Workload::Chain3Floor.build(&bin), &names, floor_inputs)
    });
    let spec_crash =
        spans.time("probe.spec_crash", NO_EVENT, None, overload::spec_crash_unfinished);
    let late_kill = spans.time("probe.late_kill", NO_EVENT, None, || {
        overload::late_kill_unfinished(bin.clone(), LATE_KILL_HISTORY)
    });
    let shutdown_hangs =
        spans.time("probe.shutdown", NO_EVENT, None, overload::shutdown_hangs_per_1k);

    vec![
        ("stm.commit_1var_ns", commit1, "ns"),
        ("stm.commit_8var_ns", commit8, "ns"),
        ("stm.commit_64var_ns", commit64, "ns"),
        ("stm.abort_ratio", abort_ratio, "ratio"),
        ("stm.fastpath_hit_ratio", fastpath, "ratio"),
        ("log.append_to_stable_us.dev0", dev0, "us"),
        ("log.append_to_stable_us.dev2ms", dev2ms, "us"),
        ("log.group_size", group_size, "count"),
        ("checkpoint.save_us", cp_save, "us"),
        ("link.hop_us", hop, "us"),
        ("transport.mem_frame_rtt_us", mem_rtt, "us"),
        ("transport.tcp_frame_rtt_us", tcp_rtt, "us"),
        ("transport.frames_per_event", frames_per_event, "count"),
        ("codec.event_encode_ns", codec.encode_ns, "ns"),
        ("codec.event_decode_ns", codec.decode_ns, "ns"),
        ("codec.databatch_encode_ns_per_event", codec.batch_encode_ns_per_event, "ns"),
        ("codec.bytes_per_event", codec.bytes_per_event, "bytes"),
        ("source.push_us", push_us, "us"),
        ("gen.lag_p99_us", percentile(&lags, 0.99), "us"),
        ("sink.finalize_lag_us", median(&finalize_lag), "us"),
        ("spec.cap_hits_per_1k", cap_hits, "count"),
        ("backpressure.stalls_per_1k", stalls, "count"),
        ("control.detect_ms", phase_ms(&timelines, |t, kill| t.detect_us.checked_sub(kill)), "ms"),
        (
            "control.fence_to_respawn_ms",
            phase_ms(&timelines, |t, _| t.respawn_us.checked_sub(t.fence_us)),
            "ms",
        ),
        (
            "control.respawn_to_handshake_ms",
            phase_ms(&timelines, |t, _| t.handshake_us?.checked_sub(t.respawn_us)),
            "ms",
        ),
        (
            "replay.handshake_to_first_output_ms",
            phase_ms(&timelines, |t, _| t.first_output_us?.checked_sub(t.handshake_us?)),
            "ms",
        ),
        (
            "replay.first_output_to_drain_ms",
            phase_ms(&timelines, |t, _| t.drain_us?.checked_sub(t.first_output_us?)),
            "ms",
        ),
        ("recover.crash_to_resume_ms", resume_ms, "ms"),
        ("approx.skipped_events", skipped, "count"),
        ("approx.deviation", deviation, "count"),
        ("trace.overhead_ratio", ratio(traced_p50, untraced_p50), "ratio"),
        ("host.steal_ratio", plain.steal_ratio(), "ratio"),
        ("sink.final_p95_us", plain.over_chunks(|c| c.final_p95_us), "us"),
        ("floor.final_p50_us", floor_p50, "us"),
        ("floor.first_arrival_p50_us", floor.over_chunks(|c| c.first_p50_us), "us"),
        ("recon.explained_us", explained, "us"),
        ("recon.residual_us", residual, "us"),
        ("recon.residual_share", ratio(residual, floor_p50), "ratio"),
        ("overload.max_ev_per_s", over.max_ev_per_s, "1/s"),
        ("overload.unfinished_ratio", over.unfinished_ratio, "ratio"),
        ("overload.capped_op", over.capped_op as f64, "index"),
        ("floor.overload_max_ev_per_s", floor_over.max_ev_per_s, "1/s"),
        ("floor.overload_unfinished_ratio", floor_over.unfinished_ratio, "ratio"),
        ("defect.spec_crash_unfinished_ratio", spec_crash, "ratio"),
        ("defect.late_kill_unfinished_ratio", late_kill, "ratio"),
        ("defect.shutdown_hangs_per_1k", shutdown_hangs, "count"),
    ]
}
