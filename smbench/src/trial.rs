//! One trial: a fresh system, an open-loop paced stream with a fault at a
//! seeded event, and the measurements and output checks that follow.

use std::time::{Duration, Instant};

use streammine::chaos::verify_bounded_divergence;
use streammine::common::event::{Event, Value};
use streammine::obs::{RecoveryTimeline, RegistrySnapshot};
use streammine::sketch::ErrorBound;

use crate::spans::{SpanId, Spans, NO_EVENT};
use crate::stats::{host_cpu_ticks, median, percentile, steal_between};

use crate::system::{estimate_of, input_index, payload_bytes, System, DELTA, EPSILON};

/// How long a trial may wait for its stream to drain before the missing
/// events count as failed.
const DRAIN_BUDGET: Duration = Duration::from_secs(30);

/// Shape of one trial's stream.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Offered rate of the open-loop generator, events per second.
    pub rate: f64,
    /// Index of the first event pushed after the fault.
    pub fault_at: usize,
    /// Events pushed after the fault.
    pub post: usize,
    /// How long a partition lasts before it heals (zero for crashes).
    pub window: Duration,
    /// Input indexes whose latencies are the steady-state samples. Events
    /// before the fault count only if they were final before it.
    pub steady: std::ops::Range<usize>,
}

impl Plan {
    pub fn events(&self) -> usize {
        self.fault_at + self.post
    }

    /// Steady events per chunk: ~100 ms of the stream, at least 40.
    fn chunk_len(&self) -> usize {
        ((self.rate / 10.0) as usize).max(40)
    }
}

/// How a trial's final outputs are judged.
pub enum Check<'a> {
    /// Byte-identical to the reference output of the same input.
    Identical(&'a [Vec<u8>]),
    /// Count-min estimates within the error bound of the reference.
    Bounded(&'a [Vec<u8>]),
}

/// Latency quantiles of one chunk of consecutive steady-state events, and
/// the share of CPU time the host stole while they were pushed.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    pub final_p50_us: f64,
    pub final_p95_us: f64,
    pub first_p50_us: f64,
    pub steal: f64,
}

/// Everything one trial measured.
#[derive(Debug, Default)]
pub struct TrialOut {
    pub setup_s: f64,
    /// Due time → final delivery, steady phase, in input order.
    pub final_us: Vec<f64>,
    /// Due time → first (possibly speculative) arrival, same events.
    pub first_us: Vec<f64>,
    /// Quantiles per chunk of ~100 ms of consecutive steady events (by
    /// input index).
    pub chunks: Vec<Chunk>,
    /// Final − first arrival, steady phase.
    pub finalize_lag_us: Vec<f64>,
    /// Generator lateness: push start − due time, every event.
    pub lag_us: Vec<f64>,
    /// Fault → first final output of an event pushed after the fault.
    pub recovery_first_ms: f64,
    /// Fault → every event pushed before that first output is final: the
    /// backlog of the outage has drained.
    pub recovery_complete_ms: f64,
    /// Share of CPU time the host stole from the fault until one chunk of
    /// the stream later.
    pub recovery_steal: f64,
    /// Duration of the fault call itself (in-process crash + restart).
    pub fault_call_ms: f64,
    pub attempted: usize,
    pub failed: usize,
    /// Largest count-min estimate deviation from the reference (bounded
    /// check only).
    pub deviation: u64,
    /// The fault's time on the cluster clock, the time base of
    /// [`RecoveryTimeline`] stamps (cluster only).
    pub fault_cluster_us: Option<u64>,
    pub metrics: RegistrySnapshot,
    pub timelines: Vec<RecoveryTimeline>,
}

/// Sleeps until `due`; returns at once when it has passed.
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Runs one trial. `build` starts the system (timed as set-up); `inputs`
/// are the payloads in push order. The spans of a traced trial hang off
/// `parent` and carry event ids `trial << 32 | index`.
pub fn run(
    trial: u64,
    plan: Plan,
    inputs: &[Value],
    check: Check<'_>,
    build: &dyn Fn() -> System,
    spans: &mut Spans,
    parent: Option<SpanId>,
) -> TrialOut {
    let n = plan.events();
    assert_eq!(inputs.len(), n, "one input per planned event");
    let mut out = TrialOut { attempted: n, ..TrialOut::default() };

    let setup_start = Instant::now();
    let system = spans.time("setup", NO_EVENT, parent, build);
    out.setup_s = setup_start.elapsed().as_secs_f64();

    let clock = system.sink().clock().clone();
    let gap = Duration::from_secs_f64(1.0 / plan.rate);
    let gap_us = 1e6 / plan.rate;
    let t0 = Instant::now();
    let t0_us = clock.now_micros() as f64;
    let due_us = |i: usize| t0_us + gap_us * i as f64;
    let mut fault_us = f64::NAN;
    let mut heal_at = None;
    let chunk = plan.chunk_len();
    // Host CPU ticks at every chunk boundary of the steady window.
    let mut marks = Vec::with_capacity(plan.steady.len() / chunk + 2);
    // Host CPU ticks at the fault and one chunk of the stream after it.
    let (mut fault_ticks, mut after_fault_ticks) = ((0, 0), None);
    out.lag_us.reserve(n);
    for (i, payload) in inputs.iter().enumerate() {
        let due = t0 + gap.mul_f64(i as f64);
        sleep_until(due);
        if i >= plan.steady.start
            && i <= plan.steady.end
            && (i - plan.steady.start).is_multiple_of(chunk)
        {
            marks.push(host_cpu_ticks());
        }
        if i == plan.fault_at + chunk {
            after_fault_ticks = Some(host_cpu_ticks());
        }
        if i == plan.fault_at {
            fault_ticks = host_cpu_ticks();
            fault_us = clock.now_micros() as f64;
            out.fault_cluster_us = system.cluster_now_us();
            let call = Instant::now();
            spans.time("fault", NO_EVENT, parent, || system.fault());
            out.fault_call_ms = call.elapsed().as_secs_f64() * 1e3;
            heal_at = Some(call + plan.window);
        }
        if heal_at.is_some_and(|t| Instant::now() >= t) {
            spans.time("heal", NO_EVENT, parent, || system.heal());
            heal_at = None;
        }
        let push_start = Instant::now();
        out.lag_us.push(push_start.saturating_duration_since(due).as_secs_f64() * 1e6);
        if spans.enabled() {
            let start = spans.at_us(push_start);
            system.push(payload.clone());
            let end = spans.now_us();
            spans.record("gen.push", trial << 32 | i as u64, parent, start, end);
        } else {
            system.push(payload.clone());
        }
    }

    marks.push(host_cpu_ticks());
    out.recovery_steal =
        steal_between(fault_ticks, after_fault_ticks.unwrap_or_else(host_cpu_ticks));
    if let Some(t) = heal_at {
        sleep_until(t);
        spans.time("heal", NO_EVENT, parent, || system.heal());
    }
    let drained = system.sink().wait_final(n, DRAIN_BUDGET);
    if !drained {
        eprintln!(
            "trial {trial}: stream stuck at {}/{n} final after {DRAIN_BUDGET:?}",
            system.sink().final_count()
        );
    }
    let finals = system.sink().final_events();
    let records = system.sink().records();
    out.metrics = system.metrics();
    out.timelines = system.timelines();
    system.shutdown();

    // Latency and recovery from the sink's per-event records.
    let mut first_after = f64::INFINITY;
    let mut finals_at = vec![f64::INFINITY; n];
    let mut steady: Vec<(usize, f64, f64)> = Vec::with_capacity(plan.steady.len());
    for r in &records {
        let i = input_index(&r.event);
        if i >= n {
            continue;
        }
        let due = due_us(i);
        let first = r.first_arrival_us as f64;
        let Some(fin) = r.final_at_us.map(|f| f as f64) else { continue };
        finals_at[i] = fin;
        if i >= plan.fault_at {
            first_after = first_after.min(fin);
        }
        if plan.steady.contains(&i) && (i >= plan.fault_at || fin < fault_us) {
            steady.push((i, fin - due, first - due));
            out.finalize_lag_us.push(fin - first);
        }
        if spans.enabled() {
            let id = trial << 32 | i as u64;
            let base = spans.at_us(t0) - t0_us;
            let arrive = spans.record("engine.first_arrival", id, parent, base + due, base + first);
            spans.record("engine.finalize", id, arrive, base + first, base + fin);
        }
    }
    steady.sort_unstable_by_key(|s| s.0);
    out.final_us = steady.iter().map(|s| s.1).collect();
    out.first_us = steady.iter().map(|s| s.2).collect();
    for (k, pair) in marks.windows(2).enumerate() {
        let lo = plan.steady.start + k * chunk;
        let events: Vec<&(usize, f64, f64)> =
            steady.iter().filter(|s| (lo..lo + chunk).contains(&s.0)).collect();
        if events.len() * 2 < chunk {
            continue;
        }
        let fin: Vec<f64> = events.iter().map(|s| s.1).collect();
        let first: Vec<f64> = events.iter().map(|s| s.2).collect();
        out.chunks.push(Chunk {
            final_p50_us: median(&fin),
            final_p95_us: percentile(&fin, 0.95),
            first_p50_us: median(&first),
            steal: steal_between(pair[0], pair[1]),
        });
    }
    out.recovery_first_ms = (first_after - fault_us) / 1e3;
    let backlog_drained = (0..n)
        .take_while(|&i| due_us(i) < first_after)
        .map(|i| finals_at[i])
        .fold(f64::NEG_INFINITY, f64::max);
    out.recovery_complete_ms = (backlog_drained - fault_us) / 1e3;

    (out.failed, out.deviation) = judge(&finals, n, check);
    out
}

/// Counts failed events: never final, finalized twice, or wrong output.
/// Also returns the largest estimate deviation of a bounded check.
fn judge(finals: &[Event], n: usize, check: Check<'_>) -> (usize, u64) {
    let mut times_final = vec![0u32; n];
    let mut stray = 0;
    for e in finals {
        match times_final.get_mut(input_index(e)) {
            Some(c) => *c += 1,
            None => stray += 1,
        }
    }
    let got = payload_bytes(finals, n);
    let mut failed = stray;
    match check {
        Check::Identical(expected) => {
            for i in 0..n {
                let ok = times_final[i] == 1 && got[i].as_deref() == Some(&expected[i][..]);
                failed += usize::from(!ok);
            }
        }
        Check::Bounded(expected) => {
            let estimates = |bytes: &mut dyn Iterator<Item = Option<&[u8]>>| -> Vec<u64> {
                bytes.map(|b| b.and_then(estimate_of).unwrap_or(0)).collect()
            };
            let baseline = estimates(&mut expected.iter().map(|b| Some(&b[..])));
            let recovered = estimates(&mut got.iter().map(|g| g.as_deref()));
            failed += times_final.iter().filter(|&&c| c != 1).count();
            let bound = ErrorBound::new(EPSILON, DELTA);
            match verify_bounded_divergence(bound, n as u64, &baseline, &recovered) {
                Ok(report) => return (failed, report.max_deviation),
                Err(e) => {
                    eprintln!("bounded divergence violated: {e}");
                    // Every estimate beyond the allowance is a failed event.
                    let allowed = (EPSILON * n as f64).floor() as u64;
                    let beyond = baseline
                        .iter()
                        .zip(&recovered)
                        .filter(|(b, r)| b.abs_diff(**r) > allowed)
                        .count();
                    failed += beyond.max(1);
                }
            }
        }
    }
    (failed, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine::common::codec::encode_to_vec;
    use streammine::common::ids::{EventId, OperatorId};

    /// Final count-min outputs of a one-key stream of `n` events, the
    /// estimates short by `lost` updates from event `from` on.
    fn outputs(n: usize, from: usize, lost: i64) -> Vec<Event> {
        (0..n)
            .map(|i| {
                let short = if i >= from { lost } else { 0 };
                let estimate = Value::Int(i as i64 + 1 - short);
                let payload = Value::Record(vec![Value::Int(7), estimate].into());
                Event::new(EventId::new(OperatorId::new(0), (i as u64) << 16), 0, payload)
            })
            .collect()
    }

    #[test]
    fn bounded_check_catches_a_loss_beyond_the_bound() {
        let n = 200;
        let allowed = (EPSILON * n as f64).floor() as i64;
        let expected: Vec<Vec<u8>> =
            outputs(n, 0, 0).iter().map(|e| encode_to_vec(&e.payload)).collect();
        let failed = |lost| judge(&outputs(n, 120, lost), n, Check::Bounded(&expected)).0;
        assert_eq!(failed(0), 0);
        assert_eq!(failed(allowed), 0);
        assert!(failed(allowed + 1) > 0);
    }
}
