//! Property-based recovery: for randomized workloads and crash points,
//! precise recovery reproduces the failure-free outputs exactly, and
//! approximate (stale-snapshot) recovery keeps count-min estimates
//! within the declared `ε·N` allowance — escalating to a precise
//! checkpoint+replay cycle when the error budget refuses the loss.
//!
//! Both guarantees must hold for every operator shape the `Operator` API
//! admits, so each generated case runs against four shapes: a 1:1
//! operator, a filter, a 1:2 fan-out, and a two-way split.

use std::time::{Duration, Instant};

use proptest::prelude::*;
use streammine::chaos::verify_bounded_divergence;
use streammine::common::event::{Event, Value};
use streammine::common::ids::{EventId, OperatorId};
use streammine::core::{
    GraphBuilder, LoggingConfig, OpCtx, Operator, OperatorConfig, RecoveryMode, Running, SinkId,
    SourceId,
};
use streammine::obs::Labels;
use streammine::operators::{CountMinOp, Split};
use streammine::sketch::ErrorBound;
use streammine::stm::StmAbort;

/// Stateful + non-deterministic: running sum plus a logged random draw.
#[derive(Default)]
struct SumTagger {
    sum: parking_lot::Mutex<Option<streammine::core::StateHandle<i64>>>,
}

impl Operator for SumTagger {
    fn name(&self) -> &str {
        "sum-tagger"
    }
    fn setup(&self, ctx: &mut streammine::core::SetupCtx<'_>) {
        *self.sum.lock() = Some(ctx.state(0i64));
    }
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let handle = self.sum.lock().expect("setup ran");
        let v = event.payload.as_i64().unwrap_or(0);
        ctx.update(handle, |s| s + v)?;
        let sum = *ctx.get(handle)?;
        let tag = ctx.random_u64();
        ctx.emit(Value::record(vec![Value::Int(sum), Value::Int(tag as i64)]));
        Ok(())
    }
}

/// Counter slots; keys fold onto them modulo this.
const KEY_SLOTS: usize = 128;

/// A per-key counter: counts every input's key and emits
/// `Record[key, count, k]` for `k` in `0..copies` — or nothing at all for
/// odd keys when `evens_only` is set.
struct KeyCounter {
    copies: i64,
    evens_only: bool,
    counts: parking_lot::Mutex<Option<streammine::core::StateHandle<Vec<u64>>>>,
}

impl KeyCounter {
    fn new(copies: i64, evens_only: bool) -> Self {
        KeyCounter { copies, evens_only, counts: parking_lot::Mutex::new(None) }
    }
}

impl Operator for KeyCounter {
    fn name(&self) -> &str {
        "key-counter"
    }
    fn setup(&self, ctx: &mut streammine::core::SetupCtx<'_>) {
        *self.counts.lock() = Some(ctx.state(vec![0u64; KEY_SLOTS]));
    }
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let handle = self.counts.lock().expect("setup ran");
        let key = event.payload.as_i64().unwrap_or(0);
        let slot = key.rem_euclid(KEY_SLOTS as i64) as usize;
        ctx.update(handle, |c| {
            let mut c = c.clone();
            c[slot] += 1;
            c
        })?;
        let count = ctx.get(handle)?[slot] as i64;
        if self.evens_only && key % 2 != 0 {
            return Ok(());
        }
        for k in 0..self.copies {
            ctx.emit(Value::record(vec![Value::Int(key), Value::Int(count), Value::Int(k)]));
        }
        Ok(())
    }
}

/// The operator shapes every recovery guarantee is checked against.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// One output per input (the mode's reference operator).
    OneToOne,
    /// A per-key counter that emits only for even keys.
    Filter,
    /// A per-key counter that emits two records per input.
    FanOut,
    /// `Split::new(2)` routing each input to one of two sinks.
    Split,
}

const SHAPES: [Shape; 4] = [Shape::OneToOne, Shape::Filter, Shape::FanOut, Shape::Split];

/// One operator of `shape` between a source and its sink(s). The 1:1
/// shape is `SumTagger` in precise mode and a stamped count-min sketch in
/// approximate mode (whose estimates the divergence check reads).
fn shaped_graph(shape: Shape, cfg: OperatorConfig) -> (Running, SourceId, Vec<SinkId>) {
    let mut b = GraphBuilder::new();
    let approximate = matches!(cfg.recovery, RecoveryMode::Approximate(_));
    let op = match shape {
        Shape::OneToOne if approximate => {
            // Fixed hash seed: the faulty run and its baseline must agree
            // on counter placement for estimates to be comparable.
            b.add_operator(CountMinOp::new(32, 4, 7, Duration::ZERO).stamped(), cfg)
        }
        Shape::OneToOne => b.add_operator(SumTagger::default(), cfg),
        Shape::Filter => b.add_operator(KeyCounter::new(1, true), cfg),
        Shape::FanOut => b.add_operator(KeyCounter::new(2, false), cfg),
        Shape::Split => b.add_operator(Split::new(2), cfg),
    };
    let src = b.source_into(op).unwrap();
    let sinks = match shape {
        Shape::Split => vec![b.sink_from(op).unwrap(), b.sink_from(op).unwrap()],
        _ => vec![b.sink_from(op).unwrap()],
    };
    (b.build().unwrap().start(), src, sinks)
}

/// Waits until the sinks together hold `n` final events.
fn wait_total(running: &Running, sinks: &[SinkId], n: usize, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        let total: usize = sinks.iter().map(|s| running.sink(*s).final_count()).sum();
        if total >= n {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// What one run leaves behind: per sink, the final `(id, payload)` pairs
/// in id order; the events the operator put on the wire (the sum of its
/// `batch.events` histogram); and its `recovery.escalations` counter.
struct Outcome {
    per_sink: Vec<Vec<(EventId, Value)>>,
    sent: u64,
    escalations: u64,
}

impl Outcome {
    /// Every sink's events merged, in id order.
    fn merged(&self) -> Vec<(EventId, Value)> {
        let mut all: Vec<_> = self.per_sink.iter().flatten().cloned().collect();
        all.sort_by_key(|(id, _)| *id);
        all
    }
}

/// How many outputs `shape` emits for `inputs`, over all of its sinks.
fn outputs_for(shape: Shape, inputs: &[i64]) -> usize {
    match shape {
        Shape::OneToOne | Shape::Split => inputs.len(),
        Shape::Filter => inputs.iter().filter(|k| *k % 2 == 0).count(),
        Shape::FanOut => 2 * inputs.len(),
    }
}

/// Pushes `inputs` through one `shape` operator, crashing and recovering
/// it once the outputs of the first `crash_at` inputs are final (`None`:
/// fault-free).
fn shaped_run(
    shape: Shape,
    cfg: OperatorConfig,
    inputs: &[i64],
    crash_at: Option<usize>,
) -> Outcome {
    let (running, src, sinks) = shaped_graph(shape, cfg);
    let crash = crash_at.unwrap_or(inputs.len());
    for v in &inputs[..crash] {
        running.source(src).push(Value::Int(*v));
    }
    if crash_at.is_some() {
        assert!(
            wait_total(
                &running,
                &sinks,
                outputs_for(shape, &inputs[..crash]),
                Duration::from_secs(15)
            ),
            "{shape:?}: pre-crash outputs never became final"
        );
        let opid = OperatorId::new(0);
        running.crash(opid);
        running.recover(opid);
        for v in &inputs[crash..] {
            running.source(src).push(Value::Int(*v));
        }
    }
    let all = outputs_for(shape, inputs);
    assert!(
        wait_total(&running, &sinks, all, Duration::from_secs(30)),
        "{shape:?}: stalled at {}/{all}\n{}",
        sinks.iter().map(|s| running.sink(*s).final_count()).sum::<usize>(),
        running.journal_dump()
    );
    let per_sink = sinks
        .iter()
        .map(|s| {
            running.sink(*s).final_events_by_id().into_iter().map(|e| (e.id, e.payload)).collect()
        })
        .collect();
    let metrics = running.metrics();
    let sent = metrics.histogram("batch.events", Labels::op(0)).map_or(0, |h| h.sum);
    let escalations = metrics.counter("recovery.escalations", Labels::op(0)).unwrap_or(0);
    running.shutdown();
    Outcome { per_sink, sent, escalations }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn precise_recovery_for_random_crash_points(
        values in proptest::collection::vec(-50i64..50, 8..30),
        crash_frac in 0.2f64..0.9,
        checkpoint in prop_oneof![Just(None), Just(Some(4u64)), Just(Some(7u64))],
    ) {
        let mut cfg = OperatorConfig::logged(LoggingConfig::simulated(Duration::from_micros(200)));
        if let Some(every) = checkpoint {
            cfg = cfg.with_checkpoint_every(every);
        }
        let crash_at = ((values.len() as f64) * crash_frac) as usize;
        for shape in SHAPES {
            let baseline = shaped_run(shape, cfg.clone(), &values, None);
            let recovered = shaped_run(shape, cfg.clone(), &values, Some(crash_at));
            // Precise: byte-identical to the fault-free run on every sink —
            // the logged random draws and routing included.
            prop_assert_eq!(
                &recovered.per_sink, &baseline.per_sink,
                "{:?} crashed at {}: outputs diverged", shape, crash_at
            );
            prop_assert_eq!(
                recovered.sent, recovered.merged().len() as u64,
                "{:?} crashed at {}: an output went on the wire twice", shape, crash_at
            );
        }
    }

    /// Mid-batch crash: the operator dies while a pushed batch is still in
    /// flight — some of the batch's events processed, the rest queued or
    /// lost with the process. Recovery must replay the interrupted batch
    /// (a batch frame shares one link sequence across its events) and keep
    /// both the pre-crash outputs and the running-sum continuity intact.
    #[test]
    fn precise_recovery_for_mid_batch_crashes(
        warmup in proptest::collection::vec(-50i64..50, 4..12),
        batch in proptest::collection::vec(-50i64..50, 6..20),
        tail in proptest::collection::vec(-50i64..50, 2..10),
        checkpoint in prop_oneof![Just(None), Just(Some(3u64)), Just(Some(5u64))],
    ) {
        let mut b = GraphBuilder::new();
        let mut cfg = OperatorConfig::logged(LoggingConfig::simulated(Duration::from_micros(200)));
        if let Some(every) = checkpoint {
            cfg = cfg.with_checkpoint_every(every);
        }
        let op = b.add_operator(SumTagger::default(), cfg);
        let src = b.source_into(op).unwrap();
        let sink = b.sink_from(op).unwrap();
        let running = b.build().unwrap().start();
        let opid = OperatorId::new(0);

        for v in &warmup {
            running.source(src).push(Value::Int(*v));
        }
        prop_assert!(running.sink(sink).wait_final(warmup.len(), Duration::from_secs(15)));
        let before = running.sink(sink).final_events_by_id();

        // Push the batch and crash immediately: the coordinator is caught
        // mid-frame, with unprocessed batch events dying in its queues.
        running.source(src).push_batch(batch.iter().map(|v| Value::Int(*v)).collect());
        running.crash(opid);
        running.recover(opid);
        for v in &tail {
            running.source(src).push(Value::Int(*v));
        }
        let total = warmup.len() + batch.len() + tail.len();
        prop_assert!(
            running.sink(sink).wait_final(total, Duration::from_secs(30)),
            "stalled at {}/{}", running.sink(sink).final_count(), total
        );
        let after = running.sink(sink).final_events_by_id();

        for pre in &before {
            let post = after.iter().find(|e| e.id == pre.id).expect("event vanished");
            prop_assert_eq!(&post.payload, &pre.payload);
        }
        let sums: Vec<i64> = after
            .iter()
            .filter_map(|e| e.payload.field(0).and_then(Value::as_i64))
            .collect();
        prop_assert_eq!(sums.len(), total, "duplicate or missing outputs");
        let mut expect = 0i64;
        for (i, v) in warmup.iter().chain(&batch).chain(&tail).enumerate() {
            expect += v;
            prop_assert_eq!(sums[i], expect, "running sum diverged at {}", i);
        }
        running.shutdown();
    }
}

/// The estimate each output carries: a counter's or sketch's count
/// (`Record[key, count, ..]`), or the forwarded key for a split.
fn estimates(outputs: &[(EventId, Value)]) -> Vec<u64> {
    outputs
        .iter()
        .map(|(_, p)| {
            p.field(1).and_then(Value::as_i64).or(p.as_i64()).expect("count or key") as u64
        })
        .collect()
}

/// An approximate-mode operator config checkpointing every `every` inputs.
fn approximate(bound: ErrorBound, every: u64) -> OperatorConfig {
    OperatorConfig::logged(LoggingConfig::simulated(Duration::from_micros(200)))
        .with_checkpoint_every(every)
        .with_approximate_recovery(bound)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// Stale-snapshot resume: for an arbitrary checkpoint lag and crash
    /// point, recovered estimates never exceed the fault-free run's and
    /// fall below it by at most `ε·N` — whether the budget admitted the
    /// loss or escalated to a precise cycle. Whatever the operator's
    /// shape, every output id of the fault-free run still arrives, and
    /// none is put on the wire twice.
    #[test]
    fn approximate_recovery_stays_within_declared_bound(
        keys in proptest::collection::vec(0i64..12, 30..70),
        crash_frac in 0.3f64..0.9,
        every in 2u64..8,
    ) {
        let bound = ErrorBound::new(0.25, 0.05);
        let crash_at = ((keys.len() as f64) * crash_frac) as usize;
        for shape in SHAPES {
            let baseline = shaped_run(shape, approximate(bound, every), &keys, None).merged();
            let faulty = shaped_run(shape, approximate(bound, every), &keys, Some(crash_at));
            let recovered = faulty.merged();
            let ids = |o: &[(EventId, Value)]| o.iter().map(|(id, _)| *id).collect::<Vec<_>>();
            prop_assert_eq!(
                ids(&recovered), ids(&baseline),
                "{:?} crashed at {} (checkpoint every {}): output ids differ", shape, crash_at, every
            );
            prop_assert_eq!(
                faulty.sent, recovered.len() as u64,
                "{:?} crashed at {} (checkpoint every {}): an output went on the wire twice",
                shape, crash_at, every
            );
            let report = verify_bounded_divergence(
                bound,
                keys.len() as u64,
                &estimates(&baseline),
                &estimates(&recovered),
            );
            prop_assert!(
                report.is_ok(),
                "{:?} crashed at {} (checkpoint every {}): {}",
                shape, crash_at, every, report.unwrap_err()
            );
        }
    }
}

/// A bound too tight to absorb any loss (ε = 1 ppm allows zero lost
/// updates below a million deliveries) must refuse the stale-snapshot
/// resume and escalate: the `recovery.escalations` counter fires and the
/// precise cycle reproduces the fault-free estimates exactly.
#[test]
fn exhausted_budget_escalates_to_precise_recovery() {
    let keys: Vec<i64> = (0..20).map(|i| i % 5).collect();
    let bound = ErrorBound::new(0.000_001, 0.05);
    let baseline = shaped_run(Shape::OneToOne, approximate(bound, 6), &keys, None);
    let recovered = shaped_run(Shape::OneToOne, approximate(bound, 6), &keys, Some(10));
    assert!(recovered.escalations >= 1, "zero-allowance budget admitted a stale-snapshot resume");
    assert_eq!(
        estimates(&recovered.merged()),
        estimates(&baseline.merged()),
        "escalated (precise) recovery changed the estimates"
    );
}

/// Outputs per input of [`WideFanOut`]: more than one 32-event batch
/// frame holds, so the node flushes mid-fan-out.
const WIDE: i64 = 40;

/// A slow fan-out: works for `cost`, then emits `WIDE` records per input.
struct WideFanOut {
    cost: Duration,
}

impl Operator for WideFanOut {
    fn name(&self) -> &str {
        "wide-fan-out"
    }
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        std::thread::sleep(self.cost);
        for k in 0..WIDE {
            ctx.emit(Value::record(vec![event.payload.clone(), Value::Int(k)]));
        }
        Ok(())
    }
}

/// A crash between a batch-full flush and the rest of one input's
/// fan-out leaves that input partly on the wire. The watermark must not
/// count it, so approximate recovery re-executes it — dropping the part
/// already sent — instead of skipping the part never sent. (ε = 1 lets
/// the budget admit any window, so the skip rule alone decides.)
#[test]
fn approximate_resume_reexecutes_a_fan_out_cut_mid_flush() {
    let mut b = GraphBuilder::new();
    let op = b.add_operator(
        WideFanOut { cost: Duration::from_millis(40) },
        approximate(ErrorBound::new(1.0, 0.05), 1000),
    );
    let src = b.source_into(op).unwrap();
    let sink = b.sink_from(op).unwrap();
    let running = b.build().unwrap().start();
    running.source(src).push(Value::Int(0));
    assert!(running.sink(sink).wait_final(WIDE as usize, Duration::from_secs(15)));
    // Crash while the second input is inside `process`: its first batch
    // frame goes out when the buffer fills, the rest dies with the node.
    running.source(src).push(Value::Int(1));
    std::thread::sleep(Duration::from_millis(15));
    running.crash(op);
    running.recover(op);
    assert!(
        running.sink(sink).wait_final(2 * WIDE as usize, Duration::from_secs(15)),
        "only {} of {} outputs arrived\n{}",
        running.sink(sink).final_count(),
        2 * WIDE,
        running.journal_dump()
    );
    let sent = running.metrics().histogram("batch.events", Labels::op(0)).map_or(0, |h| h.sum);
    assert_eq!(sent, 2 * WIDE as u64, "an output went on the wire twice");
    running.shutdown();
}
