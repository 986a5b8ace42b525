//! Speculation integration tests: the paper's §3 behaviours observed
//! end-to-end through the engine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streammine::common::event::{Event, Value};
use streammine::common::ids::OperatorId;
use streammine::core::{
    GraphBuilder, LoggingConfig, OpCtx, Operator, OperatorConfig, Running, SinkId, SourceId,
};
use streammine::operators::{Classifier, RandomTagger, StampedRelay};
use streammine::stm::StmAbort;

fn pipeline(depth: usize, speculative: bool, log_latency: Duration) -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new();
    let mut prev = None;
    let mut first = None;
    for _ in 0..depth {
        let cfg = if speculative {
            OperatorConfig::speculative(LoggingConfig::simulated(log_latency))
        } else {
            OperatorConfig::logged(LoggingConfig::simulated(log_latency))
        };
        let op = b.add_operator(StampedRelay::new(), cfg);
        if let Some(p) = prev {
            b.connect(p, op).unwrap();
        } else {
            first = Some(op);
        }
        prev = Some(op);
    }
    let src = b.source_into(first.unwrap()).unwrap();
    let sink = b.sink_from(prev.unwrap()).unwrap();
    (b.build().unwrap().start(), src, sink)
}

#[test]
fn speculative_pipeline_produces_identical_final_payloads() {
    let run = |speculative: bool| -> Vec<Value> {
        let (running, src, sink) = pipeline(3, speculative, Duration::from_micros(500));
        for i in 0..10 {
            running.source(src).push(Value::Int(i));
        }
        assert!(running.sink(sink).wait_final(10, Duration::from_secs(15)));
        let out = running.sink(sink).final_events_by_id().into_iter().map(|e| e.payload).collect();
        running.shutdown();
        out
    };
    assert_eq!(run(false), run(true));
}

#[test]
fn speculative_events_arrive_before_they_finalize() {
    let (running, src, sink) = pipeline(2, true, Duration::from_millis(30));
    running.source(src).push(Value::Int(7));
    // The speculative version shows up quickly...
    let deadline = Instant::now() + Duration::from_secs(5);
    while running.sink(sink).seen_count() == 0 {
        assert!(Instant::now() < deadline, "speculative event never arrived");
        std::thread::yield_now();
    }
    let spec_seen_at = Instant::now();
    assert_eq!(running.sink(sink).final_count(), 0, "must not be final before logs stabilize");
    // ...and finalizes once the logs are stable.
    assert!(running.sink(sink).wait_final(1, Duration::from_secs(10)));
    assert!(spec_seen_at.elapsed() >= Duration::from_millis(1));
    running.shutdown();
}

#[test]
fn speculation_parallelizes_pipeline_logging() {
    // The paper's Figure 3: with per-hop log latency L and depth D, the
    // non-speculative pipeline pays ~D·L of final latency, the speculative
    // one ~L (all logs written in parallel). With L = 25 ms and D = 4 the
    // gap is wide enough to assert robustly even on a loaded CI machine.
    let measure = |speculative: bool| -> f64 {
        let (running, src, sink) = pipeline(4, speculative, Duration::from_millis(25));
        for i in 0..5 {
            running.source(src).push(Value::Int(i));
        }
        assert!(running.sink(sink).wait_final(5, Duration::from_secs(30)));
        let lats = running.sink(sink).final_latencies_us();
        running.shutdown();
        lats.iter().sum::<f64>() / lats.len() as f64
    };
    let nonspec = measure(false);
    let spec = measure(true);
    assert!(
        spec < nonspec * 0.6,
        "speculation should parallelize logs: spec={spec:.0}us nonspec={nonspec:.0}us"
    );
    // Non-spec should be at least ~4x one log write; spec around ~1-2x.
    assert!(nonspec > 80_000.0, "non-speculative pipeline unexpectedly fast: {nonspec:.0}us");
}

#[test]
fn speculative_input_revision_revises_downstream_output() {
    // §3.1: E1′ is replaced by E1″; the consumer's output must be revised
    // and only then finalized.
    struct Echo;
    impl Operator for Echo {
        fn process(&self, ctx: &mut OpCtx<'_, '_>, ev: &Event) -> Result<(), StmAbort> {
            ctx.emit(Value::Int(ev.payload.as_i64().unwrap_or(0) + 100));
            Ok(())
        }
    }
    let mut b = GraphBuilder::new();
    let op = b.add_operator(Echo, OperatorConfig::speculative_unlogged());
    let src = b.source_into(op).unwrap();
    let sink = b.sink_from(op).unwrap();
    let running = b.build().unwrap().start();

    let id = running.source(src).push_speculative(Value::Int(1));
    let deadline = Instant::now() + Duration::from_secs(5);
    while running.sink(sink).seen_count() == 0 {
        assert!(Instant::now() < deadline);
        std::thread::yield_now();
    }
    assert_eq!(running.sink(sink).final_count(), 0);

    // Revise, then finalize the revision.
    running.source(src).revise(id, 1, Value::Int(2));
    running.source(src).finalize(id, 1);
    assert!(running.sink(sink).wait_final(1, Duration::from_secs(10)));
    let out = running.sink(sink).final_events();
    assert_eq!(out[0].payload, Value::Int(102), "output must reflect the revised input");
    running.shutdown();
}

#[test]
fn revoked_speculative_input_revokes_downstream_output() {
    struct Echo;
    impl Operator for Echo {
        fn process(&self, ctx: &mut OpCtx<'_, '_>, ev: &Event) -> Result<(), StmAbort> {
            ctx.emit(ev.payload.clone());
            Ok(())
        }
    }
    let mut b = GraphBuilder::new();
    let op = b.add_operator(Echo, OperatorConfig::speculative_unlogged());
    let src = b.source_into(op).unwrap();
    let sink = b.sink_from(op).unwrap();
    let running = b.build().unwrap().start();

    let id = running.source(src).push_speculative(Value::Int(9));
    let deadline = Instant::now() + Duration::from_secs(5);
    while running.sink(sink).seen_count() == 0 {
        assert!(Instant::now() < deadline);
        std::thread::yield_now();
    }
    running.source(src).revoke(id);
    let deadline = Instant::now() + Duration::from_secs(5);
    while running.sink(sink).revoked().is_empty() {
        assert!(Instant::now() < deadline, "revoke never propagated");
        std::thread::yield_now();
    }
    assert_eq!(running.sink(sink).final_count(), 0);
    running.shutdown();
}

#[test]
fn final_event_overtakes_unrelated_speculation() {
    // §3.1's no-collision case: E1′ (speculative) touches class A, E2
    // (final) touches class B — E2's output must finalize without waiting
    // for E1's log/finalize. With `crash`, the classifier crashes while E1
    // is still open: E2's output committed ahead of it, so the recovered
    // classifier must not send it again, or the operator downstream takes
    // it as a new input.
    for crash in [false, true] {
        overtake_open_speculation(crash);
    }
}

fn overtake_open_speculation(crash: bool) {
    let mut b = GraphBuilder::new();
    // The paper's out-of-order finalization (§3.1) needs the aggressive
    // commit order: a later independent transaction may commit while the
    // earlier speculation is still open.
    let stm = streammine::stm::StmConfig {
        commit_order: streammine::stm::CommitOrder::Conflict,
        ..Default::default()
    };
    // Precise recovery of a two-input operator needs its merge order logged.
    let cfg = if crash {
        OperatorConfig::speculative(LoggingConfig::simulated(Duration::from_micros(200)))
    } else {
        OperatorConfig::speculative_unlogged()
    };
    let c = b.add_operator(Classifier::new(64), cfg.with_stm(stm));
    let tagger = b.add_operator(RandomTagger, OperatorConfig::plain());
    b.connect(c, tagger).unwrap();
    let spec_src = b.source_into(c).unwrap();
    let final_src = b.source_into(c).unwrap();
    let sink = b.sink_from(tagger).unwrap();
    let running = b.build().unwrap().start();

    // Find two payloads in different classes.
    let probe = Classifier::new(64);
    let (a, b_val) = {
        let mut a = 0i64;
        let mut bv = 1i64;
        while probe.class_of(&Value::Int(a)) == probe.class_of(&Value::Int(bv)) {
            bv += 1;
        }
        while probe.class_of(&Value::Int(a)) == probe.class_of(&Value::Int(bv)) {
            a += 1;
        }
        (a, bv)
    };

    let spec_id = running.source(spec_src).push_speculative(Value::Int(a));
    std::thread::sleep(Duration::from_millis(30));
    running.source(final_src).push(Value::Int(b_val));

    // E2 finalizes although E1 is still speculative.
    assert!(
        running.sink(sink).wait_final(1, Duration::from_secs(10)),
        "independent final event must not be blocked by open speculation"
    );
    assert_eq!(running.sink(sink).final_count(), 1);
    if crash {
        running.crash(OperatorId::new(0));
        running.recover(OperatorId::new(0));
        std::thread::sleep(Duration::from_millis(100));
    }
    // Now confirm E1.
    running.source(spec_src).finalize(spec_id, 0);
    assert!(running.sink(sink).wait_final(2, Duration::from_secs(10)));
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        running.sink(sink).final_count(),
        2,
        "an input reached the tagger twice (crash: {crash})"
    );
    running.shutdown();
}

#[test]
fn speculative_operator_crash_recovers_precisely() {
    // Speculation + crash: the recovered operator replays its stable log
    // and reproduces identical final outputs.
    let mut b = GraphBuilder::new();
    let op = b.add_operator(
        StampedRelay::new(),
        OperatorConfig::speculative(LoggingConfig::simulated(Duration::from_micros(300))),
    );
    let src = b.source_into(op).unwrap();
    let sink = b.sink_from(op).unwrap();
    let running = b.build().unwrap().start();
    let opid = OperatorId::new(0);

    for i in 0..12 {
        running.source(src).push(Value::Int(i));
    }
    assert!(running.sink(sink).wait_final(12, Duration::from_secs(10)));
    let before = running.sink(sink).final_events_by_id();
    running.crash(opid);
    running.recover(opid);
    for i in 12..20 {
        running.source(src).push(Value::Int(i));
    }
    assert!(
        running.sink(sink).wait_final(20, Duration::from_secs(20)),
        "only {} of 20 after speculative recovery",
        running.sink(sink).final_count()
    );
    let after = running.sink(sink).final_events_by_id();
    for pre in &before {
        let post = after.iter().find(|e| e.id == pre.id).expect("event vanished");
        assert_eq!(post.payload, pre.payload, "speculative op diverged after recovery");
    }
    running.shutdown();
}

#[test]
fn final_latency_respects_log_stability_across_a_chain() {
    // Regression: a multi-input speculative operator's merge decision is a
    // logged determinant; its outputs must not finalize before the log
    // write completes (they once did, because the speculative path forgot
    // to record the input-order choice).
    use streammine::operators::{SketchOp, Union};
    let mut b = GraphBuilder::new();
    let union = b.add_operator(
        Union::new(),
        OperatorConfig::speculative(LoggingConfig::simulated(Duration::from_millis(10))),
    );
    let sketch = b.add_operator(
        SketchOp::new(64, 3, 5, Duration::ZERO),
        OperatorConfig::speculative(LoggingConfig::simulated(Duration::from_millis(10))),
    );
    b.connect(union, sketch).unwrap();
    let src = b.source_into(union).unwrap();
    let _src2 = b.source_into(union).unwrap();
    let sink = b.sink_from(sketch).unwrap();
    let running = b.build().unwrap().start();
    for i in 0..5 {
        running.source(src).push(Value::Int(i));
        std::thread::sleep(Duration::from_millis(15));
    }
    assert!(running.sink(sink).wait_final(5, Duration::from_secs(15)));
    let lat = running.sink(sink).final_latencies_us();
    let min = lat.iter().cloned().fold(f64::MAX, f64::min);
    assert!(min >= 10_000.0, "an output finalized before its log was stable: {min}us");
    // Speculative arrivals, by contrast, beat the log write.
    let spec = running.sink(sink).first_arrival_latencies_us();
    let spec_min = spec.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spec_min < 10_000.0, "speculative arrival should precede log stability: {spec_min}us");
    running.shutdown();
}

#[test]
fn speculative_union_merge_order_survives_crash() {
    // Spec-mode variant of the union-order recovery test: the interleaving
    // of two sources into a speculative classifier must replay identically.
    let mut b = GraphBuilder::new();
    let c = b.add_operator(
        Classifier::new(3),
        OperatorConfig::speculative(LoggingConfig::simulated(Duration::from_micros(300)))
            .with_checkpoint_every(8),
    );
    let s1 = b.source_into(c).unwrap();
    let s2 = b.source_into(c).unwrap();
    let sink = b.sink_from(c).unwrap();
    let running = b.build().unwrap().start();
    let op = streammine::common::ids::OperatorId::new(0);

    for i in 0..10 {
        running.source(s1).push(Value::Int(i * 2));
        running.source(s2).push(Value::Int(i * 2 + 1));
    }
    assert!(running.sink(sink).wait_final(20, Duration::from_secs(15)));
    let before = running.sink(sink).final_events_by_id();

    running.crash(op);
    running.recover(op);
    for i in 10..14 {
        running.source(s1).push(Value::Int(i * 2));
    }
    assert!(
        running.sink(sink).wait_final(24, Duration::from_secs(20)),
        "only {} of 24 after speculative-union recovery",
        running.sink(sink).final_count()
    );
    let after = running.sink(sink).final_events_by_id();
    for pre in &before {
        let post = after.iter().find(|e| e.id == pre.id).expect("event vanished");
        assert_eq!(post.payload, pre.payload, "merge order diverged for {}", pre.id);
    }
    running.shutdown();
}

#[test]
fn speculative_restart_behind_long_history_finalizes_every_event() {
    // Regression: a speculative relay restarted behind 300 events of
    // history replays more frames than its upstream's replay reserve
    // holds, so inputs and their finalizes reach it in bursts while it
    // drains in logged order. A finalize whose input was still queued was
    // lost; that input's transaction never committed, and commit order
    // then blocked every later one.
    const HISTORY: usize = 300;
    const AFTER: usize = 100;
    let (running, src, sink) = pipeline(2, true, Duration::ZERO);
    for i in 0..HISTORY {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(running.sink(sink).wait_final(HISTORY, Duration::from_secs(20)));
    let relay = OperatorId::new(1);
    running.crash(relay);
    running.recover(relay);
    for i in HISTORY..HISTORY + AFTER {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(
        running.sink(sink).wait_final(HISTORY + AFTER, Duration::from_secs(30)),
        "only {} of {} final after the restart",
        running.sink(sink).final_count(),
        HISTORY + AFTER
    );
    assert_eq!(running.sink(sink).final_events_by_id().len(), HISTORY + AFTER);
    running.shutdown();
}

/// Running sum of its inputs. While `delay_one` is set, input 1 waits
/// before it touches the sum, so an input processed beside it on the other
/// thread reads the sum too early and is rolled back; while it is clear,
/// every other input waits instead, and each runs once.
struct LateSum {
    sum: parking_lot::Mutex<Option<streammine::core::StateHandle<i64>>>,
    delay_one: Arc<AtomicBool>,
}

impl Operator for LateSum {
    fn setup(&self, ctx: &mut streammine::core::SetupCtx<'_>) {
        *self.sum.lock() = Some(ctx.state(0i64));
    }
    fn process(&self, ctx: &mut OpCtx<'_, '_>, ev: &Event) -> Result<(), StmAbort> {
        let handle = self.sum.lock().expect("setup ran");
        let v = ev.payload.as_i64().unwrap_or(0);
        if (v == 1) == self.delay_one.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(30));
        }
        ctx.update(handle, |s| s + v)?;
        let sum = *ctx.get(handle)?;
        ctx.emit(Value::Int(sum));
        Ok(())
    }
}

#[test]
fn speculative_sender_crash_after_a_rollback_finalizes_the_revised_output() {
    // A speculative sender rolls back an open transaction, so a revision
    // (version 1) of its output goes out, and crashes before the commit.
    // Recovered, it runs the transaction once and sends and finalizes the
    // output at version 0. The receiver — a speculative relay, or the sink
    // itself — must take that copy as the newer one: a finalize of version
    // 0 that it ignored left the input open forever.
    for relay in [true, false] {
        let delay_one = Arc::new(AtomicBool::new(true));
        let mut b = GraphBuilder::new();
        let op = b.add_operator(
            LateSum { sum: Default::default(), delay_one: delay_one.clone() },
            OperatorConfig::speculative(LoggingConfig::simulated(Duration::from_micros(200)))
                .with_threads(2),
        );
        let last = if relay {
            let r = b.add_operator(
                StampedRelay::new(),
                OperatorConfig::speculative(LoggingConfig::simulated(Duration::from_micros(200))),
            );
            b.connect(op, r).unwrap();
            r
        } else {
            op
        };
        let src = b.source_into(op).unwrap();
        let sink = b.sink_from(last).unwrap();
        let running = b.build().unwrap().start();

        // Input 10 reads the sum before input 1 adds to it (output 10),
        // is rolled back, and is revised to 11. Input 1 stays speculative,
        // so input 10 cannot commit behind it.
        let one = running.source(src).push_speculative(Value::Int(1));
        running.source(src).push(Value::Int(10));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !running.sink(sink).records().iter().any(|r| r.event.payload == Value::Int(11)) {
            assert!(Instant::now() < deadline, "relay {relay}: the revision never arrived");
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(running.sink(sink).final_count(), 0);

        let sender = OperatorId::new(0);
        running.crash(sender);
        delay_one.store(false, Ordering::SeqCst);
        running.recover(sender);
        running.source(src).finalize(one, 0);
        assert!(
            running.sink(sink).wait_final(2, Duration::from_secs(10)),
            "relay {relay}: only {} of 2 final after the sender's restart",
            running.sink(sink).final_count()
        );
        let mut finals: Vec<i64> = running
            .sink(sink)
            .final_events_by_id()
            .iter()
            .filter_map(|e| e.payload.as_i64())
            .collect();
        finals.sort_unstable();
        assert_eq!(finals, vec![1, 11], "relay {relay}");
        running.shutdown();
    }
}
