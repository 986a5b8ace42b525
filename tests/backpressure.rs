//! Overload robustness: credit-based backpressure, bounded speculation,
//! and the deadlock-freedom of the replay/credit protocol.
//!
//! These tests run a pipeline with deliberately *tight* flow-control
//! knobs — small link credit windows, small sender caps, small intakes —
//! so that a stalled consumer saturates every hop. The claims:
//!
//! * backpressure only ever *delays* outputs, never changes a byte;
//! * every queue stays within its configured bound while saturated;
//! * stall episodes are journaled symmetrically (stall ⇔ resume) and
//!   metered;
//! * crash recovery *while saturated* completes, because replay traffic
//!   draws from a reserved credit class and control-plane work is never
//!   gated by the overload stall (the deadlock-freedom argument);
//! * speculation admission caps pace a speculative operator down to
//!   log-stable progress instead of aborting or growing memory.

use std::time::Duration;

use streammine::common::event::{Event, Value};
use streammine::common::ids::OperatorId;
use streammine::core::{
    GraphBuilder, LoggingConfig, NodeConfig, OpCtx, Operator, OperatorConfig, Running, SinkId,
    SourceId,
};
use streammine::net::{LinkConfig, SenderLimits};
use streammine::obs::{JournalKind, Labels};
use streammine::stm::StmAbort;

const FAST_LOG: Duration = Duration::from_micros(200);
const EVENTS: u64 = 48;

// Tight overload knobs: small enough that a stalled sink saturates the
// whole chain within a handful of events, large enough that the pipeline
// still makes progress between stall episodes.
const LINK_CAPACITY: usize = 8;
const REPLAY_RESERVE: usize = 4;
const PENDING_CAP: usize = 8;
const INTAKE_CAPACITY: usize = 16;

/// Non-deterministic relay (same shape as the chaos suite): byte-identical
/// outputs require bit-exact determinant replay, so backpressure-induced
/// reprocessing or recovery cannot hide behind deterministic operators.
struct RandomTagger;

impl Operator for RandomTagger {
    fn name(&self) -> &str {
        "random-tagger"
    }
    fn process(&self, ctx: &mut OpCtx<'_, '_>, event: &Event) -> Result<(), StmAbort> {
        let tag = ctx.random_u64();
        ctx.emit(Value::record(vec![event.payload.clone(), Value::Int(tag as i64)]));
        Ok(())
    }
}

/// src → tagger → tagger → tagger → sink with tight flow-control knobs on
/// every layer: link credit windows, sender saturation caps, and intake
/// lanes.
fn tight_pipeline() -> (Running, SourceId, SinkId) {
    let mut b = GraphBuilder::new()
        .with_links(
            LinkConfig::instant().with_capacity(LINK_CAPACITY).with_replay_reserve(REPLAY_RESERVE),
        )
        .with_sender_limits(SenderLimits { pending_cap: PENDING_CAP, retained_cap: usize::MAX });
    let cfg = || {
        OperatorConfig::logged(LoggingConfig::simulated(FAST_LOG))
            .with_checkpoint_every(7)
            .with_node(NodeConfig { intake_capacity: INTAKE_CAPACITY, ..NodeConfig::default() })
    };
    let op0 = b.add_operator(RandomTagger, cfg());
    let op1 = b.add_operator(RandomTagger, cfg());
    let op2 = b.add_operator(RandomTagger, cfg());
    b.connect(op0, op1).unwrap();
    b.connect(op1, op2).unwrap();
    let src = b.source_into(op0).unwrap();
    let sink = b.sink_from(op2).unwrap();
    (b.build().unwrap().start(), src, sink)
}

fn payloads(events: &[Event]) -> Vec<Value> {
    events.iter().map(|e| e.payload.clone()).collect()
}

fn run_reference() -> Vec<Value> {
    let (running, src, sink) = tight_pipeline();
    for i in 0..EVENTS {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(running.sink(sink).wait_final(EVENTS as usize, Duration::from_secs(30)));
    let out = payloads(&running.sink(sink).final_events_by_id());
    running.shutdown();
    out
}

/// Per-op journal reconciliation: every stall entry (edge stall or spec
/// cap hit) has a matching resume once the run has quiesced, and the
/// `backpressure.stalls` counter agrees with the journal.
fn assert_stalls_reconcile(running: &Running) {
    let journal = running.obs().journal.events();
    for op in 0..running.operator_count() as u32 {
        let stalls = journal
            .iter()
            .filter(|e| e.op == Some(op))
            .filter(|e| {
                matches!(
                    e.kind,
                    JournalKind::BackpressureStall { .. } | JournalKind::SpecCapHit { .. }
                )
            })
            .count() as u64;
        let resumes = journal
            .iter()
            .filter(|e| e.op == Some(op))
            .filter(|e| matches!(e.kind, JournalKind::BackpressureResume { .. }))
            .count() as u64;
        assert_eq!(
            stalls,
            resumes,
            "op{op}: {stalls} stall entries but {resumes} resumes after quiesce\n{}",
            running.journal_dump()
        );
        let counted = running
            .obs()
            .registry
            .counter_value("backpressure.stalls", Labels::op(op))
            .unwrap_or(0);
        assert_eq!(
            counted, stalls,
            "op{op}: backpressure.stalls counter disagrees with the journal"
        );
    }
    streammine::chaos::verify_recovery_counters(&running.metrics(), &[], &journal)
        .unwrap_or_else(|e| panic!("{e}\n{}", running.journal_dump()));
}

/// Every edge's retry queue stayed within its configured bound. The cap is
/// soft — an in-flight event's outputs may land after the gate check — so
/// the hard bound is `pending_cap` plus a small per-event overshoot.
fn assert_queues_bounded(running: &Running) {
    let reg = &running.obs().registry;
    for op in 0..running.operator_count() as u32 {
        let hwm = reg.gauge_value("edge.pending_hwm", Labels::op_port(op, 0)).unwrap_or(0);
        assert!(
            hwm <= (PENDING_CAP + 4) as i64,
            "op{op} edge 0: pending high-water mark {hwm} exceeds cap {PENDING_CAP} + overshoot"
        );
        let depth = reg.gauge_value("node.intake_depth", Labels::op(op)).unwrap_or(0);
        assert!(
            depth <= INTAKE_CAPACITY as i64,
            "op{op}: intake depth {depth} exceeds its bounded lane capacity"
        );
    }
}

/// A sink stalled for many drain intervals saturates every hop; all queues
/// stay within bounds, stall episodes reconcile, and once the stall ends
/// the outputs are byte-identical to an unstalled run.
#[test]
fn stalled_sink_backpressure_is_bounded_and_precise() {
    let reference = run_reference();
    let (running, src, sink) = tight_pipeline();

    // Stall the sink for far longer than it takes the tight windows to
    // fill (8-credit links drain in microseconds; 300ms ≫ 10× that).
    running.sink(sink).stall_for(Duration::from_millis(300));
    for i in 0..EVENTS {
        // Push straight into the stall: once every window is full this
        // call blocks on the source link's credits — the source is the
        // last hop of the backpressure chain. Paced pushes keep the
        // micro-batching transport from coalescing the whole workload
        // into a handful of jumbo frames that never consume the window.
        running.source(src).push(Value::Int(i as i64));
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        running.sink(sink).wait_final(EVENTS as usize, Duration::from_secs(30)),
        "stalled at {}/{EVENTS}\n{}",
        running.sink(sink).final_count(),
        running.journal_dump()
    );
    // Let stalled nodes notice the drained queues and journal resumes.
    std::thread::sleep(Duration::from_millis(100));

    let out = payloads(&running.sink(sink).final_events_by_id());
    assert_eq!(out, reference, "backpressure changed output bytes");

    let total_stalls = running.obs().registry.counter_total("backpressure.stalls");
    assert!(total_stalls >= 1, "a 300ms sink stall must trigger at least one stall episode");
    assert_queues_bounded(&running);
    assert_stalls_reconcile(&running);

    // Stall latency is attributed: the stall histogram recorded the
    // episode(s) the journal describes.
    let stall_us: u64 = (0..running.operator_count() as u32)
        .filter_map(|op| {
            running
                .obs()
                .registry
                .histogram_snapshot("backpressure.stall_us", Labels::op(op))
                .map(|h| h.count())
        })
        .sum();
    assert_eq!(stall_us, total_stalls, "every stall episode must record its duration");
    running.shutdown();
}

/// The deadlock-freedom property, exercised rather than argued: a node
/// crashes *while the whole chain is saturated* and recovery still
/// completes, because (a) replay requests ride the ungated control lane
/// and (b) replayed data draws from the reserved replay credit class, so
/// replay and credit grants never wait on each other. A lost race on the
/// reserve is retried by the replay watchdog.
#[test]
fn crash_while_saturated_recovers_without_deadlock() {
    let reference = run_reference();
    let (running, src, sink) = tight_pipeline();

    // Saturate: stall the sink, then push the full workload from a helper
    // thread (the source blocks once the chain is full).
    running.sink(sink).stall_for(Duration::from_millis(500));
    std::thread::scope(|s| {
        let pusher = s.spawn(|| {
            for i in 0..EVENTS {
                running.source(src).push(Value::Int(i as i64));
            }
        });
        // Give the chain time to wedge solid, then kill the middle
        // operator mid-stall and recover it while everything around it is
        // saturated.
        std::thread::sleep(Duration::from_millis(150));
        let op1 = OperatorId::new(1);
        running.crash(op1);
        running.recover(op1);
        pusher.join().unwrap();
    });
    assert!(
        running.sink(sink).wait_final(EVENTS as usize, Duration::from_secs(60)),
        "recovery deadlocked at {}/{EVENTS} under saturation\n{}",
        running.sink(sink).final_count(),
        running.journal_dump()
    );
    let out = payloads(&running.sink(sink).final_events_by_id());
    assert_eq!(out, reference, "crash-while-saturated recovery changed output bytes");
    assert_queues_bounded(&running);
    running.shutdown();
}

/// Speculation admission control: with a tiny open-transaction cap, a
/// speculative operator hits the cap, stalls speculative intake, and
/// paces itself by log stability — it never aborts and the outputs are
/// byte-identical to an uncapped run.
#[test]
fn speculation_cap_paces_without_aborting() {
    const SPEC_EVENTS: u64 = 24;
    // Slow log: speculation runs ahead of stability, so open transactions
    // pile up against the cap.
    let slow_log = Duration::from_millis(2);
    let build = |caps: NodeConfig| {
        let mut b = GraphBuilder::new();
        let cfg = OperatorConfig::speculative(LoggingConfig::simulated(slow_log)).with_node(caps);
        let op0 = b.add_operator(RandomTagger, cfg);
        let src = b.source_into(op0).unwrap();
        let sink = b.sink_from(op0).unwrap();
        (b.build().unwrap().start(), src, sink)
    };

    let reference = {
        let (running, src, sink) = build(NodeConfig::default());
        for i in 0..SPEC_EVENTS {
            running.source(src).push(Value::Int(i as i64));
        }
        assert!(running.sink(sink).wait_final(SPEC_EVENTS as usize, Duration::from_secs(30)));
        let out = payloads(&running.sink(sink).final_events_by_id());
        running.shutdown();
        out
    };

    let (running, src, sink) =
        build(NodeConfig { max_open_speculations: 2, ..NodeConfig::default() });
    for i in 0..SPEC_EVENTS {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(
        running.sink(sink).wait_final(SPEC_EVENTS as usize, Duration::from_secs(30)),
        "capped speculation stalled at {}/{SPEC_EVENTS}\n{}",
        running.sink(sink).final_count(),
        running.journal_dump()
    );
    std::thread::sleep(Duration::from_millis(100));

    let out = payloads(&running.sink(sink).final_events_by_id());
    assert_eq!(out, reference, "speculation cap changed output bytes");

    let cap_hits = running.obs().registry.counter_total("spec.cap_hits");
    assert!(
        cap_hits >= 1,
        "24 events against a 2-transaction window on a 2ms log must hit the cap\n{}",
        running.journal_dump()
    );
    let journal = running.obs().journal.events();
    assert!(
        journal.iter().any(|e| matches!(e.kind, JournalKind::SpecCapHit { .. })),
        "cap hits must be journaled"
    );
    assert_stalls_reconcile(&running);
    running.shutdown();
}

/// A capped speculative operator behind a speculative upstream: its open
/// transactions wait for the upstream's finalizes, which travel behind
/// data on the same link. The cap stall must keep pulling that link, or
/// no open transaction can ever commit.
#[test]
fn speculation_cap_behind_a_speculative_upstream_still_commits() {
    const N: usize = 64;
    let mut b = GraphBuilder::new();
    // The slow upstream log lets all of its data go out before the first
    // finalize does.
    let upstream = OperatorConfig::speculative(LoggingConfig::simulated(Duration::from_millis(2)));
    let capped = OperatorConfig::speculative(LoggingConfig::simulated(Duration::ZERO))
        .with_node(NodeConfig { max_open_speculations: 4, ..NodeConfig::default() });
    let op0 = b.add_operator(RandomTagger, upstream);
    let op1 = b.add_operator(RandomTagger, capped);
    b.connect(op0, op1).unwrap();
    let src = b.source_into(op0).unwrap();
    let sink = b.sink_from(op1).unwrap();
    let running = b.build().unwrap().start();
    for i in 0..N {
        running.source(src).push(Value::Int(i as i64));
    }
    assert!(
        running.sink(sink).wait_final(N, Duration::from_secs(30)),
        "capped operator stalled at {}/{N}\n{}",
        running.sink(sink).final_count(),
        running.journal_dump()
    );
    assert!(running.metrics().counter("spec.cap_hits", Labels::op(1)).unwrap_or(0) >= 1);
    assert_stalls_reconcile(&running);
    running.shutdown();
}
