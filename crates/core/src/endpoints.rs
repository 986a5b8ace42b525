//! Graph endpoints: external sources and observing sinks.
//!
//! Sources model the paper's *Publisher* components: they inject events
//! into the graph from outside (workload generators, test drivers). Sinks
//! model *Consumer* components: they record arrivals, track speculative →
//! final upgrades, and compute the latency series the evaluation plots.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use streammine_common::clock::SharedClock;
use streammine_common::event::{Event, Timestamp, TraceCtx, Value};
use streammine_common::ids::{EventId, OperatorId};
use streammine_net::{LinkError, LinkReceiver, LinkSender};
use streammine_obs::{Histogram, Labels, Obs, Tracer};

use crate::message::{Control, Message};

/// Injects events into the graph from outside.
///
/// Events are stamped with the source's clock at push time, which is what
/// end-to-end latency is measured against. The source retains sent events
/// for replay (the paper's "log messages at the source components", §1) and
/// answers downstream replay requests on a background responder thread.
pub struct SourceHandle {
    id: OperatorId,
    tx: LinkSender<Message>,
    clock: SharedClock,
    next_seq: AtomicU64,
    /// Sampling tracer: pushed events that pass the (deterministic,
    /// sequence-based) sampling check are stamped with a root trace
    /// context.
    tracer: Arc<Tracer>,
    _responder: Option<JoinHandle<()>>,
}

impl fmt::Debug for SourceHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SourceHandle")
            .field("id", &self.id)
            .field("sent", &self.next_seq.load(Ordering::Relaxed))
            .finish()
    }
}

impl SourceHandle {
    pub(crate) fn new(
        id: OperatorId,
        tx: LinkSender<Message>,
        ctrl_rx: LinkReceiver<Control>,
        clock: SharedClock,
        obs: &Obs,
    ) -> Self {
        let responder = {
            let tx = tx.clone();
            std::thread::Builder::new()
                .name(format!("source-{}-ctrl", id))
                .spawn(move || {
                    // Last `(token, from)` served with at least one
                    // re-delivered frame: a watchdog retry of the same
                    // request over a slow lane is dropped instead of
                    // doubling the replay (same discipline as the node's
                    // downstream-replay dedup).
                    let mut served: Option<(u64, u64)> = None;
                    while let Ok((_seq, ctrl)) = ctrl_rx.recv() {
                        match ctrl {
                            Control::ReplayRequest { from, token } => {
                                if served == Some((token, from)) {
                                    continue;
                                }
                                if tx.replay_from(from) > 0 {
                                    served = Some((token, from));
                                }
                            }
                            Control::Ack { upto } => tx.ack_upto(upto),
                            _ => {}
                        }
                    }
                })
                .ok()
        };
        SourceHandle {
            id,
            tx,
            clock,
            next_seq: AtomicU64::new(0),
            tracer: obs.tracer.clone(),
            _responder: responder,
        }
    }

    /// Sends one frame, blocking while the edge is saturated. A source is
    /// the outermost producer: when the graph pushes back there is nowhere
    /// further upstream to shed load to, so the push call itself blocks —
    /// exactly how an overloaded publisher experiences backpressure.
    /// Disconnects (severed link, shut-down graph) drop the frame, as
    /// before.
    fn send_blocking(&self, msg: Message) {
        loop {
            match self.tx.send(msg.clone()) {
                Ok(_) | Err(LinkError::Disconnected) => return,
                Err(_) => std::thread::sleep(Duration::from_micros(100)),
            }
        }
    }

    /// The root trace context for the event at `seq`, when sampled. The
    /// decision is a pure function of `(source op, seq)`, so recovery
    /// replays reproduce it exactly.
    fn stamp(&self, seq: u64) -> Option<TraceCtx> {
        self.tracer.sample(self.id.index(), seq).map(TraceCtx::root)
    }

    /// The operator id under which this source's events are identified.
    pub fn id(&self) -> OperatorId {
        self.id
    }

    /// Pushes a final event; returns its id.
    pub fn push(&self, payload: Value) -> EventId {
        self.push_inner(payload, false)
    }

    /// Pushes a *speculative* event (the upstream-subgraph-speculates
    /// scenario of §3.1); finalize later with [`SourceHandle::finalize`].
    pub fn push_speculative(&self, payload: Value) -> EventId {
        self.push_inner(payload, true)
    }

    /// Pushes several final events as one `DataBatch` frame (one link
    /// sequence number, one shared push timestamp); returns their ids.
    ///
    /// This is the injection-side counterpart of the engine's micro-batched
    /// edge transport: a workload generator that produces events faster
    /// than one-at-a-time sends can keep up with uses this to amortize
    /// per-message link overhead.
    pub fn push_batch(&self, payloads: Vec<Value>) -> Vec<EventId> {
        if payloads.is_empty() {
            return Vec::new();
        }
        let timestamp = self.clock.now_micros();
        let events: Vec<Event> = payloads
            .into_iter()
            .map(|payload| {
                let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
                Event {
                    id: EventId::new(self.id, seq),
                    version: 0,
                    timestamp,
                    speculative: false,
                    payload,
                    trace: self.stamp(seq),
                }
            })
            .collect();
        let ids = events.iter().map(|e| e.id).collect();
        let msg = if events.len() == 1 {
            Message::Data(events.into_iter().next().expect("len checked"))
        } else {
            Message::DataBatch(events)
        };
        self.send_blocking(msg);
        ids
    }

    fn push_inner(&self, payload: Value, speculative: bool) -> EventId {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let id = EventId::new(self.id, seq);
        let event = Event {
            id,
            version: 0,
            timestamp: self.clock.now_micros(),
            speculative,
            payload,
            trace: self.stamp(seq),
        };
        self.send_blocking(Message::Data(event));
        id
    }

    /// Replaces a previously pushed speculative event with new content
    /// (bumped version), as when `E1′` becomes `E1″` in §3.1. The revision
    /// carries the same trace context as the original push (same id → same
    /// sampling decision).
    pub fn revise(&self, id: EventId, version: u32, payload: Value) {
        let event = Event {
            id,
            version,
            timestamp: self.clock.now_micros(),
            speculative: true,
            payload,
            trace: self.stamp(id.seq),
        };
        self.send_blocking(Message::Data(event));
    }

    /// Finalizes a previously pushed speculative event.
    pub fn finalize(&self, id: EventId, version: u32) {
        self.send_blocking(Message::Control(Control::Finalize { id, version }));
    }

    /// Revokes a previously pushed speculative event.
    pub fn revoke(&self, id: EventId) {
        self.send_blocking(Message::Control(Control::Revoke { id }));
    }

    /// Signals end of stream.
    pub fn eof(&self) {
        self.send_blocking(Message::Control(Control::Eof));
    }

    /// Number of events pushed so far.
    pub fn pushed(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }
}

/// What a sink recorded about one event id.
#[derive(Debug, Clone)]
pub struct SinkRecord {
    /// Latest content received.
    pub event: Event,
    /// Sink-clock time of the first (possibly speculative) arrival.
    pub first_arrival_us: Timestamp,
    /// Sink-clock time at which the event became final (direct final
    /// arrival or a later finalize), if it did.
    pub final_at_us: Option<Timestamp>,
    /// Number of distinct versions observed.
    pub versions_seen: u32,
}

struct SinkState {
    records: HashMap<EventId, SinkRecord>,
    final_order: Vec<EventId>,
    revoked: Vec<EventId>,
    /// Source-push → first (possibly speculative) arrival latency.
    first_arrival_us: Histogram,
    /// Source-push → final latency (direct final arrival or finalize).
    final_us: Histogram,
    /// Causal tracer for sampled events: first-arrival and final
    /// completion records plus critical-path attribution.
    tracer: Arc<Tracer>,
}

impl SinkState {
    fn new(first_arrival_us: Histogram, final_us: Histogram, tracer: Arc<Tracer>) -> SinkState {
        SinkState {
            records: HashMap::new(),
            final_order: Vec::new(),
            revoked: Vec::new(),
            first_arrival_us,
            final_us,
            tracer,
        }
    }

    /// Records one data arrival (from a lone message or a batch frame).
    fn record_arrival(&mut self, event: Event, now: Timestamp) {
        let id = event.id;
        let is_final = event.is_final();
        let mut fresh = false;
        let entry = self.records.entry(id).or_insert_with(|| {
            fresh = true;
            SinkRecord {
                event: event.clone(),
                first_arrival_us: now,
                final_at_us: None,
                versions_seen: 0,
            }
        });
        if fresh {
            let latency = now.saturating_sub(entry.event.timestamp);
            self.first_arrival_us.record(latency);
            if let Some(ctx) = entry.event.trace {
                self.tracer.sink_first_arrival(ctx.id, ctx.parent, latency);
            }
        }
        // Until final, a copy that differs supersedes the one held: a
        // revision, or a restarted sender's regenerated output at version 0
        // (links are FIFO and a sender only raises an output's version).
        if entry.final_at_us.is_none()
            && (event.version != entry.event.version || event.payload != entry.event.payload)
        {
            if !fresh {
                entry.versions_seen += 1;
            }
            entry.event = event;
        }
        entry.versions_seen = entry.versions_seen.max(1);
        if is_final && entry.final_at_us.is_none() {
            entry.final_at_us = Some(now);
            entry.event.speculative = false;
            let latency = now.saturating_sub(entry.event.timestamp);
            self.final_us.record(latency);
            if let Some(ctx) = entry.event.trace {
                self.tracer.sink_final(ctx.id, ctx.parent, latency);
            }
            self.final_order.push(id);
        }
    }
}

/// How many data/control frames a sink consumes between `Ack`s to its
/// upstream. Acks trim the upstream's replay-retention buffer (the
/// end-to-end credit grant piggybacked on the control link), so the
/// interval bounds retained memory without an ack per frame.
const SINK_ACK_INTERVAL: u64 = 16;

/// Observes a graph edge, recording arrivals and finalizations.
pub struct SinkHandle {
    clock: SharedClock,
    state: Arc<Mutex<SinkState>>,
    cv: Arc<Condvar>,
    eof: Arc<AtomicU64>,
    /// Slow-consumer injection: the collector stops draining its link
    /// until this deadline, holding the link's delivery credits hostage.
    stall_until: Arc<Mutex<Option<std::time::Instant>>>,
    _collector: Option<JoinHandle<()>>,
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let state = self.state.lock();
        f.debug_struct("SinkHandle")
            .field("events", &state.records.len())
            .field("final", &state.final_order.len())
            .finish()
    }
}

impl SinkHandle {
    pub(crate) fn new(
        rx: LinkReceiver<Message>,
        ctrl_tx: LinkSender<Control>,
        clock: SharedClock,
        obs: &Obs,
        from_op: u32,
        edge: u32,
    ) -> Self {
        let labels = Labels::op_port(from_op, edge);
        let state: Arc<Mutex<SinkState>> = Arc::new(Mutex::new(SinkState::new(
            obs.registry.histogram("sink.first_arrival_us", labels),
            obs.registry.histogram("sink.final_us", labels),
            obs.tracer.clone(),
        )));
        let cv = Arc::new(Condvar::new());
        let eof = Arc::new(AtomicU64::new(0));
        let stall_until: Arc<Mutex<Option<std::time::Instant>>> = Arc::new(Mutex::new(None));
        let collector = {
            let state = state.clone();
            let cv = cv.clone();
            let clock = clock.clone();
            let eof = eof.clone();
            let stall_until = stall_until.clone();
            std::thread::Builder::new()
                .name("sink-collector".into())
                .spawn(move || {
                    let mut frames: u64 = 0;
                    loop {
                        // Chaos hook: a stalled sink simply stops calling
                        // recv(), so the upstream link's in-flight credits
                        // stay consumed and the edge saturates.
                        let stall = stall_until.lock().take();
                        if let Some(until) = stall {
                            let now = std::time::Instant::now();
                            if now < until {
                                std::thread::sleep(until - now);
                            }
                        }
                        let Ok((seq, msg)) = rx.recv() else { break };
                        frames += 1;
                        if frames.is_multiple_of(SINK_ACK_INTERVAL) {
                            // Periodic cumulative ack: trims upstream
                            // replay retention (end-to-end credit grant).
                            let _ = ctrl_tx.send(Control::Ack { upto: seq + 1 });
                        }
                        let now = clock.now_micros();
                        let mut s = state.lock();
                        match msg {
                            Message::Data(event) => s.record_arrival(event, now),
                            Message::DataBatch(events) => {
                                for event in events {
                                    s.record_arrival(event, now);
                                }
                            }
                            Message::Control(Control::Finalize { id, version }) => {
                                let st = &mut *s;
                                if let Some(entry) = st.records.get_mut(&id) {
                                    if entry.event.version == version && entry.final_at_us.is_none()
                                    {
                                        entry.final_at_us = Some(now);
                                        entry.event.speculative = false;
                                        let latency = now.saturating_sub(entry.event.timestamp);
                                        st.final_us.record(latency);
                                        if let Some(ctx) = entry.event.trace {
                                            st.tracer.sink_final(ctx.id, ctx.parent, latency);
                                        }
                                        st.final_order.push(id);
                                    }
                                }
                            }
                            Message::Control(Control::Revoke { id }) => {
                                s.records.remove(&id);
                                s.revoked.push(id);
                            }
                            Message::Control(Control::Eof) => {
                                eof.fetch_add(1, Ordering::SeqCst);
                            }
                            Message::Control(_) => {}
                        }
                        drop(s);
                        cv.notify_all();
                    }
                })
                .ok()
        };
        SinkHandle { clock, state, cv, eof, stall_until, _collector: collector }
    }

    /// Stalls the collector for `window` starting at its next loop
    /// iteration: the slow-consumer nemesis. While stalled the sink holds
    /// the link's delivery credits, saturating the upstream edge and
    /// propagating backpressure into the graph. Delivery resumes (with
    /// every message intact) when the window expires.
    pub fn stall_for(&self, window: Duration) {
        *self.stall_until.lock() = Some(std::time::Instant::now() + window);
    }

    /// Number of events that reached final state.
    pub fn final_count(&self) -> usize {
        self.state.lock().final_order.len()
    }

    /// Number of events seen at all (speculative or final).
    pub fn seen_count(&self) -> usize {
        self.state.lock().records.len()
    }

    /// Ids revoked by the upstream.
    pub fn revoked(&self) -> Vec<EventId> {
        self.state.lock().revoked.clone()
    }

    /// Blocks until at least `n` events are final (or the timeout expires);
    /// returns whether the target was reached.
    pub fn wait_final(&self, n: usize, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut s = self.state.lock();
        while s.final_order.len() < n {
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            self.cv.wait_for(&mut s, deadline - now);
        }
        true
    }

    /// The final events in finalization order.
    pub fn final_events(&self) -> Vec<Event> {
        let s = self.state.lock();
        s.final_order.iter().filter_map(|id| s.records.get(id)).map(|r| r.event.clone()).collect()
    }

    /// The final events sorted by id (stable across arrival order), for
    /// output-equivalence assertions in recovery tests.
    pub fn final_events_by_id(&self) -> Vec<Event> {
        let mut events = self.final_events();
        events.sort_by_key(|e| (e.id, e.version));
        events
    }

    /// Latency from event timestamp (source push) to *final* arrival, per
    /// finalized event, in microseconds.
    pub fn final_latencies_us(&self) -> Vec<f64> {
        let s = self.state.lock();
        s.final_order
            .iter()
            .filter_map(|id| s.records.get(id))
            .filter_map(|r| r.final_at_us.map(|f| f.saturating_sub(r.event.timestamp) as f64))
            .collect()
    }

    /// Latency from event timestamp to *first* (speculative or final)
    /// arrival, in microseconds — the "permitted to output speculative
    /// results" scenario at the end of §4.
    pub fn first_arrival_latencies_us(&self) -> Vec<f64> {
        let s = self.state.lock();
        let mut v: Vec<f64> = s
            .records
            .values()
            .map(|r| r.first_arrival_us.saturating_sub(r.event.timestamp) as f64)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        v
    }

    /// All records (diagnostics).
    pub fn records(&self) -> Vec<SinkRecord> {
        self.state.lock().records.values().cloned().collect()
    }

    /// Whether EOF arrived.
    pub fn saw_eof(&self) -> bool {
        self.eof.load(Ordering::SeqCst) > 0
    }

    /// The sink's clock (useful for computing rates).
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_common::clock::{shared, SystemClock};
    use streammine_net::{link, LinkConfig};

    fn setup() -> (SourceHandle, SinkHandle) {
        let clock: SharedClock = shared(SystemClock::new());
        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        let (src_ctrl_tx, src_ctrl_rx) = link::<Control>(LinkConfig::instant());
        let (sink_ctrl_tx, _sink_ctrl_rx) = link::<Control>(LinkConfig::instant());
        let source =
            SourceHandle::new(OperatorId::new(0), data_tx, src_ctrl_rx, clock.clone(), &Obs::new());
        let sink = SinkHandle::new(data_rx, sink_ctrl_tx, clock, &Obs::new(), 0, 0);
        let _ = src_ctrl_tx;
        (source, sink)
    }

    #[test]
    fn final_events_flow_through() {
        let (source, sink) = setup();
        source.push(Value::Int(1));
        source.push(Value::Int(2));
        assert!(sink.wait_final(2, Duration::from_secs(2)));
        let events = sink.final_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].payload, Value::Int(1));
        assert!(!sink.final_latencies_us().is_empty());
    }

    #[test]
    fn batch_push_delivers_every_event_with_shared_timestamp() {
        let (source, sink) = setup();
        let ids = source.push_batch(vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(ids.len(), 3);
        assert_eq!(source.pushed(), 3);
        assert!(sink.wait_final(3, Duration::from_secs(2)));
        let events = sink.final_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].timestamp, events[2].timestamp, "one batch, one push stamp");
        assert_eq!(
            events.iter().map(|e| e.payload.clone()).collect::<Vec<_>>(),
            vec![Value::Int(1), Value::Int(2), Value::Int(3)],
            "batch expansion preserves order"
        );
        assert!(source.push_batch(Vec::new()).is_empty());
    }

    #[test]
    fn speculative_event_finalizes_later() {
        let (source, sink) = setup();
        let id = source.push_speculative(Value::Int(7));
        // Arrives speculative: seen but not final.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while sink.seen_count() < 1 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(sink.seen_count(), 1);
        assert_eq!(sink.final_count(), 0);
        source.finalize(id, 0);
        assert!(sink.wait_final(1, Duration::from_secs(2)));
        assert_eq!(sink.final_events()[0].payload, Value::Int(7));
    }

    #[test]
    fn revision_updates_content_before_finalize() {
        let (source, sink) = setup();
        let id = source.push_speculative(Value::Int(1));
        source.revise(id, 1, Value::Int(2));
        source.finalize(id, 1);
        assert!(sink.wait_final(1, Duration::from_secs(2)));
        let ev = &sink.final_events()[0];
        assert_eq!(ev.payload, Value::Int(2));
        assert_eq!(ev.version, 1);
    }

    #[test]
    fn finalize_of_stale_version_is_ignored() {
        let (source, sink) = setup();
        let id = source.push_speculative(Value::Int(1));
        source.revise(id, 1, Value::Int(2));
        source.finalize(id, 0); // stale
        assert!(!sink.wait_final(1, Duration::from_millis(100)));
        source.finalize(id, 1);
        assert!(sink.wait_final(1, Duration::from_secs(2)));
    }

    #[test]
    fn revoke_removes_event() {
        let (source, sink) = setup();
        let id = source.push_speculative(Value::Int(1));
        source.revoke(id);
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while sink.revoked().is_empty() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(sink.revoked(), vec![id]);
        assert_eq!(sink.seen_count(), 0);
    }

    #[test]
    fn eof_propagates() {
        let (source, sink) = setup();
        source.eof();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while !sink.saw_eof() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(sink.saw_eof());
    }

    #[test]
    fn source_replays_on_request() {
        let clock: SharedClock = shared(SystemClock::new());
        let (data_tx, data_rx) = link::<Message>(LinkConfig::instant());
        let (ctrl_tx, ctrl_rx) = link::<Control>(LinkConfig::instant());
        let source = SourceHandle::new(OperatorId::new(0), data_tx, ctrl_rx, clock, &Obs::new());
        source.push(Value::Int(1));
        source.push(Value::Int(2));
        // Consume both, then ask for replay from 0 like a recovering node.
        let a = data_rx.recv().unwrap();
        let b = data_rx.recv().unwrap();
        assert_eq!(a.0, 0);
        assert_eq!(b.0, 1);
        ctrl_tx.send(Control::ReplayRequest { from: 0, token: 1 }).unwrap();
        let a2 = data_rx.recv().unwrap();
        assert_eq!(a2.0, 0, "replayed with original link sequence");
        assert_eq!(source.pushed(), 2);
    }
}
