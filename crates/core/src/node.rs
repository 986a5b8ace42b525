//! The per-operator runtime (coordinator loop).
//!
//! One [`Node`] drives one operator instance: it merges inputs, assigns
//! serials, runs the processing function (plainly or under STM control),
//! logs determinants, emits speculative or final events, finalizes /
//! revises / revokes them as speculation resolves, checkpoints state, and
//! performs precise recovery after a crash.
//!
//! # The two execution modes (§2.3, §2.4)
//!
//! * **Non-speculative**: events are processed sequentially; outputs are
//!   *held* until the event's decision record is stable on disk, then sent
//!   as final. A speculative input event is parked until its finalize
//!   arrives — a non-speculative operator only consumes and produces final
//!   events.
//! * **Speculative**: each event runs as an STM transaction; outputs are
//!   sent immediately, tagged speculative when anything about them may
//!   still change (speculative inputs, open dependencies, unstable log).
//!   When the transaction commits — inputs final + log stable +
//!   dependencies committed, in timestamp order — `Finalize` control
//!   messages upgrade the outputs downstream. Rollbacks re-execute the
//!   event and re-emit revised outputs under a bumped version.
//!
//! Both modes recover on one rule: a re-executed output below its edge's
//! output-id frontier is already final downstream and is not re-sent.
//!
//! # Emission-ordering protocol (speculative mode)
//!
//! Attempts of one event may finish on different worker threads in any
//! order, while the commit gate runs on yet another thread. Three rules
//! keep the wire consistent:
//!
//! 1. **Generation-ordered diffs** — each attempt's outputs carry the STM
//!    generation; diffs against the `sent` list apply monotonically, so a
//!    straggling old attempt can never resurrect outputs a newer attempt
//!    revised or revoked.
//! 2. **Attempts-in-flight gate** — the commit gate only opens when no
//!    attempt is scheduled or mid-emission, so a commit's finalizes always
//!    follow the last data/revoke of the surviving generation.
//! 3. **Finalize/diff mutual exclusion** — finalizes are sent under the
//!    same `sent` lock the diffs use, with a `finalized` flag checked
//!    inside it: nothing can revise an output after its finalize entered
//!    the wire.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use streammine_common::clock::SharedClock;
use streammine_common::codec::{decode_from_slice, encode_to_vec};
use streammine_common::event::{Event, TraceCtx, Value};
use streammine_common::ids::{EventId, OperatorId};
use streammine_common::pool::ThreadPool;
use streammine_common::rng::DetRng;
use streammine_obs::{
    span_key, Counter, Gauge, Histogram, Journal, JournalKind, Labels, Obs, Tracer,
};
use streammine_sketch::{ErrorBound, ErrorBudget};
use streammine_stm::{Serial, StatsSnapshot, StmAbort, StmRuntime, TxnHandle, TxnId};
use streammine_storage::checkpoint::CheckpointStore;
use streammine_storage::log::{LogSeq, LogTicket, StableLog};

use crate::config::{OperatorConfig, RecoveryMode};
use crate::determinant::{DecisionRecord, Determinant, ReplayCursor};
use crate::message::{Control, Message};
use crate::operator::{OpCtx, Operator, PortId, SetupCtx};
use crate::plumbing::{
    DownEdge, Intake, IntakeHandle, IntakeSender, NodeCommand, ReorderBuffer, UpEdge,
};
use crate::state::{StateAccess, StateRegistry};
use crate::supervisor::{NodeHealth, NodeState, HEARTBEAT_INTERVAL};

/// Low bits of an output id's sequence number that hold the emit index;
/// the input serial sits above them (see [`assign_output_ids`]).
const EMIT_BITS: u32 = 16;

/// Maximum outputs a single `process` call may emit (output event ids pack
/// the emit index into the low bits of the sequence number).
pub const MAX_OUTPUTS_PER_EVENT: u64 = 1 << EMIT_BITS;

/// Size threshold at which a per-edge output buffer flushes as a
/// [`Message::DataBatch`] without waiting for the intake to drain.
pub(crate) const BATCH_MAX_EVENTS: usize = 32;

/// How long an input port may sit on a sequence gap (or an unanswered
/// recovery replay request) before the node re-requests replay from the
/// upstream. Replay requests are fire-and-forget control messages: if the
/// upstream crashes between receiving one and serving it, the request dies
/// with its intake — the retry turns that lost message into a bounded
/// delay instead of a recovery deadlock.
const REPLAY_RETRY: Duration = Duration::from_millis(50);

/// Ceiling on the watchdog's exponential retry backoff: even a badly
/// stalled replay is re-requested at least this often.
const REPLAY_RETRY_CAP: Duration = Duration::from_millis(800);

/// Capped retries a recovery replay request may fire without progress and
/// without held frames before the watchdog disarms it. An upstream that
/// recovered its node at the stream tail legitimately has nothing to
/// replay (a checkpoint ack trimmed its retention): every retry is served
/// with zero frames, `outstanding` never clears through progress, and
/// without this the port retries forever at the cap — so a *second* fault
/// on the same edge minutes later is first detected at 800 ms instead of
/// 50 ms. Any live upstream answers within the ~2.4 s the disarm
/// tolerates; a sequence gap appearing later re-arms detection via the
/// reorder buffer's held frames at the fresh 50 ms interval.
const REPLAY_DISARM_RETRIES: u32 = 2;

/// The current view of a pending event's input (revisions replace it).
#[derive(Clone)]
struct InputView {
    version: u32,
    payload: Value,
    speculative: bool,
}

/// `(generation, outputs, decisions)` captured by one execution attempt.
type AttemptCapture = (u64, Vec<(Option<u32>, Value)>, DecisionRecord);

/// Tracking info for one in-flight speculative event.
struct PendingTxn {
    serial: u64,
    input_id: EventId,
    port: u32,
    input_ts: u64,
    /// When the event entered processing; the commit-gate histogram
    /// measures from here to commit (spec-arrival vs final-commit
    /// decomposition, §4).
    started: Instant,
    /// Rollbacks this event has absorbed so far (its re-execution ordinal,
    /// reported as the journal's cascade depth).
    rollbacks: std::sync::atomic::AtomicU64,
    input: Mutex<InputView>,
    handle: TxnHandle,
    /// `(generation, outputs, decisions)` captured by the latest
    /// successful attempt; the generation orders diff application.
    attempt: Mutex<Option<AttemptCapture>>,
    /// Highest generation whose outputs were applied to `sent` (guarded by
    /// the `sent` mutex's critical sections).
    applied_gen: std::sync::atomic::AtomicU64,
    /// Latest ticket guarding this event's decisions (replaced per attempt).
    log_ticket: Mutex<Option<LogTicket>>,
    /// Events as last sent downstream (by emit index), with their routing.
    sent: Mutex<Vec<(Event, Option<u32>)>>,
    /// True once every sent output is final (txn committed + finalizes sent).
    finalized: AtomicBool,
    /// Number of (re-)execution attempts scheduled but not yet fully
    /// emitted. The commit gate stays closed while this is non-zero:
    /// otherwise a commit's finalize can overtake the attempt's revised
    /// outputs on the wire.
    attempts_pending: std::sync::atomic::AtomicU64,
    /// Causal trace context of the input event, when it was sampled for
    /// tracing. Downstream outputs carry a child context whose parent is
    /// this hop's span.
    trace: Option<TraceCtx>,
}

/// Output held by a non-speculative operator until its log is stable.
struct HeldOutput {
    /// `None`: nothing to wait for — the outputs only queue behind earlier
    /// held ones, so every edge stays fed in serial order.
    ticket: Option<LogTicket>,
    outputs: Vec<(Event, Option<u32>)>,
    /// Trace id of the input event, when sampled for tracing.
    trace: Option<u64>,
}

/// Watches one input port for replay progress: while a recovery replay
/// request is outstanding, or a sequence gap persists, the port re-requests
/// replay after [`REPLAY_RETRY`] without progress — with exponential
/// backoff between retries, so a merely *slow* control lane (tens to
/// hundreds of milliseconds of real socket latency) is given time to
/// deliver the in-flight answer instead of being piled with duplicates.
struct ReplayWatch {
    /// Position of an unanswered recovery replay request (cleared once the
    /// reorder buffer advances past it).
    outstanding: Option<u64>,
    /// The reorder buffer's expected sequence at the last check.
    last_next: u64,
    /// Last time the port made progress (or was re-requested).
    last_progress: Instant,
    /// Current quiet period before the next re-request. Doubles on every
    /// retry up to [`REPLAY_RETRY_CAP`]; resets to [`REPLAY_RETRY`] when
    /// the port makes progress.
    retry_interval: Duration,
    /// Consecutive retries fired at the backoff cap without progress;
    /// feeds the vacuous-request disarm ([`REPLAY_DISARM_RETRIES`]).
    capped_retries: u32,
}

impl ReplayWatch {
    fn new() -> Self {
        ReplayWatch {
            outstanding: None,
            last_next: 0,
            last_progress: Instant::now(),
            retry_interval: REPLAY_RETRY,
            capped_retries: 0,
        }
    }
}

/// Runtime state of approximate recovery
/// ([`RecoveryMode::Approximate`]): the declared bound, the current
/// resume window, and the error-budget gauges.
struct ApproxState {
    /// The declared (ε, δ) accuracy contract.
    bound: ErrorBound,
    /// End of the current resume window: replayed inputs with a serial
    /// below it have all their outputs on the wire and are dropped; their
    /// state updates are the loss the budget charged.
    skip_below: u64,
    /// Updates dropped by the current resume window, not yet permanent:
    /// baked into the store's durable loss counter when the next
    /// checkpoint makes the stale lineage the only lineage. A crash
    /// before that save re-derives a superset window from the same
    /// baseline, so baking earlier would double-charge.
    window_loss: u64,
    /// `recovery.error_budget.lost` — updates lost across all recoveries.
    lost_gauge: Gauge,
    /// `recovery.error_budget.allowed` — current loss allowance (ε·N).
    allowed_gauge: Gauge,
    /// `recovery.error_budget.remaining` — allowance minus realized loss.
    remaining_gauge: Gauge,
    /// `recovery.escalations` — precise cycles forced by budget
    /// exhaustion.
    escalations: Counter,
}

impl ApproxState {
    fn registered(bound: ErrorBound, obs: &Obs, op: u32) -> ApproxState {
        let r = &obs.registry;
        ApproxState {
            bound,
            skip_below: 0,
            window_loss: 0,
            lost_gauge: r.gauge("recovery.error_budget.lost", Labels::op(op)),
            allowed_gauge: r.gauge("recovery.error_budget.allowed", Labels::op(op)),
            remaining_gauge: r.gauge("recovery.error_budget.remaining", Labels::op(op)),
            escalations: r.counter("recovery.escalations", Labels::op(op)),
        }
    }

    /// Refreshes the budget gauges for `delivered` events and `lost`
    /// realized losses.
    fn set_gauges(&self, lost: u64, delivered: u64) {
        let allowed = self.bound.allowed_loss(delivered);
        self.lost_gauge.set(lost as i64);
        self.allowed_gauge.set(allowed as i64);
        self.remaining_gauge.set(allowed.saturating_sub(lost) as i64);
    }
}

/// Why the overload gate closed (see [`Node::overload_reason`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallReason {
    /// A downstream edge is saturated (credit window / sender caps).
    Edge(u32),
    /// Speculation admission control: too many open transactions or
    /// retained speculative outputs.
    SpecCap { open: usize, retained: usize },
}

/// Per-node metric handles, registered once at construction. Bumping one
/// on the hot path is a relaxed atomic op; the registry lock is never
/// taken after registration.
#[derive(Clone)]
struct NodeMetrics {
    /// Events accepted into processing, per input port.
    events_in: Vec<Counter>,
    /// Transactions committed (outputs finalized downstream).
    spec_finalized: Counter,
    /// Rollback + re-execution rounds.
    spec_rollbacks: Counter,
    /// Upstream replay requests sent (recovery + stall retries).
    replay_requests: Counter,
    /// Downstream replay requests served from the link buffer.
    replay_served: Counter,
    /// Time events sat in a port queue before processing.
    queue_wait_us: Histogram,
    /// Operator `process` call duration.
    process_us: Histogram,
    /// Speculative publish → commit time (how long outputs stayed
    /// speculative).
    commit_gate_us: Histogram,
    /// Backpressure / admission-control stall episodes entered.
    backpressure_stalls: Counter,
    /// Duration of finished stall episodes.
    backpressure_stall_us: Histogram,
    /// Times speculation admission control engaged (a cap was hit).
    spec_cap_hits: Counter,
    /// Open speculative transactions right now.
    spec_open: Gauge,
    /// Published-but-unfinalized speculative outputs right now.
    spec_retained: Gauge,
    /// Messages queued on the bounded data intake lane.
    intake_depth: Gauge,
    /// STM runtime counters (`stm.*`, including `stm.fastpath.*`),
    /// refreshed from [`StatsSnapshot::fields`] each tick. Empty on
    /// non-speculative nodes. Same order as `fields()`.
    stm_gauges: Vec<Gauge>,
}

impl NodeMetrics {
    fn registered(obs: &Obs, op: u32, inputs: usize, speculative: bool) -> NodeMetrics {
        let r = &obs.registry;
        NodeMetrics {
            events_in: (0..inputs)
                .map(|p| r.counter("events.in", Labels::op_port(op, p as u32)))
                .collect(),
            spec_finalized: r.counter("spec.finalized", Labels::op(op)),
            spec_rollbacks: r.counter("spec.rollbacks", Labels::op(op)),
            replay_requests: r.counter("replay.requests", Labels::op(op)),
            replay_served: r.counter("replay.served", Labels::op(op)),
            queue_wait_us: r.histogram("stage.queue_wait_us", Labels::op(op)),
            process_us: r.histogram("stage.process_us", Labels::op(op)),
            commit_gate_us: r.histogram("stage.commit_gate_us", Labels::op(op)),
            backpressure_stalls: r.counter("backpressure.stalls", Labels::op(op)),
            backpressure_stall_us: r.histogram("backpressure.stall_us", Labels::op(op)),
            spec_cap_hits: r.counter("spec.cap_hits", Labels::op(op)),
            spec_open: r.gauge("spec.open", Labels::op(op)),
            spec_retained: r.gauge("spec.retained", Labels::op(op)),
            intake_depth: r.gauge("node.intake_depth", Labels::op(op)),
            stm_gauges: if speculative {
                StatsSnapshot::default()
                    .fields()
                    .iter()
                    .map(|(name, _)| r.gauge(name, Labels::op(op)))
                    .collect()
            } else {
                Vec::new()
            },
        }
    }
}

pub(crate) struct NodeSeed {
    pub id: OperatorId,
    pub operator: Arc<dyn Operator>,
    pub config: OperatorConfig,
    pub clock: SharedClock,
    pub intake: IntakeHandle,
    pub up: Vec<UpEdge>,
    pub down: Vec<DownEdge>,
    /// Every input serial below this watermark has all its outputs on the
    /// wire. Survives crashes beside the links (not a process restart).
    pub watermark: Arc<AtomicU64>,
    pub log: Option<StableLog>,
    pub checkpoints: Option<Arc<CheckpointStore>>,
    pub rng_seed: u64,
    /// Shared observability bundle (metrics registry + journal).
    pub obs: Obs,
    /// Crash-surviving health record: the loop beats it, the supervisor
    /// watches it.
    pub health: Arc<NodeHealth>,
    /// True when this node restarts after a crash (triggers replay).
    pub recovering: bool,
    /// Monotonic restart count of this node (0 for the first start).
    /// Stamped into outgoing replay requests as the dedup token and used
    /// by the distributed control plane as the lease epoch.
    pub incarnation: u64,
}

/// The running state of one operator.
pub(crate) struct Node {
    id: OperatorId,
    operator: Arc<dyn Operator>,
    config: OperatorConfig,
    clock: SharedClock,
    intake: IntakeHandle,
    up: Vec<UpEdge>,
    /// Out-edges and decision log, shared with the publishing workers.
    send: Arc<NodeSendView>,
    watermark: Arc<AtomicU64>,
    checkpoints: Option<Arc<CheckpointStore>>,
    registry: Arc<StateRegistry>,
    stm: Option<StmRuntime>,
    pool: Option<Arc<ThreadPool>>,
    rng: Arc<Mutex<DetRng>>,
    health: Arc<NodeHealth>,
    obs: Obs,
    metrics: NodeMetrics,

    reorder: Vec<ReorderBuffer>,
    /// Reusable buffer for messages the reorder buffer releases; drained
    /// immediately after each `offer_into`, kept for its capacity.
    reorder_scratch: Vec<(u64, Message)>,
    /// Per-port replay progress watchdogs (lost-replay-request retry).
    replay_watch: Vec<ReplayWatch>,
    /// Last time periodic maintenance ([`Node::tick`]) ran; checked in the
    /// main loop so a busy node still flushes severed-link queues and
    /// retries replay on schedule.
    last_tick: Instant,
    /// Per-port queues of `(link_seq, event, enqueued_at)` awaiting
    /// processing (replay-order merge; the link seq feeds checkpoint
    /// positions; the enqueue instant feeds the queue-wait histogram).
    port_queues: Vec<VecDeque<(u64, Event, Instant)>>,
    /// Speculative inputs parked by a non-speculative operator.
    parked: HashMap<EventId, (u32, Event)>,
    replay: Option<ReplayCursor>,

    next_serial: u64,
    pending: HashMap<EventId, Arc<PendingTxn>>,
    pending_by_txn: HashMap<TxnId, EventId>,
    /// Ordered: the lowest open serial is the speculative frontier.
    pending_by_serial: BTreeMap<u64, EventId>,
    hold_queue: VecDeque<(u64, HeldOutput)>,
    /// Per-down-edge buffers of final outputs awaiting a batched send
    /// (non-speculative path). Flushed when they reach
    /// [`BATCH_MAX_EVENTS`] or when the intake drains, so batching never
    /// adds latency under low load.
    out_batch: Vec<Vec<Event>>,
    /// Per-input-port frontier: one past the id sequence of the last
    /// consumed event (checkpointed to prime a respawn's edge cursors).
    consumed: Vec<u64>,
    /// Per-down-edge `(token, from)` of the last replay request served
    /// with at least one re-delivered frame. A watchdog retry of the same
    /// request (same token, same position) is dropped instead of resent:
    /// the answer is already in flight on a slow lane. Zero-frame serves
    /// never dedup — deduping one would wedge the peer if its request
    /// raced ahead of the data it asked for.
    served_replays: Vec<Option<(u64, u64)>>,
    /// This node's restart count, stamped into outgoing replay requests.
    incarnation: u64,
    /// Approximate-recovery state (`Some` iff the config declares
    /// [`RecoveryMode::Approximate`]).
    approx: Option<ApproxState>,
    events_since_checkpoint: u64,
    eof_count: usize,
    recovering: bool,
    running: bool,
    crashed: bool,
    /// When the current backpressure / admission-control stall began
    /// (`None`: flowing normally). While set, the coordinator admits
    /// nothing and serves only the control lane (but see
    /// [`Node::pulls_while_stalled`]) — data stays queued on the bounded
    /// intake lane and in `port_queues`, pumps block, and the upstream
    /// saturates in turn.
    stall_since: Option<Instant>,
}

impl Node {
    /// Builds a fresh node (initial start or post-crash restart) and runs
    /// recovery if a checkpoint or log exists.
    pub fn start(seed: NodeSeed) -> std::thread::JoinHandle<()> {
        let health = seed.health.clone();
        let journal = seed.obs.journal.clone();
        std::thread::Builder::new()
            .name(format!("node-{}", seed.id))
            .spawn(move || {
                let id = seed.id;
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                    let mut node = Node::build(seed);
                    node.recover();
                    node.run();
                }));
                if let Err(panic) = result {
                    let msg = panic
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| panic.downcast_ref::<&str>().copied())
                        .unwrap_or("<non-string panic>");
                    journal.warn(
                        Some(id.index()),
                        "coordinator-panic",
                        format!("coordinator panicked: {msg}"),
                    );
                    // A panicked coordinator is a crash the supervisor can
                    // recover from, not a hung process.
                    health.set_state(NodeState::Crashed);
                }
            })
            .expect("spawn node thread")
    }

    fn build(seed: NodeSeed) -> Node {
        let stm = seed.config.speculative.then(|| StmRuntime::with_config(seed.config.stm.clone()));
        let mut registry = match &stm {
            Some(rt) => StateRegistry::speculative(rt.clone()),
            None => StateRegistry::plain(),
        };
        seed.operator.setup(&mut SetupCtx { registry: &mut registry });
        if let Some(rt) = &stm {
            let (abort_tx, abort_rx) = crossbeam_channel::unbounded::<TxnId>();
            let (commit_tx, commit_rx) = crossbeam_channel::unbounded::<TxnId>();
            rt.set_abort_sink(abort_tx);
            rt.set_commit_sink(commit_tx);
            // Forward STM notifications into the intake's control lane.
            // The abort/commit channels themselves are unbounded but
            // intrinsically bounded: at most `max_open_speculations`
            // transactions are in flight (admission control), each with at
            // most one outstanding notification per state change.
            let intake = seed.intake.ctrl_tx.clone();
            std::thread::Builder::new()
                .name(format!("stm-aborts-{}", seed.id))
                .spawn(move || {
                    while let Ok(id) = abort_rx.recv() {
                        if intake.send(Intake::TxnAborted(id)).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn abort pump");
            let intake = seed.intake.ctrl_tx.clone();
            std::thread::Builder::new()
                .name(format!("stm-commits-{}", seed.id))
                .spawn(move || {
                    while let Ok(id) = commit_rx.recv() {
                        if intake.send(Intake::TxnCommitted(id)).is_err() {
                            break;
                        }
                    }
                })
                .expect("spawn commit pump");
        }
        let pool = (seed.config.speculative && seed.config.threads > 1).then(|| {
            Arc::new(ThreadPool::new(&format!("op{}-worker", seed.id.index()), seed.config.threads))
        });
        let inputs = seed.up.len();
        let outputs = seed.down.len();
        let metrics =
            NodeMetrics::registered(&seed.obs, seed.id.index(), inputs, seed.config.speculative);
        let approx = match seed.config.recovery {
            RecoveryMode::Approximate(bound) => {
                Some(ApproxState::registered(bound, &seed.obs, seed.id.index()))
            }
            RecoveryMode::Precise => None,
        };
        let (r, op) = (&seed.obs.registry, seed.id.index());
        let send = Arc::new(NodeSendView {
            id: seed.id,
            down: seed.down,
            log: seed.log,
            intake: seed.intake.ctrl_tx.clone(),
            journal: seed.obs.journal.clone(),
            tracer: seed.obs.tracer.clone(),
            spec_published: r.counter("spec.published", Labels::op(op)),
            resend_suppressed: r.counter("resend.suppressed", Labels::op(op)),
            log_wait_us: r.histogram("stage.log_wait_us", Labels::op(op)),
            batch_events: r.histogram("batch.events", Labels::op(op)),
            suppressed: (0..outputs).map(|_| AtomicU64::new(0)).collect(),
            spec_retained: AtomicI64::new(0),
        });
        Node {
            id: seed.id,
            operator: seed.operator,
            config: seed.config,
            clock: seed.clock,
            intake: seed.intake,
            up: seed.up,
            send,
            watermark: seed.watermark,
            checkpoints: seed.checkpoints,
            registry: Arc::new(registry),
            stm,
            pool,
            rng: Arc::new(Mutex::new(DetRng::seed_from(seed.rng_seed))),
            health: seed.health,
            obs: seed.obs,
            metrics,
            reorder: (0..inputs).map(|_| ReorderBuffer::new(0)).collect(),
            reorder_scratch: Vec::new(),
            replay_watch: (0..inputs).map(|_| ReplayWatch::new()).collect(),
            last_tick: Instant::now(),
            port_queues: (0..inputs).map(|_| VecDeque::new()).collect(),
            parked: HashMap::new(),
            replay: None,
            next_serial: 0,
            pending: HashMap::new(),
            pending_by_txn: HashMap::new(),
            pending_by_serial: BTreeMap::new(),
            hold_queue: VecDeque::new(),
            out_batch: (0..outputs).map(|_| Vec::new()).collect(),
            consumed: vec![0; inputs],
            served_replays: vec![None; outputs],
            incarnation: seed.incarnation,
            approx,
            events_since_checkpoint: 0,
            eof_count: 0,
            recovering: seed.recovering,
            running: true,
            crashed: false,
            stall_since: None,
        }
    }

    // -----------------------------------------------------------------
    // Recovery (§2.2): restore checkpoint, rebuild the determinant
    // cursor from the stable log, ask upstreams to replay.
    // -----------------------------------------------------------------

    fn recover(&mut self) {
        let mut from_positions: Vec<u64> = vec![0; self.up.len()];
        let mut covered_serials: u64 = 0;
        let mut covers_log = LogSeq(0);
        if let Some(store) = &self.checkpoints {
            if let Some(cp) = store.latest() {
                match self.registry.restore(&cp.state) {
                    Ok(()) => {
                        from_positions = cp.input_positions.clone();
                        covered_serials = cp.events_processed;
                        covers_log = cp.covers_log;
                        if cp.input_frontier.len() == self.consumed.len() {
                            self.consumed = cp.input_frontier.clone();
                        }
                        // Restoring the RNG position keeps the random
                        // stream continuous across the crash: re-executed
                        // events that never reached the log draw exactly
                        // the values the failure-free run drew.
                        if !cp.rng_state.is_empty() {
                            if let Ok(rng) = decode_from_slice::<DetRng>(&cp.rng_state) {
                                *self.rng.lock() = rng;
                            }
                        }
                    }
                    Err(e) => {
                        // Degrade instead of dying: recover from the log
                        // and full upstream replay as if no checkpoint
                        // existed.
                        self.obs.journal.warn(
                            Some(self.id.index()),
                            "checkpoint-restore-failed",
                            format!("{e}; falling back to log + full replay"),
                        );
                    }
                }
            }
        }
        self.next_serial = covered_serials;
        for (port, rb) in self.reorder.iter_mut().enumerate() {
            *rb = ReorderBuffer::new(from_positions[port]);
        }
        // Rebuild the determinant cursor from the stable log suffix.
        if let Some(log) = &self.send.log {
            let mut records = Vec::new();
            let mut latest: HashMap<u64, DecisionRecord> = HashMap::new();
            for (seq, group) in log.stable_groups() {
                if seq < covers_log {
                    continue;
                }
                for bytes in group {
                    if let Ok(rec) = decode_from_slice::<DecisionRecord>(&bytes) {
                        if rec.serial >= covered_serials {
                            // Later attempts overwrite earlier ones.
                            latest.insert(rec.serial, rec);
                        }
                    }
                }
            }
            records.extend(latest.into_values());
            if !records.is_empty() {
                self.replay = Some(ReplayCursor::new(records));
            }
        }
        // Ask every upstream for the suffix we have not durably covered.
        // The resilient sender queues the request if the control link is
        // down and retransmits on heal — recovery is delayed, never lost.
        // Precise recovery needs no set-up: re-execution regenerates the
        // same output ids and `NodeSendView::admit` drops those below
        // their edge's frontier.
        if self.recovering {
            self.try_approx_resume(covered_serials);
            for (port, edge) in self.up.iter().enumerate() {
                edge.ctrl_tx.send(Control::ReplayRequest {
                    from: from_positions[port],
                    token: self.incarnation,
                });
                self.metrics.replay_requests.incr();
                self.obs.journal.record(
                    Some(self.id.index()),
                    JournalKind::ReplayRequest { port: port as u32, from: from_positions[port] },
                );
                // Watch the port until the replay actually lands: the
                // request can be lost if the upstream crashes before
                // serving it, and then only a retry unwedges recovery.
                self.replay_watch[port] = ReplayWatch {
                    outstanding: Some(from_positions[port]),
                    last_next: from_positions[port],
                    last_progress: Instant::now(),
                    retry_interval: REPLAY_RETRY,
                    capped_retries: 0,
                };
            }
        }
    }

    /// Attempts a stale-snapshot resume under the approximate recovery
    /// budget; `covered_serials` is the checkpoint's input position.
    ///
    /// The window ends at the watermark, or at the smallest serial among
    /// the edge frontiers if that is higher — the only bound a respawned
    /// worker process has (edges are fed in serial order, so inputs below
    /// it are complete on every edge). The node drops the window instead
    /// of re-executing it, charging one lost update per input; the rest
    /// re-executes under the output-id rule. When baked loss plus the
    /// window would exceed the ε·N allowance it escalates instead: the
    /// whole suffix re-executes, as in precise mode.
    fn try_approx_resume(&mut self, covered_serials: u64) {
        let Some(approx) = &mut self.approx else { return };
        let Some(store) = &self.checkpoints else { return };
        let edges_done = self
            .send
            .down
            .iter()
            .map(|e| e.frontier.load(Ordering::Acquire) >> EMIT_BITS)
            .min()
            .unwrap_or(0);
        let skip_below = self.watermark.load(Ordering::Acquire).max(edges_done);
        let skip = skip_below.saturating_sub(covered_serials);
        let baked = store.approx_loss();
        let delivered = covered_serials + skip;
        let mut budget = ErrorBudget { bound: approx.bound, lost: baked, escalations: 0 };
        if budget.admit(skip, delivered) {
            approx.skip_below = skip_below;
            // The whole window is provisional: a crash before the next
            // save re-derives a superset window from the same baseline.
            approx.window_loss = skip;
            let remaining = budget.remaining(delivered);
            approx.set_gauges(baked + skip, delivered);
            self.obs.journal.record(
                Some(self.id.index()),
                JournalKind::ApproxResume { skipped: skip, lost: baked + skip, remaining },
            );
        } else {
            store.note_escalation();
            approx.escalations.incr();
            approx.set_gauges(baked, delivered);
            self.obs.journal.record(
                Some(self.id.index()),
                JournalKind::ApproxEscalate {
                    lost: baked + skip,
                    allowed: approx.bound.allowed_loss(delivered),
                },
            );
        }
    }

    // -----------------------------------------------------------------
    // Main loop
    // -----------------------------------------------------------------

    fn run(&mut self) {
        while self.running {
            // While stalled, only the control lane is served (but see
            // `pulls_while_stalled`): data stays queued on the bounded
            // intake lane, so its pumps block and the upstream link's
            // credit window stays consumed — backpressure propagates hop
            // by hop. Control keeps flowing, so the node still serves
            // downstream replay requests and receives the acks, commits
            // and log-stability callbacks that end the stall.
            let accept_data = self.stall_since.is_none() || self.pulls_while_stalled();
            // Adaptive flush: buffered outputs only hit the wire when the
            // intake has drained (about to block) or a buffer reached the
            // size threshold. Under low load the intake is empty after
            // every event, so each output flushes immediately as a plain
            // `Data` message and latency is unchanged; under backlog the
            // buffers fill toward `BATCH_MAX_EVENTS`-sized frames.
            let intake = match self.intake.try_recv(accept_data) {
                Ok(i) => i,
                Err(crossbeam_channel::TryRecvError::Empty) => {
                    self.flush_out_batches();
                    // Block with a bounded timeout so an idle node still
                    // beats its heartbeat and retries buffered sends on
                    // severed-then-healed links.
                    match self.intake.recv_timeout(HEARTBEAT_INTERVAL, accept_data) {
                        Ok(i) => i,
                        Err(crossbeam_channel::RecvTimeoutError::Timeout) => {
                            self.tick();
                            // A stall can end without any intake message
                            // (the consumer draining the link frees
                            // credits silently); re-check here so queued
                            // work resumes within one heartbeat.
                            self.drain_ready_events();
                            continue;
                        }
                        Err(crossbeam_channel::RecvTimeoutError::Disconnected) => break,
                    }
                }
                Err(crossbeam_channel::TryRecvError::Disconnected) => break,
            };
            self.health.beat();
            self.handle_intake(intake);
            self.drain_ready_events();
            // A node under steady load never hits the idle timeout above,
            // but severed-link queues and stalled replays still need
            // periodic service.
            if self.last_tick.elapsed() >= HEARTBEAT_INTERVAL {
                self.tick();
            }
        }
        if !self.crashed {
            // A clean stop drains buffered outputs; a simulated crash
            // loses them with the rest of volatile state (recovery
            // re-derives them from replay).
            self.flush_out_batches();
            self.tick();
        }
        self.operator.terminate();
        if let Some(pool) = self.pool.take() {
            if let Ok(pool) = Arc::try_unwrap(pool) {
                pool.shutdown();
            }
        }
        self.health.set_state(if self.crashed { NodeState::Crashed } else { NodeState::CleanExit });
    }

    /// Periodic idle work: heartbeat plus retransmission of messages
    /// queued behind severed links (respecting each sender's backoff).
    fn tick(&mut self) {
        self.last_tick = Instant::now();
        self.health.beat();
        for edge in &self.send.down {
            edge.data_tx.flush();
        }
        for edge in &self.up {
            edge.ctrl_tx.flush();
        }
        self.retry_stalled_replay();
        self.metrics.intake_depth.set(self.intake.data_depth() as i64);
        self.metrics.spec_open.set(self.pending.len() as i64);
        self.metrics.spec_retained.set(self.send.spec_retained.load(Ordering::Relaxed).max(0));
        if let Some(stm) = &self.stm {
            let fields = stm.stats().fields();
            for ((_, value), gauge) in fields.iter().zip(&self.metrics.stm_gauges) {
                gauge.set(*value as i64);
            }
        }
    }

    // -----------------------------------------------------------------
    // Overload control: credit-backed backpressure + speculation
    // admission (bounded optimism).
    // -----------------------------------------------------------------

    /// Why the node must stop pulling new data events, if it must.
    fn overload_reason(&self) -> Option<StallReason> {
        // Outputs already produced but held for log stability will land on
        // every downstream sender once their records turn stable; counting
        // them against the cap keeps the pending queue bounded by
        // `pending_cap` + one event's outputs, instead of overshooting by
        // everything admitted inside a stability window. (Event count is
        // conservative: micro-batching can coalesce them into fewer
        // frames, never more.)
        let held: usize = self.hold_queue.iter().map(|(_, h)| h.outputs.len()).sum();
        for (out, edge) in self.send.down.iter().enumerate() {
            if edge.data_tx.is_saturated_with(held) {
                return Some(StallReason::Edge(out as u32));
            }
        }
        if self.config.speculative {
            let open = self.pending.len();
            let retained = self.send.spec_retained.load(Ordering::Relaxed).max(0) as usize;
            if open >= self.config.node.max_open_speculations
                || retained >= self.config.node.max_retained_spec_outputs
            {
                return Some(StallReason::SpecCap { open, retained });
            }
        }
        None
    }

    /// Evaluates the overload gate, entering or ending a stall episode.
    /// Returns `true` while the node must not pull data. Control-plane
    /// work (replay serving, acks, commits, log callbacks) is never
    /// gated — that asymmetry is what makes the credit protocol
    /// deadlock-free: a stalled consumer still grants credits and replay.
    fn check_overload(&mut self) -> bool {
        match self.overload_reason() {
            Some(reason) => {
                self.enter_stall(reason);
                true
            }
            None => {
                self.exit_stall();
                false
            }
        }
    }

    /// Whether a stalled node still pulls upstream messages into its port
    /// queues: under the speculation cap, while they hold fewer events than
    /// the intake lane. Open inputs' finalizes travel behind data.
    fn pulls_while_stalled(&self) -> bool {
        matches!(self.overload_reason(), Some(StallReason::SpecCap { .. }))
            && self.port_queues.iter().map(VecDeque::len).sum::<usize>()
                < self.config.node.intake_capacity
    }

    fn enter_stall(&mut self, reason: StallReason) {
        if self.stall_since.is_some() {
            return; // already inside an episode
        }
        self.stall_since = Some(Instant::now());
        self.metrics.backpressure_stalls.incr();
        match reason {
            StallReason::Edge(edge) => {
                self.obs
                    .journal
                    .record(Some(self.id.index()), JournalKind::BackpressureStall { edge });
            }
            StallReason::SpecCap { open, retained } => {
                self.metrics.spec_cap_hits.incr();
                self.obs.journal.record(
                    Some(self.id.index()),
                    JournalKind::SpecCapHit { open: open as u32, retained: retained as u64 },
                );
            }
        }
    }

    fn exit_stall(&mut self) {
        let Some(since) = self.stall_since.take() else { return };
        let stalled = since.elapsed();
        self.metrics.backpressure_stall_us.record_duration(stalled);
        self.obs.journal.record(
            Some(self.id.index()),
            JournalKind::BackpressureResume { stall_us: stalled.as_micros() as u64 },
        );
        self.obs.tracer.record_backpressure(self.id.index(), stalled.as_micros() as u64);
    }

    /// Re-requests upstream replay for any input port that is stuck: either
    /// a recovery replay request went unanswered, or live traffic is parked
    /// behind a sequence gap that nothing is filling. Replay is idempotent
    /// (the reorder buffer drops duplicates), so a spurious retry costs
    /// bandwidth, never correctness.
    fn retry_stalled_replay(&mut self) {
        let now = Instant::now();
        for (port, watch) in self.replay_watch.iter_mut().enumerate() {
            let next = self.reorder[port].next_seq();
            if next != watch.last_next {
                watch.last_next = next;
                watch.last_progress = now;
                watch.retry_interval = REPLAY_RETRY;
                watch.capped_retries = 0;
                if watch.outstanding.is_some_and(|from| next > from) {
                    watch.outstanding = None;
                }
                continue;
            }
            let stuck = watch.outstanding.is_some() || self.reorder[port].has_held();
            if stuck && now.duration_since(watch.last_progress) >= watch.retry_interval {
                // Vacuous-request disarm: a recovery request that survived
                // the whole backoff ramp plus capped retries, with nothing
                // held behind a gap, is asking for data nobody retains —
                // recovery happened at the stream tail. Stand down so the
                // next fault on this edge is detected at the fresh 50 ms
                // interval, not the 800 ms cap.
                if watch.outstanding.is_some()
                    && !self.reorder[port].has_held()
                    && watch.capped_retries >= REPLAY_DISARM_RETRIES
                {
                    watch.outstanding = None;
                    watch.retry_interval = REPLAY_RETRY;
                    watch.capped_retries = 0;
                    self.obs.journal.warn(
                        Some(self.id.index()),
                        "replay-watch-disarmed",
                        format!(
                            "port {port}: recovery replay from {next} unanswered and \
                                 unanswerable; backoff reset"
                        ),
                    );
                    continue;
                }
                self.up[port]
                    .ctrl_tx
                    .send(Control::ReplayRequest { from: next, token: self.incarnation });
                self.metrics.replay_requests.incr();
                self.obs.journal.record(
                    Some(self.id.index()),
                    JournalKind::ReplayRequest { port: port as u32, from: next },
                );
                watch.last_progress = now;
                if watch.retry_interval >= REPLAY_RETRY_CAP {
                    watch.capped_retries += 1;
                }
                // Back off: over a real socket the previous answer may
                // simply still be in flight. Without this, a 500 ms lane
                // collects ten duplicate requests per lost one.
                watch.retry_interval = (watch.retry_interval * 2).min(REPLAY_RETRY_CAP);
            }
        }
    }

    fn handle_intake(&mut self, intake: Intake) {
        match intake {
            Intake::Upstream { port, link_seq, msg } => {
                // Reusable deliverable buffer: taken out of `self` so
                // `handle_upstream` can borrow the node mutably while we
                // drain it, then put back with its capacity intact.
                let mut deliverable = std::mem::take(&mut self.reorder_scratch);
                self.reorder[port as usize].offer_into(link_seq, msg, &mut deliverable);
                for (seq, msg) in deliverable.drain(..) {
                    self.handle_upstream(port, seq, msg);
                }
                self.reorder_scratch = deliverable;
            }
            Intake::Downstream { out, ctrl } => self.handle_downstream(out, ctrl),
            Intake::TxnCommitted(txn) => self.on_txn_committed(txn),
            Intake::TxnAborted(txn) => self.on_txn_aborted(txn),
            Intake::LogStable { serial } => self.on_log_stable(serial),
            Intake::Command(NodeCommand::Shutdown) => {
                self.running = false;
            }
            Intake::Command(NodeCommand::Crash) => {
                // Simulated crash: just stop; all volatile state dies with
                // this object. Links, log and checkpoints survive outside.
                self.running = false;
                self.crashed = true;
            }
        }
    }

    fn handle_upstream(&mut self, port: u32, link_seq: u64, msg: Message) {
        match msg {
            Message::Data(event) => {
                self.port_queues[port as usize].push_back((link_seq, event, Instant::now()));
            }
            Message::DataBatch(events) => {
                // Expand the batch in place: every event shares the
                // frame's link sequence, so replay positions stay at
                // whole-batch boundaries.
                let now = Instant::now();
                let queue = &mut self.port_queues[port as usize];
                for event in events {
                    queue.push_back((link_seq, event, now));
                }
            }
            Message::Control(Control::Finalize { id, version }) => {
                self.on_input_finalized(port, id, version)
            }
            Message::Control(Control::Revoke { id }) => self.on_input_revoked(port, id),
            Message::Control(Control::Eof) => {
                self.eof_count += 1;
                if self.eof_count >= self.up.len() {
                    // Buffered data must precede EOF on the wire.
                    self.flush_out_batches();
                    for edge in &self.send.down {
                        let _ = edge.data_tx.send(Message::Control(Control::Eof));
                    }
                }
            }
            Message::Control(other) => {
                debug_assert!(false, "unexpected upstream control {other}");
            }
        }
    }

    fn handle_downstream(&mut self, out: u32, ctrl: Control) {
        match ctrl {
            Control::Ack { upto } => self.send.down[out as usize].data_tx.ack_upto(upto),
            Control::ReplayRequest { from, token } => {
                // Same incarnation asking for the same position again is
                // the watchdog retrying over a slow lane: the first serve
                // already put the frames in flight, so a second serve
                // would deliver every one of them twice. Only a serve
                // that actually re-sent frames dedups — an empty serve
                // means the data wasn't retained-behind yet, and the
                // retry must stay answerable.
                if self.served_replays[out as usize] == Some((token, from)) {
                    return;
                }
                self.metrics.replay_served.incr();
                self.obs
                    .journal
                    .record(Some(self.id.index()), JournalKind::ReplayServe { edge: out, from });
                let sent = self.send.down[out as usize].data_tx.replay_from(from);
                if sent > 0 {
                    self.served_replays[out as usize] = Some((token, from));
                }
            }
            other => debug_assert!(false, "unexpected downstream control {other}"),
        }
    }

    /// Pulls queued events into processing: during replay, in the logged
    /// order; live, in arrival order.
    fn drain_ready_events(&mut self) {
        loop {
            // Overload gate first: while a downstream edge is saturated or
            // a speculation cap is hit, admit nothing — queued events wait
            // in `port_queues` and on the bounded intake lane, and the
            // node paces itself by downstream drain / log stability
            // instead of speculating further (it never aborts admitted
            // work). Applies to replay identically: replayed input obeys
            // the same credit window as live input.
            if self.check_overload() {
                return;
            }
            // Replay phase: the next event must come from the logged port.
            if let Some(cursor) = &self.replay {
                if cursor.is_done() {
                    self.replay = None;
                    continue;
                }
                let front_serial = cursor.next_serial().expect("cursor nonempty");
                if front_serial != self.next_serial {
                    // The event at next_serial consumed no determinants
                    // (fully deterministic): reprocess it live. Without a
                    // logged input choice this is only unambiguous for
                    // single-input operators — multi-input operators must
                    // enable logging for precise recovery.
                    match (0..self.port_queues.len()).find(|&p| !self.port_queues[p].is_empty()) {
                        Some(p) => {
                            let (_seq, event, enq) =
                                self.port_queues[p].pop_front().expect("nonempty");
                            let queue_wait = enq.elapsed();
                            self.metrics.queue_wait_us.record_duration(queue_wait);
                            self.accept_event(p as u32, event, None, queue_wait);
                            continue;
                        }
                        None => return,
                    }
                }
                // Find the logged input-choice; default port 0.
                let record_port =
                    self.replay.as_ref().and_then(ReplayCursor::peek_input_choice).unwrap_or(0);
                if let Some((_seq, event, enq)) = self.port_queues[record_port as usize].pop_front()
                {
                    let queue_wait = enq.elapsed();
                    self.metrics.queue_wait_us.record_duration(queue_wait);
                    let record = self.replay.as_mut().expect("replaying").take(front_serial);
                    self.accept_event(record_port, event, Some(record), queue_wait);
                    continue;
                }
                return; // wait for the replayed event to arrive
            }
            // Live phase: take from any non-empty queue, lowest port first
            // (the *choice* is logged, so any policy is legal; port order
            // keeps tests deterministic).
            let port = match (0..self.port_queues.len()).find(|&p| !self.port_queues[p].is_empty())
            {
                Some(p) => p,
                None => return,
            };
            let (_seq, event, enq) = self.port_queues[port].pop_front().expect("nonempty");
            let queue_wait = enq.elapsed();
            self.metrics.queue_wait_us.record_duration(queue_wait);
            self.accept_event(port as u32, event, None, queue_wait);
        }
    }

    /// Routes one data event into processing: a copy of an open input
    /// that differs from it supersedes it, and a non-speculative operator
    /// parks a speculative one.
    fn accept_event(
        &mut self,
        port: u32,
        event: Event,
        replayed: Option<DecisionRecord>,
        queue_wait: Duration,
    ) {
        if let Some(c) = self.metrics.events_in.get(port as usize) {
            c.incr();
        }
        // A copy of an open input. Links are FIFO and a sender only raises
        // an output's version, so a copy that differs is the newer one: a
        // revision, or a restarted sender's regenerated output, which
        // starts again at version 0 and is finalized at that version.
        if let Some(pending) = self.pending.get(&event.id).cloned() {
            let mut view = pending.input.lock();
            if view.payload != event.payload {
                drop(view);
                self.revise_pending(&pending, event);
                return;
            }
            view.version = event.version;
            if view.speculative && !event.speculative {
                view.speculative = false;
                drop(view);
                maybe_authorize_pending(&pending);
            }
            return;
        }
        if !self.config.speculative {
            if event.speculative {
                // A non-speculative operator only consumes final events.
                self.parked.insert(event.id, (port, event));
                return;
            }
            // A final version supersedes a parked older one.
            if !self.parked.is_empty() {
                self.parked.remove(&event.id);
            }
            self.process_nonspec(port, event, replayed, queue_wait);
        } else {
            self.process_spec(port, event, replayed, queue_wait);
        }
    }

    /// Assigns the next serial to an input taken from `port`, opening its
    /// trace span and journaling the ingest.
    fn begin_input(&mut self, port: u32, trace: Option<TraceCtx>, queue_wait: Duration) -> u64 {
        let serial = self.next_serial;
        self.next_serial += 1;
        if let Some(ctx) = trace {
            self.obs.tracer.begin_span(
                ctx.id,
                ctx.parent,
                self.id.index(),
                serial,
                queue_wait.as_micros() as u64,
            );
        }
        self.obs.journal.record_traced(
            Some(self.id.index()),
            trace.map(|c| c.id),
            JournalKind::Ingest { serial, port },
        );
        serial
    }

    // -----------------------------------------------------------------
    // Non-speculative path
    // -----------------------------------------------------------------

    fn process_nonspec(
        &mut self,
        port: u32,
        event: Event,
        replayed: Option<DecisionRecord>,
        queue_wait: Duration,
    ) {
        if self.approx.as_ref().is_some_and(|a| self.next_serial < a.skip_below) {
            // Approximate resume window: consume the serial without running
            // the operator, so later output ids stay aligned with the
            // fault-free run. The window is a prefix of the replay and
            // skips `maybe_checkpoint`, so no save lands inside it.
            self.next_serial += 1;
            self.note_event_consumed(port, event.id);
            return;
        }
        let serial = self.begin_input(port, event.trace, queue_wait);
        let trace_id = event.trace.map(|c| c.id);
        let replaying = replayed.is_some();
        let mut decisions = DecisionRecord::new(serial);
        if self.up.len() > 1 {
            decisions.decisions.push(Determinant::InputChoice(port));
        }
        let mut ctx = OpCtx {
            registry: &self.registry,
            access: StateAccess::Plain,
            outputs: Vec::new(),
            decisions,
            replay: replayed.map(DecisionRecord::into_replay),
            rng: &self.rng,
            clock: &self.clock,
            input_port: PortId(port),
            input_ts: event.timestamp,
        };
        let process_start = Instant::now();
        let process_result = self.operator.process(&mut ctx, &event);
        let process_took = process_start.elapsed();
        self.metrics.process_us.record_duration(process_took);
        if event.trace.is_some() {
            self.obs.tracer.record_process(
                self.id.index(),
                serial,
                process_took.as_micros() as u64,
            );
        }
        if process_result.is_err() {
            // StmAbort cannot legitimately occur outside speculative mode;
            // treat it as an operator bug and drop the event's outputs
            // rather than killing the coordinator.
            self.obs.journal.warn(
                Some(self.id.index()),
                "plain-mode-abort",
                format!("process aborted on {}; outputs dropped", event.id),
            );
        }
        let child = event.trace.map(|c| c.child(span_key(self.id.index(), serial)));
        let outputs =
            assign_output_ids(self.id, serial, event.timestamp, &ctx.outputs, false, child);
        let decisions = std::mem::take(&mut ctx.decisions);
        drop(ctx);

        self.note_event_consumed(port, event.id);

        // Hold outputs until the decision record is stable (§2.4).
        // Approximate mode trades the determinant log for the error
        // budget: bound-covered state never needs deterministic
        // re-execution (a budget refusal escalates to full replay, which
        // re-derives determinants live off the checkpointed RNG), so the
        // per-event stable-log wait disappears from the hot path.
        let ticket = if replaying || self.approx.is_some() {
            None
        } else {
            self.send.log_decisions(&decisions, event.trace.is_some())
        };
        if ticket.is_some() || !self.hold_queue.is_empty() {
            // Outputs wait for their own record, or queue behind earlier
            // held ones: the output-id frontier needs every edge fed in
            // serial order.
            self.hold_queue.push_back((serial, HeldOutput { ticket, outputs, trace: trace_id }));
        } else {
            // Deterministic (nothing logged) or replaying (decisions
            // already stable): forward immediately.
            if event.trace.is_some() {
                self.obs.tracer.record_commit(self.id.index(), serial, 0);
            }
            self.send_outputs_final(outputs);
        }
        self.maybe_checkpoint();
    }

    fn on_log_stable(&mut self, serial: u64) {
        let trace_id = self
            .pending_by_serial
            .get(&serial)
            .and_then(|id| self.pending.get(id))
            .and_then(|p| p.trace.map(|c| c.id))
            .or_else(|| {
                self.hold_queue.iter().find(|(s, _)| *s == serial).and_then(|(_, h)| h.trace)
            });
        self.obs.journal.record_traced(
            Some(self.id.index()),
            trace_id,
            JournalKind::LogStable { serial },
        );
        // Non-speculative mode: flush the stable prefix in serial order
        // (keeps FIFO downstream).
        while let Some((_s, held)) = self.hold_queue.front() {
            if !held.ticket.as_ref().is_none_or(LogTicket::is_stable) {
                break;
            }
            let (s, held) = self.hold_queue.pop_front().expect("nonempty");
            if held.trace.is_some() {
                // A held output turning loose is the non-speculative commit
                // point: log stable, outputs final downstream.
                self.obs.tracer.record_commit(self.id.index(), s, 0);
            }
            self.send_outputs_final(held.outputs);
        }
        // Speculative mode: a stable log is one leg of the commit gate.
        if let Some(id) = self.pending_by_serial.get(&serial).cloned() {
            if let Some(pending) = self.pending.get(&id) {
                maybe_authorize_pending(pending);
            }
        }
        // A drained hold queue may unblock a deferred checkpoint.
        self.maybe_checkpoint();
    }

    /// Stages one input's final outputs for sending. Events
    /// accumulate in per-edge buffers (payloads are shared via their
    /// `Arc`, not deep-copied) and go out as one `DataBatch` frame when a
    /// buffer reaches [`BATCH_MAX_EVENTS`] or the coordinator runs out of
    /// intake work. Re-executed copies of outputs already on the wire are
    /// dropped (see [`NodeSendView::admit`]).
    fn send_outputs_final(&mut self, outputs: Vec<(Event, Option<u32>)>) {
        for (event, target) in outputs {
            for out in 0..self.send.down.len() {
                if !routed_to(target, out) || !self.send.admit(out, event.id) {
                    continue;
                }
                self.out_batch[out].push(event.clone());
                if self.out_batch[out].len() >= BATCH_MAX_EVENTS {
                    self.flush_edge(out);
                }
            }
        }
        self.advance_watermark();
    }

    /// Moves the watermark up to the first input whose outputs are still
    /// held (or not yet produced) once every edge buffer is empty — only
    /// at input boundaries, so a batch-full flush in the middle of one
    /// input's fan-out never advances it. Speculative outputs leave from
    /// worker threads and never count.
    fn advance_watermark(&self) {
        if !self.config.speculative && self.out_batch.iter().all(Vec::is_empty) {
            let held = self.hold_queue.front().map_or(self.next_serial, |(s, _)| *s);
            self.watermark.fetch_max(held, Ordering::AcqRel);
        }
    }

    /// Sends edge `out`'s buffered outputs (see [`flush_run`]) and moves
    /// the edge's frontier past them.
    fn flush_edge(&mut self, out: usize) {
        let Some(last) = self.out_batch[out].last().map(|e| e.id.seq) else { return };
        flush_run(&self.send.down[out].data_tx, &mut self.out_batch[out], &self.send.batch_events);
        self.send.down[out].frontier.fetch_max(last + 1, Ordering::AcqRel);
    }

    fn flush_out_batches(&mut self) {
        for out in 0..self.send.down.len() {
            self.flush_edge(out);
        }
        self.advance_watermark();
    }

    // -----------------------------------------------------------------
    // Speculative path
    // -----------------------------------------------------------------

    fn process_spec(
        &mut self,
        port: u32,
        event: Event,
        replayed: Option<DecisionRecord>,
        queue_wait: Duration,
    ) {
        let serial = self.begin_input(port, event.trace, queue_wait);
        let stm = self.stm.as_ref().expect("speculative node has an stm");
        let handle = stm.begin(Serial(serial));
        let pending = Arc::new(PendingTxn {
            serial,
            input_id: event.id,
            port,
            input_ts: event.timestamp,
            started: Instant::now(),
            rollbacks: std::sync::atomic::AtomicU64::new(0),
            input: Mutex::new(InputView {
                version: event.version,
                payload: event.payload.clone(),
                speculative: event.speculative,
            }),
            handle: handle.clone(),
            attempt: Mutex::new(None),
            applied_gen: std::sync::atomic::AtomicU64::new(0),
            log_ticket: Mutex::new(None),
            sent: Mutex::new(Vec::new()),
            finalized: AtomicBool::new(false),
            attempts_pending: std::sync::atomic::AtomicU64::new(0),
            trace: event.trace,
        });
        self.pending.insert(event.id, pending.clone());
        self.pending_by_txn.insert(handle.id(), event.id);
        self.pending_by_serial.insert(serial, event.id);
        self.note_event_consumed(port, event.id);
        self.spawn_attempt(pending, replayed);
    }

    /// Runs (or re-runs) the processing transaction for `pending`.
    fn spawn_attempt(&self, pending: Arc<PendingTxn>, replayed: Option<DecisionRecord>) {
        pending.attempts_pending.fetch_add(1, Ordering::SeqCst);
        let stm = self.stm.as_ref().expect("speculative node").clone();
        let operator = self.operator.clone();
        let registry = self.registry.clone();
        let rng = self.rng.clone();
        let clock = self.clock.clone();
        let multi_input = self.up.len() > 1;
        let process_us = self.metrics.process_us.clone();
        let attempt_tracer = pending.trace.is_some().then(|| self.obs.tracer.clone());
        let op_index = self.id.index();
        let job = {
            let pending = pending.clone();
            move || {
                let mut replay_queue = replayed.map(DecisionRecord::into_replay);
                let body = |txn: &mut streammine_stm::Txn<'_>| -> Result<(), StmAbort> {
                    let view = pending.input.lock().clone();
                    let event = Event {
                        id: pending.input_id,
                        version: view.version,
                        timestamp: pending.input_ts,
                        speculative: view.speculative,
                        payload: view.payload,
                        trace: pending.trace,
                    };
                    let replaying_now = replay_queue.is_some();
                    let generation = txn.generation();
                    let mut decisions = DecisionRecord::new(pending.serial);
                    // The engine's merge choice is a logged determinant for
                    // multi-input operators (§1's union-order rule) — except
                    // during replay, where it is already on disk.
                    if multi_input && !replaying_now {
                        decisions.decisions.push(Determinant::InputChoice(pending.port));
                    }
                    let mut ctx = OpCtx {
                        registry: &registry,
                        access: StateAccess::Txn(txn),
                        outputs: Vec::new(),
                        decisions,
                        replay: replay_queue.take(),
                        rng: &rng,
                        clock: &clock,
                        input_port: PortId(pending.port),
                        input_ts: pending.input_ts,
                    };
                    let process_start = Instant::now();
                    let process_result = operator.process(&mut ctx, &event);
                    let process_took = process_start.elapsed();
                    process_us.record_duration(process_took);
                    if let Some(tracer) = &attempt_tracer {
                        tracer.record_process(
                            op_index,
                            pending.serial,
                            process_took.as_micros() as u64,
                        );
                    }
                    process_result?;
                    // Live draws re-draw on retry; the final attempt's
                    // record is what gets logged and later replayed. The
                    // generation tag orders diff application across
                    // concurrently finishing attempts.
                    *pending.attempt.lock() = Some((generation, ctx.outputs, ctx.decisions));
                    Ok(())
                };
                stm.reexecute(&pending.handle, body)
            }
        };
        // The attempt publishes its outputs straight from the worker.
        let send = self.send.clone();
        let run = move || {
            if job().is_ok() {
                send.after_publish(&pending);
            }
            // Only after the attempt's outputs are fully on the wire may
            // the commit gate re-open.
            pending.attempts_pending.fetch_sub(1, Ordering::SeqCst);
            maybe_authorize_pending(&pending);
        };
        match &self.pool {
            Some(pool) => pool.execute(run),
            None => run(),
        }
    }

    fn revise_pending(&mut self, pending: &Arc<PendingTxn>, event: Event) {
        // The input was replaced by a newer speculative version (§3.1,
        // E1′ → E1″): revoke and re-execute with the new content.
        {
            let mut view = pending.input.lock();
            view.version = event.version;
            view.payload = event.payload;
            view.speculative = event.speculative;
        }
        pending.handle.revoke();
        self.spawn_attempt(pending.clone(), None);
    }

    /// An upstream `Finalize`: the named version of input `id` is final,
    /// whether it is parked, open or still queued on `port`.
    fn on_input_finalized(&mut self, port: u32, id: EventId, version: u32) {
        if self.parked.get(&id).is_some_and(|(_, e)| e.version == version) {
            // Non-speculative operator: the parked event is now final.
            let (port, mut event) = self.parked.remove(&id).expect("parked");
            event.speculative = false;
            self.accept_event(port, event, None, Duration::ZERO);
            return;
        }
        if let Some(pending) = self.pending.get(&id) {
            let mut view = pending.input.lock();
            if view.version == version {
                view.speculative = false;
                drop(view);
                maybe_authorize_pending(pending);
                return;
            }
        }
        // The event, or the revision the finalize names, is still queued.
        self.settle_queued(port, id, Some(version));
    }

    /// An upstream `Revoke`: input `id` is withdrawn wherever it is held,
    /// and an open transaction revokes its own outputs.
    fn on_input_revoked(&mut self, port: u32, id: EventId) {
        self.parked.remove(&id);
        self.settle_queued(port, id, None);
        if let Some(pending) = self.pending.remove(&id) {
            self.pending_by_txn.remove(&pending.handle.id());
            self.pending_by_serial.remove(&pending.serial);
            {
                let sent = pending.sent.lock();
                self.send.spec_retained.fetch_sub(sent.len() as i64, Ordering::Relaxed);
                for (event, target) in sent.iter() {
                    self.send.send_control(event.id, *target, Control::Revoke { id: event.id });
                }
            }
            pending.handle.discard();
        }
    }

    /// Applies a `Finalize` of `version` (`Some`) or a `Revoke` (`None`) to
    /// input `id` still queued on `port` (replay drains in logged order; a
    /// reorder gap releases an event with its finalize). A lost finalize
    /// would block every later serial behind an uncommittable one. The
    /// newest queued copy is the one a finalize names, and the search
    /// starts there: the input a sender finalizes is one it sent lately.
    fn settle_queued(&mut self, port: u32, id: EventId, finalize: Option<u32>) {
        let queue = &mut self.port_queues[port as usize];
        match finalize {
            Some(version) => {
                let newest = queue.iter_mut().rev().find(|(_, e, _)| e.id == id);
                if let Some((_, event, _)) = newest.filter(|(_, e, _)| e.version == version) {
                    event.speculative = false;
                }
            }
            None => queue.retain(|(_, e, _)| e.id != id),
        }
    }

    fn on_txn_committed(&mut self, txn: TxnId) {
        let Some(id) = self.pending_by_txn.remove(&txn) else { return };
        let Some(pending) = self.pending.remove(&id) else { return };
        self.pending_by_serial.remove(&pending.serial);
        // Upgrade all sent outputs to final downstream. Holding the sent
        // lock while sending orders these finalizes after every attempt's
        // output diff and blocks any straggler diff from revising or
        // revoking a finalized output afterwards (it observes `finalized`
        // under the same lock).
        {
            let sent = pending.sent.lock();
            pending.finalized.store(true, Ordering::Release);
            // Finalized outputs stop counting against the retained-
            // speculation admission cap.
            self.send.spec_retained.fetch_sub(sent.len() as i64, Ordering::Relaxed);
            for (event, target) in sent.iter() {
                let finalize = Control::Finalize { id: event.id, version: event.version };
                self.send.send_control(event.id, *target, finalize);
            }
        }
        // Every serial below the lowest one still open has committed or
        // was revoked, whatever order the commits took.
        let open = self.pending_by_serial.keys().next().map_or(self.next_serial, |s| *s);
        for edge in &self.send.down {
            edge.note_commit(pending.serial, open, open << EMIT_BITS, &self.pending_by_serial);
        }
        self.metrics.spec_finalized.incr();
        let gate = pending.started.elapsed();
        self.metrics.commit_gate_us.record_duration(gate);
        if pending.trace.is_some() {
            self.obs.tracer.record_commit(self.id.index(), pending.serial, gate.as_micros() as u64);
        }
        self.obs.journal.record_traced(
            Some(self.id.index()),
            pending.trace.map(|c| c.id),
            JournalKind::Commit { serial: pending.serial },
        );
        self.events_since_checkpoint += 1;
        self.maybe_checkpoint();
    }

    fn on_txn_aborted(&mut self, txn: TxnId) {
        let Some(id) = self.pending_by_txn.get(&txn).cloned() else { return };
        let Some(pending) = self.pending.get(&id).cloned() else { return };
        self.metrics.spec_rollbacks.incr();
        let depth = pending.rollbacks.fetch_add(1, Ordering::Relaxed) + 1;
        if pending.trace.is_some() {
            // Attribute the cascade to its originating determinant (the
            // deepest still-uncommitted ancestor span).
            self.obs.tracer.record_rollback(self.id.index(), pending.serial);
        }
        self.obs.journal.record_traced(
            Some(self.id.index()),
            pending.trace.map(|c| c.id),
            JournalKind::Rollback { serial: pending.serial, cascade_depth: depth as u32 },
        );
        // Cascade abort: re-execute the event (§3: rollback + re-execution).
        self.spawn_attempt(pending, None);
    }

    // -----------------------------------------------------------------
    // Checkpointing
    // -----------------------------------------------------------------

    fn note_event_consumed(&mut self, port: u32, input: EventId) {
        let consumed = &mut self.consumed[port as usize];
        *consumed = (*consumed).max(input.seq + 1);
        if !self.config.speculative {
            self.events_since_checkpoint += 1;
        }
    }

    fn maybe_checkpoint(&mut self) {
        let Some(interval) = self.config.checkpoint_every else { return };
        if self.events_since_checkpoint < interval {
            return;
        }
        // A checkpoint may only cover fully settled work: no in-flight
        // transactions, no outputs still held for log stability, no parked
        // speculative inputs. Otherwise the covered events' effects would
        // be lost in a crash while replay skips them. Port queues must be
        // empty too: a partially consumed DataBatch shares one link
        // sequence across its events, so a mid-batch position would make
        // replay re-deliver (and re-serialize) its already-processed
        // prefix under fresh serials.
        if !self.pending.is_empty()
            || !self.hold_queue.is_empty()
            || !self.parked.is_empty()
            || self.port_queues.iter().any(|q| !q.is_empty())
        {
            return; // try again once in-flight work settles
        }
        if self.checkpoints.is_none() {
            return;
        }
        // Outputs still buffered for batching are volatile; put them on
        // the (replay-retaining) links before the covering events become
        // unreplayable.
        self.flush_out_batches();
        let Some(store) = &self.checkpoints else { return };
        // Positions = the link seq each upstream must replay from: the
        // first *unprocessed* message — the queue front if data is parked,
        // else the reorder buffer's delivery position.
        let positions: Vec<u64> = self
            .port_queues
            .iter()
            .zip(&self.reorder)
            .map(|(q, r)| q.front().map(|(seq, _, _)| *seq).unwrap_or_else(|| r.next_seq()))
            .collect();
        let covers_log = LogSeq(self.send.log.as_ref().map(|l| l.appended()).unwrap_or(0));
        // The serialized RNG goes into the checkpoint so the random stream
        // stays continuous across a crash (see `recover`).
        let rng_state = encode_to_vec(&*self.rng.lock());
        let cp = store.save(
            covers_log,
            self.next_serial,
            positions.clone(),
            self.consumed.clone(),
            self.registry.snapshot(),
            rng_state,
        );
        self.obs.journal.record(
            Some(self.id.index()),
            JournalKind::CheckpointSaved { id: cp.id, covers_log: covers_log.0 },
        );
        // The save made the stale lineage the only lineage: the resume
        // window's provisional loss is now permanent. Bake it into the
        // store's durable counter so later recoveries charge against it.
        if let Some(approx) = &mut self.approx {
            if approx.window_loss > 0 {
                store.add_approx_loss(approx.window_loss);
                approx.window_loss = 0;
            }
            approx.set_gauges(store.approx_loss(), self.next_serial);
        }
        if let Some(log) = &self.send.log {
            log.truncate_below(covers_log);
        }
        for (port, edge) in self.up.iter().enumerate() {
            edge.ctrl_tx.send(Control::Ack { upto: positions[port] });
        }
        self.events_since_checkpoint = 0;
    }
}

/// The node's sending side, shared by the coordinator and the worker
/// threads that publish speculative attempts: out-edges with their
/// output-id frontiers, the decision log, and the metrics both touch.
struct NodeSendView {
    id: OperatorId,
    down: Vec<DownEdge>,
    log: Option<StableLog>,
    /// Control lane of the node's own intake (log-stability callbacks).
    intake: IntakeSender,
    journal: Arc<Journal>,
    tracer: Arc<Tracer>,
    /// Speculative outputs published before log stability.
    spec_published: Counter,
    /// Re-executed outputs swallowed because they were already final
    /// downstream.
    resend_suppressed: Counter,
    /// Append-to-stable latency of decision-log writes, as observed by the
    /// commit gate (the paper's "one parallel log write" leg).
    log_wait_us: Histogram,
    /// Events per outgoing data frame (micro-batching effectiveness).
    batch_events: Histogram,
    /// Per-down-edge regenerated outputs dropped since the last journaled
    /// `ResendSuppressed`.
    suppressed: Vec<AtomicU64>,
    /// Running count of published-but-unfinalized speculative output
    /// events across all pending transactions (updated by worker threads
    /// in `after_publish`, decremented on commit/revoke). Drives the
    /// `max_retained_spec_outputs` admission cap without walking `pending`
    /// on the hot path.
    spec_retained: AtomicI64,
}

impl NodeSendView {
    /// Whether output `id` is already final downstream of edge `out`.
    fn final_downstream(&self, out: usize, id: EventId) -> bool {
        self.down[out].is_final(id.seq, id.seq >> EMIT_BITS)
    }

    /// Whether output `id` goes on edge `out` as data. A re-executed copy
    /// of an output already final downstream is counted instead (re-sent,
    /// a later downstream crash would replay it as a new event); the first
    /// output past a dropped run journals the run's length.
    fn admit(&self, out: usize, id: EventId) -> bool {
        if self.final_downstream(out, id) {
            self.suppressed[out].fetch_add(1, Ordering::Relaxed);
            self.resend_suppressed.incr();
            return false;
        }
        if self.suppressed[out].load(Ordering::Relaxed) > 0 {
            let count = self.suppressed[out].swap(0, Ordering::Relaxed);
            if count > 0 {
                self.journal.record(
                    Some(self.id.index()),
                    JournalKind::ResendSuppressed { edge: out as u32, count },
                );
            }
        }
        true
    }

    /// Sends `ctrl`, the finalize or revoke of output `id`, on every edge
    /// the output is routed to — except where a previous incarnation
    /// already made it final downstream.
    fn send_control(&self, id: EventId, target: Option<u32>, ctrl: Control) {
        for (out, edge) in self.down.iter().enumerate() {
            if routed_to(target, out) && !self.final_downstream(out, id) {
                edge.data_tx.send(Message::Control(ctrl.clone()));
            }
        }
    }

    /// Appends an input's decision record to the log, unless it is empty
    /// or the node logs nothing. The ticket reports stability as
    /// [`Intake::LogStable`] on the control lane: the callback can fire
    /// synchronously on this very thread when the record is already
    /// stable, and a bounded lane would self-deadlock.
    fn log_decisions(&self, decisions: &DecisionRecord, traced: bool) -> Option<LogTicket> {
        let log = self.log.as_ref().filter(|_| !decisions.is_empty())?;
        let appended_at = Instant::now();
        let ticket = log.append_batch(vec![encode_to_vec(decisions)]);
        let intake = self.intake.clone();
        let log_wait = self.log_wait_us.clone();
        let tracer = traced.then(|| self.tracer.clone());
        let (op, serial) = (self.id.index(), decisions.serial);
        ticket.subscribe(move || {
            let waited = appended_at.elapsed();
            log_wait.record_duration(waited);
            if let Some(tracer) = &tracer {
                tracer.record_log_wait(op, serial, waited.as_micros() as u64);
            }
            let _ = intake.send(Intake::LogStable { serial });
        });
        Some(ticket)
    }

    fn after_publish(&self, pending: &Arc<PendingTxn>) {
        let (generation, outputs, decisions) = match pending.attempt.lock().take() {
            Some(x) => x,
            None => return,
        };
        // First emissions are always speculative: even with final inputs, a
        // stable-by-construction log and no *observed* dependencies, an
        // earlier-serial transaction's re-execution can still invalidate
        // this one before it commits (its conflict may not exist yet).
        // Finality is only ever granted by the commit path, which under
        // the configured commit order is precisely when nothing can change
        // anymore. For gate-ready transactions the commit — and thus the
        // finalize — follows within microseconds.
        let child = pending.trace.map(|c| c.child(span_key(self.id.index(), pending.serial)));
        let new_events =
            assign_output_ids(self.id, pending.serial, pending.input_ts, &outputs, true, child);

        // Diff against previously sent outputs (re-execution produces a
        // revision; identical payloads need no resend).
        {
            let mut sent = pending.sent.lock();
            if pending.finalized.load(Ordering::Acquire) {
                // The transaction committed and its outputs were finalized;
                // a straggling attempt must not touch the wire anymore.
                return;
            }
            // Diffs must apply in generation order: a stale attempt's diff
            // running after a newer one's would resurrect dead outputs.
            if generation < pending.applied_gen.load(Ordering::Acquire) {
                return;
            }
            pending.applied_gen.store(generation, Ordering::Release);
            let sent_before = sent.len();
            let mut to_send: Vec<(Message, Option<u32>)> = Vec::new();
            for (k, (new_ev, target)) in new_events.iter().enumerate() {
                match sent.get(k) {
                    None => {
                        sent.push((new_ev.clone(), *target));
                        to_send.push((Message::Data(new_ev.clone()), *target));
                    }
                    Some((old, old_target))
                        if old.payload == new_ev.payload && old_target == target => {}
                    Some((old, old_target)) => {
                        // Content or routing changed: revoke on the old
                        // route if the route moved, then send the revision.
                        if old_target != target {
                            to_send.push((
                                Message::Control(Control::Revoke { id: old.id }),
                                *old_target,
                            ));
                        }
                        let revised = old.reissue(new_ev.payload.clone());
                        sent[k] = (revised.clone(), *target);
                        to_send.push((Message::Data(revised), *target));
                    }
                }
            }
            // Outputs that disappeared in the re-execution are revoked.
            while sent.len() > new_events.len() {
                let (gone, target) = sent.pop().expect("nonempty");
                to_send.push((Message::Control(Control::Revoke { id: gone.id }), target));
            }
            // Keep the retained-speculative-output count current for the
            // admission gate (revisions replace in place: no change).
            self.spec_retained.fetch_add(sent.len() as i64 - sent_before as i64, Ordering::Relaxed);
            // Route the diff to each edge, coalescing consecutive data
            // messages into one `DataBatch` frame per edge. Control
            // messages (revokes) act as barriers, so relative data/control
            // order on each link is exactly what unbatched sending yields.
            let mut published = 0u64;
            for (out, edge) in self.down.iter().enumerate() {
                let mut run: Vec<Event> = Vec::new();
                for (msg, target) in &to_send {
                    if !routed_to(*target, out) {
                        continue;
                    }
                    match msg {
                        Message::Data(e) => {
                            if self.admit(out, e.id) {
                                run.push(e.clone());
                                published += 1;
                            }
                        }
                        Message::Control(Control::Revoke { id })
                            if self.final_downstream(out, *id) => {}
                        other => {
                            flush_run(&edge.data_tx, &mut run, &self.batch_events);
                            edge.data_tx.send(other.clone());
                        }
                    }
                }
                flush_run(&edge.data_tx, &mut run, &self.batch_events);
            }
            if published > 0 {
                self.spec_published.add(published);
                self.journal.record_traced(
                    Some(self.id.index()),
                    pending.trace.map(|c| c.id),
                    JournalKind::SpecPublish { serial: pending.serial, outputs: published as u32 },
                );
            }

            // Log this attempt's decisions inside the same generation-
            // guarded critical section: a stale attempt must never append
            // its decisions after (or instead of) a newer attempt's —
            // recovery replays the *last* record per serial, which must be
            // the surviving generation's.
            *pending.log_ticket.lock() = self.log_decisions(&decisions, pending.trace.is_some());
        }
    }
}

/// Sends a run of consecutive data events on one edge: nothing for an
/// empty run, plain `Data` for one event, a `DataBatch` frame otherwise.
fn flush_run(
    edge: &streammine_net::ResilientSender<Message>,
    run: &mut Vec<Event>,
    batch_events: &Histogram,
) {
    let msg = match run.len() {
        0 => return,
        // A lone event is popped so the run buffer keeps its capacity;
        // only a batch frame has to hand the Vec itself over the wire.
        1 => Message::Data(run.pop().expect("len checked")),
        _ => Message::DataBatch(std::mem::take(run)),
    };
    batch_events.record(msg.event_count() as u64);
    edge.send(msg);
}

/// Whether an output routed to `target` goes on edge `out` (`None`: on
/// every edge).
fn routed_to(target: Option<u32>, out: usize) -> bool {
    target.is_none_or(|t| t as usize == out)
}

/// Opens the commit gate when (and only when) every condition holds: the
/// latest attempt's decision log is stable, the input event is final, and
/// no attempt is mid-flight (its outputs must hit the wire before any
/// finalize can).
fn maybe_authorize_pending(pending: &Arc<PendingTxn>) {
    if pending.attempts_pending.load(Ordering::SeqCst) != 0 {
        return;
    }
    let log_ok = pending.log_ticket.lock().as_ref().map(|t| t.is_stable()).unwrap_or(true);
    if log_ok && !pending.input.lock().speculative {
        pending.handle.authorize();
    }
}

/// Deterministically derives output event ids from the input serial: the
/// k-th output of the event at `serial` is `op#(serial << 16 | k)`, which
/// replays to the identical id after recovery. Ids therefore grow with
/// serial order, which is what makes an edge's last id a frontier.
fn assign_output_ids(
    op: OperatorId,
    serial: u64,
    ts: u64,
    payloads: &[(Option<u32>, Value)],
    speculative: bool,
    trace: Option<TraceCtx>,
) -> Vec<(Event, Option<u32>)> {
    assert!(
        (payloads.len() as u64) < MAX_OUTPUTS_PER_EVENT,
        "operator emitted too many outputs for one event"
    );
    payloads
        .iter()
        .enumerate()
        .map(|(k, (target, p))| {
            (
                Event {
                    id: EventId::new(op, (serial << EMIT_BITS) | k as u64),
                    version: 0,
                    timestamp: ts,
                    speculative,
                    payload: p.clone(),
                    trace,
                },
                *target,
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_ids_are_deterministic_and_ordered() {
        let op = OperatorId::new(3);
        let payloads = vec![(None, Value::Int(1)), (Some(2), Value::Int(2))];
        let a = assign_output_ids(op, 5, 99, &payloads, true, None);
        let b = assign_output_ids(op, 5, 99, &payloads, true, None);
        assert_eq!(a, b);
        assert_eq!(a[0].0.id.seq, (5 << 16));
        assert_eq!(a[1].0.id.seq, (5 << 16) | 1);
        assert!(a[0].0.speculative);
        assert_eq!(a[0].0.timestamp, 99);
        assert_eq!(a[0].1, None);
        assert_eq!(a[1].1, Some(2));
    }

    #[test]
    #[should_panic(expected = "too many outputs")]
    fn too_many_outputs_panics() {
        let payloads = vec![(None, Value::Null); MAX_OUTPUTS_PER_EVENT as usize];
        let _ = assign_output_ids(OperatorId::new(0), 0, 0, &payloads, false, None);
    }

    #[test]
    fn output_ids_carry_the_child_trace_context() {
        let ctx = TraceCtx { id: 77, parent: span_key(3, 5) };
        let outs =
            assign_output_ids(OperatorId::new(3), 5, 99, &[(None, Value::Int(1))], true, Some(ctx));
        assert_eq!(outs[0].0.trace, Some(ctx));
    }
}
