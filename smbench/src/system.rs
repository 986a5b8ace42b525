//! The systems under test, built only through the engine's public API, and
//! the failure-free in-process reference runs their outputs are checked
//! against.

use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

use streammine::common::codec::encode_to_vec;
use streammine::common::event::{Event, Value};
use streammine::common::ids::OperatorId;
use streammine::core::dist::{Cluster, ClusterSpec, NodeSpec};
use streammine::core::{
    GraphBuilder, LoggingConfig, OperatorConfig, Running, SinkHandle, SinkId, SourceId,
};
use streammine::obs::{RecoveryTimeline, RegistrySnapshot};
use streammine::operators::{CountMinOp, RandomTagger, SketchOp, Union};
use streammine::sketch::ErrorBound;
use streammine::storage::DiskSpec;
use streammine_bench::{relay_pipeline, union_sketch};

/// Relay hops of chain3-floor.
pub const CHAIN_HOPS: usize = 3;
/// Sketch geometry and hash seed of the Fig. 6/7 application, as
/// `streammine_bench::union_sketch` builds it; fig6-skew's reference run
/// uses them (a drift shows as mismatched outputs).
pub const SKETCH: (usize, usize, u64) = (256, 3, 17);
/// Worker processes of cluster3-kill, and the log device each logs to:
/// one of 200 µs, so the codec, TCP framing and bridges of its three hops
/// are a visible share of its latency.
pub const CLUSTER_HOPS: usize = 3;
pub const CLUSTER_LOG_US: u64 = 200;
pub const CLUSTER_DISKS: u32 = 1;
/// The count-min operator of sketch-crash-approx: geometry, hash seed,
/// per-event work, log device, checkpoint interval and error bound.
pub const CM: (usize, usize, u64) = (64, 4, 11);
pub const CM_WORK: Duration = Duration::from_millis(5);
pub const CM_LOG: Duration = Duration::from_micros(500);
pub const CM_CHECKPOINT_EVERY: u64 = 32;
pub const EPSILON: f64 = 0.25;
pub const DELTA: f64 = 0.05;

/// How long a reference run may take before it counts as hung.
const REFERENCE_BUDGET: Duration = Duration::from_secs(60);

/// The fault an in-process trial injects.
#[derive(Debug, Clone, Copy)]
pub enum Fault {
    /// Crash and restart an operator.
    Crash(OperatorId),
    /// Sever the data lane of an edge (by index) until the fault ends:
    /// frames sent meanwhile are lost and must be replayed.
    Partition(usize),
}

/// A running system under test: an in-process graph or a worker cluster.
pub enum System {
    InProc { running: Running, src: SourceId, sink: SinkId, fault: Fault },
    Cluster(Box<Cluster>),
}

impl System {
    pub fn push(&self, payload: Value) {
        match self {
            System::InProc { running, src, .. } => {
                running.source(*src).push(payload);
            }
            System::Cluster(c) => {
                c.source().push(payload);
            }
        }
    }

    pub fn sink(&self) -> &SinkHandle {
        match self {
            System::InProc { running, sink, .. } => running.sink(*sink),
            System::Cluster(c) => c.sink(),
        }
    }

    /// Injects the workload's fault: an in-process crash + restart, the
    /// start of an edge partition, or a SIGKILL of the middle worker (the
    /// control plane respawns it on its own).
    pub fn fault(&self) {
        match self {
            System::InProc { running, fault: Fault::Crash(op), .. } => {
                running.crash(*op);
                running.recover(*op);
            }
            System::InProc { running, fault: Fault::Partition(edge), .. } => {
                running.sever_edge_data(*edge)
            }
            System::Cluster(c) => c.kill_worker(CLUSTER_HOPS / 2),
        }
    }

    /// Ends a partition; a no-op for the other faults.
    pub fn heal(&self) {
        if let System::InProc { running, fault: Fault::Partition(edge), .. } = self {
            running.heal_edge_data(*edge);
        }
    }

    pub fn metrics(&self) -> RegistrySnapshot {
        match self {
            System::InProc { running, .. } => running.metrics(),
            System::Cluster(c) => c.cluster_snapshot(),
        }
    }

    /// Now on the cluster clock (cluster only).
    pub fn cluster_now_us(&self) -> Option<u64> {
        match self {
            System::InProc { .. } => None,
            System::Cluster(c) => Some(c.now_us()),
        }
    }

    pub fn timelines(&self) -> Vec<RecoveryTimeline> {
        match self {
            System::InProc { .. } => Vec::new(),
            System::Cluster(c) => c.recovery_timelines(),
        }
    }

    /// Shuts the system down and returns whether it finished; an in-process
    /// graph under [`shutdown_within`]. A cluster's worker processes must
    /// be stopped and waited for, so its shutdown is never left behind.
    pub fn shutdown(self) -> bool {
        match self {
            System::InProc { running, .. } => shutdown_within(move || running.shutdown()),
            System::Cluster(c) => {
                c.shutdown();
                true
            }
        }
    }
}

/// How long a shutdown may take before it counts as hung; one takes ~1 ms.
const SHUTDOWN_BUDGET: Duration = Duration::from_secs(2);

/// Runs `shutdown` on a thread of its own and waits for it at most
/// [`SHUTDOWN_BUDGET`]. `Running::shutdown` of the fig6-skew graph (a
/// two-thread speculative sketch) hangs a few times in 10 000 calls, every
/// thread parked, with no event outstanding: an engine defect. A hung
/// shutdown is reported and left behind; its threads stay parked until the
/// process exits, so the run goes on unperturbed. Returns whether the
/// shutdown finished.
pub fn shutdown_within(shutdown: impl FnOnce() + Send + 'static) -> bool {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        shutdown();
        let _ = done_tx.send(());
    });
    let done = done_rx.recv_timeout(SHUTDOWN_BUDGET).is_ok();
    if !done {
        eprintln!("engine defect: a shutdown hung for more than {SHUTDOWN_BUDGET:?}; left behind");
    }
    done
}

/// Starts a graph whose stream enters at `first` and leaves at `last`.
fn start(mut b: GraphBuilder, first: OperatorId, last: OperatorId) -> (Running, SourceId, SinkId) {
    let src = b.source_into(first).expect("source");
    let sink = b.sink_from(last).expect("sink");
    (b.build().expect("graph").start(), src, sink)
}

/// chain3-floor: three speculative relays, each logging one decision per
/// event on a 0 µs device. Its fault partitions edge 0, the one into the
/// middle relay.
pub fn chain3() -> System {
    let (running, src, sink) =
        relay_pipeline(CHAIN_HOPS, true, vec![DiskSpec::simulated(Duration::ZERO)]);
    System::InProc { running, src, sink, fault: Fault::Partition(0) }
}

/// fig6-skew: the Fig. 6/7 application, union → count-sketch, both
/// speculative and logging to three striped 2 ms devices, the sketch on
/// two STM threads. Its fault partitions edge 0, union → sketch.
pub fn fig6() -> System {
    let (running, src, sink) = union_sketch(true, 2, true);
    System::InProc { running, src, sink, fault: Fault::Partition(0) }
}

/// cluster3-kill: three precise random-tagger workers over TCP loopback,
/// each logging to one 200 µs device. Returns once every edge is wired.
pub fn cluster3(worker_bin: PathBuf) -> Result<System, String> {
    let spec = ClusterSpec::new(
        vec![NodeSpec::logged(RandomTagger::NAME, CLUSTER_LOG_US, CLUSTER_DISKS); CLUSTER_HOPS],
        worker_bin,
    );
    let cluster = Cluster::launch(spec)?;
    if !cluster.wait_connected(Duration::from_secs(20)) {
        cluster.shutdown();
        return Err("cluster never wired up".into());
    }
    Ok(System::Cluster(Box::new(cluster)))
}

/// sketch-crash-approx: one checkpointed count-min operator with
/// approximate recovery. Its fault crashes and restarts the operator.
pub fn count_min() -> System {
    let mut b = GraphBuilder::new();
    let cfg = OperatorConfig::logged(LoggingConfig::simulated(CM_LOG))
        .with_checkpoint_every(CM_CHECKPOINT_EVERY)
        .with_approximate_recovery(ErrorBound::new(EPSILON, DELTA));
    let (w, d, seed) = CM;
    let op = b.add_operator(CountMinOp::new(w, d, seed, CM_WORK).stamped(), cfg);
    let (running, src, sink) = start(b, op, op);
    System::InProc { running, src, sink, fault: Fault::Crash(op) }
}

/// The input index an output event answers: every topology here is 1:1
/// with a single active input, so the last operator's serial — the high
/// bits of the output id — is the source sequence number.
pub fn input_index(event: &Event) -> usize {
    (event.id.seq >> 16) as usize
}

/// Encoded payloads indexed by input index.
pub fn payload_bytes(events: &[Event], n: usize) -> Vec<Option<Vec<u8>>> {
    let mut out = vec![None; n];
    for e in events {
        if let Some(slot) = out.get_mut(input_index(e)) {
            *slot = Some(encode_to_vec(&e.payload));
        }
    }
    out
}

/// Pushes `inputs` through a started failure-free in-process graph
/// (operators with no work and no device latency, same hash seeds and RNG
/// streams as the system under test) and returns its final outputs,
/// encoded, by input index.
fn reference_run(
    inputs: &[Value],
    (running, src, sink): (Running, SourceId, SinkId),
) -> Vec<Vec<u8>> {
    for v in inputs {
        running.source(src).push(v.clone());
    }
    assert!(
        running.sink(sink).wait_final(inputs.len(), REFERENCE_BUDGET),
        "reference run stuck at {}/{}",
        running.sink(sink).final_count(),
        inputs.len()
    );
    let out = payload_bytes(&running.sink(sink).final_events(), inputs.len());
    shutdown_within(move || running.shutdown());
    out.into_iter().map(|p| p.expect("reference output for every input")).collect()
}

pub fn chain3_reference(inputs: &[Value]) -> Vec<Vec<u8>> {
    reference_run(
        inputs,
        relay_pipeline(CHAIN_HOPS, false, vec![DiskSpec::simulated(Duration::ZERO)]),
    )
}

pub fn fig6_reference(inputs: &[Value]) -> Vec<Vec<u8>> {
    let mut b = GraphBuilder::new();
    let union = b.add_operator(Union::new(), OperatorConfig::plain());
    let (w, d, seed) = SKETCH;
    let sketch = b.add_operator(SketchOp::new(w, d, seed, Duration::ZERO), OperatorConfig::plain());
    b.connect(union, sketch).expect("edge");
    reference_run(inputs, start(b, union, sketch))
}

pub fn cluster3_reference(inputs: &[Value]) -> Vec<Vec<u8>> {
    let mut b = GraphBuilder::new();
    let ops: Vec<OperatorId> = (0..CLUSTER_HOPS)
        .map(|_| {
            let logging = LoggingConfig::simulated(Duration::ZERO);
            b.add_operator(RandomTagger, OperatorConfig::logged(logging))
        })
        .collect();
    for pair in ops.windows(2) {
        b.connect(pair[0], pair[1]).expect("edge");
    }
    reference_run(inputs, start(b, ops[0], ops[CLUSTER_HOPS - 1]))
}

pub fn count_min_reference(inputs: &[Value]) -> Vec<Vec<u8>> {
    let mut b = GraphBuilder::new();
    let (w, d, seed) = CM;
    let op = b.add_operator(CountMinOp::new(w, d, seed, Duration::ZERO), OperatorConfig::plain());
    reference_run(inputs, start(b, op, op))
}

/// The count-min estimate carried by an encoded `Record[key, estimate]`.
pub fn estimate_of(encoded: &[u8]) -> Option<u64> {
    let v: Value = streammine::common::codec::decode_from_slice(encoded).ok()?;
    v.field(1).and_then(Value::as_i64).map(|e| e as u64)
}
