//! Node plumbing: link endpoints, intake merging, and per-link FIFO
//! reordering.
//!
//! Each operator runs a single coordinator loop fed by one *intake*.
//! Small forwarder threads pump every upstream data link and every
//! downstream control link into the intake. The intake has **two lanes**:
//!
//! * a **bounded data lane** fed only by the data pumps — when the
//!   coordinator stops draining it (backpressure stall), the pumps block,
//!   the upstream link's credit window stays consumed, and the producer
//!   saturates in turn: backpressure propagates hop by hop instead of
//!   growing memory;
//! * an **unbounded control lane** for everything else (acks, replay
//!   requests, commit/abort notifications, log-stability callbacks,
//!   engine commands). It must never block: log tickets fire their
//!   callbacks *synchronously on the caller's thread* when the serial is
//!   already stable, so the coordinator itself sends into this lane — a
//!   bounded lane could self-deadlock. It is intrinsically bounded
//!   anyway: every message class is capped by bounded in-flight state
//!   (open transactions, the hold queue, per-edge ctrl-link credit
//!   windows), not by external producers.
//!
//! Receives service the control lane first so a stalled node keeps
//! serving replay requests and credit grants — the deadlock-freedom core
//! of the credit protocol. The plumbing survives operator crashes —
//! links, sequence counters and retained output buffers are exactly the
//! state that lives *outside* the failed process in the paper's model.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam_channel::{RecvTimeoutError, TryRecvError};
use parking_lot::Mutex;
use streammine_net::{LinkReceiver, ResilientSender};
use streammine_stm::TxnId;

use crate::message::{Control, Message};

/// Messages arriving at a node's coordinator.
#[derive(Debug)]
pub(crate) enum Intake {
    /// A message from the upstream on input port `port`, with its link
    /// sequence number.
    Upstream { port: u32, link_seq: u64, msg: Message },
    /// A control message from the downstream on output `out`.
    Downstream { out: u32, ctrl: Control },
    /// The STM committed a transaction (speculative mode).
    TxnCommitted(TxnId),
    /// The STM cascade-aborted an open transaction (speculative mode).
    TxnAborted(TxnId),
    /// A decision-log ticket for `serial` became stable.
    LogStable { serial: u64 },
    /// Engine command.
    Command(NodeCommand),
}

/// Commands the graph controller can send to a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeCommand {
    /// Simulate a crash: drop all volatile state and stop the loop.
    Crash,
    /// Stop cleanly after draining.
    Shutdown,
}

/// The downstream-facing half of an edge at the sending node.
///
/// The sender is resilient: while the link is severed, outgoing messages
/// queue inside the (crash-surviving) sender and are retransmitted with
/// capped exponential backoff once the link heals. Both fields survive
/// node restarts; each incarnation gets a clone.
#[derive(Debug, Clone)]
pub(crate) struct DownEdge {
    /// Data + finalize/revoke to the receiver.
    pub data_tx: ResilientSender<Message>,
    /// Output-id frontier of this edge: every output id below it is final
    /// downstream, across every incarnation of the sending node. Output
    /// ids derive from input serials (see `node::assign_output_ids`), so
    /// the frontier is a serial boundary. A non-speculative sender feeds
    /// the edge final outputs in serial order and moves the frontier one
    /// past the last id it sent. A speculative sender sends before
    /// outputs are final, so it moves the frontier at each commit instead,
    /// to the lowest serial still open. Lives outside the node like the
    /// link itself (a restarted worker process learns it from the
    /// receiver's `Welcome`), so a recovering node sends nothing for a
    /// regenerated output whose id lies below it: no data, no finalize,
    /// no revoke.
    pub frontier: Arc<AtomicU64>,
    /// Serials at or above the frontier that committed all the same:
    /// under `CommitOrder::Conflict` a speculative sender can commit a
    /// serial while an earlier one is still open. Survives a restart in
    /// the same process like the frontier (speculation does not cross
    /// processes), and suppresses a regenerated output the same way.
    pub committed_ahead: Arc<Mutex<CommittedAhead>>,
}

impl DownEdge {
    /// An edge nothing has been sent on yet.
    pub fn new(data_tx: ResilientSender<Message>) -> DownEdge {
        DownEdge {
            data_tx,
            frontier: Arc::new(AtomicU64::new(0)),
            committed_ahead: Arc::new(Mutex::new(CommittedAhead::default())),
        }
    }

    /// Whether the output with id sequence `seq`, of input serial
    /// `serial`, is final downstream. The frontier is read again under the
    /// lock, which a commit holds while it moves a serial past it.
    pub fn is_final(&self, seq: u64, serial: u64) -> bool {
        if seq < self.frontier.load(Ordering::Acquire) {
            return true;
        }
        let ahead = self.committed_ahead.lock();
        ahead.covers(serial) || seq < self.frontier.load(Ordering::Acquire)
    }

    /// Records a speculative sender's commit of `serial`, once its
    /// finalizes are on this edge: the frontier moves to `frontier`, the
    /// first id of `lowest_open`, the lowest serial still open (`open`
    /// holds them all).
    pub fn note_commit<V>(
        &self,
        serial: u64,
        lowest_open: u64,
        frontier: u64,
        open: &BTreeMap<u64, V>,
    ) {
        let mut ahead = self.committed_ahead.lock();
        self.frontier.fetch_max(frontier, Ordering::AcqRel);
        ahead.commit(serial, lowest_open, open);
    }
}

/// The serials a speculative sender committed out of serial order, kept
/// as the complement within a mark: every serial below `mark` committed
/// except those in `open`. Only open transactions enter `open`, so it
/// stays within `max_open_speculations` plus revoked inputs, however many
/// serials commit while an earlier one waits.
#[derive(Debug, Default)]
pub(crate) struct CommittedAhead {
    /// One past the highest committed serial.
    pub mark: u64,
    /// Serials below `mark` not committed (open, or revoked).
    pub open: BTreeSet<u64>,
}

impl CommittedAhead {
    /// Whether `serial` committed.
    pub fn covers(&self, serial: u64) -> bool {
        serial < self.mark && !self.open.contains(&serial)
    }

    /// Records the commit of `serial`, with `lowest_open` the lowest serial
    /// still open (the edge's frontier) and `open` every open serial. A
    /// raised mark takes in the open serials it passes; serials below the
    /// frontier are forgotten.
    pub fn commit<V>(&mut self, serial: u64, lowest_open: u64, open: &BTreeMap<u64, V>) {
        if serial < self.mark {
            self.open.remove(&serial);
        } else {
            if lowest_open < serial {
                let passed = open.range(self.mark.max(lowest_open)..serial);
                self.open.extend(passed.map(|(s, _)| *s));
            }
            self.mark = serial + 1;
        }
        while self.open.first().is_some_and(|s| *s < lowest_open) {
            self.open.pop_first();
        }
    }
}

/// The upstream-facing half of an edge at the receiving node.
pub(crate) struct UpEdge {
    /// Control back to the sender (acks, replay requests); resilient so a
    /// severed control link delays — never loses — acks and replay
    /// requests.
    pub ctrl_tx: ResilientSender<Control>,
    /// Forwarder feeding the sender's data into our intake.
    pub _data_pump: Option<JoinHandle<()>>,
}

impl fmt::Debug for UpEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UpEdge").finish()
    }
}

/// Spawns a forwarder pumping a data link into an intake channel.
pub(crate) fn pump_data(
    port: u32,
    rx: LinkReceiver<Message>,
    intake: IntakeSender,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("pump-data-p{port}"))
        .spawn(move || {
            while let Ok((link_seq, msg)) = rx.recv() {
                if intake.send(Intake::Upstream { port, link_seq, msg }).is_err() {
                    break;
                }
            }
        })
        .expect("spawn data pump")
}

/// Spawns a forwarder pumping a downstream control link into an intake.
pub(crate) fn pump_ctrl(
    out: u32,
    rx: LinkReceiver<Control>,
    intake: IntakeSender,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("pump-ctrl-o{out}"))
        .spawn(move || {
            while let Ok((_seq, ctrl)) = rx.recv() {
                if intake.send(Intake::Downstream { out, ctrl }).is_err() {
                    break;
                }
            }
        })
        .expect("spawn ctrl pump")
}

/// Per-input-port FIFO repair.
///
/// Replay after a crash re-delivers retained messages with their *original*
/// link sequence numbers, and live messages sent in the meantime carry
/// higher ones; both can interleave in the intake. The reorder buffer
/// delivers messages strictly in link-sequence order starting from the
/// recovery position, dropping anything older (already covered by the
/// checkpoint).
#[derive(Debug)]
pub(crate) struct ReorderBuffer {
    next: u64,
    held: BTreeMap<u64, Message>,
}

impl ReorderBuffer {
    /// Starts expecting sequence `next`.
    pub fn new(next: u64) -> Self {
        ReorderBuffer { next, held: BTreeMap::new() }
    }

    /// The next expected link sequence.
    pub fn next_seq(&self) -> u64 {
        self.next
    }

    /// Offers a message, appending every message now deliverable (in
    /// order) to `out`.
    ///
    /// The caller owns `out` so the steady state borrows a reusable buffer
    /// instead of allocating a result vector per message, and the in-order
    /// case bypasses the `BTreeMap` — an insert/remove round-trip there is
    /// a tree-node heap allocation per event.
    pub fn offer_into(&mut self, link_seq: u64, msg: Message, out: &mut Vec<(u64, Message)>) {
        if link_seq < self.next {
            return; // stale duplicate (pre-checkpoint or replayed twice)
        }
        if link_seq == self.next && self.held.is_empty() {
            self.next += 1;
            out.push((link_seq, msg));
            return;
        }
        self.held.insert(link_seq, msg);
        while let Some(msg) = self.held.remove(&self.next) {
            out.push((self.next, msg));
            self.next += 1;
        }
    }

    /// Allocating convenience wrapper around [`ReorderBuffer::offer_into`].
    #[cfg(test)]
    pub fn offer(&mut self, link_seq: u64, msg: Message) -> Vec<(u64, Message)> {
        let mut out = Vec::new();
        self.offer_into(link_seq, msg, &mut out);
        out
    }

    /// Whether any message is parked waiting for a gap to fill.
    pub fn has_held(&self) -> bool {
        !self.held.is_empty()
    }

    /// Messages parked waiting for a gap to fill.
    #[cfg(test)]
    pub fn held_len(&self) -> usize {
        self.held.len()
    }
}

/// Which intake lane an [`IntakeSender`] feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lane {
    Data,
    Ctrl,
}

/// Both lanes of an intake, behind one mutex. A single lock for both lanes
/// is what lets a blocking receive wait on *either* lane with one condvar —
/// the channel stand-in has no multi-channel select, and the previous
/// slice-polling workaround cost up to 500µs of added latency per hop.
#[derive(Debug)]
struct IntakeQueues {
    data: VecDeque<Intake>,
    ctrl: VecDeque<Intake>,
    data_cap: usize,
    /// Cleared when the last [`IntakeHandle`] clone drops; senders then
    /// fail fast so pump threads exit.
    receiver_alive: bool,
}

#[derive(Debug)]
struct IntakeShared {
    inner: parking_lot::Mutex<IntakeQueues>,
    /// Signalled on every send: the coordinator waits here for messages.
    recv_cv: parking_lot::Condvar,
    /// Signalled when the data lane gains space: data pumps wait here —
    /// this blocking *is* the backpressure mechanism.
    space_cv: parking_lot::Condvar,
}

/// A cloneable producer endpoint for one intake lane.
///
/// Data-lane sends block while the lane is full (backpressure); control-lane
/// sends never block. Both fail once the receiving coordinator is gone.
#[derive(Debug, Clone)]
pub(crate) struct IntakeSender {
    shared: Arc<IntakeShared>,
    lane: Lane,
}

/// Error returned by [`IntakeSender::send`] when the receiver is gone.
#[derive(Debug)]
pub(crate) struct IntakeClosed;

impl IntakeSender {
    /// Enqueues a message on this sender's lane. Blocks on a full data
    /// lane; returns `Err` once the receiver has been dropped.
    pub fn send(&self, m: Intake) -> Result<(), IntakeClosed> {
        let mut q = self.shared.inner.lock();
        match self.lane {
            Lane::Ctrl => {
                if !q.receiver_alive {
                    return Err(IntakeClosed);
                }
                q.ctrl.push_back(m);
            }
            Lane::Data => {
                while q.receiver_alive && q.data.len() >= q.data_cap {
                    self.shared.space_cv.wait(&mut q);
                }
                if !q.receiver_alive {
                    return Err(IntakeClosed);
                }
                q.data.push_back(m);
            }
        }
        drop(q);
        self.shared.recv_cv.notify_one();
        Ok(())
    }
}

/// Drops ownership of the receiving side: the last [`IntakeHandle`] clone
/// going away marks the intake closed and wakes every blocked sender.
#[derive(Debug)]
struct ReceiverToken {
    shared: Arc<IntakeShared>,
}

impl Drop for ReceiverToken {
    fn drop(&mut self) {
        self.shared.inner.lock().receiver_alive = false;
        self.shared.space_cv.notify_all();
        self.shared.recv_cv.notify_all();
    }
}

/// The two-lane queue bundle feeding a node's coordinator. Survives
/// crashes. See the module docs for the lane semantics.
#[derive(Debug, Clone)]
pub(crate) struct IntakeHandle {
    /// Bounded data lane: data pumps only. A blocking send here *is* the
    /// backpressure mechanism.
    pub data_tx: IntakeSender,
    /// Unbounded control lane: everything that must never block.
    pub ctrl_tx: IntakeSender,
    _receiver: Arc<ReceiverToken>,
}

impl IntakeHandle {
    /// Creates an intake whose data lane holds at most `data_capacity`
    /// messages (`NodeConfig::intake_capacity`).
    pub fn new(data_capacity: usize) -> Self {
        let shared = Arc::new(IntakeShared {
            inner: parking_lot::Mutex::new(IntakeQueues {
                data: VecDeque::with_capacity(data_capacity.max(1)),
                ctrl: VecDeque::new(),
                data_cap: data_capacity.max(1),
                receiver_alive: true,
            }),
            recv_cv: parking_lot::Condvar::new(),
            space_cv: parking_lot::Condvar::new(),
        });
        IntakeHandle {
            data_tx: IntakeSender { shared: shared.clone(), lane: Lane::Data },
            ctrl_tx: IntakeSender { shared: shared.clone(), lane: Lane::Ctrl },
            _receiver: Arc::new(ReceiverToken { shared }),
        }
    }

    /// Pops the next message under the queue lock; control lane first. With
    /// `accept_data == false` (backpressure stall) the data lane is left
    /// untouched so its pumps stay blocked.
    fn pop_locked(&self, q: &mut IntakeQueues, accept_data: bool) -> Option<Intake> {
        if let Some(m) = q.ctrl.pop_front() {
            return Some(m);
        }
        if accept_data {
            if let Some(m) = q.data.pop_front() {
                self.data_tx.shared.space_cv.notify_one();
                return Some(m);
            }
        }
        None
    }

    /// Non-blocking receive; control lane first.
    pub fn try_recv(&self, accept_data: bool) -> Result<Intake, TryRecvError> {
        let mut q = self.data_tx.shared.inner.lock();
        self.pop_locked(&mut q, accept_data).ok_or(TryRecvError::Empty)
    }

    /// Blocking receive with a timeout; control lane first. Waits on the
    /// shared condvar — a send on either lane wakes it immediately, with no
    /// polling slice.
    pub fn recv_timeout(
        &self,
        timeout: Duration,
        accept_data: bool,
    ) -> Result<Intake, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut q = self.data_tx.shared.inner.lock();
        loop {
            if let Some(m) = self.pop_locked(&mut q, accept_data) {
                return Ok(m);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let _ = self.data_tx.shared.recv_cv.wait_for(&mut q, deadline - now);
        }
    }

    /// Discards everything queued on both lanes (crash simulation:
    /// in-flight intake messages die with the process). Draining the data
    /// lane also unblocks any pump waiting on a full lane.
    pub fn drain(&self) -> usize {
        let mut q = self.data_tx.shared.inner.lock();
        let n = q.ctrl.len() + q.data.len();
        q.ctrl.clear();
        q.data.clear();
        drop(q);
        self.data_tx.shared.space_cv.notify_all();
        n
    }

    /// Messages currently queued on the bounded data lane.
    pub fn data_depth(&self) -> usize {
        self.data_tx.shared.inner.lock().data.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_common::event::{Event, Value};
    use streammine_common::ids::{EventId, OperatorId};
    use streammine_net::{link, LinkConfig};

    fn msg(n: i64) -> Message {
        Message::Data(Event::new(EventId::new(OperatorId::new(0), n as u64), 0, Value::Int(n)))
    }

    #[test]
    fn reorder_buffer_delivers_in_order() {
        let mut rb = ReorderBuffer::new(0);
        assert!(rb.offer(1, msg(1)).is_empty());
        assert_eq!(rb.held_len(), 1);
        let out = rb.offer(0, msg(0));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].0, 0);
        assert_eq!(out[1].0, 1);
        assert_eq!(rb.next_seq(), 2);
    }

    #[test]
    fn reorder_buffer_drops_stale() {
        let mut rb = ReorderBuffer::new(5);
        assert!(rb.offer(3, msg(3)).is_empty());
        assert_eq!(rb.held_len(), 0, "stale must be dropped, not held");
        let out = rb.offer(5, msg(5));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn reorder_buffer_handles_duplicate_of_held() {
        let mut rb = ReorderBuffer::new(0);
        rb.offer(2, msg(2));
        rb.offer(2, msg(2));
        assert_eq!(rb.held_len(), 1);
        let out = rb.offer(0, msg(0));
        assert_eq!(out.len(), 1); // only seq 0; 1 still missing
        let out = rb.offer(1, msg(1));
        assert_eq!(out.len(), 2); // 1 and 2
    }

    #[test]
    fn reorder_buffer_in_order_stream_never_holds() {
        let mut rb = ReorderBuffer::new(0);
        let mut out = Vec::new();
        for seq in 0..4 {
            rb.offer_into(seq, msg(seq as i64), &mut out);
            assert_eq!(rb.held_len(), 0, "in-order messages must bypass the hold map");
        }
        assert_eq!(out.len(), 4);
        assert!(out.iter().enumerate().all(|(i, (s, _))| *s == i as u64));
        assert_eq!(rb.next_seq(), 4);
    }

    #[test]
    fn data_pump_forwards_with_port_tag() {
        let (tx, rx) = link::<Message>(LinkConfig::instant());
        let intake = IntakeHandle::new(16);
        let _h = pump_data(3, rx, intake.data_tx.clone());
        tx.send(msg(7)).unwrap();
        match intake.recv_timeout(Duration::from_secs(5), true).unwrap() {
            Intake::Upstream { port, link_seq, msg: Message::Data(e) } => {
                assert_eq!(port, 3);
                assert_eq!(link_seq, 0);
                assert_eq!(e.payload, Value::Int(7));
            }
            other => panic!("unexpected intake {other:?}"),
        }
    }

    #[test]
    fn ctrl_pump_forwards_with_out_tag() {
        let (tx, rx) = link::<Control>(LinkConfig::instant());
        let intake = IntakeHandle::new(16);
        let _h = pump_ctrl(1, rx, intake.ctrl_tx.clone());
        tx.send(Control::Ack { upto: 9 }).unwrap();
        match intake.recv_timeout(Duration::from_secs(5), true).unwrap() {
            Intake::Downstream { out, ctrl: Control::Ack { upto } } => {
                assert_eq!(out, 1);
                assert_eq!(upto, 9);
            }
            other => panic!("unexpected intake {other:?}"),
        }
    }

    #[test]
    fn control_lane_is_served_before_data() {
        let intake = IntakeHandle::new(16);
        intake.data_tx.send(Intake::Upstream { port: 0, link_seq: 0, msg: msg(1) }).unwrap();
        intake.ctrl_tx.send(Intake::LogStable { serial: 5 }).unwrap();
        // Control wins even though data arrived first.
        assert!(matches!(intake.try_recv(true), Ok(Intake::LogStable { serial: 5 })));
        assert!(matches!(intake.try_recv(true), Ok(Intake::Upstream { .. })));
    }

    #[test]
    fn stalled_receive_leaves_data_lane_untouched() {
        let intake = IntakeHandle::new(16);
        intake.data_tx.send(Intake::Upstream { port: 0, link_seq: 0, msg: msg(1) }).unwrap();
        assert!(intake.try_recv(false).is_err(), "data must stay queued while stalled");
        assert_eq!(intake.data_depth(), 1);
        assert!(matches!(intake.try_recv(true), Ok(Intake::Upstream { .. })));
    }

    #[test]
    fn full_data_lane_blocks_pump_until_drained() {
        let (tx, rx) = link::<Message>(LinkConfig::instant());
        let intake = IntakeHandle::new(1);
        let _h = pump_data(0, rx, intake.data_tx.clone());
        tx.send(msg(1)).unwrap();
        tx.send(msg(2)).unwrap();
        tx.send(msg(3)).unwrap();
        // Lane capacity 1: the pump holds one message blocked in send; the
        // third stays on the link until the coordinator drains.
        let first = intake.recv_timeout(Duration::from_secs(5), true).unwrap();
        assert!(matches!(first, Intake::Upstream { link_seq: 0, .. }));
        let second = intake.recv_timeout(Duration::from_secs(5), true).unwrap();
        assert!(matches!(second, Intake::Upstream { link_seq: 1, .. }));
        let third = intake.recv_timeout(Duration::from_secs(5), true).unwrap();
        assert!(matches!(third, Intake::Upstream { link_seq: 2, .. }));
    }

    #[test]
    fn committed_ahead_holds_only_open_serials() {
        let mut ahead = CommittedAhead::default();
        // Serial 0 stays open while 1..=100 commit out of order.
        let open: BTreeMap<u64, ()> = [(0, ())].into_iter().collect();
        for serial in 1..=100 {
            ahead.commit(serial, 0, &open);
        }
        assert!((1..=100).all(|s| ahead.covers(s)));
        assert!(!ahead.covers(0) && !ahead.covers(101));
        assert_eq!(ahead.open.len(), 1);
        // Serial 102 commits past open 101; then 0 and 101 commit.
        let open: BTreeMap<u64, ()> = [(0, ()), (101, ())].into_iter().collect();
        ahead.commit(102, 0, &open);
        assert!(!ahead.covers(101) && ahead.covers(102));
        let open: BTreeMap<u64, ()> = [(101, ())].into_iter().collect();
        ahead.commit(0, 101, &open);
        assert!(ahead.covers(0) && ahead.open.len() == 1);
        ahead.commit(101, 103, &BTreeMap::<u64, ()>::new());
        assert!(ahead.open.is_empty());
        assert!(ahead.covers(101) && !ahead.covers(103));
    }
}
