//! Simulated network links between operators.
//!
//! In the paper's testbed, operators are OS processes connected by TCP
//! (§2.3); the evaluation notes that real network hops only add a
//! roughly-constant latency to the curves (§4, discussion of Figure 3).
//! This crate reproduces exactly the properties the protocols rely on:
//!
//! * **ordered, reliable delivery** while connected (TCP semantics);
//! * configurable **propagation delay** with optional jitter (FIFO order is
//!   preserved, as on a TCP stream);
//! * **output-buffer retention**: every message gets a link sequence
//!   number and is retained by the sender until acknowledged, so a
//!   recovering downstream can request **replay from a sequence number**
//!   (upstream backup, §2.2);
//! * **credit-based flow control**: each link carries at most
//!   [`LinkConfig::capacity`] undelivered messages. A send consumes one
//!   credit; delivery returns it. When credits are exhausted the send
//!   fails fast with [`LinkError::Saturated`] instead of growing memory —
//!   the TCP-window analogue that propagates backpressure upstream.
//!   Replay traffic draws from a **reserved credit class**
//!   ([`LinkConfig::replay_reserve`]) so a recovering consumer can always
//!   make progress even when the normal window is saturated (the
//!   deadlock-freedom requirement: replay and credit grants must never
//!   wait on each other);
//! * **failure injection**: a link can be severed and healed, sends while
//!   severed fail like writes on a broken socket, and a transient
//!   [`LinkSender::delay_spike`] models congestion without reordering.
//!
//! # Example
//!
//! ```
//! use streammine_net::{link, LinkConfig};
//!
//! let (tx, rx) = link::<u32>(LinkConfig::instant());
//! tx.send(7)?;
//! tx.send(8)?;
//! assert_eq!(rx.recv()?, (0, 7));
//! assert_eq!(rx.recv()?, (1, 8));
//! // Downstream crashed and recovered: replay everything retained.
//! tx.replay_from(0);
//! assert_eq!(rx.recv()?, (0, 7));
//! # Ok::<(), streammine_net::LinkError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod resilient;
pub mod tcp;
pub mod transport;

pub use resilient::{BackoffConfig, EdgeMetrics, ResilientSender, SendOutcome, SenderLimits};
pub use tcp::TcpTransport;
pub use transport::{
    FrameConn, FrameError, FrameListener, FrameRx, FrameTx, MemTransport, SharedFrameTx, Transport,
    MAX_FRAME,
};

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_channel::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;
use streammine_common::rng::DetRng;

/// Errors surfaced by link operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkError {
    /// The link is severed (failure injection) or the peer was dropped.
    Disconnected,
    /// `recv_timeout` elapsed without a message.
    Timeout,
    /// The link's credit window is exhausted: the consumer has not yet
    /// delivered enough in-flight messages. The message was **not** sent;
    /// retry after the consumer drains (backpressure, not failure).
    Saturated,
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Disconnected => write!(f, "link disconnected"),
            LinkError::Timeout => write!(f, "receive timed out"),
            LinkError::Saturated => write!(f, "link saturated (send window exhausted)"),
        }
    }
}

impl std::error::Error for LinkError {}

/// Default normal-class credit window of a link.
pub const DEFAULT_LINK_CAPACITY: usize = 1024;

/// Default reserved replay credit class of a link.
pub const DEFAULT_REPLAY_RESERVE: usize = 64;

/// Propagation-delay and flow-control model of a link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation delay added to each message.
    pub delay: Duration,
    /// Uniform jitter fraction on `delay` (FIFO order still preserved).
    pub jitter: f64,
    /// Seed for the jitter generator.
    pub seed: u64,
    /// Normal-class credit window: the maximum number of undelivered
    /// live messages in flight. Sends beyond it fail with
    /// [`LinkError::Saturated`] until the consumer drains.
    pub capacity: usize,
    /// Reserved credit class for replay traffic, on top of `capacity`.
    /// Replay re-sends draw from this pool so recovery makes progress
    /// even when the normal window is saturated.
    pub replay_reserve: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        Self::instant()
    }
}

impl LinkConfig {
    /// Zero-delay link (operators co-located in one process).
    pub fn instant() -> Self {
        LinkConfig {
            delay: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
            capacity: DEFAULT_LINK_CAPACITY,
            replay_reserve: DEFAULT_REPLAY_RESERVE,
        }
    }

    /// Typical LAN hop: 300 µs ± 20 %.
    pub fn lan() -> Self {
        LinkConfig {
            delay: Duration::from_micros(300),
            jitter: 0.2,
            seed: 0x1A4,
            ..Self::instant()
        }
    }

    /// Typical WAN hop: 20 ms ± 20 %.
    pub fn wan() -> Self {
        LinkConfig { delay: Duration::from_millis(20), jitter: 0.2, seed: 0x3A4, ..Self::instant() }
    }

    /// A fixed custom delay without jitter.
    pub fn with_delay(delay: Duration) -> Self {
        LinkConfig { delay, ..Self::instant() }
    }

    /// Overrides the normal-class credit window.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Overrides the reserved replay credit class.
    #[must_use]
    pub fn with_replay_reserve(mut self, reserve: usize) -> Self {
        self.replay_reserve = reserve;
        self
    }
}

/// Which credit pool an in-flight message drew from. Returned to the same
/// pool at delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CreditClass {
    Normal,
    Replay,
}

struct Spike {
    extra: Duration,
    until: Instant,
}

struct LinkShared<T> {
    severed: AtomicBool,
    retained: Mutex<VecDeque<(u64, T)>>,
    /// Normal-class credits remaining; a live send consumes one, delivery
    /// returns it. Never exceeds `capacity`, never goes below zero
    /// (acquire is fetch_sub + restore on failure).
    credits: AtomicI64,
    /// Replay-class credits remaining (reserved pool).
    replay_credits: AtomicI64,
    /// Transient extra delay window (congestion spike); self-clearing.
    spike: Mutex<Option<Spike>>,
}

/// Sending half of a link.
pub struct LinkSender<T> {
    shared: Arc<LinkShared<T>>,
    tx: Sender<(Instant, u64, CreditClass, T)>,
    next_seq: Arc<AtomicU64>,
    last_due: Arc<Mutex<Instant>>,
    config: LinkConfig,
    rng: Arc<Mutex<DetRng>>,
}

impl<T> Clone for LinkSender<T> {
    fn clone(&self) -> Self {
        LinkSender {
            shared: self.shared.clone(),
            tx: self.tx.clone(),
            next_seq: self.next_seq.clone(),
            last_due: self.last_due.clone(),
            config: self.config.clone(),
            rng: self.rng.clone(),
        }
    }
}

impl<T> fmt::Debug for LinkSender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinkSender")
            .field("next_seq", &self.next_seq.load(Ordering::Relaxed))
            .field("severed", &self.shared.severed.load(Ordering::Relaxed))
            .field("credits", &self.shared.credits.load(Ordering::Relaxed))
            .finish()
    }
}

/// Receiving half of a link.
pub struct LinkReceiver<T> {
    shared: Arc<LinkShared<T>>,
    rx: Receiver<(Instant, u64, CreditClass, T)>,
}

impl<T> fmt::Debug for LinkReceiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LinkReceiver")
            .field("severed", &self.shared.severed.load(Ordering::Relaxed))
            .finish()
    }
}

fn as_credits(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// Creates a link with the given delay and flow-control model.
///
/// # Panics
///
/// Panics when `config.capacity` or `config.replay_reserve` is zero: a
/// zero-credit link could never carry (or replay) a message.
pub fn link<T: Clone + Send + 'static>(config: LinkConfig) -> (LinkSender<T>, LinkReceiver<T>) {
    assert!(config.capacity > 0, "link capacity must be at least 1");
    assert!(config.replay_reserve > 0, "replay reserve must be at least 1");
    // The channel bound is a backstop: credit accounting already caps the
    // queue at capacity + replay_reserve, so channel sends never block.
    let (tx, rx) = crossbeam_channel::bounded(config.capacity + config.replay_reserve);
    let shared = Arc::new(LinkShared {
        severed: AtomicBool::new(false),
        retained: Mutex::new(VecDeque::new()),
        credits: AtomicI64::new(as_credits(config.capacity)),
        replay_credits: AtomicI64::new(as_credits(config.replay_reserve)),
        spike: Mutex::new(None),
    });
    let seed = config.seed;
    (
        LinkSender {
            shared: shared.clone(),
            tx,
            next_seq: Arc::new(AtomicU64::new(0)),
            last_due: Arc::new(Mutex::new(Instant::now())),
            config,
            rng: Arc::new(Mutex::new(DetRng::seed_from(seed))),
        },
        LinkReceiver { shared, rx },
    )
}

impl<T> LinkShared<T> {
    /// Takes one credit from `class`; `false` when the pool is empty.
    fn acquire(&self, class: CreditClass) -> bool {
        let pool = match class {
            CreditClass::Normal => &self.credits,
            CreditClass::Replay => &self.replay_credits,
        };
        if pool.fetch_sub(1, Ordering::AcqRel) <= 0 {
            pool.fetch_add(1, Ordering::AcqRel);
            return false;
        }
        true
    }

    /// Returns one credit to `class` (at delivery or on a failed send).
    fn release(&self, class: CreditClass) {
        match class {
            CreditClass::Normal => self.credits.fetch_add(1, Ordering::AcqRel),
            CreditClass::Replay => self.replay_credits.fetch_add(1, Ordering::AcqRel),
        };
    }
}

impl<T: Clone + Send + 'static> LinkSender<T> {
    fn due_time(&self) -> Instant {
        let mut delay = self.config.delay.as_secs_f64();
        if self.config.jitter > 0.0 {
            let f = 1.0 + self.config.jitter * (2.0 * self.rng.lock().next_f64() - 1.0);
            delay *= f;
        }
        let now = Instant::now();
        let mut due = now + Duration::from_secs_f64(delay.max(0.0));
        {
            let mut spike = self.shared.spike.lock();
            match spike.as_ref() {
                Some(s) if now < s.until => due += s.extra,
                Some(_) => *spike = None, // expired: self-clearing
                None => {}
            }
        }
        // FIFO: a message never arrives before its predecessor.
        let mut last = self.last_due.lock();
        let due = due.max(*last);
        *last = due;
        due
    }

    /// Sends a message; returns its link sequence number.
    ///
    /// The message is retained for replay until acknowledged via
    /// [`LinkSender::ack_upto`]. Consumes one normal-class credit,
    /// returned when the receiver delivers the message.
    ///
    /// # Errors
    ///
    /// [`LinkError::Disconnected`] while the link is severed or the
    /// receiver is gone; [`LinkError::Saturated`] when the credit window
    /// is exhausted (the message is neither sent nor retained — retry
    /// after the consumer drains).
    pub fn send(&self, msg: T) -> Result<u64, LinkError> {
        if self.shared.severed.load(Ordering::Acquire) {
            return Err(LinkError::Disconnected);
        }
        // Credit before sequence: a saturated send must not burn a seq
        // number, or the receiver's reorder buffer would see a gap.
        if !self.shared.acquire(CreditClass::Normal) {
            return Err(LinkError::Saturated);
        }
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        {
            let mut retained = self.shared.retained.lock();
            retained.push_back((seq, msg.clone()));
        }
        let due = self.due_time();
        if self.tx.send((due, seq, CreditClass::Normal, msg)).is_err() {
            // Receiver gone; the message stays retained for replay but its
            // credit comes back so accounting cannot leak.
            self.shared.release(CreditClass::Normal);
            return Err(LinkError::Disconnected);
        }
        Ok(seq)
    }

    /// Re-delivers every retained message with sequence `>= from`, in
    /// order, drawing from the reserved replay credit class. Used when the
    /// downstream recovers from a crash.
    ///
    /// Returns how many messages were re-sent. When the replay reserve
    /// runs out mid-replay the remainder is **not** sent (never skipped —
    /// a gap would wedge the receiver's reorder buffer); the caller's
    /// replay-retry watchdog re-requests the suffix once the consumer has
    /// drained.
    pub fn replay_from(&self, from: u64) -> usize {
        let mut sent = 0;
        for (seq, msg) in self.retained_from(from) {
            if !self.shared.acquire(CreditClass::Replay) {
                break;
            }
            let due = self.due_time();
            if self.tx.send((due, seq, CreditClass::Replay, msg)).is_err() {
                self.shared.release(CreditClass::Replay);
                break;
            }
            sent += 1;
        }
        sent
    }

    /// Copies of the retained messages with sequence `>= from`, in order.
    /// A transport bridge resends them itself after a reconnect, outside
    /// the credit window.
    pub fn retained_from(&self, from: u64) -> Vec<(u64, T)> {
        let retained = self.shared.retained.lock();
        retained.iter().filter(|(s, _)| *s >= from).cloned().collect()
    }

    /// Drops retained messages with sequence `< upto` — the downstream
    /// confirmed it will never need them again (paper's control message 5).
    /// This is the end-to-end credit grant piggybacked on acks: trimming
    /// retention is what lets the producer's retained-buffer cap admit new
    /// work.
    pub fn ack_upto(&self, upto: u64) {
        let mut retained = self.shared.retained.lock();
        while retained.front().map(|(s, _)| *s < upto).unwrap_or(false) {
            retained.pop_front();
        }
    }

    /// Number of messages currently retained for replay.
    pub fn retained_len(&self) -> usize {
        self.shared.retained.lock().len()
    }

    /// Total messages ever sent.
    pub fn sent(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Overrides the next link sequence number.
    ///
    /// Used when a fresh process incarnation adopts a surviving peer's
    /// delivery state: the reconnect handshake reports how many frames
    /// the receiver already consumed, and the sender continues numbering
    /// from there so the receiver's reorder buffer sees neither a gap
    /// nor stale duplicates. Only meaningful before the first send.
    pub fn set_next_seq(&self, next: u64) {
        self.next_seq.store(next, Ordering::Relaxed);
    }

    /// Normal-class credits currently available.
    pub fn credits_available(&self) -> i64 {
        self.shared.credits.load(Ordering::Acquire)
    }

    /// Replay-class credits currently available.
    pub fn replay_credits_available(&self) -> i64 {
        self.shared.replay_credits.load(Ordering::Acquire)
    }

    /// The configured normal-class credit window.
    pub fn capacity(&self) -> usize {
        self.config.capacity
    }

    /// Severs the link (failure injection): subsequent sends fail.
    pub fn sever(&self) {
        self.shared.severed.store(true, Ordering::Release);
    }

    /// Heals a severed link.
    pub fn heal(&self) {
        self.shared.severed.store(false, Ordering::Release);
    }

    /// Whether the link is currently severed.
    pub fn is_severed(&self) -> bool {
        self.shared.severed.load(Ordering::Acquire)
    }

    /// Adds `extra` propagation delay to every message sent within the
    /// next `window` (a congestion spike). Self-clearing; FIFO order is
    /// still preserved.
    pub fn delay_spike(&self, extra: Duration, window: Duration) {
        *self.shared.spike.lock() = Some(Spike { extra, until: Instant::now() + window });
    }

    /// Clears any active delay spike.
    pub fn clear_delay_spike(&self) {
        *self.shared.spike.lock() = None;
    }
}

impl<T: Clone + Send + 'static> LinkReceiver<T> {
    fn deliver(&self, due: Instant, seq: u64, class: CreditClass, msg: T) -> (u64, T) {
        // Credit returns at dequeue, before the propagation-delay sleep:
        // the wire slot is free as soon as the consumer takes the message.
        self.shared.release(class);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        (seq, msg)
    }

    /// Blocks for the next message; returns `(link_seq, message)`.
    ///
    /// # Errors
    ///
    /// [`LinkError::Disconnected`] when every sender is gone.
    pub fn recv(&self) -> Result<(u64, T), LinkError> {
        let (due, seq, class, msg) = self.rx.recv().map_err(|_| LinkError::Disconnected)?;
        Ok(self.deliver(due, seq, class, msg))
    }

    /// Non-blocking receive. `Ok(None)` when no message is queued (a taken
    /// message still sleeps out its remaining propagation delay).
    ///
    /// # Errors
    ///
    /// [`LinkError::Disconnected`] when every sender is gone.
    pub fn try_recv(&self) -> Result<Option<(u64, T)>, LinkError> {
        match self.rx.try_recv() {
            Ok((due, seq, class, msg)) => Ok(Some(self.deliver(due, seq, class, msg))),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(LinkError::Disconnected),
        }
    }

    /// Blocking receive with a timeout.
    ///
    /// # Errors
    ///
    /// [`LinkError::Timeout`] on timeout, [`LinkError::Disconnected`] when
    /// every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(u64, T), LinkError> {
        match self.rx.recv_timeout(timeout) {
            Ok((due, seq, class, msg)) => Ok(self.deliver(due, seq, class, msg)),
            Err(RecvTimeoutError::Timeout) => Err(LinkError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(LinkError::Disconnected),
        }
    }

    /// Drains and discards everything currently queued (crash simulation:
    /// in-flight messages to a dead process are lost). Credits return to
    /// their pools — the wire empties even though the process died.
    pub fn drain(&self) -> usize {
        let mut n = 0;
        while let Ok((_, _, class, _)) = self.rx.try_recv() {
            self.shared.release(class);
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_delivery_with_sequence_numbers() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        for i in 0..10 {
            assert_eq!(tx.send(i).unwrap(), u64::from(i));
        }
        for i in 0..10u8 {
            assert_eq!(rx.recv().unwrap(), (u64::from(i), i));
        }
    }

    #[test]
    fn delay_is_applied() {
        let (tx, rx) = link::<u8>(LinkConfig::with_delay(Duration::from_millis(5)));
        let start = Instant::now();
        tx.send(1).unwrap();
        let _ = rx.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn jittered_delay_preserves_fifo() {
        let cfg = LinkConfig {
            delay: Duration::from_micros(500),
            jitter: 0.9,
            seed: 42,
            ..LinkConfig::instant()
        };
        let (tx, rx) = link::<u32>(cfg);
        for i in 0..50 {
            tx.send(i).unwrap();
        }
        let mut prev = None;
        for _ in 0..50 {
            let (seq, _) = rx.recv().unwrap();
            if let Some(p) = prev {
                assert!(seq > p, "FIFO violated: {seq} after {p}");
            }
            prev = Some(seq);
        }
    }

    #[test]
    fn replay_redelivers_retained_suffix() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        for _ in 0..5 {
            rx.recv().unwrap();
        }
        assert_eq!(tx.replay_from(2), 3);
        assert_eq!(rx.recv().unwrap(), (2, 2));
        assert_eq!(rx.recv().unwrap(), (3, 3));
        assert_eq!(rx.recv().unwrap(), (4, 4));
    }

    #[test]
    fn ack_trims_retention() {
        let (tx, _rx) = link::<u8>(LinkConfig::instant());
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        assert_eq!(tx.retained_len(), 10);
        tx.ack_upto(7);
        assert_eq!(tx.retained_len(), 3);
    }

    #[test]
    fn severed_link_rejects_sends_until_healed() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        tx.send(1).unwrap();
        tx.sever();
        assert!(tx.is_severed());
        assert_eq!(tx.send(2).unwrap_err(), LinkError::Disconnected);
        tx.heal();
        tx.send(3).unwrap();
        assert_eq!(rx.recv().unwrap().1, 1);
        assert_eq!(rx.recv().unwrap().1, 3);
    }

    #[test]
    fn try_recv_and_timeout() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        assert_eq!(rx.try_recv().unwrap(), None);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)).unwrap_err(), LinkError::Timeout);
        tx.send(9).unwrap();
        assert_eq!(rx.try_recv().unwrap(), Some((0, 9)));
    }

    #[test]
    fn disconnect_when_sender_dropped() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        drop(tx);
        assert_eq!(rx.recv().unwrap_err(), LinkError::Disconnected);
    }

    #[test]
    fn drain_discards_queued_messages() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.drain(), 4);
        assert_eq!(rx.try_recv().unwrap(), None);
    }

    #[test]
    fn cloned_sender_shares_sequence_space() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        assert_eq!(tx.sent(), 2);
        assert_eq!(rx.recv().unwrap(), (0, 1));
        assert_eq!(rx.recv().unwrap(), (1, 2));
    }

    #[test]
    fn saturated_send_fails_without_burning_sequence() {
        let cfg = LinkConfig::instant().with_capacity(2).with_replay_reserve(1);
        let (tx, rx) = link::<u8>(cfg);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.send(3).unwrap_err(), LinkError::Saturated);
        assert_eq!(tx.sent(), 2, "a saturated send must not allocate a seq");
        assert_eq!(tx.credits_available(), 0);
        // Draining returns the credits; the send then succeeds with the
        // next contiguous sequence number.
        assert_eq!(rx.recv().unwrap(), (0, 1));
        assert_eq!(tx.send(3).unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), (1, 2));
        assert_eq!(rx.recv().unwrap(), (2, 3));
        assert_eq!(tx.credits_available(), 2);
    }

    #[test]
    fn replay_uses_reserved_credits_when_saturated() {
        let cfg = LinkConfig::instant().with_capacity(2).with_replay_reserve(2);
        let (tx, rx) = link::<u8>(cfg);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(tx.send(3).unwrap_err(), LinkError::Saturated);
        // The normal window is fully saturated, yet replay still proceeds
        // from the reserved pool.
        assert_eq!(tx.replay_from(0), 2);
        assert_eq!(tx.replay_credits_available(), 0);
        // Further replay stops (never skips) until the consumer drains.
        assert_eq!(tx.replay_from(0), 0);
        let mut seqs = Vec::new();
        for _ in 0..4 {
            seqs.push(rx.recv().unwrap().0);
        }
        assert_eq!(seqs, vec![0, 1, 0, 1]);
        assert_eq!(tx.credits_available(), 2);
        assert_eq!(tx.replay_credits_available(), 2);
    }

    #[test]
    fn delay_spike_applies_then_self_clears() {
        let (tx, rx) = link::<u8>(LinkConfig::instant());
        tx.delay_spike(Duration::from_millis(10), Duration::from_millis(50));
        let start = Instant::now();
        tx.send(1).unwrap();
        let _ = rx.recv().unwrap();
        assert!(start.elapsed() >= Duration::from_millis(10));
        tx.clear_delay_spike();
        let start = Instant::now();
        tx.send(2).unwrap();
        let _ = rx.recv().unwrap();
        assert!(start.elapsed() < Duration::from_millis(10));
    }
}
