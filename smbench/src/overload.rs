//! The overload phase and the defect probes of the traced run.
//!
//! Each of these can leave the engine stuck for good, so each runs under a
//! no-progress watchdog and reports what it saw instead of waiting: how
//! many events never became final, and which operator sat at its
//! speculation cap. None of them lowers its load to stay clear of a stall.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use streammine::common::event::Value;
use streammine::obs::{Labels, RegistrySnapshot};
use streammine::storage::DiskSpec;
use streammine_bench::relay_pipeline;

use crate::system::{self, System};

/// How long the overload phase offers load.
const OVERLOAD_FOR: Duration = Duration::from_secs(2);
/// No new final event for this long, with events outstanding, is a stall.
const NO_PROGRESS: Duration = Duration::from_millis(800);
/// The engine's default cap on open speculations per operator.
const SPEC_CAP: i64 = 256;

/// What the overload phase saw.
#[derive(Debug)]
pub struct Overload {
    /// Final events per second while the sink made progress.
    pub max_ev_per_s: f64,
    /// Share of pushed events not final when the watchdog fired; zero when
    /// the stream kept moving.
    pub unfinished_ratio: f64,
    /// Graph index of the last operator found at its speculation cap,
    /// `-1` for none.
    pub capped_op: i64,
}

/// The operators sitting at the speculation cap, as `(index, open,
/// intake depth)`.
fn at_cap(metrics: &RegistrySnapshot, ops: usize) -> Vec<(u32, i64, i64)> {
    (0..ops as u32)
        .filter_map(|op| {
            let open = metrics.gauge("spec.open", Labels::op(op))?;
            let intake = metrics.gauge("node.intake_depth", Labels::op(op)).unwrap_or(0);
            (open >= SPEC_CAP).then_some((op, open, intake))
        })
        .collect()
}

/// Pushes `inputs` flat out (cycling) from a thread of its own into a
/// fresh system for [`OVERLOAD_FOR`], or until the sink stops making
/// progress. A stuck pusher is left behind: the process exits without
/// joining it.
pub fn overload(system: System, names: &[&str], inputs: Vec<Value>) -> Overload {
    let system = Arc::new(system);
    let pushed = Arc::new(AtomicUsize::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let pusher = {
        let (system, pushed, stop) = (system.clone(), pushed.clone(), stop.clone());
        std::thread::spawn(move || {
            for v in inputs.iter().cycle() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                system.push(v.clone());
                pushed.fetch_add(1, Ordering::Relaxed);
            }
        })
    };
    let start = Instant::now();
    let (mut last_count, mut last_progress) = (0, start);
    let mut wedged = false;
    while start.elapsed() < OVERLOAD_FOR {
        std::thread::sleep(Duration::from_millis(10));
        let finals = system.sink().final_count();
        if finals > last_count {
            (last_count, last_progress) = (finals, Instant::now());
        } else if last_progress.elapsed() >= NO_PROGRESS && pushed.load(Ordering::Relaxed) > finals
        {
            wedged = true;
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    let window = last_progress.duration_since(start).as_secs_f64();
    let metrics = system.metrics();
    let capped = at_cap(&metrics, names.len());
    let sent = pushed.load(Ordering::Relaxed);
    let finals = system.sink().final_count();
    eprintln!(
        "overload: pushed {sent}, final {finals} in {:.2} s{}",
        start.elapsed().as_secs_f64(),
        if wedged { ", NO PROGRESS: the engine is wedged" } else { "" }
    );
    for (op, open, intake) in &capped {
        eprintln!(
            "overload: operator {op} ({}) at its speculation cap: spec.open {open}, intake {intake}",
            names[*op as usize]
        );
    }
    let out = Overload {
        max_ev_per_s: if window > 0.0 { last_count as f64 / window } else { 0.0 },
        unfinished_ratio: if wedged { (sent - finals) as f64 / sent as f64 } else { 0.0 },
        capped_op: capped.last().map_or(-1, |c| i64::from(c.0)),
    };
    if !wedged {
        // A moving stream drains once the pusher stops; a wedged one
        // would block shutdown forever, so it is left running.
        let _ = pusher.join();
        if let Ok(system) = Arc::try_unwrap(system) {
            system.shutdown();
        }
    } else if let System::Cluster(c) = &*system {
        // Worker processes must not outlive the run.
        c.shutdown();
    }
    out
}

/// Share of post-crash events a speculative relay chain never finalizes
/// after an in-process crash + restart of its middle operator.
pub fn spec_crash_unfinished() -> f64 {
    const BEFORE: usize = 100;
    const AFTER: usize = 100;
    let (running, src, sink) =
        relay_pipeline(system::CHAIN_HOPS, true, vec![DiskSpec::simulated(Duration::ZERO)]);
    let (_, middle) = running.edge_endpoints(0);
    for i in 0..BEFORE {
        running.source(src).push(Value::Int(i as i64));
    }
    running.sink(sink).wait_final(BEFORE, Duration::from_secs(5));
    running.crash(middle);
    running.recover(middle);
    for i in BEFORE..BEFORE + AFTER {
        running.source(src).push(Value::Int(i as i64));
    }
    running.sink(sink).wait_final(BEFORE + AFTER, NO_PROGRESS);
    let missing = BEFORE + AFTER - running.sink(sink).final_count().min(BEFORE + AFTER);
    if missing > 0 {
        eprintln!(
            "spec crash probe: {missing} of {AFTER} post-crash events never final after an \
             in-process crash + restart of a speculative relay"
        );
        // Shutting down a graph with stuck speculations may block.
        std::mem::forget(running);
    } else {
        system::shutdown_within(move || running.shutdown());
    }
    missing as f64 / AFTER as f64
}

/// Start/stop cycles of the shutdown-hang probe.
const SHUTDOWN_CYCLES: usize = 2000;

/// Hung shutdowns per 1000 start/stop cycles of a fig6-skew graph that
/// never sees an event (see [`system::shutdown_within`]).
pub fn shutdown_hangs_per_1k() -> f64 {
    let hung = (0..SHUTDOWN_CYCLES).filter(|_| !system::fig6().shutdown()).count();
    if hung > 0 {
        eprintln!(
            "shutdown probe: {hung} of {SHUTDOWN_CYCLES} shutdowns of a fig6-skew graph hung"
        );
    }
    1e3 * hung as f64 / SHUTDOWN_CYCLES as f64
}

/// Share of post-kill events a precise worker cluster never finalizes when
/// the killed worker had `history` events behind it.
pub fn late_kill_unfinished(worker_bin: PathBuf, history: usize) -> f64 {
    const AFTER: usize = 50;
    let Ok(system) = system::cluster3(worker_bin) else {
        crate::fail("late-kill probe: cluster launch failed")
    };
    for i in 0..history {
        system.push(Value::Int(i as i64));
        std::thread::sleep(Duration::from_millis(1));
    }
    system.sink().wait_final(history, Duration::from_secs(5));
    system.fault();
    for i in history..history + AFTER {
        system.push(Value::Int(i as i64));
        std::thread::sleep(Duration::from_millis(2));
    }
    system.sink().wait_final(history + AFTER, Duration::from_secs(2));
    let missing = history + AFTER - system.sink().final_count().min(history + AFTER);
    if missing > 0 {
        eprintln!(
            "late kill probe: {missing} of {AFTER} post-kill events never final after \
             SIGKILL of a worker with {history} events of history"
        );
    }
    system.shutdown();
    missing as f64 / AFTER as f64
}
