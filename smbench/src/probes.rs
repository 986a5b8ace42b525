//! Per-layer probes: each times calls into one layer's public API from
//! outside, away from any workload, and reports a median.

use std::sync::Arc;
use std::time::{Duration, Instant};

use streammine::common::codec::{decode_from_slice, encode_to_vec};
use streammine::common::event::{Event, Value};
use streammine::common::ids::{EventId, OperatorId};
use streammine::core::Message;
use streammine::net::{link, LinkConfig, MemTransport, TcpTransport, Transport};
use streammine::stm::{Serial, StmRuntime, TVar};
use streammine::storage::{CheckpointStore, DiskSpec, LogSeq, StableLog};

use crate::stats::{median, median_call_ns};

/// Events per `DataBatch` in the batch-encode probe.
const BATCH: usize = 16;

/// Median commit time (ns) of a transaction updating `vars` variables.
pub fn stm_commit_ns(vars: usize, reps: usize) -> f64 {
    let rt = StmRuntime::new();
    let tvars: Vec<TVar<i64>> = (0..vars).map(|_| rt.new_var(0i64)).collect();
    let mut serial = 0u64;
    median_call_ns(reps, || {
        let (h, ()) = rt
            .execute(Serial(serial), |txn| {
                for v in &tvars {
                    txn.update(v, |x| x + 1)?;
                }
                Ok(())
            })
            .expect("uncontended transaction");
        h.authorize();
        h.wait_committed();
        serial += 1;
    })
}

/// Median append → stable time (µs) of one 8-byte record on `disks`.
pub fn log_append_us(disks: Vec<DiskSpec>, reps: usize) -> f64 {
    let log = StableLog::new(disks);
    let out = median_call_ns(reps, || log.append(vec![0u8; 8]).wait()) / 1e3;
    log.shutdown();
    out
}

/// Median checkpoint save time (µs) of a `state_bytes` snapshot on a
/// zero-latency device.
pub fn checkpoint_save_us(state_bytes: usize, reps: usize) -> f64 {
    let store = CheckpointStore::new(DiskSpec::simulated(Duration::ZERO));
    let state = vec![7u8; state_bytes];
    let mut covers = 0;
    median_call_ns(reps, || {
        covers += 1;
        store.save(LogSeq(covers), covers, vec![covers], vec![covers], state.clone(), vec![0; 32]);
    }) / 1e3
}

/// Median one-way time (µs) of an in-process link hop: half a ping-pong
/// round trip over two instant links.
pub fn link_hop_us(reps: usize) -> f64 {
    let (ping_tx, ping_rx) = link::<u64>(LinkConfig::instant());
    let (pong_tx, pong_rx) = link::<u64>(LinkConfig::instant());
    let echo = std::thread::spawn(move || {
        while let Ok((_, v)) = ping_rx.recv() {
            if pong_tx.send(v).is_err() {
                break;
            }
        }
    });
    let out = median_call_ns(reps, || {
        ping_tx.send(1).expect("ping");
        pong_rx.recv().expect("pong");
    }) / 2e3;
    drop(ping_tx);
    let _ = echo.join();
    out
}

/// Median round trip (µs) of a 64-byte frame echoed over `transport`.
pub fn frame_rtt_us(transport: Arc<dyn Transport>, bind: &str, reps: usize) -> f64 {
    let listener = transport.bind(bind).expect("bind");
    let addr = listener.local_addr();
    let echo = std::thread::spawn(move || {
        let mut conn = listener.accept().expect("accept");
        while let Ok(frame) = conn.recv() {
            if conn.send(&frame).is_err() {
                break;
            }
        }
    });
    let mut conn = transport.dial(&addr).expect("dial");
    let frame = [5u8; 64];
    let out = median_call_ns(reps, || {
        conn.send(&frame).expect("send");
        conn.recv().expect("recv");
    }) / 1e3;
    drop(conn);
    let _ = echo.join();
    out
}

pub fn mem_frame_rtt_us(reps: usize) -> f64 {
    frame_rtt_us(Arc::new(MemTransport::new()), "", reps)
}

pub fn tcp_frame_rtt_us(reps: usize) -> f64 {
    frame_rtt_us(Arc::new(TcpTransport::new()), "127.0.0.1:0", reps)
}

fn sample_event(i: u64, payload: &Value) -> Event {
    Event::new(EventId::new(OperatorId::new(0), i << 16), 1_000_000 + i, payload.clone())
}

/// Codec costs for events carrying `payload`: encode ns, decode ns,
/// `DataBatch` encode ns per event, and encoded bytes per batched event.
pub struct CodecCost {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub batch_encode_ns_per_event: f64,
    pub bytes_per_event: f64,
}

/// Times codec calls in groups of `group` (so each sample is well above
/// the clock's resolution) and reports per-call medians over `samples`.
pub fn codec_cost(payload: &Value, samples: usize, group: usize) -> CodecCost {
    let event = sample_event(7, payload);
    let bytes = encode_to_vec(&event);
    let per_call = |f: &mut dyn FnMut()| {
        let mut v = Vec::with_capacity(samples);
        for _ in 0..samples {
            let t = Instant::now();
            for _ in 0..group {
                f();
            }
            v.push(t.elapsed().as_nanos() as f64 / group as f64);
        }
        median(&v)
    };
    let encode_ns = per_call(&mut || {
        std::hint::black_box(encode_to_vec(std::hint::black_box(&event)));
    });
    let decode_ns = per_call(&mut || {
        let e: Event = decode_from_slice(std::hint::black_box(&bytes)).expect("decode");
        std::hint::black_box(e);
    });
    let batch = Message::DataBatch((0..BATCH as u64).map(|i| sample_event(i, payload)).collect());
    let batch_bytes = encode_to_vec(&batch).len();
    let batch_encode = per_call(&mut || {
        std::hint::black_box(encode_to_vec(std::hint::black_box(&batch)));
    });
    CodecCost {
        encode_ns,
        decode_ns,
        batch_encode_ns_per_event: batch_encode / BATCH as f64,
        bytes_per_event: batch_bytes as f64 / BATCH as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_measure_something() {
        assert!(stm_commit_ns(8, 50) > 0.0);
        assert!(log_append_us(vec![DiskSpec::simulated(Duration::ZERO)], 20) > 0.0);
        assert!(checkpoint_save_us(256, 10) > 0.0);
        assert!(link_hop_us(50) > 0.0);
        assert!(mem_frame_rtt_us(50) > 0.0);
        assert!(tcp_frame_rtt_us(50) > 0.0);
        let c = codec_cost(&Value::Int(3), 5, 10);
        assert!(c.encode_ns > 0.0 && c.decode_ns > 0.0 && c.bytes_per_event > 8.0);
    }
}
