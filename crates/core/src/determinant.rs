//! Determinants: the logged non-deterministic decisions.
//!
//! Precise recovery (§1, footnote 1) requires that a replayed execution
//! takes *exactly* the same non-deterministic decisions as the original:
//! which input stream an event was taken from, every random number drawn,
//! every physical-time read (§2.2). Operators can only obtain
//! non-determinism through the [`OpCtx`](crate::operator::OpCtx), which
//! records each draw as a [`Determinant`]; the set of determinants for one
//! input event forms one atomic log record ([`DecisionRecord`]).

use std::collections::VecDeque;
use std::fmt;

use streammine_common::codec::{Decode, DecodeError, Decoder, Encode, Encoder};

/// One recorded non-deterministic decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Determinant {
    /// Which input port the event at this serial was taken from (the
    /// union-order decision of §1: "a simple union operator … must log the
    /// order in which events were selected from the input streams").
    InputChoice(u32),
    /// A random 64-bit draw.
    Random(u64),
    /// A physical-time read, in microseconds.
    Time(u64),
}

impl fmt::Display for Determinant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Determinant::InputChoice(p) => write!(f, "input={p}"),
            Determinant::Random(v) => write!(f, "rand={v:#x}"),
            Determinant::Time(t) => write!(f, "time={t}us"),
        }
    }
}

impl Encode for Determinant {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Determinant::InputChoice(p) => {
                enc.put_u8(0);
                enc.put_u32(*p);
            }
            Determinant::Random(v) => {
                enc.put_u8(1);
                enc.put_u64(*v);
            }
            Determinant::Time(t) => {
                enc.put_u8(2);
                enc.put_u64(*t);
            }
        }
    }
}

impl Decode for Determinant {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(match dec.get_u8()? {
            0 => Determinant::InputChoice(dec.get_u32()?),
            1 => Determinant::Random(dec.get_u64()?),
            2 => Determinant::Time(dec.get_u64()?),
            tag => return Err(DecodeError::InvalidTag { type_name: "Determinant", tag }),
        })
    }
}

/// All determinants consumed while processing the event at `serial`.
/// One record is appended to the stable log per processed event (batched
/// with the input-order decision, as in §2.4's "set of decisions").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecisionRecord {
    /// The operator-local serial of the processed event.
    pub serial: u64,
    /// The decisions, in draw order.
    pub decisions: Vec<Determinant>,
}

impl DecisionRecord {
    /// A record for `serial` with no decisions yet.
    pub fn new(serial: u64) -> Self {
        DecisionRecord { serial, decisions: Vec::new() }
    }

    /// Whether any non-determinism was consumed.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// The decisions a re-execution of the event draws, in order. The
    /// input choice is left out: the engine's merge step consumed it.
    pub fn into_replay(self) -> VecDeque<Determinant> {
        let mut queue: VecDeque<Determinant> = self.decisions.into();
        if matches!(queue.front(), Some(Determinant::InputChoice(_))) {
            queue.pop_front();
        }
        queue
    }
}

impl Encode for DecisionRecord {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.serial);
        self.decisions.encode(enc);
    }
}

impl Decode for DecisionRecord {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(DecisionRecord { serial: dec.get_u64()?, decisions: Vec::<Determinant>::decode(dec)? })
    }
}

/// Replay cursor over recovered decision records.
///
/// During recovery the operator context pops determinants from this cursor
/// instead of drawing fresh ones; when the cursor is exhausted the operator
/// seamlessly switches back to live (drawing + logging) mode.
#[derive(Debug, Default)]
pub struct ReplayCursor {
    records: VecDeque<DecisionRecord>,
}

impl ReplayCursor {
    /// Builds a cursor from recovered records (must be sorted by serial).
    pub fn new(mut records: Vec<DecisionRecord>) -> Self {
        records.sort_by_key(|r| r.serial);
        ReplayCursor { records: records.into() }
    }

    /// Whether replay is finished.
    pub fn is_done(&self) -> bool {
        self.records.is_empty()
    }

    /// Serial of the next record to replay.
    pub fn next_serial(&self) -> Option<u64> {
        self.records.front().map(|r| r.serial)
    }

    /// The input-port choice logged for the next record, if any.
    pub fn peek_input_choice(&self) -> Option<u32> {
        self.records.front().and_then(|r| {
            r.decisions.iter().find_map(|d| match d {
                Determinant::InputChoice(p) => Some(*p),
                _ => None,
            })
        })
    }

    /// Takes the record for `serial`.
    ///
    /// # Panics
    ///
    /// Panics if the front record's serial does not match — that would mean
    /// replay diverged from the logged history.
    pub fn take(&mut self, serial: u64) -> DecisionRecord {
        let front = self.records.pop_front().expect("replay cursor exhausted");
        assert_eq!(
            front.serial, serial,
            "replay diverged: expected serial {} got {serial}",
            front.serial
        );
        front
    }

    /// Number of records left.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the cursor is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streammine_common::codec::roundtrip;

    #[test]
    fn determinants_roundtrip() {
        for d in [Determinant::InputChoice(3), Determinant::Random(0xDEAD), Determinant::Time(99)] {
            assert_eq!(roundtrip(&d).unwrap(), d);
        }
    }

    #[test]
    fn record_roundtrips() {
        let rec = DecisionRecord {
            serial: 7,
            decisions: vec![Determinant::InputChoice(1), Determinant::Random(42)],
        };
        assert_eq!(roundtrip(&rec).unwrap(), rec);
        assert!(!rec.is_empty());
        assert!(DecisionRecord::new(0).is_empty());
    }

    #[test]
    fn cursor_replays_in_serial_order() {
        let mut cur = ReplayCursor::new(vec![
            DecisionRecord::new(2),
            DecisionRecord::new(0),
            DecisionRecord::new(1),
        ]);
        assert_eq!(cur.next_serial(), Some(0));
        assert_eq!(cur.len(), 3);
        cur.take(0);
        cur.take(1);
        cur.take(2);
        assert!(cur.is_done());
    }

    #[test]
    #[should_panic(expected = "replay diverged")]
    fn cursor_detects_divergence() {
        let mut cur = ReplayCursor::new(vec![DecisionRecord::new(5)]);
        cur.take(6);
    }

    #[test]
    fn invalid_tag_is_error() {
        let err = streammine_common::codec::decode_from_slice::<Determinant>(&[7]).unwrap_err();
        assert!(matches!(err, DecodeError::InvalidTag { .. }));
    }
}
