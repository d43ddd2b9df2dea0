//! txsan: event collection for the transactional sanitizer.
//!
//! When the `txsan` cargo feature is enabled, the STM (and the HCF layers
//! above it) log fine-grained events — transactional reads and writes,
//! commit write-backs, direct stores, lock transitions, publication-record
//! transitions — into a global lock-free ring. The `san` crate replays the
//! ring offline to verify opacity, conflict-serializability, lock
//! subscription discipline and the publication-record state machine; see
//! `docs/SANITIZER.md`.
//!
//! This module itself is always compiled (it is dead weight without the
//! feature); only the *call sites* in `txn.rs`/`mem.rs`/`lock.rs` are
//! gated, so a build without `txsan` pays nothing.
//!
//! # Design
//!
//! * The ring is a fixed array of slots, each a `ready` word plus a
//!   fixed-size payload of plain `u64`s. Writers claim a slot with a
//!   `fetch_add` on the cursor, fill the payload with relaxed stores, and
//!   publish with a release store of the event kind into `ready`. The
//!   reader ([`SanSession::finish`]) runs after all worker threads joined
//!   and loads `ready` with acquire ordering, so payloads are fully
//!   visible. Once the ring is full, further events bump a `dropped`
//!   counter instead of wrapping — the replayer treats a non-zero drop
//!   count as "log truncated" rather than silently verifying a hole.
//! * Logging is a no-op unless a [`SanSession`] is active; the fast path
//!   is one relaxed load and a branch.
//! * Replay-order soundness: the checker in `crates/san` interprets ring
//!   order as execution order. That holds when execution is serialized —
//!   single-threaded tests, or the lockstep runtime (one thread runs
//!   between scheduler sync points, and the STM's commit/read sequences
//!   perform no runtime calls between claiming their ring slots and their
//!   shared-memory effects).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use crate::error::AbortCause;

/// Pseudo thread id used when an event is logged from a context with no
/// [`Runtime`](crate::Runtime) at hand (allocation-time zeroing stores).
pub const TID_NONE: u64 = u64::MAX;

/// Number of payload words per event.
const PAYLOAD: usize = 5;

/// Default ring capacity (events). At 48 bytes per slot this is ~24 MiB,
/// enough for the sanitized sim workloads in `crates/san/tests`.
pub const DEFAULT_CAPACITY: usize = 1 << 19;

/// One event observed by the sanitizer. Payload fields are raw `u64`s:
/// `addr` is the word address inside the [`TMem`](crate::TMem), `line` the
/// conflict-detection line, `orec` a raw [`OrecValue`](crate::orec::OrecValue).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // field names are self-describing; variants are documented
pub enum SanEvent {
    /// A transaction began with clock snapshot `rv`.
    TxBegin { txid: u64, tid: u64, rv: u64 },
    /// A transactional read returned `value`; `orec` is the line's orec as
    /// first observed (validated unlocked and `version <= rv`).
    TxRead {
        txid: u64,
        addr: u64,
        value: u64,
        orec: u64,
        line: u64,
    },
    /// A buffered transactional store.
    TxWrite { txid: u64, addr: u64, value: u64 },
    /// One word published during commit write-back with write version `wv`.
    TxCommitWrite {
        txid: u64,
        addr: u64,
        value: u64,
        wv: u64,
    },
    /// A transaction committed. `wv` is zero for read-only commits (they do
    /// not bump the clock); `n_writes` is the write-set size in words.
    TxCommitted {
        txid: u64,
        tid: u64,
        wv: u64,
        n_writes: u64,
    },
    /// A transaction aborted (see [`encode_cause`]).
    TxAborted { txid: u64, cause: u64 },
    /// A non-transactional store. `wv` is the line version the store
    /// published (a fresh clock value, or a lock holder's acquisition
    /// version under `DirectCtx::under_lock`), or zero for stores that
    /// bypass the orec protocol (line-aligned allocation zeroing).
    DirectWrite {
        tid: u64,
        addr: u64,
        value: u64,
        wv: u64,
    },
    /// An [`ElidableLock`](crate::ElidableLock) exists at `word`.
    /// `fallback` is 1 when the lock was marked as a fallback lock that
    /// update transactions must subscribe to.
    LockRegistered { word: u64, fallback: u64 },
    /// Lock at `word` acquired by `tid` (logged before the quiesce, i.e. at
    /// the start of the held window).
    LockAcquired { tid: u64, word: u64 },
    /// Lock at `word` released by `tid`.
    LockReleased { tid: u64, word: u64 },
    /// A publication record moved `from -> to` (raw `OpStatus` values).
    RecTransition { rec: u64, from: u64, to: u64 },
    /// A publication-array slot at `slot` is owned by `owner` and guarded
    /// by the selection lock at `sel_lock`.
    SlotRegistered {
        slot: u64,
        owner: u64,
        sel_lock: u64,
    },
}

impl SanEvent {
    fn encode(self) -> (u64, [u64; PAYLOAD]) {
        match self {
            SanEvent::TxBegin { txid, tid, rv } => (1, [txid, tid, rv, 0, 0]),
            SanEvent::TxRead {
                txid,
                addr,
                value,
                orec,
                line,
            } => (2, [txid, addr, value, orec, line]),
            SanEvent::TxWrite { txid, addr, value } => (3, [txid, addr, value, 0, 0]),
            SanEvent::TxCommitWrite {
                txid,
                addr,
                value,
                wv,
            } => (4, [txid, addr, value, wv, 0]),
            SanEvent::TxCommitted {
                txid,
                tid,
                wv,
                n_writes,
            } => (5, [txid, tid, wv, n_writes, 0]),
            SanEvent::TxAborted { txid, cause } => (6, [txid, cause, 0, 0, 0]),
            SanEvent::DirectWrite {
                tid,
                addr,
                value,
                wv,
            } => (7, [tid, addr, value, wv, 0]),
            SanEvent::LockRegistered { word, fallback } => (8, [word, fallback, 0, 0, 0]),
            SanEvent::LockAcquired { tid, word } => (9, [tid, word, 0, 0, 0]),
            SanEvent::LockReleased { tid, word } => (10, [tid, word, 0, 0, 0]),
            SanEvent::RecTransition { rec, from, to } => (11, [rec, from, to, 0, 0]),
            SanEvent::SlotRegistered {
                slot,
                owner,
                sel_lock,
            } => (12, [slot, owner, sel_lock, 0, 0]),
        }
    }

    fn decode(kind: u64, d: [u64; PAYLOAD]) -> Option<SanEvent> {
        Some(match kind {
            1 => SanEvent::TxBegin {
                txid: d[0],
                tid: d[1],
                rv: d[2],
            },
            2 => SanEvent::TxRead {
                txid: d[0],
                addr: d[1],
                value: d[2],
                orec: d[3],
                line: d[4],
            },
            3 => SanEvent::TxWrite {
                txid: d[0],
                addr: d[1],
                value: d[2],
            },
            4 => SanEvent::TxCommitWrite {
                txid: d[0],
                addr: d[1],
                value: d[2],
                wv: d[3],
            },
            5 => SanEvent::TxCommitted {
                txid: d[0],
                tid: d[1],
                wv: d[2],
                n_writes: d[3],
            },
            6 => SanEvent::TxAborted {
                txid: d[0],
                cause: d[1],
            },
            7 => SanEvent::DirectWrite {
                tid: d[0],
                addr: d[1],
                value: d[2],
                wv: d[3],
            },
            8 => SanEvent::LockRegistered {
                word: d[0],
                fallback: d[1],
            },
            9 => SanEvent::LockAcquired {
                tid: d[0],
                word: d[1],
            },
            10 => SanEvent::LockReleased {
                tid: d[0],
                word: d[1],
            },
            11 => SanEvent::RecTransition {
                rec: d[0],
                from: d[1],
                to: d[2],
            },
            12 => SanEvent::SlotRegistered {
                slot: d[0],
                owner: d[1],
                sel_lock: d[2],
            },
            _ => return None,
        })
    }
}

/// Encodes an [`AbortCause`] into the `cause` payload of
/// [`SanEvent::TxAborted`].
pub fn encode_cause(c: AbortCause) -> u64 {
    match c {
        AbortCause::Conflict => 0,
        AbortCause::Capacity => 1,
        AbortCause::OutOfMemory => 2,
        AbortCause::Explicit(code) => 0x100 | code as u64,
    }
}

/// Inverse of [`encode_cause`].
pub fn decode_cause(v: u64) -> Option<AbortCause> {
    Some(match v {
        0 => AbortCause::Conflict,
        1 => AbortCause::Capacity,
        2 => AbortCause::OutOfMemory,
        c if c & 0x100 != 0 && c <= 0x1FF => AbortCause::Explicit((c & 0xFF) as u8),
        _ => return None,
    })
}

struct Slot {
    /// Zero while empty; the event kind once published (release store).
    ready: AtomicU64,
    data: [AtomicU64; PAYLOAD],
}

struct EventRing {
    slots: Box<[Slot]>,
    /// Next slot to claim; may run past `slots.len()` (overflow).
    cursor: AtomicU64,
    dropped: AtomicU64,
}

impl EventRing {
    fn new(capacity: usize) -> Self {
        let slots = (0..capacity)
            .map(|_| Slot {
                ready: AtomicU64::new(0),
                data: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        EventRing {
            slots,
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn push(&self, ev: SanEvent) {
        let idx = self.cursor.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = self.slots.get(idx as usize) else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        };
        let (kind, data) = ev.encode();
        for (d, v) in slot.data.iter().zip(data) {
            d.store(v, Ordering::Relaxed);
        }
        slot.ready.store(kind, Ordering::Release);
    }

    /// Clears every slot claimed since the last reset.
    ///
    /// Cold session-control path (runs once per sanitizer session while
    /// no workers are live); `SeqCst` is kept deliberately — it costs
    /// nothing here and makes the session open/close totally ordered
    /// with respect to the `ACTIVE` flag below.
    fn reset(&self) {
        // hcf-lint: allow(seqcst) — cold ring control, total order with ACTIVE.
        let used = (self.cursor.load(Ordering::SeqCst) as usize).min(self.slots.len());
        for slot in &self.slots[..used] {
            slot.ready.store(0, Ordering::SeqCst); // hcf-lint: allow(seqcst) — cold ring control
        }
        self.dropped.store(0, Ordering::SeqCst); // hcf-lint: allow(seqcst) — cold ring control
        self.cursor.store(0, Ordering::SeqCst); // hcf-lint: allow(seqcst) — cold ring control
    }

    fn collect(&self) -> SanLog {
        // hcf-lint: allow(seqcst) — cold collection path, workers joined.
        let claimed = self.cursor.load(Ordering::SeqCst) as usize;
        let used = claimed.min(self.slots.len());
        let mut dropped = self.dropped.load(Ordering::SeqCst); // hcf-lint: allow(seqcst) — cold collection path
        let mut events = Vec::with_capacity(used);
        for slot in &self.slots[..used] {
            let kind = slot.ready.load(Ordering::Acquire);
            let data = std::array::from_fn(|i| slot.data[i].load(Ordering::Relaxed));
            match SanEvent::decode(kind, data) {
                Some(ev) => events.push(ev),
                // Claimed but never published (only possible if a worker
                // died mid-push); count it with the overflow drops.
                None => dropped += 1,
            }
        }
        SanLog { events, dropped }
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static RING: OnceLock<EventRing> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A dense process-wide id, used for transaction and record identities in
/// events. Ids are unique across sessions.
#[inline]
pub fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Whether a sanitizer session is currently collecting events.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Records `ev` if a session is active; otherwise a cheap no-op.
#[inline]
pub fn log(ev: SanEvent) {
    if !enabled() {
        return;
    }
    if let Some(ring) = RING.get() {
        ring.push(ev);
    }
}

/// The events collected by a [`SanSession`], in ring (claim) order.
#[derive(Clone, Debug, Default)]
pub struct SanLog {
    /// Collected events in execution order (see the module docs for when
    /// ring order is execution order).
    pub events: Vec<SanEvent>,
    /// Number of events lost to ring overflow. A replayer must refuse to
    /// certify a truncated log.
    pub dropped: u64,
}

/// An exclusive event-collection window. Only one session may be active per
/// process; start before spawning workers and finish after joining them.
#[derive(Debug)]
pub struct SanSession {
    finished: bool,
}

impl SanSession {
    /// Starts collecting with [`DEFAULT_CAPACITY`].
    ///
    /// # Panics
    ///
    /// Panics if another session is active.
    pub fn start() -> SanSession {
        SanSession::start_with_capacity(DEFAULT_CAPACITY)
    }

    /// Starts collecting into a ring of at least `capacity` events. The
    /// backing ring is allocated once per process on first use; a later
    /// session's `capacity` is ignored if a ring already exists.
    ///
    /// # Panics
    ///
    /// Panics if another session is active.
    pub fn start_with_capacity(capacity: usize) -> SanSession {
        assert!(
            ACTIVE
                // Session open/close is a cold, once-per-run handshake;
                // SeqCst keeps it totally ordered with the ring resets.
                // hcf-lint: allow(seqcst) — cold session control.
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok(),
            "another txsan session is already active"
        );
        // Publish the reset before workers can observe `enabled()`; the
        // store above wins the exclusivity race, the ring reset below is
        // ordered before this thread spawns any worker.
        RING.get_or_init(|| EventRing::new(capacity)).reset();
        SanSession { finished: false }
    }

    /// Stops collecting and returns the log. Call after all instrumented
    /// threads have been joined, so every claimed slot is published.
    pub fn finish(mut self) -> SanLog {
        self.finished = true;
        ACTIVE.store(false, Ordering::SeqCst); // hcf-lint: allow(seqcst) — cold session control
        RING.get().map(EventRing::collect).unwrap_or_default()
    }
}

impl Drop for SanSession {
    fn drop(&mut self) {
        if !self.finished {
            ACTIVE.store(false, Ordering::SeqCst); // hcf-lint: allow(seqcst) — cold session control
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcf_util::sync::Mutex;

    /// Sessions are process-global; serialize the tests that use one.
    static SESSION_GATE: Mutex<()> = Mutex::new(());

    #[test]
    fn encode_decode_round_trip() {
        let events = [
            SanEvent::TxBegin {
                txid: 1,
                tid: 2,
                rv: 3,
            },
            SanEvent::TxRead {
                txid: 1,
                addr: 4,
                value: 5,
                orec: 6,
                line: 7,
            },
            SanEvent::TxWrite {
                txid: 1,
                addr: 4,
                value: 9,
            },
            SanEvent::TxCommitWrite {
                txid: 1,
                addr: 4,
                value: 9,
                wv: 10,
            },
            SanEvent::TxCommitted {
                txid: 1,
                tid: 2,
                wv: 10,
                n_writes: 1,
            },
            SanEvent::TxAborted {
                txid: 8,
                cause: encode_cause(AbortCause::Conflict),
            },
            SanEvent::DirectWrite {
                tid: 2,
                addr: 4,
                value: 0,
                wv: 11,
            },
            SanEvent::LockRegistered {
                word: 64,
                fallback: 1,
            },
            SanEvent::LockAcquired { tid: 2, word: 64 },
            SanEvent::LockReleased { tid: 2, word: 64 },
            SanEvent::RecTransition {
                rec: 3,
                from: 0,
                to: 1,
            },
            SanEvent::SlotRegistered {
                slot: 128,
                owner: 2,
                sel_lock: 64,
            },
        ];
        for ev in events {
            let (kind, data) = ev.encode();
            assert_eq!(SanEvent::decode(kind, data), Some(ev));
        }
        assert_eq!(SanEvent::decode(0, [0; PAYLOAD]), None);
        assert_eq!(SanEvent::decode(99, [0; PAYLOAD]), None);
    }

    #[test]
    fn cause_round_trip() {
        for c in [
            AbortCause::Conflict,
            AbortCause::Capacity,
            AbortCause::OutOfMemory,
            AbortCause::Explicit(AbortCause::LOCK_HELD),
            AbortCause::Explicit(0),
        ] {
            assert_eq!(decode_cause(encode_cause(c)), Some(c));
        }
        assert_eq!(decode_cause(77), None);
    }

    #[test]
    fn ring_overflow_counts_drops() {
        let ring = EventRing::new(2);
        for i in 0..5 {
            ring.push(SanEvent::TxBegin {
                txid: i,
                tid: 0,
                rv: 0,
            });
        }
        let log = ring.collect();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.dropped, 3);
        ring.reset();
        assert_eq!(ring.collect().events.len(), 0);
    }

    #[test]
    fn session_collects_in_order() {
        let _g = SESSION_GATE.lock();
        let s = SanSession::start();
        log(SanEvent::TxBegin {
            txid: 7,
            tid: 0,
            rv: 0,
        });
        log(SanEvent::TxCommitted {
            txid: 7,
            tid: 0,
            wv: 0,
            n_writes: 0,
        });
        let out = s.finish();
        assert_eq!(out.dropped, 0);
        assert_eq!(
            out.events,
            vec![
                SanEvent::TxBegin {
                    txid: 7,
                    tid: 0,
                    rv: 0
                },
                SanEvent::TxCommitted {
                    txid: 7,
                    tid: 0,
                    wv: 0,
                    n_writes: 0
                },
            ]
        );
    }

    #[test]
    fn logging_without_session_is_dropped() {
        let _g = SESSION_GATE.lock();
        log(SanEvent::TxBegin {
            txid: 99,
            tid: 0,
            rv: 0,
        });
        let s = SanSession::start();
        let out = s.finish();
        assert!(out.events.is_empty(), "pre-session events must not leak in");
    }

    #[test]
    fn sessions_are_exclusive_and_reusable() {
        let _g = SESSION_GATE.lock();
        let s = SanSession::start();
        drop(s); // un-finished drop releases the slot
        let s2 = SanSession::start();
        log(SanEvent::LockAcquired { tid: 1, word: 8 });
        assert_eq!(s2.finish().events.len(), 1);
    }

    #[test]
    fn fresh_ids_are_unique() {
        let a = fresh_id();
        let b = fresh_id();
        assert_ne!(a, b);
    }
}
