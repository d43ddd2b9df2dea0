//! Per-thread publication records shared between owners and combiners.

use std::fmt;
#[cfg(feature = "txsan")]
use std::sync::atomic::AtomicU64;
use std::sync::atomic::{AtomicU8, Ordering};

use hcf_util::sync::Mutex;

/// Lifecycle of an announced operation (§2.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpStatus {
    /// Not yet visible to other threads (TryPrivate phase).
    Unannounced = 0,
    /// Published in a publication array; the owner may still apply it
    /// itself (TryVisible) or a combiner may select it.
    Announced = 1,
    /// Selected by a combiner; the owner must wait for `Done`.
    BeingHelped = 2,
    /// Applied; the result is available in the record.
    Done = 3,
}

impl OpStatus {
    fn from_u8(v: u8) -> OpStatus {
        match v {
            0 => OpStatus::Unannounced,
            1 => OpStatus::Announced,
            2 => OpStatus::BeingHelped,
            3 => OpStatus::Done,
            _ => unreachable!("invalid status {v}"),
        }
    }
}

/// One thread's publication record (§2.2): the operation it announced,
/// its status, and a cell for its result. The engine keeps one record per
/// thread id, padded to its own cache lines, and reuses it for every
/// operation that thread announces.
///
/// Synchronization contract: a combiner stores the result *before* setting
/// the status to [`OpStatus::Done`] with release ordering; the owner reads
/// the status with acquire ordering before taking the result. The status
/// word is a plain process atomic (not a `tmem` word) — the exactly-once
/// argument (§2.3) rests on the *publication-array slot* being read
/// transactionally, see `engine.rs`.
#[repr(align(128))]
pub struct PubRecord<Op, Res> {
    status: AtomicU8,
    op: Mutex<Option<Op>>,
    result: Mutex<Option<Res>>,
    /// The owner's combining buffers, kept so their capacity is reused.
    /// Only the owner touches them.
    pub(crate) batch: Mutex<Batch<Op, Res>>,
    /// Sanitizer identity of the record's current use (see
    /// `hcf_tmem::san`); every [`PubRecord::announce`] takes a fresh one.
    #[cfg(feature = "txsan")]
    san_id: AtomicU64,
}

/// A combiner's working set: the selected thread ids, their ops, and the
/// results of the last `run_multi` call.
pub(crate) struct Batch<Op, Res> {
    pub(crate) tids: Vec<usize>,
    pub(crate) ops: Vec<Op>,
    pub(crate) results: Vec<(usize, Res)>,
}

impl<Op, Res> Default for Batch<Op, Res> {
    fn default() -> Self {
        Batch {
            tids: Vec::new(),
            ops: Vec::new(),
            results: Vec::new(),
        }
    }
}

impl<Op, Res> Default for PubRecord<Op, Res> {
    /// An unused record in the [`OpStatus::Unannounced`] state.
    fn default() -> Self {
        PubRecord {
            status: AtomicU8::new(OpStatus::Unannounced as u8),
            op: Mutex::new(None),
            result: Mutex::new(None),
            batch: Mutex::new(Batch::default()),
            #[cfg(feature = "txsan")]
            san_id: AtomicU64::new(hcf_tmem::san::fresh_id()),
        }
    }
}

impl<Op, Res> PubRecord<Op, Res> {
    /// Starts the record's next use: stores `op` and moves to
    /// [`OpStatus::Announced`]. Only the owner calls this, once its previous
    /// operation is `Done` and its result taken. Under `txsan` each use is
    /// a fresh record identity, which starts at `Unannounced`.
    pub fn announce(&self, op: Op) {
        debug_assert!(
            matches!(self.status(), OpStatus::Unannounced | OpStatus::Done),
            "record reused while {:?}",
            self.status()
        );
        *self.op.lock() = Some(op);
        self.status
            .store(OpStatus::Unannounced as u8, Ordering::Relaxed);
        #[cfg(feature = "txsan")]
        self.san_id
            .store(hcf_tmem::san::fresh_id(), Ordering::Relaxed);
        self.set_status(OpStatus::Announced);
    }

    /// A copy of the announced operation, for a combiner selecting it.
    pub(crate) fn op(&self) -> Op
    where
        Op: Clone,
    {
        self.op
            .lock()
            .clone()
            .expect("record holds no announced op")
    }

    /// Current status (acquire ordering, pairs with
    /// [`PubRecord::complete`]).
    pub fn status(&self) -> OpStatus {
        OpStatus::from_u8(self.status.load(Ordering::Acquire))
    }

    /// Transitions to a new status. Only the transitions of §2.2 are
    /// legal; debug builds check them, and under `txsan` every transition
    /// is logged for the replay checker.
    pub fn set_status(&self, s: OpStatus) {
        if cfg!(debug_assertions) {
            let cur = self.status();
            let ok = matches!(
                (cur, s),
                (OpStatus::Unannounced, OpStatus::Announced)
                    | (OpStatus::Announced, OpStatus::BeingHelped)
                    | (OpStatus::Announced, OpStatus::Done)
                    | (OpStatus::BeingHelped, OpStatus::Done)
            );
            debug_assert!(ok, "illegal status transition {cur:?} -> {s:?}");
        }
        self.store_status(s);
    }

    /// Fault-injection hook for the sanitizer's negative tests: stores an
    /// arbitrary status, bypassing the legality debug-assert, while still
    /// logging the transition. The replay checker must flag the illegal
    /// edge.
    #[cfg(feature = "txsan")]
    pub fn force_status(&self, s: OpStatus) {
        self.store_status(s);
    }

    fn store_status(&self, s: OpStatus) {
        #[cfg(feature = "txsan")]
        hcf_tmem::san::log(hcf_tmem::san::SanEvent::RecTransition {
            rec: self.san_id.load(Ordering::Relaxed),
            from: self.status.load(Ordering::Acquire) as u64,
            to: s as u64,
        });
        self.status.store(s as u8, Ordering::Release);
    }

    /// Stores the result and marks the operation [`OpStatus::Done`], in
    /// that order.
    pub fn complete(&self, res: Res) {
        *self.result.lock() = Some(res);
        self.set_status(OpStatus::Done);
    }

    /// Takes the result of a completed operation.
    ///
    /// # Panics
    ///
    /// Panics if the operation is not [`OpStatus::Done`] or the result was
    /// already taken.
    pub fn take_result(&self) -> Res {
        assert_eq!(self.status(), OpStatus::Done, "result not ready");
        self.result
            .lock()
            .take()
            .expect("result taken twice or never stored")
    }
}

impl<Op: fmt::Debug, Res> fmt::Debug for PubRecord<Op, Res> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PubRecord")
            .field("op", &*self.op.lock())
            .field("status", &self.status())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Rec = PubRecord<u32, u32>;

    #[test]
    fn lifecycle() {
        let r = Rec::default();
        assert_eq!(r.status(), OpStatus::Unannounced);
        r.announce(7);
        assert_eq!(r.op(), 7);
        r.set_status(OpStatus::BeingHelped);
        r.complete(42);
        assert_eq!(r.status(), OpStatus::Done);
        assert_eq!(r.take_result(), 42);
    }

    #[test]
    fn announced_to_done_directly() {
        let r = Rec::default();
        r.announce(7);
        r.complete(1);
        assert_eq!(r.take_result(), 1);
    }

    #[test]
    fn a_done_record_is_reused() {
        let r = Rec::default();
        for i in 0..3 {
            r.announce(i);
            assert_eq!(r.status(), OpStatus::Announced);
            assert_eq!(r.op(), i);
            r.complete(i * 10);
            assert_eq!(r.take_result(), i * 10);
        }
    }

    #[test]
    #[should_panic(expected = "record reused while BeingHelped")]
    fn reuse_in_flight_panics_in_debug() {
        let r = Rec::default();
        r.announce(7);
        r.set_status(OpStatus::BeingHelped);
        r.announce(8);
    }

    #[test]
    #[should_panic(expected = "illegal status transition")]
    fn illegal_transition_panics_in_debug() {
        let r = Rec::default();
        r.set_status(OpStatus::Done); // skipping Announced
    }

    #[test]
    #[should_panic(expected = "result not ready")]
    fn take_before_done_panics() {
        let r = Rec::default();
        let _ = r.take_result();
    }

    #[test]
    fn cross_thread_handoff() {
        use std::sync::Arc;
        let r = Arc::new(Rec::default());
        r.announce(7);
        let r2 = r.clone();
        let helper = std::thread::spawn(move || {
            assert_eq!(r2.op(), 7);
            r2.set_status(OpStatus::BeingHelped);
            r2.complete(99);
        });
        while r.status() != OpStatus::Done {
            std::thread::yield_now();
        }
        assert_eq!(r.take_result(), 99);
        helper.join().unwrap();
    }
}
