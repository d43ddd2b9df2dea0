//! Publication arrays: where operations are announced for delegation.
//!
//! A publication array has one *slot per thread*, each on its own cache
//! line (like flat combining's padded publication records). A slot holds
//! `tid + 1` while thread `tid` has an announced operation, else `0`. The
//! slot lives in transactional memory because the TryVisible phase must
//! read-and-clear it *inside* the transaction that applies the operation —
//! that is what makes the owner/combiner race benign (§2.2–2.3): a
//! combiner's selection (which clears the slot with a direct, version-
//! bumping write while holding the selection lock) invalidates any
//! in-flight owner transaction that has read the slot.

use std::fmt;
use std::sync::Arc;

use hcf_tmem::{Addr, ElidableLock, Runtime, TMem, TxResult};

/// One publication array: per-thread slots plus the selection lock that
/// serializes combiner selection on this array.
pub struct PubArray {
    mem: Arc<TMem>,
    slots: Addr,
    stride: u64,
    max_threads: usize,
    /// Serializes `chooseOpsToHelp` for this array; transactions in the
    /// TryVisible phase subscribe to it.
    pub selection: ElidableLock,
}

impl PubArray {
    /// Allocates an array with `max_threads` line-padded slots.
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn new(mem: Arc<TMem>, max_threads: usize) -> TxResult<Self> {
        assert!(max_threads > 0, "need at least one thread slot");
        let stride = mem.config().words_per_line() as u64;
        let slots = mem.alloc_line_direct(max_threads * stride as usize)?;
        let selection = ElidableLock::new(mem.clone())?;
        #[cfg(feature = "txsan")]
        for tid in 0..max_threads {
            hcf_tmem::san::log(hcf_tmem::san::SanEvent::SlotRegistered {
                slot: (slots + tid as u64 * stride).0,
                owner: tid as u64,
                sel_lock: selection.word().0,
            });
        }
        Ok(PubArray {
            mem,
            slots,
            stride,
            max_threads,
            selection,
        })
    }

    /// Address of thread `tid`'s slot.
    #[inline]
    pub fn slot(&self, tid: usize) -> Addr {
        debug_assert!(tid < self.max_threads);
        self.slots + tid as u64 * self.stride
    }

    /// The tag stored in an occupied slot of thread `tid`.
    #[inline]
    pub fn tag(tid: usize) -> u64 {
        tid as u64 + 1
    }

    /// Publishes thread `tid`'s announcement (direct store).
    pub fn announce(&self, rt: &dyn Runtime, tid: usize) {
        self.mem.write_direct(rt, self.slot(tid), Self::tag(tid));
    }

    /// Clears thread `tid`'s slot with a direct (version-bumping) store —
    /// used by combiners during selection, while holding the selection
    /// lock, so the bump aborts the owner's in-flight TryVisible
    /// transaction if there is one.
    pub fn clear(&self, rt: &dyn Runtime, tid: usize) {
        self.mem.write_direct(rt, self.slot(tid), 0);
    }

    /// Racy snapshot of whether thread `tid` has an announcement here.
    pub fn is_announced(&self, rt: &dyn Runtime, tid: usize) -> bool {
        self.mem.read_direct(rt, self.slot(tid)) != 0
    }

    /// Racy snapshot of whether any thread has an announcement here.
    pub fn any_announced(&self, rt: &dyn Runtime) -> bool {
        (0..self.max_threads).any(|t| self.is_announced(rt, t))
    }

    /// Scans all slots in ascending thread-id order, appending the ids
    /// with announcements to `out`. Callers must hold the selection lock
    /// for the result to be stable (new announcements may still appear;
    /// none can disappear, §2.2).
    pub fn scan(&self, rt: &dyn Runtime, out: &mut Vec<usize>) {
        for t in 0..self.max_threads {
            if self.mem.read_direct(rt, self.slot(t)) != 0 {
                out.push(t);
            }
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.max_threads
    }
}

impl fmt::Debug for PubArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PubArray")
            .field("slots", &self.slots)
            .field("max_threads", &self.max_threads)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcf_tmem::{RealRuntime, TMemConfig};

    fn setup() -> (Arc<TMem>, RealRuntime, PubArray) {
        let mem = Arc::new(TMem::new(TMemConfig::default()));
        let rt = RealRuntime::new();
        let pa = PubArray::new(mem.clone(), 8).unwrap();
        (mem, rt, pa)
    }

    fn scanned(pa: &PubArray, rt: &RealRuntime) -> Vec<usize> {
        let mut out = vec![99];
        pa.scan(rt, &mut out);
        out.split_off(1)
    }

    #[test]
    fn announce_scan_clear() {
        let (_m, rt, pa) = setup();
        assert!(scanned(&pa, &rt).is_empty());
        assert!(!pa.any_announced(&rt));
        pa.announce(&rt, 5);
        pa.announce(&rt, 3);
        assert_eq!(scanned(&pa, &rt), vec![3, 5], "ascending, appended");
        assert!(pa.is_announced(&rt, 3));
        pa.clear(&rt, 3);
        assert_eq!(scanned(&pa, &rt), vec![5]);
        assert!(!pa.is_announced(&rt, 3));
        assert!(pa.any_announced(&rt));
        pa.clear(&rt, 5);
        assert!(!pa.any_announced(&rt));
    }

    #[test]
    fn slots_are_line_padded() {
        let (m, _rt, pa) = setup();
        assert_ne!(m.line_of(pa.slot(0)), m.line_of(pa.slot(1)));
    }

    #[test]
    fn tags_identify_threads() {
        let (m, rt, pa) = setup();
        pa.announce(&rt, 4);
        assert_eq!(m.read_direct(&rt, pa.slot(4)), PubArray::tag(4));
    }

    #[test]
    fn combiner_clear_aborts_owner_tx() {
        // The exactly-once mechanism: an owner transaction that read its
        // slot cannot commit once a combiner clears that slot.
        let (m, rt, pa) = setup();
        pa.announce(&rt, 2);
        let scratch = m.alloc_direct(1).unwrap();
        let mut tx = m.begin(&rt);
        assert_eq!(tx.read(pa.slot(2)).unwrap(), PubArray::tag(2));
        tx.write(scratch, 1).unwrap();
        pa.clear(&rt, 2); // combiner selects the op
        assert!(tx.commit().is_err());
    }

    #[test]
    #[should_panic]
    fn out_of_range_slot_panics_in_debug() {
        let (_m, _rt, pa) = setup();
        let _ = pa.slot(8);
    }
}
