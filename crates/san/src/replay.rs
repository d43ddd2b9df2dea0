//! Replays a [`SanLog`] and verifies the invariants the paper's
//! correctness argument rests on.
//!
//! The checker interprets ring order as execution order, which is sound
//! when the logged run was serialized — single-threaded tests, or the
//! lockstep runtime with `CostModel::exact()` (one thread runs between
//! scheduler sync points, and the STM performs no runtime calls between an
//! event's ring slot claim and its shared-memory effect, so the commit and
//! read sequences are atomic in virtual time).
//!
//! Checks, with their stable diagnostic codes:
//!
//! * **Opacity** ([`OPACITY`], [`STALE`], [`ORDER`]) — every transaction,
//!   including aborted ones, observed a consistent snapshot. The checker
//!   maintains shadow memory and, per transaction, the interval of event
//!   sequence numbers during which *all* of its reads were simultaneously
//!   current. An empty interval means no snapshot exists. [`STALE`] flags a
//!   read returning a value that was not current at the read; [`ORDER`]
//!   flags a read whose logged orec was locked or newer than the
//!   transaction's clock snapshot (validation bypassed).
//! * **Conflict-serializability** ([`SERIAL`]) — a committed *update*
//!   transaction's snapshot interval must still be open at its commit
//!   point; an overwrite of its read set between read and commit that did
//!   not abort it (e.g. a torn write that skipped the version bump) breaks
//!   the serialization order.
//! * **Lock subscription** ([`SUB`], [`LOCK`]) — once a fallback lock is
//!   registered ([`mark_fallback`](hcf_tmem::ElidableLock::mark_fallback)),
//!   every committed update
//!   transaction must have subscribed (transactionally read the lock
//!   word), and none may commit inside a window where another thread holds
//!   a fallback lock — the lazy-subscription hazard of Dice et al. The
//!   session is assumed to contain a single lock domain (one engine).
//! * **Publication records** ([`REC`]) — only the §2.2 transitions
//!   Unannounced→Announced, Announced→BeingHelped, Announced→Done and
//!   BeingHelped→Done are legal.
//! * **Publication slots** ([`SLOT`]) — a slot is announced only by its
//!   owner with its own tag; a direct (combiner) clear requires holding
//!   the array's selection lock; a transactional clear is the owner's
//!   read-and-clear and must subscribe to the selection lock.
//! * **Log integrity** ([`PROTO`], [`TRUNC`]) — malformed event sequences
//!   (commit without begin, release by non-holder) and ring overflow. A
//!   truncated log is never certified clean.

use std::collections::HashMap;
use std::fmt;

use hcf_tmem::orec::OrecValue;
use hcf_tmem::san::{SanEvent, SanLog};

/// A transaction observed an inconsistent snapshot (no single point in
/// time at which all of its reads were current).
pub const OPACITY: &str = "TXSAN-OPACITY";
/// A transactional read returned a value that was not current.
pub const STALE: &str = "TXSAN-STALE-READ";
/// A read was logged with a locked orec or a version newer than the
/// transaction's begin snapshot.
pub const ORDER: &str = "TXSAN-ORDER";
/// A committed update transaction is not conflict-serializable at its
/// commit point.
pub const SERIAL: &str = "TXSAN-SERIAL";
/// An update transaction committed without subscribing to a fallback lock.
pub const SUB: &str = "TXSAN-SUB";
/// An update transaction committed while another thread held a fallback
/// lock.
pub const LOCK: &str = "TXSAN-LOCK";
/// A publication record took an illegal status transition.
pub const REC: &str = "TXSAN-REC";
/// A publication-array slot was written in violation of the §2.2
/// announce/select discipline.
pub const SLOT: &str = "TXSAN-SLOT";
/// The event stream itself is malformed.
pub const PROTO: &str = "TXSAN-PROTO";
/// The event ring overflowed; the log is incomplete.
pub const TRUNC: &str = "TXSAN-TRUNC";

/// One invariant violation found during replay.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable diagnostic code (one of the constants in this module).
    pub code: &'static str,
    /// Index into `log.events` of the event that exposed the violation.
    pub seq: usize,
    /// Human-readable description.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] at event {}: {}", self.code, self.seq, self.detail)
    }
}

/// The outcome of replaying one log.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All violations, in event order.
    pub violations: Vec<Violation>,
    /// Number of events replayed.
    pub events: usize,
    /// Transactions begun / committed / aborted in the log.
    pub txns_begun: u64,
    /// Committed transactions.
    pub txns_committed: u64,
    /// Aborted transactions.
    pub txns_aborted: u64,
}

impl Report {
    /// Whether the log was certified clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether any violation carries `code`.
    pub fn has(&self, code: &str) -> bool {
        self.violations.iter().any(|v| v.code == code)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "txsan: {} events, {} txns ({} committed, {} aborted), {} violation(s)",
            self.events,
            self.txns_begun,
            self.txns_committed,
            self.txns_aborted,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Sequence number used as "no bound yet" for a transaction's upper
/// snapshot edge.
const NO_BOUND: usize = usize::MAX;

struct TxState {
    tid: u64,
    rv: u64,
    /// Latest `last_write_seq` among this transaction's read addresses:
    /// its snapshot cannot predate this event.
    lo: usize,
    /// Earliest overwrite of any read address: the snapshot must predate
    /// this event ([`NO_BOUND`] while untouched).
    hi: usize,
    /// First value observed per address.
    reads: HashMap<u64, u64>,
    /// Commit-write count seen so far (cross-checked against the commit
    /// event's `n_writes`).
    commit_writes: u64,
    /// Opacity already reported for this transaction (report once).
    flagged: bool,
}

#[derive(Default)]
struct LockState {
    fallback: bool,
    holder: Option<u64>,
}

struct SlotInfo {
    owner: u64,
    sel_lock: u64,
}

/// Legal §2.2 record transitions (raw `OpStatus` values).
fn legal_rec_transition(from: u64, to: u64) -> bool {
    matches!((from, to), (0, 1) | (1, 2) | (1, 3) | (2, 3))
}

fn rec_status_name(v: u64) -> &'static str {
    match v {
        0 => "Unannounced",
        1 => "Announced",
        2 => "BeingHelped",
        3 => "Done",
        _ => "Invalid",
    }
}

/// Replays `log` and returns everything found. See the module docs for the
/// soundness requirements on how the log was produced.
pub fn check(log: &SanLog) -> Report {
    Checker::default().run(log)
}

#[derive(Default)]
struct Checker {
    report: Report,
    /// In-flight transactions.
    txs: HashMap<u64, TxState>,
    /// Shadow memory: address -> (current value, seq of last write).
    mem: HashMap<u64, (u64, usize)>,
    /// In-flight readers per address (for snapshot-interval clamping).
    readers: HashMap<u64, Vec<u64>>,
    locks: HashMap<u64, LockState>,
    /// Lock words marked as fallback locks, in registration order.
    fallback_words: Vec<u64>,
    slots: HashMap<u64, SlotInfo>,
    /// Publication-record status per record id (default Unannounced).
    recs: HashMap<u64, u64>,
}

impl Checker {
    fn flag(&mut self, code: &'static str, seq: usize, detail: String) {
        self.report.violations.push(Violation { code, seq, detail });
    }

    fn run(mut self, log: &SanLog) -> Report {
        self.report.events = log.events.len();
        if log.dropped > 0 {
            self.flag(
                TRUNC,
                0,
                format!("event ring overflowed, {} event(s) lost", log.dropped),
            );
        }
        for (seq, &ev) in log.events.iter().enumerate() {
            self.step(seq, ev);
        }
        self.report
    }

    fn step(&mut self, seq: usize, ev: SanEvent) {
        match ev {
            SanEvent::TxBegin { txid, tid, rv } => {
                self.report.txns_begun += 1;
                let prev = self.txs.insert(
                    txid,
                    TxState {
                        tid,
                        rv,
                        lo: 0,
                        hi: NO_BOUND,
                        reads: HashMap::new(),
                        commit_writes: 0,
                        flagged: false,
                    },
                );
                if prev.is_some() {
                    self.flag(PROTO, seq, format!("duplicate begin of txn {txid}"));
                }
            }
            SanEvent::TxRead {
                txid,
                addr,
                value,
                orec,
                line: _,
            } => {
                self.tx_read(seq, txid, addr, value, orec);
            }
            SanEvent::TxWrite { .. } => {
                // Buffered store; nothing observable until commit.
            }
            SanEvent::TxCommitWrite {
                txid,
                addr,
                value,
                wv: _,
            } => {
                let (tid, sub_ok, owner_tid) = match self.txs.get_mut(&txid) {
                    Some(tx) => {
                        tx.commit_writes += 1;
                        (
                            tx.tid,
                            self.slots
                                .get(&addr)
                                .is_some_and(|s| tx.reads.contains_key(&s.sel_lock)),
                            self.slots.get(&addr).map(|s| s.owner),
                        )
                    }
                    None => {
                        self.flag(PROTO, seq, format!("commit write by unknown txn {txid}"));
                        (u64::MAX, false, None)
                    }
                };
                if let Some(owner) = owner_tid {
                    if value != 0 {
                        self.flag(
                            SLOT,
                            seq,
                            format!("transactional store of {value} into publication slot {addr}"),
                        );
                    } else if tid != owner {
                        self.flag(
                            SLOT,
                            seq,
                            format!(
                                "txn {txid} (tid {tid}) cleared slot {addr} owned by tid {owner}"
                            ),
                        );
                    } else if !sub_ok {
                        self.flag(
                            SLOT,
                            seq,
                            format!(
                                "owner read-and-clear of slot {addr} without selection-lock \
                                 subscription"
                            ),
                        );
                    }
                }
                self.apply_write(seq, addr, value, Some(txid));
            }
            SanEvent::TxCommitted {
                txid,
                tid: _,
                wv: _,
                n_writes,
            } => {
                self.report.txns_committed += 1;
                let Some(tx) = self.txs.remove(&txid) else {
                    self.flag(PROTO, seq, format!("commit of unknown txn {txid}"));
                    return;
                };
                if tx.commit_writes != n_writes {
                    self.flag(
                        PROTO,
                        seq,
                        format!(
                            "txn {txid} committed {n_writes} write(s) but logged {}",
                            tx.commit_writes
                        ),
                    );
                }
                if n_writes > 0 {
                    // Update transactions serialize at their commit point:
                    // the snapshot interval must still be open.
                    if !tx.flagged && tx.hi != NO_BOUND && tx.hi <= seq {
                        self.flag(
                            SERIAL,
                            seq,
                            format!(
                                "update txn {txid} committed although its read set was \
                                 overwritten at event {} without aborting it",
                                tx.hi
                            ),
                        );
                    }
                    self.check_fallback_discipline(seq, txid, &tx);
                }
                self.drop_reader(txid, &tx);
            }
            SanEvent::TxAborted { txid, cause: _ } => {
                self.report.txns_aborted += 1;
                match self.txs.remove(&txid) {
                    Some(tx) => self.drop_reader(txid, &tx),
                    None => self.flag(PROTO, seq, format!("abort of unknown txn {txid}")),
                }
            }
            SanEvent::DirectWrite {
                tid,
                addr,
                value,
                wv: _,
            } => {
                if let Some(slot) = self.slots.get(&addr) {
                    let sel = slot.sel_lock;
                    let owner = slot.owner;
                    if value == 0 {
                        // A direct clear is a combiner selecting the op; it
                        // must hold the array's selection lock.
                        let held_by = self.locks.get(&sel).and_then(|l| l.holder);
                        if held_by != Some(tid) {
                            self.flag(
                                SLOT,
                                seq,
                                format!(
                                    "direct clear of slot {addr} by tid {tid} without holding \
                                     the selection lock (holder: {held_by:?})"
                                ),
                            );
                        }
                    } else if tid != owner || value != owner + 1 {
                        self.flag(
                            SLOT,
                            seq,
                            format!(
                                "announce of value {value} into slot {addr} (owner tid {owner}) \
                                 by tid {tid}"
                            ),
                        );
                    }
                }
                self.apply_write(seq, addr, value, None);
            }
            SanEvent::LockRegistered { word, fallback } => {
                let entry = self.locks.entry(word).or_default();
                if fallback != 0 && !entry.fallback {
                    entry.fallback = true;
                    self.fallback_words.push(word);
                }
            }
            SanEvent::LockAcquired { tid, word } => {
                let entry = self.locks.entry(word).or_default();
                let prev = entry.holder.replace(tid);
                if let Some(holder) = prev {
                    self.flag(
                        PROTO,
                        seq,
                        format!("lock {word} acquired by tid {tid} while held by tid {holder}"),
                    );
                }
            }
            SanEvent::LockReleased { tid, word } => {
                let entry = self.locks.entry(word).or_default();
                let prev = entry.holder.take();
                if prev != Some(tid) {
                    self.flag(
                        PROTO,
                        seq,
                        format!("lock {word} released by tid {tid} but held by {prev:?}"),
                    );
                }
            }
            SanEvent::RecTransition { rec, from, to } => {
                let cur = self.recs.get(&rec).copied().unwrap_or(0);
                if from != cur {
                    self.flag(
                        PROTO,
                        seq,
                        format!(
                            "record {rec} transition claims source {} but checker tracked {}",
                            rec_status_name(from),
                            rec_status_name(cur)
                        ),
                    );
                }
                if !legal_rec_transition(from, to) {
                    self.flag(
                        REC,
                        seq,
                        format!(
                            "record {rec}: illegal transition {} -> {}",
                            rec_status_name(from),
                            rec_status_name(to)
                        ),
                    );
                }
                self.recs.insert(rec, to);
            }
            SanEvent::SlotRegistered {
                slot,
                owner,
                sel_lock,
            } => {
                self.slots.insert(slot, SlotInfo { owner, sel_lock });
            }
        }
    }

    fn tx_read(&mut self, seq: usize, txid: u64, addr: u64, value: u64, orec: u64) {
        let (cur, last_write) = self.mem.get(&addr).copied().unwrap_or((0, 0));
        let Some(tx) = self.txs.get_mut(&txid) else {
            self.flag(PROTO, seq, format!("read by unknown txn {txid}"));
            return;
        };
        let o = OrecValue(orec);
        if o.is_locked() || o.version() > tx.rv {
            self.report.violations.push(Violation {
                code: ORDER,
                seq,
                detail: format!(
                    "txn {txid} read addr {addr} past validation: orec version {} \
                     (locked: {}) vs begin snapshot {}",
                    o.version(),
                    o.is_locked(),
                    tx.rv
                ),
            });
        }
        if value != cur {
            self.report.violations.push(Violation {
                code: STALE,
                seq,
                detail: format!(
                    "txn {txid} read {value} from addr {addr}, but the current value is {cur}"
                ),
            });
        }
        match tx.reads.get(&addr) {
            Some(&first) => {
                if first != value && !tx.flagged {
                    tx.flagged = true;
                    self.report.violations.push(Violation {
                        code: OPACITY,
                        seq,
                        detail: format!(
                            "txn {txid} observed addr {addr} as both {first} and {value}"
                        ),
                    });
                }
            }
            None => {
                tx.reads.insert(addr, value);
                tx.lo = tx.lo.max(last_write);
                if tx.hi != NO_BOUND && tx.lo >= tx.hi && !tx.flagged {
                    tx.flagged = true;
                    self.report.violations.push(Violation {
                        code: OPACITY,
                        seq,
                        detail: format!(
                            "txn {txid} has no consistent snapshot: read of addr {addr} \
                             (current since event {}) cannot coexist with an earlier read \
                             overwritten at event {}",
                            tx.lo, tx.hi
                        ),
                    });
                }
                self.readers.entry(addr).or_default().push(txid);
            }
        }
    }

    /// Applies a write to shadow memory and closes the snapshot window of
    /// every other in-flight transaction that has read `addr`.
    fn apply_write(&mut self, seq: usize, addr: u64, value: u64, writer: Option<u64>) {
        self.mem.insert(addr, (value, seq));
        if let Some(reader_ids) = self.readers.get(&addr) {
            for &rid in reader_ids {
                if Some(rid) == writer {
                    continue;
                }
                if let Some(r) = self.txs.get_mut(&rid) {
                    r.hi = r.hi.min(seq);
                }
            }
        }
    }

    /// `SUB`/`LOCK`: fallback-lock discipline for a committed update
    /// transaction.
    fn check_fallback_discipline(&mut self, seq: usize, txid: u64, tx: &TxState) {
        if self.fallback_words.is_empty() {
            return;
        }
        let subscribed = self.fallback_words.iter().any(|w| tx.reads.contains_key(w));
        if !subscribed {
            self.flag(
                SUB,
                seq,
                format!(
                    "update txn {txid} (tid {}) committed without subscribing to any \
                     fallback lock",
                    tx.tid
                ),
            );
        }
        let held: Vec<(u64, u64)> = self
            .fallback_words
            .iter()
            .filter_map(|w| {
                self.locks
                    .get(w)
                    .and_then(|l| l.holder)
                    .filter(|&h| h != tx.tid)
                    .map(|h| (*w, h))
            })
            .collect();
        for (word, holder) in held {
            self.flag(
                LOCK,
                seq,
                format!(
                    "update txn {txid} (tid {}) committed while fallback lock {word} was \
                     held by tid {holder}",
                    tx.tid
                ),
            );
        }
    }

    /// Removes a finished transaction from the per-address reader index.
    fn drop_reader(&mut self, txid: u64, tx: &TxState) {
        for addr in tx.reads.keys() {
            if let Some(v) = self.readers.get_mut(addr) {
                v.retain(|&t| t != txid);
                if v.is_empty() {
                    self.readers.remove(addr);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(events: Vec<SanEvent>) -> SanLog {
        SanLog { events, dropped: 0 }
    }

    fn unlocked(version: u64) -> u64 {
        OrecValue::unlocked(version).raw()
    }

    #[test]
    fn clean_read_write_commit() {
        // txn 1 reads addr 4 (value 0), writes it, commits.
        let log = log_of(vec![
            SanEvent::TxBegin {
                txid: 1,
                tid: 0,
                rv: 0,
            },
            SanEvent::TxRead {
                txid: 1,
                addr: 4,
                value: 0,
                orec: unlocked(0),
                line: 4,
            },
            SanEvent::TxWrite {
                txid: 1,
                addr: 4,
                value: 7,
            },
            SanEvent::TxCommitWrite {
                txid: 1,
                addr: 4,
                value: 7,
                wv: 1,
            },
            SanEvent::TxCommitted {
                txid: 1,
                tid: 0,
                wv: 1,
                n_writes: 1,
            },
        ]);
        let r = check(&log);
        assert!(r.ok(), "{r}");
        assert_eq!(r.txns_committed, 1);
    }

    #[test]
    fn torn_write_breaks_serializability() {
        // txn 1 reads addr 4; a torn write changes it (no abort); txn 1
        // still commits an update -> SERIAL.
        let log = log_of(vec![
            SanEvent::TxBegin {
                txid: 1,
                tid: 0,
                rv: 0,
            },
            SanEvent::TxRead {
                txid: 1,
                addr: 4,
                value: 0,
                orec: unlocked(0),
                line: 4,
            },
            SanEvent::DirectWrite {
                tid: 1,
                addr: 4,
                value: 9,
                wv: 0,
            },
            SanEvent::TxCommitWrite {
                txid: 1,
                addr: 8,
                value: 1,
                wv: 1,
            },
            SanEvent::TxCommitted {
                txid: 1,
                tid: 0,
                wv: 1,
                n_writes: 1,
            },
        ]);
        let r = check(&log);
        assert!(r.has(SERIAL), "{r}");
    }

    #[test]
    fn inconsistent_repeat_read_is_opacity() {
        let log = log_of(vec![
            SanEvent::TxBegin {
                txid: 1,
                tid: 0,
                rv: 0,
            },
            SanEvent::TxRead {
                txid: 1,
                addr: 4,
                value: 0,
                orec: unlocked(0),
                line: 4,
            },
            SanEvent::DirectWrite {
                tid: 1,
                addr: 4,
                value: 9,
                wv: 0,
            },
            SanEvent::TxRead {
                txid: 1,
                addr: 4,
                value: 9,
                orec: unlocked(0),
                line: 4,
            },
            SanEvent::TxAborted { txid: 1, cause: 0 },
        ]);
        let r = check(&log);
        assert!(r.has(OPACITY), "{r}");
    }

    #[test]
    fn cross_address_inconsistency_is_opacity() {
        // txn reads a=0; a and b are overwritten; txn reads the *new* b:
        // no point in time has (a=0, b=new).
        let log = log_of(vec![
            SanEvent::TxBegin {
                txid: 1,
                tid: 0,
                rv: 0,
            },
            SanEvent::TxRead {
                txid: 1,
                addr: 4,
                value: 0,
                orec: unlocked(0),
                line: 4,
            },
            SanEvent::DirectWrite {
                tid: 1,
                addr: 4,
                value: 1,
                wv: 0,
            },
            SanEvent::DirectWrite {
                tid: 1,
                addr: 5,
                value: 2,
                wv: 0,
            },
            SanEvent::TxRead {
                txid: 1,
                addr: 5,
                value: 2,
                orec: unlocked(0),
                line: 5,
            },
            SanEvent::TxAborted { txid: 1, cause: 0 },
        ]);
        let r = check(&log);
        assert!(r.has(OPACITY), "{r}");
    }

    #[test]
    fn stale_value_flagged() {
        let log = log_of(vec![
            SanEvent::TxBegin {
                txid: 1,
                tid: 0,
                rv: 0,
            },
            SanEvent::TxRead {
                txid: 1,
                addr: 4,
                value: 5,
                orec: unlocked(0),
                line: 4,
            },
            SanEvent::TxAborted { txid: 1, cause: 0 },
        ]);
        let r = check(&log);
        assert!(r.has(STALE), "{r}");
    }

    #[test]
    fn read_past_snapshot_is_order_violation() {
        let log = log_of(vec![
            SanEvent::TxBegin {
                txid: 1,
                tid: 0,
                rv: 0,
            },
            SanEvent::DirectWrite {
                tid: 0,
                addr: 4,
                value: 3,
                wv: 1,
            },
            SanEvent::TxRead {
                txid: 1,
                addr: 4,
                value: 3,
                orec: unlocked(1),
                line: 4,
            },
            SanEvent::TxAborted { txid: 1, cause: 0 },
        ]);
        let r = check(&log);
        assert!(r.has(ORDER), "{r}");
    }

    #[test]
    fn commit_without_subscription_flagged() {
        let log = log_of(vec![
            SanEvent::LockRegistered {
                word: 64,
                fallback: 1,
            },
            SanEvent::TxBegin {
                txid: 1,
                tid: 0,
                rv: 0,
            },
            SanEvent::TxCommitWrite {
                txid: 1,
                addr: 4,
                value: 1,
                wv: 1,
            },
            SanEvent::TxCommitted {
                txid: 1,
                tid: 0,
                wv: 1,
                n_writes: 1,
            },
        ]);
        let r = check(&log);
        assert!(r.has(SUB), "{r}");
        assert!(!r.has(LOCK), "{r}");
    }

    #[test]
    fn commit_in_held_window_flagged() {
        let log = log_of(vec![
            SanEvent::LockRegistered {
                word: 64,
                fallback: 1,
            },
            SanEvent::LockAcquired { tid: 3, word: 64 },
            SanEvent::TxBegin {
                txid: 1,
                tid: 0,
                rv: 0,
            },
            SanEvent::TxCommitWrite {
                txid: 1,
                addr: 4,
                value: 1,
                wv: 1,
            },
            SanEvent::TxCommitted {
                txid: 1,
                tid: 0,
                wv: 1,
                n_writes: 1,
            },
            SanEvent::LockReleased { tid: 3, word: 64 },
        ]);
        let r = check(&log);
        assert!(r.has(LOCK), "{r}");
    }

    #[test]
    fn holder_commit_not_flagged_as_lock_violation() {
        // The combiner itself may run transactions while holding a lock.
        let log = log_of(vec![
            SanEvent::LockRegistered {
                word: 64,
                fallback: 1,
            },
            SanEvent::LockAcquired { tid: 0, word: 64 },
            SanEvent::TxBegin {
                txid: 1,
                tid: 0,
                rv: 0,
            },
            SanEvent::TxRead {
                txid: 1,
                addr: 64,
                value: 1,
                orec: unlocked(0),
                line: 64,
            },
            SanEvent::TxCommitWrite {
                txid: 1,
                addr: 4,
                value: 1,
                wv: 1,
            },
            SanEvent::TxCommitted {
                txid: 1,
                tid: 0,
                wv: 1,
                n_writes: 1,
            },
            SanEvent::LockReleased { tid: 0, word: 64 },
        ]);
        let r = check(&log);
        // The subscription read of value 1 is stale-checked against shadow
        // memory, so seed it as really being 1.
        let r_lock: Vec<_> = r.violations.iter().filter(|v| v.code == LOCK).collect();
        assert!(r_lock.is_empty(), "{r}");
    }

    #[test]
    fn read_only_commit_needs_no_subscription() {
        let log = log_of(vec![
            SanEvent::LockRegistered {
                word: 64,
                fallback: 1,
            },
            SanEvent::TxBegin {
                txid: 1,
                tid: 0,
                rv: 0,
            },
            SanEvent::TxRead {
                txid: 1,
                addr: 4,
                value: 0,
                orec: unlocked(0),
                line: 4,
            },
            SanEvent::TxCommitted {
                txid: 1,
                tid: 0,
                wv: 0,
                n_writes: 0,
            },
        ]);
        let r = check(&log);
        assert!(r.ok(), "{r}");
    }

    #[test]
    fn illegal_record_transition_flagged() {
        let log = log_of(vec![
            SanEvent::RecTransition {
                rec: 9,
                from: 0,
                to: 1,
            },
            SanEvent::RecTransition {
                rec: 9,
                from: 1,
                to: 3,
            },
            SanEvent::RecTransition {
                rec: 9,
                from: 3,
                to: 2,
            },
        ]);
        let r = check(&log);
        assert!(r.has(REC), "{r}");
        assert_eq!(r.violations.len(), 1, "{r}");
    }

    #[test]
    fn legal_record_lifecycles_pass() {
        let log = log_of(vec![
            SanEvent::RecTransition {
                rec: 1,
                from: 0,
                to: 1,
            },
            SanEvent::RecTransition {
                rec: 1,
                from: 1,
                to: 2,
            },
            SanEvent::RecTransition {
                rec: 1,
                from: 2,
                to: 3,
            },
            SanEvent::RecTransition {
                rec: 2,
                from: 0,
                to: 1,
            },
            SanEvent::RecTransition {
                rec: 2,
                from: 1,
                to: 3,
            },
        ]);
        assert!(check(&log).ok());
    }

    #[test]
    fn slot_clear_requires_selection_lock() {
        let log = log_of(vec![
            SanEvent::LockRegistered {
                word: 64,
                fallback: 0,
            },
            SanEvent::SlotRegistered {
                slot: 128,
                owner: 2,
                sel_lock: 64,
            },
            SanEvent::DirectWrite {
                tid: 2,
                addr: 128,
                value: 3,
                wv: 1,
            }, // announce
            SanEvent::DirectWrite {
                tid: 5,
                addr: 128,
                value: 0,
                wv: 2,
            }, // clear, no lock
        ]);
        let r = check(&log);
        assert!(r.has(SLOT), "{r}");
    }

    #[test]
    fn combiner_slot_clear_under_lock_passes() {
        let log = log_of(vec![
            SanEvent::LockRegistered {
                word: 64,
                fallback: 0,
            },
            SanEvent::SlotRegistered {
                slot: 128,
                owner: 2,
                sel_lock: 64,
            },
            SanEvent::DirectWrite {
                tid: 2,
                addr: 128,
                value: 3,
                wv: 1,
            },
            SanEvent::LockAcquired { tid: 5, word: 64 },
            SanEvent::DirectWrite {
                tid: 5,
                addr: 128,
                value: 0,
                wv: 2,
            },
            SanEvent::LockReleased { tid: 5, word: 64 },
        ]);
        let r = check(&log);
        assert!(r.ok(), "{r}");
    }

    #[test]
    fn foreign_announce_flagged() {
        let log = log_of(vec![
            SanEvent::SlotRegistered {
                slot: 128,
                owner: 2,
                sel_lock: 64,
            },
            SanEvent::DirectWrite {
                tid: 4,
                addr: 128,
                value: 5,
                wv: 1,
            },
        ]);
        let r = check(&log);
        assert!(r.has(SLOT), "{r}");
    }

    #[test]
    fn truncated_log_not_certified() {
        let r = check(&SanLog {
            events: vec![],
            dropped: 3,
        });
        assert!(r.has(TRUNC));
    }

    #[test]
    fn malformed_stream_is_proto() {
        let log = log_of(vec![
            SanEvent::TxCommitted {
                txid: 42,
                tid: 0,
                wv: 1,
                n_writes: 0,
            },
            SanEvent::LockReleased { tid: 0, word: 8 },
        ]);
        let r = check(&log);
        assert!(r.has(PROTO), "{r}");
    }
}
