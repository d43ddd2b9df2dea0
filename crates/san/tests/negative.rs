//! Negative tests: seed one violation of each family into a real `tmem`
//! run and assert the replay checker reports it with its stable
//! diagnostic code. These tests are the proof that the sanitizer is live
//! — if an instrumentation hook or a checker rule regresses, a seeded
//! bug sails through and the assertion here fails.

use hcf_core::record::{OpStatus, PubRecord};
use hcf_tmem::san::{SanEvent, SanSession};
use hcf_tmem::{DirectCtx, ElidableLock, MemCtx, RealRuntime, TMem, TMemConfig};
use hcf_util::sync::Mutex;
use san::replay;
use std::sync::Arc;

/// One txsan session may be active at a time; integration tests in this
/// binary run on parallel threads, so serialize them.
static SESSION_GATE: Mutex<()> = Mutex::new(());

#[test]
fn torn_write_is_detected() {
    let _gate = SESSION_GATE.lock();
    let session = SanSession::start();

    let mem = TMem::new(TMemConfig::small_word_granular());
    let rt = RealRuntime::new();
    let a = mem.alloc_direct(1).unwrap();
    let b = mem.alloc_direct(1).unwrap();

    let mut tx = mem.begin(&rt);
    assert_eq!(tx.read(a).unwrap(), 0);
    // A torn write: mutates `a` behind the orec's back (no version bump),
    // so the transaction's commit-time revalidation cannot see it...
    mem.torn_write_direct(&rt, a, 9);
    tx.write(b, 1).unwrap();
    // ...and the commit wrongly succeeds, even though the snapshot the
    // transaction read from no longer exists at its serialization point.
    tx.commit()
        .expect("TL2 cannot see a torn write; commit succeeds");

    let report = replay::check(&session.finish());
    assert!(
        report.has(replay::SERIAL),
        "torn write must break serializability: {report}"
    );
}

#[test]
fn torn_write_between_repeated_reads_breaks_opacity() {
    let _gate = SESSION_GATE.lock();
    let session = SanSession::start();

    let mem = TMem::new(TMemConfig::small_word_granular());
    let rt = RealRuntime::new();
    let a = mem.alloc_direct(1).unwrap();

    let mut tx = mem.begin(&rt);
    assert_eq!(tx.read(a).unwrap(), 0);
    mem.torn_write_direct(&rt, a, 9);
    // The orec is unchanged, so TL2's repeat-read validation passes and
    // the transaction observes the *new* value: two values for one
    // address inside one transaction.
    assert_eq!(tx.read(a).unwrap(), 9);
    drop(tx); // aborts; opacity covers aborted transactions too

    let report = replay::check(&session.finish());
    assert!(
        report.has(replay::OPACITY),
        "inconsistent repeated read must violate opacity: {report}"
    );
}

#[test]
fn skipped_lock_subscription_is_detected() {
    let _gate = SESSION_GATE.lock();
    let session = SanSession::start();

    let mem = Arc::new(TMem::new(TMemConfig::small_word_granular()));
    let rt = Arc::new(RealRuntime::new());
    let a = mem.alloc_direct(1).unwrap(); // main thread takes tid 0
    let lock = ElidableLock::new(Arc::clone(&mem)).unwrap();
    lock.mark_fallback();

    // tid 0 holds the fallback lock, as a CombineUnderLock phase would.
    lock.lock(rt.as_ref());

    // A second thread commits an update transaction WITHOUT subscribing
    // to the lock — the lazy-subscription bug: it serializes inside the
    // lock holder's critical section.
    {
        let mem = Arc::clone(&mem);
        let rt = Arc::clone(&rt);
        std::thread::spawn(move || {
            let mut tx = mem.begin(rt.as_ref());
            tx.write(a, 5).unwrap();
            tx.commit().expect("nothing aborts an unsubscribed writer");
        })
        .join()
        .unwrap();
    }

    lock.unlock(rt.as_ref());

    let report = replay::check(&session.finish());
    assert!(
        report.has(replay::SUB),
        "missing subscription must be flagged: {report}"
    );
    assert!(
        report.has(replay::LOCK),
        "commit inside a held-lock window must be flagged: {report}"
    );
}

#[test]
fn subscribed_transaction_is_clean() {
    let _gate = SESSION_GATE.lock();
    let session = SanSession::start();

    let mem = Arc::new(TMem::new(TMemConfig::small_word_granular()));
    let rt = RealRuntime::new();
    let a = mem.alloc_direct(1).unwrap();
    let lock = ElidableLock::new(Arc::clone(&mem)).unwrap();
    lock.mark_fallback();

    // The disciplined version of the scenario above: lock free, and the
    // writer subscribes before committing.
    let mut tx = mem.begin(&rt);
    assert_eq!(tx.read(lock.word()).unwrap(), 0, "subscribe: lock is free");
    tx.write(a, 5).unwrap();
    tx.commit().unwrap();

    let report = replay::check(&session.finish());
    assert!(report.ok(), "disciplined run must be clean: {report}");
}

#[test]
fn lock_held_stores_log_the_acquisition_version_and_replay_clean() {
    let _gate = SESSION_GATE.lock();
    let session = SanSession::start();

    let mem = Arc::new(TMem::new(TMemConfig::small_word_granular()));
    let rt = RealRuntime::new();
    let (a, b) = (mem.alloc_direct(1).unwrap(), mem.alloc_direct(1).unwrap());
    let lock = ElidableLock::new(Arc::clone(&mem)).unwrap();
    lock.mark_fallback();

    // A subscribed reader that began before the acquisition...
    let mut early = mem.begin(&rt);
    assert_eq!(early.read(lock.word()).unwrap(), 0);
    assert_eq!(early.read(a).unwrap(), 0);

    let acquired = lock.lock(&rt);
    {
        let mut ctx = DirectCtx::under_lock(&mem, &rt, acquired);
        ctx.write(a, 5).unwrap();
        ctx.write(b, 6).unwrap();
    }
    // ...aborts at the holder's line instead of mixing old and new.
    assert!(early.read(b).is_err());
    drop(early);
    lock.unlock(&rt);

    let mut late = mem.begin(&rt);
    assert_eq!(late.read(lock.word()).unwrap(), 0);
    assert_eq!((late.read(a).unwrap(), late.read(b).unwrap()), (5, 6));
    late.write(a, 7).unwrap();
    late.commit().unwrap();

    let log = session.finish();
    let held: Vec<u64> = log
        .events
        .iter()
        .filter_map(|e| match *e {
            SanEvent::DirectWrite { addr, wv, .. } if addr == a.0 || addr == b.0 => Some(wv),
            _ => None,
        })
        .collect();
    // Two allocation zeroings, then the two stores under the lock.
    assert_eq!(held.len(), 4);
    assert_eq!(held[2..], [acquired.get(), acquired.get()]);
    let report = replay::check(&log);
    assert!(report.ok(), "lock-held stores must replay clean: {report}");
}

#[test]
fn illegal_record_transition_is_detected() {
    let _gate = SESSION_GATE.lock();
    let session = SanSession::start();

    let rec = PubRecord::<u64, u64>::default();
    rec.announce(7);
    rec.set_status(OpStatus::BeingHelped);
    // BeingHelped -> Done: legal so far.
    rec.complete(1);
    // A helped operation may never be re-announced: its owner could take
    // the result twice (violates exactly-once, §2.3).
    rec.force_status(OpStatus::Announced);

    let report = replay::check(&session.finish());
    assert!(
        report.has(replay::REC),
        "Done -> Announced must be flagged: {report}"
    );
    let rec_violations: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.code == replay::REC)
        .collect();
    assert_eq!(rec_violations.len(), 1, "exactly the forced edge: {report}");
    assert!(
        rec_violations[0].detail.contains("Done -> Announced"),
        "diagnostic names the edge: {}",
        rec_violations[0]
    );
}

#[test]
fn legal_record_lifecycle_is_clean() {
    let _gate = SESSION_GATE.lock();
    let session = SanSession::start();

    let rec = PubRecord::<u64, u64>::default();
    rec.announce(7);
    rec.complete(1); // Announced -> Done (owner applied it itself)
    assert_eq!(rec.take_result(), 1);
    // Reuse: the next announcement starts a fresh identity at Unannounced.
    rec.announce(8);
    rec.set_status(OpStatus::BeingHelped);
    rec.complete(2);

    let report = replay::check(&session.finish());
    assert!(report.ok(), "legal lifecycle must be clean: {report}");
}
