//! Shard storage: tagged value words, the per-shard value arena, and
//! the batch [`DataStructure`] the HCF engine drives.
//!
//! # Value encoding
//!
//! The transactional hash table ([`hcf_ds::HashTable`]) maps `u64` keys
//! to `u64` values, so a shard stores each KV value as one tagged word:
//!
//! * bit 63 **set** — an *inline integer*: the low 63 bits are the
//!   value. Canonical decimal strings below 2⁶³ are stored this way,
//!   which makes `INCR` a pure read-modify-write **inside the
//!   transaction** — the whole reason the encoding exists.
//! * bit 63 **clear** — a *handle*: an index into the shard's
//!   append-only [`Arena`] of byte strings.
//!
//! Whether `INCR` succeeds is decided by the tag bit alone, so the
//! decision is itself transactional; the arena is only touched outside
//! transactions (encode before submit, decode after commit), never from
//! speculative code.
//!
//! # Batching is combining
//!
//! [`KvShardDs`]'s operation type is a whole *batch* of per-key
//! operations ([`KvBatch`]), applied by `run_seq` in one transaction.
//! The connection thread that holds a shard's claim drains the shard's
//! queue — its own request and whatever other connections announced
//! meanwhile — into a single engine operation: the service-level
//! analogue of the paper's combiner applying announced operations in
//! one transaction. Only the claim holder executes on a shard's engine,
//! so the engine's own combining (`run_multi`) does not engage; if
//! several batches ever did pile up on one engine, its default
//! `run_multi` would replay them in one transaction, stacking the two
//! combining layers.

use std::sync::Arc;

use hcf_core::DataStructure;
use hcf_ds::HashTable;
use hcf_tmem::{MemCtx, TxResult};
use hcf_util::sync::Mutex;

/// Tag bit marking a value word as an inline 63-bit integer.
pub const INLINE_TAG: u64 = 1 << 63;

/// Parses a *canonical* decimal integer below 2⁶³: non-empty, ASCII
/// digits only, no leading zeros (except `"0"` itself), no sign. Only
/// canonical strings round-trip bit-exactly through the inline
/// encoding, so only they are inlined.
#[must_use]
pub fn parse_inline_int(bytes: &[u8]) -> Option<u64> {
    if bytes.is_empty() || bytes.len() > 19 || !bytes.iter().all(u8::is_ascii_digit) {
        return None;
    }
    if bytes.len() > 1 && bytes[0] == b'0' {
        return None;
    }
    let mut n: u64 = 0;
    for &d in bytes {
        n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
    }
    (n < INLINE_TAG).then_some(n)
}

/// Statistics of one shard's [`Arena`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Slots in the arena's table, holding a value or free for reuse.
    pub slots: u64,
    /// Retirements so far (overwritten or deleted values).
    pub retired_slots: u64,
    /// Bytes still reachable from the table.
    pub live_bytes: u64,
    /// Bytes of retired values so far; they are freed at retirement.
    pub dead_bytes: u64,
}

#[derive(Debug, Default)]
struct ArenaInner {
    /// `None` marks a free slot, whose handle is on `free`.
    slots: Vec<Option<Arc<[u8]>>>,
    free: Vec<u64>,
    retired: u64,
    live_bytes: u64,
    dead_bytes: u64,
}

/// Byte-string store for one shard's non-integer values.
///
/// Overwriting or deleting a value *retires* its handle: the bytes are
/// dropped and the handle goes on a free list that later pushes reuse.
/// That is safe because a handle is only ever used by the thread that
/// holds the shard's claim (see [`crate::server`]), and that thread
/// resolves a batch's results in operation order: a GET's handle is
/// decoded before any later operation of the same batch can retire it,
/// and pushes for the next batch happen only after the whole batch was
/// resolved.
#[derive(Debug, Default)]
pub struct Arena {
    inner: Mutex<ArenaInner>,
}

impl Arena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Arena::default()
    }

    /// Stores `bytes`, returning its handle (always < 2⁶³). Handles
    /// retired earlier are reused first.
    pub fn push(&self, bytes: &[u8]) -> u64 {
        let mut g = self.inner.lock();
        g.live_bytes += bytes.len() as u64;
        let value = Some(Arc::from(bytes));
        match g.free.pop() {
            Some(h) => {
                g.slots[h as usize] = value;
                h
            }
            None => {
                g.slots.push(value);
                (g.slots.len() - 1) as u64
            }
        }
    }

    /// Resolves a handle. `None` for handles never issued or retired.
    pub fn get(&self, handle: u64) -> Option<Arc<[u8]>> {
        self.inner.lock().slots.get(handle as usize)?.clone()
    }

    /// Frees a handle's bytes and makes the handle reusable. Call once,
    /// when the word holding the handle is overwritten or deleted.
    pub fn retire(&self, handle: u64) {
        let mut g = self.inner.lock();
        let Some(v) = g.slots.get_mut(handle as usize).and_then(Option::take) else {
            return;
        };
        let len = v.len() as u64;
        g.free.push(handle);
        g.retired += 1;
        g.live_bytes = g.live_bytes.saturating_sub(len);
        g.dead_bytes += len;
    }

    /// Point-in-time accounting snapshot.
    pub fn stats(&self) -> ArenaStats {
        let g = self.inner.lock();
        ArenaStats {
            slots: g.slots.len() as u64,
            retired_slots: g.retired,
            live_bytes: g.live_bytes,
            dead_bytes: g.dead_bytes,
        }
    }
}

/// Encodes a client value as a tagged word, storing non-integers in
/// `arena`. Runs *outside* any transaction (arena pushes must happen
/// exactly once, not once per speculative retry).
#[must_use]
pub fn encode_value(bytes: &[u8], arena: &Arena) -> u64 {
    match parse_inline_int(bytes) {
        Some(n) => INLINE_TAG | n,
        None => arena.push(bytes),
    }
}

/// Decodes a committed value word back to client bytes.
///
/// # Panics
///
/// Panics if a handle word was never issued by `arena` — impossible for
/// words read from the shard's own table.
#[must_use]
pub fn decode_value(word: u64, arena: &Arena) -> Vec<u8> {
    if word & INLINE_TAG != 0 {
        (word & !INLINE_TAG).to_string().into_bytes()
    } else {
        arena
            .get(word)
            .expect("dangling arena handle in table")
            .to_vec()
    }
}

/// One per-key operation inside a batch, already lowered to hashed keys
/// and encoded value words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvOp {
    /// Read a key's word.
    Get(u64),
    /// Store a word, returning the previous one.
    Set(u64, u64),
    /// Remove a key, returning the previous word.
    Del(u64),
    /// Increment an inline integer (missing key starts at 0).
    Incr(u64),
}

/// Per-operation result, positionally matching the batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KvRes {
    /// Current (`Get`) or previous (`Set`/`Del`) word, if any.
    Word(Option<u64>),
    /// `Incr`: the new value.
    Int(u64),
    /// `Incr` on a non-integer (arena) value; nothing was modified.
    NotInt,
}

/// A batch of operations submitted as **one** engine operation.
/// `Arc`'d because the engine clones operation descriptors when
/// announcing and combining them.
pub type KvBatch = Arc<Vec<KvOp>>;

/// Results of one batch, positionally.
pub type KvBatchRes = Arc<Vec<KvRes>>;

/// The per-shard [`DataStructure`]: a transactional hash table whose
/// operation granularity is a whole batch.
#[derive(Debug)]
pub struct KvShardDs {
    table: HashTable,
}

impl KvShardDs {
    /// Wraps a created [`HashTable`].
    pub fn new(table: HashTable) -> Self {
        KvShardDs { table }
    }
}

impl DataStructure for KvShardDs {
    type Op = KvBatch;
    type Res = KvBatchRes;

    fn run_seq(&self, ctx: &mut dyn MemCtx, batch: &KvBatch) -> TxResult<KvBatchRes> {
        let mut out = Vec::with_capacity(batch.len());
        for op in batch.iter() {
            let res = match *op {
                KvOp::Get(k) => KvRes::Word(self.table.find(ctx, k)?),
                KvOp::Set(k, w) => KvRes::Word(self.table.insert(ctx, k, w)?),
                KvOp::Del(k) => KvRes::Word(self.table.remove(ctx, k)?),
                KvOp::Incr(k) => match self.table.find(ctx, k)? {
                    None => {
                        self.table.insert(ctx, k, INLINE_TAG | 1)?;
                        KvRes::Int(1)
                    }
                    Some(w) if w & INLINE_TAG != 0 => {
                        // Wraps within 63 bits; the tag bit is immune.
                        let n = w.wrapping_add(1) & !INLINE_TAG;
                        self.table.insert(ctx, k, INLINE_TAG | n)?;
                        KvRes::Int(n)
                    }
                    Some(_) => KvRes::NotInt,
                },
            };
            out.push(res);
        }
        Ok(Arc::new(out))
    }

    /// Batches are already combined; keep engine-level recombination
    /// chunks small so a multi-batch transaction still fits.
    fn max_multi(&self) -> usize {
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcf_tmem::{DirectCtx, RealRuntime, TMem, TMemConfig};

    #[test]
    fn inline_int_parsing_is_canonical_only() {
        assert_eq!(parse_inline_int(b"0"), Some(0));
        assert_eq!(parse_inline_int(b"42"), Some(42));
        assert_eq!(
            parse_inline_int(b"9223372036854775807"),
            Some((1 << 63) - 1)
        );
        for bad in [
            &b""[..],
            b"01",
            b"+1",
            b"-1",
            b" 1",
            b"1x",
            b"9223372036854775808", // 2^63: no longer inline-representable
            b"99999999999999999999",
        ] {
            assert_eq!(parse_inline_int(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn values_roundtrip_through_encoding() {
        let arena = Arena::new();
        for v in [
            &b"7"[..],
            b"0",
            b"hello",
            b"",
            b"007",
            b"-3",
            b"9223372036854775808",
        ] {
            let w = encode_value(v, &arena);
            assert_eq!(decode_value(w, &arena), v.to_vec(), "{v:?}");
        }
        // Inline ints never hit the arena; everything else does.
        assert_eq!(arena.stats().slots, 5);
    }

    #[test]
    fn arena_accounting_tracks_retirement() {
        let arena = Arena::new();
        let h1 = arena.push(b"abcd");
        let h2 = arena.push(b"xy");
        assert_ne!(h1, h2);
        assert_eq!(arena.stats().live_bytes, 6);
        arena.retire(h1);
        let s = arena.stats();
        assert_eq!(s.live_bytes, 2);
        assert_eq!(s.dead_bytes, 4);
        assert_eq!(s.retired_slots, 1);
        // Retirement frees the bytes, and the next push reuses the handle.
        assert!(arena.get(h1).is_none());
        assert_eq!(arena.push(b"zzz"), h1);
        assert_eq!(&*arena.get(h1).unwrap(), b"zzz");
        assert_eq!(arena.stats().slots, 2);
        assert_eq!(arena.stats().live_bytes, 5);
    }

    fn shard() -> (Arc<TMem>, RealRuntime, KvShardDs) {
        let mem = Arc::new(TMem::new(TMemConfig::default().with_words(1 << 16)));
        let rt = RealRuntime::new();
        let table = {
            let mut ctx = DirectCtx::new(&mem, &rt);
            HashTable::create(&mut ctx, 64).unwrap()
        };
        (mem, rt, KvShardDs::new(table))
    }

    #[test]
    fn batch_semantics_match_a_model() {
        let (mem, rt, ds) = shard();
        let mut ctx = DirectCtx::new(&mem, &rt);
        let batch: KvBatch = Arc::new(vec![
            KvOp::Get(1),
            KvOp::Set(1, INLINE_TAG | 5),
            KvOp::Incr(1),
            KvOp::Incr(1),
            KvOp::Get(1),
            KvOp::Del(1),
            KvOp::Get(1),
            KvOp::Incr(2),
            KvOp::Set(3, 0), // handle word (arena index 0)
            KvOp::Incr(3),
        ]);
        let res = ds.run_seq(&mut ctx, &batch).unwrap();
        assert_eq!(
            *res,
            vec![
                KvRes::Word(None),
                KvRes::Word(None),
                KvRes::Int(6),
                KvRes::Int(7),
                KvRes::Word(Some(INLINE_TAG | 7)),
                KvRes::Word(Some(INLINE_TAG | 7)),
                KvRes::Word(None),
                KvRes::Int(1),
                KvRes::Word(None),
                KvRes::NotInt,
            ]
        );
    }

    #[test]
    fn incr_wraps_within_63_bits() {
        let (mem, rt, ds) = shard();
        let mut ctx = DirectCtx::new(&mem, &rt);
        let max = INLINE_TAG - 1;
        let batch: KvBatch = Arc::new(vec![KvOp::Set(9, INLINE_TAG | max), KvOp::Incr(9)]);
        let res = ds.run_seq(&mut ctx, &batch).unwrap();
        assert_eq!(res[1], KvRes::Int(0));
    }
}
