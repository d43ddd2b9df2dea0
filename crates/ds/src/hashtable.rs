//! The §3.3 hash table.
//!
//! A fixed number of buckets, each a singly linked chain of key-value
//! nodes, **plus a doubly linked "table list"** threading every pair (for
//! efficient iteration). The table list is the experiment's designed
//! contention point: every `Insert` pushes onto its head, so concurrent
//! inserts always conflict there, while `Find` and `Remove` touch random
//! list positions and rarely conflict — exactly the TLE/FC gap HCF
//! targets.
//!
//! `insert_n` is the combined operation (paper §3.3): it chains all newly
//! created nodes together locally and splices them onto the table list
//! with a *single* head update.
//!
//! # Node layout (5 words)
//!
//! ```text
//! [0] key   [1] value   [2] bucket_next   [3] list_next   [4] list_prev
//! ```

use hcf_core::{DataStructure, HcfConfig, PhasePolicy};
use hcf_tmem::{Addr, MemCtx, TxResult};

const NODE_WORDS: usize = 5;
const F_KEY: u64 = 0;
const F_VAL: u64 = 1;
const F_BNEXT: u64 = 2;
const F_LNEXT: u64 = 3;
const F_LPREV: u64 = 4;

/// Header layout: `[0]` list head. Deliberately *no* size counter: a
/// transactionally maintained counter would make every update conflict on
/// the header line, destroying the Find/Remove parallelism the §3.3
/// experiment depends on; [`HashTable::len`] walks the table list instead.
const H_LIST: u64 = 0;

/// The sequential hash table. Holds only addresses; all state lives in
/// the transactional memory, so the struct is freely shareable.
#[derive(Clone, Copy, Debug)]
pub struct HashTable {
    header: Addr,
    buckets: Addr,
    n_buckets: u64,
}

impl HashTable {
    /// Creates a table with `n_buckets` buckets (rounded up to a power of
    /// two).
    ///
    /// # Errors
    ///
    /// Propagates pool exhaustion.
    pub fn create(ctx: &mut dyn MemCtx, n_buckets: u64) -> TxResult<Self> {
        let n_buckets = n_buckets.next_power_of_two();
        // The table-list head is the table's hottest word (every insert
        // writes it); give it a line of its own so it does not
        // false-share with the first buckets.
        let header = ctx.alloc_line()?;
        let buckets = ctx.alloc(n_buckets as usize)?;
        Ok(HashTable {
            header,
            buckets,
            n_buckets,
        })
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> Addr {
        // Fibonacci hashing; deterministic across runs and variants.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - self.n_buckets.trailing_zeros());
        self.buckets + (h & (self.n_buckets - 1))
    }

    /// Looks up `key`, returning its value.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn find(&self, ctx: &mut dyn MemCtx, key: u64) -> TxResult<Option<u64>> {
        let mut cur = Addr(ctx.read(self.bucket_of(key))?);
        while !cur.is_null() {
            if ctx.read(cur + F_KEY)? == key {
                return Ok(Some(ctx.read(cur + F_VAL)?));
            }
            cur = Addr(ctx.read(cur + F_BNEXT)?);
        }
        Ok(None)
    }

    /// Inserts or updates `key`, returning the previous value if any.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn insert(&self, ctx: &mut dyn MemCtx, key: u64, value: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket_of(key);
        let mut cur = Addr(ctx.read(bucket)?);
        while !cur.is_null() {
            if ctx.read(cur + F_KEY)? == key {
                let old = ctx.read(cur + F_VAL)?;
                ctx.write(cur + F_VAL, value)?;
                return Ok(Some(old));
            }
            cur = Addr(ctx.read(cur + F_BNEXT)?);
        }
        let node = self.new_node(ctx, key, value, bucket)?;
        // Push onto the table-list head: the designed contention point.
        let head = Addr(ctx.read(self.header + H_LIST)?);
        ctx.write(node + F_LNEXT, head.0)?;
        if !head.is_null() {
            ctx.write(head + F_LPREV, node.0)?;
        }
        ctx.write(self.header + H_LIST, node.0)?;
        Ok(None)
    }

    /// Removes `key`, returning its value if present. Also unlinks the
    /// pair from the table list (a random list position — no conflict
    /// with the head in the common case).
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn remove(&self, ctx: &mut dyn MemCtx, key: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket_of(key);
        let mut prev = Addr::NULL;
        let mut cur = Addr(ctx.read(bucket)?);
        while !cur.is_null() {
            if ctx.read(cur + F_KEY)? == key {
                let bnext = ctx.read(cur + F_BNEXT)?;
                if prev.is_null() {
                    ctx.write(bucket, bnext)?;
                } else {
                    ctx.write(prev + F_BNEXT, bnext)?;
                }
                self.unlink_from_list(ctx, cur)?;
                let val = ctx.read(cur + F_VAL)?;
                ctx.free(cur, NODE_WORDS);
                return Ok(Some(val));
            }
            prev = cur;
            cur = Addr(ctx.read(cur + F_BNEXT)?);
        }
        Ok(None)
    }

    /// The combined multi-insert (§3.3): applies each `(key, value)` like
    /// [`HashTable::insert`], but chains all *newly created* nodes locally
    /// and splices the chain onto the table list with one head update.
    /// Returns the per-pair previous values, positionally.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn insert_n(
        &self,
        ctx: &mut dyn MemCtx,
        pairs: &[(u64, u64)],
    ) -> TxResult<Vec<Option<u64>>> {
        let mut results = Vec::with_capacity(pairs.len());
        let mut chain_head = Addr::NULL;
        let mut chain_tail = Addr::NULL;
        for &(key, value) in pairs {
            let bucket = self.bucket_of(key);
            let mut cur = Addr(ctx.read(bucket)?);
            let mut found = false;
            while !cur.is_null() {
                if ctx.read(cur + F_KEY)? == key {
                    let old = ctx.read(cur + F_VAL)?;
                    ctx.write(cur + F_VAL, value)?;
                    results.push(Some(old));
                    found = true;
                    break;
                }
                cur = Addr(ctx.read(cur + F_BNEXT)?);
            }
            if found {
                continue;
            }
            let node = self.new_node(ctx, key, value, bucket)?;
            if chain_head.is_null() {
                chain_head = node;
            } else {
                ctx.write(chain_tail + F_LNEXT, node.0)?;
                ctx.write(node + F_LPREV, chain_tail.0)?;
            }
            chain_tail = node;
            results.push(None);
        }
        if !chain_head.is_null() {
            let head = Addr(ctx.read(self.header + H_LIST)?);
            ctx.write(chain_tail + F_LNEXT, head.0)?;
            if !head.is_null() {
                ctx.write(head + F_LPREV, chain_tail.0)?;
            }
            ctx.write(self.header + H_LIST, chain_head.0)?;
        }
        Ok(results)
    }

    /// Number of pairs in the table (walks the table list; O(n)).
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn len(&self, ctx: &mut dyn MemCtx) -> TxResult<u64> {
        let mut n = 0;
        let mut cur = Addr(ctx.read(self.header + H_LIST)?);
        while !cur.is_null() {
            n += 1;
            cur = Addr(ctx.read(cur + F_LNEXT)?);
        }
        Ok(n)
    }

    /// `true` when the table is empty (O(1)).
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn is_empty(&self, ctx: &mut dyn MemCtx) -> TxResult<bool> {
        Ok(ctx.read(self.header + H_LIST)? == 0)
    }

    /// Iterates the table list, returning `(key, value)` pairs in list
    /// order (most recently inserted first). The operation the table list
    /// exists for.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn collect(&self, ctx: &mut dyn MemCtx) -> TxResult<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        let mut cur = Addr(ctx.read(self.header + H_LIST)?);
        while !cur.is_null() {
            out.push((ctx.read(cur + F_KEY)?, ctx.read(cur + F_VAL)?));
            cur = Addr(ctx.read(cur + F_LNEXT)?);
        }
        Ok(out)
    }

    /// Structural invariant check for tests: table-list double links are
    /// consistent, bucket membership matches hashes, and the size counter
    /// matches the list length.
    ///
    /// # Errors
    ///
    /// Transactional aborts when running speculatively.
    pub fn check_invariants(&self, ctx: &mut dyn MemCtx) -> TxResult<bool> {
        let mut count = 0u64;
        let mut prev = Addr::NULL;
        let mut cur = Addr(ctx.read(self.header + H_LIST)?);
        while !cur.is_null() {
            if Addr(ctx.read(cur + F_LPREV)?) != prev {
                return Ok(false);
            }
            let key = ctx.read(cur + F_KEY)?;
            // The node must be findable through its bucket.
            let mut b = Addr(ctx.read(self.bucket_of(key))?);
            let mut in_bucket = false;
            while !b.is_null() {
                if b == cur {
                    in_bucket = true;
                    break;
                }
                b = Addr(ctx.read(b + F_BNEXT)?);
            }
            if !in_bucket {
                return Ok(false);
            }
            count += 1;
            prev = cur;
            cur = Addr(ctx.read(cur + F_LNEXT)?);
        }
        Ok(count == self.len(ctx)?)
    }

    fn new_node(&self, ctx: &mut dyn MemCtx, key: u64, value: u64, bucket: Addr) -> TxResult<Addr> {
        let node = ctx.alloc(NODE_WORDS)?;
        ctx.write(node + F_KEY, key)?;
        ctx.write(node + F_VAL, value)?;
        let bhead = ctx.read(bucket)?;
        ctx.write(node + F_BNEXT, bhead)?;
        ctx.write(bucket, node.0)?;
        Ok(node)
    }

    fn unlink_from_list(&self, ctx: &mut dyn MemCtx, node: Addr) -> TxResult<()> {
        let next = Addr(ctx.read(node + F_LNEXT)?);
        let prev = Addr(ctx.read(node + F_LPREV)?);
        if prev.is_null() {
            ctx.write(self.header + H_LIST, next.0)?;
        } else {
            ctx.write(prev + F_LNEXT, next.0)?;
        }
        if !next.is_null() {
            ctx.write(next + F_LPREV, prev.0)?;
        }
        Ok(())
    }
}

/// Map operations, with the array split used by the §3.3 experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MapOp {
    /// Insert or update a pair; returns the previous value.
    Insert(u64, u64),
    /// Remove a key; returns the removed value.
    Remove(u64),
    /// Look up a key; returns its value.
    Find(u64),
}

impl MapOp {
    /// The key this operation addresses.
    pub fn key(&self) -> u64 {
        match *self {
            MapOp::Insert(k, _) | MapOp::Remove(k) | MapOp::Find(k) => k,
        }
    }
}

/// Publication array holding `Find`/`Remove` (TLE-like policy).
pub const ARRAY_READERS: usize = 0;
/// Publication array holding `Insert` (full four-phase policy with
/// `insert_n` combining).
pub const ARRAY_INSERTS: usize = 1;

/// [`DataStructure`] wrapper implementing the paper's hash-table
/// customization: two publication arrays, `insert_n` combining for the
/// insert array, sequential replay for everything else.
#[derive(Clone, Copy, Debug)]
pub struct HashTableDs {
    table: HashTable,
}

impl HashTableDs {
    /// Wraps a table.
    pub fn new(table: HashTable) -> Self {
        HashTableDs { table }
    }

    /// The underlying table.
    pub fn table(&self) -> &HashTable {
        &self.table
    }

    /// The tuned HCF configuration from §3.3: Find/Remove behave like TLE
    /// (all ten attempts private, own-only combining); Insert uses the
    /// full 2/3/5 pipeline with help-everyone selection, plus the §2.4
    /// specialized contention control (the insert combiner holds its
    /// selection lock for the whole session, so announced inserts back
    /// off cheaply instead of stampeding the table-list head — Finds and
    /// Removes are unaffected, they live on the other array).
    pub fn hcf_config(max_threads: usize) -> HcfConfig {
        HcfConfig::new(max_threads)
            .with_policy(ARRAY_READERS, PhasePolicy::tle_like(10))
            .with_policy(ARRAY_INSERTS, PhasePolicy::hcf_default().specialized(true))
    }
}

impl DataStructure for HashTableDs {
    type Op = MapOp;
    type Res = Option<u64>;

    fn num_arrays(&self) -> usize {
        2
    }

    fn array_of(&self, op: &MapOp) -> usize {
        match op {
            MapOp::Insert(..) => ARRAY_INSERTS,
            MapOp::Remove(_) | MapOp::Find(_) => ARRAY_READERS,
        }
    }

    fn run_seq(&self, ctx: &mut dyn MemCtx, op: &MapOp) -> TxResult<Option<u64>> {
        match *op {
            MapOp::Insert(k, v) => self.table.insert(ctx, k, v),
            MapOp::Remove(k) => self.table.remove(ctx, k),
            MapOp::Find(k) => self.table.find(ctx, k),
        }
    }

    fn run_multi(
        &self,
        ctx: &mut dyn MemCtx,
        ops: &[MapOp],
        out: &mut Vec<(usize, Option<u64>)>,
    ) -> TxResult<()> {
        // Combine the inserts through insert_n; replay anything else.
        let mut inserts: Vec<(usize, (u64, u64))> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                MapOp::Insert(k, v) => inserts.push((i, (k, v))),
                _ => out.push((i, self.run_seq(ctx, op)?)),
            }
        }
        if !inserts.is_empty() {
            let pairs: Vec<(u64, u64)> = inserts.iter().map(|&(_, p)| p).collect();
            let results = self.table.insert_n(ctx, &pairs)?;
            for ((i, _), r) in inserts.into_iter().zip(results) {
                out.push((i, r));
            }
        }
        Ok(())
    }

    fn max_multi(&self) -> usize {
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hcf_tmem::{DirectCtx, RealRuntime, TMem, TMemConfig};
    use std::collections::HashMap;

    fn setup() -> (TMem, RealRuntime) {
        (TMem::new(TMemConfig::default()), RealRuntime::new())
    }

    #[test]
    fn insert_find_remove() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = HashTable::create(&mut ctx, 16).unwrap();
        assert_eq!(t.find(&mut ctx, 1).unwrap(), None);
        assert_eq!(t.insert(&mut ctx, 1, 10).unwrap(), None);
        assert_eq!(t.insert(&mut ctx, 1, 11).unwrap(), Some(10));
        assert_eq!(t.find(&mut ctx, 1).unwrap(), Some(11));
        assert_eq!(t.remove(&mut ctx, 1).unwrap(), Some(11));
        assert_eq!(t.remove(&mut ctx, 1).unwrap(), None);
        assert!(t.is_empty(&mut ctx).unwrap());
    }

    #[test]
    fn collision_chains_work() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        // 2 buckets -> plenty of collisions.
        let t = HashTable::create(&mut ctx, 2).unwrap();
        for k in 0..32 {
            assert_eq!(t.insert(&mut ctx, k, k * 100).unwrap(), None);
        }
        for k in 0..32 {
            assert_eq!(t.find(&mut ctx, k).unwrap(), Some(k * 100));
        }
        assert_eq!(t.len(&mut ctx).unwrap(), 32);
        assert!(t.check_invariants(&mut ctx).unwrap());
        for k in (0..32).step_by(2) {
            assert_eq!(t.remove(&mut ctx, k).unwrap(), Some(k * 100));
        }
        assert_eq!(t.len(&mut ctx).unwrap(), 16);
        assert!(t.check_invariants(&mut ctx).unwrap());
    }

    #[test]
    fn table_list_orders_recent_first() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = HashTable::create(&mut ctx, 16).unwrap();
        t.insert(&mut ctx, 1, 1).unwrap();
        t.insert(&mut ctx, 2, 2).unwrap();
        t.insert(&mut ctx, 3, 3).unwrap();
        let keys: Vec<u64> = t
            .collect(&mut ctx)
            .unwrap()
            .iter()
            .map(|&(k, _)| k)
            .collect();
        assert_eq!(keys, vec![3, 2, 1]);
    }

    #[test]
    fn remove_middle_of_table_list() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = HashTable::create(&mut ctx, 16).unwrap();
        for k in 1..=3 {
            t.insert(&mut ctx, k, k).unwrap();
        }
        t.remove(&mut ctx, 2).unwrap();
        let keys: Vec<u64> = t
            .collect(&mut ctx)
            .unwrap()
            .iter()
            .map(|&(k, _)| k)
            .collect();
        assert_eq!(keys, vec![3, 1]);
        assert!(t.check_invariants(&mut ctx).unwrap());
    }

    #[test]
    fn insert_n_single_head_splice() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = HashTable::create(&mut ctx, 16).unwrap();
        t.insert(&mut ctx, 100, 0).unwrap();
        let res = t
            .insert_n(&mut ctx, &[(1, 10), (2, 20), (100, 1), (1, 11)])
            .unwrap();
        assert_eq!(res, vec![None, None, Some(0), Some(10)]);
        assert_eq!(t.find(&mut ctx, 1).unwrap(), Some(11));
        assert_eq!(t.find(&mut ctx, 2).unwrap(), Some(20));
        assert_eq!(t.find(&mut ctx, 100).unwrap(), Some(1));
        assert_eq!(t.len(&mut ctx).unwrap(), 3);
        assert!(t.check_invariants(&mut ctx).unwrap());
    }

    #[test]
    fn insert_n_matches_repeated_insert() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let a = HashTable::create(&mut ctx, 8).unwrap();
        let b = HashTable::create(&mut ctx, 8).unwrap();
        let pairs: Vec<(u64, u64)> = (0..20).map(|i| (i % 7, i)).collect();
        let multi = a.insert_n(&mut ctx, &pairs).unwrap();
        let single: Vec<Option<u64>> = pairs
            .iter()
            .map(|&(k, v)| b.insert(&mut ctx, k, v).unwrap())
            .collect();
        assert_eq!(multi, single);
        let mut ka: Vec<_> = a.collect(&mut ctx).unwrap();
        let mut kb: Vec<_> = b.collect(&mut ctx).unwrap();
        ka.sort_unstable();
        kb.sort_unstable();
        assert_eq!(ka, kb);
    }

    #[test]
    fn matches_std_hashmap_on_random_ops() {
        use hcf_util::rng::*;
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let t = HashTable::create(&mut ctx, 64).unwrap();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..2000 {
            let k = rng.random_range(0..100u64);
            match rng.random_range(0..3) {
                0 => {
                    let v = rng.random();
                    assert_eq!(t.insert(&mut ctx, k, v).unwrap(), model.insert(k, v));
                }
                1 => assert_eq!(t.remove(&mut ctx, k).unwrap(), model.remove(&k)),
                _ => assert_eq!(t.find(&mut ctx, k).unwrap(), model.get(&k).copied()),
            }
        }
        assert_eq!(t.len(&mut ctx).unwrap(), model.len() as u64);
        assert!(t.check_invariants(&mut ctx).unwrap());
    }

    #[test]
    fn ds_routes_ops_to_arrays() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let ds = HashTableDs::new(HashTable::create(&mut ctx, 16).unwrap());
        assert_eq!(ds.array_of(&MapOp::Insert(1, 1)), ARRAY_INSERTS);
        assert_eq!(ds.array_of(&MapOp::Find(1)), ARRAY_READERS);
        assert_eq!(ds.array_of(&MapOp::Remove(1)), ARRAY_READERS);
        assert_eq!(ds.num_arrays(), 2);
    }

    #[test]
    fn ds_run_multi_combines_inserts() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let ds = HashTableDs::new(HashTable::create(&mut ctx, 16).unwrap());
        let ops = [
            MapOp::Insert(1, 10),
            MapOp::Insert(2, 20),
            MapOp::Insert(1, 11),
        ];
        let mut res = Vec::new();
        ds.run_multi(&mut ctx, &ops, &mut res).unwrap();
        res.sort_by_key(|&(i, _)| i);
        assert_eq!(res, vec![(0, None), (1, None), (2, Some(10))]);
        assert_eq!(ds.table().find(&mut ctx, 1).unwrap(), Some(11));
    }

    #[test]
    fn ds_run_multi_mixed_batch() {
        let (m, rt) = setup();
        let mut ctx = DirectCtx::new(&m, &rt);
        let ds = HashTableDs::new(HashTable::create(&mut ctx, 16).unwrap());
        ds.table().insert(&mut ctx, 5, 50).unwrap();
        let ops = [MapOp::Find(5), MapOp::Remove(5), MapOp::Insert(6, 60)];
        let mut res = Vec::new();
        ds.run_multi(&mut ctx, &ops, &mut res).unwrap();
        res.sort_by_key(|&(i, _)| i);
        assert_eq!(res, vec![(0, Some(50)), (1, Some(50)), (2, None)]);
    }

    #[test]
    fn op_key_accessor() {
        assert_eq!(MapOp::Insert(3, 4).key(), 3);
        assert_eq!(MapOp::Remove(5).key(), 5);
        assert_eq!(MapOp::Find(7).key(), 7);
    }
}
