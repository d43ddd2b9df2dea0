//! # hcf-ds — sequential data structures over transactional memory
//!
//! The evaluation subjects of *"Transactional Lock Elision Meets
//! Combining"* (PODC 2017), written as **sequential** code against
//! [`hcf_tmem::MemCtx`] so the HCF framework (and every baseline) can run
//! them speculatively or under a lock:
//!
//! * [`hashtable`] — the §3.3 hash table: per-bucket chains plus a doubly
//!   linked *table list* through all pairs, whose head makes every
//!   `Insert` conflict while `Find`/`Remove` stay conflict-free; includes
//!   the combined `insert_n` operation.
//! * [`avl`] — the §3.4 AVL-tree set with the root-key look-aside used by
//!   subtree-selective combining, and a `run_multi` that sorts, combines
//!   and eliminates same-key operations.
//! * [`skiplist_pq`] — the §1 motivating example: a skip-list priority
//!   queue whose `Insert`s parallelize and whose `RemoveMin`s always
//!   conflict (and combine well).
//! * [`deque`] — the §2.4 example with one publication array per end and
//!   specialized (selection-lock-holding) combiners.
//! * [`queue`] — a FIFO queue (the classic flat-combining structure) with
//!   per-class arrays and `enqueue_n`/`dequeue_n` combining.
//! * [`sorted_list`] — a sorted linked-list set whose combined
//!   `run_multi` applies a whole sorted batch in one traversal (the
//!   largest algorithmic win combining can offer).
//! * [`stack`] — a high-contention honesty check where plain FC is
//!   expected to win; demonstrates push/pop elimination.
//!
//! Each module provides the raw structure (methods over `&mut dyn MemCtx`),
//! an op/result enum, a [`hcf_core::DataStructure`] wrapper, and the tuned
//! [`hcf_core::HcfConfig`] used by the experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod avl;
pub mod deque;
pub mod hashtable;
pub mod queue;
pub mod skiplist_pq;
pub mod sorted_list;
pub mod stack;

pub use avl::{AvlDs, AvlMode, AvlTree, SetOp};
pub use deque::{Deque, DequeDs, DequeOp};
pub use hashtable::{HashTable, HashTableDs, MapOp};
pub use queue::{Queue, QueueDs, QueueOp};
pub use skiplist_pq::{PqOp, SkipListPq, SkipListPqDs};
pub use sorted_list::{ListOp, SortedList, SortedListDs};
pub use stack::{Stack, StackDs, StackOp};
