//! Word-based eager software transactional memory over the device arena.
//!
//! A reproduction of the lightweight GPU STM of Holey & Zhai (ICPP'14) that
//! both the STM GB-tree baseline and Eirene's update kernel build on
//! (§3, §7 of the paper): encounter-time (eager) locking with undo logging
//! and eager conflict detection.
//!
//! * Every arena word maps to a record in an **ownership table** that
//!   itself lives in device memory, so the extra memory traffic STM incurs
//!   (ownership-record reads on every transactional access — the 2.98×
//!   memory-instruction blow-up of Fig. 1) is counted by the same
//!   instrumentation as ordinary accesses.
//! * The layout is linear: words `2i` and `2i + 1` share record
//!   `i mod stripes`. Conflict granularity is two words, and a contiguous
//!   block of words maps to a contiguous run of records, which wraps the
//!   end of the table at most once. A 38-word tree node therefore has 19
//!   adjacent records, two coalesced transactions instead of 19 scattered
//!   ones.
//! * A stripe record is either an even **version number** or an odd **lock
//!   marker** naming the owning transaction. Writers CAS the record from
//!   version to marker at first write (acquiring ownership), write in
//!   place, and keep an undo log; readers check the record and remember the
//!   version, and check it again after reading the data (TL2 post-check).
//! * Word ops ([`Tx::read`], [`Tx::write`]) serve the word-level tree
//!   work: descents, splits and merges. Block ops serve a warp that moves
//!   a whole node at once. [`Tx::read_block`] is one block read of the
//!   record run (aborting on a foreign owner), one coalesced data read, one
//!   block re-read of the records, and one read-set entry per record.
//!   [`Tx::write_block`] is one block read of the records, one CAS per
//!   stripe not yet owned, one block read of the old words for the undo
//!   log, and one block write. Each charges exactly the device operations
//!   it issues.
//! * Conflicts are detected eagerly: touching a stripe owned by another
//!   transaction aborts immediately (no waiting — so no deadlock). Commit
//!   validates the read set with one block read per run of contiguous
//!   records, then releases owned stripes at their version plus 2. Abort
//!   rolls the undo log back and also releases at version plus 2: a
//!   rollback that restored the old version would let a reader that saw
//!   the aborted writer's dirty word validate it (an ABA on the record).
//!
//! Like the original, the STM provides conflict-serializability but not
//! opacity: a doomed transaction may observe an inconsistent snapshot
//! before it aborts. Two things keep that safe. First, a node unlinked by
//! a committed merge is retired into the arena's quarantine and recycled
//! only after the epoch ends, so within an epoch a stale pointer still
//! reaches a valid, if outdated, node and commit-time validation forces the
//! retry. Second, every transactional traversal in `eirene-btree` is
//! bounded (64 levels or restarts, 256 leaf hops) and aborts past the
//! bound, so a doomed transaction reading a torn or cyclic chain
//! terminates instead of spinning while its read set grows.

mod tx;

pub use tx::{Abort, Stm, Tx, TxResult};
