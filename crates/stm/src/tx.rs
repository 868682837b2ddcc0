//! Transaction machinery: ownership table, transactions, retry helper.

use eirene_sim::{Addr, GlobalMemory, Phase, WarpCtx};
use std::sync::atomic::{AtomicU64, Ordering};

/// Marker error: the transaction hit a conflict and must be rolled back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort;

/// Result of a transactional operation.
pub type TxResult<T> = Result<T, Abort>;

/// Longest run of ownership records one block access covers: a warp
/// moves 32 words per instruction.
const RUN_CAP: usize = 32;

/// Largest arena block a transactional block access may span. Two words
/// share a record, so the block's records fit one warp-wide access.
const MAX_BLOCK_WORDS: usize = 2 * (RUN_CAP - 1);

/// STM instance: an ownership table in device memory.
///
/// `stripes` must be a power of two. Records are even version numbers
/// when free and odd `(tx_id << 1) | 1` markers when owned. The layout is
/// linear: arena words `2i` and `2i + 1` share record `i mod stripes`, so
/// a contiguous block of arena words maps to a contiguous run of records
/// (one coalesced access), wrapping at most once at the table's end.
pub struct Stm {
    table_base: Addr,
    mask: u64,
    next_tx_id: AtomicU64,
}

impl Stm {
    /// Allocates the ownership table in the arena.
    pub fn new(mem: &GlobalMemory, stripes: usize) -> Self {
        assert!(
            stripes.is_power_of_two() && stripes >= RUN_CAP,
            "stripe count must be a power of two of at least {RUN_CAP}"
        );
        let table_base = mem.alloc_aligned(stripes, 16);
        Stm {
            table_base,
            mask: stripes as u64 - 1,
            next_tx_id: AtomicU64::new(1),
        }
    }

    /// Ownership-record address for an arena word: two adjacent words
    /// share a record, and consecutive word pairs map to consecutive
    /// records.
    #[inline]
    pub fn record_addr(&self, addr: Addr) -> Addr {
        self.table_base + ((addr >> 1) & self.mask)
    }

    /// The record runs covering `words` arena words from `base`: one
    /// `(first record, length)` run, or two when the range wraps the end
    /// of the table (the second run then starts at the table base).
    fn record_runs(&self, base: Addr, words: usize) -> [(Addr, usize); 2] {
        assert!(
            (1..=MAX_BLOCK_WORDS).contains(&words),
            "block of {words} words exceeds a warp-wide record access"
        );
        let first = (base >> 1) & self.mask;
        let n = (((base + words as u64 - 1) >> 1) - (base >> 1) + 1) as usize;
        let head = n.min((self.mask + 1 - first) as usize);
        [(self.table_base + first, head), (self.table_base, n - head)]
    }

    /// Starts a transaction.
    pub fn begin(&self) -> Tx<'_> {
        let id = self.next_tx_id.fetch_add(1, Ordering::Relaxed);
        Tx {
            stm: self,
            marker: (id << 1) | 1,
            reads: Vec::new(),
            undo: Vec::new(),
            undo_words: Vec::new(),
            owned: Vec::new(),
            retires: Vec::new(),
            abort_retires: Vec::new(),
        }
    }

    /// Runs `body` in a transaction, retrying on abort up to `max_retries`
    /// times with linear back-off. Increments `ctx.stats.stm_aborts` per
    /// abort. Returns `Err(Abort)` only if every attempt aborted.
    pub fn run<T>(
        &self,
        ctx: &mut WarpCtx<'_>,
        max_retries: usize,
        mut body: impl FnMut(&mut Tx<'_>, &mut WarpCtx<'_>) -> TxResult<T>,
    ) -> TxResult<T> {
        for attempt in 0..=max_retries {
            let mut tx = self.begin();
            match body(&mut tx, ctx) {
                Ok(value) => {
                    if let Ok(()) = tx.commit(ctx) {
                        return Ok(value);
                    }
                }
                Err(Abort) => tx.rollback(ctx),
            }
            let prev = ctx.set_phase(Phase::StmCommit);
            ctx.stm_abort();
            // Capped linear back-off, charged as stall cycles.
            ctx.charge_cycles(50 * ((attempt as u64) + 1).min(16));
            ctx.set_phase(prev);
        }
        Err(Abort)
    }
}

impl std::fmt::Debug for Stm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stm")
            .field("stripes", &(self.mask + 1))
            .finish()
    }
}

/// Reads the records of `runs` into `out` with one block read per run.
fn read_records(ctx: &mut WarpCtx<'_>, runs: &[(Addr, usize); 2], out: &mut [u64]) {
    let (head, tail) = out.split_at_mut(runs[0].1);
    ctx.read_block(runs[0].0, head);
    if !tail.is_empty() {
        ctx.read_block(runs[1].0, tail);
    }
}

/// Addresses of the records in `runs`, in order.
fn record_addrs(runs: &[(Addr, usize); 2]) -> impl Iterator<Item = Addr> + '_ {
    runs.iter()
        .flat_map(|&(first, len)| first..first + len as u64)
}

/// Splits `(record, version)` entries into runs of consecutive record
/// addresses, each at most one warp-wide access long.
fn contiguous_runs(entries: &[(Addr, u64)]) -> impl Iterator<Item = &[(Addr, u64)]> {
    let mut rest = entries;
    std::iter::from_fn(move || {
        let &(first, _) = rest.first()?;
        let len = rest
            .iter()
            .take(RUN_CAP)
            .enumerate()
            .take_while(|&(i, &(rec, _))| rec == first + i as u64)
            .count();
        let (run, tail) = rest.split_at(len);
        rest = tail;
        Some(run)
    })
}

/// An in-flight transaction.
pub struct Tx<'s> {
    stm: &'s Stm,
    marker: u64,
    /// (record address, observed version).
    reads: Vec<(Addr, u64)>,
    /// (block address, words) — undo log, rolled back in reverse; the old
    /// words of every entry are stacked in `undo_words`.
    undo: Vec<(Addr, usize)>,
    undo_words: Vec<u64>,
    /// (record address, pre-lock version) for stripes this tx owns.
    owned: Vec<(Addr, u64)>,
    /// (block address, words, align) retirements deferred to commit: a
    /// retire inside an aborting transaction would be a use-after-free
    /// (the rolled-back tree still links the block), so retirement is a
    /// commit-time effect and a rollback simply drops the list.
    retires: Vec<(Addr, usize, usize)>,
    /// The mirror image: blocks this transaction allocated but has not
    /// yet published (e.g. a split's fresh sibling). On commit they are
    /// reachable and the list is dropped; on rollback the undo log
    /// unlinks them, so they are retired instead of leaking.
    abort_retires: Vec<(Addr, usize, usize)>,
}

impl<'s> Tx<'s> {
    #[inline]
    fn owns(&self, rec: Addr) -> bool {
        self.owned.iter().any(|&(r, _)| r == rec)
    }

    /// Transactional read of one word: a one-word
    /// [`read_block`](Self::read_block).
    pub fn read(&mut self, ctx: &mut WarpCtx<'_>, addr: Addr) -> TxResult<u64> {
        let mut word = [0u64];
        self.read_block(ctx, addr, &mut word)?;
        Ok(word[0])
    }

    /// Warp-cooperative transactional read of `out.len()` contiguous
    /// words with eager conflict detection: one block read of the
    /// covering record run (aborting on a foreign owner), one coalesced
    /// data read, one block re-read of the records, and one read-set entry
    /// per record not owned by this transaction. Words this transaction
    /// wrote read through.
    ///
    /// The re-read is TL2-style post-validation. Without it, a concurrent
    /// writer could install a value, hand it to this reader, and then
    /// abort; the post-check catches that dirty read at once instead of at
    /// commit.
    ///
    /// Ownership-record traffic is charged to [`Phase::StmAccess`]; the
    /// data access stays in the caller's phase, so tree-level phase rows
    /// remain visible under STM protection.
    pub fn read_block(
        &mut self,
        ctx: &mut WarpCtx<'_>,
        base: Addr,
        out: &mut [u64],
    ) -> TxResult<()> {
        let runs = self.stm.record_runs(base, out.len());
        let n = runs[0].1 + runs[1].1;
        let mut before = [0u64; RUN_CAP];
        let before = &mut before[..n];
        let prev = ctx.set_phase(Phase::StmAccess);
        ctx.control(4);
        read_records(ctx, &runs, before);
        ctx.set_phase(prev);
        if before.iter().any(|&r| r & 1 == 1 && r != self.marker) {
            return Err(Abort); // some stripe is owned by someone else
        }
        ctx.read_block(base, out);
        if before.iter().all(|&r| r == self.marker) {
            return Ok(()); // all ours: nothing to validate
        }
        let mut after = [0u64; RUN_CAP];
        let after = &mut after[..n];
        let prev = ctx.set_phase(Phase::StmAccess);
        read_records(ctx, &runs, after);
        ctx.control(1);
        ctx.set_phase(prev);
        if before != after {
            return Err(Abort); // a writer interfered mid-read
        }
        for (rec, &ver) in record_addrs(&runs).zip(before.iter()) {
            if ver != self.marker {
                self.reads.push((rec, ver));
            }
        }
        Ok(())
    }

    /// Transactional write with encounter-time locking and undo logging.
    pub fn write(&mut self, ctx: &mut WarpCtx<'_>, addr: Addr, value: u64) -> TxResult<()> {
        let rec = self.stm.record_addr(addr);
        // Stripe acquisition and undo logging are STM overhead; only the
        // final data-word store stays in the caller's phase.
        let prev = ctx.set_phase(Phase::StmAccess);
        // Encounter-time locking: ownership lookup, CAS result dispatch,
        // and undo-log append are control flow.
        ctx.control(6);
        if !self.owns(rec) {
            let cur = ctx.read(rec);
            if cur & 1 == 1 {
                ctx.set_phase(prev);
                return Err(Abort); // locked by another tx
            }
            if ctx.atomic_cas(rec, cur, self.marker).is_err() {
                ctx.set_phase(prev);
                return Err(Abort);
            }
            self.owned.push((rec, cur));
        }
        let old = ctx.read(addr);
        self.undo.push((addr, 1));
        self.undo_words.push(old);
        ctx.set_phase(prev);
        ctx.write(addr, value);
        Ok(())
    }

    /// Warp-cooperative transactional write of contiguous words: one
    /// block read of the covering record run, one CAS per stripe not yet
    /// owned (aborting on a foreign owner or a lost race), one block read
    /// of the old words into the undo log, and one coalesced block write.
    pub fn write_block(
        &mut self,
        ctx: &mut WarpCtx<'_>,
        base: Addr,
        values: &[u64],
    ) -> TxResult<()> {
        let runs = self.stm.record_runs(base, values.len());
        let n = runs[0].1 + runs[1].1;
        let mut cur = [0u64; RUN_CAP];
        let cur = &mut cur[..n];
        let prev = ctx.set_phase(Phase::StmAccess);
        ctx.control(6);
        read_records(ctx, &runs, cur);
        for (rec, &ver) in record_addrs(&runs).zip(cur.iter()) {
            if ver == self.marker {
                continue; // already ours
            }
            if ver & 1 == 1 || ctx.atomic_cas(rec, ver, self.marker).is_err() {
                ctx.set_phase(prev);
                return Err(Abort);
            }
            self.owned.push((rec, ver));
        }
        let start = self.undo_words.len();
        self.undo_words.resize(start + values.len(), 0);
        ctx.read_block(base, &mut self.undo_words[start..]);
        self.undo.push((base, values.len()));
        ctx.set_phase(prev);
        ctx.write_block(base, values);
        Ok(())
    }

    /// True if every read record still shows the version this transaction
    /// saw (or this transaction has since locked it from that version).
    /// One block read per contiguous run of the read set.
    fn validate(&self, ctx: &mut WarpCtx<'_>) -> bool {
        for run in contiguous_runs(&self.reads) {
            ctx.control(2);
            let mut now = [0u64; RUN_CAP];
            let now = &mut now[..run.len()];
            ctx.read_block(run[0].0, now);
            let ok = run.iter().zip(now.iter()).all(|(&(rec, ver), &cur)| {
                cur == ver || (cur == self.marker && self.pre_lock_version(rec) == Some(ver))
            });
            if !ok {
                return false;
            }
        }
        true
    }

    /// Releases every owned stripe at its pre-lock version plus 2, one
    /// block write per contiguous run. Commit and rollback both advance
    /// the version: a rollback that restored the old version would let a
    /// reader that saw the aborted writer's dirty word validate it.
    fn release(&self, ctx: &mut WarpCtx<'_>) {
        for run in contiguous_runs(&self.owned) {
            let mut next = [0u64; RUN_CAP];
            for (w, &(_, ver)) in next.iter_mut().zip(run) {
                *w = ver.wrapping_add(2);
            }
            ctx.write_block(run[0].0, &next[..run.len()]);
        }
    }

    /// Validates the read set and publishes: owned versions advance by 2.
    pub fn commit(self, ctx: &mut WarpCtx<'_>) -> TxResult<()> {
        let prev = ctx.set_phase(Phase::StmCommit);
        if !self.validate(ctx) {
            self.rollback(ctx);
            ctx.set_phase(prev);
            return Err(Abort);
        }
        self.release(ctx);
        // The tree no longer references deferred-retired blocks (the
        // unlinking writes just published), so quarantine them now.
        for &(addr, words, align) in &self.retires {
            ctx.raw_mem().retire(addr, words, align);
        }
        ctx.set_phase(prev);
        Ok(())
    }

    /// Defers a block retirement to a successful commit. If the
    /// transaction aborts, the block stays live (the rollback restores
    /// the links to it) and the request is dropped.
    pub fn defer_retire(&mut self, addr: Addr, words: usize, align: usize) {
        self.retires.push((addr, words, align));
    }

    /// Registers a freshly allocated, not-yet-published block for
    /// retirement if this transaction rolls back. A committed transaction
    /// drops the registration (the block became reachable when the links
    /// to it published).
    pub fn retire_on_abort(&mut self, addr: Addr, words: usize, align: usize) {
        self.abort_retires.push((addr, words, align));
    }

    fn pre_lock_version(&self, rec: Addr) -> Option<u64> {
        self.owned.iter().find(|&&(r, _)| r == rec).map(|&(_, v)| v)
    }

    /// Rolls back all writes (in reverse, one block write per logged
    /// block) and releases owned stripes at an advanced version.
    pub fn rollback(self, ctx: &mut WarpCtx<'_>) {
        let prev = ctx.set_phase(Phase::StmCommit);
        let mut end = self.undo_words.len();
        for &(base, len) in self.undo.iter().rev() {
            let start = end - len;
            ctx.write_block(base, &self.undo_words[start..end]);
            end = start;
        }
        self.release(ctx);
        // Blocks this tx allocated were never published (the undo log
        // just unlinked any references), so quarantine them instead of
        // leaking them into the bump arena.
        for &(addr, words, align) in &self.abort_retires {
            ctx.raw_mem().retire(addr, words, align);
        }
        ctx.set_phase(prev);
    }

    /// Number of read-set entries so far (diagnostics).
    pub fn read_set_len(&self) -> usize {
        self.reads.len()
    }

    /// Number of words written so far (diagnostics).
    pub fn write_set_len(&self) -> usize {
        self.undo_words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirene_sim::{Device, DeviceConfig};

    fn device() -> Device {
        Device::new(1 << 16, DeviceConfig::test_small())
    }

    #[test]
    fn committed_write_is_visible() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        stm.run(&mut ctx, 4, |tx, ctx| {
            tx.write(ctx, a, 42)?;
            Ok(())
        })
        .unwrap();
        assert_eq!(dev.mem().read(a), 42);
    }

    #[test]
    fn rollback_restores_old_values() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(2);
        dev.mem().write(a, 7);
        dev.mem().write(a + 1, 8);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        let mut tx = stm.begin();
        tx.write(&mut ctx, a, 100).unwrap();
        tx.write(&mut ctx, a + 1, 200).unwrap();
        tx.rollback(&mut ctx);
        assert_eq!(dev.mem().read(a), 7);
        assert_eq!(dev.mem().read(a + 1), 8);
    }

    #[test]
    fn read_own_write() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        let mut tx = stm.begin();
        tx.write(&mut ctx, a, 5).unwrap();
        assert_eq!(tx.read(&mut ctx, a), Ok(5));
        tx.commit(&mut ctx).unwrap();
    }

    #[test]
    fn writer_conflicts_abort_eagerly() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut ctx1 = WarpCtx::new(dev.mem(), dev.config(), 0);
        let mut ctx2 = WarpCtx::new(dev.mem(), dev.config(), 1);
        let mut t1 = stm.begin();
        t1.write(&mut ctx1, a, 1).unwrap();
        let mut t2 = stm.begin();
        assert_eq!(t2.write(&mut ctx2, a, 2), Err(Abort));
        assert_eq!(t2.read(&mut ctx2, a), Err(Abort));
        t2.rollback(&mut ctx2);
        t1.commit(&mut ctx1).unwrap();
        assert_eq!(dev.mem().read(a), 1);
    }

    #[test]
    fn commit_validates_read_set() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut ctx1 = WarpCtx::new(dev.mem(), dev.config(), 0);
        let mut ctx2 = WarpCtx::new(dev.mem(), dev.config(), 1);
        // T1 reads a, then T2 commits a write to a, then T1 must fail.
        let mut t1 = stm.begin();
        assert_eq!(t1.read(&mut ctx1, a), Ok(0));
        let mut t2 = stm.begin();
        t2.write(&mut ctx2, a, 9).unwrap();
        t2.commit(&mut ctx2).unwrap();
        assert_eq!(t1.commit(&mut ctx1), Err(Abort));
    }

    #[test]
    fn read_then_own_write_still_commits() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        let mut tx = stm.begin();
        assert_eq!(tx.read(&mut ctx, a), Ok(0));
        tx.write(&mut ctx, a, 3).unwrap();
        assert_eq!(tx.commit(&mut ctx), Ok(()));
        assert_eq!(dev.mem().read(a), 3);
    }

    #[test]
    fn run_retries_until_success() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        let mut attempts = 0;
        let r = stm.run(&mut ctx, 5, |tx, ctx| {
            attempts += 1;
            if attempts < 3 {
                return Err(Abort); // simulate conflicts
            }
            tx.write(ctx, a, 77)
        });
        assert_eq!(r, Ok(()));
        assert_eq!(attempts, 3);
        assert_eq!(ctx.stats.stm_aborts, 2);
        assert_eq!(dev.mem().read(a), 77);
    }

    #[test]
    fn concurrent_increments_are_atomic() {
        use rayon::prelude::*;
        let dev = device();
        let stm = Stm::new(dev.mem(), 1024);
        let cells: Vec<Addr> = (0..16).map(|_| dev.mem().alloc(1)).collect();
        let total: u64 = (0..64u64)
            .into_par_iter()
            .map(|wid| {
                let mut ctx = WarpCtx::new(dev.mem(), dev.config(), wid as usize);
                let mut done = 0;
                for i in 0..100 {
                    let cell = cells[(wid as usize + i) % cells.len()];
                    let r = stm.run(&mut ctx, usize::MAX >> 1, |tx, ctx| {
                        let v = tx.read(ctx, cell)?;
                        tx.write(ctx, cell, v + 1)
                    });
                    if r.is_ok() {
                        done += 1;
                    }
                }
                done
            })
            .sum();
        assert_eq!(total, 6400);
        let sum: u64 = cells.iter().map(|&c| dev.mem().read(c)).sum();
        assert_eq!(sum, 6400, "lost or duplicated increments");
    }

    #[test]
    fn concurrent_transfers_conserve_totals() {
        // Classic STM atomicity property: random transfers between
        // accounts must conserve the total; a dirty read, lost update, or
        // partial rollback would break conservation.
        use rayon::prelude::*;
        let dev = device();
        let stm = Stm::new(dev.mem(), 1024);
        let accounts: Vec<Addr> = (0..32).map(|_| dev.mem().alloc(1)).collect();
        for &a in &accounts {
            dev.mem().write(a, 1000);
        }
        (0..48u64).into_par_iter().for_each(|wid| {
            let mut ctx = WarpCtx::new(dev.mem(), dev.config(), wid as usize);
            for i in 0..80u64 {
                let from = accounts[((wid * 7 + i) % 32) as usize];
                let to = accounts[((wid * 13 + i * 3 + 1) % 32) as usize];
                if from == to {
                    continue;
                }
                stm.run(&mut ctx, usize::MAX >> 1, |tx, ctx| {
                    let f = tx.read(ctx, from)?;
                    let t = tx.read(ctx, to)?;
                    let amount = 1 + (i % 7);
                    if f >= amount {
                        tx.write(ctx, from, f - amount)?;
                        tx.write(ctx, to, t + amount)?;
                    }
                    Ok(())
                })
                .unwrap();
            }
        });
        let total: u64 = accounts.iter().map(|&a| dev.mem().read(a)).sum();
        assert_eq!(total, 32 * 1000, "transfers must conserve the total");
    }

    #[test]
    fn doomed_reader_never_observes_torn_transfer() {
        // Readers must never see a state where money is in flight: with
        // the TL2-style post-validated read, any snapshot of (a, b) taken
        // inside a committed transaction shows a conserved sum.
        use rayon::prelude::*;
        let dev = device();
        let stm = Stm::new(dev.mem(), 512);
        let a = dev.mem().alloc(1);
        let b = dev.mem().alloc(1);
        dev.mem().write(a, 500);
        dev.mem().write(b, 500);
        let bad = std::sync::atomic::AtomicU64::new(0);
        (0..16u64).into_par_iter().for_each(|wid| {
            let mut ctx = WarpCtx::new(dev.mem(), dev.config(), wid as usize);
            for i in 0..200u64 {
                if wid % 2 == 0 {
                    stm.run(&mut ctx, usize::MAX >> 1, |tx, ctx| {
                        let va = tx.read(ctx, a)?;
                        let vb = tx.read(ctx, b)?;
                        if va > 0 {
                            tx.write(ctx, a, va - 1)?;
                            tx.write(ctx, b, vb + 1)?;
                        }
                        Ok(())
                    })
                    .unwrap();
                } else {
                    let sum = stm
                        .run(&mut ctx, usize::MAX >> 1, |tx, ctx| {
                            Ok(tx.read(ctx, a)? + tx.read(ctx, b)?)
                        })
                        .unwrap();
                    if sum != 1000 {
                        bad.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
                let _ = i;
            }
        });
        assert_eq!(bad.load(std::sync::atomic::Ordering::Relaxed), 0);
    }

    #[test]
    fn deferred_retires_fire_on_commit_and_drop_on_rollback() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let block = dev.mem().alloc_reuse(38, 16);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        // Rollback: the retirement request is dropped, nothing quarantined.
        let mut tx = stm.begin();
        tx.write(&mut ctx, a, 1).unwrap();
        tx.defer_retire(block, 38, 16);
        tx.rollback(&mut ctx);
        assert_eq!(dev.mem().slab_stats().retired, 0);
        // Commit: the block is quarantined and recycles after an advance.
        let mut tx = stm.begin();
        tx.write(&mut ctx, a, 2).unwrap();
        tx.defer_retire(block, 38, 16);
        tx.commit(&mut ctx).unwrap();
        assert_eq!(dev.mem().slab_stats().retired, 1);
        dev.mem().advance_epoch();
        assert_eq!(dev.mem().alloc_reuse(38, 16), block);
    }

    #[test]
    fn abort_retires_fire_on_rollback_and_drop_on_commit() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        // Commit: the fresh block became reachable, nothing quarantined.
        let fresh = dev.mem().alloc_reuse(38, 16);
        let mut tx = stm.begin();
        tx.write(&mut ctx, a, 1).unwrap();
        tx.retire_on_abort(fresh, 38, 16);
        tx.commit(&mut ctx).unwrap();
        assert_eq!(dev.mem().slab_stats().retired, 0);
        // Rollback: the orphan is quarantined and recycles after advance.
        let orphan = dev.mem().alloc_reuse(38, 16);
        let mut tx = stm.begin();
        tx.write(&mut ctx, a, 2).unwrap();
        tx.retire_on_abort(orphan, 38, 16);
        tx.rollback(&mut ctx);
        assert_eq!(dev.mem().slab_stats().retired, 1);
        dev.mem().advance_epoch();
        assert_eq!(dev.mem().alloc_reuse(38, 16), orphan);
    }

    #[test]
    fn stm_reads_cost_more_than_raw_reads() {
        // The Fig. 1 mechanism: transactional traffic includes ownership
        // records, so per-access memory instructions go up.
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let mut raw_ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        raw_ctx.read(a);
        let raw = raw_ctx.stats.mem_insts;
        let mut tx_ctx = WarpCtx::new(dev.mem(), dev.config(), 1);
        let mut tx = stm.begin();
        tx.read(&mut tx_ctx, a).unwrap();
        tx.commit(&mut tx_ctx).unwrap();
        assert!(tx_ctx.stats.mem_insts >= 2 * raw);
    }

    /// A 16-aligned, node-sized block (38 words) seeded with `1..=38`.
    fn node_block(dev: &Device) -> Addr {
        let base = dev.mem().alloc_aligned(BLOCK, 16);
        for i in 0..BLOCK as u64 {
            dev.mem().write(base + i, i + 1);
        }
        base
    }

    const BLOCK: usize = 38;

    #[test]
    fn foreign_owner_anywhere_in_the_range_aborts_block_ops() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let base = node_block(&dev);
        let mut ctx1 = WarpCtx::new(dev.mem(), dev.config(), 0);
        let mut ctx2 = WarpCtx::new(dev.mem(), dev.config(), 1);
        for i in 0..BLOCK as u64 {
            let mut owner = stm.begin();
            owner.write(&mut ctx1, base + i, 0).unwrap();
            let mut t = stm.begin();
            let mut out = [0u64; BLOCK];
            assert_eq!(
                t.read_block(&mut ctx2, base, &mut out),
                Err(Abort),
                "word {i}"
            );
            assert_eq!(t.write_block(&mut ctx2, base, &out), Err(Abort), "word {i}");
            t.rollback(&mut ctx2);
            owner.rollback(&mut ctx1);
        }
        for i in 0..BLOCK as u64 {
            assert_eq!(
                dev.mem().read(base + i),
                i + 1,
                "aborted writers left word {i}"
            );
        }
    }

    #[test]
    fn a_commit_to_any_word_of_a_read_block_fails_the_reader() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let base = node_block(&dev);
        let mut ctx1 = WarpCtx::new(dev.mem(), dev.config(), 0);
        let mut ctx2 = WarpCtx::new(dev.mem(), dev.config(), 1);
        for i in 0..BLOCK as u64 {
            let mut reader = stm.begin();
            let mut out = [0u64; BLOCK];
            reader.read_block(&mut ctx1, base, &mut out).unwrap();
            let mut writer = stm.begin();
            writer.write(&mut ctx2, base + i, 1000 + i).unwrap();
            writer.commit(&mut ctx2).unwrap();
            assert_eq!(reader.commit(&mut ctx1), Err(Abort), "word {i}");
        }
        // Without interference the same read commits.
        let mut reader = stm.begin();
        let mut out = [0u64; BLOCK];
        reader.read_block(&mut ctx1, base, &mut out).unwrap();
        assert_eq!(reader.commit(&mut ctx1), Ok(()));
    }

    #[test]
    fn write_block_rollback_restores_every_word() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let base = node_block(&dev);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        let mut tx = stm.begin();
        tx.write_block(&mut ctx, base, &[7u64; BLOCK]).unwrap();
        tx.write(&mut ctx, base + 3, 9).unwrap();
        tx.write_block(&mut ctx, base + 10, &[8u64; 5]).unwrap();
        assert_eq!(tx.write_set_len(), BLOCK + 1 + 5);
        tx.rollback(&mut ctx);
        for i in 0..BLOCK as u64 {
            assert_eq!(dev.mem().read(base + i), i + 1, "word {i}");
        }
    }

    #[test]
    fn read_block_reads_own_writes() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let base = node_block(&dev);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        let mut tx = stm.begin();
        tx.write_block(&mut ctx, base + 6, &[50, 51, 52]).unwrap();
        tx.write(&mut ctx, base + 30, 99).unwrap();
        let mut out = [0u64; BLOCK];
        tx.read_block(&mut ctx, base, &mut out).unwrap();
        assert_eq!(&out[6..9], &[50, 51, 52]);
        assert_eq!(out[30], 99);
        assert_eq!(out[0], 1);
        tx.commit(&mut ctx).unwrap();
        assert_eq!(dev.mem().read(base + 7), 51);
    }

    #[test]
    fn record_runs_that_wrap_the_table_work() {
        let dev = device();
        let stripes = 32u64;
        let stm = Stm::new(dev.mem(), stripes as usize);
        // Pick a 16-aligned block whose 19 records start 8 before the end
        // of the table, so they wrap.
        let base = loop {
            let b = node_block(&dev);
            if (b >> 1) % stripes == stripes - 8 {
                break b;
            }
        };
        assert_eq!(
            stm.record_addr(base + BLOCK as u64 - 1),
            stm.record_addr(0) + 10
        );
        let mut ctx1 = WarpCtx::new(dev.mem(), dev.config(), 0);
        let mut ctx2 = WarpCtx::new(dev.mem(), dev.config(), 1);
        let mut t = stm.begin();
        let mut out = [0u64; BLOCK];
        t.read_block(&mut ctx1, base, &mut out).unwrap();
        assert_eq!(out[37], 38);
        t.write_block(&mut ctx1, base, &[5u64; BLOCK]).unwrap();
        // A foreign access to the wrapped tail conflicts.
        let mut other = stm.begin();
        assert_eq!(other.read(&mut ctx2, base + 36), Err(Abort));
        other.rollback(&mut ctx2);
        t.commit(&mut ctx1).unwrap();
        assert_eq!(dev.mem().read(base + 37), 5);
        // A commit to the wrapped tail invalidates a block reader.
        let mut reader = stm.begin();
        reader.read_block(&mut ctx1, base, &mut out).unwrap();
        let mut w = stm.begin();
        w.write(&mut ctx2, base + 37, 6).unwrap();
        w.commit(&mut ctx2).unwrap();
        assert_eq!(reader.commit(&mut ctx1), Err(Abort));
    }

    #[test]
    fn node_read_block_charges_block_costs() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let base = node_block(&dev);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        let mut tx = stm.begin();
        let mut out = [0u64; BLOCK];
        tx.read_block(&mut ctx, base, &mut out).unwrap();
        // Records (19, one run): 1 instruction, 2 transactions; data (38
        // words): 2 instructions, 3 transactions; record re-read: 1, 2.
        assert_eq!(ctx.stats.mem_insts, 4);
        assert_eq!(ctx.stats.mem_transactions, 2 + 3 + 2);
        assert_eq!(tx.read_set_len(), 19);
        // Commit validates the run with one more block read.
        tx.commit(&mut ctx).unwrap();
        assert_eq!(ctx.stats.mem_insts, 5);
    }

    #[test]
    fn rolled_back_record_never_shows_its_pre_lock_version() {
        let dev = device();
        let stm = Stm::new(dev.mem(), 256);
        let a = dev.mem().alloc(1);
        let rec = stm.record_addr(a);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        for _ in 0..4 {
            let before = dev.mem().read(rec);
            let mut tx = stm.begin();
            tx.write(&mut ctx, a, 1).unwrap();
            tx.rollback(&mut ctx);
            let after = dev.mem().read(rec);
            assert_eq!(after & 1, 0, "released");
            assert_ne!(after, before, "rollback must advance the version");
        }
    }

    #[test]
    fn rolled_back_dirty_words_never_reach_a_committed_read() {
        // Writers install POISON and abort; readers commit reads. With a
        // yield after every device op, seeded schedules interleave a
        // reader's record check, a writer's lock + dirty write + rollback,
        // and the reader's post-check. A rollback that restored the
        // pre-lock version would let such a reader commit POISON.
        const POISON: u64 = 0xDEAD;
        let poisoned = AtomicU64::new(0);
        for seed in 0..64u64 {
            let mut cfg = DeviceConfig::test_small().with_deterministic_sched(seed);
            cfg.yield_interval = 1;
            let dev = Device::new(1 << 12, cfg);
            let stm = Stm::new(dev.mem(), 64);
            let a = dev.mem().alloc_aligned(2, 2);
            dev.mem().write(a, 1);
            dev.mem().write(a + 1, 2);
            dev.launch("aba", 6, |wid, ctx| {
                for _ in 0..8 {
                    if wid % 2 == 0 {
                        let mut tx = stm.begin();
                        if tx.write(ctx, a + (wid as u64 / 2) % 2, POISON).is_ok() {
                            ctx.charge_cycles(1);
                        }
                        tx.rollback(ctx);
                    } else {
                        let block = wid % 4 == 3;
                        let r = stm.run(ctx, usize::MAX >> 1, |tx, ctx| {
                            if block {
                                let mut w = [0u64; 2];
                                tx.read_block(ctx, a, &mut w)?;
                                Ok(w)
                            } else {
                                Ok([tx.read(ctx, a)?, tx.read(ctx, a + 1)?])
                            }
                        });
                        if r.unwrap().contains(&POISON) {
                            poisoned.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        assert_eq!(
            poisoned.load(Ordering::Relaxed),
            0,
            "committed reads saw rolled-back words"
        );
    }
}
