//! Transactional tree operations over the word-based STM.
//!
//! Shared by the STM GB-tree baseline (which wraps *every* request in one
//! transaction) and by Eirene's update kernel (which uses them only for
//! the leaf region, plus the full descent as its fallback path once the
//! optimistic retry threshold is exceeded — Alg. 1 lines 27-46).
//!
//! The leaf region is warp-cooperative: [`tx_read_node`] takes a leaf with
//! one transactional block read, [`tx_hop_right`] and the leaf operations
//! decide on that snapshot in registers, and a leaf write is one
//! [`Tx::write_block`] for the shifted run of keys and one for the values,
//! plus META. Inner-node work (descents, splits, merges) stays word-level.
//!
//! The STM is not opaque, so a doomed transaction may follow a torn chain
//! or a cyclic pointer; every loop here is bounded by [`MAX_HOPS`] and
//! [`MAX_DEPTH`] and aborts past the bound.

use crate::build::TreeHandle;
use crate::node::{
    meta_count, meta_is_leaf, pack_meta, ParsedNode, EMPTY_KEY, FANOUT, MAX_DEPTH, MAX_HOPS,
    META_DEAD, MIN_OCCUPANCY, NODE_WORDS, OFF_HIGH, OFF_KEYS, OFF_LOW, OFF_META, OFF_NEXT, OFF_RF,
    OFF_VALS, OFF_VERSION,
};
use eirene_sim::{Addr, Phase, TraceEventKind, WarpCtx};
use eirene_stm::{Abort, Tx, TxResult};

/// Sentinel for "no previous value".
pub const NO_VALUE: u64 = u64::MAX;

/// Where a split publishes its new fence.
pub enum SplitParent {
    /// Insert the fence into this (non-full) parent: `(address, child
    /// slot, count)`.
    Node(Addr, usize, usize),
    /// The split node is the root: build a new root.
    Root,
}

/// Transactional binary search for the descent slot in an inner node:
/// probes `O(log FANOUT)` keys, each a transactional read.
pub fn tx_child_slot(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    addr: Addr,
    count: usize,
    key: u64,
) -> TxResult<usize> {
    let mut lo = 0usize; // invariant: keys[lo] <= key or lo == 0
    let mut hi = count; // invariant: keys[hi] > key (virtual +inf)
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let k = tx.read(ctx, addr + OFF_KEYS + mid as u64)?;
        ctx.control(2);
        if k <= key {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Reads a whole node with one warp-cooperative transactional block
/// read and parses it in registers.
pub fn tx_read_node(tx: &mut Tx<'_>, ctx: &mut WarpCtx<'_>, addr: Addr) -> TxResult<ParsedNode> {
    let mut w = [0u64; NODE_WORDS];
    tx.read_block(ctx, addr, &mut w)?;
    Ok(ParsedNode::from_words(&w))
}

/// Splits a full node inside the transaction, returning the sibling's
/// address and fence key. All writes are transactional, so an abort rolls
/// the whole split back; the freshly allocated sibling (and the new root,
/// for a root split) is registered with [`Tx::retire_on_abort`], so a
/// rollback retires the never-published node through the slab arena
/// instead of leaking it.
pub fn tx_split(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    handle: &TreeHandle,
    parent: SplitParent,
    addr: Addr,
    leaf: bool,
) -> TxResult<(Addr, u64)> {
    // The phase wrapper restores attribution even when a transactional
    // access aborts out of the split with `?`.
    let prev = ctx.set_phase(Phase::StructureMod);
    let r = tx_split_inner(tx, ctx, handle, parent, addr, leaf);
    if r.is_ok() {
        ctx.emit(TraceEventKind::NodeSplit, addr);
    }
    ctx.set_phase(prev);
    r
}

fn tx_split_inner(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    handle: &TreeHandle,
    parent: SplitParent,
    addr: Addr,
    leaf: bool,
) -> TxResult<(Addr, u64)> {
    let half = FANOUT / 2;
    let raddr = ctx.raw_mem().alloc_reuse(NODE_WORDS, 16);
    tx.retire_on_abort(raddr, NODE_WORDS, 16);
    ctx.charge_alloc();
    // Move the upper half to the sibling.
    for i in half..FANOUT {
        let k = tx.read(ctx, addr + OFF_KEYS + i as u64)?;
        let v = tx.read(ctx, addr + OFF_VALS + i as u64)?;
        tx.write(ctx, raddr + OFF_KEYS + (i - half) as u64, k)?;
        tx.write(ctx, raddr + OFF_VALS + (i - half) as u64, v)?;
        tx.write(ctx, addr + OFF_KEYS + i as u64, u64::MAX)?;
    }
    // Remaining sibling key slots start zeroed; mark them empty.
    for i in (FANOUT - half)..FANOUT {
        tx.write(ctx, raddr + OFF_KEYS + i as u64, u64::MAX)?;
    }
    // The sibling inherits the RF bound of the node it split from (§5: RF
    // values are heuristics, refreshed lazily by overshooting traversals).
    let rf = tx.read(ctx, addr + OFF_RF)?;
    tx.write(ctx, raddr + OFF_RF, rf)?;
    let next = tx.read(ctx, addr + OFF_NEXT)?;
    tx.write(ctx, raddr + OFF_NEXT, next)?;
    tx.write(ctx, raddr + OFF_META, pack_meta(leaf, false, FANOUT - half))?;
    let rfence = tx.read(ctx, raddr + OFF_KEYS)?;
    // Lehman-Yao bounds: the sibling inherits the node's high key, the
    // node's new high key is the fence.
    let high = tx.read(ctx, addr + OFF_HIGH)?;
    tx.write(ctx, raddr + OFF_HIGH, high)?;
    tx.write(ctx, raddr + OFF_LOW, rfence)?;
    tx.write(ctx, addr + OFF_HIGH, rfence)?;
    tx.write(ctx, addr + OFF_NEXT, raddr)?;
    tx.write(ctx, addr + OFF_META, pack_meta(leaf, false, half))?;
    let ver = tx.read(ctx, addr + OFF_VERSION)?;
    tx.write(ctx, addr + OFF_VERSION, ver + 1)?;

    match parent {
        SplitParent::Node(paddr, slot, pcount) => {
            // Clamp case (leftmost spine): the split child may hold keys
            // below its parent fence; lower the stale fence to the child's
            // true bound so the inserted fence keeps the order.
            let pfence = tx.read(ctx, paddr + OFF_KEYS + slot as u64)?;
            if rfence < pfence {
                let child_low = tx.read(ctx, addr + OFF_LOW)?;
                tx.write(ctx, paddr + OFF_KEYS + slot as u64, child_low)?;
            }
            // Shift parent entries right of `slot` and insert the fence.
            debug_assert!(pcount < FANOUT);
            let at = slot + 1;
            let mut i = pcount;
            while i > at {
                let k = tx.read(ctx, paddr + OFF_KEYS + (i - 1) as u64)?;
                let v = tx.read(ctx, paddr + OFF_VALS + (i - 1) as u64)?;
                tx.write(ctx, paddr + OFF_KEYS + i as u64, k)?;
                tx.write(ctx, paddr + OFF_VALS + i as u64, v)?;
                i -= 1;
            }
            tx.write(ctx, paddr + OFF_KEYS + at as u64, rfence)?;
            tx.write(ctx, paddr + OFF_VALS + at as u64, raddr)?;
            tx.write(ctx, paddr + OFF_META, pack_meta(false, false, pcount + 1))?;
        }
        SplitParent::Root => {
            // Root split: new root with two fences.
            let new_root = ctx.raw_mem().alloc_reuse(NODE_WORDS, 16);
            tx.retire_on_abort(new_root, NODE_WORDS, 16);
            ctx.charge_alloc();
            let k0 = tx.read(ctx, addr + OFF_KEYS)?;
            for i in 2..FANOUT {
                tx.write(ctx, new_root + OFF_KEYS + i as u64, u64::MAX)?;
            }
            tx.write(ctx, new_root + OFF_KEYS, k0)?;
            tx.write(ctx, new_root + OFF_VALS, addr)?;
            tx.write(ctx, new_root + OFF_KEYS + 1, rfence)?;
            tx.write(ctx, new_root + OFF_VALS + 1, raddr)?;
            tx.write(ctx, new_root + OFF_RF, u64::MAX)?;
            tx.write(ctx, new_root + OFF_HIGH, u64::MAX)?;
            tx.write(ctx, new_root + OFF_META, pack_meta(false, false, 2))?;
            tx.write(ctx, handle.root_word, new_root)?;
            let h = tx.read(ctx, handle.height_word)?;
            tx.write(ctx, handle.height_word, h + 1)?;
        }
    }
    ctx.control(8);
    Ok((raddr, rfence))
}

/// Right-hops across the leaf chain transactionally until reaching the
/// leaf responsible for `key` (splits only move keys right, so hopping
/// right from any leaf at or left of the target is always correct).
/// Starts from `leaf`, a snapshot of the node at `addr`; each hop is one
/// [`tx_read_node`]. Returns the covering leaf's address and snapshot, or
/// aborts past [`MAX_HOPS`] hops (only a doomed transaction reading a torn
/// chain gets that far).
pub fn tx_hop_right(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    addr: Addr,
    leaf: ParsedNode,
    key: u64,
) -> TxResult<(Addr, ParsedNode)> {
    let prev = ctx.set_phase(Phase::HorizontalTraversal);
    let r = tx_hop_right_inner(tx, ctx, addr, leaf, key);
    ctx.set_phase(prev);
    r
}

fn tx_hop_right_inner(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    mut addr: Addr,
    mut leaf: ParsedNode,
    key: u64,
) -> TxResult<(Addr, ParsedNode)> {
    let mut hops = 0u32;
    loop {
        ctx.control(1);
        if key < leaf.high || leaf.next == 0 {
            return Ok((addr, leaf));
        }
        hops += 1;
        if hops > MAX_HOPS {
            return Err(Abort);
        }
        ctx.stats.horizontal_steps += 1;
        addr = leaf.next;
        leaf = tx_read_node(tx, ctx, addr)?;
    }
}

/// Transactional descent from the root to the leaf owning `key`. With
/// `may_insert`, any full node on the path is split inside the transaction
/// and the descent restarts (still inside the same transaction, which
/// observes its own split); the returned leaf then always has room.
/// Returns the leaf's address and its [`tx_read_node`] snapshot. Aborts
/// past [`MAX_DEPTH`] levels or restarts.
pub fn tx_descend(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    handle: &TreeHandle,
    key: u64,
    may_insert: bool,
) -> TxResult<(Addr, ParsedNode)> {
    let prev = ctx.set_phase(Phase::VerticalTraversal);
    let r = tx_descend_inner(tx, ctx, handle, key, may_insert);
    ctx.set_phase(prev);
    r
}

fn tx_descend_inner(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    handle: &TreeHandle,
    key: u64,
    may_insert: bool,
) -> TxResult<(Addr, ParsedNode)> {
    let mut restarts = 0u32;
    'restart: loop {
        restarts += 1;
        if restarts > MAX_DEPTH {
            return Err(Abort);
        }
        ctx.stats.vertical_traversals += 1;
        let mut parent: Option<(Addr, usize, usize)> = None;
        let mut cur = tx.read(ctx, handle.root_word)?;
        for _ in 0..MAX_DEPTH {
            let meta = tx.read(ctx, cur + OFF_META)?;
            ctx.stats.vertical_steps += 1;
            ctx.control(2);
            let count = meta_count(meta);
            let leaf = meta_is_leaf(meta);
            if may_insert && count == FANOUT {
                let mode = match parent {
                    Some((p, s, c)) => SplitParent::Node(p, s, c),
                    None => SplitParent::Root,
                };
                tx_split(tx, ctx, handle, mode, cur, leaf)?;
                continue 'restart;
            }
            if leaf {
                let node = tx_read_node(tx, ctx, cur)?;
                if node.meta != meta {
                    // A writer committed between the META read and the
                    // snapshot: this transaction can no longer commit, and
                    // the snapshot may break what the descent decided.
                    return Err(Abort);
                }
                let (cur_l, leaf_l) = tx_hop_right(tx, ctx, cur, node, key)?;
                if may_insert && leaf_l.count() == FANOUT && cur_l != cur {
                    // Hopped onto a full leaf whose parent we do not hold.
                    // Committed state always publishes fences, so this can
                    // only be a transient view of another writer's split —
                    // restart the descent, which will land on the leaf via
                    // its fence path (with the parent in hand).
                    continue 'restart;
                }
                return Ok((cur_l, leaf_l));
            }
            let slot = tx_child_slot(tx, ctx, cur, count, key)?;
            let child = tx.read(ctx, cur + OFF_VALS + slot as u64)?;
            parent = Some((cur, slot, count));
            cur = child;
        }
        return Err(Abort);
    }
}

/// Transactional descent that keeps every node on the path above the
/// occupancy floor: any child at or below [`MIN_OCCUPANCY`] is rebalanced
/// (borrow from a richer sibling, else merge) *before* descending into it,
/// and a single-child inner root is collapsed, so the returned leaf can
/// always lose one entry without underflowing. Returns `(leaf address,
/// leaf snapshot, floor)` where `floor` is the occupancy bound to pass to
/// [`tx_delete_at_leaf`] (zero when the leaf is the root, which is
/// exempt). Aborts past [`MAX_DEPTH`] levels or restarts.
pub fn tx_descend_merging(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    handle: &TreeHandle,
    key: u64,
) -> TxResult<(Addr, ParsedNode, usize)> {
    let prev = ctx.set_phase(Phase::VerticalTraversal);
    let r = tx_descend_merging_inner(tx, ctx, handle, key);
    ctx.set_phase(prev);
    r
}

fn tx_descend_merging_inner(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    handle: &TreeHandle,
    key: u64,
) -> TxResult<(Addr, ParsedNode, usize)> {
    let mut restarts = 0u32;
    'restart: loop {
        restarts += 1;
        if restarts > MAX_DEPTH {
            return Err(Abort);
        }
        ctx.stats.vertical_traversals += 1;
        let mut cur = tx.read(ctx, handle.root_word)?;
        let mut meta = tx.read(ctx, cur + OFF_META)?;
        ctx.control(2);
        let mut depth = 0u32;
        // A single-child inner root is replaced by its child before the
        // descent; the old root is tombstoned and retired on commit.
        while !meta_is_leaf(meta) && meta_count(meta) == 1 {
            depth += 1;
            if depth > MAX_DEPTH {
                return Err(Abort);
            }
            let child = tx.read(ctx, cur + OFF_VALS)?;
            tx.write(ctx, handle.root_word, child)?;
            let h = tx.read(ctx, handle.height_word)?;
            tx.write(ctx, handle.height_word, h - 1)?;
            tx_retire_node(tx, ctx, cur, meta)?;
            cur = child;
            meta = tx.read(ctx, cur + OFF_META)?;
        }
        let mut at_root = true;
        loop {
            depth += 1;
            if depth > MAX_DEPTH {
                return Err(Abort);
            }
            ctx.stats.vertical_steps += 1;
            ctx.control(2);
            let count = meta_count(meta);
            if meta_is_leaf(meta) {
                let node = tx_read_node(tx, ctx, cur)?;
                if node.meta != meta {
                    return Err(Abort); // as in `tx_descend`
                }
                let (cur_l, leaf_l) = tx_hop_right(tx, ctx, cur, node, key)?;
                if cur_l != cur && leaf_l.count() <= MIN_OCCUPANCY {
                    // Hopped onto an at-floor leaf whose parent we do not
                    // hold; restart — the fence path reaches it with the
                    // parent in hand and rebalances it preemptively.
                    continue 'restart;
                }
                let floor = if at_root && cur_l == cur {
                    0
                } else {
                    MIN_OCCUPANCY
                };
                return Ok((cur_l, leaf_l, floor));
            }
            let slot = tx_child_slot(tx, ctx, cur, count, key)?;
            let child = tx.read(ctx, cur + OFF_VALS + slot as u64)?;
            let cmeta = tx.read(ctx, child + OFF_META)?;
            if meta_count(cmeta) <= MIN_OCCUPANCY && count > 1 {
                tx_fix_child(tx, ctx, cur, count, slot, meta_is_leaf(cmeta))?;
                continue 'restart;
            }
            at_root = false;
            cur = child;
            meta = cmeta;
        }
    }
}

/// Rebalances the at-floor child at `slot`: borrows from an adjacent
/// sibling with slack, else merges with one (both at the floor, so the
/// merged node holds at most `2 * MIN_OCCUPANCY <= FANOUT` entries).
fn tx_fix_child(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    parent: Addr,
    pcount: usize,
    slot: usize,
    leaf: bool,
) -> TxResult<()> {
    let prev = ctx.set_phase(Phase::StructureMod);
    let r = tx_fix_child_inner(tx, ctx, parent, pcount, slot, leaf);
    ctx.set_phase(prev);
    r
}

fn tx_fix_child_inner(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    parent: Addr,
    pcount: usize,
    slot: usize,
    leaf: bool,
) -> TxResult<()> {
    let child = tx.read(ctx, parent + OFF_VALS + slot as u64)?;
    let ccount = meta_count(tx.read(ctx, child + OFF_META)?);
    ctx.control(4);
    if slot + 1 < pcount {
        let right = tx.read(ctx, parent + OFF_VALS + (slot + 1) as u64)?;
        let rcount = meta_count(tx.read(ctx, right + OFF_META)?);
        if rcount > MIN_OCCUPANCY {
            return tx_borrow_from_right(tx, ctx, parent, slot, child, ccount, right, rcount, leaf);
        }
    }
    if slot > 0 {
        let left = tx.read(ctx, parent + OFF_VALS + (slot - 1) as u64)?;
        let lcount = meta_count(tx.read(ctx, left + OFF_META)?);
        if lcount > MIN_OCCUPANCY {
            return tx_borrow_from_left(tx, ctx, parent, slot, left, lcount, child, ccount, leaf);
        }
    }
    let right_slot = if slot + 1 < pcount { slot + 1 } else { slot };
    tx_merge_into_left(tx, ctx, parent, pcount, right_slot, leaf)
}

/// Moves the right sibling's first entry onto the child's end. The
/// boundary triple moves together: the parent fence, the donor's low key,
/// and the receiver's high key all become the donor's new minimum.
#[allow(clippy::too_many_arguments)]
fn tx_borrow_from_right(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    parent: Addr,
    slot: usize,
    left: Addr,
    lcount: usize,
    right: Addr,
    rcount: usize,
    leaf: bool,
) -> TxResult<()> {
    let k0 = tx.read(ctx, right + OFF_KEYS)?;
    let v0 = tx.read(ctx, right + OFF_VALS)?;
    tx.write(ctx, left + OFF_KEYS + lcount as u64, k0)?;
    tx.write(ctx, left + OFF_VALS + lcount as u64, v0)?;
    tx.write(ctx, left + OFF_META, pack_meta(leaf, false, lcount + 1))?;
    for i in 0..rcount - 1 {
        let k = tx.read(ctx, right + OFF_KEYS + (i + 1) as u64)?;
        let v = tx.read(ctx, right + OFF_VALS + (i + 1) as u64)?;
        tx.write(ctx, right + OFF_KEYS + i as u64, k)?;
        tx.write(ctx, right + OFF_VALS + i as u64, v)?;
    }
    tx.write(ctx, right + OFF_KEYS + (rcount - 1) as u64, u64::MAX)?;
    tx.write(ctx, right + OFF_META, pack_meta(leaf, false, rcount - 1))?;
    let fence = tx.read(ctx, right + OFF_KEYS)?;
    tx.write(ctx, parent + OFF_KEYS + (slot + 1) as u64, fence)?;
    tx.write(ctx, right + OFF_LOW, fence)?;
    tx.write(ctx, left + OFF_HIGH, fence)?;
    tx_bump_version(tx, ctx, left)?;
    tx_bump_version(tx, ctx, right)?;
    ctx.control(4);
    Ok(())
}

/// Moves the left sibling's last entry onto the child's front; the
/// boundary triple (parent fence, child low, donor high) follows it.
#[allow(clippy::too_many_arguments)]
fn tx_borrow_from_left(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    parent: Addr,
    slot: usize,
    left: Addr,
    lcount: usize,
    child: Addr,
    ccount: usize,
    leaf: bool,
) -> TxResult<()> {
    let k = tx.read(ctx, left + OFF_KEYS + (lcount - 1) as u64)?;
    let v = tx.read(ctx, left + OFF_VALS + (lcount - 1) as u64)?;
    tx.write(ctx, left + OFF_KEYS + (lcount - 1) as u64, u64::MAX)?;
    tx.write(ctx, left + OFF_META, pack_meta(leaf, false, lcount - 1))?;
    let mut i = ccount;
    while i > 0 {
        let pk = tx.read(ctx, child + OFF_KEYS + (i - 1) as u64)?;
        let pv = tx.read(ctx, child + OFF_VALS + (i - 1) as u64)?;
        tx.write(ctx, child + OFF_KEYS + i as u64, pk)?;
        tx.write(ctx, child + OFF_VALS + i as u64, pv)?;
        i -= 1;
    }
    tx.write(ctx, child + OFF_KEYS, k)?;
    tx.write(ctx, child + OFF_VALS, v)?;
    tx.write(ctx, child + OFF_META, pack_meta(leaf, false, ccount + 1))?;
    tx.write(ctx, parent + OFF_KEYS + slot as u64, k)?;
    tx.write(ctx, child + OFF_LOW, k)?;
    tx.write(ctx, left + OFF_HIGH, k)?;
    tx_bump_version(tx, ctx, left)?;
    tx_bump_version(tx, ctx, child)?;
    ctx.control(4);
    Ok(())
}

/// Merges the node at `right_slot` into its left sibling: the absorbed
/// node's entries are appended, the left node inherits its `NEXT` and
/// `HIGH` (keeping the leaf chain abutting), the parent entry is removed,
/// and the absorbed node is tombstoned and retired on commit.
fn tx_merge_into_left(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    parent: Addr,
    pcount: usize,
    right_slot: usize,
    leaf: bool,
) -> TxResult<()> {
    let left = tx.read(ctx, parent + OFF_VALS + (right_slot - 1) as u64)?;
    let right = tx.read(ctx, parent + OFF_VALS + right_slot as u64)?;
    let lcount = meta_count(tx.read(ctx, left + OFF_META)?);
    let rmeta = tx.read(ctx, right + OFF_META)?;
    let rcount = meta_count(rmeta);
    debug_assert!(lcount + rcount <= FANOUT, "merge would overflow the node");
    for i in 0..rcount {
        let k = tx.read(ctx, right + OFF_KEYS + i as u64)?;
        let v = tx.read(ctx, right + OFF_VALS + i as u64)?;
        tx.write(ctx, left + OFF_KEYS + (lcount + i) as u64, k)?;
        tx.write(ctx, left + OFF_VALS + (lcount + i) as u64, v)?;
    }
    let rnext = tx.read(ctx, right + OFF_NEXT)?;
    let rhigh = tx.read(ctx, right + OFF_HIGH)?;
    tx.write(ctx, left + OFF_NEXT, rnext)?;
    tx.write(ctx, left + OFF_HIGH, rhigh)?;
    tx.write(
        ctx,
        left + OFF_META,
        pack_meta(leaf, false, lcount + rcount),
    )?;
    tx_bump_version(tx, ctx, left)?;
    // Remove the parent's entry for the absorbed node.
    for i in right_slot..pcount - 1 {
        let k = tx.read(ctx, parent + OFF_KEYS + (i + 1) as u64)?;
        let v = tx.read(ctx, parent + OFF_VALS + (i + 1) as u64)?;
        tx.write(ctx, parent + OFF_KEYS + i as u64, k)?;
        tx.write(ctx, parent + OFF_VALS + i as u64, v)?;
    }
    tx.write(ctx, parent + OFF_KEYS + (pcount - 1) as u64, u64::MAX)?;
    tx.write(ctx, parent + OFF_META, pack_meta(false, false, pcount - 1))?;
    tx_retire_node(tx, ctx, right, rmeta)?;
    ctx.emit(TraceEventKind::NodeMerge, right);
    ctx.control(8);
    Ok(())
}

/// Tombstones an unlinked node (dead bit + version bump, so optimistic
/// readers holding a stale pointer fail their version check) and defers
/// its retirement to commit. The node's `NEXT` and `HIGH` stay intact for
/// same-epoch stale readers walking the chain.
fn tx_retire_node(tx: &mut Tx<'_>, ctx: &mut WarpCtx<'_>, addr: Addr, meta: u64) -> TxResult<()> {
    tx.write(ctx, addr + OFF_META, meta | META_DEAD)?;
    tx_bump_version(tx, ctx, addr)?;
    tx.defer_retire(addr, NODE_WORDS, 16);
    Ok(())
}

fn tx_bump_version(tx: &mut Tx<'_>, ctx: &mut WarpCtx<'_>, addr: Addr) -> TxResult<()> {
    let v = tx.read(ctx, addr + OFF_VERSION)?;
    tx.write(ctx, addr + OFF_VERSION, v + 1)
}

/// Outcome of a leaf-local transactional upsert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafUpsert {
    /// Applied; carries the previous value or [`NO_VALUE`].
    Done(u64),
    /// The key is absent and the leaf is full — the caller must take a
    /// split-capable path.
    Full,
}

/// Upserts `key` in the leaf at `addr`, deciding on its snapshot `leaf`
/// (taken by [`tx_read_node`] in this transaction). An update writes the
/// one value word; an insert writes the keys and the values from the
/// insertion slot to the end as one block each, plus META. Does not
/// split.
pub fn tx_upsert_at_leaf(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    addr: Addr,
    leaf: &ParsedNode,
    key: u64,
    val: u64,
) -> TxResult<LeafUpsert> {
    let prev = ctx.set_phase(Phase::LeafOp);
    let r = tx_upsert_at_leaf_inner(tx, ctx, addr, leaf, key, val);
    ctx.set_phase(prev);
    r
}

fn tx_upsert_at_leaf_inner(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    addr: Addr,
    leaf: &ParsedNode,
    key: u64,
    val: u64,
) -> TxResult<LeafUpsert> {
    let count = leaf.count();
    // One warp-wide compare and ballot locates the slot.
    ctx.control(2);
    let slot = leaf.keys[..count].partition_point(|&k| k < key);
    if slot < count && leaf.keys[slot] == key {
        tx.write_block(ctx, addr + OFF_VALS + slot as u64, &[val])?;
        return Ok(LeafUpsert::Done(leaf.vals[slot]));
    }
    if count == FANOUT {
        return Ok(LeafUpsert::Full);
    }
    // The run `slot..=count` moves one slot right behind the new entry.
    let run = count + 1 - slot;
    let mut keys = [key; FANOUT];
    let mut vals = [val; FANOUT];
    keys[1..run].copy_from_slice(&leaf.keys[slot..count]);
    vals[1..run].copy_from_slice(&leaf.vals[slot..count]);
    tx.write_block(ctx, addr + OFF_KEYS + slot as u64, &keys[..run])?;
    tx.write_block(ctx, addr + OFF_VALS + slot as u64, &vals[..run])?;
    tx.write(ctx, addr + OFF_META, pack_meta(true, false, count + 1))?;
    Ok(LeafUpsert::Done(NO_VALUE))
}

/// Outcome of a leaf-local transactional delete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeafDelete {
    /// Applied (or the key was absent); carries the previous value or
    /// [`NO_VALUE`].
    Done(u64),
    /// The key is present but removing it would drop the leaf below
    /// `floor` — the caller must take a merge-capable path
    /// ([`tx_delete_rebalancing`]). The leaf is left untouched.
    Underflow,
}

/// Deletes `key` from the leaf at `addr`, deciding on its snapshot `leaf`.
/// The keys after the slot move one left as one block (the vacated last
/// key becomes [`EMPTY_KEY`]), the values as another, plus META. Does not
/// rebalance: when the leaf sits at `floor` and holds the key, it escapes
/// with [`LeafDelete::Underflow`] instead of violating the occupancy
/// floor. Pass `floor = 0` to delete unconditionally (root leaves are
/// exempt from the floor).
pub fn tx_delete_at_leaf(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    addr: Addr,
    leaf: &ParsedNode,
    key: u64,
    floor: usize,
) -> TxResult<LeafDelete> {
    let prev = ctx.set_phase(Phase::LeafOp);
    let r = tx_delete_at_leaf_inner(tx, ctx, addr, leaf, key, floor);
    ctx.set_phase(prev);
    r
}

fn tx_delete_at_leaf_inner(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    addr: Addr,
    leaf: &ParsedNode,
    key: u64,
    floor: usize,
) -> TxResult<LeafDelete> {
    let count = leaf.count();
    ctx.control(2);
    let slot = match leaf.find(key) {
        None => return Ok(LeafDelete::Done(NO_VALUE)),
        Some(_) if count <= floor => return Ok(LeafDelete::Underflow),
        Some(slot) => slot,
    };
    let run = count - slot;
    let mut keys = [EMPTY_KEY; FANOUT];
    keys[..run - 1].copy_from_slice(&leaf.keys[slot + 1..count]);
    tx.write_block(ctx, addr + OFF_KEYS + slot as u64, &keys[..run])?;
    if run > 1 {
        tx.write_block(
            ctx,
            addr + OFF_VALS + slot as u64,
            &leaf.vals[slot + 1..count],
        )?;
    }
    tx.write(ctx, addr + OFF_META, pack_meta(true, false, count - 1))?;
    Ok(LeafDelete::Done(leaf.vals[slot]))
}

/// Full transactional delete with rebalancing: a merging descent keeps
/// the path above the occupancy floor, so the leaf-local delete can never
/// underflow. Returns the previous value or [`NO_VALUE`].
pub fn tx_delete_rebalancing(
    tx: &mut Tx<'_>,
    ctx: &mut WarpCtx<'_>,
    handle: &TreeHandle,
    key: u64,
) -> TxResult<u64> {
    let (addr, leaf, floor) = tx_descend_merging(tx, ctx, handle, key)?;
    match tx_delete_at_leaf(tx, ctx, addr, &leaf, key, floor)? {
        LeafDelete::Done(old) => Ok(old),
        LeafDelete::Underflow => unreachable!("merging descent guarantees slack above the floor"),
    }
}

/// Looks `key` up in a leaf snapshot taken by [`tx_read_node`] in the
/// current transaction: the value, or [`NO_VALUE`]. The snapshot is
/// already in the read set, so the lookup itself is register work.
pub fn tx_query_at_leaf(ctx: &mut WarpCtx<'_>, leaf: &ParsedNode, key: u64) -> u64 {
    let prev = ctx.set_phase(Phase::LeafOp);
    ctx.control(2);
    let v = leaf.find(key).map_or(NO_VALUE, |slot| leaf.vals[slot]);
    ctx.set_phase(prev);
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{arena_budget, bulk_build};
    use crate::refops;
    use crate::validate::validate;
    use eirene_sim::{Device, DeviceConfig};
    use eirene_stm::Stm;

    fn setup(n: u64) -> (Device, TreeHandle, Stm) {
        let dev = Device::new(
            arena_budget(n as usize, 4 * n as usize + 64) + (1 << 14),
            DeviceConfig::test_small(),
        );
        let pairs: Vec<(u64, u64)> = (1..=n).map(|i| (2 * i, 2 * i + 1)).collect();
        let t = bulk_build(dev.mem(), &pairs);
        let stm = Stm::new(dev.mem(), 1 << 12);
        (dev, t, stm)
    }

    #[test]
    fn tx_descend_reaches_correct_leaf() {
        let (dev, t, stm) = setup(1000);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        let v = stm
            .run(&mut ctx, 4, |tx, ctx| {
                let (_, leaf) = tx_descend(tx, ctx, &t, 500, false)?;
                Ok(tx_query_at_leaf(ctx, &leaf, 500))
            })
            .unwrap();
        assert_eq!(v, 501);
    }

    #[test]
    fn tx_upsert_and_delete_roundtrip() {
        let (dev, t, stm) = setup(200);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        stm.run(&mut ctx, 4, |tx, ctx| {
            let (addr, leaf) = tx_descend(tx, ctx, &t, 7, true)?;
            match tx_upsert_at_leaf(tx, ctx, addr, &leaf, 7, 70)? {
                LeafUpsert::Done(old) => {
                    assert_eq!(old, NO_VALUE);
                    Ok(())
                }
                LeafUpsert::Full => unreachable!("descent guarantees room"),
            }
        })
        .unwrap();
        assert_eq!(refops::get(dev.mem(), &t, 7), Some(70));
        stm.run(&mut ctx, 4, |tx, ctx| {
            let old = tx_delete_rebalancing(tx, ctx, &t, 7)?;
            assert_eq!(old, 70);
            Ok(())
        })
        .unwrap();
        assert_eq!(refops::get(dev.mem(), &t, 7), None);
        validate(dev.mem(), &t).unwrap();
    }

    #[test]
    fn tx_inserts_split_and_stay_valid() {
        let (dev, t, stm) = setup(100);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        for i in 0..100u64 {
            stm.run(&mut ctx, 8, |tx, ctx| {
                let (addr, leaf) = tx_descend(tx, ctx, &t, 2 * i + 1, true)?;
                match tx_upsert_at_leaf(tx, ctx, addr, &leaf, 2 * i + 1, i)? {
                    LeafUpsert::Done(_) => Ok(()),
                    LeafUpsert::Full => unreachable!(),
                }
            })
            .unwrap();
        }
        validate(dev.mem(), &t).unwrap();
        for i in 0..100u64 {
            assert_eq!(refops::get(dev.mem(), &t, 2 * i + 1), Some(i));
        }
    }

    #[test]
    fn aborted_split_rolls_back_cleanly() {
        let (dev, t, stm) = setup(100);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        let before = refops::contents(dev.mem(), &t);
        // Force the leaf containing key 2 full, then run a tx that splits
        // and deliberately aborts.
        for d in 0..12u64 {
            refops::upsert(dev.mem(), &t, 3 + d * 2, 0);
        }
        let snapshot = refops::contents(dev.mem(), &t);
        assert!(snapshot.len() > before.len());
        let mut tx = stm.begin();
        let r = tx_descend(&mut tx, &mut ctx, &t, 5_000_000, true);
        assert!(r.is_ok());
        tx.rollback(&mut ctx);
        assert_eq!(
            refops::contents(dev.mem(), &t),
            snapshot,
            "rollback must undo"
        );
        validate(dev.mem(), &t).unwrap();
    }

    #[test]
    fn aborted_split_retires_its_orphan_sibling() {
        let (dev, t, stm) = setup(100);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        // Fill the rightmost leaf to FANOUT so a split-capable descent
        // towards a huge key must split it.
        let mut k = 1_000u64;
        loop {
            let count = stm
                .run(&mut ctx, 4, |tx, ctx| {
                    Ok(tx_descend(tx, ctx, &t, 5_000_000, false)?.1.count())
                })
                .unwrap();
            if count == FANOUT {
                break;
            }
            refops::upsert(dev.mem(), &t, k, 0);
            k += 2;
        }
        let snapshot = refops::contents(dev.mem(), &t);
        let retired_before = dev.mem().slab_stats().retired;
        let mut tx = stm.begin();
        tx_descend(&mut tx, &mut ctx, &t, 5_000_000, true).unwrap();
        tx.rollback(&mut ctx);
        assert_eq!(
            refops::contents(dev.mem(), &t),
            snapshot,
            "rollback must undo the split"
        );
        validate(dev.mem(), &t).unwrap();
        // The never-published sibling must land in the slab quarantine,
        // not leak into the bump arena.
        assert!(
            dev.mem().slab_stats().retired > retired_before,
            "aborted split must retire its orphaned sibling"
        );
    }

    #[test]
    fn leaf_delete_escapes_at_the_occupancy_floor() {
        use crate::node::MIN_OCCUPANCY;
        let (dev, t, stm) = setup(100);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        // Drain the leftmost leaf one key at a time with the floor-aware
        // leaf delete; once it reaches the floor the op must escape
        // without modifying the leaf.
        let mut escaped = None;
        for i in 1..=FANOUT as u64 {
            let key = 2 * i;
            let r = stm
                .run(&mut ctx, 4, |tx, ctx| {
                    let (addr, leaf) = tx_descend(tx, ctx, &t, key, false)?;
                    tx_delete_at_leaf(tx, ctx, addr, &leaf, key, MIN_OCCUPANCY)
                })
                .unwrap();
            match r {
                LeafDelete::Done(v) => assert_eq!(v, 2 * i + 1),
                LeafDelete::Underflow => {
                    escaped = Some(key);
                    break;
                }
            }
        }
        let key = escaped.expect("the leaf must hit the floor");
        assert_eq!(
            refops::get(dev.mem(), &t, key),
            Some(key + 1),
            "the underflow escape must leave the leaf untouched"
        );
        // The merge-capable path finishes the job.
        stm.run(&mut ctx, 8, |tx, ctx| {
            tx_delete_rebalancing(tx, ctx, &t, key)
        })
        .unwrap();
        assert_eq!(refops::get(dev.mem(), &t, key), None);
        crate::validate::validate_with(dev.mem(), &t, crate::validate::ValidateOpts::merging())
            .unwrap();
    }

    #[test]
    fn tx_deletes_merge_shrink_and_recycle() {
        let (dev, t, stm) = setup(1000);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        let h0 = t.height(dev.mem());
        assert!(h0 >= 3);
        for i in 1..=995u64 {
            let old = stm
                .run(&mut ctx, 16, |tx, ctx| {
                    tx_delete_rebalancing(tx, ctx, &t, 2 * i)
                })
                .unwrap();
            assert_eq!(old, 2 * i + 1, "key {}", 2 * i);
        }
        assert!(t.height(dev.mem()) < h0, "merges must shrink the tree");
        let left = refops::contents(dev.mem(), &t);
        assert_eq!(left.len(), 5);
        crate::validate::validate_with(dev.mem(), &t, crate::validate::ValidateOpts::merging())
            .unwrap();
        let st = dev.mem().slab_stats();
        assert!(st.retired > 0, "merged-away nodes must be quarantined");
        // An epoch advance drains the quarantine into the free lists.
        dev.mem().advance_epoch();
        let st = dev.mem().slab_stats();
        assert_eq!(st.retired, 0);
        assert!(st.free > 0);
    }

    #[test]
    fn hop_right_walks_to_covering_leaf() {
        let (dev, t, stm) = setup(1000);
        let mut ctx = WarpCtx::new(dev.mem(), dev.config(), 0);
        // Start from the leftmost leaf and hop to key 1500.
        let mut leftmost = crate::node::NodeRef {
            addr: t.root(dev.mem()),
        };
        while !leftmost.is_leaf(dev.mem()) {
            leftmost = crate::node::NodeRef {
                addr: leftmost.val(dev.mem(), 0),
            };
        }
        let v = stm
            .run(&mut ctx, 4, |tx, ctx| {
                let start = tx_read_node(tx, ctx, leftmost.addr)?;
                let (_, leaf) = tx_hop_right(tx, ctx, leftmost.addr, start, 1500)?;
                Ok(tx_query_at_leaf(ctx, &leaf, 1500))
            })
            .unwrap();
        assert_eq!(v, 1501);
        assert!(ctx.stats.horizontal_steps > 0);
    }

    /// Runs `f` on a helper thread and fails the test unless it returns
    /// within 10 s (a spinning helper is left detached on failure).
    fn within_10s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, wait) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || done.send(f()).expect("receiver waits"));
        let r = wait
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("a doomed transaction did not terminate within 10 s");
        helper.join().expect("helper thread panicked");
        r
    }

    #[test]
    fn doomed_transactions_on_cyclic_structures_abort() {
        use crate::node::NodeRef;
        use eirene_stm::Abort;
        // A two-leaf cycle whose HIGH keys never cover the key: an
        // unbounded hop loop would spin forever, growing the read set.
        let hop = within_10s(|| {
            let (dev, t, stm) = setup(100);
            let mem = dev.mem();
            let mut leaf = NodeRef { addr: t.root(mem) };
            while !leaf.is_leaf(mem) {
                leaf = NodeRef {
                    addr: leaf.val(mem, 0),
                };
            }
            let second = NodeRef {
                addr: leaf.next(mem),
            };
            second.set_next(mem, leaf.addr);
            leaf.set_high(mem, 10);
            second.set_high(mem, 10);
            let mut ctx = WarpCtx::new(mem, dev.config(), 0);
            let mut tx = stm.begin();
            let r = tx_read_node(&mut tx, &mut ctx, leaf.addr)
                .and_then(|node| tx_hop_right(&mut tx, &mut ctx, leaf.addr, node, 1_000_000));
            tx.rollback(&mut ctx);
            r.map(|(addr, _)| addr)
        });
        assert_eq!(hop, Err(Abort));
        // An inner root that is its own child: both descents must abort.
        let descents = within_10s(|| {
            let (dev, t, stm) = setup(100);
            let mem = dev.mem();
            let root = NodeRef { addr: t.root(mem) };
            for i in 0..root.count(mem) {
                root.set_val(mem, i, root.addr);
            }
            let mut ctx = WarpCtx::new(mem, dev.config(), 0);
            let mut tx = stm.begin();
            let plain = tx_descend(&mut tx, &mut ctx, &t, 50, true).map(|(a, _)| a);
            let merging = tx_descend_merging(&mut tx, &mut ctx, &t, 50).map(|(a, _, _)| a);
            tx.rollback(&mut ctx);
            (plain, merging)
        });
        assert_eq!(descents, (Err(Abort), Err(Abort)));
    }
}
