//! Equivalence of the warp-cooperative transactional leaf operations with
//! a plain sorted-array model of a leaf.
//!
//! Every leaf count `0..=FANOUT`, every slot, present and absent keys, and
//! both occupancy floors are covered over randomly filled leaves. For each
//! case the test compares the outcome, the old value, and every word of
//! the node after the committed transaction with the model's prediction.

use eirene_btree::node::{
    pack_meta, NodeRef, EMPTY_KEY, FANOUT, MIN_OCCUPANCY, NODE_WORDS, OFF_KEYS, OFF_META, OFF_VALS,
};
use eirene_btree::txops::{
    tx_delete_at_leaf, tx_query_at_leaf, tx_read_node, tx_upsert_at_leaf, LeafDelete, LeafUpsert,
    NO_VALUE,
};
use eirene_sim::{Addr, Device, DeviceConfig, GlobalMemory, WarpCtx};
use eirene_stm::Stm;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Random leaves drawn per (count, operation) combination.
const LEAVES_PER_COUNT: usize = 6;

#[derive(Clone, Copy, Debug)]
enum Op {
    Upsert(u64, u64),
    Delete(u64, usize),
    Query(u64),
}

#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Upsert(LeafUpsert),
    Delete(LeafDelete),
    Query(u64),
}

/// A leaf as a sorted array of entries.
struct Model {
    keys: Vec<u64>,
    vals: Vec<u64>,
}

impl Model {
    /// Applies `op` to `words` (the node image) and returns the outcome.
    fn apply(&mut self, op: Op, words: &mut [u64; NODE_WORDS]) -> Outcome {
        let count = self.keys.len();
        let pos = self.keys.binary_search_by(|k| k.cmp(&op_key(op)));
        let outcome = match (op, pos) {
            (Op::Query(_), Ok(i)) => Outcome::Query(self.vals[i]),
            (Op::Query(_), Err(_)) => Outcome::Query(NO_VALUE),
            (Op::Upsert(_, v), Ok(i)) => {
                let old = std::mem::replace(&mut self.vals[i], v);
                Outcome::Upsert(LeafUpsert::Done(old))
            }
            (Op::Upsert(..), Err(_)) if count == FANOUT => Outcome::Upsert(LeafUpsert::Full),
            (Op::Upsert(k, v), Err(i)) => {
                self.keys.insert(i, k);
                self.vals.insert(i, v);
                Outcome::Upsert(LeafUpsert::Done(NO_VALUE))
            }
            (Op::Delete(..), Err(_)) => Outcome::Delete(LeafDelete::Done(NO_VALUE)),
            (Op::Delete(_, floor), Ok(_)) if count <= floor => {
                Outcome::Delete(LeafDelete::Underflow)
            }
            (Op::Delete(..), Ok(i)) => {
                self.keys.remove(i);
                Outcome::Delete(LeafDelete::Done(self.vals.remove(i)))
            }
        };
        // Entries live in the first `len` slots; the other key slots are
        // empty. Value slots past the entries keep whatever they held (a
        // delete leaves the vacated last value in place).
        let len = self.keys.len();
        words[OFF_META as usize] = pack_meta(true, false, len);
        for i in 0..FANOUT {
            words[OFF_KEYS as usize + i] = self.keys.get(i).copied().unwrap_or(EMPTY_KEY);
            if i < len {
                words[OFF_VALS as usize + i] = self.vals[i];
            }
        }
        outcome
    }
}

fn op_key(op: Op) -> u64 {
    match op {
        Op::Upsert(k, _) | Op::Delete(k, _) | Op::Query(k) => k,
    }
}

/// Writes a random leaf with `count` entries; keys are distinct
/// multiples of 4 (so `key - 1` and `key + 1` are always absent).
fn random_leaf(mem: &GlobalMemory, rng: &mut ChaCha8Rng, count: usize) -> (Addr, Model) {
    let node = NodeRef::alloc(mem, true);
    let mut keys: Vec<u64> = Vec::new();
    while keys.len() < count {
        let k = 4 * rng.gen_range(1u64..10_000);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys.sort_unstable();
    let vals: Vec<u64> = (0..count).map(|_| rng.gen_range(0u64..1 << 40)).collect();
    for i in 0..FANOUT {
        // Unused value slots hold noise the ops must leave alone.
        node.set_val(mem, i, vals.get(i).copied().unwrap_or(rng.gen()));
    }
    for (i, &k) in keys.iter().enumerate() {
        node.set_key(mem, i, k);
    }
    node.set_count(mem, count);
    node.set_low(mem, 2);
    node.set_high(mem, 1 << 20);
    node.set_next(mem, rng.gen_range(1u64..1 << 30));
    node.set_rf(mem, rng.gen());
    (node.addr, Model { keys, vals })
}

/// Every (key, op) case for a leaf: present keys at every slot, absent
/// keys before every slot and past the end, both floors for deletes.
fn cases(model: &Model, rng: &mut ChaCha8Rng) -> Vec<Op> {
    let mut keys: Vec<u64> = model.keys.clone();
    keys.extend(model.keys.iter().map(|k| k - 1));
    keys.push(model.keys.last().map_or(4, |k| k + 1));
    let mut ops = Vec::new();
    for k in keys {
        ops.push(Op::Upsert(k, rng.gen_range(0u64..1 << 40)));
        ops.push(Op::Delete(k, MIN_OCCUPANCY));
        ops.push(Op::Delete(k, 0));
        ops.push(Op::Query(k));
    }
    ops
}

fn run_op(stm: &Stm, ctx: &mut WarpCtx<'_>, addr: Addr, op: Op) -> Outcome {
    let mut tx = stm.begin();
    let leaf = tx_read_node(&mut tx, ctx, addr).expect("no contention");
    let outcome = match op {
        Op::Upsert(k, v) => {
            Outcome::Upsert(tx_upsert_at_leaf(&mut tx, ctx, addr, &leaf, k, v).unwrap())
        }
        Op::Delete(k, floor) => {
            Outcome::Delete(tx_delete_at_leaf(&mut tx, ctx, addr, &leaf, k, floor).unwrap())
        }
        Op::Query(k) => Outcome::Query(tx_query_at_leaf(ctx, &leaf, k)),
    };
    tx.commit(ctx).expect("no contention");
    outcome
}

#[test]
fn block_leaf_ops_match_a_sorted_array_model() {
    let dev = Device::new(1 << 20, DeviceConfig::test_small());
    let mem = dev.mem();
    let stm = Stm::new(mem, 1 << 10);
    let mut ctx = WarpCtx::new(mem, dev.config(), 0);
    let mut rng = ChaCha8Rng::seed_from_u64(0x1eaf);
    let addr = mem.alloc_aligned(NODE_WORDS, 16);
    let mut checked = [0usize; 3];
    for count in 0..=FANOUT {
        for _ in 0..LEAVES_PER_COUNT {
            let (proto, model) = random_leaf(mem, &mut rng, count);
            let mut proto_words = [0u64; NODE_WORDS];
            mem.read_slice(proto, &mut proto_words);
            for op in cases(&model, &mut rng) {
                // Each case runs on a fresh copy of the leaf.
                mem.write_slice(addr, &proto_words);
                let mut expected = proto_words;
                let mut m = Model {
                    keys: model.keys.clone(),
                    vals: model.vals.clone(),
                };
                let want = m.apply(op, &mut expected);
                let got = run_op(&stm, &mut ctx, addr, op);
                assert_eq!(got, want, "count {count}, {op:?}");
                let mut words = [0u64; NODE_WORDS];
                mem.read_slice(addr, &mut words);
                assert_eq!(words, expected, "node words: count {count}, {op:?}");
                checked[match op {
                    Op::Upsert(..) => 0,
                    Op::Delete(..) => 1,
                    Op::Query(_) => 2,
                }] += 1;
            }
        }
    }
    assert!(checked.iter().all(|&n| n > 0), "{checked:?}");
}
