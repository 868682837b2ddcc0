//! Properties of the combining plan and its execution.
//!
//! 1. The key-only sort builds the same plan as the composite
//!    `(key << 32) | timestamp-rank` sort it replaced, field by field, for
//!    batches in and out of timestamp order; a timestamp-shuffled batch
//!    pays for its extra timestamp sort and still answers like the oracle.
//! 2. Executing a batch with leaf-run coalescing (sorted-plan leaf runs
//!    dispatched through the snapshot pivot cache) is indistinguishable
//!    from the unpartitioned per-request execution — the per-ticket
//!    responses are identical position by position, the final key/value
//!    contents of the tree are identical, and both trees pass the
//!    structural validator. Coalescing regroups *who walks*, never *what
//!    is applied in which timestamp order*; this test pins that claim
//!    across randomized duplicate-key, colliding-timestamp,
//!    mixed-operation batches, including multi-batch sequences that force
//!    pivot-cache invalidation between epochs.

use eirene_baselines::common::ConcurrentTree;
use eirene_btree::refops;
use eirene_btree::validate::validate;
use eirene_core::plan::{build_plan, Artificial, CombinePlan, Issued, IssuedKind, RangeReq, Run};
use eirene_core::{EireneOptions, EireneTree};
use eirene_primitives::{radix_sort_pairs, PrimCost};
use eirene_sim::{DeviceConfig, Phase};
use eirene_workloads::{Batch, OpKind, Oracle, Request, SequentialOracle};
use proptest::prelude::*;
use rand::{seq::SliceRandom, SeedableRng};

const DOMAIN: u32 = 2048;

fn build(coalesce: bool) -> EireneTree {
    let pairs: Vec<(u64, u64)> = (1..=512u64).map(|k| (k, k + 1)).collect();
    EireneTree::new(
        &pairs,
        EireneOptions {
            device: DeviceConfig::test_small(),
            headroom_nodes: 1 << 12,
            coalesce,
            ..Default::default()
        },
    )
}

/// One raw request: key, operation selector, upsert value, range length,
/// timestamp (small domain so timestamps collide and the batch-position
/// tie-break carries weight).
type RawReq = (u32, u8, u32, u32, u64);

fn request_strategy() -> impl Strategy<Value = RawReq> {
    // The workspace proptest shim implements Strategy for tuples of at
    // most four elements, so nest and flatten.
    ((0..=DOMAIN, 0..10u8), (any::<u32>(), 1..=48u32, 0..48u64))
        .prop_map(|((key, sel), (val, len, ts))| (key, sel, val, len, ts))
}

fn to_request(raw: &RawReq) -> Request {
    let &(key, sel, val, len, ts) = raw;
    let op = match sel {
        0..=3 => OpKind::Upsert(val),
        4 => OpKind::Delete,
        5 => OpKind::Range { len },
        _ => OpKind::Query,
    };
    Request { key, op, ts }
}

/// The plan as the composite-key sort built it: timestamp ranks from a
/// comparison sort, one radix sort of `(key << 32) | rank` composites, a
/// scan into runs, and artificial queries found by brute force.
fn reference_plan(batch: &Batch) -> CombinePlan {
    let reqs = &batch.requests;
    let n = reqs.len();
    let mut by_ts: Vec<u32> = (0..n as u32).collect();
    by_ts.sort_by_key(|&i| (reqs[i as usize].ts, i));
    let mut rank = vec![0u32; n];
    for (r, &i) in by_ts.iter().enumerate() {
        rank[i as usize] = r as u32;
    }
    let mut composite: Vec<u64> = (0..n)
        .map(|i| ((reqs[i].key as u64) << 32) | rank[i] as u64)
        .collect();
    let mut order: Vec<u32> = (0..n as u32).collect();
    radix_sort_pairs(&mut composite, &mut order, &DeviceConfig::default());

    let mut plan = CombinePlan {
        point_sorted: Vec::new(),
        runs: Vec::new(),
        issued: Vec::new(),
        ranges: Vec::new(),
        run_art: Vec::new(),
        rank,
        cost: PrimCost::default(),
    };
    for &idx in &order {
        let req = reqs[idx as usize];
        if let OpKind::Range { len } = req.op {
            plan.ranges.push(RangeReq {
                orig_idx: idx,
                lo: req.key,
                len,
                ts: req.ts,
            });
            continue;
        }
        if plan.runs.last().is_none_or(|r| r.key != req.key) {
            plan.runs.push(Run {
                key: req.key,
                start: plan.point_sorted.len() as u32,
                len: 0,
                has_state_ops: false,
            });
            plan.issued.push(Issued {
                key: req.key,
                kind: IssuedKind::Query,
                run: plan.runs.len() as u32 - 1,
            });
        }
        let run = plan.runs.last_mut().unwrap();
        let issued = plan.issued.last_mut().unwrap();
        run.len += 1;
        match req.op {
            OpKind::Upsert(v) => issued.kind = IssuedKind::Upsert(v),
            OpKind::Delete => issued.kind = IssuedKind::Delete,
            _ => {}
        }
        run.has_state_ops |= issued.kind != IssuedKind::Query;
        plan.point_sorted.push(idx);
    }
    plan.run_art = plan
        .runs
        .iter()
        .map(|run| {
            let k = run.key as u64;
            let mut arts: Vec<Artificial> = plan
                .ranges
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    run.has_state_ops && r.lo as u64 <= k && k < r.lo as u64 + r.len as u64
                })
                .map(|(ri, r)| Artificial {
                    range_idx: ri as u32,
                    offset: run.key - r.lo,
                    ts: r.ts,
                    rank: plan.rank[r.orig_idx as usize],
                })
                .collect();
            arts.sort_by_key(|a| a.rank);
            arts
        })
        .collect();
    plan
}

/// Asserts `build_plan` equals the composite-key reference on every field
/// but the cost.
fn assert_plan_matches_reference(batch: &Batch) -> Result<(), TestCaseError> {
    let got = build_plan(batch, &DeviceConfig::default());
    let want = reference_plan(batch);
    prop_assert_eq!(&got.point_sorted, &want.point_sorted);
    prop_assert_eq!(&got.runs, &want.runs);
    prop_assert_eq!(&got.issued, &want.issued);
    prop_assert_eq!(&got.ranges, &want.ranges);
    prop_assert_eq!(&got.run_art, &want.run_art);
    prop_assert_eq!(&got.rank, &want.rank);
    Ok(())
}

/// The batch's requests with their timestamps sorted into batch order:
/// non-decreasing, with the raw batch's collisions kept as equal runs.
fn timestamps_in_batch_order(raw: &[RawReq]) -> Batch {
    let mut ts: Vec<u64> = raw.iter().map(|r| r.4).collect();
    ts.sort_unstable();
    Batch::new(
        raw.iter()
            .zip(ts)
            .map(|(r, t)| Request {
                ts: t,
                ..to_request(r)
            })
            .collect(),
    )
}

/// Runs `batches` on a fresh tree pair and asserts the coalesced and
/// unpartitioned executions are indistinguishable after every batch.
fn assert_equivalent(batches: &[Vec<RawReq>]) -> Result<(), TestCaseError> {
    let mut on = build(true);
    let mut off = build(false);
    for (b, raw) in batches.iter().enumerate() {
        let batch = Batch::new(raw.iter().map(to_request).collect());
        let run_on = on.run_batch(&batch);
        let run_off = off.run_batch(&batch);
        for i in 0..batch.len() {
            prop_assert_eq!(
                &run_on.responses[i],
                &run_off.responses[i],
                "batch {} response {} diverges for {:?}",
                b,
                i,
                batch.requests[i]
            );
        }
        let c_on = refops::contents(on.device().mem(), on.handle());
        let c_off = refops::contents(off.device().mem(), off.handle());
        prop_assert_eq!(c_on, c_off, "batch {}: final contents diverge", b);
        prop_assert!(validate(on.device().mem(), on.handle()).is_ok());
        prop_assert!(validate(off.device().mem(), off.handle()).is_ok());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ranges, duplicate keys, and timestamps that collide and do not
    /// follow batch positions (the timestamp-sort path), plus the same
    /// requests re-stamped in batch order (the in-order path).
    #[test]
    fn prop_key_only_plan_equals_composite_reference(
        raw in proptest::collection::vec(request_strategy(), 0..200),
    ) {
        let batch = Batch::new(raw.iter().map(to_request).collect());
        assert_plan_matches_reference(&batch)?;
        assert_plan_matches_reference(&timestamps_in_batch_order(&raw))?;
    }

    /// Single adversarial batch: duplicate keys, colliding timestamps,
    /// ranges, deletes — coalesced == unpartitioned.
    #[test]
    fn prop_coalesced_batch_equals_unpartitioned(
        raw in proptest::collection::vec(request_strategy(), 1..160),
    ) {
        assert_equivalent(&[raw])?;
    }

    /// Two consecutive batches against the SAME tree pair: the first
    /// builds the coalesced tree's pivot cache; when it splits nodes the
    /// snapshot is invalidated and the second batch rebuilds — the
    /// equivalence must hold across that boundary too.
    #[test]
    fn prop_equivalence_survives_cache_invalidation(
        first in proptest::collection::vec(request_strategy(), 32..96),
        second in proptest::collection::vec(request_strategy(), 32..96),
    ) {
        assert_equivalent(&[first, second])?;
    }
}

/// Deterministic pin of the machinery: a duplicate-heavy batch on the
/// coalesced tree must actually save descents and hit the cache, and the
/// unpartitioned tree must report zero for both.
#[test]
fn coalesced_counters_fire_and_baseline_stays_flat() {
    let mut on = build(true);
    let mut off = build(false);
    let reqs: Vec<Request> = (0..256)
        .map(|i| Request {
            key: (i % 16) * 8 + 1,
            op: if i % 3 == 0 {
                OpKind::Upsert(i)
            } else {
                OpKind::Query
            },
            ts: i as u64,
        })
        .collect();
    let batch = Batch::new(reqs);
    let run_on = on.run_batch(&batch);
    let run_off = off.run_batch(&batch);
    assert_eq!(run_on.responses, run_off.responses);
    assert!(run_on.stats.totals.pivot_cache_rebuilds >= 1);
    assert!(run_on.stats.totals.pivot_cache_hits > 0);
    assert!(run_on.stats.totals.descents_saved > 0);
    assert_eq!(run_off.stats.totals.pivot_cache_hits, 0);
    assert_eq!(run_off.stats.totals.descents_saved, 0);
    assert_eq!(run_off.stats.totals.pivot_cache_rebuilds, 0);
}

/// The same requests with shuffled timestamps pay for the timestamp sort
/// the in-order batch skips, and both still answer like the oracle.
#[test]
fn shuffled_timestamps_charge_more_combine_and_match_oracle() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
    let in_order: Vec<Request> = (0..1024u32)
        .map(|i| {
            let op = match i % 7 {
                0 | 1 => OpKind::Upsert(i),
                2 => OpKind::Delete,
                3 => OpKind::Range { len: 6 },
                _ => OpKind::Query,
            };
            Request {
                key: (i * 37) % 700 + 1,
                op,
                ts: 10 * i as u64,
            }
        })
        .collect();
    let mut ts: Vec<u64> = in_order.iter().map(|r| r.ts).collect();
    ts.shuffle(&mut rng);
    let shuffled: Vec<Request> = in_order
        .iter()
        .zip(ts)
        .map(|(r, ts)| Request { ts, ..*r })
        .collect();

    let mut combine_cycles = Vec::new();
    for reqs in [in_order, shuffled] {
        let batch = Batch::new(reqs);
        let mut tree = build(true);
        let run = tree.run_batch(&batch);
        let pairs: Vec<(u32, u32)> = (1..=512u32).map(|k| (k, k + 1)).collect();
        let expect = SequentialOracle::load(&pairs).run_batch(&batch);
        assert_eq!(run.responses, expect);
        combine_cycles.push(run.stats.totals.phases.row(Phase::Combine).cycles);
    }
    assert!(
        combine_cycles[1] > combine_cycles[0],
        "shuffled {} vs in-order {} Combine cycles",
        combine_cycles[1],
        combine_cycles[0]
    );
}
