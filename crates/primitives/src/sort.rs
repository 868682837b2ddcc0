//! Parallel stable LSD radix sort over `(key, u32 payload)` pairs, generic
//! over the key width (`u32` or `u64`).
//!
//! This is the reproduction's stand-in for the CUB `DeviceRadixSort` the
//! paper uses to sort each batch (§7). The algorithm is the classic GPU
//! formulation: for each 8-bit digit from least to most significant —
//! per-chunk histograms in parallel, a chunk-major exclusive scan to turn
//! counts into scatter offsets, then a parallel stable scatter where each
//! chunk writes disjoint regions.
//!
//! Before the first pass an OR/AND reduce over the keys finds the digits
//! that are constant across the whole input; their passes would be the
//! identity and are skipped, whatever the constant (CUB gets the same
//! effect from `begin_bit`/`end_bit`). The modelled cost charges that
//! reduce plus exactly the passes that run.

use crate::cost::PrimCost;
use eirene_sim::DeviceConfig;
use rayon::prelude::*;

const RADIX_BITS: u32 = 8;
const BUCKETS: usize = 1 << RADIX_BITS;
const DIGIT_MASK: u64 = BUCKETS as u64 - 1;

/// An unsigned key [`radix_sort_pairs`] can sort: one digit pass per byte.
pub trait RadixKey: Copy + Default + Send + Sync {
    /// Key width in bytes.
    const BYTES: u32;
    /// The key zero-extended to 64 bits.
    fn widen(self) -> u64;
}

impl RadixKey for u32 {
    const BYTES: u32 = 4;
    fn widen(self) -> u64 {
        self as u64
    }
}

impl RadixKey for u64 {
    const BYTES: u32 = 8;
    fn widen(self) -> u64 {
        self
    }
}

/// Sorts `keys` (with `payloads` permuted alongside) stably and in
/// ascending key order, returning the modelled device cost.
///
/// # Panics
/// Panics if `keys` and `payloads` have different lengths.
pub fn radix_sort_pairs<K: RadixKey>(
    keys: &mut Vec<K>,
    payloads: &mut Vec<u32>,
    cfg: &DeviceConfig,
) -> PrimCost {
    sort_counting_passes(keys, payloads, cfg).0
}

/// [`radix_sort_pairs`], also returning the number of digit passes run.
fn sort_counting_passes<K: RadixKey>(
    keys: &mut Vec<K>,
    payloads: &mut Vec<u32>,
    cfg: &DeviceConfig,
) -> (PrimCost, u32) {
    assert_eq!(keys.len(), payloads.len(), "keys/payloads length mismatch");
    let n = keys.len();
    let chunk = n
        .div_ceil(rayon::current_num_threads().max(1) * 4)
        .max(1024);

    // A digit is constant across the input iff its bits agree in the OR
    // and the AND of every key; its pass would be the identity.
    // Seeding both with a member key keeps an empty input at zero passes.
    let first = keys.first().map_or(0, |k| k.widen());
    let (or_all, and_all) = keys
        .par_chunks(chunk)
        .map(|ck| {
            ck.iter()
                .fold((first, first), |(o, a), k| (o | k.widen(), a & k.widen()))
        })
        .reduce(|| (first, first), |(o1, a1), (o2, a2)| (o1 | o2, a1 & a2));
    let varying = or_all ^ and_all;
    let shifts: Vec<u32> = (0..K::BYTES)
        .map(|pass| pass * RADIX_BITS)
        .filter(|&shift| (varying >> shift) & DIGIT_MASK != 0)
        .collect();

    let mut src_k = std::mem::take(keys);
    let mut src_p = std::mem::take(payloads);
    let mut dst_k = vec![K::default(); n];
    let mut dst_p = vec![0u32; n];
    let num_chunks = n.div_ceil(chunk);
    let mut ran = 0u32;

    for &shift in &shifts {
        let digit = |k: K| ((k.widen() >> shift) & DIGIT_MASK) as usize;
        // 1. Per-chunk histograms.
        let histograms: Vec<[u32; BUCKETS]> = src_k
            .par_chunks(chunk)
            .map(|ck| {
                let mut h = [0u32; BUCKETS];
                for &k in ck {
                    h[digit(k)] += 1;
                }
                h
            })
            .collect();
        // 2. Exclusive scan in bucket-major, chunk-minor order, so that
        //    within a bucket, earlier chunks scatter first (stability).
        let mut offsets = vec![[0u32; BUCKETS]; num_chunks];
        let mut running = 0u32;
        for b in 0..BUCKETS {
            for c in 0..num_chunks {
                offsets[c][b] = running;
                running += histograms[c][b];
            }
        }
        debug_assert_eq!(running as usize, n);
        // 3. Parallel stable scatter: chunks own disjoint output slots.
        let dst_k_ptr = SendPtr(dst_k.as_mut_ptr());
        let dst_p_ptr = SendPtr(dst_p.as_mut_ptr());
        src_k
            .par_chunks(chunk)
            .zip(src_p.par_chunks(chunk))
            .zip(offsets.into_par_iter())
            .for_each(|((ck, cp), mut off)| {
                for (&k, &p) in ck.iter().zip(cp) {
                    let b = digit(k);
                    let idx = off[b] as usize;
                    off[b] += 1;
                    // SAFETY: offsets partition 0..n disjointly across
                    // chunks and buckets: each (chunk, bucket) range is
                    // written only by its owning chunk.
                    unsafe {
                        *dst_k_ptr.get().add(idx) = k;
                        *dst_p_ptr.get().add(idx) = p;
                    }
                }
            });
        std::mem::swap(&mut src_k, &mut dst_k);
        std::mem::swap(&mut src_p, &mut dst_p);
        ran += 1;
    }

    *keys = src_k;
    *payloads = src_p;
    (sort_cost::<K>(n as u64, ran, cfg), ran)
}

/// Device cost of sorting `n` pairs with `passes` digit passes: the
/// constant-digit reduce reads the keys once; each pass streams keys and
/// payloads (`(key bytes + 4) / 8` words per element) through a read and a
/// scatter write, with a couple of control instructions per element for
/// digit extraction and offset computation.
fn sort_cost<K: RadixKey>(n: u64, passes: u32, cfg: &DeviceConfig) -> PrimCost {
    let mut cost = PrimCost::reduction(cfg, n * K::BYTES as u64 / 8, 2);
    let words = n * (K::BYTES as u64 + 4) / 8;
    cost.merge(PrimCost::streaming(cfg, words, passes as u64, 2));
    cost
}

/// Raw pointer wrapper allowing disjoint parallel writes from rayon tasks.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
impl<T> SendPtr<T> {
    #[inline]
    fn get(&self) -> *mut T {
        self.0
    }
}
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    fn check_sorted(keys: &[u64]) {
        assert!(keys.windows(2).all(|w| w[0] <= w[1]), "keys not sorted");
    }

    #[test]
    fn sorts_random_u64s() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let mut keys: Vec<u64> = (0..100_000).map(|_| rng.gen()).collect();
        let mut pay: Vec<u32> = (0..100_000).collect();
        let mut expect = keys.clone();
        expect.sort_unstable();
        radix_sort_pairs(&mut keys, &mut pay, &DeviceConfig::default());
        assert_eq!(keys, expect);
    }

    #[test]
    fn payloads_follow_their_keys() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        let orig: Vec<u64> = (0..10_000).map(|_| rng.gen::<u64>()).collect();
        let mut keys = orig.clone();
        let mut pay: Vec<u32> = (0..10_000).collect();
        radix_sort_pairs(&mut keys, &mut pay, &DeviceConfig::default());
        for (k, p) in keys.iter().zip(&pay) {
            assert_eq!(*k, orig[*p as usize]);
        }
    }

    #[test]
    fn sort_is_stable() {
        // Many duplicate keys; payloads record original order.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let mut keys: Vec<u64> = (0..50_000).map(|_| rng.gen_range(0..64u64)).collect();
        let mut pay: Vec<u32> = (0..50_000).collect();
        radix_sort_pairs(&mut keys, &mut pay, &DeviceConfig::default());
        check_sorted(&keys);
        for w in keys.windows(2).zip(pay.windows(2)) {
            let (kw, pw) = w;
            if kw[0] == kw[1] {
                assert!(pw[0] < pw[1], "equal keys reordered: {pw:?}");
            }
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        let cfg = DeviceConfig::default();
        let mut k: Vec<u64> = vec![];
        let mut p: Vec<u32> = vec![];
        radix_sort_pairs(&mut k, &mut p, &cfg);
        assert!(k.is_empty());
        let mut k = vec![7u64];
        let mut p = vec![0u32];
        radix_sort_pairs(&mut k, &mut p, &cfg);
        assert_eq!(k, vec![7]);
    }

    #[test]
    fn key_only_sort_of_timestamp_ordered_input_orders_by_key_then_timestamp() {
        // Stability is what lets combining sort the bare key: requests fed
        // in timestamp order come out in (key, timestamp) order.
        let reqs = [(5u32, 1u32), (1, 2), (5, 2), (5, 3), (1, 9)];
        let mut keys: Vec<u32> = reqs.iter().map(|&(k, _)| k).collect();
        let mut pay: Vec<u32> = (0..reqs.len() as u32).collect();
        radix_sort_pairs(&mut keys, &mut pay, &DeviceConfig::default());
        let order: Vec<(u32, u32)> = pay.iter().map(|&i| reqs[i as usize]).collect();
        assert_eq!(order, vec![(1, 2), (1, 9), (5, 1), (5, 2), (5, 3)]);
    }

    #[test]
    fn sorts_random_u32s_stably() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
        let orig: Vec<u32> = (0..50_000).map(|_| rng.gen_range(0..1u32 << 20)).collect();
        let mut keys = orig.clone();
        let mut pay: Vec<u32> = (0..50_000).collect();
        radix_sort_pairs(&mut keys, &mut pay, &DeviceConfig::default());
        let mut expect: Vec<(u32, u32)> = orig.iter().copied().zip(0..).collect();
        expect.sort();
        let got: Vec<(u32, u32)> = keys.iter().copied().zip(pay.iter().copied()).collect();
        assert_eq!(got, expect);
    }

    /// Sorts `keys` and checks both the passes run and the charge.
    fn assert_charged_passes<K: RadixKey + Ord + std::fmt::Debug>(keys: Vec<K>, expect: u32) {
        let cfg = DeviceConfig::default();
        let n = keys.len();
        let mut sorted = keys.clone();
        sorted.sort();
        let mut k = keys;
        let mut p: Vec<u32> = (0..n as u32).collect();
        let (cost, ran) = sort_counting_passes(&mut k, &mut p, &cfg);
        assert_eq!(k, sorted);
        assert_eq!(ran, expect, "{}-byte keys", K::BYTES);
        assert_eq!(cost, sort_cost::<K>(n as u64, expect, &cfg));
    }

    #[test]
    fn charged_passes_equal_passes_run_at_both_widths() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for (bits, passes) in [(8u32, 1u32), (18, 3), (22, 3)] {
            let raw: Vec<u32> = (0..20_000)
                .map(|_| rng.gen_range(0..1u32 << bits))
                .collect();
            assert_charged_passes(raw.clone(), passes);
            assert_charged_passes(raw.iter().map(|&k| k as u64).collect::<Vec<u64>>(), passes);
        }
    }

    #[test]
    fn constant_digits_are_skipped_and_not_charged() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        // Shared non-zero high byte: only the two low digits vary.
        let high: Vec<u32> = (0..4096)
            .map(|_| 0xAB00_0000 | rng.gen_range(0..1u32 << 16))
            .collect();
        assert_charged_passes(high.clone(), 2);
        // Shared non-zero low byte: pass 0 is skipped too.
        let low: Vec<u32> = high.iter().map(|&k| (k & 0xFF00) | 0x7F).collect();
        assert_charged_passes(low, 1);
        // All-equal keys, the empty input and a singleton need no pass.
        assert_charged_passes(vec![0xDEAD_BEEF_u64; 100], 0);
        assert_charged_passes(Vec::<u32>::new(), 0);
        assert_charged_passes(vec![7u64], 0);
        // Every u64 byte varies: all eight passes run.
        let full: Vec<u64> = (0..4096).map(|_| rng.gen()).collect();
        assert_charged_passes(full, 8);
    }

    #[test]
    fn narrower_keys_charge_fewer_words_per_pass() {
        let cfg = DeviceConfig::default();
        let narrow = sort_cost::<u32>(1 << 16, 3, &cfg);
        let wide = sort_cost::<u64>(1 << 16, 3, &cfg);
        assert!(narrow.mem_words < wide.mem_words);
        assert!(narrow.cycles < wide.cycles);
    }

    #[test]
    fn cost_scales_linearly() {
        let cfg = DeviceConfig::default();
        let mut k1: Vec<u64> = (0..1000).rev().collect();
        let mut p1: Vec<u32> = (0..1000).collect();
        let c1 = radix_sort_pairs(&mut k1, &mut p1, &cfg);
        let mut k2: Vec<u64> = (0..2000).rev().collect();
        let mut p2: Vec<u32> = (0..2000).collect();
        let c2 = radix_sort_pairs(&mut k2, &mut p2, &cfg);
        assert!(c2.cycles > c1.cycles);
        assert!(c2.mem_words >= 2 * c1.mem_words - 64);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_matches_std_sort(mut keys in proptest::collection::vec(any::<u64>(), 0..2000)) {
            let mut pay: Vec<u32> = (0..keys.len() as u32).collect();
            let mut expect = keys.clone();
            expect.sort_unstable();
            radix_sort_pairs(&mut keys, &mut pay, &DeviceConfig::default());
            prop_assert_eq!(keys, expect);
        }

        #[test]
        fn prop_payload_permutation_is_valid(keys in proptest::collection::vec(any::<u64>(), 1..1000)) {
            let mut k = keys.clone();
            let mut pay: Vec<u32> = (0..keys.len() as u32).collect();
            radix_sort_pairs(&mut k, &mut pay, &DeviceConfig::default());
            let mut seen = pay.clone();
            seen.sort_unstable();
            let expect: Vec<u32> = (0..keys.len() as u32).collect();
            prop_assert_eq!(seen, expect, "payloads must be a permutation");
        }
    }
}
