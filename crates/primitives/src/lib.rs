//! Device-style parallel primitives with cost accounting.
//!
//! The paper's combining phase sorts each request batch with CUB's radix
//! sort (§7) and explicitly *includes the sorting time* in every Eirene
//! measurement (§8.1). This crate provides the equivalents:
//!
//! * [`radix_sort_pairs`] — a parallel, stable LSD radix sort with `u32`
//!   payloads, generic over the key width ([`RadixKey`]: `u32` or `u64`).
//!   The combining phase sorts the bare 32-bit request keys, fed in
//!   timestamp order so that stability yields (key, timestamp) order, and
//!   sorts `u64` timestamps only when a batch arrives out of timestamp
//!   order;
//! * [`exclusive_scan`] — a parallel exclusive prefix sum;
//! * [`stable_partition`] — a stable parallel partition (used to split the
//!   combined batch into the query-kernel and update-kernel arrays).
//!
//! The computations are executed for real on host threads (rayon); their
//! *device cost* is charged analytically through [`PrimCost`], using the
//! same latency model as instrumented kernels: radix sort reads the keys
//! once to find the digits that vary, then streams keys and payloads once
//! per digit pass it actually runs (read + scatter write); scan/partition
//! stream the batch a constant number of times. This keeps the combining
//! overhead visible in every throughput and response-time figure without
//! paying for per-element instrumentation on the host.

mod cost;
mod scan;
mod sort;

pub use cost::PrimCost;
pub use scan::{exclusive_scan, stable_partition};
pub use sort::{radix_sort_pairs, RadixKey};
