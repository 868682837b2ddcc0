//! Differential fuzzing of the whole sharded serving layer
//! (`eirene-serve`): adversarial request streams submitted through a
//! service — boundary-straddling ranges, delete churn, duplicate-heavy key
//! mixes from the existing generators — checked ticket-by-ticket against
//! the [`SequentialOracle`], with ddmin shrinking to a minimal cross-shard
//! counterexample.
//!
//! The oracle side leans on the service's linearizability contract: every
//! admitted request linearizes at its admission timestamp (exposed through
//! [`Ticket::timestamp`]), so replaying the submissions through the flat
//! [`SequentialOracle`] *in timestamp order* must reproduce every ticket's
//! response and the merged final contents — whatever the submission
//! interleaving was. That makes the same check work for one client and for
//! several racing lock-free submitter threads, and it exercises the epoch
//! structure, the shard split, the cross-shard range merge, the reorder
//! watermark, and batched [`Client::submit_many`] admission all at once
//! (each submitter chops its stream into pseudo-random single/batched
//! chunks derived from the case seed).

use crate::gen::{adversarial_batch, dense_pairs, GenOptions, Profile};
use crate::shrink::shrink;
use eirene_serve::{
    reconcile_samples, AdmitPolicy, AimdSpec, Client, EpochSizing, FaultPlan, ObserveConfig,
    Outcome, QosConfig, RebalanceAction, RebalanceKind, RebalanceSpec, SeriesCollector,
    ServeConfig, Service, ShardMap, Sharding, Ticket,
};
use eirene_sim::DeviceConfig;
use eirene_workloads::{Batch, Key, OpKind, Oracle, Request, Response, SequentialOracle};
use std::time::Duration;

/// Configuration of one serve-mode fuzz run.
#[derive(Clone, Debug)]
pub struct ServeFuzzOptions {
    /// Master seed; per-case batch seeds derive from it.
    pub seed: u64,
    /// Adversarial batches to push through fresh services.
    pub cases: usize,
    /// Requests per case.
    pub batch_size: usize,
    /// Key domain of generated requests.
    pub domain: u32,
    /// Keys pre-loaded into every fresh service (`1..=initial_keys`).
    pub initial_keys: u32,
    /// Shards per service; boundaries are spread across the generation
    /// domain so generated ranges actually straddle them.
    pub shards: usize,
    /// Epoch size limit, chosen well below `batch_size` so every case
    /// exercises multiple epoch boundaries per shard.
    pub epoch_limit: usize,
    /// Concurrent submitter threads per case (contiguous slices of the
    /// request stream race through the lock-free admission path).
    pub submitters: usize,
    /// Drive epoch sizes with the AIMD controller instead of a fixed
    /// limit: targets start at `epoch_limit / 4` and move every epoch, so
    /// cases exercise epoch boundaries at shifting batch sizes.
    pub adaptive: bool,
    /// QoS tenant lanes per shard (0 or 1 disables lanes). Submissions
    /// rotate across tenants, so admission goes through lane staging and
    /// the WRR drain; quotas are sized so nothing is shed and the oracle
    /// contract is unchanged (lanes reorder admission, not timestamps).
    pub tenants: usize,
    /// Run shard devices under the seeded deterministic scheduler.
    pub deterministic: bool,
    /// Exercise online rebalancing: half the stream is submitted, then a
    /// split of shard 0 and a merge of shard 0 into shard 1 are forced
    /// (migrating live keys) before the rest of the stream races the new
    /// topology. The unmodified flat oracle must still reproduce every
    /// response — topology changes are invisible to linearizability.
    pub rebalance: bool,
    /// Serve with [`Sharding::Hash`] instead of key ranges: every range
    /// query scatter-gathers across all shards and must merge to exactly
    /// what the range-partitioned service (and the flat oracle) produce.
    pub hash: bool,
    /// Replay mode: use this value directly as the batch seed and try each
    /// generator profile once (same contract as
    /// [`FuzzOptions::repro`](crate::FuzzOptions)).
    pub repro: Option<u64>,
}

impl Default for ServeFuzzOptions {
    fn default() -> Self {
        ServeFuzzOptions {
            seed: 0x5E4E5E,
            cases: 500,
            batch_size: 192,
            domain: 4096,
            initial_keys: 1024,
            shards: 4,
            epoch_limit: 48,
            submitters: 1,
            adaptive: false,
            tenants: 0,
            deterministic: false,
            rebalance: false,
            hash: false,
            repro: None,
        }
    }
}

/// How a serve-mode case failed.
#[derive(Clone, Debug)]
pub enum ServeViolation {
    /// A ticket's response diverged from the oracle's.
    Response {
        index: usize,
        request: Request,
        got: Response,
        want: Response,
    },
    /// A ticket resolved without executing (shed or timed out) although the
    /// case neither sets deadlines nor saturates the queues.
    NotExecuted {
        index: usize,
        request: Request,
        outcome: Outcome,
    },
    /// A shard tree failed `btree::validate` after the run.
    Structure(String),
    /// Responses matched but the merged final contents diverged.
    Contents(String),
    /// The report's own accounting is inconsistent (counter balance or
    /// phase rows).
    Accounting(String),
}

impl std::fmt::Display for ServeViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeViolation::Response {
                index,
                request,
                got,
                want,
            } => write!(
                f,
                "ticket {index} diverges for {request:?}: got {got:?}, oracle says {want:?}"
            ),
            ServeViolation::NotExecuted {
                index,
                request,
                outcome,
            } => write!(
                f,
                "ticket {index} for {request:?} resolved {outcome:?} without executing"
            ),
            ServeViolation::Structure(e) => write!(f, "structural invariant violated: {e}"),
            ServeViolation::Contents(e) => write!(f, "final contents diverge: {e}"),
            ServeViolation::Accounting(e) => write!(f, "report accounting inconsistent: {e}"),
        }
    }
}

/// A serve-fuzz-found violation, shrunk to a minimal reproducer.
#[derive(Clone, Debug)]
pub struct ServeFuzzFailure {
    pub iteration: usize,
    pub profile: Profile,
    pub batch_seed: u64,
    /// Base device seed (deterministic mode only; per-shard seeds derive
    /// from it through [`Cluster`](eirene_sim::Cluster)).
    pub device_seed: Option<u64>,
    pub shards: usize,
    /// The minimal failing submission sequence (timestamps are positional).
    pub shrunk: Vec<Request>,
    pub violation: ServeViolation,
    /// Self-contained `eirene-bench fuzz --serve` replay command.
    pub replay: String,
}

impl std::fmt::Display for ServeFuzzFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "serve differential violation across {} shards (iteration {}, profile {:?}, batch seed {:#x}{})",
            self.shards,
            self.iteration,
            self.profile,
            self.batch_seed,
            match self.device_seed {
                Some(s) => format!(", device seed {s:#x}"),
                None => ", OS scheduling".to_string(),
            }
        )?;
        writeln!(f, "  {}", self.violation)?;
        writeln!(f, "  minimal reproducer ({} requests):", self.shrunk.len())?;
        for r in &self.shrunk {
            writeln!(f, "    {r:?}")?;
        }
        write!(f, "  replay: {}", self.replay)
    }
}

/// Result of a serve-mode fuzz run.
#[derive(Debug)]
pub enum ServeFuzzOutcome {
    Passed { cases: usize },
    Failed(Box<ServeFuzzFailure>),
}

/// The shard map the fuzzer services use: boundaries spread uniformly
/// across the *generation domain* (not the full `u32` space), so generated
/// keys and range windows land on and straddle real shard boundaries. The
/// last shard still runs to `u32::MAX`, covering the boundary profile's
/// extreme keys.
pub fn fuzz_shard_map(shards: usize, domain: u32) -> ShardMap {
    assert!(shards > 0 && (shards as u64) <= domain as u64 + 1);
    let width = (domain / shards as u32).max(1);
    ShardMap::from_starts((0..shards as u32).map(|i| i * width).collect())
        .expect("valid shard starts")
}

/// SplitMix64 step (same scheme as the single-tree harness).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Submits one stream as a pseudo-random mix of single `submit` calls
/// and `submit_many` chunks (chunk pattern derived from `seed`),
/// rotating each chunk across the tenant clients, returning the tickets
/// in submission order.
fn submit_stream(clients: &[Client], reqs: &[Request], seed: u64) -> Vec<Ticket> {
    let mut tickets = Vec::with_capacity(reqs.len());
    let mut state = seed;
    let mut i = 0;
    while i < reqs.len() {
        state = mix(state);
        let client = &clients[(state >> 32) as usize % clients.len()];
        let take = (1 + state % 13) as usize;
        let take = take.min(reqs.len() - i);
        if take == 1 {
            tickets.push(client.submit(reqs[i].key, reqs[i].op));
        } else {
            let ops: Vec<(Key, OpKind)> = reqs[i..i + take].iter().map(|r| (r.key, r.op)).collect();
            tickets.extend(client.submit_many(&ops));
        }
        i += take;
    }
    tickets
}

/// One client per tenant (just the default client when lanes are off).
fn tenant_clients(svc: &Service, opts: &ServeFuzzOptions) -> Vec<Client> {
    let base = svc.client();
    if opts.tenants > 1 {
        (0..opts.tenants).map(|t| base.for_tenant(t)).collect()
    } else {
        vec![base]
    }
}

/// Submits one phase of the stream: one client, or `submitters` racing
/// threads on contiguous slices. Tickets keep submission-slice order so
/// `tickets[i]` still belongs to `reqs[i]`.
fn submit_phase(clients: &[Client], reqs: &[Request], submitters: usize, seed: u64) -> Vec<Ticket> {
    if submitters <= 1 {
        return submit_stream(clients, reqs, mix(seed));
    }
    let chunk = reqs.len().div_ceil(submitters);
    let mut parts: Vec<Vec<Ticket>> = Vec::with_capacity(submitters);
    std::thread::scope(|scope| {
        let handles: Vec<_> = reqs
            .chunks(chunk.max(1))
            .enumerate()
            .map(|(t, slice)| {
                scope.spawn(move || submit_stream(clients, slice, mix(seed ^ t as u64)))
            })
            .collect();
        parts.extend(handles.into_iter().map(|h| h.join().expect("submitter")));
    });
    parts.into_iter().flatten().collect()
}

/// Submits `reqs` through a fresh service over `pairs` — one client, or
/// `opts.submitters` racing threads on contiguous slices, chunked through
/// `submit_many` either way — and checks every ticket, the merged
/// contents, the structures, and the report accounting against the
/// sequential oracle replayed in admission-timestamp order.
pub fn run_serve_case(
    opts: &ServeFuzzOptions,
    map: &ShardMap,
    pairs: &[(u64, u64)],
    device_seed: u64,
    reqs: &[Request],
) -> Result<(), ServeViolation> {
    let device = if opts.deterministic {
        DeviceConfig::test_small().with_deterministic_sched(device_seed)
    } else {
        DeviceConfig::test_small()
    };
    // Observability rides along on every case: span recording plus a live
    // sample collector, cross-checked against the final report below.
    let collector = SeriesCollector::new();
    let sizing = if opts.adaptive {
        // Start well below the limit so the controller's moves are what
        // pick each epoch's size, not the bound.
        EpochSizing::Adaptive(AimdSpec::bounded(
            (opts.epoch_limit / 4).max(1),
            opts.epoch_limit.max(1),
        ))
    } else {
        EpochSizing::Fixed(opts.epoch_limit.max(1))
    };
    let qos = if opts.tenants > 1 {
        // Quota fits the whole case staged on one lane, so lanes never
        // shed and the zero-shed accounting check below still holds.
        QosConfig::uniform(opts.tenants, reqs.len() + 1)
    } else {
        QosConfig::disabled()
    };
    // Hash sharding and online rebalancing are mutually exclusive (the
    // hash topology is fixed), and rebalancing needs a boundary to move.
    let do_rebalance = opts.rebalance && !opts.hash && map.num_shards() >= 2;
    let cfg = ServeConfig {
        map: map.clone(),
        sharding: if opts.hash {
            Sharding::Hash
        } else {
            Sharding::Range
        },
        rebalance: do_rebalance.then(RebalanceSpec::manual),
        device,
        sizing,
        qos,
        // Generous: every entry (split ranges make one per covered shard)
        // fits queued at once, so nothing is shed even with the gate held.
        queue_depth: (reqs.len() + 1) * map.num_shards(),
        policy: AdmitPolicy::Block,
        linger: Duration::ZERO,
        hold_gate: true,
        headroom_nodes: (reqs.len() * 4).max(1 << 12),
        observe: ObserveConfig::with_observer(collector.clone()),
        ..ServeConfig::default()
    };
    let svc = Service::new(pairs, cfg);
    let submitters = opts.submitters.max(1);
    let clients = tenant_clients(&svc, opts);
    let tickets: Vec<Ticket> = if do_rebalance {
        // Phase 1 races the original topology behind the held gate...
        let (head, tail) = reqs.split_at(reqs.len() / 2);
        let mut tickets = submit_phase(&clients, head, submitters, device_seed);
        svc.release();
        // ...then a forced split and a forced merge migrate live keys
        // (quiescing needs the gate released, so forcing comes after)...
        svc.force_rebalance(RebalanceAction::Split { shard: 0 });
        svc.force_rebalance(RebalanceAction::Merge { left: 0 });
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        while svc.rebalance_attempts() < 2 {
            if std::time::Instant::now() > deadline {
                return Err(ServeViolation::Accounting(
                    "forced rebalance attempts did not complete within 30s".into(),
                ));
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        // ...and phase 2 races the moved boundaries.
        tickets.extend(submit_phase(&clients, tail, submitters, mix(device_seed)));
        tickets
    } else {
        let tickets = submit_phase(&clients, reqs, submitters, device_seed);
        svc.release();
        tickets
    };
    let report = svc.shutdown();
    if do_rebalance {
        let has =
            |kind: RebalanceKind| report.rebalances.iter().any(|e| e.kind == kind && e.forced);
        if !has(RebalanceKind::Split) || !has(RebalanceKind::Merge) {
            return Err(ServeViolation::Accounting(format!(
                "forced rebalance published {:?}: want at least one forced split and one forced merge",
                report.rebalances
            )));
        }
    }

    // Replay the oracle in admission-timestamp order — the service's
    // linearization order whatever the submission interleaving was.
    // Empty-window ranges are never admitted (no timestamp): they must
    // resolve to an empty range response and touch nothing.
    let mut order: Vec<(u64, usize)> = Vec::with_capacity(tickets.len());
    for (index, ticket) in tickets.iter().enumerate() {
        match ticket.timestamp() {
            Some(ts) => order.push((ts, index)),
            None => {
                let want = Response::Range(Vec::new());
                match ticket.wait() {
                    Outcome::Done(got) if got == want => {}
                    Outcome::Done(got) => {
                        return Err(ServeViolation::Response {
                            index,
                            request: reqs[index],
                            got,
                            want,
                        })
                    }
                    outcome => {
                        return Err(ServeViolation::NotExecuted {
                            index,
                            request: reqs[index],
                            outcome,
                        })
                    }
                }
            }
        }
    }
    order.sort_unstable();
    let pairs32: Vec<(u32, u32)> = pairs.iter().map(|&(k, v)| (k as u32, v as u32)).collect();
    let mut oracle = SequentialOracle::load(&pairs32);
    let batch = Batch::new(
        order
            .iter()
            .map(|&(ts, i)| Request {
                key: reqs[i].key,
                op: reqs[i].op,
                ts,
            })
            .collect(),
    );
    let want = oracle.run_batch(&batch);
    for (pos, (&(_, index), want)) in order.iter().zip(want).enumerate() {
        match tickets[index].wait() {
            Outcome::Done(got) => {
                if got != want {
                    return Err(ServeViolation::Response {
                        index,
                        request: batch.requests[pos],
                        got,
                        want,
                    });
                }
            }
            outcome => {
                return Err(ServeViolation::NotExecuted {
                    index,
                    request: batch.requests[pos],
                    outcome,
                })
            }
        }
    }
    report.structure().map_err(ServeViolation::Structure)?;
    let got_contents = report.contents();
    let want_contents: Vec<(u64, u64)> = oracle
        .contents()
        .iter()
        .map(|(&k, &v)| (k as u64, v as u64))
        .collect();
    if got_contents != want_contents {
        return Err(ServeViolation::Contents(contents_diff(
            &got_contents,
            &want_contents,
        )));
    }
    if report.shed() != 0 || report.timed_out() != 0 {
        return Err(ServeViolation::Accounting(format!(
            "unexpected shed={} timed_out={}",
            report.shed(),
            report.timed_out()
        )));
    }
    if report.enqueued() != report.executed() {
        return Err(ServeViolation::Accounting(format!(
            "enqueued {} != executed {}",
            report.enqueued(),
            report.executed()
        )));
    }
    if !report.phase_rows_sum_to_totals() {
        return Err(ServeViolation::Accounting(
            "phase rows do not sum to totals".to_string(),
        ));
    }
    // Span lifecycle invariants: one monotone submit→complete chain per
    // executed entry, phase deltas telescoping to the span's end-to-end
    // cycles, and (with nothing evicted) span totals summing exactly to
    // the shard's reported latency histogram.
    for shard in &report.shards {
        if shard.spans.len() as u64 + shard.spans_dropped != shard.executed {
            return Err(ServeViolation::Accounting(format!(
                "shard {}: {} spans + {} dropped != {} executed",
                shard.shard,
                shard.spans.len(),
                shard.spans_dropped,
                shard.executed
            )));
        }
        for span in &shard.spans {
            if !span.is_monotone() {
                return Err(ServeViolation::Accounting(format!(
                    "shard {}: span {} stamps regress: {:?}",
                    shard.shard, span.id, span.stamps
                )));
            }
            if span.phase_deltas().iter().sum::<u64>() != span.total_cycles() {
                return Err(ServeViolation::Accounting(format!(
                    "shard {}: span {} phase deltas do not telescope",
                    shard.shard, span.id
                )));
            }
        }
        if shard.spans_dropped == 0 {
            let span_sum: u64 = shard.spans.iter().map(|s| s.total_cycles()).sum();
            if span_sum != shard.latency.sum() {
                return Err(ServeViolation::Accounting(format!(
                    "shard {}: span latency sum {span_sum} != histogram sum {}",
                    shard.shard,
                    shard.latency.sum()
                )));
            }
        }
    }
    // Arena accounting: the terminal sample is taken after the final
    // epoch advance, so nothing may still sit in quarantine, and the live
    // node count must be consistent with the shard's key count — every
    // non-root node holds at least MIN_OCCUPANCY (4) keys, so a shard
    // whose arena holds more blocks than keys (plus slack for the
    // sentinel, the root chain, and near-empty shards) is leaking nodes.
    for shard in &report.shards {
        if shard.arena_retired != 0 {
            return Err(ServeViolation::Accounting(format!(
                "shard {}: {} blocks still quarantined at shutdown",
                shard.shard, shard.arena_retired
            )));
        }
        let bound = shard.key_count + 16;
        if shard.arena_live > bound {
            return Err(ServeViolation::Accounting(format!(
                "shard {}: {} live node blocks for {} keys (bound {bound}): arena leak",
                shard.shard, shard.arena_live, shard.key_count
            )));
        }
    }
    // The live sample series (epoch ids, terminal counter snapshots) must
    // reconcile exactly with the report's totals.
    reconcile_samples(&collector.samples(), &report).map_err(ServeViolation::Accounting)?;
    Ok(())
}

/// Fault-injection probe for the admission reservation guard (the
/// "submitter killed between reserve and push" leak): arms
/// [`FaultPlan::panic_on_admit`] so the first admission call panics on
/// its own scratch thread *inside* the reserve→push window, then proves
/// every reserved slot was recovered during unwind — the full queue depth
/// must still admit on every shard without shedding, every ticket must
/// execute, and the drained report must balance. Two victims, each on a
/// fresh two-shard service: a single submit, and a batch spanning both
/// shards plus a range split across the boundary. Before the guard
/// existed this wedged admission below `queue_depth` forever.
pub fn run_reservation_fault_case(queue_depth: usize) -> Result<(), String> {
    const BOUNDARY: Key = 32;
    reservation_fault_case(queue_depth, BOUNDARY, |client| {
        let _ = client.submit(1, OpKind::Query);
    })
    .map_err(|e| format!("single-submit victim: {e}"))?;
    reservation_fault_case(queue_depth, BOUNDARY, |client| {
        let _ = client.submit_many(&[
            (1, OpKind::Query),
            (BOUNDARY + 8, OpKind::Query),
            (BOUNDARY - 2, OpKind::Range { len: 4 }),
        ]);
    })
    .map_err(|e| format!("batched victim: {e}"))
}

fn reservation_fault_case(
    queue_depth: usize,
    boundary: Key,
    victim: fn(&Client),
) -> Result<(), String> {
    let pairs = dense_pairs(64);
    let cfg = ServeConfig {
        map: ShardMap::from_starts(vec![0, boundary]).expect("valid shard starts"),
        device: DeviceConfig::test_small(),
        sizing: EpochSizing::Fixed(64),
        queue_depth,
        policy: AdmitPolicy::Shed,
        linger: Duration::ZERO,
        hold_gate: true,
        fault: FaultPlan {
            panic_on_admit: Some(0),
        },
        ..ServeConfig::default()
    };
    let svc = Service::new(&pairs, cfg);
    // The victim submission dies mid-admission; the (expected) panic
    // stays on its scratch thread. Its noisy backtrace in test output is
    // the injection working.
    let victim = {
        let client = svc.client();
        std::thread::spawn(move || victim(&client))
    };
    if victim.join().is_ok() {
        return Err("injected admission fault did not trip".into());
    }
    // With the slots released, the *full* queue depth of every shard
    // still fits behind the held gate; a leaked reservation would shed
    // the last entry of its shard.
    let client = svc.client();
    let tickets: Vec<Ticket> = (0..queue_depth as Key)
        .flat_map(|i| [i % boundary, boundary + i])
        .map(|key| client.submit(key, OpKind::Query))
        .collect();
    svc.release();
    let report = svc.shutdown();
    for (i, ticket) in tickets.iter().enumerate() {
        match ticket.wait() {
            Outcome::Done(_) => {}
            outcome => {
                return Err(format!(
                    "ticket {i} resolved {outcome:?}: leaked reservation starved admission"
                ))
            }
        }
    }
    if report.shed() != 0 {
        return Err(format!(
            "{} entries shed after the fault: reservation leaked",
            report.shed()
        ));
    }
    for shard in &report.shards {
        if shard.enqueued != queue_depth as u64 || shard.executed != queue_depth as u64 {
            return Err(format!(
                "post-fault accounting off on shard {}: enqueued {} executed {} \
                 (want {queue_depth} each)",
                shard.shard, shard.enqueued, shard.executed
            ));
        }
    }
    report.assert_consistent();
    Ok(())
}

fn contents_diff(got: &[(u64, u64)], want: &[(u64, u64)]) -> String {
    let n = got.len().min(want.len());
    for i in 0..n {
        if got[i] != want[i] {
            return format!(
                "at sorted position {i}: service has {:?}, oracle has {:?}",
                got[i], want[i]
            );
        }
    }
    format!(
        "service holds {} keys, oracle holds {}",
        got.len(),
        want.len()
    )
}

fn replay_command(opts: &ServeFuzzOptions, batch_seed: u64) -> String {
    let mut cmd = format!(
        "eirene-bench fuzz --serve --shards {} --batch {} --domain {} --initial-keys {} --repro-seed {batch_seed:#x}",
        opts.shards, opts.batch_size, opts.domain, opts.initial_keys,
    );
    if opts.submitters > 1 {
        cmd.push_str(&format!(" --submitters {}", opts.submitters));
    }
    if opts.adaptive {
        cmd.push_str(" --adaptive");
    }
    if opts.tenants > 1 {
        cmd.push_str(&format!(" --tenants {}", opts.tenants));
    }
    if opts.rebalance {
        cmd.push_str(" --rebalance");
    }
    if opts.hash {
        cmd.push_str(" --hash");
    }
    if !opts.deterministic {
        cmd.push_str(" --os-sched");
    }
    cmd
}

/// Runs the serve-mode differential fuzz loop. On the first violation the
/// failing submission sequence is ddmin-shrunk (re-running a fresh service
/// per probe, same shard map and device seed) and returned.
pub fn run_serve_fuzz(opts: &ServeFuzzOptions) -> ServeFuzzOutcome {
    let pairs = dense_pairs(opts.initial_keys);
    let map = fuzz_shard_map(opts.shards, opts.domain);
    let gen_opts = GenOptions {
        domain: opts.domain,
        batch_size: opts.batch_size,
    };
    let iters = match opts.repro {
        Some(_) => Profile::ALL.len(),
        None => opts.cases,
    };
    for iter in 0..iters {
        let batch_seed = match opts.repro {
            Some(s) => s,
            None => mix(opts.seed ^ mix(iter as u64)),
        };
        let device_seed = mix(batch_seed);
        let profile = Profile::ALL[iter % Profile::ALL.len()];
        // The generated timestamps are discarded: the serving layer assigns
        // timestamps at admission, so only the submission *order* matters.
        let reqs = adversarial_batch(batch_seed, profile, &gen_opts).requests;
        if let Err(first) = run_serve_case(opts, &map, &pairs, device_seed, &reqs) {
            let shrunk = shrink(&reqs, |cand| {
                run_serve_case(opts, &map, &pairs, device_seed, cand).is_err()
            });
            let violation = run_serve_case(opts, &map, &pairs, device_seed, &shrunk)
                .err()
                .unwrap_or(first);
            return ServeFuzzOutcome::Failed(Box::new(ServeFuzzFailure {
                iteration: iter,
                profile,
                batch_seed,
                device_seed: opts.deterministic.then_some(device_seed),
                shards: opts.shards,
                shrunk,
                violation,
                replay: replay_command(opts, batch_seed),
            }));
        }
    }
    ServeFuzzOutcome::Passed { cases: iters }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_opts() -> ServeFuzzOptions {
        ServeFuzzOptions {
            cases: 12, // two passes over every generator profile
            batch_size: 96,
            domain: 1024,
            initial_keys: 512,
            epoch_limit: 24,
            ..Default::default()
        }
    }

    #[test]
    fn serve_fuzz_passes_a_short_run() {
        match run_serve_fuzz(&short_opts()) {
            ServeFuzzOutcome::Passed { cases } => assert_eq!(cases, 12),
            ServeFuzzOutcome::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    #[test]
    fn serve_fuzz_passes_with_racing_submitters() {
        let opts = ServeFuzzOptions {
            cases: 6,
            submitters: 4,
            ..short_opts()
        };
        match run_serve_fuzz(&opts) {
            ServeFuzzOutcome::Passed { cases } => assert_eq!(cases, 6),
            ServeFuzzOutcome::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    #[test]
    fn serve_fuzz_passes_with_adaptive_sizing_and_tenant_lanes() {
        let opts = ServeFuzzOptions {
            cases: 6,
            adaptive: true,
            tenants: 4,
            ..short_opts()
        };
        match run_serve_fuzz(&opts) {
            ServeFuzzOutcome::Passed { cases } => assert_eq!(cases, 6),
            ServeFuzzOutcome::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    #[test]
    fn serve_fuzz_passes_with_adaptive_tenants_and_racing_submitters() {
        let opts = ServeFuzzOptions {
            cases: 4,
            adaptive: true,
            tenants: 3,
            submitters: 4,
            ..short_opts()
        };
        match run_serve_fuzz(&opts) {
            ServeFuzzOutcome::Passed { cases } => assert_eq!(cases, 4),
            ServeFuzzOutcome::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    #[test]
    fn serve_fuzz_passes_with_forced_rebalancing() {
        let opts = ServeFuzzOptions {
            cases: 6,
            rebalance: true,
            ..short_opts()
        };
        match run_serve_fuzz(&opts) {
            ServeFuzzOutcome::Passed { cases } => assert_eq!(cases, 6),
            ServeFuzzOutcome::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    #[test]
    fn serve_fuzz_passes_with_rebalancing_and_racing_submitters() {
        let opts = ServeFuzzOptions {
            cases: 4,
            rebalance: true,
            submitters: 4,
            ..short_opts()
        };
        match run_serve_fuzz(&opts) {
            ServeFuzzOutcome::Passed { cases } => assert_eq!(cases, 4),
            ServeFuzzOutcome::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    #[test]
    fn serve_fuzz_passes_under_hash_sharding() {
        let opts = ServeFuzzOptions {
            cases: 6,
            hash: true,
            ..short_opts()
        };
        match run_serve_fuzz(&opts) {
            ServeFuzzOutcome::Passed { cases } => assert_eq!(cases, 6),
            ServeFuzzOutcome::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    #[test]
    fn serve_fuzz_passes_under_deterministic_scheduling() {
        let opts = ServeFuzzOptions {
            cases: 2,
            batch_size: 64,
            deterministic: true,
            ..short_opts()
        };
        match run_serve_fuzz(&opts) {
            ServeFuzzOutcome::Passed { cases } => assert_eq!(cases, 2),
            ServeFuzzOutcome::Failed(f) => panic!("unexpected violation:\n{f}"),
        }
    }

    #[test]
    fn killed_submitter_releases_its_reservation() {
        run_reservation_fault_case(32).unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn fuzz_shard_map_spreads_boundaries_over_the_domain() {
        let map = fuzz_shard_map(4, 4096);
        assert_eq!(map.boundaries(), vec![1024, 2048, 3072]);
        assert_eq!(map.shard_of(u32::MAX), 3);
        // A mid-domain window straddles a boundary into multiple parts.
        assert!(map.split_range(1000, 100).len() > 1);
    }
}
