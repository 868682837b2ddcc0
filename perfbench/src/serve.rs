//! `serve-open`: the sharded service, `Service::new` then
//! `Client::submit_many_at`, `Service::release`, ticket waits and
//! `Service::shutdown`.
//!
//! Deployment shape: 2 range shards splitting the 2^20-key domain, one
//! submitter (this thread), `Block` admission (the default) and the epoch
//! gate held while submitting. Everything else is `ServeConfig::default()`.
//! With one submitter the epochs compose the same way on every run, so
//! every device-clock number repeats exactly for a given seed.
//!
//! A round makes three passes over the same generated stream, each on a
//! fresh service: a closed-loop capacity pass (no arrival stamps) and two
//! open loops in device time, at fixed absolute rates `lo` and `hi`.

use crate::host;
use crate::layers::Layers;
use crate::metrics::{interp_quantile, median, per, Metric, Report};
use crate::spans::Tracer;
use crate::tree::EXTRA_SETUPS;
use eirene_serve::{Outcome, ServeConfig, ServeReport, Service, ShardMap, Ticket};
use eirene_sim::{CycleHistogram, DeviceConfig};
use eirene_workloads::{
    Batch, Distribution, Key, Mix, OpKind, Oracle, Request, Response, SequentialOracle, ShardedGen,
    WorkloadSpec,
};
use std::time::{Duration, Instant};

/// How long a pass waits for its tickets before it counts the unresolved
/// ones as failed and abandons the (wedged) service.
const WAIT_LIMIT: Duration = Duration::from_secs(30);
/// Sleep between ticket polls; the caller yields its core to the service.
const POLL: Duration = Duration::from_micros(50);
/// How long set-up waits for the shard executors to finish their bulk
/// loads and park.
const LOAD_LIMIT: Duration = Duration::from_secs(20);

/// Sizes, mix and rates of the service workload.
#[derive(Clone, Debug)]
pub struct ServeShape {
    pub tree_exp: u32,
    pub shards: u32,
    /// Requests per pass; at most the shards' total queue capacity, since
    /// the gate is held while they are submitted.
    pub requests: usize,
    /// Requests per `submit_many_at` call.
    pub chunk: usize,
    pub mix: Mix,
    /// Fraction of requests rewritten onto the shard boundary.
    pub straddle: f64,
    /// Open-loop offered rates, requests per device second.
    pub lo_rate: f64,
    pub hi_rate: f64,
}

impl ServeShape {
    /// 2^20 keys on 2 shards, 90 % query / 5 % upsert / 5 % range of 8,
    /// 5 % of keys on the boundary, `lo` = 160 and `hi` = 280 Mreq/s.
    pub fn open(tiny: bool) -> ServeShape {
        ServeShape {
            tree_exp: if tiny { 12 } else { 20 },
            shards: 2,
            requests: if tiny { 1 << 11 } else { 1 << 16 },
            chunk: 1024,
            mix: Mix {
                upsert: 0.05,
                delete: 0.0,
                range: 0.05,
                range_len: 8,
            },
            straddle: 0.05,
            lo_rate: 160e6,
            hi_rate: 280e6,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PassKind {
    Capacity,
    Lo,
    Hi,
}

/// What one pass measured.
struct Pass {
    kind: PassKind,
    traced: bool,
    setup_s: f64,
    /// Host time from the first submit to the last resolved ticket.
    timed_ns: u64,
    throughput: f64,
    latency: CycleHistogram,
}

/// Runs the workload for `seconds` and returns the end-to-end metrics
/// (untraced) or the per-layer metrics (traced).
pub fn run(
    shape: &ServeShape,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    corrupt: bool,
) -> Report {
    let spec = WorkloadSpec {
        tree_size: 1 << shape.tree_exp,
        batch_size: shape.chunk,
        mix: shape.mix,
        distribution: Distribution::Uniform,
        seed,
    };
    let width = (spec.key_domain() / shape.shards as u64) as Key;
    let map = ShardMap::from_starts((0..shape.shards).map(|i| i * width).collect())
        .expect("ascending shard starts");
    let init = spec.initial_pairs();
    let pairs: Vec<(u64, u64)> = init.iter().map(|&(k, v)| (k as u64, v as u64)).collect();
    let oracle0 = SequentialOracle::load(&init);
    let stream =
        ShardedGen::new(spec, map.boundaries(), shape.straddle).next_requests(shape.requests);
    let device = DeviceConfig::default();
    let stamped = |rate: Option<f64>| -> Vec<Vec<(Key, OpKind, u64)>> {
        let cycles_per_req = rate.map_or(0.0, |r| device.clock_ghz * 1e9 / r);
        let ops: Vec<_> = stream
            .iter()
            .enumerate()
            .map(|(i, r)| (r.key, r.op, (i as f64 * cycles_per_req) as u64))
            .collect();
        ops.chunks(shape.chunk).map(<[_]>::to_vec).collect()
    };
    let passes_in = [
        (PassKind::Capacity, stamped(None)),
        (PassKind::Lo, stamped(Some(shape.lo_rate))),
        (PassKind::Hi, stamped(Some(shape.hi_rate))),
    ];
    let cfg = ServeConfig {
        map,
        hold_gate: true,
        ..ServeConfig::default()
    };

    let mut report = Report::default();
    let mut passes: Vec<Pass> = Vec::new();
    let (mut layers, mut scratch) = (Layers::default(), Layers::default());
    let traced_run = tracer.is_on();
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| {
            let (svc, secs) = set_up(&pairs, &cfg);
            svc.shutdown();
            secs
        })
        .collect();
    let start = Instant::now();
    let mut round = 0usize;
    'rounds: while start.elapsed().as_secs_f64() < seconds || round < if traced_run { 2 } else { 1 }
    {
        // A traced run alternates untraced and traced rounds.
        let traced = traced_run && round % 2 == 1;
        let sink = if traced { &mut layers } else { &mut scratch };
        for (kind, chunks) in &passes_in {
            let id = passes.len() as u64;
            let ctx = PassCtx {
                pairs: &pairs,
                cfg: &cfg,
                stream: &stream,
                oracle0: &oracle0,
                corrupt: corrupt && id == 0,
            };
            match run_pass(
                &ctx,
                *kind,
                chunks,
                id,
                traced.then_some(&mut *tracer),
                &mut report,
                sink,
            ) {
                Some((setup_s, timed_ns, served)) => passes.push(Pass {
                    kind: *kind,
                    traced,
                    setup_s,
                    timed_ns,
                    throughput: served.throughput(),
                    latency: served.latency(),
                }),
                None => break 'rounds,
            }
        }
        round += 1;
    }

    report.metrics = if traced_run {
        let ns_per_req = |traced: bool| {
            median(
                &passes
                    .iter()
                    .filter(|p| p.traced == traced)
                    .map(|p| p.timed_ns as f64 / shape.requests as f64)
                    .collect::<Vec<_>>(),
            )
        };
        layers.metrics(
            &tracer.self_ns(),
            ns_per_req(true) / ns_per_req(false) - 1.0,
        )
    } else {
        setups.extend(passes.iter().filter(|p| !p.traced).map(|p| p.setup_s));
        // The §8.2 spread has no end-to-end bound (see WORKLOADS.md); it
        // prints for reading and is a per-layer row of the traced run.
        report.notes.push(Metric::new(
            "qos_spread",
            median(&scratch.qos_spread),
            "ratio",
            format!("median of {} rounds or passes", scratch.qos_spread.len()),
        ));
        end_to_end(&passes, shape.requests, &setups, &device)
    };
    report
}

/// Builds a service and waits until it is ready to serve: each shard
/// bulk-loads its tree on its executor thread after `Service::new`
/// returns, so set-up ends when every executor has parked. The load then
/// neither hides from `setup_s` nor competes with the timed submission.
fn set_up(pairs: &[(u64, u64)], cfg: &ServeConfig) -> (Service, f64) {
    let t = Instant::now();
    let svc = Service::new(pairs, cfg.clone());
    if !host::wait_threads_idle("serve-exec-", LOAD_LIMIT) {
        eprintln!("shard executors not seen idle; set-up may exclude the bulk load");
    }
    (svc, t.elapsed().as_secs_f64())
}

/// Inputs shared by every pass.
struct PassCtx<'a> {
    pairs: &'a [(u64, u64)],
    cfg: &'a ServeConfig,
    stream: &'a [Request],
    oracle0: &'a SequentialOracle,
    corrupt: bool,
}

/// One pass on a fresh service. Returns the set-up seconds, the timed
/// nanoseconds and the shutdown report, or `None` when tickets stayed
/// unresolved past [`WAIT_LIMIT`]: they are counted as failed and the
/// wedged service is abandoned (its shutdown could block forever).
fn run_pass(
    ctx: &PassCtx<'_>,
    kind: PassKind,
    chunks: &[Vec<(Key, OpKind, u64)>],
    id: u64,
    tracer: Option<&mut Tracer>,
    report: &mut Report,
    layers: &mut Layers,
) -> Option<(f64, u64, ServeReport)> {
    let mut spans: Vec<(&'static str, Instant, Instant, f64)> =
        Vec::with_capacity(chunks.len() + 4);
    let t_new = Instant::now();
    let (svc, setup_s) = set_up(ctx.pairs, ctx.cfg);
    let t_ready = Instant::now();
    spans.push(("Service::new", t_new, t_ready, ctx.pairs.len() as f64));
    let client = svc.client();

    let before = host::sample();
    let t_submit = Instant::now();
    let mut tickets: Vec<Ticket> = Vec::with_capacity(ctx.stream.len());
    for chunk in chunks {
        let t = Instant::now();
        tickets.extend(client.submit_many_at(chunk));
        spans.push(("submit_many_at", t, Instant::now(), chunk.len() as f64));
    }
    let t = Instant::now();
    svc.release();
    let t_released = Instant::now();
    spans.push(("release", t, t_released, 0.0));
    let deadline = t_released + WAIT_LIMIT;
    let outcomes: Vec<Option<Outcome>> = tickets
        .iter()
        .map(|ticket| loop {
            if let Some(o) = ticket.try_get() {
                break Some(o);
            }
            if Instant::now() >= deadline {
                break None;
            }
            std::thread::sleep(POLL);
        })
        .collect();
    let t_done = Instant::now();
    let after = host::sample();
    let unresolved = outcomes.iter().filter(|o| o.is_none()).count() as u64;
    spans.push((
        "wait",
        t_released,
        t_done,
        (outcomes.len() as u64 - unresolved) as f64,
    ));
    report.attempted += ctx.stream.len() as u64;
    if unresolved > 0 {
        report.fail(
            unresolved,
            format!("pass {id}: {unresolved} tickets unresolved after {WAIT_LIMIT:?}; service abandoned"),
        );
        std::mem::forget(svc);
        return None;
    }

    let t = Instant::now();
    let served = svc.shutdown();
    let t_end = Instant::now();
    spans.push(("shutdown", t, t_end, served.executed() as f64));
    if let Some(tracer) = tracer {
        let root = tracer.open("pass", id, None, t_new);
        for &(name, s, e, count) in &spans {
            tracer.record(name, id, root, s, e, &[("count", count)]);
        }
        tracer.close(
            root,
            t_end,
            &[(
                "epochs",
                served.shards.iter().map(|s| s.epochs).sum::<u64>() as f64,
            )],
        );
    }
    check_pass(ctx, &tickets, outcomes, &served, id, report);

    layers.host.add(before, after);
    count_layers(ctx.stream, &served, layers);
    if kind == PassKind::Hi {
        let lat = served.latency();
        let (min, mean, max) = (lat.min() as f64, lat.mean(), lat.max() as f64);
        layers
            .qos_spread
            .push(per((max - mean).max(mean - min), mean));
    }
    Some((setup_s, (t_done - t_submit).as_nanos() as u64, served))
}

/// Replays every executed outcome in admission-timestamp order against
/// the oracle, then checks the final contents, structure and phase rows.
fn check_pass(
    ctx: &PassCtx<'_>,
    tickets: &[Ticket],
    outcomes: Vec<Option<Outcome>>,
    served: &ServeReport,
    id: u64,
    report: &mut Report,
) {
    let mut replay = Vec::with_capacity(tickets.len());
    let mut got = Vec::with_capacity(tickets.len());
    let mut refused = 0u64;
    for ((req, ticket), outcome) in ctx.stream.iter().zip(tickets).zip(outcomes) {
        match (outcome, ticket.timestamp()) {
            (Some(Outcome::Done(resp)), Some(ts)) => {
                replay.push(Request { ts, ..*req });
                got.push(resp);
            }
            _ => refused += 1,
        }
    }
    if refused > 0 {
        report.fail(
            refused,
            format!("pass {id}: {refused} requests rejected, timed out or unstamped"),
        );
    }
    if ctx.corrupt {
        if let Some(first) = got.first_mut() {
            *first = Response::Range(Vec::new());
        }
    }
    let mut oracle = ctx.oracle0.clone();
    let want = oracle.run_batch(&Batch::new(replay));
    let wrong = want.iter().zip(&got).filter(|(w, g)| w != g).count() as u64;
    if wrong > 0 {
        report.fail(
            wrong,
            format!("pass {id}: {wrong} responses differ from the timestamp-order replay"),
        );
    }
    let contents = served.contents();
    let expect = oracle.contents();
    if contents.len() != expect.len()
        || contents
            .iter()
            .zip(expect)
            .any(|(&(k, v), (&ek, &ev))| (k, v) != (ek as u64, ev as u64))
    {
        report.fail(
            1,
            format!("pass {id}: final contents differ from the oracle"),
        );
    }
    if let Err(e) = served.structure() {
        report.fail(1, format!("pass {id}: {e}"));
    }
    for s in served
        .shards
        .iter()
        .filter(|s| !s.phase_rows_sum_to_totals())
    {
        report.fail(
            1,
            format!(
                "pass {id}: shard {} phase rows do not sum to the totals",
                s.shard
            ),
        );
    }
}

fn count_layers(stream: &[Request], served: &ServeReport, layers: &mut Layers) {
    let epochs: u64 = served.shards.iter().map(|s| s.epochs).sum();
    layers.rounds += 1;
    layers.requests += stream.len() as u64;
    layers.client_updates += stream.iter().filter(|r| r.op.is_update()).count() as u64;
    layers.batches += epochs;
    layers.epochs += epochs;
    layers.executed += served.executed();
    for s in &served.shards {
        layers.add_stats(&s.stats);
        layers.live_nodes += s.arena_live;
        layers.keys += s.key_count;
    }
    layers.max_queue_depth += served
        .shards
        .iter()
        .map(|s| s.max_queue_depth)
        .max()
        .unwrap_or(0);
    let clocks: Vec<f64> = served
        .shards
        .iter()
        .map(|s| s.clock_cycles as f64)
        .collect();
    let mean = clocks.iter().sum::<f64>() / clocks.len() as f64;
    layers.clock_imbalance += per(clocks.iter().copied().fold(0.0, f64::max), mean);
}

fn end_to_end(
    passes: &[Pass],
    requests: usize,
    setups: &[f64],
    device: &DeviceConfig,
) -> Vec<Metric> {
    let us = |cycles: f64| device.cycles_to_secs(cycles) * 1e6;
    let of = |kind: PassKind| passes.iter().filter(move |p| p.kind == kind && !p.traced);
    let med = |kind: Option<PassKind>, f: &dyn Fn(&Pass) -> f64| {
        median(
            &passes
                .iter()
                .filter(|p| !p.traced && kind.is_none_or(|k| p.kind == k))
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let n = passes.iter().filter(|p| !p.traced).count();
    let hi_n = of(PassKind::Hi).count();
    let lo_n = of(PassKind::Lo).count();
    let samples = format!("{requests} requests per pass");
    vec![
        Metric::new(
            "host_kreq_s",
            med(None, &|p| requests as f64 / (p.timed_ns as f64 / 1e9) / 1e3),
            "kreq/s",
            format!("median of {n} passes, {samples}"),
        ),
        Metric::new(
            "setup_s",
            median(setups),
            "s",
            format!("median of {} Service::new", setups.len()),
        ),
        Metric::maybe(
            "peak_rss_mb",
            host::peak_rss_kib().map(|k| k as f64 / 1024.0),
            "MB",
            "VmHWM at exit",
        ),
        Metric::new(
            "sim_mreq_s",
            med(Some(PassKind::Capacity), &|p| p.throughput / 1e6),
            "Mreq/s",
            format!(
                "median of {} capacity passes, {samples}",
                of(PassKind::Capacity).count()
            ),
        ),
        Metric::new(
            "sim_p50_us",
            med(Some(PassKind::Hi), &|p| {
                us(interp_quantile(&p.latency, 0.5))
            }),
            "us",
            format!("median of {hi_n} passes at hi, {samples}"),
        ),
        Metric::new(
            "sim_p99_us",
            med(Some(PassKind::Hi), &|p| {
                us(interp_quantile(&p.latency, 0.99))
            }),
            "us",
            format!("median of {hi_n} passes at hi, {samples}"),
        ),
        Metric::new(
            "sim_p50_us.lo",
            med(Some(PassKind::Lo), &|p| {
                us(interp_quantile(&p.latency, 0.5))
            }),
            "us",
            format!("median of {lo_n} passes at lo, {samples}"),
        ),
        Metric::new(
            "sim_p99_us.lo",
            med(Some(PassKind::Lo), &|p| {
                us(interp_quantile(&p.latency, 0.99))
            }),
            "us",
            format!("median of {lo_n} passes at lo, {samples}"),
        ),
    ]
}
