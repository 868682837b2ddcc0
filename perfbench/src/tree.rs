//! `tree-read` and `tree-churn`: the batch API, `EireneTree::plan` then
//! `EireneTree::run_planned`, on a bulk-loaded tree.
//!
//! A run is a sequence of *rounds*. Each round builds a fresh tree from
//! the same initial pairs (timed as set-up), runs the same pre-generated
//! batches through it (the timed region: the two calls per batch and
//! nothing else), then a few light batches for the light-load latency
//! point. Every response is checked against the sequential oracle and
//! every batch's phase rows against its totals, outside the timed region.
//! Metrics are medians over rounds, so the device-clock numbers do not
//! depend on how many rounds the host managed.

use crate::host;
use crate::layers::Layers;
use crate::metrics::{interp_quantile, median, qos_spread, Metric, Report};
use crate::spans::Tracer;
use eirene_baselines::common::ConcurrentTree;
use eirene_btree::refops;
use eirene_btree::validate::validate;
use eirene_core::{EireneOptions, EireneTree};
use eirene_sim::{CycleHistogram, DeviceConfig, KernelStats};
use eirene_workloads::{
    Batch, Distribution, Mix, Oracle, Response, SequentialOracle, WorkloadGen, WorkloadSpec,
};
use std::time::Instant;

/// Set-ups timed on their own before the rounds, so `setup_s` is a median
/// over more builds than a run has rounds.
pub const EXTRA_SETUPS: usize = 8;

/// Sizes and mix of one tree workload.
#[derive(Clone, Debug)]
pub struct TreeShape {
    pub tree_exp: u32,
    pub mix: Mix,
    pub distribution: Distribution,
    /// Requests per timed batch, and timed batches per round.
    pub batch: usize,
    pub batches: usize,
    /// Requests per light batch, and light batches per round.
    pub light_batch: usize,
    pub light_batches: usize,
}

impl TreeShape {
    /// 2^20 keys, the paper's 95 % query / 5 % upsert default, uniform.
    pub fn read(tiny: bool) -> TreeShape {
        TreeShape {
            tree_exp: if tiny { 12 } else { 20 },
            mix: Mix::read_heavy(),
            distribution: Distribution::Uniform,
            ..TreeShape::sizes(tiny)
        }
    }

    /// 2^16 keys, Zipf 0.99, 40 % upsert / 40 % delete / 20 % query.
    pub fn churn(tiny: bool) -> TreeShape {
        TreeShape {
            tree_exp: if tiny { 10 } else { 16 },
            mix: Mix {
                upsert: 0.4,
                delete: 0.4,
                range: 0.0,
                range_len: 4,
            },
            distribution: Distribution::Zipfian { theta: 0.99 },
            ..TreeShape::sizes(tiny)
        }
    }

    fn sizes(tiny: bool) -> TreeShape {
        TreeShape {
            tree_exp: 0,
            mix: Mix::query_only(),
            distribution: Distribution::Uniform,
            batch: if tiny { 1 << 10 } else { 1 << 16 },
            batches: if tiny { 4 } else { 16 },
            light_batch: if tiny { 1 << 8 } else { 1 << 12 },
            light_batches: if tiny { 4 } else { 16 },
        }
    }
}

/// What one round measured.
#[derive(Default)]
struct Round {
    traced: bool,
    setup_s: f64,
    /// Host time inside `plan` + `run_planned`, per timed batch.
    batch_ns: Vec<u64>,
    requests: u64,
    makespan_cycles: f64,
    latency: CycleHistogram,
    batch_mean_cycles: Vec<f64>,
    light_latency: CycleHistogram,
}

/// Runs the workload for `seconds` and returns the end-to-end metrics
/// (untraced) or the per-layer metrics (traced).
pub fn run(
    shape: &TreeShape,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
    corrupt: bool,
) -> Report {
    let spec = WorkloadSpec {
        tree_size: 1 << shape.tree_exp,
        batch_size: shape.batch,
        mix: shape.mix,
        distribution: shape.distribution,
        seed,
    };
    let init = spec.initial_pairs();
    let pairs: Vec<(u64, u64)> = init.iter().map(|&(k, v)| (k as u64, v as u64)).collect();
    let oracle0 = SequentialOracle::load(&init);
    let mut gen = WorkloadGen::new(spec);
    let timed: Vec<Batch> = (0..shape.batches).map(|_| gen.next_batch()).collect();
    let light: Vec<Batch> = (0..shape.light_batches)
        .map(|_| Batch::new(gen.next_requests(shape.light_batch)))
        .collect();
    let device = DeviceConfig::default();

    let mut report = Report::default();
    let mut rounds: Vec<Round> = Vec::new();
    let (mut layers, mut scratch) = (Layers::default(), Layers::default());
    let traced_run = tracer.is_on();
    let mut setups: Vec<f64> = (0..EXTRA_SETUPS)
        .map(|_| {
            let t = Instant::now();
            let tree = EireneTree::new(&pairs, EireneOptions::default());
            let secs = t.elapsed().as_secs_f64();
            drop(tree);
            secs
        })
        .collect();
    let start = Instant::now();
    // A traced run alternates untraced and traced rounds, so host drift
    // hits both alike and their difference is the tracing overhead.
    while start.elapsed().as_secs_f64() < seconds || rounds.len() < if traced_run { 2 } else { 1 } {
        let traced = traced_run && rounds.len() % 2 == 1;
        let round_id = rounds.len() as u64;
        let mut round = Round {
            traced,
            ..Round::default()
        };
        // Per-layer counters come from the traced rounds only.
        let sink = if traced { &mut layers } else { &mut scratch };
        let mut oracle = oracle0.clone();

        let t0 = Instant::now();
        let mut tree = EireneTree::new(&pairs, EireneOptions::default());
        let t1 = Instant::now();
        round.setup_s = (t1 - t0).as_secs_f64();
        if traced {
            tracer.record(
                "EireneTree::new",
                round_id,
                None,
                t0,
                t1,
                &[("keys", pairs.len() as f64)],
            );
        }

        for (b, batch) in timed.iter().enumerate() {
            let id = round_id * shape.batches as u64 + b as u64;
            let (stats, mut responses, ns) =
                run_batch(&mut tree, batch, id, traced.then_some(&mut *tracer), sink);
            round.batch_ns.push(ns);
            if corrupt && round_id == 0 && b == 0 {
                responses[0] = Response::Range(Vec::new());
            }
            check_batch(
                &mut report,
                &mut oracle,
                batch,
                &responses,
                &stats,
                &format!("batch {id}"),
            );
            round.requests += batch.len() as u64;
            round.makespan_cycles += stats.makespan_cycles;
            round.latency.merge(&stats.totals.latency);
            round.batch_mean_cycles.push(stats.totals.latency.mean());
        }
        for (b, batch) in light.iter().enumerate() {
            let label = format!(
                "light batch {}",
                round_id * shape.light_batches as u64 + b as u64
            );
            let plan = tree.plan(batch);
            let run = tree.run_planned(batch, &plan);
            check_batch(
                &mut report,
                &mut oracle,
                batch,
                &run.responses,
                &run.stats,
                &label,
            );
            round.light_latency.merge(&run.stats.totals.latency);
        }
        report.attempted += (timed.iter().chain(&light))
            .map(|b| b.len() as u64)
            .sum::<u64>();

        match validate(tree.device().mem(), tree.handle()) {
            Ok(s) => {
                sink.live_nodes += tree.device().mem().slab_stats().live;
                sink.keys += s.keys as u64;
            }
            Err(e) => report.fail(1, format!("round {round_id}: tree structure: {e}")),
        }
        let got = refops::contents(tree.device().mem(), tree.handle());
        let want = oracle.contents();
        if got.len() != want.len()
            || got
                .iter()
                .zip(want)
                .any(|(&(k, v), (&wk, &wv))| (k, v) != (wk as u64, wv as u64))
        {
            report.fail(
                1,
                format!("round {round_id}: final contents differ from the oracle"),
            );
        }
        sink.rounds += 1;
        sink.requests += round.requests;
        sink.qos_spread.push(qos_spread(&round.batch_mean_cycles));
        rounds.push(round);
    }

    let (untraced, traced): (Vec<&Round>, Vec<&Round>) = rounds.iter().partition(|r| !r.traced);
    report.metrics = if traced_run {
        let overhead = median(&batch_ns_per_req(&traced, &timed))
            / median(&batch_ns_per_req(&untraced, &timed))
            - 1.0;
        layers.metrics(&tracer.self_ns(), overhead)
    } else {
        setups.extend(untraced.iter().map(|r| r.setup_s));
        // The §8.2 spread has no end-to-end bound (see WORKLOADS.md); it
        // prints for reading and is a per-layer row of the traced run.
        report.notes.push(Metric::new(
            "qos_spread",
            median(&scratch.qos_spread),
            "ratio",
            format!("median of {} rounds or passes", scratch.qos_spread.len()),
        ));
        end_to_end(&untraced, &timed, &setups, &device)
    };
    report
}

/// Host nanoseconds per request of every timed batch of the rounds.
fn batch_ns_per_req(rounds: &[&Round], batches: &[Batch]) -> Vec<f64> {
    rounds
        .iter()
        .flat_map(|r| {
            r.batch_ns
                .iter()
                .zip(batches)
                .map(|(&ns, b)| ns as f64 / b.len() as f64)
        })
        .collect()
}

/// Plans and executes one timed batch, reading the host counters around
/// (not inside) the two calls. Returns the stats, the responses and the
/// host nanoseconds of the two calls.
fn run_batch(
    tree: &mut EireneTree,
    batch: &Batch,
    id: u64,
    tracer: Option<&mut Tracer>,
    layers: &mut Layers,
) -> (KernelStats, Vec<Response>, u64) {
    let before = host::sample();
    let slab0 = tree.device().mem().slab_stats();
    let t0 = Instant::now();
    let plan = tree.plan(batch);
    let t1 = Instant::now();
    let run = tree.run_planned(batch, &plan);
    let t2 = Instant::now();
    let slab1 = tree.device().mem().slab_stats();
    let after = host::sample();

    layers.batches += 1;
    layers.point_requests += plan.point_sorted.len() as u64;
    layers.combined_away += plan.combined_away() as u64;
    layers.issued_updates += plan.issued_updates() as u64;
    layers.slab_reused += slab1.reused - slab0.reused;
    layers.slab_bump_allocs += slab1.bump_allocs - slab0.bump_allocs;
    layers.add_stats(&run.stats);
    layers.host.add(before, after);
    if let Some(tracer) = tracer {
        let root = tracer.open("batch", id, None, t0);
        tracer.record(
            "plan",
            id,
            root,
            t0,
            t1,
            &[
                ("requests", batch.len() as f64),
                ("issued", plan.issued.len() as f64),
                ("combined_away", plan.combined_away() as f64),
            ],
        );
        let t = &run.stats.totals;
        tracer.record(
            "run_planned",
            id,
            root,
            t1,
            t2,
            &[
                ("makespan_cycles", run.stats.makespan_cycles),
                ("stm_aborts", t.stm_aborts as f64),
                ("descents_saved", t.descents_saved as f64),
                ("pivot_cache_hits", t.pivot_cache_hits as f64),
                ("pivot_cache_rebuilds", t.pivot_cache_rebuilds as f64),
                ("slab_reused", (slab1.reused - slab0.reused) as f64),
            ],
        );
        tracer.close(root, t2, &[]);
    }
    (run.stats, run.responses, (t2 - t0).as_nanos() as u64)
}

/// Checks one batch's responses against the oracle and its phase rows
/// against its totals.
fn check_batch(
    report: &mut Report,
    oracle: &mut SequentialOracle,
    batch: &Batch,
    got: &[Response],
    stats: &KernelStats,
    label: &str,
) {
    let want = oracle.run_batch(batch);
    let wrong =
        want.iter().zip(got).filter(|(w, g)| w != g).count() + want.len().abs_diff(got.len());
    if wrong > 0 {
        report.fail(
            wrong as u64,
            format!("{label}: {wrong} responses differ from the oracle"),
        );
    }
    if !phase_rows_sum(stats) {
        report.fail(1, format!("{label}: phase rows do not sum to the totals"));
    }
}

/// Whether every phase-tracked counter's rows sum exactly to its total.
fn phase_rows_sum(stats: &KernelStats) -> bool {
    let s = stats.totals.phase_sums();
    let t = &stats.totals;
    (
        s.mem_insts,
        s.mem_words,
        s.mem_transactions,
        s.control_insts,
        s.atomic_insts,
    ) == (
        t.mem_insts,
        t.mem_words,
        t.mem_transactions,
        t.control_insts,
        t.atomic_insts,
    ) && (
        s.lock_conflicts,
        s.stm_aborts,
        s.version_conflicts,
        s.cycles,
    ) == (
        t.lock_conflicts,
        t.stm_aborts,
        t.version_conflicts,
        t.cycles,
    )
}

fn end_to_end(
    rounds: &[&Round],
    batches: &[Batch],
    setups: &[f64],
    device: &DeviceConfig,
) -> Vec<Metric> {
    let us = |cycles: f64| device.cycles_to_secs(cycles) * 1e6;
    let med = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>());
    let n = rounds.len();
    let hist_n = rounds.first().map_or(0, |r| r.latency.count());
    let light_n = rounds.first().map_or(0, |r| r.light_latency.count());
    let per_batch = batch_ns_per_req(rounds, batches);
    vec![
        Metric::new(
            "host_kreq_s",
            1e6 / median(&per_batch),
            "kreq/s",
            format!("median of {} batches over {n} rounds", per_batch.len()),
        ),
        Metric::new(
            "setup_s",
            median(setups),
            "s",
            format!("median of {} EireneTree::new", setups.len()),
        ),
        Metric::maybe(
            "peak_rss_mb",
            host::peak_rss_kib().map(|k| k as f64 / 1024.0),
            "MB",
            "VmHWM at exit",
        ),
        Metric::new(
            "sim_mreq_s",
            med(&|r| r.requests as f64 / device.cycles_to_secs(r.makespan_cycles) / 1e6),
            "Mreq/s",
            format!("median of {n} rounds, requests / sum of makespans"),
        ),
        Metric::new(
            "sim_p50_us",
            med(&|r| us(interp_quantile(&r.latency, 0.5))),
            "us",
            format!("median of {n} rounds of {hist_n} responses"),
        ),
        Metric::new(
            "sim_p99_us",
            med(&|r| us(interp_quantile(&r.latency, 0.99))),
            "us",
            format!("median of {n} rounds of {hist_n} responses"),
        ),
        Metric::new(
            "sim_p50_us.lo",
            med(&|r| us(interp_quantile(&r.light_latency, 0.5))),
            "us",
            format!("median of {n} rounds of {light_n} light-batch responses"),
        ),
        Metric::new(
            "sim_p99_us.lo",
            med(&|r| us(interp_quantile(&r.light_latency, 0.99))),
            "us",
            format!("median of {n} rounds of {light_n} light-batch responses"),
        ),
    ]
}
