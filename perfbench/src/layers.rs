//! Per-layer counters, accumulated from what the layers' public calls
//! return, and the per-layer metric rows built from them.
//!
//! Every workload reports every row. A row of a layer the workload does
//! not call reads 0 (the layer did no work there): the tree workloads
//! bypass `serve`, and `serve-open` reaches `plan`, `run_planned` and the
//! slab arena only inside the service, where the benchmark cannot time or
//! count them.

use crate::host::HostUsage;
use crate::metrics::{median, per, Metric};
use eirene_sim::{KernelStats, Phase};
use eirene_telemetry::PHASE_COUNT;
use std::collections::BTreeMap;

/// Counters summed over the traced rounds of a run.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Units of fixed work: tree rounds or service passes.
    pub rounds: u64,
    /// Tree batches, or service epochs.
    pub batches: u64,
    /// Client requests.
    pub requests: u64,
    /// Update requests submitted by the client.
    pub client_updates: u64,
    /// Point requests the combining plans saw (tree workloads).
    pub point_requests: u64,
    pub combined_away: u64,
    /// Requests the device executed after combining.
    pub issued: u64,
    /// Issued upserts and deletes (tree workloads).
    pub issued_updates: u64,
    /// Cycles per phase row, in [`Phase::ALL`] order.
    pub phase_cycles: [u64; PHASE_COUNT],
    pub cycles: u64,
    pub mem_insts: u64,
    pub mem_transactions: u64,
    pub stm_aborts: u64,
    pub version_conflicts: u64,
    pub descents_saved: u64,
    pub pivot_hits: u64,
    pub pivot_rebuilds: u64,
    pub slab_reused: u64,
    pub slab_bump_allocs: u64,
    /// Live node blocks and keys at the end of each round.
    pub live_nodes: u64,
    pub keys: u64,
    /// Service epochs, and the entries they executed (split range parts
    /// count apart).
    pub epochs: u64,
    pub executed: u64,
    /// Highest ingress-queue depth of any shard, summed over passes.
    pub max_queue_depth: u64,
    /// Max over mean shard clock, summed over passes.
    pub clock_imbalance: f64,
    /// Host CPU and context switches inside the timed regions.
    pub host: HostUsage,
    /// The paper's §8.2 QoS spread, one sample per round or pass.
    pub qos_spread: Vec<f64>,
}

impl Layers {
    /// Adds one kernel-stats block (a batch, or a shard's whole pass).
    pub fn add_stats(&mut self, stats: &KernelStats) {
        let t = &stats.totals;
        for (slot, (_, row)) in self.phase_cycles.iter_mut().zip(t.phases.iter()) {
            *slot += row.cycles;
        }
        self.cycles += t.cycles;
        self.issued += t.requests;
        self.mem_insts += t.mem_insts;
        self.mem_transactions += t.mem_transactions;
        self.stm_aborts += t.stm_aborts;
        self.version_conflicts += t.version_conflicts;
        self.descents_saved += t.descents_saved;
        self.pivot_hits += t.pivot_cache_hits;
        self.pivot_rebuilds += t.pivot_cache_rebuilds;
    }

    fn phase(&self, phase: Phase) -> f64 {
        let i = Phase::ALL
            .iter()
            .position(|&p| p == phase)
            .expect("phase is listed in ALL");
        per(self.phase_cycles[i] as f64, self.requests as f64)
    }

    /// The per-layer rows. `self_ns` is the tracer's self time per span
    /// name; `overhead_frac` the traced run's host cost over the untraced.
    pub fn metrics(
        &self,
        self_ns: &BTreeMap<&'static str, (u64, u64)>,
        overhead_frac: f64,
    ) -> Vec<Metric> {
        let own = |name: &str| self_ns.get(name).copied().unwrap_or((0, 0));
        let own_ms_per = |name: &str, den: u64| per(own(name).0 as f64 / 1e6, den as f64);
        let tree_batches = own("run_planned").1;
        let (req, batches, rounds) = (
            self.requests as f64,
            self.batches as f64,
            self.rounds as f64,
        );
        let per_req = format!("{} requests", self.requests);
        let per_batch = format!("{} batches or epochs", self.batches);
        let per_round = format!("{} rounds or passes", self.rounds);
        let host = |v: f64| (!self.host.unavailable).then_some(v);
        let cpu = self.host.user_s + self.host.sys_s;
        let mut rows = vec![
            // core::plan: combine/sort.
            Metric::new(
                "plan.host_ms",
                own_ms_per("plan", tree_batches),
                "ms",
                format!("{tree_batches} plan calls"),
            ),
            Metric::new(
                "plan.combined_away_frac",
                per(self.combined_away as f64, self.point_requests as f64),
                "ratio",
                format!("{} point requests", self.point_requests),
            ),
            Metric::new(
                "plan.issued_per_req",
                per(self.issued as f64, req),
                "ratio",
                per_req.clone(),
            ),
            Metric::new(
                "phase.combine_cycles_per_req",
                self.phase(Phase::Combine),
                "cycles/req",
                per_req.clone(),
            ),
            Metric::new(
                "phase.result_calc_cycles_per_req",
                self.phase(Phase::ResultCalc),
                "cycles/req",
                per_req.clone(),
            ),
            // core::{exec,pivot,locality}: run dispatch and descent.
            Metric::new(
                "exec.host_ms",
                own_ms_per("run_planned", tree_batches),
                "ms",
                format!("{tree_batches} run_planned calls"),
            ),
            Metric::new(
                "exec.descents_saved_frac",
                per(self.descents_saved as f64, self.issued as f64),
                "ratio",
                format!("{} issued requests", self.issued),
            ),
            Metric::new(
                "pivot.hits_per_batch",
                per(self.pivot_hits as f64, batches),
                "count",
                per_batch.clone(),
            ),
            Metric::new(
                "pivot.rebuilds_per_batch",
                per(self.pivot_rebuilds as f64, batches),
                "count",
                per_batch.clone(),
            ),
        ];
        for (name, phase) in [
            (
                "phase.vertical_traversal_cycles_per_req",
                Phase::VerticalTraversal,
            ),
            (
                "phase.horizontal_traversal_cycles_per_req",
                Phase::HorizontalTraversal,
            ),
            ("phase.run_dispatch_cycles_per_req", Phase::RunDispatch),
            ("phase.leaf_op_cycles_per_req", Phase::LeafOp),
            // stm: leaf synchronization.
            ("phase.stm_access_cycles_per_req", Phase::StmAccess),
            ("phase.stm_commit_cycles_per_req", Phase::StmCommit),
        ] {
            rows.push(Metric::new(
                name,
                self.phase(phase),
                "cycles/req",
                per_req.clone(),
            ));
        }
        // The service hides its plans, so on serve-open aborts are per
        // update the client submitted.
        let updates = if self.issued_updates > 0 {
            self.issued_updates
        } else {
            self.client_updates
        };
        rows.extend([
            Metric::new(
                "stm.aborts_per_issued_update",
                per(self.stm_aborts as f64, updates as f64),
                "ratio",
                format!("{updates} updates"),
            ),
            Metric::new(
                "stm.version_conflicts",
                per(self.version_conflicts as f64, rounds),
                "count",
                per_round.clone(),
            ),
            // btree: structure modification.
            Metric::new(
                "phase.structure_mod_cycles_per_req",
                self.phase(Phase::StructureMod),
                "cycles/req",
                per_req.clone(),
            ),
            Metric::new(
                "btree.live_nodes_per_key",
                per(self.live_nodes as f64, self.keys as f64),
                "nodes/key",
                per_round.clone(),
            ),
            // sim: device model, scheduler and slab arena, in host terms.
            Metric::maybe(
                "sim.user_s",
                host(per(self.host.user_s, rounds)),
                "s",
                per_round.clone(),
            ),
            Metric::maybe(
                "sim.sys_s",
                host(per(self.host.sys_s, rounds)),
                "s",
                per_round.clone(),
            ),
            Metric::maybe(
                "sim.sys_frac",
                host(per(self.host.sys_s, cpu)),
                "ratio",
                per_round.clone(),
            ),
            Metric::maybe(
                "sim.ctx_switches_per_batch",
                host(per(self.host.ctx_switches as f64, batches)),
                "count",
                per_batch.clone(),
            ),
            Metric::new(
                "sim.cycles_per_req",
                per(self.cycles as f64, req),
                "cycles/req",
                per_req.clone(),
            ),
            Metric::new(
                "sim.mem_insts_per_req",
                per(self.mem_insts as f64, req),
                "insts/req",
                per_req.clone(),
            ),
            Metric::new(
                "sim.mem_transactions_per_req",
                per(self.mem_transactions as f64, req),
                "txn/req",
                per_req.clone(),
            ),
            Metric::new(
                "slab.reused_per_batch",
                per(self.slab_reused as f64, batches),
                "count",
                per_batch.clone(),
            ),
            Metric::new(
                "slab.bump_allocs_per_batch",
                per(self.slab_bump_allocs as f64, batches),
                "count",
                per_batch.clone(),
            ),
            // serve: ingress, reorder, queue and epoch pipeline.
            Metric::new(
                "serve.submit_ns_per_req",
                per(own("submit_many_at").0 as f64, req),
                "ns/req",
                per_req.clone(),
            ),
            Metric::new(
                "serve.drain_ms",
                per(
                    (own("release").0 + own("wait").0) as f64 / 1e6,
                    own("release").1 as f64,
                ),
                "ms",
                format!("{} passes", own("release").1),
            ),
            Metric::new(
                "serve.shutdown_ms",
                per(own("shutdown").0 as f64 / 1e6, own("shutdown").1 as f64),
                "ms",
                format!("{} passes", own("shutdown").1),
            ),
            Metric::new(
                "serve.epochs",
                per(self.epochs as f64, rounds),
                "count",
                per_round.clone(),
            ),
            Metric::new(
                "serve.mean_epoch_size",
                per(self.executed as f64, self.epochs as f64),
                "count",
                format!("{} epochs", self.epochs),
            ),
            Metric::new(
                "phase.ingress_cycles_per_req",
                self.phase(Phase::Ingress),
                "cycles/req",
                per_req.clone(),
            ),
            Metric::new(
                "phase.queue_wait_cycles_per_req",
                self.phase(Phase::QueueWait),
                "cycles/req",
                per_req.clone(),
            ),
            Metric::new(
                "serve.max_queue_depth",
                per(self.max_queue_depth as f64, rounds),
                "count",
                per_round.clone(),
            ),
            Metric::new(
                "serve.shard_clock_imbalance",
                per(self.clock_imbalance, rounds),
                "ratio",
                per_round.clone(),
            ),
            // The remaining phase rows, so the rows sum to sim.cycles_per_req.
            Metric::new(
                "phase.lock_acquire_cycles_per_req",
                self.phase(Phase::LockAcquire),
                "cycles/req",
                per_req.clone(),
            ),
            Metric::new(
                "phase.other_cycles_per_req",
                self.phase(Phase::Other),
                "cycles/req",
                per_req,
            ),
            Metric::new(
                "qos_spread",
                median(&self.qos_spread),
                "ratio",
                format!("median of {} rounds or passes", self.qos_spread.len()),
            ),
            Metric::new("trace.overhead_frac", overhead_frac, "ratio", per_round),
        ]);
        rows
    }
}
