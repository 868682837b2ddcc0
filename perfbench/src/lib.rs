//! Eirene's end-to-end and per-layer benchmark.
//!
//! Drives Eirene through its two public entry points, the batch API
//! (`EireneTree::plan` + `run_planned`) and the sharded service
//! (`Service` / `Client::submit_many_at` / `Ticket`), with every program
//! setting at its default. It reports end-to-end metrics in two clocks,
//! simulated device cycles and host wall time, and, in a separate traced
//! run, per-layer metrics measured from outside: host time of each call
//! into a layer and the counters that call returns. See `WORKLOADS.md`.

pub mod cli;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod serve;
pub mod spans;
pub mod tree;

use cli::{Args, Workload};
use metrics::Report;
use spans::Tracer;

/// Runs one benchmark invocation. A traced run also writes its spans to
/// `args.out_dir`.
pub fn run(args: &Args) -> Report {
    let mut tracer = Tracer::new(args.trace);
    let mut report = match args.workload {
        Workload::TreeRead => tree::run(
            &tree::TreeShape::read(args.tiny),
            args.seed,
            args.seconds,
            &mut tracer,
            args.corrupt_response,
        ),
        Workload::TreeChurn => tree::run(
            &tree::TreeShape::churn(args.tiny),
            args.seed,
            args.seconds,
            &mut tracer,
            args.corrupt_response,
        ),
        Workload::ServeOpen => serve::run(
            &serve::ServeShape::open(args.tiny),
            args.seed,
            args.seconds,
            &mut tracer,
            args.corrupt_response,
        ),
    };
    if args.trace {
        let path = args.out_dir.join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        match tracer.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => report.fail(1, format!("writing {}: {e}", path.display())),
        }
    }
    report
}
