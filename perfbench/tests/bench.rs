//! The benchmark's own checks, at the tiny scale.

use eirene_perfbench::cli::{Args, Workload};
use eirene_perfbench::metrics::Report;
use eirene_perfbench::run;
use eirene_telemetry::JsonValue;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

fn tiny(workload: Workload, trace: bool) -> Args {
    Args {
        workload,
        seed: 7,
        // Shorter than one round: every run makes its minimum of rounds.
        seconds: 0.01,
        trace,
        tiny: true,
        corrupt_response: false,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("spans-{}", workload.name())),
    }
}

fn sim_metrics(report: &Report) -> Vec<(&'static str, f64)> {
    report
        .metrics
        .iter()
        .filter(|m| m.name.starts_with("sim_"))
        .map(|m| (m.name, m.value.expect("device metrics are always measured")))
        .collect()
}

fn benchmark_json() -> JsonValue {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn declared(doc: &JsonValue, section: &str) -> BTreeSet<String> {
    doc.get(section)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn tiny_runs_repeat_device_metrics() {
    for workload in [Workload::TreeRead, Workload::ServeOpen] {
        let a = run(&tiny(workload, false));
        let b = run(&tiny(workload, false));
        assert!(
            a.correct() && b.correct(),
            "{}: {:?} {:?}",
            workload.name(),
            a.failures,
            b.failures
        );
        let (sa, sb) = (sim_metrics(&a), sim_metrics(&b));
        assert_eq!(sa.len(), 5, "{}: {sa:?}", workload.name());
        assert_eq!(sa, sb, "{}", workload.name());
    }
}

#[test]
fn printed_metric_names_equal_benchmark_json() {
    let doc = benchmark_json();
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(&doc, section);
        for workload in Workload::ALL {
            let report = run(&tiny(workload, trace));
            assert!(
                report.correct(),
                "{}: {:?}",
                workload.name(),
                report.failures
            );
            let line = JsonValue::parse(&report.json_line()).expect("result line is JSON");
            let JsonValue::Obj(metrics) = line.get("metrics").expect("metrics") else {
                panic!("metrics is an object");
            };
            let got: BTreeSet<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            assert_eq!(got, want, "{} trace={trace}", workload.name());
            for name in &got {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
            }
        }
    }
}

#[test]
fn per_layer_phase_rows_sum_to_cycles() {
    for workload in Workload::ALL {
        let report = run(&tiny(workload, true));
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.name == name)
                .and_then(|m| m.value)
                .unwrap_or_else(|| panic!("{name}"))
        };
        let rows: f64 = report
            .metrics
            .iter()
            .filter(|m| m.name.starts_with("phase."))
            .filter_map(|m| m.value)
            .sum();
        let total = value("sim.cycles_per_req");
        assert!(total > 0.0);
        assert!(
            (rows - total).abs() <= 1e-9 * total,
            "{}: {rows} vs {total}",
            workload.name()
        );
    }
}

#[test]
fn corrupted_response_fails_the_run_and_the_command() {
    for workload in [Workload::TreeRead, Workload::ServeOpen] {
        let report = run(&Args {
            corrupt_response: true,
            ..tiny(workload, false)
        });
        assert!(
            report.failed > 0 && report.failed_frac() > 0.0,
            "{}",
            workload.name()
        );
        assert!(!report.correct());

        let out = Command::new(env!("CARGO_BIN_EXE_eirene-perfbench"))
            .args([
                "--workload",
                workload.name(),
                "--seed",
                "7",
                "--seconds",
                "0.01",
                "--trace",
                "0",
            ])
            .args(["--tiny", "--corrupt-response"])
            .output()
            .expect("run the benchmark");
        assert!(!out.status.success(), "{}", workload.name());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let last = JsonValue::parse(stdout.lines().last().expect("a result line")).unwrap();
        assert_eq!(last.get("correct"), Some(&JsonValue::Bool(false)));
        assert!(last.get("failed").and_then(JsonValue::as_u64).unwrap() > 0);
    }
}

#[test]
fn traced_run_writes_its_spans() {
    let args = Args {
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("spans-written"),
        ..tiny(Workload::TreeChurn, true)
    };
    let report = run(&args);
    assert!(report.correct(), "{:?}", report.failures);
    let path = args.out_dir.join("trace-tree-churn-seed7.json");
    let doc = JsonValue::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let names: BTreeSet<&str> = doc
        .get("traceEvents")
        .and_then(JsonValue::as_arr)
        .unwrap()
        .iter()
        .filter_map(|e| e.get("name").and_then(JsonValue::as_str))
        .collect();
    for span in ["EireneTree::new", "batch", "plan", "run_planned"] {
        assert!(names.contains(span), "{span} missing from {names:?}");
    }
    let _ = std::fs::remove_dir_all(&args.out_dir);
}
