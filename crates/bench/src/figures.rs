//! One function per paper figure. Each prints the figure's series and
//! writes a CSV under the results directory.
//!
//! Figures are declarative about their sweeps: they build the full list
//! of [`Point`]s first (in the exact order the old serial loops visited
//! them), hand the list to [`measure_all`] — which fans the independent
//! (point, repeat) executions across `--jobs` host threads — and then
//! print and record the results strictly in point order. Output is
//! therefore identical for every `--jobs` value; only wall-clock changes.

use crate::harness::{
    default_mix, measure_all, spec_for, write_csv, Measurement, Point, Scale, TreeKind,
};
use eirene_workloads::Mix;

fn fmt_m(v: f64) -> String {
    format!("{:.1}", v / 1e6)
}

/// Prints whether a paper ordering holds; returns it.
fn check_ordering(what: &str, holds: bool) -> bool {
    if holds {
        println!("ordering ok: {what}");
    } else {
        println!("ORDERING VIOLATED: {what}");
    }
    holds
}

/// Fig. 1 — memory and control-flow instructions per request for the
/// motivation baselines (no-CC / STM / Lock), default workload. Returns
/// whether the paper's ordering holds: both counts STM > Lock > no-CC.
pub fn fig1(scale: &Scale) -> bool {
    crate::metrics::set_context("fig1");
    println!("== Figure 1: profiling of STM GB-tree and Lock GB-tree ==");
    println!("{:<34}{:>14}{:>14}", "tree", "memory_inst", "control_inst");
    let spec = spec_for(scale.default_exp, scale.batch_size, default_mix(), 1);
    let points: Vec<Point> = [TreeKind::NoCc, TreeKind::Stm, TreeKind::Lock]
        .into_iter()
        .map(|kind| Point::new(kind, spec.clone(), scale.repeats))
        .collect();
    let ms = measure_all(&points);
    let mut rows = Vec::new();
    let mut base: Option<&Measurement> = None;
    for m in &ms {
        println!(
            "{:<34}{:>14.1}{:>14.1}",
            m.tree.label(),
            m.mem_insts,
            m.control_insts
        );
        rows.push(format!(
            "{},{:.2},{:.2}",
            m.tree.label(),
            m.mem_insts,
            m.control_insts
        ));
        if m.tree == TreeKind::NoCc {
            base = Some(m);
        } else if let Some(b) = base {
            println!(
                "{:<34}{:>13.2}x{:>13.2}x",
                "  (vs no-CC)",
                m.mem_insts / b.mem_insts,
                m.control_insts / b.control_insts
            );
        }
    }
    write_csv("fig1", "tree,mem_inst_per_req,control_inst_per_req", &rows);
    let (nocc, stm, lock) = (&ms[0], &ms[1], &ms[2]);
    let mem = check_ordering(
        "memory_inst STM > Lock > no-CC",
        stm.mem_insts > lock.mem_insts && lock.mem_insts > nocc.mem_insts,
    );
    let ctrl = check_ordering(
        "control_inst STM > Lock > no-CC",
        stm.control_insts > lock.control_insts && lock.control_insts > nocc.control_insts,
    );
    mem && ctrl
}

/// Fig. 2 — normalized time per request with max/min whiskers for the two
/// baselines and Eirene (normalized to the STM GB-tree average).
pub fn fig2(scale: &Scale) {
    crate::metrics::set_context("fig2");
    println!("== Figure 2: normalized time per request ==");
    println!(
        "{:<18}{:>10}{:>10}{:>10}{:>12}",
        "tree", "avg", "min", "max", "variance"
    );
    let spec = spec_for(scale.default_exp, scale.batch_size, default_mix(), 2);
    let repeats = scale.repeats.max(5);
    let points: Vec<Point> = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene]
        .into_iter()
        .map(|kind| Point::new(kind, spec.clone(), repeats))
        .collect();
    let ms = measure_all(&points);
    let norm = ms[0].avg_ns;
    let mut rows = Vec::new();
    for m in &ms {
        println!(
            "{:<18}{:>10.3}{:>10.3}{:>10.3}{:>11.1}%",
            m.tree.label(),
            m.avg_ns / norm,
            m.min_ns / norm,
            m.max_ns / norm,
            m.response_variance() * 100.0
        );
        rows.push(format!(
            "{},{:.4},{:.4},{:.4},{:.4}",
            m.tree.label(),
            m.avg_ns / norm,
            m.min_ns / norm,
            m.max_ns / norm,
            m.response_variance()
        ));
    }
    write_csv("fig2", "tree,norm_avg,norm_min,norm_max,variance", &rows);
}

/// Fig. 7 — overall throughput (Mreq/s) across tree sizes.
pub fn fig7(scale: &Scale) {
    crate::metrics::set_context("fig7");
    println!("== Figure 7: overall performance (throughput, Mreq/s) ==");
    print!("{:<18}", "tree \\ log2(size)");
    for e in &scale.tree_exps {
        print!("{e:>10}");
    }
    println!();
    let kinds = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene];
    let mut points = Vec::new();
    for kind in kinds {
        for &e in &scale.tree_exps {
            let spec = spec_for(e, scale.batch_size, default_mix(), 7);
            points.push(Point::new(kind, spec, scale.repeats));
        }
    }
    let ms = measure_all(&points);
    let mut rows = Vec::new();
    let mut eirene_vs = (0.0f64, 0.0f64); // (stm speedup, lock speedup) at default exp
    let mut stm_tput = 0.0;
    let mut lock_tput = 0.0;
    for (ki, kind) in kinds.into_iter().enumerate() {
        print!("{:<18}", kind.label());
        for (ei, &e) in scale.tree_exps.iter().enumerate() {
            let m = &ms[ki * scale.tree_exps.len() + ei];
            print!("{:>10}", fmt_m(m.throughput));
            rows.push(format!("{},{e},{:.0}", kind.label(), m.throughput));
            if e == scale.default_exp {
                match kind {
                    TreeKind::Stm => stm_tput = m.throughput,
                    TreeKind::Lock => lock_tput = m.throughput,
                    TreeKind::Eirene => {
                        eirene_vs = (m.throughput / stm_tput, m.throughput / lock_tput)
                    }
                    _ => {}
                }
            }
        }
        println!();
    }
    println!(
        "Eirene speedup at 2^{}: {:.2}x vs STM GB-tree, {:.2}x vs Lock GB-tree",
        scale.default_exp, eirene_vs.0, eirene_vs.1
    );
    write_csv("fig7", "tree,log2_size,throughput_req_s", &rows);
}

/// Fig. 8 — absolute time per request (avg with min/max whiskers).
pub fn fig8(scale: &Scale) {
    crate::metrics::set_context("fig8");
    println!("== Figure 8: time per request (ns) ==");
    println!(
        "{:<18}{:>10}{:>10}{:>10}{:>12}",
        "tree", "avg ns", "min ns", "max ns", "variance"
    );
    let spec = spec_for(scale.default_exp, scale.batch_size, default_mix(), 8);
    let repeats = scale.repeats.max(5);
    let points: Vec<Point> = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene]
        .into_iter()
        .map(|kind| Point::new(kind, spec.clone(), repeats))
        .collect();
    let ms = measure_all(&points);
    let mut rows = Vec::new();
    for m in &ms {
        println!(
            "{:<18}{:>10.2}{:>10.2}{:>10.2}{:>11.1}%",
            m.tree.label(),
            m.avg_ns,
            m.min_ns,
            m.max_ns,
            m.response_variance() * 100.0
        );
        rows.push(format!(
            "{},{:.3},{:.3},{:.3},{:.4}",
            m.tree.label(),
            m.avg_ns,
            m.min_ns,
            m.max_ns,
            m.response_variance()
        ));
    }
    write_csv("fig8", "tree,avg_ns,min_ns,max_ns,variance", &rows);
}

/// Fig. 9 — Eirene's memory/control instructions per request, normalized
/// to each baseline. Returns whether Eirene's mem/req is below both
/// baselines'.
pub fn fig9(scale: &Scale) -> bool {
    crate::metrics::set_context("fig9");
    println!("== Figure 9: metrics profiling of Eirene (normalized) ==");
    let spec = spec_for(scale.default_exp, scale.batch_size, default_mix(), 9);
    let points: Vec<Point> = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene]
        .into_iter()
        .map(|kind| Point::new(kind, spec.clone(), scale.repeats))
        .collect();
    let ms = measure_all(&points);
    println!(
        "{:<18}{:>14}{:>14}{:>14}",
        "tree", "mem/req", "ctrl/req", "conflicts/req"
    );
    let mut rows = Vec::new();
    for m in &ms {
        println!(
            "{:<18}{:>14.2}{:>14.2}{:>14.4}",
            m.tree.label(),
            m.mem_insts,
            m.control_insts,
            m.conflicts
        );
        rows.push(format!(
            "{},{:.3},{:.3},{:.5}",
            m.tree.label(),
            m.mem_insts,
            m.control_insts,
            m.conflicts
        ));
    }
    let (stm, lock, eir) = (&ms[0], &ms[1], &ms[2]);
    println!(
        "Eirene vs STM GB-tree:  mem {:.1}%, control {:.1}%, conflicts {:.1}%",
        100.0 * eir.mem_insts / stm.mem_insts,
        100.0 * eir.control_insts / stm.control_insts,
        100.0 * eir.conflicts / stm.conflicts.max(1e-12)
    );
    println!(
        "Eirene vs Lock GB-tree: mem {:.1}%, control {:.1}%",
        100.0 * eir.mem_insts / lock.mem_insts,
        100.0 * eir.control_insts / lock.control_insts
    );
    write_csv(
        "fig9",
        "tree,mem_per_req,ctrl_per_req,conflicts_per_req",
        &rows,
    );
    check_ordering(
        "Eirene mem/req below STM and Lock",
        eir.mem_insts < stm.mem_insts && eir.mem_insts < lock.mem_insts,
    )
}

/// Fig. 10 — normalized average traversal steps across tree sizes.
pub fn fig10(scale: &Scale) {
    crate::metrics::set_context("fig10");
    println!("== Figure 10: traversal steps (normalized to STM GB-tree) ==");
    print!("{:<18}", "tree \\ log2(size)");
    for e in &scale.tree_exps {
        print!("{e:>10}");
    }
    println!();
    let kinds = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene];
    let mut points = Vec::new();
    for kind in kinds {
        for &e in &scale.tree_exps {
            let spec = spec_for(e, scale.batch_size, default_mix(), 10);
            points.push(Point::new(kind, spec, scale.repeats));
        }
    }
    let ms = measure_all(&points);
    let mut rows = Vec::new();
    let stm_steps: Vec<f64> = ms[..scale.tree_exps.len()]
        .iter()
        .map(|m| m.steps)
        .collect();
    for (ki, kind) in kinds.into_iter().enumerate() {
        print!("{:<18}", kind.label());
        for (i, &e) in scale.tree_exps.iter().enumerate() {
            let m = &ms[ki * scale.tree_exps.len() + i];
            let norm = m.steps / stm_steps[i];
            print!("{norm:>10.2}");
            rows.push(format!("{},{e},{:.3},{:.3}", kind.label(), m.steps, norm));
        }
        println!();
    }
    write_csv(
        "fig10",
        "tree,log2_size,steps_per_traversal,normalized",
        &rows,
    );
}

/// Fig. 11 — design-choice ablation: STM GB-tree vs "+ Combining" vs full
/// Eirene across tree sizes (throughput, Mreq/s).
pub fn fig11(scale: &Scale) {
    crate::metrics::set_context("fig11");
    println!("== Figure 11: different design choices (throughput, Mreq/s) ==");
    print!("{:<18}", "config \\ log2(size)");
    for e in &scale.tree_exps {
        print!("{e:>10}");
    }
    println!();
    let kinds = [TreeKind::Stm, TreeKind::EireneCombining, TreeKind::Eirene];
    let mut points = Vec::new();
    for kind in kinds {
        for &e in &scale.tree_exps {
            let spec = spec_for(e, scale.batch_size, default_mix(), 11);
            points.push(Point::new(kind, spec, scale.repeats));
        }
    }
    let ms = measure_all(&points);
    let mut rows = Vec::new();
    let mut at_default = Vec::new();
    for (ki, kind) in kinds.into_iter().enumerate() {
        print!("{:<18}", kind.label());
        for (ei, &e) in scale.tree_exps.iter().enumerate() {
            let m = &ms[ki * scale.tree_exps.len() + ei];
            print!("{:>10}", fmt_m(m.throughput));
            rows.push(format!("{},{e},{:.0}", kind.label(), m.throughput));
            if e == scale.default_exp {
                at_default.push((kind, m.throughput));
            }
        }
        println!();
    }
    let stm = at_default[0].1;
    for &(kind, tput) in &at_default[1..] {
        println!(
            "{}: {:.2}x speedup vs STM GB-tree at 2^{}",
            kind.label(),
            tput / stm,
            scale.default_exp
        );
    }
    write_csv("fig11", "config,log2_size,throughput_req_s", &rows);
}

/// Fig. 12 — contribution of combining vs locality to the reduction of
/// conflicts, memory accesses, and control instructions.
pub fn fig12(scale: &Scale) {
    crate::metrics::set_context("fig12");
    println!("== Figure 12: contribution of the optimizations ==");
    let spec = spec_for(scale.default_exp, scale.batch_size, default_mix(), 12);
    let points: Vec<Point> = [TreeKind::Stm, TreeKind::EireneCombining, TreeKind::Eirene]
        .into_iter()
        .map(|kind| Point::new(kind, spec.clone(), scale.repeats))
        .collect();
    let ms = measure_all(&points);
    let (stm, comb, eir) = (&ms[0], &ms[1], &ms[2]);
    println!(
        "{:<14}{:>14}{:>14}{:>14}",
        "metric", "combining %", "locality %", "total reduction %"
    );
    let mut rows = Vec::new();
    for (name, s, c, e) in [
        ("conflicts", stm.conflicts, comb.conflicts, eir.conflicts),
        ("memory_inst", stm.mem_insts, comb.mem_insts, eir.mem_insts),
        (
            "control_inst",
            stm.control_insts,
            comb.control_insts,
            eir.control_insts,
        ),
    ] {
        let total_red = s - e;
        let comb_share = if total_red.abs() < 1e-12 {
            0.0
        } else {
            (s - c) / total_red * 100.0
        };
        let loc_share = if total_red.abs() < 1e-12 {
            0.0
        } else {
            (c - e) / total_red * 100.0
        };
        let total_pct = if s.abs() < 1e-12 {
            0.0
        } else {
            total_red / s * 100.0
        };
        println!("{name:<14}{comb_share:>13.1}%{loc_share:>13.1}%{total_pct:>13.1}%");
        rows.push(format!(
            "{name},{comb_share:.2},{loc_share:.2},{total_pct:.2}"
        ));
    }
    write_csv(
        "fig12",
        "metric,combining_share_pct,locality_share_pct,total_reduction_pct",
        &rows,
    );
}

/// Fig. 13 — pure range-query throughput for lengths 4 and 8 across tree
/// sizes (Mreq/s).
pub fn fig13(scale: &Scale) {
    crate::metrics::set_context("fig13");
    println!("== Figure 13: range query throughput (Mreq/s) ==");
    let lens = [4u32, 8];
    let kinds = [TreeKind::Stm, TreeKind::Lock, TreeKind::Eirene];
    let repeats = scale.repeats.min(3);
    let mut points = Vec::new();
    for len in lens {
        for kind in kinds {
            for &e in &scale.tree_exps {
                let spec = spec_for(e, scale.batch_size, Mix::range_only(len), 13 + len as u64);
                points.push(Point::new(kind, spec, repeats));
            }
        }
    }
    let ms = measure_all(&points);
    let mut rows = Vec::new();
    for (li, len) in lens.into_iter().enumerate() {
        println!("-- range_length_{len} --");
        print!("{:<18}", "tree \\ log2(size)");
        for e in &scale.tree_exps {
            print!("{e:>10}");
        }
        println!();
        for (ki, kind) in kinds.into_iter().enumerate() {
            print!("{:<18}", kind.label());
            for (ei, &e) in scale.tree_exps.iter().enumerate() {
                let m = &ms[(li * kinds.len() + ki) * scale.tree_exps.len() + ei];
                print!("{:>10}", fmt_m(m.throughput));
                rows.push(format!("{},{len},{e},{:.0}", kind.label(), m.throughput));
            }
            println!();
        }
    }
    write_csv("fig13", "tree,range_len,log2_size,throughput_req_s", &rows);
}

/// Runs every figure; returns whether every gated ordering held.
pub fn all(scale: &Scale) -> bool {
    let fig1_ok = fig1(scale);
    println!();
    fig2(scale);
    println!();
    fig7(scale);
    println!();
    fig8(scale);
    println!();
    let fig9_ok = fig9(scale);
    println!();
    fig10(scale);
    println!();
    fig11(scale);
    println!();
    fig12(scale);
    println!();
    fig13(scale);
    fig1_ok && fig9_ok
}
