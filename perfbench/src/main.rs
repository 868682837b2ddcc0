//! `eirene-perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Prints a table of every metric with its unit and sample count, then,
//! as the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. Exits non-zero when any check failed.

use eirene_perfbench::{cli, run};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match cli::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let report = run(&args);
    print!("{}", report.table());
    println!("{}", report.json_line());
    if !report.correct() {
        std::process::exit(1);
    }
}
