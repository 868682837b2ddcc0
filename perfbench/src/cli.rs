//! Command-line arguments.

use std::path::PathBuf;

/// The benchmark's workloads (see `WORKLOADS.md` for why each exists).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Batch API, 2^20-key tree, 95 % query / 5 % upsert, uniform keys.
    TreeRead,
    /// Batch API, 2^16-key tree, Zipf 0.99, 40 % upsert / 40 % delete.
    TreeChurn,
    /// Sharded service, 2 range shards, one submitter, three passes.
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::TreeRead, Workload::TreeChurn, Workload::ServeOpen];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TreeRead => "tree-read",
            Workload::TreeChurn => "tree-churn",
            Workload::ServeOpen => "serve-open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed arguments of one benchmark run.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: Workload,
    /// Seeds every generated input; the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures, in host seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics and the span file instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Shrinks every size to a few thousand keys (the self-tests use it).
    pub tiny: bool,
    /// Self-test hook: corrupts one response before it is checked, so the
    /// run must report a failure and exit non-zero.
    pub corrupt_response: bool,
    /// Where the traced run writes its span file: `out/` beside the
    /// benchmark's manifest, inside the checkout that built it.
    pub out_dir: PathBuf,
}

pub const USAGE: &str = "usage: eirene-perfbench --workload <tree-read|tree-churn|serve-open> \
--seed <n> --seconds <n> --trace <0|1> [--tiny] [--corrupt-response]";

pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut corrupt_response = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--tiny" => tiny = true,
            "--corrupt-response" => corrupt_response = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tiny,
        corrupt_response,
        out_dir: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_every_argument() {
        let a = parse(&strings(&[
            "--workload",
            "serve-open",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeOpen);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace && !a.tiny && !a.corrupt_response);
    }

    #[test]
    fn rejects_unknown_and_missing() {
        assert!(parse(&strings(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse(&strings(&["--workload", "tree-read", "--seconds", "1"])).is_err());
        assert!(parse(&strings(&[
            "--workload",
            "tree-read",
            "--seed",
            "1",
            "--seconds",
            "0"
        ]))
        .is_err());
    }
}
