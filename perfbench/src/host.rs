//! Host CPU, context-switch and memory accounting, read from `/proc`
//! around each timed region (never inside it).
//!
//! Every reader returns `None` when `/proc` is missing or unparsable, so
//! the report can show the rows as unavailable instead of as zero.

use std::fs;
use std::time::{Duration, Instant};

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// fixes it at 100 on every architecture as part of its user ABI.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// Cumulative process counters at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostSample {
    /// User CPU of the whole process (all threads, live and exited).
    pub utime_ticks: u64,
    /// System CPU of the whole process.
    pub stime_ticks: u64,
    /// Voluntary plus non-voluntary context switches, summed over the
    /// process's live threads.
    pub ctx_switches: u64,
}

/// Reads the process counters, or `None` without a usable `/proc`.
pub fn sample() -> Option<HostSample> {
    let (utime_ticks, stime_ticks) = cpu_ticks(&fs::read_to_string("/proc/self/stat").ok()?)?;
    let mut ctx_switches = 0;
    for task in fs::read_dir("/proc/self/task").ok()? {
        // A thread can exit between listing and reading; skip it.
        let Ok(status) = fs::read_to_string(task.ok()?.path().join("status")) else {
            continue;
        };
        ctx_switches += status_field(&status, "voluntary_ctxt_switches:")?
            + status_field(&status, "nonvoluntary_ctxt_switches:")?;
    }
    Some(HostSample {
        utime_ticks,
        stime_ticks,
        ctx_switches,
    })
}

/// Waits until every thread whose name starts with `prefix` is asleep
/// and has used no CPU since the previous poll, or until `limit` passes.
/// Returns false on timeout, or at once without a usable `/proc`.
///
/// The service bulk-loads each shard's tree on that shard's executor
/// thread after `Service::new` returns; this is how the benchmark sees,
/// from outside, that the load has finished and the executor is parked.
pub fn wait_threads_idle(prefix: &str, limit: Duration) -> bool {
    let deadline = Instant::now() + limit;
    let mut last: Option<Vec<(bool, u64)>> = None;
    loop {
        let Some(now) = thread_states(prefix) else {
            return false;
        };
        if !now.is_empty() && now.iter().all(|&(asleep, _)| asleep) && last.as_ref() == Some(&now) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        last = Some(now);
        std::thread::sleep(Duration::from_micros(500));
    }
}

/// `(asleep, cpu ticks)` of each thread named `prefix*`, in task order.
fn thread_states(prefix: &str) -> Option<Vec<(bool, u64)>> {
    let mut out = Vec::new();
    let mut tasks: Vec<_> = fs::read_dir("/proc/self/task")
        .ok()?
        .filter_map(|t| t.ok())
        .collect();
    tasks.sort_by_key(|t| t.file_name());
    for task in tasks {
        let Ok(stat) = fs::read_to_string(task.path().join("stat")) else {
            continue;
        };
        let name = &stat[stat.find('(')? + 1..stat.rfind(')')?];
        if !name.starts_with(prefix) {
            continue;
        }
        let state = stat[stat.rfind(')')? + 1..].split_whitespace().next()?;
        let (u, s) = cpu_ticks(&stat)?;
        out.push((state == "S", u + s));
    }
    Some(out)
}

/// Peak resident set size (`VmHWM`) in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    status_field(&fs::read_to_string("/proc/self/status").ok()?, "VmHWM:")
}

/// `utime` and `stime` (fields 14 and 15) of a `/proc/<pid>/stat` line.
/// The command name (field 2) may hold spaces and parentheses, so fields
/// are counted from the last `)`.
fn cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The first number after `key` in a `/proc/<pid>/status` document.
fn status_field(status: &str, key: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Host usage accumulated over a set of timed regions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostUsage {
    pub user_s: f64,
    pub sys_s: f64,
    pub ctx_switches: u64,
    /// Set once any region could not be sampled.
    pub unavailable: bool,
}

impl HostUsage {
    /// Adds the usage between two samples taken around one timed region.
    pub fn add(&mut self, before: Option<HostSample>, after: Option<HostSample>) {
        match (before, after) {
            (Some(b), Some(a)) => {
                self.user_s +=
                    a.utime_ticks.saturating_sub(b.utime_ticks) as f64 / CLOCK_TICKS_PER_SEC;
                self.sys_s +=
                    a.stime_ticks.saturating_sub(b.stime_ticks) as f64 / CLOCK_TICKS_PER_SEC;
                self.ctx_switches += a.ctx_switches.saturating_sub(b.ctx_switches);
            }
            _ => self.unavailable = true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_awkward_command_name() {
        let stat = "4242 (my (odd) prog) R 1 2 3 4 5 6 7 8 9 10 111 222 13 14 15";
        assert_eq!(cpu_ticks(stat), Some((111, 222)));
    }

    #[test]
    fn parses_status_fields() {
        let status = "Name:\tx\nVmHWM:\t  12345 kB\nvoluntary_ctxt_switches:\t7\n";
        assert_eq!(status_field(status, "VmHWM:"), Some(12345));
        assert_eq!(status_field(status, "voluntary_ctxt_switches:"), Some(7));
        assert_eq!(status_field(status, "Missing:"), None);
    }

    #[test]
    fn missing_samples_mark_usage_unavailable() {
        let mut u = HostUsage::default();
        u.add(None, Some(HostSample::default()));
        assert!(u.unavailable);
        assert_eq!(u.user_s, 0.0);
    }

    #[test]
    fn sleeping_named_thread_is_seen_idle() {
        if !std::path::Path::new("/proc/self/task").exists() {
            return;
        }
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let parked = std::thread::Builder::new()
            .name("idle-probe-0".into())
            .spawn(move || rx.recv())
            .unwrap();
        assert!(wait_threads_idle("idle-probe-", Duration::from_secs(5)));
        assert!(!wait_threads_idle(
            "no-such-thread-",
            Duration::from_millis(5)
        ));
        tx.send(()).unwrap();
        parked.join().unwrap().unwrap();
    }

    #[test]
    fn live_process_is_readable() {
        if std::path::Path::new("/proc/self/stat").exists() {
            assert!(sample().is_some());
            assert!(peak_rss_kib().unwrap() > 0);
        }
    }
}
