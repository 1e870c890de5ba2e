//! What every workload shares: the command line, repeated set-up, the
//! closed-loop tally of timed items, the seeded check sample, the
//! report digest, and the result line.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::gen::{Deck, Item};
use crate::stats::summarize;

/// One benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measured duration.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag} {value}: expected {what}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad("a duration in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }

    /// The measured duration.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What a run reports.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: usize,
    /// Operations failed (panics, unexpected statuses, failed checks).
    pub failed: usize,
    /// Failed checks on output bytes or behaviour (a subset of
    /// `failed`); any makes the run incorrect.
    pub incorrect: usize,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.incorrect == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs `build` `reps` times, timing each, and keeps the last result.
/// Each earlier result is dropped before the next set-up starts, so no
/// two set-ups overlap in time or memory. Returns the median set-up
/// time in seconds with the kept result, and prints the peak resident
/// set reached by then, so a run shows whether set-up or the timed
/// phase sets `peak_rss_mb`.
pub fn repeat_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut kept = None;
    for _ in 0..reps.max(1) {
        drop(kept.take());
        let start = Instant::now();
        kept = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    let setup_s = crate::stats::median(&times);
    println!("setup_s runs: {}", fmt_list(&times, 4));
    println!("peak_rss_mb after set-up: {:.2}", peak_rss_mb());
    (setup_s, kept.expect("at least one set-up"))
}

/// The closed loop of a timed run: whole blocks from `deck`, one item
/// in flight, until `duration` has passed (at least one block). `each`
/// gets the item's index in the run, whether it is in the first block,
/// and the item. Returns the wall time in seconds.
pub fn closed_loop(
    deck: &mut Deck,
    duration: Duration,
    mut each: impl FnMut(usize, bool, Item),
) -> f64 {
    let start = Instant::now();
    let mut index = 0;
    loop {
        let first_block = index == 0;
        for item in deck.next_block() {
            each(index, first_block, item);
            index += 1;
        }
        if start.elapsed() >= duration {
            return start.elapsed().as_secs_f64();
        }
    }
}

/// A traced run's items in order, stopping once `duration` has passed
/// (always at least the first).
pub fn within(items: Vec<Item>, duration: Duration) -> impl Iterator<Item = Item> {
    let start = Instant::now();
    items
        .into_iter()
        .enumerate()
        .take_while(move |(i, _)| *i == 0 || start.elapsed() <= duration)
        .map(|(_, item)| item)
}

/// Runs `f`, turning a panic into `Err` with its message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// Failures printed in full before the rest are only counted.
const FAILURES_SHOWN: usize = 5;

/// The timed phase of one run: successful item latencies by class,
/// attempts, failures and wall time.
#[derive(Default)]
pub struct Tally {
    by_class: BTreeMap<&'static str, Vec<f64>>,
    /// Items attempted.
    pub attempted: usize,
    /// Items failed.
    pub failed: usize,
    /// Failed output checks.
    pub incorrect: usize,
    /// Timed wall time.
    pub wall_s: f64,
}

impl Tally {
    /// A successful item of `class` taking `ms`.
    pub fn ok(&mut self, class: &'static str, ms: f64) {
        self.attempted += 1;
        self.by_class.entry(class).or_default().push(ms);
    }

    /// A failed item (panic, error status, unexpected error).
    pub fn fail(&mut self, class: &'static str, why: &str) {
        self.attempted += 1;
        self.note_failure(class, why);
    }

    /// The failed checks of one item already counted as successful:
    /// any makes the item a failure (once) and the run incorrect.
    pub fn check(&mut self, class: &'static str, problems: &[String]) {
        if !problems.is_empty() {
            self.incorrect += 1;
            self.note_failure(class, &problems.join("; "));
        }
    }

    fn note_failure(&mut self, class: &'static str, why: &str) {
        self.failed += 1;
        if self.failed <= FAILURES_SHOWN {
            eprintln!("failed {class} item: {}", first_line(why));
        }
    }

    /// Prints the per-class summary and returns the end-to-end metrics.
    pub fn end_to_end(&self, setup_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        for (class, ms) in &self.by_class {
            let s = summarize(ms).expect("classes hold at least one item");
            println!(
                "class {class}: {} ok, p50 {:.3} ms, max {:.3} ms",
                s.n,
                s.p50,
                ms.iter().copied().fold(f64::MIN, f64::max)
            );
        }
        let all: Vec<f64> = self.by_class.values().flatten().copied().collect();
        let s = summarize(&all).unwrap_or(crate::stats::Summary {
            n: 0,
            p50: 0.0,
            tail: 0.0,
            tail_q: None,
        });
        match s.tail_q {
            Some(q) => println!(
                "item_tail_ms is p{q} of {} items ({} beyond it)",
                s.n,
                s.n - (q as usize * s.n).div_ceil(100)
            ),
            None => println!(
                "item_tail_ms is the maximum of {} items: too few for ten beyond any percentile",
                s.n
            ),
        }
        let class_of = |value: f64| {
            self.by_class
                .iter()
                .find(|(_, ms)| ms.contains(&value))
                .map_or("none", |(class, _)| *class)
        };
        println!(
            "item_p50_ms is a {} item, item_tail_ms a {} item",
            class_of(s.p50),
            class_of(s.tail)
        );
        println!(
            "attempted {}, failed {} ({} failed checks), wall {:.3} s",
            self.attempted, self.failed, self.incorrect, self.wall_s
        );
        vec![
            ("setup_s", setup_s, "s"),
            ("items_per_s", s.n as f64 / self.wall_s.max(1e-9), "1/s"),
            ("item_p50_ms", s.p50, "ms"),
            ("item_tail_ms", s.tail, "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]
    }
}

/// Whether item `index` belongs to the seeded check sample of a timed
/// run: the first item, then about one in `every`.
pub fn sampled(seed: u64, index: usize, every: u64) -> bool {
    let hash = fnv1a(
        fnv1a(FNV_OFFSET, &seed.to_le_bytes()),
        &(index as u64).to_le_bytes(),
    );
    index == 0 || hash.is_multiple_of(every)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash over `bytes`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// FNV-1a digest of report bytes in item order, printed so two
/// commits can be compared by eye.
pub struct Digest {
    hash: u64,
    reports: usize,
}

impl Default for Digest {
    fn default() -> Self {
        Digest {
            hash: FNV_OFFSET,
            reports: 0,
        }
    }
}

impl Digest {
    /// Folds one report in.
    pub fn add(&mut self, report: &str) {
        self.hash = fnv1a(self.hash, report.as_bytes());
        self.reports += 1;
    }

    /// Prints the digest line.
    pub fn print(&self, what: &str) {
        println!(
            "report digest ({what}, {} reports): {:016x}",
            self.reports, self.hash
        );
    }
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// the highest CPU of its current affinity mask. At width 1 with one
/// request in flight at most one thread is runnable at a time, so this
/// takes no parallelism away; it keeps the client, the server's event
/// loop and its worker from handing each request across CPUs, where
/// every hand-off lets an idle virtual CPU halt and wait to be
/// rescheduled by the host. Returns the CPU, or `None` when the mask
/// cannot be read or set (the run then continues unpinned).
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // The size of glibc's `cpu_set_t`: 1,024 CPUs.
    const WORDS: usize = 16;
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // and the kernel writes at most `size` bytes into it; pid 0 names
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly `size` bytes that the
    // kernel only reads; pid 0 names the calling thread.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

/// Pinning needs Linux; elsewhere the run continues unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn first_line(text: &str) -> &str {
    text.lines().next().unwrap_or_default()
}

fn fmt_list(values: &[f64], digits: usize) -> String {
    let cells: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
    format!("[{}]", cells.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_command_line_flags() {
        let args = parse(&[
            "--workload",
            "x",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]);
        assert_eq!(
            args,
            Ok(Args {
                workload: "x".into(),
                seed: 3,
                seconds: 10.0,
                trace: true
            })
        );
        assert!(parse(&["--workload", "x", "--seed", "3"]).is_err());
        assert!(parse(&["--workload", "x", "--seed", "-1", "--seconds", "1"]).is_err());
        assert!(parse(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let outcome = Outcome {
            attempted: 4,
            failed: 1,
            incorrect: 0,
            metrics: vec![("latency_ms", 1.25, "ms")],
        };
        assert_eq!(
            outcome.json(),
            "{\"correct\": true, \"attempted\": 4, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn a_wrong_output_fails_the_item_once_and_the_run() {
        let mut tally = Tally::default();
        tally.ok("a", 1.0);
        tally.ok("a", 1.0);
        tally.fail("a", "boom");
        tally.check("a", &["bytes differ".into(), "unsound row".into()]);
        tally.check("a", &[]);
        assert_eq!((tally.attempted, tally.failed, tally.incorrect), (3, 2, 1));
    }

    #[test]
    fn guarded_returns_the_panic_message() {
        assert_eq!(guarded(|| 3), Ok(3));
        assert_eq!(
            guarded(|| -> u8 { panic!("no feasible design") }),
            Err("no feasible design".into())
        );
    }
}
