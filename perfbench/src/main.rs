//! perfbench — the end-to-end benchmark of the bsmp workspace.
//!
//! ```text
//! perfbench --workload <cold_recursion|stage_kernels|serve_warm|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! Each run builds its inputs from `--seed`, measures for about
//! `--seconds`, checks every job's outputs after the timed window, prints
//! a table and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.  `--trace 0` reports
//! the end-to-end metrics; `--trace 1` is the separate traced run that
//! reports the per-layer metrics.  `--bless` rewrites `golden.json` from
//! the run's model statistics.  See README.md.

mod direct;
mod golden;
mod layers;
mod serve;
mod spans;
mod stats;

use std::cell::RefCell;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use bsmp::faults::rng::splitmix64;
use bsmp::{CacheStats, Word};

use golden::{Golden, ModelStats};
use spans::Spans;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["cold_recursion", "stage_kernels", "serve_warm"];

/// Set-up passes per untraced run, each followed by a timed segment, so
/// set-up samples are spread across the run.
const SEGMENTS: usize = 5;

/// The tail percentile of each workload's job latency (basis points).
/// A 15-second run reaches at least one slice of `stats::min_samples`
/// jobs at it (see [`Outcome::tail`]), so ten samples lie beyond it.
pub fn tail_bp(workload: &str) -> u32 {
    match workload {
        "cold_recursion" => 8000,
        "stage_kernels" => 9700,
        _ => 9900,
    }
}

/// How a run splits its window.
#[derive(Clone, Copy, Debug)]
pub struct Segments {
    pub count: usize,
    pub length: Duration,
}

/// A stretch of timed work, for throughput: a round of the direct
/// workloads, a run of consecutive `serve_warm` completions.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub jobs: u64,
    /// Guest dag points of those jobs.
    pub points: u64,
    /// Host seconds the stretch took.
    pub secs: f64,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Duration of each set-up pass (s).
    pub setup_s: Vec<f64>,
    /// Latency of each timed job (ms), in completion order.
    pub job_ms: Vec<f64>,
    pub slices: Vec<Slice>,
    /// Minor page faults during the timed segments.
    pub minflt: u64,
    /// Plan-cache counters over the last timed segment.
    pub cache: Option<CacheStats>,
}

impl Outcome {
    /// Median over slices of `per(slice) / slice.secs`.
    fn rate(&self, per: impl Fn(&Slice) -> u64) -> f64 {
        let r: Vec<f64> = self.slices.iter().map(|s| per(s) as f64 / s.secs).collect();
        stats::median(&r)
    }

    /// The tail percentile `bp`: the median over consecutive slices of
    /// the latency samples, each just large enough to keep ten samples
    /// beyond the percentile (one slice when the run has fewer).
    fn tail(&self, bp: u32) -> stats::Tail {
        let chunk = stats::min_samples(bp);
        let n = self.job_ms.len();
        let slices = (n / chunk).max(1);
        let tails: Vec<stats::Tail> = (0..slices)
            .map(|i| {
                let hi = if i + 1 == slices { n } else { (i + 1) * chunk };
                stats::tail(&self.job_ms[i * chunk..hi], bp)
            })
            .collect();
        let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
        stats::Tail {
            value: stats::median(&values),
            beyond: tails.iter().map(|t| t.beyond).min().unwrap_or(0),
        }
    }
}

/// Output checks: every job counts as one attempt and fails at most once.
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
    golden: Golden,
    /// `--bless`: records collected from this run instead of checked.
    blessed: Option<RefCell<Golden>>,
}

impl Checker {
    fn new(golden: Golden, bless: bool) -> Self {
        Checker {
            attempted: 0,
            failed: 0,
            messages: Vec::new(),
            golden,
            blessed: bless.then(|| RefCell::new(Golden::default())),
        }
    }

    /// Count a check failure that is not tied to one job.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.note(msg);
    }

    fn note(&mut self, msg: String) {
        if self.messages.len() < 20 {
            self.messages.push(msg);
        }
    }

    /// Count one job, failed when it has problems.
    pub fn job(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                self.note(p);
            }
        }
    }

    /// Check `stats` against the golden record (or, when blessing,
    /// record them, insisting every job of a shape agrees).
    pub fn golden_check(&self, key: &str, stats: &ModelStats) -> Result<(), String> {
        match &self.blessed {
            None => self.golden.check(key, stats),
            Some(b) => {
                let mut b = b.borrow_mut();
                match b.get(key) {
                    Some(prev) if prev != stats => Err(format!(
                        "seed-dependent model stats: {}",
                        b.check(key, stats).unwrap_err()
                    )),
                    Some(_) => Ok(()),
                    None => {
                        b.set(key, stats.clone());
                        Ok(())
                    }
                }
            }
        }
    }
}

/// Mix words into a seed.
pub fn mix(words: &[u64]) -> u64 {
    words
        .iter()
        .fold(0x243f_6a88_85a3_08d3, |h, &w| splitmix64(h ^ w))
}

/// A fast word-wise fingerprint of a word array.
pub fn fingerprint(words: &[Word]) -> u64 {
    words.iter().fold(words.len() as u64, |h, &w| {
        (h.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Map `f` over `items` on two threads, keeping order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mid = items.len() / 2;
    let (a, b) = items.split_at(mid);
    std::thread::scope(|s| {
        let h = s.spawn(|| a.iter().map(&f).collect::<Vec<R>>());
        let mut tail: Vec<R> = b.iter().map(&f).collect();
        let mut head = h.join().expect("checker thread panicked");
        head.append(&mut tail);
        head
    })
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Minor page faults of this process so far.
pub fn minflt() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; minflt is field 10.
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for an exact count).
    pub samples: usize,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples,
    }
}

/// The end-to-end metrics of an untraced run; `rss_mb` is the peak
/// resident set at the end of the timed work.
fn end_to_end(workload: &str, out: &Outcome, rss_mb: f64) -> Vec<Metric> {
    let jobs = out.job_ms.len();
    let bp = tail_bp(workload);
    let tail = out.tail(bp);
    if !tail.trustworthy() {
        eprintln!(
            "perfbench: only {} samples beyond p{} of {jobs} jobs; the rule of ten \
             beyond needs {} jobs",
            tail.beyond,
            bp as f64 / 100.0,
            stats::min_samples(bp)
        );
    }
    let slices = out.slices.len();
    vec![
        metric(
            "setup_s",
            stats::median(&out.setup_s),
            "s",
            out.setup_s.len(),
        ),
        metric("points_per_s", out.rate(|s| s.points), "1/s", slices),
        metric("jobs_per_s", out.rate(|s| s.jobs), "1/s", slices),
        metric("job_ms_p50", stats::median(&out.job_ms), "ms", jobs),
        metric("job_ms_tail", tail.value, "ms", jobs),
        metric("peak_rss_mb", rss_mb, "MiB", 1),
    ]
}

/// What one workload stream left for the metrics.
pub struct Stream {
    pub out: Outcome,
    /// `VmHWM` at the end of the timed work, before the checks.
    pub rss_mb: f64,
    pub direct: Option<direct::DirectRun>,
    pub batches: Vec<serve::Batch>,
}

/// Run one workload over `segs`, then check its outputs.
pub fn run_stream(
    workload: &str,
    seed: u64,
    segs: Segments,
    threads: usize,
    spans: &mut Spans,
    checker: &mut Checker,
) -> Stream {
    let mut out = Outcome::default();
    let (direct, batches) = match workload {
        "serve_warm" => (
            None,
            serve::run_workload(seed, segs, threads, spans, &mut out),
        ),
        w => {
            let shapes: &'static [direct::Shape] = if w == "cold_recursion" {
                &direct::COLD
            } else {
                &direct::STAGE
            };
            let run = direct::run_workload(shapes, seed, segs, threads, spans, &mut out);
            (Some(run), Vec::new())
        }
    };
    let rss_mb = peak_rss_mb();
    match &direct {
        Some(run) => direct::check(run, workload, checker),
        None => serve::check(&batches, checker),
    }
    Stream {
        out,
        rss_mb,
        direct,
        batches,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--bless" => args.bless = true,
            f => return Err(format!("unknown argument {f}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden.json")
}

fn print_report(workload: &str, metrics: &[Metric], checker: &Checker) {
    println!(
        "{workload}: {} jobs checked, {} failed",
        checker.attempted, checker.failed
    );
    for m in metrics {
        println!(
            "  {:<40} {:>16.6} {:<9} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for msg in &checker.messages {
        println!("  FAILED: {msg}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".into()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0 && checker.attempted > 0,
        checker.attempted.max(1),
        checker.failed,
        body.join(", ")
    );
}

/// `--workload all`: each workload in its own process, one table.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("spawn a workload run");
        let text = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop(); // the JSON line; the table says the same by name
        for l in lines {
            println!("{l}");
        }
        ok &= out.status.success();
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let golden = if args.bless {
        Golden::load(&golden_path()).unwrap_or_default()
    } else {
        match Golden::load(&golden_path()) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        }
    };
    let mut checker = Checker::new(golden, args.bless);
    let threads = bsmp::machine::available_threads();
    let window = Duration::from_secs_f64(args.seconds);
    let metrics = if args.trace {
        layers::traced(&args.workload, args.seed, window, threads, &mut checker)
    } else {
        let segs = Segments {
            count: SEGMENTS,
            length: window / SEGMENTS as u32,
        };
        let mut off = Spans::new(false);
        let st = run_stream(
            &args.workload,
            args.seed,
            segs,
            threads,
            &mut off,
            &mut checker,
        );
        end_to_end(&args.workload, &st.out, st.rss_mb)
    };
    if let Some(b) = checker.blessed.take() {
        let mut g = std::mem::take(&mut checker.golden);
        g.merge(b.into_inner());
        if let Err(e) = std::fs::write(golden_path(), g.to_json()) {
            eprintln!("perfbench: writing golden.json: {e}");
            return ExitCode::FAILURE;
        }
    }
    print_report(&args.workload, &metrics, &checker);
    if checker.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
