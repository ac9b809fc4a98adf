//! The `serve_warm` workload: `serve()` in-process on a generated NDJSON
//! batch, every timed job answered from a cost capsule prefilled during
//! set-up.
//!
//! Latency is timed by the benchmark's own reader and writer: [`Feed`]
//! stamps the moment `serve` consumes a request line, [`Sink`] the moment
//! the result line for that id is written.

use std::io::{BufRead, Read, Write};
use std::time::Instant;

use bsmp::faults::rng::Rng64;
use bsmp::plan_cache;
use bsmp::serve_suite::{
    error_line, fingerprint, parse_job, result_line, run_guest, run_job, serve, ServeOptions,
};
use bsmp::trace::json::{parse, Val};

use crate::golden::ModelStats;
use crate::spans::Spans;
use crate::{mix, Checker, Outcome, Segments, Slice};

/// One request shape of the traffic mix.
#[derive(Clone, Copy, Debug)]
pub struct ServeShape {
    pub name: &'static str,
    pub engine: &'static str,
    pub d: u8,
    pub n: u64,
    pub m: u64,
    pub p: u64,
    pub steps: i64,
    /// Share of well-formed requests, in units of the weight sum.
    pub weight: u32,
    /// Some requests of this shape carry [`FAULTS_JSON`].
    pub faultable: bool,
}

const fn sshape(
    name: &'static str,
    d: u8,
    n: u64,
    p: u64,
    steps: i64,
    weight: u32,
    faultable: bool,
) -> ServeShape {
    ServeShape {
        name,
        engine: name,
        d,
        n,
        m: 1,
        p,
        steps,
        weight,
        faultable,
    }
}

/// The mix: guest runs of 1–9 ms (the warm path's cost), across all
/// three dimensions, two of them recursive engines whose cold runs take
/// hundreds of milliseconds.
pub const SHAPES: [ServeShape; 5] = [
    sshape("naive1", 1, 4096, 16, 512, 2, true),
    sshape("naive2", 2, 128 * 128, 16, 32, 2, false),
    sshape("dnc1", 1, 2048, 1, 256, 2, false),
    sshape("multi1", 1, 2048, 4, 256, 2, true),
    sshape("naive3", 3, 16 * 16 * 16, 1, 16, 1, false),
];

/// The fault plan some requests carry (jitter and loss).
pub const FAULTS_JSON: &str = "{\"seed\": 1995, \"slowdown\": {\"model\": \"jitter\", \
    \"lo\": 1.0, \"hi\": 2.0}, \"loss\": {\"loss_permille\": 50, \"max_retries\": 4}}";

/// Malformed request templates (`{id}` is replaced).  Each carries a
/// readable id, so its `bad_request` line can be matched to it.
pub const MALFORMED: [&str; 6] = [
    r#"{"id": {id}, "engine": "dnc9", "n": 64, "steps": 8}"#,
    r#"{"id": {id}, "engine": "dnc1", "n": 64}"#,
    r#"{"id": {id}, "engine": "dnc1", "n": -4, "steps": 8}"#,
    r#"{"id": {id}, "engine": "dnc1", "n": 64, "steps": 8, "faults": "storm"}"#,
    r#"{"id": {id}, "engine": "dnc1", "n": 64, "steps": 8, "faults": {"slowdown": {"model": "warp", "nu": 2.0}}}"#,
    r#"{"id": {id}, "engine": "naive3", "n": 65, "steps": 8}"#,
];

/// Per-mille shares of the mix.
const MALFORMED_PERMILLE: u64 = 20;
const CERTIFY_PERCENT: u64 = 15;
const FAULTED_PERCENT: u64 = 15;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Plain,
    Certify,
    Faulted,
    /// Set-up only: a certified run (faulted or not) that stores a
    /// traced capsule.
    Prefill {
        faulted: bool,
    },
    Malformed(usize),
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    pub id: u64,
    pub shape: usize,
    pub seed: u64,
    pub kind: Kind,
    /// The NDJSON line, newline included.
    pub line: String,
}

impl Request {
    pub fn faulted(&self) -> bool {
        matches!(self.kind, Kind::Faulted | Kind::Prefill { faulted: true })
    }

    pub fn golden_key(&self) -> String {
        let suffix = if self.faulted() { "+faults" } else { "" };
        format!("serve_warm/{}{suffix}", SHAPES[self.shape].name)
    }
}

fn request(id: u64, shape: usize, seed: u64, kind: Kind) -> Request {
    let s = &SHAPES[shape];
    let mut line = match kind {
        Kind::Malformed(t) => MALFORMED[t].replace("{id}", &id.to_string()),
        _ => format!(
            "{{\"id\": {id}, \"engine\": \"{}\", \"n\": {}, \"m\": {}, \"p\": {}, \
             \"steps\": {}, \"seed\": {seed}",
            s.engine, s.n, s.m, s.p, s.steps
        ),
    };
    match kind {
        Kind::Certify | Kind::Prefill { faulted: false } => line.push_str(", \"certify\": true}"),
        Kind::Faulted => line.push_str(&format!(", \"faults\": {FAULTS_JSON}}}")),
        Kind::Prefill { faulted: true } => {
            line.push_str(&format!(", \"certify\": true, \"faults\": {FAULTS_JSON}}}"))
        }
        Kind::Plain => line.push('}'),
        Kind::Malformed(_) => {}
    }
    line.push('\n');
    Request {
        id,
        shape,
        seed,
        kind,
        line,
    }
}

/// `count` traffic requests with ids from `first_id`; request `id` is a
/// function of `(run_seed, id)` alone.
pub fn generate(run_seed: u64, first_id: u64, count: u64) -> Vec<Request> {
    let total: u64 = SHAPES.iter().map(|s| s.weight as u64).sum();
    (first_id..first_id + count)
        .map(|id| {
            let mut rng = Rng64::new(mix(&[run_seed, 0x5e7e, id]));
            if rng.below(1000) < MALFORMED_PERMILLE {
                let t = rng.below(MALFORMED.len() as u64) as usize;
                return request(id, 0, 0, Kind::Malformed(t));
            }
            let mut pick = rng.below(total);
            let shape = SHAPES
                .iter()
                .position(|s| {
                    let hit = pick < s.weight as u64;
                    pick = pick.saturating_sub(s.weight as u64);
                    hit
                })
                .expect("pick < total weight");
            let roll = rng.below(100);
            let kind = if roll < CERTIFY_PERCENT {
                Kind::Certify
            } else if roll < CERTIFY_PERCENT + FAULTED_PERCENT && SHAPES[shape].faultable {
                Kind::Faulted
            } else {
                Kind::Plain
            };
            // Seeds stay below 2^53: request numbers are read as f64.
            let seed = rng.next_u64() >> 11;
            request(id, shape, seed, kind)
        })
        .collect()
}

/// The set-up batch that stores a traced capsule for every key the
/// traffic uses.
pub fn prefill(run_seed: u64, first_id: u64) -> Vec<Request> {
    let mut out = Vec::new();
    for (i, s) in SHAPES.iter().enumerate() {
        for faulted in [false, true] {
            if faulted && !s.faultable {
                continue;
            }
            let id = first_id + out.len() as u64;
            let seed = mix(&[run_seed, 0x9f, id]) >> 11;
            out.push(request(id, i, seed, Kind::Prefill { faulted }));
        }
    }
    out
}

/// The reader handed to `serve`: yields one request line at a time and
/// stamps the moment each line is fully consumed.  Reports end of input
/// once every line is fed or the deadline has passed.
pub struct Feed<'a> {
    reqs: &'a [Request],
    next: usize,
    pos: usize,
    deadline: Option<Instant>,
    /// `consumed[k]` is when `reqs[k]` was consumed.
    pub consumed: Vec<Instant>,
}

impl<'a> Feed<'a> {
    pub fn new(reqs: &'a [Request], deadline: Option<Instant>) -> Self {
        Feed {
            reqs,
            next: 0,
            pos: 0,
            deadline,
            consumed: Vec::with_capacity(reqs.len()),
        }
    }

    fn exhausted(&self) -> bool {
        self.next == self.reqs.len()
    }
}

impl Read for Feed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let avail = self.fill_buf()?;
        let k = avail.len().min(buf.len());
        buf[..k].copy_from_slice(&avail[..k]);
        self.consume(k);
        Ok(k)
    }
}

impl BufRead for Feed<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        let expired = self.deadline.is_some_and(|d| Instant::now() >= d);
        if self.exhausted() || (self.pos == 0 && expired) {
            return Ok(&[]);
        }
        Ok(&self.reqs[self.next].line.as_bytes()[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        if amt == 0 {
            return;
        }
        self.pos += amt;
        if self.pos == self.reqs[self.next].line.len() {
            self.consumed.push(Instant::now());
            self.next += 1;
            self.pos = 0;
        }
    }
}

/// The writer handed to `serve`: splits its output into lines and stamps
/// each when its newline is written.
#[derive(Default)]
pub struct Sink {
    buf: Vec<u8>,
    pub lines: Vec<(Instant, String)>,
}

impl Write for Sink {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let text = String::from_utf8_lossy(&line[..nl]).into_owned();
            self.lines.push((Instant::now(), text));
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One answered request.
pub struct Answer {
    /// Index into the batch's requests.
    pub req: usize,
    /// When its result line was written.
    pub done: Instant,
    pub latency_ms: f64,
    pub reply: Reply,
}

/// The parts of a result line the checks read.
#[derive(Debug)]
pub struct Reply {
    pub ok: bool,
    /// `bad_request` or `sim_error` on an error line.
    pub kind: Option<String>,
    pub error: Option<String>,
    pub stats: Result<ModelStats, String>,
    pub cache_hit: bool,
    pub verdict: Option<String>,
    /// `mem_fp` and `values_fp`.
    pub fps: Option<(u64, u64)>,
}

impl Reply {
    fn of(doc: &Val) -> Self {
        let text = |v: Option<&Val>| v.and_then(Val::as_str).map(str::to_string);
        let fp = |k: &str| {
            doc.get(k)
                .and_then(Val::as_str)
                .and_then(|s| s.strip_prefix("0x"))
                .and_then(|s| u64::from_str_radix(s, 16).ok())
        };
        let ok = doc.get("ok") == Some(&Val::Bool(true));
        Reply {
            ok,
            kind: text(doc.get("kind")),
            error: text(doc.get("error")),
            stats: if ok {
                ModelStats::of_result_line(doc)
            } else {
                Err("error line".into())
            },
            cache_hit: doc.get("cache_hit") == Some(&Val::Bool(true)),
            verdict: text(doc.get("cert").and_then(|c| c.get("verdict"))),
            fps: fp("mem_fp").zip(fp("values_fp")),
        }
    }
}

/// Match every written line to the request it answers.  Each fed request
/// must be answered exactly once, nothing else may be answered, and the
/// summary line must count every answer.
pub fn account(
    reqs: &[Request],
    consumed: &[Instant],
    lines: &[(Instant, String)],
) -> Result<Vec<Answer>, String> {
    let first = reqs.first().map_or(0, |r| r.id);
    let fed = consumed.len();
    let mut seen = vec![false; fed];
    let mut answers = Vec::with_capacity(fed);
    let mut summary = None;
    for (at, text) in lines {
        let doc = parse(text).map_err(|e| format!("unparseable output line: {e}"))?;
        if doc.get("summary").is_some() {
            if summary.replace(doc).is_some() {
                return Err("two summary lines".into());
            }
            continue;
        }
        let id = doc
            .get("id")
            .and_then(Val::as_u64)
            .ok_or_else(|| format!("output line without an id: {text}"))?;
        let k = id.wrapping_sub(first) as usize;
        if k >= fed || reqs[k].id != id {
            return Err(format!("answer for id {id}, which was never fed"));
        }
        if std::mem::replace(&mut seen[k], true) {
            return Err(format!("id {id} answered twice"));
        }
        let latency_ms = at.saturating_duration_since(consumed[k]).as_secs_f64() * 1e3;
        answers.push(Answer {
            req: k,
            done: *at,
            latency_ms,
            reply: Reply::of(&doc),
        });
    }
    if let Some(k) = seen.iter().position(|s| !s) {
        return Err(format!("id {} never answered", reqs[k].id));
    }
    let jobs = summary
        .as_ref()
        .and_then(|s| s.get("jobs"))
        .and_then(Val::as_u64)
        .ok_or("missing summary line")?;
    if jobs != fed as u64 {
        return Err(format!("summary counts {jobs} jobs, {fed} were fed"));
    }
    Ok(answers)
}

/// One `serve` call: its requests, answers and wall time.
pub struct Batch {
    pub reqs: Vec<Request>,
    pub answers: Vec<Answer>,
    /// Set-up (prefill) batch rather than timed traffic.
    pub prefill: bool,
    pub problems: Vec<String>,
}

/// Run `reqs` through `serve` until they run out or `deadline` passes.
pub fn run_batch(
    reqs: Vec<Request>,
    deadline: Option<Instant>,
    threads: usize,
    prefill: bool,
    spans: &mut Spans,
) -> Batch {
    let mut feed = Feed::new(&reqs, deadline);
    let mut sink = Sink::default();
    let res = serve(
        &mut feed,
        &mut sink,
        ServeOptions {
            max_inflight: threads,
        },
    );
    let consumed = std::mem::take(&mut feed.consumed);
    let mut problems = Vec::new();
    if let Err(e) = res {
        problems.push(format!("serve failed: {e}"));
    }
    if deadline.is_some() && consumed.len() == reqs.len() {
        eprintln!("perfbench: serve_warm ran out of generated requests before its deadline");
    }
    let answers = match account(&reqs, &consumed, &sink.lines) {
        Ok(a) => a,
        Err(e) => {
            problems.push(e);
            Vec::new()
        }
    };
    for a in &answers {
        let r = &reqs[a.req];
        let name = if matches!(r.kind, Kind::Malformed(_)) {
            "malformed"
        } else {
            SHAPES[r.shape].name
        };
        spans.record(
            "core.serve_suite",
            "serve.job",
            name,
            r.id,
            consumed[a.req],
            a.done,
        );
    }
    Batch {
        reqs,
        answers,
        prefill,
        problems,
    }
}

/// Completions per throughput slice.
const SLICE_JOBS: usize = 200;

/// Run the prefill batch one request at a time on the calling thread,
/// through the same parse, run and format calls `serve` makes.  (Cold
/// engine runs on short-lived `serve` workers would leave their memory
/// in per-thread allocator arenas, pass after pass.)
pub fn run_prefill(reqs: Vec<Request>, spans: &mut Spans) -> Batch {
    let answers = reqs
        .iter()
        .enumerate()
        .map(|(k, r)| {
            let start = Instant::now();
            let line = match parse_job(r.line.trim_end()) {
                Ok(job) => match run_job(&job) {
                    Ok(out) => result_line(&job, &out),
                    Err(e) => error_line(job.id, &e),
                },
                Err(e) => error_line(0, &e),
            };
            let done = Instant::now();
            spans.record(
                "core.serve_suite",
                "prefill.job",
                SHAPES[r.shape].name,
                r.id,
                start,
                done,
            );
            let reply = parse(&line).map_or_else(
                |e| Reply::of(&Val::Obj(vec![("error".into(), Val::Str(e))])),
                |doc| Reply::of(&doc),
            );
            Answer {
                req: k,
                done,
                latency_ms: (done - start).as_secs_f64() * 1e3,
                reply,
            }
        })
        .collect();
    Batch {
        reqs,
        answers,
        prefill: true,
        problems: Vec::new(),
    }
}

/// Requests generated per second of timed window: several times the
/// rate two workers reach, so a segment ends by its deadline.
const REQUESTS_PER_SECOND: f64 = 2000.0;

/// Run `serve_warm`: `segs.count` set-up passes (request generation, an
/// emptied plan cache, and the prefill batch), each followed by a timed
/// segment of traffic.
pub fn run_workload(
    run_seed: u64,
    segs: Segments,
    threads: usize,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Vec<Batch> {
    let mut batches = Vec::new();
    let mut next_id = 1u64;
    let per_seg = (segs.length.as_secs_f64() * REQUESTS_PER_SECOND).ceil() as u64;
    for _ in 0..segs.count {
        spans.open("bench", "setup_pass", "");
        let t0 = Instant::now();
        bsmp::init_shared_pool(threads);
        let traffic = generate(run_seed, next_id, per_seg);
        next_id += per_seg;
        let fill = prefill(run_seed, next_id);
        next_id += fill.len() as u64;
        spans.time("machine.plan_cache", "PlanCache::clear", "", 0, || {
            plan_cache().clear()
        });
        batches.push(run_prefill(fill, spans));
        out.setup_s.push(t0.elapsed().as_secs_f64());
        spans.close();

        spans.open("bench", "segment", "");
        plan_cache().reset_counters();
        let faults0 = crate::minflt();
        let start = Instant::now();
        let b = run_batch(traffic, Some(start + segs.length), threads, false, spans);
        out.minflt += crate::minflt() - faults0;
        out.cache = Some(plan_cache().stats());
        // Throughput slices: runs of SLICE_JOBS consecutive completions.
        let done: Vec<(Instant, u64)> = b
            .answers
            .iter()
            .filter(|a| !matches!(b.reqs[a.req].kind, Kind::Malformed(_)))
            .map(|a| {
                out.job_ms.push(a.latency_ms);
                let s = &SHAPES[b.reqs[a.req].shape];
                (a.done, s.n * s.steps as u64)
            })
            .collect();
        // A segment too short for one full slice still yields one.
        let per = SLICE_JOBS.min(done.len().saturating_sub(1)).max(1);
        let slices = done.windows(per + 1).step_by(per).map(|w| Slice {
            jobs: per as u64,
            points: w[1..].iter().map(|(_, p)| p).sum(),
            secs: (w[per].0 - w[0].0).as_secs_f64(),
        });
        out.slices.extend(slices);
        batches.push(b);
        spans.close();
    }
    batches
}

/// What one answer should look like, given its request.  Returns the
/// problems found (empty when the answer is right).
fn check_answer(r: &Request, a: &Reply, prefill: bool, checker: &Checker) -> Vec<String> {
    if let Kind::Malformed(_) = r.kind {
        return if !a.ok && a.kind.as_deref() == Some("bad_request") {
            Vec::new()
        } else {
            vec![format!(
                "malformed id {} was not refused as bad_request",
                r.id
            )]
        };
    }
    if !a.ok {
        let err = a.error.as_deref().unwrap_or("?");
        return vec![format!("id {}: unexpected error line: {err}", r.id)];
    }
    let mut problems = Vec::new();
    if let Err(e) = a
        .stats
        .as_ref()
        .map_err(String::clone)
        .and_then(|st| checker.golden_check(&r.golden_key(), st))
    {
        problems.push(format!("id {}: {e}", r.id));
    }
    if !prefill && !a.cache_hit {
        problems.push(format!("id {}: timed job missed the capsule", r.id));
    }
    let wants_cert = matches!(r.kind, Kind::Certify | Kind::Prefill { .. });
    if wants_cert && a.verdict.as_deref() != Some("Certified") {
        problems.push(format!("id {}: certificate {:?}", r.id, a.verdict));
    }
    problems
}

/// The untimed output checks of every batch.
pub fn check(batches: &[Batch], checker: &mut Checker) {
    for b in batches {
        for p in &b.problems {
            checker.fail(p.clone());
        }
        // Direct guest references for every answered well-formed request.
        let wanted: Vec<&Answer> = b
            .answers
            .iter()
            .filter(|a| !matches!(b.reqs[a.req].kind, Kind::Malformed(_)))
            .collect();
        let refs = crate::par_map(&wanted, |a| {
            let r = &b.reqs[a.req];
            let s = &SHAPES[r.shape];
            run_guest(s.d, s.n, s.m, s.steps, r.seed)
                .map(|g| (fingerprint(&g.mem), fingerprint(&g.values)))
                .map_err(|e| e.to_string())
        });
        let mut refs = refs.into_iter();
        for a in &b.answers {
            let r = &b.reqs[a.req];
            let mut problems = check_answer(r, &a.reply, b.prefill, checker);
            if let Kind::Malformed(_) = r.kind {
                checker.job(problems);
                continue;
            }
            let want = refs.next().expect("one reference per well-formed answer");
            if problems.is_empty() {
                match want {
                    Ok(w) if Some(w) == a.reply.fps => {}
                    Ok(_) => problems.push(format!(
                        "id {}: outputs differ from the direct guest run",
                        r.id
                    )),
                    Err(e) => problems.push(format!("id {}: reference failed: {e}", r.id)),
                }
            }
            checker.job(problems);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let a = generate(7, 1, 500);
        assert_eq!(a, generate(7, 1, 500));
        assert_ne!(a, generate(8, 1, 500));
        // A request depends on (seed, id) only, not on the batch split.
        assert_eq!(a[300..], generate(7, 301, 200)[..]);
        assert_eq!(prefill(7, 1), prefill(7, 1));
        // The mix has every kind.
        for k in [Kind::Plain, Kind::Certify, Kind::Faulted] {
            assert!(a.iter().any(|r| r.kind == k), "{k:?}");
        }
        assert!(a.iter().any(|r| matches!(r.kind, Kind::Malformed(_))));
    }

    #[test]
    fn every_line_parses_as_generated() {
        use bsmp::serve_suite::parse_job;
        for r in generate(3, 1, 300).iter().chain(&prefill(3, 1000)) {
            match (parse_job(r.line.trim_end()), r.kind) {
                (Err(_), Kind::Malformed(_)) => {}
                (Ok(job), kind) if !matches!(kind, Kind::Malformed(_)) => {
                    assert_eq!((job.id, job.seed), (r.id, r.seed));
                    assert_eq!(job.faults.is_some(), r.faulted());
                }
                (res, kind) => panic!("{kind:?}: {:?}", res.map(|j| j.id)),
            }
        }
    }

    #[test]
    fn wrappers_account_for_every_id_once() {
        // Small shapes keep the test fast; two malformed lines included.
        let mut reqs: Vec<Request> = (1..=6)
            .map(|id| {
                let line = format!(
                    "{{\"id\": {id}, \"engine\": \"dnc1\", \"n\": 16, \"steps\": 8, \"seed\": {id}}}\n"
                );
                Request {
                    id,
                    shape: 2,
                    seed: id,
                    kind: Kind::Plain,
                    line,
                }
            })
            .collect();
        reqs.push(request(7, 0, 0, Kind::Malformed(0)));
        reqs.push(request(8, 0, 0, Kind::Malformed(5)));
        let mut spans = Spans::new(false);
        let b = run_batch(reqs.clone(), None, 2, true, &mut spans);
        assert!(b.problems.is_empty(), "{:?}", b.problems);
        let mut ids: Vec<u64> = b.answers.iter().map(|a| b.reqs[a.req].id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (1..=8).collect::<Vec<_>>());
        assert!(b.answers.iter().all(|a| a.latency_ms >= 0.0));

        // A duplicated or unknown answer is caught.
        let t = Instant::now();
        let consumed = vec![t; 2];
        let line = |id: u64| (t, format!("{{\"id\": {id}, \"ok\": true}}"));
        let summary = (t, "{\"summary\": true, \"jobs\": 2}".to_string());
        let two = &reqs[..2];
        assert!(account(two, &consumed, &[line(1), line(2), summary.clone()]).is_ok());
        assert!(account(two, &consumed, &[line(1), line(1), summary.clone()]).is_err());
        assert!(account(two, &consumed, &[line(1), line(3), summary.clone()]).is_err());
        assert!(account(two, &consumed, &[line(1), summary]).is_err());
        assert!(account(two, &consumed, &[line(1), line(2)]).is_err());
    }

    #[test]
    fn feed_stops_at_the_deadline() {
        let reqs = generate(1, 1, 10);
        let mut feed = Feed::new(&reqs, Some(Instant::now()));
        let mut s = String::new();
        assert_eq!(feed.read_line(&mut s).unwrap(), 0);
        let feed = Feed::new(&reqs, None);
        assert_eq!(feed.lines().count(), 10);
    }
}
