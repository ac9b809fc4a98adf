//! The two single-caller workloads, `cold_recursion` and `stage_kernels`:
//! one thread calls the engines in a closed loop (the next job starts
//! when the previous one returns), shapes interleaved round-robin.

use std::time::Instant;

use bsmp::machine::run_linear;
use bsmp::serve_suite::{run_guest, run_shape};
use bsmp::workloads::{inputs, Eca, TokenShift, VonNeumannLife};
use bsmp::{
    plan_cache, CoreKind, FaultPlan, SimError, SimReport, Simulation, Strategy, Tracer, Word,
};

use crate::golden::ModelStats;
use crate::spans::Spans;
use crate::{fingerprint, mix, Checker, Outcome, Segments, Slice};

/// How a shape reaches the engines.
#[derive(Clone, Copy, Debug)]
pub enum Call {
    /// `serve_suite::run_shape` on the named engine (no capsule).
    RunShape(&'static str),
    /// The `Simulation` façade, linear array running rule 110.
    Linear(Strategy),
    /// The façade, mesh running Fredkin's life.
    Mesh(Strategy),
    /// The façade, naive1 on the event core, a one-hot `TokenShift` input.
    Event,
}

/// One job shape.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub call: Call,
    pub d: u8,
    pub n: u64,
    pub p: u64,
    pub steps: i64,
    /// Jobs of this shape per round.
    pub weight: u32,
    /// Run under [`fault_plan`]; the shape shares its round seed with the
    /// clean shape named here, so the two differ only in the plan.
    pub faulted_twin_of: Option<&'static str>,
    /// Distinct input seeds per run; round `r` uses seed `r % seed_pool`.
    /// Each distinct seed costs one direct reference run in the checks.
    pub seed_pool: u64,
}

impl Shape {
    /// Guest dag points simulated by one job.
    pub fn points(&self) -> u64 {
        self.n * self.steps as u64
    }
}

const fn shape(name: &'static str, call: Call, d: u8, n: u64, p: u64, steps: i64) -> Shape {
    Shape {
        name,
        call,
        d,
        n,
        p,
        steps,
        weight: 1,
        faulted_twin_of: None,
        seed_pool: u64::MAX,
    }
}

const fn weighted(s: Shape, weight: u32) -> Shape {
    Shape { weight, ..s }
}

const fn pooled(s: Shape, seed_pool: u64) -> Shape {
    Shape { seed_pool, ..s }
}

const fn faulted(s: Shape, name: &'static str, twin: &'static str) -> Shape {
    Shape {
        name,
        faulted_twin_of: Some(twin),
        ..s
    }
}

/// The jitter-and-loss plan of every faulted shape.
pub fn fault_plan() -> FaultPlan {
    FaultPlan::none().seed(1995).jitter(1.0, 2.0).loss(50, 4)
}

const DNC2: Shape = shape("dnc2", Call::RunShape("dnc2"), 2, 32 * 32, 1, 32);
const MULTI2: Shape = shape("multi2", Call::RunShape("multi2"), 2, 32 * 32, 4, 32);

/// `cold_recursion`: the recursive engines with no capsule, each job a
/// fresh seed.  Shapes are sized to 175–350 ms; dnc2, the slowest, has
/// weight 2 so the tail percentile falls inside its cluster.
pub const COLD: [Shape; 6] = [
    shape("dnc1", Call::RunShape("dnc1"), 1, 512, 1, 512),
    shape("multi1", Call::RunShape("multi1"), 1, 512, 4, 512),
    weighted(DNC2, 2),
    MULTI2,
    faulted(MULTI2, "multi2_flt", "multi2"),
    shape("dnc3", Call::RunShape("dnc3"), 3, 1000, 1, 10),
];

/// `stage_kernels` shapes draw from four seeds per run (the event shape
/// from two: its direct reference run alone costs ~2 s), which bounds
/// the checks' reference runs; a kernel's cost does not depend on its
/// input values.
const NAIVE1: Shape = pooled(
    shape("naive1", Call::Linear(Strategy::Naive), 1, 16384, 16, 1024),
    4,
);

/// `stage_kernels`: the tiled and event cores at pool-crossing sizes
/// (every block ≥ 256 nodes at p = 16), 15–55 ms per job.  naive1 has
/// weight 2 so the median falls inside the naive1 cluster, and the tail
/// inside pipelined1's, the slowest.
pub const STAGE: [Shape; 6] = [
    weighted(NAIVE1, 2),
    faulted(NAIVE1, "naive1_flt", "naive1"),
    pooled(
        shape(
            "pipelined1",
            Call::RunShape("pipelined1"),
            1,
            16384,
            16,
            512,
        ),
        4,
    ),
    pooled(
        shape("naive2", Call::Mesh(Strategy::Naive), 2, 128 * 128, 16, 128),
        4,
    ),
    pooled(
        shape("naive3", Call::RunShape("naive3"), 3, 32 * 32 * 32, 1, 32),
        4,
    ),
    pooled(shape("naive1ev", Call::Event, 1, 1 << 20, 16, 512), 2),
];

/// The input a job hands the program.
pub enum Input {
    /// `run_shape` generates the canonical input from the seed itself.
    Seed(u64),
    Words(Vec<Word>),
}

/// The input of `shape` for `seed`.
pub fn input(shape: &Shape, seed: u64) -> Input {
    let n = shape.n as usize;
    match shape.call {
        Call::RunShape(_) => Input::Seed(seed),
        Call::Linear(_) | Call::Mesh(_) => Input::Words(inputs::random_bits(seed, n)),
        Call::Event => Input::Words(inputs::impulse(n, event_hot(shape, seed))),
    }
}

fn event_hot(shape: &Shape, seed: u64) -> usize {
    (seed % shape.n) as usize
}

/// Run one job.
pub fn run(shape: &Shape, input: &Input, threads: usize) -> Result<SimReport, SimError> {
    let plan = match shape.faulted_twin_of {
        Some(_) => fault_plan(),
        None => FaultPlan::none(),
    };
    match (shape.call, input) {
        (Call::RunShape(engine), Input::Seed(seed)) => run_shape(
            engine,
            shape.d,
            shape.n,
            1,
            shape.p,
            shape.steps,
            *seed,
            &plan,
            &mut Tracer::off(),
        ),
        (Call::Linear(strategy), Input::Words(init)) => {
            Ok(Simulation::try_linear(shape.n, shape.p, 1)?
                .strategy(strategy)
                .threads(threads)
                .faults(plan)
                .try_run(&Eca::rule110(), init, shape.steps)?
                .sim)
        }
        (Call::Mesh(strategy), Input::Words(init)) => {
            Ok(Simulation::try_mesh(shape.n, shape.p, 1)?
                .strategy(strategy)
                .threads(threads)
                .faults(plan)
                .try_run_mesh(&VonNeumannLife::fredkin(), init, shape.steps)?
                .sim)
        }
        (Call::Event, Input::Words(init)) => Ok(Simulation::try_linear(shape.n, shape.p, 1)?
            .strategy(Strategy::Naive)
            .threads(threads)
            .core(CoreKind::Event)
            .try_run(&TokenShift::new(0), init, shape.steps)?
            .sim),
        _ => unreachable!("input() builds the input each call expects"),
    }
}

/// Fingerprints of the direct guest execution for `seed` — the reference
/// every job's outputs must equal.
pub fn reference(shape: &Shape, seed: u64) -> Result<(u64, u64), SimError> {
    let g = match shape.call {
        Call::Event => {
            let spec = bsmp::MachineSpec::try_new(1, shape.n, 1, 1)?;
            let init = inputs::impulse(shape.n as usize, event_hot(shape, seed));
            run_linear(&spec, &TokenShift::new(0), &init, shape.steps)
        }
        _ => run_guest(shape.d, shape.n, 1, shape.steps, seed)?,
    };
    Ok((fingerprint(&g.mem), fingerprint(&g.values)))
}

/// One finished job, kept for the checks that run after the window.
pub struct Job {
    pub shape: usize,
    pub seed: u64,
    pub ms: f64,
    /// Ran inside the timed window (not a set-up pass).
    pub timed: bool,
    pub result: Result<Done, String>,
}

pub struct Done {
    pub mem_fp: u64,
    pub values_fp: u64,
    pub stats: ModelStats,
    pub ops: u64,
    pub table_hits: u64,
}

/// Per-run record of a direct workload.
pub struct DirectRun {
    pub shapes: &'static [Shape],
    pub jobs: Vec<Job>,
}

impl DirectRun {
    /// Timed-job durations (ms) of shape `i`.
    pub fn shape_ms(&self, i: usize) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| j.timed && j.shape == i)
            .map(|j| j.ms)
            .collect()
    }

    /// First-contact durations (ms) of shape `i`, one per set-up pass.
    pub fn first_ms(&self, i: usize) -> Vec<f64> {
        self.jobs
            .iter()
            .filter(|j| !j.timed && j.shape == i)
            .map(|j| j.ms)
            .collect()
    }

    /// Metered ops and cost-table hits of shape `i` (seed-independent).
    pub fn counters(&self, i: usize) -> Option<(u64, u64)> {
        self.jobs.iter().find_map(|j| match &j.result {
            Ok(d) if j.shape == i => Some((d.ops, d.table_hits)),
            _ => None,
        })
    }
}

fn seed_for(run_seed: u64, shapes: &[Shape], i: usize, round: u64) -> u64 {
    let s = &shapes[i];
    let base = s.faulted_twin_of.unwrap_or(s.name);
    mix(&[run_seed, hash_name(base), round % s.seed_pool])
}

pub fn hash_name(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn one_job(
    shapes: &[Shape],
    i: usize,
    seed: u64,
    timed: bool,
    threads: usize,
    spans: &mut Spans,
) -> Job {
    let shape = &shapes[i];
    let input = input(shape, seed);
    let start = Instant::now();
    let res = run(shape, &input, threads);
    let end = Instant::now();
    let (layer, name) = match shape.call {
        Call::RunShape(_) => ("sim", "serve_suite::run_shape"),
        Call::Event => ("machine.event", "Simulation::try_run"),
        Call::Linear(_) => ("sim", "Simulation::try_run"),
        Call::Mesh(_) => ("sim", "Simulation::try_run_mesh"),
    };
    spans.record(layer, name, shape.name, seed, start, end);
    let result = res
        .map(|r| Done {
            mem_fp: fingerprint(&r.mem),
            values_fp: fingerprint(&r.values),
            stats: ModelStats::of(&r),
            ops: r.meter.ops,
            table_hits: r.meter.table_hits,
        })
        .map_err(|e| e.to_string());
    Job {
        shape: i,
        seed,
        ms: (end - start).as_secs_f64() * 1e3,
        timed,
        result,
    }
}

/// Run a direct workload: `segs.count` set-up passes spread across the
/// run, each followed by a timed segment of whole rounds.
pub fn run_workload(
    shapes: &'static [Shape],
    run_seed: u64,
    segs: Segments,
    threads: usize,
    spans: &mut Spans,
    out: &mut Outcome,
) -> DirectRun {
    let mut jobs = Vec::new();
    let mut round = 0u64;
    for seg in 0..segs.count {
        // Set-up: pool spin-up (first pass only), an empty plan cache,
        // and first contact with every shape.
        spans.open("bench", "setup_pass", "");
        let t0 = Instant::now();
        bsmp::init_shared_pool(threads);
        spans.time("machine.plan_cache", "PlanCache::clear", "", 0, || {
            plan_cache().clear()
        });
        for i in 0..shapes.len() {
            let seed = mix(&[run_seed, 0x5e7, seg as u64, i as u64]);
            jobs.push(one_job(shapes, i, seed, false, threads, spans));
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());
        spans.close();

        spans.open("bench", "segment", "");
        let faults0 = crate::minflt();
        let deadline = Instant::now() + segs.length;
        while Instant::now() < deadline {
            let mut slice = Slice {
                jobs: 0,
                points: 0,
                secs: 0.0,
            };
            for i in 0..shapes.len() {
                for _ in 0..shapes[i].weight {
                    let seed = seed_for(run_seed, shapes, i, round);
                    let job = one_job(shapes, i, seed, true, threads, spans);
                    slice.jobs += 1;
                    slice.points += shapes[i].points();
                    slice.secs += job.ms / 1e3;
                    out.job_ms.push(job.ms);
                    jobs.push(job);
                }
            }
            out.slices.push(slice);
            round += 1;
        }
        out.minflt += crate::minflt() - faults0;
        spans.close();
    }
    DirectRun { shapes, jobs }
}

/// The untimed output checks: fingerprints against the direct guest run
/// of the same seed, model statistics against the golden record.
pub fn check(run: &DirectRun, workload: &str, checker: &mut Checker) {
    // One reference per distinct (shape, seed), computed on two threads.
    let mut keys: Vec<(usize, u64)> = run.jobs.iter().map(|j| (j.shape, j.seed)).collect();
    keys.sort_unstable();
    keys.dedup();
    let refs = crate::par_map(&keys, |&(i, seed)| reference(&run.shapes[i], seed));
    for job in &run.jobs {
        let key = format!("{workload}/{}", run.shapes[job.shape].name);
        let problems = match &job.result {
            Err(e) => vec![format!("{key} seed {}: {e}", job.seed)],
            Ok(done) => {
                let mut problems = Vec::new();
                let k = keys
                    .binary_search(&(job.shape, job.seed))
                    .expect("every job has a reference");
                match &refs[k] {
                    Ok(fp) if *fp == (done.mem_fp, done.values_fp) => {}
                    Ok(_) => problems.push(format!(
                        "{key} seed {}: outputs differ from the direct guest run",
                        job.seed
                    )),
                    Err(e) => {
                        problems.push(format!("{key} seed {}: reference failed: {e}", job.seed))
                    }
                }
                if let Err(e) = checker.golden_check(&key, &done.stats) {
                    problems.push(e);
                }
                problems
            }
        };
        checker.job(problems);
    }
}
