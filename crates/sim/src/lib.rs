//! # bsmp-sim
//!
//! The simulation engines of the paper, as instrumented executable code.
//! Every engine runs a *real* guest computation (a node program from
//! `bsmp-workloads` or any [`bsmp_machine::LinearProgram`] /
//! [`bsmp_machine::MeshProgram`]) on a host machine with fewer
//! processors, producing
//!
//! 1. the exact same final memory image and values as direct guest
//!    execution (functional equivalence — asserted in tests), and
//! 2. the host's model time `T_p` under the bounded-speed cost model,
//!    which the benches compare against the analytic bounds.
//!
//! Engines — one module per [`Engine`], each with one `run` entry point:
//!
//! | module          | engine                 | paper artifact                                   |
//! |-----------------|------------------------|--------------------------------------------------|
//! | [`naive1`]      | [`Engine::Naive1`]     | Proposition 1 / §4.2 naive, `d = 1`, any `p`     |
//! | [`pipelined1`]  | [`Engine::Pipelined1`] | Section 6 pipelined-memory machine, `d = 1`      |
//! | [`dnc1`]        | [`Engine::Dnc1`]       | Theorems 2 & 3 (uniprocessor D&C, `d = 1`)       |
//! | [`multi1`]      | [`Engine::Multi1`]     | Theorem 4 (two-regime multiprocessor, `d = 1`)   |
//! | [`naive2`]      | [`Engine::Naive2`]     | Proposition 1 naive, `d = 2`, any square `p`     |
//! | [`dnc2`]        | [`Engine::Dnc2`]       | Theorem 5 (uniprocessor D&C, `d = 2`)            |
//! | [`multi2`]      | [`Engine::Multi2`]     | Theorem 1 `d = 2` (two-regime, cost-accounted)   |
//! | [`naive3`]      | [`Engine::Naive3`]     | Proposition 1 naive, `d = 3`, uniprocessor       |
//! | [`dnc3`]        | [`Engine::Dnc3`]       | Section 6 conjecture (uniprocessor D&C, `d = 3`) |
//!
//! Supporting modules:
//!
//! | module       | role                                                          |
//! |--------------|---------------------------------------------------------------|
//! | [`exec1`]    | Proposition 2 executor over diamond separators (dnc1/multi1)  |
//! | [`cellexec`] | Proposition 2 executor over honeycomb cells, `d = 2` and `3` (dnc2/multi2/dnc3) |
//! | [`event1`]   | event-driven sparse core behind `naive1` (`CoreKind::Event`)  |
//! | [`event2`]   | event-driven sparse core behind `naive2` (`CoreKind::Event`)  |
//!
//! [`run_linear`], [`run_mesh`] and [`run_volume`] dispatch on [`Engine`]
//! for the `d = 1`, `2` and `3` program families; every knob beyond
//! machine, program, input and step count travels in [`RunOpts`].
//!
//! The instantaneous-model (Brent) baseline of experiment E10 is the
//! naive engines run on a [`bsmp_machine::MachineSpec::instantaneous`]
//! host.

pub mod cellexec;
pub mod dnc1;
pub mod dnc2;
pub mod dnc3;
pub mod error;
pub mod event1;
pub mod event2;
pub mod exec1;
pub mod multi1;
pub mod multi2;
pub mod naive1;
pub mod naive2;
pub mod naive3;
pub mod pipelined1;
pub mod report;
pub mod zone;

pub use bsmp_trace::Engine;
pub use error::SimError;
pub use report::SimReport;

use bsmp_faults::FaultPlan;
use bsmp_hram::Word;
use bsmp_machine::{CoreKind, ExecPolicy, LinearProgram, MachineSpec, MeshProgram, VolumeProgram};
use bsmp_trace::Tracer;

/// Everything an engine run takes beyond machine, program, input and
/// step count.  `RunOpts::default()` is the plain call: fault-free,
/// automatic thread budget, dense core, the paper's leaf radius and
/// strip width, tracing off.  Each engine reads the fields that apply
/// to it and ignores the rest; no field ever changes a report's model
/// figures except `plan`, `leaf` and `strip`.
#[derive(Default)]
pub struct RunOpts<'t> {
    /// Fault scenario, validated at run time.
    pub plan: FaultPlan,
    /// Host-thread budget of the stage-parallel naive engines.
    pub exec: ExecPolicy,
    /// Execution core of naive1/naive2 (the other engines have only the
    /// dense loop).
    pub core: CoreKind,
    /// Leaf radius of dnc1/dnc2; `None` picks the paper's `D(m)`
    /// executable diamonds/cells (radius `max(m/2, 1)`).
    pub leaf: Option<i64>,
    /// Strip width of multi1; `None` picks the admissible width closest
    /// to the paper's `s*` ([`multi1::engine_strip`]).
    pub strip: Option<u64>,
    /// Observer of every stage; `None` runs untraced.
    pub tracer: Option<&'t mut Tracer>,
}

impl<'t> RunOpts<'t> {
    /// Inject faults per `plan`.
    pub fn plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Set the host-thread budget.
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// Choose the execution core.
    pub fn core(mut self, core: CoreKind) -> Self {
        self.core = core;
        self
    }

    /// Set an explicit D&C leaf radius.
    pub fn leaf(mut self, leaf: i64) -> Self {
        self.leaf = Some(leaf);
        self
    }

    /// Set an explicit multi1 strip width.
    pub fn strip(mut self, strip: u64) -> Self {
        self.strip = Some(strip);
        self
    }

    /// Record every stage into `tracer`.
    pub fn tracer(mut self, tracer: &'t mut Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }
}

/// Run a `d = 1` engine on a linear-array program.  An engine of
/// another dimension is a [`SimError::DimensionMismatch`].
pub fn run_linear(
    engine: Engine,
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
) -> Result<SimReport, SimError> {
    match engine {
        Engine::Naive1 => naive1::run(spec, prog, init, steps, opts),
        Engine::Multi1 => multi1::run(spec, prog, init, steps, opts),
        Engine::Pipelined1 => pipelined1::run(spec, prog, init, steps, opts),
        Engine::Dnc1 => dnc1::run(spec, prog, init, steps, opts),
        other => Err(SimError::DimensionMismatch {
            expected: 1,
            got: other.dim(),
        }),
    }
}

/// Run a `d = 2` engine on a mesh program.  An engine of another
/// dimension is a [`SimError::DimensionMismatch`].
pub fn run_mesh(
    engine: Engine,
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
) -> Result<SimReport, SimError> {
    match engine {
        Engine::Naive2 => naive2::run(spec, prog, init, steps, opts),
        Engine::Multi2 => multi2::run(spec, prog, init, steps, opts),
        Engine::Dnc2 => dnc2::run(spec, prog, init, steps, opts),
        other => Err(SimError::DimensionMismatch {
            expected: 2,
            got: other.dim(),
        }),
    }
}

/// Run a `d = 3` engine on a volume program over the `side³` cube.  An
/// engine of another dimension is a [`SimError::DimensionMismatch`].
pub fn run_volume(
    engine: Engine,
    side: usize,
    prog: &impl VolumeProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
) -> Result<SimReport, SimError> {
    match engine {
        Engine::Naive3 => naive3::run(side, prog, init, steps, opts),
        Engine::Dnc3 => dnc3::run(side, prog, init, steps, opts),
        other => Err(SimError::DimensionMismatch {
            expected: 3,
            got: other.dim(),
        }),
    }
}

/// Snapshot the cumulative stage-clock and fault counters into the shape
/// the tracer differences at stage close.
pub(crate) fn stage_totals(
    clock: &bsmp_machine::StageClock,
    stats: &bsmp_faults::FaultStats,
) -> bsmp_trace::StageTotals {
    bsmp_trace::StageTotals {
        parallel: clock.parallel_time,
        busy: clock.busy_time,
        comm: clock.comm_time,
        injected_delay: stats.injected_delay,
        retries: stats.retries,
        recovered: stats.recovered_stages,
        outages: stats.outage_stages,
        churn: stats.departures + stats.rejoins,
        backoffs: stats.backoff_retries,
    }
}

/// Close out a fault session at the end of an engine's stage loop: if the
/// scenario still holds storm-queued traffic or churn debt, charge one
/// traced settlement stage so the trace's `Σ cost = host_time` invariant
/// survives scenarios that end mid-outage.
pub(crate) fn settle_scenario(
    clock: &mut bsmp_machine::StageClock,
    session: &mut bsmp_faults::FaultSession,
    tracer: &mut bsmp_trace::Tracer,
    workers: usize,
) {
    if !session.needs_settlement() {
        return;
    }
    tracer.begin_stage("settle");
    clock.settle_faulted(session);
    tracer.end_stage(stage_totals(clock, &session.stats), workers);
}

/// The `run` of a uniprocessor engine whose fault-free `clean` run is
/// one bulk stage: validate the plan, take the plain path when it
/// injects nothing, and otherwise push the clean report through the
/// scenario (see [`scenario_over_report`]).  `clean` receives the
/// tracer to observe it and the run's metadata.
pub(crate) fn uniprocessor_run(
    opts: RunOpts,
    meta: bsmp_trace::RunMeta,
    hop: f64,
    checkpoint_words: u64,
    clean: impl FnOnce(&mut Tracer, bsmp_trace::RunMeta) -> Result<SimReport, SimError>,
) -> Result<SimReport, SimError> {
    let mut off = Tracer::off();
    let tracer = opts.tracer.unwrap_or(&mut off);
    opts.plan.validate()?;
    if opts.plan.is_none() {
        return clean(tracer, meta);
    }
    let rep = clean(&mut Tracer::off(), meta.clone())?;
    scenario_over_report(rep, meta, hop, checkpoint_words, &opts.plan, tracer)
}

/// Close a uniprocessor run traced as one bulk stage: one record carries
/// the whole run's totals, read off the engine's H-RAM.
pub(crate) fn bulk_report(
    tracer: &mut Tracer,
    meta: bsmp_trace::RunMeta,
    ram: &bsmp_hram::Hram,
    mem: Vec<Word>,
    values: Vec<Word>,
    guest_time: f64,
) -> SimReport {
    let host_time = ram.time();
    if let Some(tl) = tracer.tally() {
        tl.add(0, meta.n * meta.steps, 0);
    }
    tracer.end_stage(
        bsmp_trace::StageTotals {
            parallel: host_time,
            busy: host_time,
            comm: ram.meter.comm,
            ..bsmp_trace::StageTotals::default()
        },
        1,
    );
    tracer.finish_run(meta, host_time, guest_time);
    SimReport {
        mem,
        values,
        host_time,
        guest_time,
        meter: ram.meter,
        space: ram.high_water(),
        stages: 0,
        faults: bsmp_faults::FaultStats::default(),
        core_fallback: None,
    }
}

/// Apply a fault scenario to a uniprocessor run treated as one bulk
/// stage: the whole run's `[host_time]` / `[comm]` pass through a
/// single-processor [`bsmp_faults::FaultSession`] (so jitter, asymmetry,
/// outage windows, and churn scale the run exactly like any other
/// stage), plus a settlement stage if the scenario ends mid-outage.
///
/// Callers hand over the fault-free report of the plain engine; the
/// returned report keeps its memory image and meter but carries the
/// scenario-adjusted `host_time`, stage count, and fault statistics.
pub(crate) fn scenario_over_report(
    mut rep: SimReport,
    meta: bsmp_trace::RunMeta,
    hop: f64,
    checkpoint_words: u64,
    plan: &bsmp_faults::FaultPlan,
    tracer: &mut bsmp_trace::Tracer,
) -> Result<SimReport, SimError> {
    let mut session = bsmp_faults::FaultSession::new(
        plan,
        bsmp_faults::FaultEnv {
            p: 1,
            hop,
            checkpoint_words,
            proc_side: 1,
        },
    );
    let mut clock = bsmp_machine::StageClock::new();
    tracer.ensure_procs(1);
    tracer.begin_stage("run");
    if let Some(tl) = tracer.tally() {
        tl.add(0, meta.n * meta.steps, 0);
    }
    let guest_time = rep.guest_time;
    clock.add_stage_faulted(&[rep.host_time], &[rep.meter.comm], &mut session)?;
    tracer.end_stage(stage_totals(&clock, &session.stats), 1);
    settle_scenario(&mut clock, &mut session, tracer, 1);
    tracer.finish_run(meta, clock.parallel_time, guest_time);
    rep.host_time = clock.parallel_time;
    rep.stages = clock.stages;
    rep.faults = session.into_stats();
    Ok(rep)
}
