//! **Theorems 2 and 3** — divide-and-conquer uniprocessor simulation of
//! the linear array, built on the [`crate::exec1`] executor.
//!
//! * Theorem 2 (`m = 1`): leaf diamonds of radius 1, slowdown
//!   `O(n log n)`.
//! * Theorem 3 (`m > 1`): recursion down to the *executable diamonds*
//!   `D(m)` (radius `m/2`), executed naively; slowdown
//!   `O(n · min(n, m log(n/m)))`.  For `m ≥ n` the whole computation is
//!   one executable diamond — the naive regime.

use std::sync::Arc;

use bsmp_hram::Word;
use bsmp_machine::{linear_guest_time, plan_cache, LinearProgram, MachineSpec, PlanKey};
use bsmp_trace::{Engine, RunMeta, Tracer};

use crate::error::SimError;
use crate::exec1::{DiamondExec, DiamondPlan};
use crate::report::SimReport;
use crate::RunOpts;

/// Cache key of the frozen [`DiamondPlan`] for one decomposition shape.
/// The plan is pure geometry — guest program identity, cost model, and
/// fault plan are deliberately absent (they cannot change the memos) —
/// so every engine recursing over the same `(n, T, m, leaf_h)` diamond
/// dag shares one entry.
pub(crate) fn exec1_plan_key(n: u64, m: u64, steps: i64, leaf_h: i64) -> PlanKey {
    PlanKey {
        engine: "exec1-plan",
        d: 1,
        n,
        p: 1,
        m,
        steps: steps.max(0),
        core: 0,
        extra: leaf_h.max(1) as u64,
        salt: String::new(),
    }
}

/// Attach the cached plan (if any) to a fresh executor; returns the key
/// and the plan so the caller can harvest discoveries afterwards.
pub(crate) fn adopt_plan<P: LinearProgram>(
    exec: &mut DiamondExec<'_, P>,
    n: u64,
    m: u64,
    steps: i64,
    leaf_h: i64,
) -> (PlanKey, Option<Arc<DiamondPlan>>) {
    let key = exec1_plan_key(n, m, steps, leaf_h);
    let cached = plan_cache().get_as::<DiamondPlan>(&key);
    if let Some(plan) = &cached {
        exec.set_plan(Arc::clone(plan));
    }
    (key, cached)
}

/// After a successful run, fold the executor's newly discovered memos
/// into the cached plan (no-op when the plan already covered the run).
pub(crate) fn harvest_plan<P: LinearProgram>(
    exec: &mut DiamondExec<'_, P>,
    key: PlanKey,
    cached: Option<Arc<DiamondPlan>>,
) {
    let found = exec.drain_discoveries();
    if found.is_empty() {
        return;
    }
    let mut merged = match cached {
        Some(arc) => (*arc).clone(),
        None => DiamondPlan::default(),
    };
    merged.absorb(found);
    let bytes = merged.approx_bytes();
    plan_cache().insert(key, Arc::new(merged), bytes);
}

/// Simulate `steps` guest steps of `M_1(n, n, m)` on the uniprocessor
/// `M_1(n, 1, m)` by divide and conquer.  Reads the
/// fault plan, leaf radius and tracer of `opts`; the leaf radius
/// defaults to the paper's executable diamonds (radius `max(m/2, 1)`),
/// and an explicit one serves the ablation benches (leaf size trades
/// recursion overhead against naive-execution locality loss).  An
/// active fault plan applies to the run treated as one bulk stage (the
/// uniprocessor view of DESIGN.md §14);
/// [`FaultPlan::none`](bsmp_faults::FaultPlan::none) takes the plain
/// path bit-identically.
/// A negative `steps` is a zero-step run.
pub fn run(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
) -> Result<SimReport, SimError> {
    let steps = steps.max(0);
    let leaf_h = opts.leaf.unwrap_or((prog.m() as i64 / 2).max(1));
    let meta = RunMeta {
        engine: Engine::Dnc1,
        n: spec.n,
        m: spec.m,
        p: 1,
        steps: steps as u64,
    };
    crate::uniprocessor_run(
        opts,
        meta,
        spec.neighbor_distance(),
        spec.node_mem(),
        |tracer, meta| run_clean(spec, prog, init, steps, leaf_h, tracer, meta),
    )
}

/// The fault-free run, observed by `tracer` as a single bulk stage.
fn run_clean(
    spec: &MachineSpec,
    prog: &impl LinearProgram,
    init: &[Word],
    steps: i64,
    leaf_h: i64,
    tracer: &mut Tracer,
    meta: RunMeta,
) -> Result<SimReport, SimError> {
    if spec.d != 1 {
        return Err(SimError::DimensionMismatch {
            expected: 1,
            got: spec.d,
        });
    }
    if spec.p != 1 {
        return Err(SimError::UniprocessorOnly {
            engine: Engine::Dnc1,
            p: spec.p,
        });
    }
    if prog.m() as u64 != spec.m {
        return Err(SimError::DensityMismatch {
            spec_m: spec.m,
            prog_m: prog.m() as u64,
        });
    }
    let expected = spec.n as usize * prog.m();
    if init.len() != expected {
        return Err(SimError::InitLength {
            expected,
            got: init.len(),
        });
    }
    tracer.ensure_procs(1);
    tracer.begin_stage("run");
    let mut exec = DiamondExec::new(spec, prog, steps, leaf_h);
    let (key, cached) = adopt_plan(&mut exec, spec.n, spec.m, steps, leaf_h);
    let (mem, values) = exec.run(init)?;
    harvest_plan(&mut exec, key, cached);
    let guest_time = linear_guest_time(spec, prog, steps);
    Ok(crate::bulk_report(
        tracer, meta, &exec.ram, mem, values, guest_time,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::run_linear;
    use bsmp_workloads::{inputs, CyclicWave, Eca, OddEvenSort, TokenShift};

    fn check_equiv(prog: &impl LinearProgram, n: u64, steps: i64, init: &[Word]) -> SimReport {
        let spec = MachineSpec::new(1, n, 1, prog.m() as u64);
        let guest = run_linear(&spec, prog, init, steps);
        let rep = run(&spec, prog, init, steps, RunOpts::default()).unwrap();
        rep.assert_matches(&guest.mem, &guest.values);
        rep
    }

    #[test]
    fn token_shift_tiny() {
        let init: Vec<Word> = vec![10, 20, 30, 40];
        check_equiv(&TokenShift::new(7), 4, 4, &init);
    }

    #[test]
    fn rule110_various_sizes() {
        for n in [4u64, 8, 16, 32, 64] {
            let init = inputs::random_bits(n, n as usize);
            check_equiv(&Eca::rule110(), n, n as i64, &init);
        }
    }

    #[test]
    fn non_square_time_ranges() {
        // T ≠ n exercises clipped top/bottom tiles.
        let init = inputs::random_bits(20, 16);
        for steps in [1i64, 3, 7, 16, 40] {
            check_equiv(&Eca::rule90(), 16, steps, &init);
        }
    }

    #[test]
    fn odd_sizes() {
        for n in [3u64, 5, 7, 13] {
            let init = inputs::random_bits(n, n as usize);
            check_equiv(&Eca::rule110(), n, (n + 2) as i64, &init);
        }
    }

    #[test]
    fn sorting_via_dnc() {
        let init = inputs::random_words(21, 16, 500);
        let rep = check_equiv(&OddEvenSort::new(16), 16, 16, &init);
        let mut expect = init.clone();
        expect.sort();
        assert_eq!(rep.values, expect);
    }

    #[test]
    fn multi_cell_wave_equivalence() {
        for m in [2usize, 3, 4, 8] {
            let n = 16usize;
            let init = inputs::random_words(22 + m as u64, n * m, 100);
            check_equiv(&CyclicWave::new(m), n as u64, 20, &init);
        }
    }

    #[test]
    fn m_exceeding_n_still_works() {
        // Range-4 situation: the executable diamond swallows everything.
        let (n, m) = (8usize, 16usize);
        let init = inputs::random_words(30, n * m, 100);
        check_equiv(&CyclicWave::new(m), n as u64, 12, &init);
    }

    #[test]
    fn dnc_beats_naive_for_small_m() {
        // Theorem 2 vs Proposition 1: n·log n ≪ n² asymptotically.  The
        // scheme's constants (Proposition 3's τ₀) put the crossover near
        // n ≈ 300 in this implementation; at n = 512 D&C wins clearly,
        // and its advantage doubles with n (shape check).
        let n = 512u64;
        let init = inputs::random_bits(23, n as usize);
        let spec = MachineSpec::new(1, n, 1, 1);
        let dnc = run(&spec, &Eca::rule90(), &init, n as i64, RunOpts::default()).unwrap();
        let naive =
            crate::naive1::run(&spec, &Eca::rule90(), &init, n as i64, RunOpts::default()).unwrap();
        assert!(
            dnc.host_time < naive.host_time / 1.3,
            "D&C {} should beat naive {}",
            dnc.host_time,
            naive.host_time
        );
    }

    #[test]
    fn slowdown_tracks_n_log_n() {
        // Theorem 2 shape: slowdown(2n)/slowdown(n) ≈ 2·log(2n)/log(n),
        // clearly below the naive ratio of 4.
        let init_a = inputs::random_bits(24, 64);
        let init_b = inputs::random_bits(25, 128);
        let s_a = check_equiv(&Eca::rule90(), 64, 64, &init_a).slowdown();
        let s_b = check_equiv(&Eca::rule90(), 128, 128, &init_b).slowdown();
        let ratio = s_b / s_a;
        assert!(ratio > 1.6 && ratio < 3.4, "n log n doubling, got {ratio}");
    }

    #[test]
    fn space_is_near_linear_not_quadratic() {
        // Proposition 3: σ(|V|) = O(|V|^{1/2}) = O(n) for T = n — so
        // doubling n doubles (not quadruples) the footprint.
        let s128 = {
            let init = inputs::random_bits(26, 128);
            check_equiv(&Eca::rule90(), 128, 128, &init).space as f64
        };
        let s256 = {
            let init = inputs::random_bits(26, 256);
            check_equiv(&Eca::rule90(), 256, 256, &init).space as f64
        };
        let ratio = s256 / s128;
        assert!(
            ratio < 2.5,
            "space should scale ~linearly in n, got ×{ratio}"
        );
        assert!((s256 as usize) < 256 * 256 / 4, "far below |V|");
    }

    #[test]
    fn multiprocessor_spec_is_rejected() {
        let init = inputs::random_bits(31, 16);
        let spec = MachineSpec::new(1, 16, 4, 1);
        assert_eq!(
            run(&spec, &Eca::rule110(), &init, 4, RunOpts::default()).err(),
            Some(SimError::UniprocessorOnly {
                engine: Engine::Dnc1,
                p: 4
            })
        );
    }

    #[test]
    fn leaf_size_ablation_runs() {
        let n = 32u64;
        let init = inputs::random_bits(27, n as usize);
        let spec = MachineSpec::new(1, n, 1, 1);
        let guest = run_linear(&spec, &Eca::rule110(), &init, n as i64);
        for leaf in [1i64, 2, 4, 8] {
            let opts = RunOpts::default().leaf(leaf);
            let rep = run(&spec, &Eca::rule110(), &init, n as i64, opts).unwrap();
            rep.assert_matches(&guest.mem, &guest.values);
        }
    }
}
