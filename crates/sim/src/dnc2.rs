//! **Theorem 5** — divide-and-conquer uniprocessor simulation of the
//! mesh, built on the [`crate::cellexec`] executor: for `T_n ≥ √n`,
//! a `T_n`-step computation of `M_2(n, n, 1)` runs on `M_2(n, 1, 1)`
//! with slowdown `O(n log n)`; the `m > 1` generalization mirrors
//! Theorem 3 with *executable cells* of radius `~m/2`.

use bsmp_hram::Word;
use bsmp_machine::{mesh_guest_time, MachineSpec, MeshProgram};
use bsmp_trace::{Engine, RunMeta, Tracer};

use crate::cellexec::{CellExec, MeshCells};
use crate::error::SimError;
use crate::report::SimReport;
use crate::RunOpts;

/// Simulate `steps` guest steps of `M_2(n, n, m)` on the uniprocessor
/// `M_2(n, 1, m)` by divide and conquer.  Reads the
/// fault plan, leaf radius and tracer of `opts`; the leaf radius
/// defaults to the paper's executable cells (radius `max(m/2, 1)`),
/// and an explicit one serves the ablation benches (leaf size trades
/// recursion overhead against naive-execution locality loss).  An
/// active fault plan applies to the run treated as one bulk stage (the
/// uniprocessor view of DESIGN.md §14);
/// [`FaultPlan::none`](bsmp_faults::FaultPlan::none) takes the plain
/// path bit-identically.
/// A negative `steps` is a zero-step run.
pub fn run(
    spec: &MachineSpec,
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
    opts: RunOpts,
) -> Result<SimReport, SimError> {
    let steps = steps.max(0);
    let leaf_h = opts.leaf.unwrap_or((prog.m() as i64 / 2).max(1));
    let meta = RunMeta {
        engine: Engine::Dnc2,
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
    prog: &impl MeshProgram,
    init: &[Word],
    steps: i64,
    leaf_h: i64,
    tracer: &mut Tracer,
    meta: RunMeta,
) -> Result<SimReport, SimError> {
    if spec.d != 2 {
        return Err(SimError::DimensionMismatch {
            expected: 2,
            got: spec.d,
        });
    }
    if spec.p != 1 {
        return Err(SimError::UniprocessorOnly {
            engine: Engine::Dnc2,
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
    let mut exec = CellExec::new(
        MeshCells(prog),
        spec.mesh_side() as i64,
        spec.access_fn(),
        steps,
        leaf_h,
    );
    let (mem, values) = exec.run(init)?;
    let guest_time = mesh_guest_time(spec, prog, steps);
    Ok(crate::bulk_report(
        tracer, meta, &exec.ram, mem, values, guest_time,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp_machine::run_mesh;
    use bsmp_workloads::{inputs, HeatDiffusion, SystolicMatmul, VonNeumannLife};

    fn check_equiv(prog: &impl MeshProgram, n: u64, steps: i64, init: &[Word]) -> SimReport {
        let spec = MachineSpec::new(2, n, 1, prog.m() as u64);
        let guest = run_mesh(&spec, prog, init, steps);
        let rep = run(&spec, prog, init, steps, RunOpts::default()).unwrap();
        rep.assert_matches(&guest.mem, &guest.values);
        rep
    }

    #[test]
    fn life_small_meshes() {
        for side in [2u64, 3, 4, 8] {
            let n = side * side;
            let init = inputs::random_bits(31 + side, n as usize);
            check_equiv(&VonNeumannLife::fredkin(), n, side as i64, &init);
        }
    }

    #[test]
    fn life_nonsquare_time() {
        let init = inputs::random_bits(32, 16);
        for steps in [1i64, 3, 9] {
            check_equiv(&VonNeumannLife::b2s12(), 16, steps, &init);
        }
    }

    #[test]
    fn heat_equivalence() {
        let init = inputs::random_words(33, 36, 10_000);
        check_equiv(&HeatDiffusion::new(100), 36, 7, &init);
    }

    #[test]
    fn systolic_matmul_via_dnc() {
        let s = 3usize;
        let prog = SystolicMatmul::new(s);
        let a = inputs::random_matrix(34, s, 30);
        let b = inputs::random_matrix(35, s, 30);
        let init = prog.stage_inputs(&a, &b);
        let rep = check_equiv(&prog, (s * s) as u64, prog.steps(), &init);
        let c = prog.extract_c(&rep.values);
        for r in 0..s {
            for q in 0..s {
                let expect: u64 = (0..s).map(|k| a[r][k] * b[k][q]).sum();
                assert_eq!(c[r][q], expect);
            }
        }
    }

    #[test]
    fn dnc2_beats_naive2_shape() {
        let life = VonNeumannLife::fredkin();
        // Theorem 5 vs Proposition 1 (d = 2): n·log n vs n^{3/2} — check
        // the growth-rate gap over a 4× size increase.
        let run = |side: u64| {
            let n = side * side;
            let init = inputs::random_bits(36, n as usize);
            let spec = MachineSpec::new(2, n, 1, 1);
            let d = run(&spec, &life, &init, side as i64, RunOpts::default()).unwrap();
            let v =
                crate::naive2::run(&spec, &life, &init, side as i64, RunOpts::default()).unwrap();
            (d.slowdown(), v.slowdown())
        };
        let (d8, v8) = run(8);
        let (d16, v16) = run(16);
        // Naive slowdown grows ~n^{3/2} = 8× per side-doubling (n ×4);
        // D&C grows ~n·log n ≈ 4.6×.
        let naive_growth = v16 / v8;
        let dnc_growth = d16 / d8;
        assert!(
            dnc_growth < naive_growth,
            "D&C growth {dnc_growth} must undercut naive growth {naive_growth}"
        );
        assert!(
            naive_growth > 5.5,
            "naive ~(n)^{{3/2}} growth, got {naive_growth}"
        );
        assert!(dnc_growth < 6.5, "D&C ~n log n growth, got {dnc_growth}");
    }

    #[test]
    fn multiprocessor_spec_is_rejected() {
        let life = VonNeumannLife::fredkin();
        let init = inputs::random_bits(38, 16);
        let spec = MachineSpec::new(2, 16, 4, 1);
        assert_eq!(
            run(&spec, &life, &init, 4, RunOpts::default()).err(),
            Some(SimError::UniprocessorOnly {
                engine: Engine::Dnc2,
                p: 4
            })
        );
    }

    #[test]
    fn space_scales_with_surface_not_volume() {
        let life = VonNeumannLife::fredkin();
        // Proposition 3 (γ = 2/3): σ(|V|) = O(|V|^{2/3}) = O(n) for
        // T = √n: quadrupling n (×8 vertices) should ×4 the space.
        let side_a = 8u64;
        let side_b = 16u64;
        let sp = |side: u64| {
            let n = side * side;
            let init = inputs::random_bits(37, n as usize);
            let spec = MachineSpec::new(2, n, 1, 1);
            run(&spec, &life, &init, side as i64, RunOpts::default())
                .unwrap()
                .space as f64
        };
        let ratio = sp(side_b) / sp(side_a);
        assert!(
            ratio < 6.0,
            "space should grow ~|V|^{{2/3}} (×4), got ×{ratio}"
        );
    }
}
