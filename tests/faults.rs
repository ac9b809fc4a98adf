//! Integration tests of the deterministic fault-injection layer: under
//! any fault plan the engines stay *functionally* equivalent to direct
//! guest execution (checkpoint/restore replays the same deterministic
//! stage), while the clock-level accounting obeys the analytic envelope
//! `T_p(ν) ≤ ν · T_p(1)` for a uniform link slowdown ν (communication
//! is only a part of each stage's critical path, so inflating it by ν
//! inflates the stage by at most ν).

use bsmp::machine::{run_linear, run_mesh, MachineSpec};
use bsmp::sim::{self, multi2, naive1, Engine, RunOpts};
use bsmp::workloads::{inputs, Eca, VonNeumannLife};
use bsmp::{FaultPlan, SimReport, Simulation, Strategy};

const NUS: [f64; 3] = [1.0, 2.0, 4.0];

/// Check one engine run against the guest and the ν-envelope.
fn check_envelope(base: &SimReport, faulted: &SimReport, nu: f64, tag: &str) {
    faulted
        .check_matches(&base.mem, &base.values)
        .unwrap_or_else(|e| panic!("{tag} ν={nu}: {e}"));
    assert!(
        base.host_time <= faulted.host_time + 1e-9,
        "{tag} ν={nu}: faulted run finished early ({} < {})",
        faulted.host_time,
        base.host_time
    );
    assert!(
        faulted.host_time <= nu * base.host_time + 1e-6,
        "{tag} ν={nu}: {} exceeds ν-envelope {}",
        faulted.host_time,
        nu * base.host_time
    );
    if nu == 1.0 {
        assert_eq!(
            faulted.host_time.to_bits(),
            base.host_time.to_bits(),
            "{tag}: ν=1 must be bit-identical"
        );
    }
}

#[test]
fn uniform_slowdown_envelope_linear_engines() {
    let n = 64u64;
    let init = inputs::random_bits(90, n as usize);
    let prog = Eca::rule110();
    let spec = MachineSpec::new(1, n, 8, 1);
    let guest = run_linear(&spec, &prog, &init, 32);

    for engine in [Engine::Naive1, Engine::Multi1, Engine::Pipelined1] {
        let run = |plan| {
            let opts = RunOpts::default().plan(plan);
            sim::run_linear(engine, &spec, &prog, &init, 32, opts).unwrap()
        };
        let base = run(FaultPlan::none());
        base.assert_matches(&guest.mem, &guest.values);
        for nu in NUS {
            check_envelope(
                &base,
                &run(FaultPlan::uniform_slowdown(nu)),
                nu,
                engine.name(),
            );
        }
    }
}

#[test]
fn uniform_slowdown_envelope_mesh_engines() {
    let init = inputs::random_bits(91, 64);
    let prog = VonNeumannLife::fredkin();
    let spec = MachineSpec::new(2, 64, 4, 1);
    let guest = run_mesh(&spec, &prog, &init, 8);

    for engine in [Engine::Naive2, Engine::Multi2] {
        let run = |plan| {
            let opts = RunOpts::default().plan(plan);
            sim::run_mesh(engine, &spec, &prog, &init, 8, opts).unwrap()
        };
        let base = run(FaultPlan::none());
        base.assert_matches(&guest.mem, &guest.values);
        for nu in NUS {
            check_envelope(
                &base,
                &run(FaultPlan::uniform_slowdown(nu)),
                nu,
                engine.name(),
            );
        }
    }
}

#[test]
fn lossy_and_crashy_runs_stay_functionally_equivalent() {
    let n = 64u64;
    let init = inputs::random_bits(92, n as usize);
    let prog = Eca::rule90();
    let spec = MachineSpec::new(1, n, 8, 1);
    let guest = run_linear(&spec, &prog, &init, 48);

    // Heavy losses + jitter + random crashes: values must still match
    // guest execution, and the accounting must show the faults happened.
    let plan = FaultPlan::none()
        .seed(0xBAD5EED)
        .jitter(1.0, 3.0)
        .loss(200, 4)
        .random_crashes(30);
    let rep = naive1::run(&spec, &prog, &init, 48, RunOpts::default().plan(plan)).unwrap();
    rep.assert_matches(&guest.mem, &guest.values);
    assert!(
        rep.faults.retries > 0,
        "200‰ loss over 48 stages must retry"
    );
    assert!(
        rep.faults.recovered_stages > 0,
        "30‰ crash rate over 48×8 draws must crash"
    );
    assert!(rep.faults.injected_delay > 0.0);

    // And identically so on re-run (stateless hash-derived draws).
    let again = naive1::run(&spec, &prog, &init, 48, RunOpts::default().plan(plan)).unwrap();
    assert_eq!(rep.host_time.to_bits(), again.host_time.to_bits());
    assert_eq!(rep.faults, again.faults);
}

#[test]
fn crash_at_specific_stage_charges_recovery_once() {
    let n = 32u64;
    let init = inputs::random_bits(93, n as usize);
    let prog = Eca::rule110();
    let spec = MachineSpec::new(1, n, 4, 1);
    let base = naive1::run(&spec, &prog, &init, 16, RunOpts::default()).unwrap();
    let plan = FaultPlan::none().crash_at(5, 2);
    let rep = naive1::run(&spec, &prog, &init, 16, RunOpts::default().plan(plan)).unwrap();
    rep.assert_matches(&base.mem, &base.values);
    assert_eq!(rep.faults.crashes, 1);
    assert_eq!(rep.faults.recovered_stages, 1);
    assert!(
        rep.host_time > base.host_time,
        "recovery re-execution must cost time"
    );
}

#[test]
fn facade_respects_envelope_end_to_end() {
    let init = inputs::random_bits(94, 64);
    let prog = Eca::rule110();
    let base = Simulation::linear(64, 4, 1)
        .strategy(Strategy::TwoRegime)
        .try_run(&prog, &init, 64)
        .unwrap();
    for nu in NUS {
        let rep = Simulation::linear(64, 4, 1)
            .strategy(Strategy::TwoRegime)
            .faults(FaultPlan::uniform_slowdown(nu))
            .try_run(&prog, &init, 64)
            .unwrap();
        check_envelope(&base.sim, &rep.sim, nu, "facade/two-regime");
    }
}

#[test]
fn empty_plan_is_bitwise_neutral_across_engines() {
    let init1 = inputs::random_bits(95, 64);
    let spec1 = MachineSpec::new(1, 64, 4, 1);
    let prog1 = Eca::rule110();
    let empty = || RunOpts::default().plan(FaultPlan::none().seed(0x5EED));
    let plain = naive1::run(&spec1, &prog1, &init1, 32, RunOpts::default()).unwrap();
    let none = naive1::run(&spec1, &prog1, &init1, 32, empty()).unwrap();
    assert_eq!(plain.host_time.to_bits(), none.host_time.to_bits());

    let init2 = inputs::random_bits(96, 64);
    let spec2 = MachineSpec::new(2, 64, 4, 1);
    let prog2 = VonNeumannLife::fredkin();
    let plain2 = multi2::run(&spec2, &prog2, &init2, 6, RunOpts::default()).unwrap();
    let none2 = multi2::run(&spec2, &prog2, &init2, 6, empty()).unwrap();
    assert_eq!(plain2.host_time.to_bits(), none2.host_time.to_bits());
    assert_eq!(plain2.stages, none2.stages);
}

#[test]
fn invalid_plans_are_rejected_not_panicked() {
    let init = inputs::random_bits(97, 64);
    let spec = MachineSpec::new(1, 64, 4, 1);
    let prog = Eca::rule110();
    for bad in [
        FaultPlan::uniform_slowdown(0.5),
        FaultPlan::uniform_slowdown(f64::NAN),
        FaultPlan::none().jitter(3.0, 2.0),
        FaultPlan::none().loss(1_001, 1),
        FaultPlan::none().random_crashes(2_000),
    ] {
        let err = naive1::run(&spec, &prog, &init, 8, RunOpts::default().plan(bad));
        assert!(
            matches!(err, Err(bsmp::SimError::Fault(_))),
            "plan {bad:?} must be rejected"
        );
    }
}
