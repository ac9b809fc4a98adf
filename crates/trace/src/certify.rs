//! Two-sided bound certification for recorded runs.
//!
//! A [`RunTrace`] carries everything needed to sandwich a run between
//! the paper's envelopes: the measured slowdown `host_time/guest_time`
//! must sit between the Gunther/Brent critical-path floor
//! ([`bsmp_analytic::lower::brent_floor`]) and the engine's own upper
//! form from Theorems 1–5 (with a documented slack constant), and the
//! distance-weighted communication total must sit between the
//! Scquizzato–Silvestri-style cut floor
//! ([`bsmp_analytic::lower::comm_floor`]) and the run's busy time
//! (every unit of communication delay is charged to some processor's
//! clock, so `comm ≤ Σ busy` whenever no churn rescheduled work).
//!
//! [`certify`] distinguishes two failure classes:
//!
//! * [`CertifyError`] — the trace cannot be certified *at all*
//!   (structurally invalid, parameters outside the bounds' domain,
//!   regime stamp disagrees with the recomputed Theorem 1 range,
//!   unknown engine).  CLI exit code 2.
//! * `verdict: Violated` in the returned [`Certificate`] — the trace is
//!   well-formed but a measured figure escapes its envelope, which
//!   means either the trace was tampered with or the reporting path is
//!   broken.  CLI exit code 1.
//!
//! ### Fault adjustment
//!
//! Injected fault delay inflates `host_time` above what the clean
//! engine would report, so the *upper* checks use the fault-adjusted
//! time `host_time − injected_delay`.  The fault session accumulates
//! `injected_delay` as `Σ_stages (faulted_max − raw_max)⁺`, so the
//! adjusted time never exceeds the clean host time and the upper
//! envelope stays sound under every fault plan.  The *lower* checks use
//! the raw measured figures (faults only add time, never remove it).
//! When a plan involves churn (processors leaving and rejoining), work
//! can be deferred across stage boundaries and the fault-free busy
//! ledger is no longer an upper bound for the fault-free comm ledger of
//! the same stages, so the `comm ≤ Σ busy` check is skipped (the floor
//! still applies: settlement repays deferred work before the run ends).
//!
//! Traces recorded under [`CostModel::Instantaneous`] price every hop
//! at 0; the schema does not record the cost model, so `certify`
//! assumes bounded-speed propagation and the façade refuses to certify
//! instantaneous runs.

use crate::json::{escape, num};
use crate::{Engine, RunTrace};
use bsmp_analytic::lower::{brent_floor, check_params, comm_floor, BoundError};
use bsmp_analytic::{logp2, theorem1, theorem4};

/// Relative tolerance for envelope comparisons: measured figures are
/// telescoped f64 ledgers, so exact comparisons would flag honest
/// rounding as violations.
const REL_TOL: f64 = 1e-6;

/// Slack constant applied to the naive engines' upper form
/// `q·((m+2)q)^{1/d}` (per-step constants: six sub-phases per guest
/// step plus tiling overheads).
const SLACK_NAIVE: f64 = 16.0;
/// Slack for the `d = 1` D&C engine.  Its recursion relocates the
/// block private memories at every level (the Section 4.1 variant), so
/// its cost carries both Theorem 3's combined form and an `m·log n`
/// relocation term; calibration at n = 64 puts the worst measured/form
/// ratio near 69 (shrinking with n), so 128 leaves ~2× headroom.
const SLACK_DNC1: f64 = 128.0;
/// Slack for the `d ≥ 2` D&C engines' Theorem 1/5 forms (recursion
/// constants and the leaf-size rounding; worst calibrated ratio ~10).
const SLACK_DNC: f64 = 32.0;
/// Slack for the Theorem 4 strip scheme: the engine picks the closest
/// *admissible* strip (power of two, dividing n, a multiple of p
/// strips) and pays non-amortized relocation constants on top of λ.
/// The measured/`q·λ(s*)` ratio is flat in n (≈187 at m = 1, less for
/// m > 1), so 512 leaves ~2.7× headroom at the worst calibrated point.
const SLACK_MULTI1: f64 = 512.0;
/// Slack for the d = 2 honeycomb scheme (Theorem 1 form plus the
/// naive-priced setup/drain stages).
const SLACK_MULTI2: f64 = 32.0;
/// Slack for the Section 6 pipelined-memory machine (batch constants).
const SLACK_PIPELINED: f64 = 32.0;

/// Outcome of a certification pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every measured figure sits inside its envelope.
    Certified,
    /// A measured figure escaped an envelope; see
    /// [`Certificate::failures`].
    Violated,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Certified => write!(f, "Certified"),
            Verdict::Violated => write!(f, "Violated"),
        }
    }
}

/// The per-stage sandwich `busy/p ≤ cost ≤ busy`: a stage's parallel
/// cost (max over processors) is bracketed by the average and the sum
/// of the per-processor busy times.
#[derive(Clone, Debug, PartialEq)]
pub struct StageCheck {
    /// Stage index.
    pub stage: u64,
    /// `busy / p` — the balance floor.
    pub lower: f64,
    /// The stage's recorded parallel cost.
    pub measured: f64,
    /// The stage's recorded busy total.
    pub upper: f64,
    /// Whether the sandwich holds (within [`REL_TOL`]).
    pub ok: bool,
}

/// A certified (or refuted) sandwich for one traced run.
#[derive(Clone, Debug, PartialEq)]
pub struct Certificate {
    /// Engine that produced the trace.
    pub engine: String,
    /// Theorem 1 regime (validated against the recomputed range).
    pub regime: String,
    /// Slowdown floor: `max(n/p, 1)` (Gunther/Brent).
    pub lower: f64,
    /// Measured slowdown, recomputed as `host_time / guest_time`.
    pub measured: f64,
    /// Engine-specific upper envelope (Theorem 1–5 form × slack).
    pub upper: f64,
    /// Distance-weighted communication floor (Scquizzato–Silvestri).
    pub comm_lower: f64,
    /// Measured communication delay total.
    pub comm_measured: f64,
    /// Communication ceiling: the run's busy-time total.
    pub comm_upper: f64,
    /// Per-stage sandwiches (one per recorded stage).
    pub stages: Vec<StageCheck>,
    /// Smallest headroom ratio across all active checks; `< 1` exactly
    /// when some check failed.  A margin of 2 means the tightest
    /// envelope still had 2× headroom.
    pub margin: f64,
    /// Human-readable description of every failed check.
    pub failures: Vec<String>,
    /// [`Verdict::Certified`] iff `failures` is empty.
    pub verdict: Verdict,
}

/// The trace could not be certified at all (as opposed to certifying
/// with [`Verdict::Violated`]).
#[derive(Debug, Clone, PartialEq)]
pub enum CertifyError {
    /// `RunTrace::validate` failed: the trace is structurally invalid.
    Malformed(String),
    /// The stamped regime disagrees with the Theorem 1 range recomputed
    /// from `(d, n, m, p)` — certifying against it would sandwich the
    /// run between the wrong envelopes.
    RegimeMismatch { stamped: String, expected: String },
    /// No upper form is known for this engine name.
    UnknownEngine(String),
    /// The trace parameters fall outside the bounds' domain.
    Bound(BoundError),
}

impl std::fmt::Display for CertifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertifyError::Malformed(msg) => write!(f, "malformed trace: {msg}"),
            CertifyError::RegimeMismatch { stamped, expected } => write!(
                f,
                "regime stamp {stamped} disagrees with recomputed range {expected}"
            ),
            CertifyError::UnknownEngine(e) => write!(f, "no upper envelope for engine {e:?}"),
            CertifyError::Bound(e) => write!(f, "parameters outside bound domain: {e}"),
        }
    }
}

impl std::error::Error for CertifyError {}

impl From<BoundError> for CertifyError {
    fn from(e: BoundError) -> Self {
        CertifyError::Bound(e)
    }
}

impl Engine {
    /// The engine-specific upper envelope on measured slowdown, from the
    /// theorem each engine implements.  Using the per-engine form (rather
    /// than the regime's Theorem 1 form) matters: a naive engine run in
    /// Range 1 or the strip scheme run in Range 4 legitimately exceeds
    /// the *optimal* scheme's bound while staying inside its own.
    pub fn upper_slowdown(self, n: f64, m: f64, p: f64) -> Result<f64, BoundError> {
        let q = n / p;
        let d = self.dim() as f64;
        Ok(match self {
            // Naive simulation: q points per guest step, each access
            // priced up to f((m+2)q) = ((m+2)q)^{1/d} (Proposition 1
            // generalized to m > 1 host cells per node).
            Engine::Naive1 | Engine::Naive2 | Engine::Naive3 => {
                SLACK_NAIVE * q * ((m + 2.0) * q).powf(1.0 / d)
            }
            // Theorem 3's combined form, plus the block-relocation term
            // n·m·log n that the implemented recursion (which relocates
            // whole private memories at every level) actually pays — for
            // m > n/log n the relocation term exceeds the combined form's
            // naive ceiling.
            Engine::Dnc1 => {
                let combined = bsmp_analytic::bounds::try_thm3_locality(n, m)?;
                SLACK_DNC1 * n * combined.max(m * logp2(n))
            }
            // Theorem 1's d = 2 uniprocessor form (Theorem 5 at m = 1).
            Engine::Dnc2 => SLACK_DNC * n * theorem1::try_locality_slowdown(2, n, m, 1.0)?,
            // The d = 3 analogue of Theorem 2 (Conjecture 1 form); the
            // volume engine only supports m = 1.
            Engine::Dnc3 => SLACK_DNC * n * logp2(n),
            // Theorem 4's strip scheme at the optimal strip width.
            Engine::Multi1 => {
                let s = theorem4::optimal_s(n, m, p);
                SLACK_MULTI1 * q * theorem4::try_lambda(n, m, p, s)?
            }
            // The d = 2 honeycomb scheme: Theorem 1's A(n, m, p) plus a
            // naive-priced term for the setup/drain stages.
            Engine::Multi2 => {
                let a = theorem1::try_locality_slowdown(2, n, m, p)?;
                SLACK_MULTI2 * q * (a + ((m + 2.0) * q).sqrt())
            }
            // Section 6 pipelined-memory machine: one batch of q accesses
            // per guest step, priced f(X) + k ≤ ((m+2)q)^{1/d} + q.
            Engine::Pipelined1 => SLACK_PIPELINED * (q + ((m + 2.0) * q).powf(1.0 / d)),
        })
    }
}

/// Certify one traced run against the two-sided envelopes.
///
/// Returns `Err` when the trace cannot be certified (malformed,
/// mis-stamped regime, unknown engine, parameters outside the bound
/// domain) and `Ok` with a [`Certificate`] otherwise; the certificate's
/// [`Verdict`] says whether every measured figure stayed inside its
/// envelope.
pub fn certify(trace: &RunTrace) -> Result<Certificate, CertifyError> {
    trace.validate().map_err(CertifyError::Malformed)?;
    let d = u8::try_from(trace.d)
        .map_err(|_| CertifyError::Bound(BoundError::UnsupportedDimension { d: u8::MAX }))?;
    let (n, m, p) = (trace.n as f64, trace.m as f64, trace.p as f64);
    check_params(d, n, m, p)?;
    if trace.steps == 0 {
        return Err(CertifyError::Malformed("zero guest steps".into()));
    }
    let expected = format!("{:?}", theorem1::range(d, n, m, p));
    if trace.summary.regime != expected {
        return Err(CertifyError::RegimeMismatch {
            stamped: trace.summary.regime.clone(),
            expected,
        });
    }
    let s = &trace.summary;
    if s.guest_time <= 0.0 {
        return Err(CertifyError::Malformed("non-positive guest time".into()));
    }

    let mut failures = Vec::new();
    let mut margin = f64::INFINITY;
    // Track headroom: ratio ≥ 1 means the check passed with that much
    // room; ratio < 1 is a failure.
    let mut check = |ratio: f64, failures: &mut Vec<String>, msg: &dyn Fn() -> String| {
        if ratio < margin {
            margin = ratio;
        }
        if ratio < 1.0 - REL_TOL {
            failures.push(msg());
        }
    };

    // --- Slowdown sandwich -------------------------------------------
    let measured = s.host_time / s.guest_time;
    // The stored slowdown must agree with the times it claims to
    // summarize — `RunTrace::validate` never cross-checks this, so a
    // trace with a doctored summary field lands here.
    if !close(s.slowdown, measured) {
        failures.push(format!(
            "stored slowdown {} disagrees with host/guest = {}",
            num(s.slowdown),
            num(measured)
        ));
    }
    let lower = brent_floor(n, p)?;
    check(measured / lower, &mut failures, &|| {
        format!(
            "measured slowdown {} below Brent floor {}",
            num(measured),
            num(lower)
        )
    });
    let engine = Engine::from_name(&trace.engine)
        .ok_or_else(|| CertifyError::UnknownEngine(trace.engine.clone()))?;
    if engine.dim() != d {
        return Err(CertifyError::Malformed(format!(
            "engine {engine} runs at d = {}, the trace records d = {d}",
            engine.dim()
        )));
    }
    let upper = engine.upper_slowdown(n, m, p)?;
    // Injected fault delay inflates host time; subtract it before the
    // upper check (see module docs for why this never over-corrects).
    let adjusted = (s.host_time - s.injected_delay).max(0.0) / s.guest_time;
    check(
        upper / adjusted.max(f64::MIN_POSITIVE),
        &mut failures,
        &|| {
            format!(
                "fault-adjusted slowdown {} above {} envelope {}",
                num(adjusted),
                trace.engine,
                num(upper)
            )
        },
    );

    // --- Communication sandwich --------------------------------------
    let comm_lower = comm_floor(d, n, m, p, trace.steps as f64)?;
    let comm_measured = s.comm_delay;
    if comm_lower > 0.0 {
        check(comm_measured / comm_lower, &mut failures, &|| {
            format!(
                "communication total {} below cut floor {}",
                num(comm_measured),
                num(comm_lower)
            )
        });
    }
    // Every unit of comm delay is charged to some processor's busy
    // time, so Σ busy bounds it — unless churn deferred work across
    // stages, which decouples the two fault-free ledgers.
    let comm_upper: f64 = trace.stages.iter().map(|st| st.busy).sum();
    if s.churn == 0 && comm_measured > 0.0 {
        check(comm_upper / comm_measured, &mut failures, &|| {
            format!(
                "communication total {} exceeds busy-time ceiling {}",
                num(comm_measured),
                num(comm_upper)
            )
        });
    }

    // --- Per-stage sandwich (the trace telescopes) -------------------
    let mut stages = Vec::with_capacity(trace.stages.len());
    for st in &trace.stages {
        let lo = st.busy / p;
        let ok = st.cost >= lo * (1.0 - REL_TOL) && st.cost <= st.busy * (1.0 + REL_TOL);
        if !ok {
            failures.push(format!(
                "stage {}: cost {} outside [busy/p, busy] = [{}, {}]",
                st.stage,
                num(st.cost),
                num(lo),
                num(st.busy)
            ));
        }
        stages.push(StageCheck {
            stage: st.stage,
            lower: lo,
            measured: st.cost,
            upper: st.busy,
            ok,
        });
    }

    let verdict = if failures.is_empty() {
        Verdict::Certified
    } else {
        Verdict::Violated
    };
    Ok(Certificate {
        engine: trace.engine.clone(),
        regime: s.regime.clone(),
        lower,
        measured,
        upper,
        comm_lower,
        comm_measured,
        comm_upper,
        stages,
        margin,
        failures,
        verdict,
    })
}

fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= REL_TOL * scale
}

impl Certificate {
    /// Serialize the run-level certificate (per-stage checks are
    /// summarized by their count and any failures they contributed).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        out.push_str(&format!("\"engine\": \"{}\", ", escape(&self.engine)));
        out.push_str(&format!("\"regime\": \"{}\", ", escape(&self.regime)));
        out.push_str(&format!("\"lower\": {}, ", num(self.lower)));
        out.push_str(&format!("\"measured\": {}, ", num(self.measured)));
        out.push_str(&format!("\"upper\": {}, ", num(self.upper)));
        out.push_str(&format!("\"comm_lower\": {}, ", num(self.comm_lower)));
        out.push_str(&format!("\"comm_measured\": {}, ", num(self.comm_measured)));
        out.push_str(&format!("\"comm_upper\": {}, ", num(self.comm_upper)));
        out.push_str(&format!("\"stages_checked\": {}, ", self.stages.len()));
        out.push_str(&format!("\"margin\": {}, ", num(self.margin)));
        out.push_str(&format!("\"verdict\": \"{}\", ", self.verdict));
        out.push_str("\"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape(f)));
        }
        out.push_str("]}");
        out
    }
}
