//! Golden model statistics.
//!
//! A simulation's model-side output (host and guest model time, the cost
//! meter, stage count, fault accounting) depends on the shape and fault
//! plan but never on the input seed: that is the functional-equivalence
//! invariant every engine keeps.  So each shape has one record, committed
//! in `golden.json`, and every job the benchmark runs must reproduce it
//! bit for bit.

use std::collections::BTreeMap;
use std::path::Path;

use bsmp::trace::json::{parse, Val};
use bsmp::SimReport;

/// Schema tag of `golden.json`.
const SCHEMA: &str = "perfbench-golden/v1";

/// Model statistics of one run, each as exact bits (`f64::to_bits` for
/// real-valued fields).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelStats(pub Vec<(&'static str, u64)>);

/// Real-valued fields, in record order.
const FLOAT_FIELDS: [&str; 6] = [
    "host_time",
    "guest_time",
    "compute",
    "access",
    "transfer",
    "comm",
];

/// Fault counters, in record order, with whether each is real-valued.
const FAULT_FIELDS: [(&str, bool); 11] = [
    ("retries", false),
    ("recovered", false),
    ("crashes", false),
    ("injected_delay", true),
    ("outage_stages", false),
    ("deferred_comm", true),
    ("heals", false),
    ("departures", false),
    ("rejoins", false),
    ("backoff_retries", false),
    ("backoff_delay", true),
];

impl ModelStats {
    /// The statistics of an engine report.
    pub fn of(r: &SimReport) -> Self {
        let m = &r.meter;
        let f = &r.faults;
        let floats = [
            r.host_time,
            r.guest_time,
            m.compute,
            m.access,
            m.transfer,
            m.comm,
        ];
        let mut v: Vec<(&'static str, u64)> = FLOAT_FIELDS
            .iter()
            .zip(floats)
            .map(|(k, x)| (*k, x.to_bits()))
            .collect();
        v.push(("ops", m.ops));
        v.push(("stages", r.stages));
        let faults = [
            f.retries,
            f.recovered_stages,
            f.crashes,
            f.injected_delay.to_bits(),
            f.outage_stages,
            f.deferred_comm.to_bits(),
            f.heals,
            f.departures,
            f.rejoins,
            f.backoff_retries,
            f.backoff_delay.to_bits(),
        ];
        v.extend(FAULT_FIELDS.iter().zip(faults).map(|((k, _), x)| (*k, x)));
        ModelStats(v)
    }

    /// The statistics carried by a `bsmp-serve/v1` result line.  A line
    /// without a `faults` object reports a fault-free run (all zeros).
    pub fn of_result_line(line: &Val) -> Result<Self, String> {
        let num = |obj: &Val, key: &str| -> Result<f64, String> {
            obj.get(key)
                .and_then(Val::as_f64)
                .ok_or_else(|| format!("result line lacks numeric {key:?}"))
        };
        let mut v = Vec::new();
        for k in FLOAT_FIELDS {
            v.push((k, num(line, k)?.to_bits()));
        }
        v.push(("ops", num(line, "ops")? as u64));
        v.push(("stages", num(line, "stages")? as u64));
        let faults = line.get("faults");
        for (k, real) in FAULT_FIELDS {
            let x = match faults {
                Some(f) => num(f, k)?,
                None => 0.0,
            };
            v.push((k, if real { x.to_bits() } else { x as u64 }));
        }
        Ok(ModelStats(v))
    }
}

/// The committed per-shape records.
#[derive(Debug, Default)]
pub struct Golden {
    records: BTreeMap<String, ModelStats>,
}

impl Golden {
    /// Parse `golden.json` text.
    pub fn parse(src: &str) -> Result<Self, String> {
        let doc = parse(src)?;
        if doc.get("schema").and_then(Val::as_str) != Some(SCHEMA) {
            return Err(format!("golden file is not {SCHEMA}"));
        }
        let Some(Val::Obj(recs)) = doc.get("records") else {
            return Err("golden file lacks \"records\"".into());
        };
        let mut records = BTreeMap::new();
        for (key, rec) in recs {
            let Val::Obj(fields) = rec else {
                return Err(format!("record {key:?} is not an object"));
            };
            let mut v = Vec::new();
            for (name, val) in fields {
                let name = field_name(name).ok_or_else(|| format!("unknown field {name:?}"))?;
                let hex = val
                    .as_str()
                    .and_then(|s| s.strip_prefix("0x"))
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or_else(|| format!("{key}.{name} is not a 0x-hex string"))?;
                v.push((name, hex));
            }
            records.insert(key.clone(), ModelStats(v));
        }
        Ok(Golden { records })
    }

    /// Load `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&src)
    }

    /// Check one job's statistics against the record for `key`.
    pub fn check(&self, key: &str, got: &ModelStats) -> Result<(), String> {
        let want = self
            .records
            .get(key)
            .ok_or_else(|| format!("no golden record for {key}"))?;
        if want == got {
            return Ok(());
        }
        let diffs: Vec<String> = want
            .0
            .iter()
            .zip(&got.0)
            .filter(|(a, b)| a != b)
            .map(|((k, a), (_, b))| format!("{k}: golden {a:#x}, got {b:#x}"))
            .collect();
        Err(format!("{key}: {}", diffs.join("; ")))
    }

    pub fn get(&self, key: &str) -> Option<&ModelStats> {
        self.records.get(key)
    }

    /// Take every record of `other`, replacing same-keyed ones.
    pub fn merge(&mut self, other: Golden) {
        self.records.extend(other.records);
    }

    /// Record (or replace) `key`.
    pub fn set(&mut self, key: &str, stats: ModelStats) {
        self.records.insert(key.to_string(), stats);
    }

    /// Serialize, one record per line, keys sorted.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"schema\": \"{SCHEMA}\", \"records\": {{\n");
        let n = self.records.len();
        for (i, (key, st)) in self.records.iter().enumerate() {
            let fields: Vec<String> =
                st.0.iter()
                    .map(|(k, v)| format!("\"{k}\": \"{v:#x}\""))
                    .collect();
            s.push_str(&format!("  \"{key}\": {{{}}}", fields.join(", ")));
            s.push_str(if i + 1 < n { ",\n" } else { "\n" });
        }
        s.push_str("}}\n");
        s
    }
}

fn field_name(name: &str) -> Option<&'static str> {
    FLOAT_FIELDS
        .iter()
        .copied()
        .chain(["ops", "stages"])
        .chain(FAULT_FIELDS.iter().map(|(k, _)| *k))
        .find(|k| *k == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsmp::serve_suite::run_shape;
    use bsmp::{FaultPlan, Tracer};

    fn report(seed: u64) -> SimReport {
        let plan = FaultPlan::none().seed(3).jitter(1.0, 2.0).loss(50, 4);
        run_shape("naive1", 1, 64, 1, 4, 16, seed, &plan, &mut Tracer::off()).unwrap()
    }

    #[test]
    fn records_round_trip_and_are_seed_independent() {
        let mut g = Golden::default();
        g.set("t/naive1", ModelStats::of(&report(1)));
        let back = Golden::parse(&g.to_json()).unwrap();
        back.check("t/naive1", &ModelStats::of(&report(2))).unwrap();
    }

    #[test]
    fn a_single_perturbed_bit_is_rejected() {
        let stats = ModelStats::of(&report(1));
        let mut g = Golden::default();
        g.set("t/naive1", stats.clone());
        for i in 0..stats.0.len() {
            let mut bad = stats.clone();
            bad.0[i].1 ^= 1;
            let err = g.check("t/naive1", &bad).unwrap_err();
            assert!(err.contains(bad.0[i].0), "{err}");
        }
        assert!(g.check("t/other", &stats).is_err());
    }

    #[test]
    fn result_line_stats_match_the_report() {
        use bsmp::serve_suite::{parse_job, result_line, run_job};
        let job = parse_job(
            r#"{"id": 1, "engine": "naive1", "n": 64, "p": 4, "steps": 16, "seed": 9,
                "faults": {"seed": 3, "slowdown": {"model": "jitter", "lo": 1.0, "hi": 2.0},
                           "loss": {"loss_permille": 50, "max_retries": 4}}}"#,
        )
        .unwrap();
        let out = run_job(&job).unwrap();
        let line = parse(&result_line(&job, &out)).unwrap();
        assert_eq!(
            ModelStats::of_result_line(&line).unwrap(),
            ModelStats::of(&out.report)
        );
    }
}
