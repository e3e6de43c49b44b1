//! The metric catalogue and the result line.
//!
//! Every workload emits every metric of its mode, so a run of any
//! workload can be compared metric by metric with any other run of it.
//! A per-layer metric of a layer the workload does not exercise reads 0
//! (work done: none); end-to-end metrics are never 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics (untraced run): `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pricing.compute_us.vanilla_cf", "us"),
    ("pricing.compute_us.barrier_pde", "us"),
    ("pricing.compute_us.basket_mc", "us"),
    ("pricing.compute_us.localvol_mc", "us"),
    ("pricing.compute_us.american_pde", "us"),
    ("pricing.compute_us.american_lsm", "us"),
    ("pricing.ns_per_path_step.localvol_mc.w1", "ns"),
    ("pricing.ns_per_path_step.localvol_mc.w4", "ns"),
    ("pricing.ns_per_path_step.basket_mc.w1", "ns"),
    ("pricing.ns_per_path_step.basket_mc.w4", "ns"),
    ("pricing.ns_per_path_step.american_lsm.w1", "ns"),
    ("pricing.ns_per_path_step.american_lsm.w4", "ns"),
    ("pricing.busy_share", "ratio"),
    ("store.fetch_us", "us"),
    ("xdr.sload_us", "us"),
    ("xdr.unserialize_us", "us"),
    ("xdr.serialize_us", "us"),
    ("xdr.problem_bytes", "bytes"),
    ("minimpi.rtt_us", "us"),
    ("minimpi.ns_per_byte", "ns/B"),
    ("sched.decision_ns", "ns"),
    ("farm.prepare_us", "us"),
    ("farm.wire_us", "us"),
    ("farm.wait_us", "us"),
    ("farm.compute_us", "us"),
    ("farm.trace_overhead", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.memo_hit_rate", "ratio"),
    ("serve.request_p99_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.failed", "count"),
    ("nsplang.add_last_us", "us"),
    ("nsplang.add_last_us.half", "us"),
    ("nsplang.loop_ns_per_iter", "ns"),
    ("nsplang.fig4_exponent", "ratio"),
];

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured metric values of one run, keyed by name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Record `name = value`; the name must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Check that exactly the metrics of `catalogue` were recorded, all
    /// finite. Returns the problems found.
    pub fn check_complete(&self, catalogue: &[(&str, &str)]) -> Result<(), String> {
        let mut problems = Vec::new();
        for (name, _) in catalogue {
            match self.values.get(name) {
                None => problems.push(format!("{name} missing")),
                Some(v) if !v.is_finite() => problems.push(format!("{name} = {v}")),
                _ => {}
            }
        }
        for name in self.values.keys() {
            if !valid_name(name) {
                problems.push(format!("{name} is not a legal metric name"));
            }
            if !catalogue.iter().any(|(n, _)| n == name) {
                problems.push(format!("{name} not in this mode's catalogue"));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.values.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let unit = unit_of(name).expect("checked in set");
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push('}');
        out
    }
}

/// The unit a catalogued metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A JSON number with every digit Rust's shortest round-trip formatting
/// gives (integers keep a `.0` so they read as measured floats).
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    // An empty sum is -0.0; print it as 0.0.
    format!("{:?}", v + 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` fields of one top-level array of BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
        let body = &text[start..];
        let body = &body[..body.find(']').expect("array end")];
        body.split("\"name\"")
            .skip(1)
            .map(|chunk| {
                let open = chunk.find('"').expect("name value") + 1;
                let close = open + chunk[open..].find('"').expect("name end");
                chunk[open..close].to_string()
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_name(name), "{name}");
        }
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert!(!valid_name("jobs per s") && !valid_name(".x") && !valid_name(""));
    }

    #[test]
    fn catalogues_equal_the_declared_benchmark() {
        let names = |c: &[(&str, &str)]| c.iter().map(|(n, _)| n.to_string()).collect::<Vec<_>>();
        assert_eq!(declared("end_to_end"), names(END_TO_END));
        assert_eq!(declared("per_layer"), names(PER_LAYER));
    }

    #[test]
    fn completeness_check_names_missing_and_extra_metrics() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.0);
        m.set("xdr.sload_us", 2.0);
        let err = m.check_complete(END_TO_END).unwrap_err();
        assert!(err.contains("wall_s missing"));
        assert!(err.contains("xdr.sload_us not in this mode's catalogue"));
    }

    #[test]
    fn json_keeps_every_digit() {
        let mut m = Metrics::default();
        m.set("wall_s", 0.123456789012345);
        m.set("jobs_per_s", 40000.0);
        assert_eq!(
            m.to_json(),
            "{\"jobs_per_s\": {\"value\": 40000.0, \"unit\": \"1/s\"}, \
             \"wall_s\": {\"value\": 0.123456789012345, \"unit\": \"s\"}}"
        );
    }
}
