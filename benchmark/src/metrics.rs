//! The metric tables: every name the benchmark prints, with its unit and
//! direction.  BENCHMARK.json lists the same names (a test holds the two
//! together); every workload reports every one of them.

use std::collections::BTreeMap;

use crate::util::{json_number, json_string};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only; per-layer metrics have none).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the service sees; measured with tracing off.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("cpu_us_per_item", "us", Lower, 0.25),
    e2e("latency_p50_ms", "ms", Lower, 0.25),
    e2e("latency_p90_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers (layer = crate name); from the ladder and the traced run.
pub const PER_LAYER: [MetricDef; 61] = [
    layer("wpdl.parse_us_per_job", "us", Lower),
    layer("wpdl.validate_us_per_job", "us", Lower),
    layer("wpdl.xml_bytes_per_job", "bytes", Lower),
    layer("core.build_us_per_job", "us", Lower),
    layer("core.step_us_per_job", "us", Lower),
    layer("core.steps_per_job", "count", Lower),
    layer("core.task_submissions_per_job", "count", Lower),
    layer("core.task_success_ratio", "ratio", Higher),
    layer("core.ckpt_encode_us", "us", Lower),
    layer("core.ckpt_decode_us", "us", Lower),
    layer("core.ckpt_bytes", "bytes", Lower),
    layer("gridsim.event_ns_per_op", "ns", Lower),
    layer("detect.presumed_dead_per_job", "count", Lower),
    layer("detect.false_suspicions_per_job", "count", Lower),
    layer("detect.zombie_completions_per_job", "count", Lower),
    layer("trace.events_per_job", "count", Lower),
    layer("trace.bytes_per_job", "bytes", Lower),
    layer("trace.encode_us_per_job", "us", Lower),
    layer("trace.journal_write_us_per_job", "us", Lower),
    layer("serve.submit_us_p50", "us", Lower),
    layer("serve.submit_us_p90", "us", Lower),
    layer("serve.submit_self_us_p50", "us", Lower),
    layer("serve.submit_busy_s", "s", Lower),
    layer("serve.submit_rejects", "count", Lower),
    layer("serve.queue_wait_ms_p50", "ms", Lower),
    layer("serve.queue_wait_ms_p90", "ms", Lower),
    layer("serve.run_wall_us_p50", "us", Lower),
    layer("serve.run_wall_us_p90", "us", Lower),
    layer("serve.commit_wait_ms_p50", "ms", Lower),
    layer("serve.commit_wait_ms_p90", "ms", Lower),
    layer("serve.sat_latency_p99_ms", "ms", Lower),
    layer("serve.start_s", "s", Lower),
    layer("serve.drain_s", "s", Lower),
    layer("serve.recovered_jobs", "count", Higher),
    layer("serve.record_encode_us_per_job", "us", Lower),
    layer("serve.record_bytes_per_job", "bytes", Lower),
    layer("serve.task_retries_per_job", "count", Lower),
    layer("serve.steered_retries_per_job", "count", Lower),
    layer("serve.items_dead_lettered_per_job", "count", Lower),
    layer("serve.overhead_us_per_job", "us", Lower),
    layer("storage.apply_calls_per_job", "count", Lower),
    layer("storage.ops_per_apply", "count", Higher),
    layer("storage.apply_us_p50", "us", Lower),
    layer("storage.apply_us_p90", "us", Lower),
    layer("storage.apply_us_p99", "us", Lower),
    layer("storage.apply_busy_s", "s", Lower),
    layer("storage.apply_busy_share", "ratio", Lower),
    layer("storage.apply_errors", "count", Lower),
    layer("storage.group_commits_per_job", "count", Lower),
    layer("storage.wal_appends_per_job", "count", Lower),
    layer("storage.bytes_logged_per_job", "bytes", Lower),
    layer("storage.compactions", "count", Lower),
    layer("storage.read_calls_per_job", "count", Lower),
    layer("storage.read_us_p50", "us", Lower),
    layer("storage.list_us", "us", Lower),
    layer("storage.recovery_replayed_records", "count", Lower),
    layer("storage.ladder_apply_us_mem", "us", Lower),
    layer("storage.ladder_apply_us_wal", "us", Lower),
    layer("bench.generator_late_ms_p90", "ms", Lower),
    layer("bench.trace_overhead_share", "ratio", Lower),
    layer("bench.ladder_coverage", "ratio", Higher),
];

/// One reported value: the median of `reps`, with the sample count.
#[derive(Debug, Clone)]
pub struct Value {
    pub value: f64,
    /// Samples behind the value (jobs, calls, or reps).
    pub n: u64,
    /// Per-rep values, in rep order; empty for single measurements.
    pub reps: Vec<f64>,
}

/// Values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, Value>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64, n: u64) {
        self.0.insert(
            name,
            Value {
                value,
                n,
                reps: Vec::new(),
            },
        );
    }

    /// Reports the median of `reps`.
    pub fn set_reps(&mut self, name: &'static str, reps: Vec<f64>, n: u64) {
        self.0.insert(
            name,
            Value {
                value: crate::util::median(&reps),
                n,
                reps,
            },
        );
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.0.get(name)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over `defs`, in table
    /// order — the `metrics` object of the result line.  With `detail`,
    /// each entry also carries `n` and the per-rep values.
    pub fn to_json(&self, defs: &[MetricDef], detail: bool) -> String {
        let entries: Vec<String> = defs
            .iter()
            .map(|d| {
                let v = self
                    .get(d.name)
                    .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                let mut entry = format!(
                    "{}: {{\"value\": {}, \"unit\": {}",
                    json_string(d.name),
                    json_number(v.value),
                    json_string(d.unit)
                );
                if detail {
                    let reps: Vec<String> = v.reps.iter().map(|r| json_number(*r)).collect();
                    entry.push_str(&format!(
                        ", \"n\": {}, \"reps\": [{}]",
                        v.n,
                        reps.join(", ")
                    ));
                }
                entry.push('}');
                entry
            })
            .collect();
        format!("{{{}}}", entries.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::Json;
    use crate::workload::{Workload, CANONICAL_SECONDS};

    /// BENCHMARK.json is the contract the driver reads; these tables are
    /// what the program prints.  They must name the same things.
    #[test]
    fn tables_match_benchmark_json() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let table = |defs: &[MetricDef], bounds: bool| -> Vec<_> {
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        d.unit.to_string(),
                        d.better.as_str().to_string(),
                        bounds.then_some(d.bound),
                    )
                })
                .collect()
        };
        assert_eq!(listed("end_to_end"), table(&END_TO_END, true));
        assert_eq!(listed("per_layer"), table(&PER_LAYER, false));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::GATED.map(Workload::name));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(CANONICAL_SECONDS as f64)
        );
    }
}
