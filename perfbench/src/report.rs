//! Metric collection and the report every run prints.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Untraced runs put the
//! [`END_TO_END`] metrics in it, traced runs the [`PER_LAYER`] ones; the
//! lines before it print every metric that applies to the workload.

use std::collections::BTreeMap;

use crate::stats::{self, Outcomes};

/// End-to-end metrics every workload reports, with their units. The
/// workload-specific ones (latency percentiles, commit latency, stored bytes,
/// scanned bytes, failed share) are printed beside them.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_geomean_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, with their units. A layer that is not
/// on a workload's path reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("jsoniq.parse_ms", "ms"),
    ("jsoniq.rewrite_ms", "ms"),
    ("jsoniq.itertree_ms", "ms"),
    ("jsoniq.translate_ms", "ms"),
    ("jsoniq.iterators", "count"),
    ("snowpark.sql_bytes", "bytes"),
    ("sql.parse_ms", "ms"),
    ("plan.bind_ms", "ms"),
    ("optimize.ms", "ms"),
    ("plan.lower_ms", "ms"),
    ("plan.nodes", "count"),
    ("plan.ops", "count"),
    ("exec.wall_ms", "ms"),
    ("exec.scan_ms", "ms"),
    ("exec.filter_ms", "ms"),
    ("exec.project_ms", "ms"),
    ("exec.flatten_ms", "ms"),
    ("exec.aggregate_ms", "ms"),
    ("exec.join_ms", "ms"),
    ("exec.sort_ms", "ms"),
    ("exec.other_ms", "ms"),
    ("exec.rows_out", "count"),
    ("exec.vectorized_share", "ratio"),
    ("exec.on_codes_share", "ratio"),
    ("exec.peak_mem_mb", "MiB"),
    ("exec.parallel_efficiency", "ratio"),
    ("result.rows_ms", "ms"),
    ("result.rows", "count"),
    ("storage.scanned_mb", "MiB"),
    ("storage.rows_scanned", "count"),
    ("storage.pruned_share", "ratio"),
    ("storage.columns_skipped", "count"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.cache_evictions", "count"),
    ("store.live_partitions", "count"),
    ("store.partitions_written", "count"),
    ("store.disk_mb", "MiB"),
    ("ingest.parse_ms", "ms"),
    ("ingest.commit_ms", "ms"),
    ("compact.passes", "count"),
    ("compact.compactions", "count"),
    ("compact.conflicts_lost_share", "ratio"),
    ("compact.errors", "count"),
    ("server.engine_ms", "ms"),
    ("server.queue_ms", "ms"),
    ("server.wire_ms", "ms"),
    ("server.rejected", "count"),
    ("gen.late_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.accounted_share", "ratio"),
];

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Named metrics in name order.
#[derive(Clone, Debug, Default)]
pub struct Metrics(pub BTreeMap<String, Metric>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.set_owned(name.to_string(), value, unit);
    }

    pub fn set_owned(&mut self, name: String, value: f64, unit: &'static str) {
        self.0.insert(name, Metric { value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }

    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }
}

/// One timed execution of a workload's query.
#[derive(Clone, Debug)]
pub struct Sample {
    pub query: String,
    pub latency_ms: f64,
    pub bytes_scanned: u64,
}

/// Samples of a closed loop plus its outcomes.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    pub ok: Vec<Sample>,
    pub outcomes: Outcomes,
}

impl Samples {
    pub fn push(&mut self, s: Sample) {
        self.outcomes.record(true);
        self.ok.push(s);
    }

    pub fn fail(&mut self) {
        self.outcomes.record(false);
    }

    pub fn extend(&mut self, other: Samples) {
        self.ok.extend(other.ok);
        self.outcomes.merge(other.outcomes);
    }

    pub fn latencies(&self) -> Vec<f64> {
        self.ok.iter().map(|s| s.latency_ms).collect()
    }

    pub fn mean_latency_ms(&self) -> f64 {
        self.latencies().iter().sum::<f64>() / self.ok.len().max(1) as f64
    }

    pub fn by_query(&self) -> BTreeMap<String, Vec<f64>> {
        let mut g: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in &self.ok {
            g.entry(s.query.clone()).or_default().push(s.latency_ms);
        }
        g
    }

    /// Closed-loop metrics over a timed loop of `wall_s` seconds.
    /// `pooled` adds the pooled latency median and tail.
    pub fn loop_metrics(&self, wall_s: f64, pooled: bool, m: &mut Metrics) {
        m.set("queries_per_s", self.ok.len() as f64 / wall_s, "1/s");
        m.set(
            "query_geomean_ms",
            stats::geomean_of_medians(&self.by_query()).unwrap_or(0.0),
            "ms",
        );
        let bytes: u64 = self.ok.iter().map(|s| s.bytes_scanned).sum();
        m.set(
            "scanned_mb_per_query",
            bytes as f64 / (1024.0 * 1024.0) / self.ok.len().max(1) as f64,
            "MiB",
        );
        if pooled {
            let lat = self.latencies();
            m.set(
                "latency_p50_ms",
                stats::percentile(&lat, 50.0).unwrap_or(0.0),
                "ms",
            );
            tail_metric("latency_tail_ms", &lat, m);
        }
    }
}

/// Sets `name` to the tail of `samples`, recording the percentile used, the
/// count beyond it and the sample count as `<name>.pct`, `<name>.beyond` and
/// `<name>.samples`.
pub fn tail_metric(name: &str, samples: &[f64], m: &mut Metrics) {
    match stats::tail(samples) {
        Some(t) => {
            m.set(name, t.value, "ms");
            m.set_owned(format!("{name}.pct"), t.percentile, "pct");
            m.set_owned(format!("{name}.beyond"), t.beyond as f64, "count");
            m.set_owned(format!("{name}.samples"), t.samples as f64, "count");
        }
        // Too few samples for any tail percentile: reported as absent.
        None => m.set_owned(format!("{name}.samples"), samples.len() as f64, "count"),
    }
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Configuration and context lines: sizes, seeds, rates, cache.
    pub info: Vec<String>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    pub outcomes: Outcomes,
    /// Descriptions of wrong answers and errors (capped when printed).
    pub problems: Vec<String>,
}

impl Report {
    pub fn info(&mut self, line: String) {
        self.info.push(line);
    }

    pub fn problem(&mut self, line: String) {
        self.problems.push(line);
    }

    /// Prints the report and returns whether every answer was correct.
    pub fn print(&self, workload: &str, traced: bool) -> bool {
        println!(
            "workload {workload} ({})",
            if traced { "traced" } else { "untraced" }
        );
        for line in &self.info {
            println!("  {line}");
        }
        let show = |title: &str, m: &Metrics| {
            println!("{title}:");
            for (name, metric) in &m.0 {
                println!("  {name:<34} {:>14.6} {}", metric.value, metric.unit);
            }
        };
        show("end-to-end", &self.end_to_end);
        if traced {
            show("per-layer", &self.per_layer);
        }
        for p in self.problems.iter().take(20) {
            println!("  FAILED: {p}");
        }
        let (table, source): (&[(&str, &str)], &Metrics) = if traced {
            (&PER_LAYER, &self.per_layer)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let mut correct = self.outcomes.failed == 0 && self.outcomes.attempted > 0;
        let mut fields = Vec::with_capacity(table.len());
        for (name, unit) in table {
            let value = match source.get(name) {
                Some(v) if v.is_finite() => v,
                // A traced layer that is off the workload's path reads 0.
                None if traced => 0.0,
                other => {
                    println!("  FAILED: metric {name} is {other:?}");
                    correct = false;
                    0.0
                }
            };
            fields.push(format!(
                r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#
            ));
        }
        println!(
            r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.outcomes.attempted,
            self.outcomes.failed,
            fields.join(", ")
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables must match `BENCHMARK.json` name for name and unit
    /// for unit, so the declared metrics and the printed JSON agree.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = snowdb::variant::parse_json(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get_field(key)
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get_field(f).as_str().expect("string field").to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let ours = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(&END_TO_END));
        assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    }
}
