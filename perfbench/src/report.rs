//! What a run measured, and how it is printed: a human-readable report,
//! one `RECORD` line for the comparison mode, and the final result line.

use crate::stats;
use serde_json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics in the result line, with their units. Every
/// workload measures each of them (see the README for the definitions).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// The end-to-end metrics of the human-readable report, with units.
/// The latency and rate metrics exist on `serve_mix` only; the result
/// line carries them as the per-layer `serve.*` metrics of a traced run.
pub const REPORTED: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("failed_ratio", "ratio"),
    ("lat_p50_ms_low", "ms"),
    ("lat_p99_ms_low", "ms"),
    ("lat_p50_ms_high", "ms"),
    ("lat_p99_ms_high", "ms"),
    ("max_rate_rps", "1/s"),
];

/// Per-layer metrics of a traced run, with units. A layer a workload
/// does not exercise reports 0 there: that is the "no change"
/// prediction of the README's layer table.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| v.push((name.to_string(), unit));
    add("worldgen.build_s", "s");
    add("worldgen.resolvers", "count");
    for kind in goingwild::CampaignKind::ALL {
        add(&format!("collect.{}_s", kind.name()), "s");
    }
    add("collect.decomposition_overhead_s", "s");
    add("scanner.probes_sent", "count");
    add("scanner.answered_ratio", "ratio");
    add("scanner.retries", "count");
    add("scanner.timeouts", "count");
    add("scanner.enumerate_s", "s");
    add("scanner.snoop_s", "s");
    add("scanner.chaos_s", "s");
    add("netsim.udp_sent", "count");
    add("netsim.events_dispatched", "count");
    add("netsim.delivered_ratio", "ratio");
    add("netsim.fault_drops", "count");
    add("netsim.queue_depth_max", "count");
    add("netsim.us_per_event", "us");
    add("dnswire.encode_ns", "ns");
    add("dnswire.decode_ns", "ns");
    add("htmlsim.extract_us", "us");
    add("htmlsim.page_distance_us", "us");
    add("htmlsim.pairs", "count");
    add("classify.agglomerate_s", "s");
    add("classify.cluster_s", "s");
    for stage in [
        "analysis",
        "prefilter",
        "fetch",
        "cluster",
        "label",
        "unattributed",
    ] {
        add(&format!("pipeline.{stage}_s"), "s");
    }
    add("pipeline.tuples_unexpected", "count");
    add("pipeline.pages_fetched", "count");
    add("pipeline.unique_pages", "count");
    add("pipeline.clusters_formed", "count");
    // The experiments `repro --exp all` derives.
    for e in goingwild::experiments::REGISTRY {
        if e.subsumed_by.is_none() {
            add(&format!("derive.{}_s", e.id), "s");
        }
    }
    add("scanstore.store_bytes", "bytes");
    add("scanstore.records_committed", "count");
    add("scanstore.bytes_per_record", "bytes");
    add("scanstore.view_open_s", "s");
    for family in crate::serve_mix::FAMILIES {
        add(&format!("serve.engine_us_p50.{family}"), "us");
    }
    add("serve.http_overhead_us", "us");
    add("serve.cache_hit_ratio", "ratio");
    add("serve.shed", "count");
    add("serve.lat_p50_ms_low", "ms");
    add("serve.lat_p99_ms_low", "ms");
    add("serve.lat_p50_ms_high", "ms");
    add("serve.lat_p99_ms_high", "ms");
    add("serve.max_rate_rps", "1/s");
    add("loadgen.late_p99_ms", "ms");
    add("loadgen.samples_low", "count");
    add("loadgen.samples_high", "count");
    add("trace.overhead_s", "s");
    add("trace.span_coverage_ratio", "ratio");
    v
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations checked (experiments, campaigns, identity checks,
    /// requests).
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    /// Samples of the reported end-to-end metrics, by name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Sample counts per phase, for the stamp.
    pub counts: BTreeMap<String, u64>,
    /// The workload configuration, for the stamp.
    pub config: BTreeMap<&'static str, String>,
    /// FNV-1a digest of the checked output (batch text, serve bodies).
    pub digest: Option<u64>,
    /// Diagnostic lines for the human-readable report.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation; records `what` if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.problems.push(what());
        }
    }

    /// Counts `attempted` checked operations of which `failed` failed.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            self.failed += failed;
            self.problems.push(what());
        }
    }

    /// Adds one sample of a reported metric.
    pub fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    /// Sets a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.insert(name.to_string(), value);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Median of a metric's samples.
    pub fn median(&self, metric: &str) -> Option<f64> {
        self.samples.get(metric).and_then(|v| stats::median(v))
    }

    /// The end-to-end values of the result line.
    pub fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let ok = 1.0 - crate::loadgen::failed_ratio(self.attempted, self.failed);
        END_TO_END
            .iter()
            .map(|&(name, _)| {
                let v = if name == "ok_ratio" {
                    ok
                } else {
                    self.median(name).unwrap_or(0.0)
                };
                (name, v)
            })
            .collect()
    }
}

/// 64-bit FNV-1a, folded over `bytes`.
pub fn fnv1a(mut digest: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        digest ^= u64::from(b);
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    digest
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn num(v: f64) -> Value {
    Value::F64(if v.is_finite() { v } else { -1.0 })
}

/// Sample key prefix of a serve phase's ascending request latencies
/// (`lat_ms_low`, `lat_ms_high`).
pub const LATENCY_PREFIX: &str = "lat_ms_";

/// `lat_p99_ms_high` -> `(99.0, "high")`.
fn latency_metric(name: &str) -> Option<(f64, &str)> {
    let rest = name.strip_prefix("lat_p")?;
    let (p, phase) = rest.split_once("_ms_")?;
    Some((p.parse().ok()?, phase))
}

/// Prints the human-readable report lines.
pub fn print_human(workload: &str, out: &Outcome, stamp: &Value) {
    println!("# perfbench {workload}");
    println!(
        "# stamp {}",
        serde_json::to_string(stamp).expect("stamp serializes")
    );
    println!("# end-to-end (median; highest percentile with >= 10 samples beyond it; samples)");
    for &(name, unit) in REPORTED {
        let line = if name == "failed_ratio" {
            let r = crate::loadgen::failed_ratio(out.attempted, out.failed);
            format!(
                "{r:.6} ({} failed of {} attempted)",
                out.failed, out.attempted
            )
        } else if let Some((p, phase)) = latency_metric(name) {
            // Latency metrics quote one percentile of a phase's requests.
            match out.samples.get(format!("{LATENCY_PREFIX}{phase}").as_str()) {
                Some(v) => {
                    let tail = stats::summarize(v)
                        .and_then(|s| s.tail)
                        .map_or("-".into(), |(q, x)| format!("p{q}={x:.6}"));
                    let at = stats::nearest_rank(v, p).unwrap_or(0.0);
                    format!("p{p}={at:.6} {tail} n={}", v.len())
                }
                None => "n/a (not measured on this workload)".into(),
            }
        } else {
            match out.samples.get(name).and_then(|v| stats::summarize(v)) {
                Some(s) => {
                    let tail = s.tail.map_or("-".into(), |(p, v)| format!("p{p}={v:.6}"));
                    format!("median={:.6} {tail} n={}", s.median, s.n)
                }
                None => "n/a (not measured on this workload)".into(),
            }
        };
        println!("metric {name:<16} {unit:<6} {line}");
    }
    if !out.layers.is_empty() {
        println!("# per-layer");
        for (name, unit) in per_layer() {
            let v = out.layers.get(&name).copied().unwrap_or(0.0);
            println!("layer {name:<36} {unit:<6} {v}");
        }
    }
    for n in &out.notes {
        println!("# {n}");
    }
    for p in &out.problems {
        println!("# FAILED CHECK: {p}");
    }
}

/// The stamp every result carries.
pub fn stamp(workload: &str, seed: u64, seconds: u64, trace: bool, out: &Outcome) -> Value {
    let mut m = BTreeMap::new();
    let s = |v: &str| Value::String(v.to_string());
    m.insert("workload".into(), s(workload));
    m.insert("seed".into(), Value::U64(seed));
    m.insert("seconds".into(), Value::U64(seconds));
    m.insert("trace".into(), Value::Bool(trace));
    m.insert(
        "host_cpus".into(),
        Value::U64(crate::sys::host_cpus() as u64),
    );
    m.insert("commit".into(), s(&crate::sys::git_commit()));
    m.insert("rustc".into(), s(&crate::sys::rustc_version()));
    m.insert(
        "config".into(),
        Value::Object(
            out.config
                .iter()
                .map(|(k, v)| (k.to_string(), s(v)))
                .collect(),
        ),
    );
    m.insert(
        "samples".into(),
        Value::Object(
            out.counts
                .iter()
                .map(|(k, v)| (k.clone(), Value::U64(*v)))
                .collect(),
        ),
    );
    if let Some(d) = out.digest {
        m.insert("digest".into(), s(&format!("{d:016x}")));
    }
    Value::Object(m)
}

/// The `RECORD` line: stamp, every sample and the result metrics, for
/// `perfbench compare`.
pub fn record(stamp: &Value, out: &Outcome, metrics: &BTreeMap<String, f64>) -> String {
    let mut m = BTreeMap::new();
    m.insert("stamp".into(), stamp.clone());
    m.insert(
        "metrics".into(),
        Value::Object(metrics.iter().map(|(k, v)| (k.clone(), num(*v))).collect()),
    );
    m.insert(
        "samples".into(),
        Value::Object(
            out.samples
                .iter()
                .filter(|(k, _)| !k.starts_with(LATENCY_PREFIX))
                .map(|(k, v)| {
                    (
                        k.to_string(),
                        Value::Array(v.iter().map(|x| num(*x)).collect()),
                    )
                })
                .collect(),
        ),
    );
    m.insert("correct".into(), Value::Bool(out.correct()));
    format!(
        "RECORD {}",
        serde_json::to_string(&Value::Object(m)).expect("record serializes")
    )
}

/// The final line of standard output.
pub fn result_line(
    out: &Outcome,
    metrics: &BTreeMap<String, f64>,
    units: &BTreeMap<String, &str>,
) -> String {
    let mut m = BTreeMap::new();
    m.insert("correct".into(), Value::Bool(out.correct()));
    m.insert("attempted".into(), Value::U64(out.attempted.max(1)));
    m.insert("failed".into(), Value::U64(out.failed));
    m.insert(
        "metrics".into(),
        Value::Object(
            metrics
                .iter()
                .map(|(k, v)| {
                    let mut e = BTreeMap::new();
                    e.insert("value".into(), num(*v));
                    e.insert("unit".into(), Value::String(units[k].to_string()));
                    (k.clone(), Value::Object(e))
                })
                .collect(),
        ),
    );
    serde_json::to_string(&Value::Object(m)).expect("result serializes")
}
