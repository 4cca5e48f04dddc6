//! The batch workloads: `paper_all` (the whole paper, in memory) and
//! `census_faulted` (the Sec. 2 scans under faults, into a store).

use crate::report::{fnv1a, Outcome, FNV_OFFSET};
use crate::tracer::{child_coverage_us, SpanId, Tracer};
use crate::{probes, sys};
use goingwild::experiments::{self, DeriveOptions, Experiment, REGISTRY};
use goingwild::{collect_bundle, BundleData, BundleOptions, CampaignKind, WorldConfig};
use scanner::ProbePolicy;
use std::collections::BTreeSet;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use telemetry::Snapshot;

/// World builds timed for `setup_s` before each pass.
const SETUP_REPEATS: usize = 3;

/// Coverage below which a campaign counts as degraded (the bundle's
/// own default threshold).
const DEGRADED_BELOW: f64 = 0.95;

/// One batch workload's configuration.
pub struct Spec {
    name: &'static str,
    scale: f64,
    weeks: u32,
    snoop_sample: usize,
    faults: Option<&'static str>,
    attempts: u32,
    exps: Vec<&'static Experiment>,
    on_disk: bool,
}

impl Spec {
    /// `repro --exp all` at the `repro_all` baseline's configuration.
    pub fn paper_all() -> Spec {
        Spec {
            name: "paper_all",
            scale: 0.0001,
            weeks: 3,
            snoop_sample: 200,
            faults: None,
            attempts: 1,
            exps: REGISTRY
                .iter()
                .filter(|e| e.subsumed_by.is_none())
                .collect(),
            on_disk: false,
        }
    }

    /// The Sec. 2 experiments under the `flaky` fault profile with
    /// three attempts per probe, collected into an on-disk store.
    pub fn census_faulted() -> Spec {
        let ids = [
            "fig1", "tab1", "tab2", "tab3", "tab4", "fig2", "util", "verify",
        ];
        Spec {
            name: "census_faulted",
            scale: 0.0001,
            weeks: 4,
            snoop_sample: 1_500,
            faults: Some("flaky"),
            attempts: 3,
            exps: ids
                .iter()
                .map(|id| experiments::experiment(id).expect("registered experiment"))
                .collect(),
            on_disk: true,
        }
    }

    fn world(&self) -> WorldConfig {
        WorldConfig {
            seed: crate::WORLD_SEED,
            scale: self.scale,
            udp_loss: 0.004,
            weeks: self.weeks,
            shards: 1,
        }
    }

    fn bundle_opts(&self, seed: u64) -> BundleOptions {
        BundleOptions {
            seed,
            weeks: self.weeks,
            snoop_sample: self.snoop_sample,
            // The fault draws are seeded like the world, not by `seed`:
            // they move a pass's records by a fifth and its peak heap by
            // half (see README.md).
            faults: self.faults.map(|p| {
                netsim::FaultPlan::named(p, crate::WORLD_SEED).expect("known fault profile")
            }),
            probe: ProbePolicy::retrying(self.attempts),
            ..BundleOptions::new(self.world())
        }
    }

    fn derive_opts(&self) -> DeriveOptions {
        DeriveOptions {
            cfg: self.world(),
            ..DeriveOptions::default()
        }
    }

    /// Union of the experiments' campaign requirements.
    fn kinds(&self) -> Vec<CampaignKind> {
        let set: BTreeSet<CampaignKind> = self
            .exps
            .iter()
            .flat_map(|e| e.requires.iter().copied())
            .collect();
        set.into_iter().collect()
    }

    fn record_config(&self, out: &mut Outcome, seed: u64) {
        let c = &mut out.config;
        c.insert("scale", self.scale.to_string());
        c.insert("weeks", self.weeks.to_string());
        c.insert("snoop_sample", self.snoop_sample.to_string());
        c.insert("faults", self.faults.unwrap_or("none").to_string());
        c.insert("probe_attempts", self.attempts.to_string());
        c.insert("udp_loss", "0.004".into());
        c.insert("shards", "1".into());
        c.insert("store", if self.on_disk { "disk" } else { "memory" }.into());
        let ids: Vec<&str> = self.exps.iter().map(|e| e.id).collect();
        c.insert("experiments", ids.join(","));
        c.insert("seed", seed.to_string());
        c.insert("world_seed", crate::WORLD_SEED.to_string());
        if self.faults.is_some() {
            c.insert("fault_seed", crate::WORLD_SEED.to_string());
        }
    }
}

/// Counts one check per campaign collected in `bundle`: degraded
/// campaigns fail.
fn check_coverage(out: &mut Outcome, bundle: &BundleData) {
    for (kind, cov) in bundle.coverage() {
        let f = cov.fraction();
        out.check(f >= DEGRADED_BELOW, || {
            format!(
                "campaign {} degraded: {:.2}% covered",
                kind.name(),
                100.0 * f
            )
        });
    }
}

/// Counts one check per experiment and returns the derived text.
fn check_outputs(
    out: &mut Outcome,
    exps: &[&'static Experiment],
    results: Vec<io::Result<experiments::ExperimentOutput>>,
) -> String {
    let mut text = String::new();
    for (exp, r) in exps.iter().zip(results) {
        match r {
            Ok(o) => {
                out.check(true, String::new);
                text.push_str(&o.text);
                text.push('\n');
            }
            Err(e) => out.check(false, || format!("experiment {} failed: {e}", exp.id)),
        }
    }
    text
}

/// One timed collect-then-derive pass.
struct Pass {
    text: String,
    collect_s: f64,
    wall_s: f64,
    cpu_s: f64,
}

fn one_shot(
    spec: &Spec,
    seed: u64,
    store: Option<&Path>,
    out: &mut Outcome,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> io::Result<Pass> {
    let (t, cpu) = (Instant::now(), sys::cpu_seconds());
    let bundle = tr.span("collect.bundle", parent, |_| {
        collect_bundle(&spec.bundle_opts(seed), &spec.kinds(), store)
    })?;
    let collect_s = t.elapsed().as_secs_f64();
    let results = tr.span("derive.all", parent, |_| {
        experiments::derive_all(&bundle, &spec.exps, &spec.derive_opts())
    });
    let (wall_s, cpu_s) = (t.elapsed().as_secs_f64(), sys::cpu_seconds() - cpu);
    check_coverage(out, &bundle);
    let text = check_outputs(out, &spec.exps, results);
    Ok(Pass {
        text,
        collect_s,
        wall_s,
        cpu_s,
    })
}

/// Sum of a labeled counter family (`name` and `name{...}`).
fn family(snap: &Snapshot, name: &str) -> f64 {
    snap.counters
        .iter()
        .filter(|(k, _)| k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
        .map(|&(_, v)| v)
        .sum::<u64>() as f64
}

fn span_s(snap: &Snapshot, span: &str) -> f64 {
    snap.counter(&format!("span.{span}.wall_us")).unwrap_or(0) as f64 / 1e6
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs a batch workload: set-up, then passes until `seconds` have
/// been measured (at least one); with tracing on, one untraced pass,
/// the decomposed traced pass and the layer probes.
pub fn run(spec: &Spec, seed: u64, seconds: u64, tr: &Tracer, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    spec.record_config(&mut out, seed);
    let root_id = tr.begin(spec.name, None);
    let root = Some(root_id);
    // Set-up is a world build of milliseconds. Its samples are spread
    // over the whole run, before every pass, so that their median does
    // not hinge on the host's speed in the first few milliseconds.
    let set_up = |out: &mut Outcome| {
        tr.span("setup", root, |setup| {
            for _ in 0..SETUP_REPEATS {
                let t = Instant::now();
                let world = tr.span("worldgen.build", Some(setup), |_| {
                    worldgen::build_world(spec.world())
                });
                out.sample("setup_s", t.elapsed().as_secs_f64());
                black_box(world.resolvers.len());
            }
        })
    };

    let t_measure = Instant::now();
    let mut first: Option<Pass> = None;
    let mut passes = 0u64;
    let mut snap = None;
    let mut kept_store: Option<PathBuf> = None;
    loop {
        set_up(&mut out);
        let store = spec.on_disk.then(|| work.join(format!("pass{passes}")));
        telemetry::global().clear();
        let pass = tr.span("pass.one_shot", root, |p| {
            one_shot(spec, seed, store.as_deref(), &mut out, tr, Some(p))
        });
        passes += 1;
        let pass = match pass {
            Ok(p) => p,
            Err(e) => {
                out.check(false, || format!("bundle collection failed: {e}"));
                break;
            }
        };
        out.sample("wall_s", pass.wall_s);
        out.sample("cpu_s", pass.cpu_s);
        match &first {
            None => {
                // Peak memory of one pass: later passes would add heap
                // fragmentation in proportion to how many fit in the run.
                out.sample("peak_rss_mb", sys::peak_rss_mb());
                snap = Some(telemetry::snapshot());
                first = Some(pass);
                kept_store = store;
            }
            Some(f) => {
                out.check(f.text == pass.text, || {
                    format!("pass {passes} derived different text than pass 1")
                });
                if let Some(dir) = &store {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
        if tr.enabled() || t_measure.elapsed().as_secs_f64() >= seconds as f64 {
            break;
        }
    }
    out.counts.insert("passes".into(), passes);
    out.counts
        .insert("setup".into(), passes * SETUP_REPEATS as u64);
    let Some(first) = first else {
        tr.end(root_id);
        return out;
    };
    out.digest = Some(fnv1a(FNV_OFFSET, first.text.as_bytes()));
    if tr.enabled() {
        let snap = snap.expect("snapshot of the first pass");
        layers_from_snapshot(&mut out, &snap, &first);
        decomposed(spec, seed, &first, &mut out, tr, root, work);
        tr.span("probes", root, |p| {
            probe_layers(spec, seed, &mut out, kept_store.as_deref(), tr, Some(p))
        });
    }
    if let Some(dir) = kept_store {
        let _ = std::fs::remove_dir_all(dir);
    }
    tr.end(root_id);
    out
}

/// Scanner, netsim and scanstore counters of the untraced pass.
fn layers_from_snapshot(out: &mut Outcome, snap: &Snapshot, pass: &Pass) {
    let probes = family(snap, "scanner.probes_sent");
    let responses = family(snap, "scanner.responses");
    out.layer("scanner.probes_sent", probes);
    out.layer("scanner.answered_ratio", ratio(responses, probes));
    out.layer("scanner.retries", family(snap, "scanner.retries"));
    out.layer("scanner.timeouts", family(snap, "scanner.timeouts"));
    for c in ["enumerate", "snoop", "chaos"] {
        out.layer(
            &format!("scanner.{c}_s"),
            span_s(snap, &format!("campaign.{c}")),
        );
    }
    let sent = family(snap, "netsim.udp_sent");
    let events = family(snap, "netsim.events_dispatched");
    out.layer("netsim.udp_sent", sent);
    out.layer("netsim.events_dispatched", events);
    out.layer(
        "netsim.delivered_ratio",
        ratio(family(snap, "netsim.udp_delivered"), sent),
    );
    let drops: f64 = [
        "burst_drops",
        "flap_drops",
        "outage_drops",
        "rate_limit_drops",
    ]
    .iter()
    .map(|d| family(snap, &format!("netsim.faults.{d}")))
    .sum();
    out.layer("netsim.fault_drops", drops);
    out.layer(
        "netsim.queue_depth_max",
        snap.gauge("netsim.queue_depth_max").unwrap_or(0.0),
    );
    out.layer("netsim.us_per_event", ratio(pass.wall_s * 1e6, events));
    let records = family(snap, "scanstore.records_committed");
    out.layer("scanstore.records_committed", records);
}

/// The traced pass: one `collect_bundle` call per campaign kind on a
/// scratch store (resume makes each call run exactly that campaign),
/// then one `derive_all` call per experiment.
fn decomposed(
    spec: &Spec,
    seed: u64,
    baseline: &Pass,
    out: &mut Outcome,
    tr: &Tracer,
    root: Option<SpanId>,
    work: &Path,
) {
    let store = work.join("decomposed");
    let opts = spec.bundle_opts(seed);
    let kinds = spec.kinds();
    let needs_fleet = kinds.iter().any(|k| {
        matches!(
            k,
            CampaignKind::Chaos
                | CampaignKind::Banner
                | CampaignKind::Snoop
                | CampaignKind::Churn
                | CampaignKind::Domains
        )
    });
    let order: Vec<CampaignKind> = CampaignKind::ALL
        .into_iter()
        .filter(|k| kinds.contains(k) || (*k == CampaignKind::Fleet && needs_fleet))
        .collect();
    let pass_id = tr.begin("pass.decomposed", root);
    let mut collect_total = 0.0;
    for kind in &order {
        telemetry::global().clear();
        let t = Instant::now();
        let got = tr.span(&format!("collect.{}", kind.name()), Some(pass_id), |_| {
            collect_bundle(&opts, &[*kind], Some(&store))
        });
        let secs = t.elapsed().as_secs_f64();
        collect_total += secs;
        out.layer(&format!("collect.{}_s", kind.name()), secs);
        let snap = telemetry::snapshot();
        let runs = family(&snap, "collect.campaign_runs");
        out.check(runs == 1.0, || {
            format!("decomposed collect of {} ran {runs} campaigns", kind.name())
        });
        match got {
            Ok(b) => check_coverage(out, &b),
            Err(e) => out.check(false, || format!("collect {} failed: {e}", kind.name())),
        }
        if *kind == CampaignKind::Domains {
            pipeline_layers(out, &snap);
        }
    }
    telemetry::global().clear();
    let t = Instant::now();
    let bundle = tr.span("collect.resume", Some(pass_id), |_| {
        collect_bundle(&opts, &kinds, Some(&store))
    });
    collect_total += t.elapsed().as_secs_f64();
    let builds = telemetry::snapshot()
        .counter("collect.world_builds")
        .unwrap_or(0);
    out.check(builds == 0, || {
        format!("resuming the decomposed store built {builds} worlds")
    });
    out.layer(
        "collect.decomposition_overhead_s",
        collect_total - baseline.collect_s,
    );
    let mut text = String::new();
    match bundle {
        Ok(bundle) => {
            let dopts = spec.derive_opts();
            for exp in &spec.exps {
                let t = Instant::now();
                let r = tr.span(&format!("derive.{}", exp.id), Some(pass_id), |_| {
                    experiments::derive_all(&bundle, &[*exp], &dopts)
                });
                out.layer(&format!("derive.{}_s", exp.id), t.elapsed().as_secs_f64());
                text.push_str(&check_outputs(out, &[*exp], r));
            }
        }
        Err(e) => out.check(false, || {
            format!("resuming the decomposed store failed: {e}")
        }),
    }
    tr.end(pass_id);
    out.check(text == baseline.text, || {
        "decomposed collection derived different text than one-shot collection".into()
    });
    let spans = tr.spans();
    let i = pass_id.index().expect("tracing is on");
    let dur = (spans[i].end_us - spans[i].start_us) as f64;
    out.layer("trace.overhead_s", dur / 1e6 - baseline.wall_s);
    out.layer(
        "trace.span_coverage_ratio",
        ratio(child_coverage_us(&spans, i) as f64, dur),
    );
    let _ = std::fs::remove_dir_all(&store);
}

/// The analysis pipeline's own spans and counters, read after the
/// domain-scan call (the only call that runs the Sec. 3 analysis).
fn pipeline_layers(out: &mut Outcome, snap: &Snapshot) {
    let analysis = span_s(snap, "pipeline.analysis");
    let mut staged = 0.0;
    for stage in ["prefilter", "fetch", "cluster", "label"] {
        let s = span_s(snap, &format!("pipeline.{stage}"));
        staged += s;
        out.layer(&format!("pipeline.{stage}_s"), s);
    }
    out.layer("pipeline.analysis_s", analysis);
    out.layer("pipeline.unattributed_s", analysis - staged);
    out.layer(
        "pipeline.tuples_unexpected",
        family(snap, "pipeline.tuples_unexpected"),
    );
    out.layer(
        "pipeline.pages_fetched",
        family(snap, "pipeline.pages_fetched"),
    );
    // Every unique page receives exactly one label.
    out.layer(
        "pipeline.unique_pages",
        family(snap, "pipeline.pages_labeled"),
    );
    out.layer(
        "pipeline.clusters_formed",
        family(snap, "pipeline.clusters_formed"),
    );
}

fn probe_layers(
    spec: &Spec,
    seed: u64,
    out: &mut Outcome,
    store: Option<&Path>,
    tr: &Tracer,
    parent: Option<SpanId>,
) {
    let t = Instant::now();
    let world = tr.span("worldgen.build", parent, |_| {
        worldgen::build_world(spec.world())
    });
    out.layer("worldgen.build_s", t.elapsed().as_secs_f64());
    out.layer("worldgen.resolvers", world.resolvers.len() as f64);
    drop(world);
    probes::dnswire(out, seed, tr, parent);
    let pages = out
        .layers
        .get("pipeline.unique_pages")
        .copied()
        .unwrap_or(0.0) as usize;
    if pages > 1 {
        probes::clustering(out, seed, pages, tr, parent);
    }
    if let Some(dir) = store {
        let bytes = sys::dir_bytes(dir) as f64;
        out.layer("scanstore.store_bytes", bytes);
        let records = out
            .layers
            .get("scanstore.records_committed")
            .copied()
            .unwrap_or(0.0);
        out.layer("scanstore.bytes_per_record", ratio(bytes, records));
        crate::serve_mix::time_view_open(out, dir, tr, parent);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_experiments_count_against_the_attempted_ones() {
        let spec = Spec::paper_all();
        let exps = &spec.exps[..3];
        let ok = |id: &'static str| {
            Ok(experiments::ExperimentOutput {
                id,
                text: format!("{id} text"),
                json: None,
            })
        };
        let results = vec![
            ok(exps[0].id),
            Err(io::Error::other("no data")),
            ok(exps[2].id),
        ];
        let mut out = Outcome::default();
        let text = check_outputs(&mut out, exps, results);
        assert_eq!((out.attempted, out.failed), (3, 1));
        assert_eq!(text, format!("{} text\n{} text\n", exps[0].id, exps[2].id));
        assert!(out.problems[0].contains(exps[1].id));
        assert!(!out.correct());
        assert_eq!(out.end_to_end()["ok_ratio"], 1.0 - 1.0 / 3.0);
    }

    #[test]
    fn counter_families_sum_labels_but_not_longer_names() {
        let snap = Snapshot {
            counters: vec![
                ("scanner.retries".into(), 1),
                ("scanner.retries{campaign=churn}".into(), 2),
                ("scanner.retries_total".into(), 100),
            ],
            gauges: Vec::new(),
            histograms: Vec::new(),
        };
        assert_eq!(family(&snap, "scanner.retries"), 3.0);
        assert_eq!(family(&snap, "scanner.timeouts"), 0.0);
    }
}
