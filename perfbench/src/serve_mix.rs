//! The `serve_mix` workload: the query daemon over a Sec. 2 store,
//! driven over loopback HTTP with the `serve::fleet` query mix.

use crate::loadgen::{self, Phase};
use crate::report::{fnv1a, Outcome, FNV_OFFSET};
use crate::tracer::{child_coverage_us, SpanId, Tracer};
use crate::{stats, sys};
use goingwild::{collect_bundle, BundleOptions, CampaignKind, WorldConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serve::{QueryEngine, RunningServer, ServeOptions};
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Query families of the mix, in the order of their shares.
pub const FAMILIES: [&str; 5] = ["classify", "churn", "amplifiers", "coverage", "inventory"];

/// Concurrent connections of the load generator (the host has 2 CPUs).
const WORKERS: usize = 2;
/// Times the store is collected and the daemon started for `setup_s`.
const SETUP_REPEATS: usize = 3;
/// Targets generated from the seed; phases take consecutive slices.
const STREAM_LEN: usize = 60_000;
/// Requests per closed-loop pass (and in its warm-up).
const CLOSED_PASS: usize = 12_000;
/// Fewest closed-loop passes per run.
const MIN_CLOSED_PASSES: usize = 3;
/// The fixed low and high open-loop rates, requests per second.
const LOW_RPS: f64 = 1_000.0;
const HIGH_RPS: f64 = 4_000.0;
/// Seconds each fixed-rate phase runs (2,000 and 8,000 requests).
const OPEN_PHASE_S: f64 = 2.0;
/// Hosts whose caches the snooping campaign probes during set-up.
const SNOOP_SAMPLE: usize = 200;
/// The rate ladder climbed for `max_rate_rps`, and requests per step.
const LADDER_RPS: [f64; 9] = [
    2_000.0, 3_000.0, 4_000.0, 5_000.0, 6_000.0, 7_000.0, 8_000.0, 9_000.0, 10_000.0,
];
const LADDER_STEP: usize = 1_500;
/// Targets timed directly against the engine in a traced run.
const ENGINE_SAMPLES: usize = 20_000;

fn world() -> WorldConfig {
    WorldConfig {
        seed: crate::WORLD_SEED,
        scale: 0.0002,
        udp_loss: 0.004,
        weeks: 4,
        shards: 1,
    }
}

/// The Sec. 2 campaigns: everything but the domain scan.
fn kinds() -> Vec<CampaignKind> {
    CampaignKind::ALL
        .into_iter()
        .filter(|k| *k != CampaignKind::Domains)
        .collect()
}

/// The request targets, built from the store through the public
/// `StoreView`/`ReadIndex` API as `serve::fleet` builds its own.
struct Plan {
    ips: Vec<Ipv4Addr>,
    asns: Vec<u32>,
    countries: Vec<String>,
    campaigns: Vec<String>,
}

fn plan(engine: &QueryEngine) -> Plan {
    let mut ranked: Vec<(u32, u32)> = Vec::new();
    let mut countries: Vec<String> = Vec::new();
    let mut campaigns: Vec<String> = Vec::new();
    for name in engine.campaigns() {
        let Some(view) = engine.view(name) else {
            continue;
        };
        for e in view.index().entries() {
            ranked.push((e.rounds, e.ip));
            let country = scanstore::SnapshotSource::string(view, e.latest.country);
            if !country.is_empty() && !countries.iter().any(|c| c == country) {
                countries.push(country.to_string());
            }
        }
        campaigns.push(name.to_string());
    }
    ranked.sort_by_key(|&(rounds, ip)| (std::cmp::Reverse(rounds), ip));
    ranked.dedup_by_key(|&mut (_, ip)| ip);
    ranked.truncate(512);
    // `/churn` answers from the weekly series, so only its ASes are asked.
    let mut asns: Vec<u32> = engine
        .view("weekly")
        .map(|v| v.index().asns().filter(|&a| a != 0).collect())
        .unwrap_or_default();
    asns.sort_unstable();
    asns.dedup();
    asns.truncate(64);
    countries.sort_unstable();
    countries.truncate(32);
    Plan {
        ips: ranked.iter().map(|&(_, ip)| Ipv4Addr::from(ip)).collect(),
        asns,
        countries,
        campaigns,
    }
}

/// Squared-uniform index: concentrates draws on the hottest keys.
fn hot_index(rng: &mut SmallRng, len: usize) -> usize {
    let u = rng.gen::<f64>();
    ((u * u * len as f64) as usize).min(len - 1)
}

/// The next target of the mix and its family index: 70% classify (2%
/// of those for never-scanned addresses), 10% churn, 10% amplifiers,
/// 5% coverage, 5% inventory.
fn next_target(rng: &mut SmallRng, plan: &Plan) -> (String, usize) {
    let roll = rng.gen_range(0..100u32);
    if roll < 70 && !plan.ips.is_empty() {
        if rng.gen_bool(0.02) {
            let (a, b) = (rng.gen_range(0..256u32), rng.gen_range(0..256u32));
            return (format!("/classify?ip=203.0.{a}.{b}"), 0);
        }
        (
            format!("/classify?ip={}", plan.ips[hot_index(rng, plan.ips.len())]),
            0,
        )
    } else if roll < 80 && !plan.asns.is_empty() {
        (
            format!("/churn?asn={}", plan.asns[hot_index(rng, plan.asns.len())]),
            1,
        )
    } else if roll < 90 && !plan.countries.is_empty() {
        let country = &plan.countries[hot_index(rng, plan.countries.len())];
        let limit = 5 + 5 * rng.gen_range(0..4u32);
        (format!("/amplifiers?country={country}&limit={limit}"), 2)
    } else if roll < 95 && !plan.campaigns.is_empty() {
        let campaign = &plan.campaigns[rng.gen_range(0..plan.campaigns.len())];
        (format!("/coverage?campaign={campaign}"), 3)
    } else {
        ("/campaigns".to_string(), 4)
    }
}

/// The seeded request stream with the expected wire bytes of every
/// target, computed by `QueryEngine::handle` on the same store.
struct Stream {
    targets: Vec<String>,
    family: Vec<usize>,
    expect: Vec<usize>,
    wires: Vec<Vec<u8>>,
}

impl Stream {
    fn build(engine: &QueryEngine, seed: u64, out: &mut Outcome) -> Stream {
        let plan = plan(engine);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e17_e5e1);
        let mut index: HashMap<String, usize> = HashMap::new();
        let mut s = Stream {
            targets: Vec::with_capacity(STREAM_LEN),
            family: Vec::with_capacity(STREAM_LEN),
            expect: Vec::with_capacity(STREAM_LEN),
            wires: Vec::new(),
        };
        let mut digest = FNV_OFFSET;
        for _ in 0..STREAM_LEN {
            let (target, family) = next_target(&mut rng, &plan);
            let slot = *index.entry(target.clone()).or_insert_with(|| {
                let resp = engine.handle(&target);
                out.check(resp.status == 200, || {
                    format!("engine answered {} to {target}", resp.status)
                });
                let wire = resp.to_wire();
                digest = fnv1a(digest, &wire);
                s.wires.push(wire);
                s.wires.len() - 1
            });
            s.targets.push(target);
            s.family.push(family);
            s.expect.push(slot);
        }
        out.digest = Some(digest);
        out.counts
            .insert("distinct_targets".into(), s.wires.len() as u64);
        s
    }

    /// Sends request `i` (cycling through the stream) and checks the
    /// response byte for byte.
    fn call(&self, addr: SocketAddr, i: usize) -> bool {
        let i = i % self.targets.len();
        loadgen::fetch(addr, &self.targets[i]).is_ok_and(|r| r == self.wires[self.expect[i]])
    }
}

/// One set-up: collect the store, start the daemon.
fn set_up(
    seed: u64,
    dir: &Path,
    tr: &Tracer,
    parent: Option<SpanId>,
) -> std::io::Result<RunningServer> {
    let opts = BundleOptions {
        seed,
        snoop_sample: SNOOP_SAMPLE,
        ..BundleOptions::new(world())
    };
    let bundle = tr.span("collect.bundle", parent, |_| {
        collect_bundle(&opts, &kinds(), Some(dir))
    })?;
    if let Some((k, c)) = bundle.coverage().iter().find(|(_, c)| c.fraction() < 0.95) {
        return Err(std::io::Error::other(format!(
            "campaign {} degraded: {:.2}% covered",
            k.name(),
            100.0 * c.fraction()
        )));
    }
    tr.span("serve.start", parent, |_| {
        RunningServer::start(&ServeOptions {
            store: dir.to_path_buf(),
            refresh_ms: 0,
            ..ServeOptions::default()
        })
    })
}

/// Times `QueryEngine::open` on `dir` (median of three).
pub fn time_view_open(out: &mut Outcome, dir: &Path, tr: &Tracer, parent: Option<SpanId>) {
    let mut times = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let ok = tr.span("scanstore.view_open", parent, |_| {
            QueryEngine::open(dir).is_ok()
        });
        times.push(t.elapsed().as_secs_f64());
        out.check(ok, || format!("cannot open the store at {}", dir.display()));
    }
    out.layer(
        "scanstore.view_open_s",
        stats::median(&times).unwrap_or(0.0),
    );
}

fn phase(
    out: &mut Outcome,
    stream: &Stream,
    addr: SocketAddr,
    rate: f64,
    n: usize,
    offset: usize,
) -> Phase {
    let samples = loadgen::open_loop(rate, n, WORKERS, |i| stream.call(addr, offset + i));
    let failed = samples.iter().filter(|s| !s.ok).count();
    out.tally(samples.len() as u64, failed as u64, || {
        format!("{failed} requests at {rate} req/s failed or differed")
    });
    Phase::from_samples(rate, &samples)
}

/// Runs `serve_mix`; see the README for the phases.
pub fn run(seed: u64, seconds: u64, tr: &Tracer, work: &Path) -> Outcome {
    let mut out = Outcome::default();
    let w = world();
    let campaigns: Vec<&str> = kinds().iter().map(|k| k.name()).collect();
    for (k, v) in [
        ("scale", w.scale.to_string()),
        ("weeks", w.weeks.to_string()),
        ("udp_loss", w.udp_loss.to_string()),
        ("snoop_sample", SNOOP_SAMPLE.to_string()),
        ("faults", "none".into()),
        ("campaigns", campaigns.join(",")),
        ("refresh_ms", "0".into()),
        ("cache_cap", ServeOptions::default().cache_cap.to_string()),
        ("workers", WORKERS.to_string()),
        ("closed_pass", CLOSED_PASS.to_string()),
        ("low_rps", LOW_RPS.to_string()),
        ("high_rps", HIGH_RPS.to_string()),
        ("open_phase_s", OPEN_PHASE_S.to_string()),
        ("ladder_step", LADDER_STEP.to_string()),
        ("p99_limit_ms", loadgen::P99_LIMIT_MS.to_string()),
    ] {
        out.config.insert(k, v);
    }
    out.config.insert("seed", seed.to_string());
    out.config
        .insert("world_seed", crate::WORLD_SEED.to_string());
    let root_id = tr.begin("serve_mix", None);
    let root = Some(root_id);
    let mut server: Option<(RunningServer, PathBuf)> = None;
    let setup_id = tr.begin("setup", root);
    for k in 0..SETUP_REPEATS {
        if let Some((old, dir)) = server.take() {
            let _ = old.stop();
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = work.join(format!("store{k}"));
        telemetry::global().clear();
        let t = Instant::now();
        match set_up(seed, &dir, tr, Some(setup_id)) {
            Ok(s) => {
                out.sample("setup_s", t.elapsed().as_secs_f64());
                server = Some((s, dir));
            }
            Err(e) => {
                out.check(false, || format!("set-up failed: {e}"));
                break;
            }
        }
    }
    tr.end(setup_id);
    out.counts.insert("setup".into(), SETUP_REPEATS as u64);
    let Some((server, store)) = server else {
        tr.end(root_id);
        return out;
    };
    let records = telemetry::snapshot().counter_sum("scanstore.records_committed") as f64;
    let addr = server.addr();
    let engine = match QueryEngine::open(&store) {
        Ok(e) => e,
        Err(e) => {
            out.check(false, || format!("cannot open the store: {e}"));
            let _ = server.stop();
            tr.end(root_id);
            return out;
        }
    };
    let stream = Stream::build(&engine, seed, &mut out);
    telemetry::global().clear();

    // Closed loop: a warm-up pass, then timed passes of a fixed size.
    let budget = seconds as f64;
    let mut offset = 0;
    loadgen::closed_loop(CLOSED_PASS, WORKERS, |i| stream.call(addr, offset + i));
    offset += CLOSED_PASS;
    let t_closed = Instant::now();
    let mut passes = 0;
    while passes < MIN_CLOSED_PASSES || t_closed.elapsed().as_secs_f64() < 0.5 * budget {
        let (t, cpu) = (Instant::now(), sys::cpu_seconds());
        let failed = tr.span("pass.closed_loop", root, |_| {
            loadgen::closed_loop(CLOSED_PASS, WORKERS, |i| stream.call(addr, offset + i))
        });
        out.sample("wall_s", t.elapsed().as_secs_f64());
        out.sample("cpu_s", sys::cpu_seconds() - cpu);
        out.tally(CLOSED_PASS as u64, failed as u64, || {
            format!("{failed} closed-loop requests failed or differed")
        });
        offset += CLOSED_PASS;
        passes += 1;
    }
    out.counts.insert("closed_passes".into(), passes as u64);
    out.counts
        .insert("closed_requests".into(), (passes * CLOSED_PASS) as u64);

    // Open loop at the fixed rates, then the ladder.
    let low = tr.span("loadgen.low", root, |_| {
        let n = (LOW_RPS * OPEN_PHASE_S) as usize;
        phase(&mut out, &stream, addr, LOW_RPS, n, offset)
    });
    offset += low.n;
    let high = tr.span("loadgen.high", root, |_| {
        let n = (HIGH_RPS * OPEN_PHASE_S) as usize;
        phase(&mut out, &stream, addr, HIGH_RPS, n, offset)
    });
    offset += high.n;
    let mut steps = Vec::new();
    tr.span("loadgen.ladder", root, |_| {
        for rate in LADDER_RPS {
            let step = phase(&mut out, &stream, addr, rate, LADDER_STEP, offset);
            offset += step.n;
            let ok = step.meets_slo();
            steps.push(step);
            if !ok {
                break;
            }
        }
    });
    let max_rate = loadgen::max_rate(&steps);
    for s in &steps {
        let q = |v: &[f64], p| stats::nearest_rank(v, p).unwrap_or(0.0);
        out.notes.push(format!(
            "ladder {} req/s: p50 {:.3} ms, p99 {:.3} ms, late p50 {:.3} ms, failed {}, backlog {}",
            s.rate,
            q(&s.latency_ms, 50.0),
            q(&s.latency_ms, 99.0),
            q(&s.late_ms, 50.0),
            s.failed,
            if s.backlog_growing {
                "growing"
            } else {
                "steady"
            }
        ));
    }
    out.samples.insert("lat_ms_low", low.latency_ms.clone());
    out.samples.insert("lat_ms_high", high.latency_ms.clone());
    out.sample("max_rate_rps", max_rate);
    out.counts.insert("open_low".into(), low.n as u64);
    out.counts.insert("open_high".into(), high.n as u64);
    out.counts.insert("ladder_steps".into(), steps.len() as u64);
    let load_snap = telemetry::snapshot();

    if tr.enabled() {
        let base_wall = out.median("wall_s").unwrap_or(0.0);
        traced_pass(&mut out, &stream, addr, offset, base_wall, tr, root);
        out.layer("serve.lat_p50_ms_low", low.latency(50.0).unwrap_or(0.0));
        out.layer("serve.lat_p99_ms_low", low.latency(99.0).unwrap_or(0.0));
        out.layer("serve.lat_p50_ms_high", high.latency(50.0).unwrap_or(0.0));
        out.layer("serve.lat_p99_ms_high", high.latency(99.0).unwrap_or(0.0));
        out.layer("serve.max_rate_rps", max_rate);
        out.layer(
            "loadgen.late_p99_ms",
            stats::nearest_rank(&high.late_ms, 99.0).unwrap_or(0.0),
        );
        out.layer("loadgen.samples_low", low.n as f64);
        out.layer("loadgen.samples_high", high.n as f64);
        let hits = load_snap.counter_sum("serve.cache.hit") as f64;
        let misses = load_snap.counter_sum("serve.cache.miss") as f64;
        out.layer("serve.cache_hit_ratio", hits / (hits + misses).max(1.0));
        out.layer("serve.shed", load_snap.counter_sum("serve.shed") as f64);
        tr.span("probes", root, |p| {
            engine_layers(&mut out, &engine, &stream, &low, tr, Some(p));
            let bytes = sys::dir_bytes(&store) as f64;
            out.layer("scanstore.store_bytes", bytes);
            out.layer("scanstore.records_committed", records);
            out.layer("scanstore.bytes_per_record", bytes / records.max(1.0));
            time_view_open(&mut out, &store, tr, Some(p));
        });
    }
    if let Err(e) = server.stop() {
        out.check(false, || format!("daemon did not shut down cleanly: {e}"));
    }
    out.sample("peak_rss_mb", sys::peak_rss_mb());
    let _ = std::fs::remove_dir_all(&store);
    tr.end(root_id);
    out
}

/// A closed-loop pass with one span per request, against the untraced
/// passes' median: `trace.overhead_s` and `trace.span_coverage_ratio`.
fn traced_pass(
    out: &mut Outcome,
    stream: &Stream,
    addr: SocketAddr,
    offset: usize,
    base_wall: f64,
    tr: &Tracer,
    root: Option<SpanId>,
) {
    let pass = tr.begin("pass.traced", root);
    let failed = loadgen::closed_loop(CLOSED_PASS, WORKERS, |i| {
        let j = (offset + i) % stream.targets.len();
        tr.span(FAMILY_SPANS[stream.family[j]], Some(pass), |_| {
            stream.call(addr, j)
        })
    });
    tr.end(pass);
    out.tally(CLOSED_PASS as u64, failed as u64, || {
        format!("{failed} traced requests failed or differed")
    });
    let spans = tr.spans();
    let i = pass.index().expect("tracing is on");
    let dur = (spans[i].end_us - spans[i].start_us) as f64;
    out.layer("trace.overhead_s", dur / 1e6 - base_wall);
    out.layer(
        "trace.span_coverage_ratio",
        child_coverage_us(&spans, i) as f64 / dur.max(1.0),
    );
}

const FAMILY_SPANS: [&str; 5] = [
    "http.classify",
    "http.churn",
    "http.amplifiers",
    "http.coverage",
    "http.inventory",
];

/// `QueryEngine::handle` timed directly on the stream: median per
/// family, and the HTTP overhead over the mix-weighted engine median.
fn engine_layers(
    out: &mut Outcome,
    engine: &QueryEngine,
    stream: &Stream,
    low: &Phase,
    tr: &Tracer,
    parent: Option<SpanId>,
) {
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); FAMILIES.len()];
    tr.span("serve.engine.handle", parent, |_| {
        for j in 0..ENGINE_SAMPLES.min(stream.targets.len()) {
            let t = Instant::now();
            let r = engine.handle(&stream.targets[j]);
            per[stream.family[j]].push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(r);
        }
    });
    let total: usize = per.iter().map(Vec::len).sum();
    let mut weighted = 0.0;
    for (f, samples) in FAMILIES.iter().zip(&per) {
        let p50 = stats::median(samples).unwrap_or(0.0);
        out.layer(&format!("serve.engine_us_p50.{f}"), p50);
        weighted += p50 * samples.len() as f64 / total.max(1) as f64;
    }
    let http_p50_us = low.latency(50.0).unwrap_or(0.0) * 1000.0;
    out.layer("serve.http_overhead_us", http_p50_us - weighted);
}
