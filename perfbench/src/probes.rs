//! Direct timings of single layers, called through their public
//! functions on inputs the benchmark generates from the seed.

use crate::report::Outcome;
use crate::tracer::{SpanId, Tracer};
use dnswire::{encode_0x20, Message, MessageBuilder, Name, Rcode, RecordType};
use htmlsim::gen::{self, PageCtx, RouterVendor, SiteCategory};
use htmlsim::{page_distance, FeatureWeights, PageFeatures, TagInterner};
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Encodes and decodes of each message shape per timing.
const CODEC_ROUNDS: usize = 100_000;

fn name(text: &str) -> Name {
    Name::parse(text).expect("probe names are valid")
}

/// The message shapes the campaigns send and receive.
fn codec_shapes(seed: u64) -> Vec<Message> {
    let id = (seed & 0xffff) as u16;
    let enumerate = MessageBuilder::query(
        id,
        name(&format!(
            "r{:x}.0b00010a.scan.gwild.example",
            seed & 0xfff_ffff
        )),
        RecordType::A,
    )
    .build();
    let chaos = MessageBuilder::chaos_query(id ^ 1, name("version.bind")).build();
    let snoop = MessageBuilder::query(id ^ 2, name("com"), RecordType::Ns)
        .recursion_desired(false)
        .build();
    let domain = name("www.example-bank.com");
    let bits = dnswire::zeroxtwenty::capacity_bits(&domain).min(32);
    let cased = MessageBuilder::query(
        id ^ 3,
        encode_0x20(&domain, seed as u32, bits),
        RecordType::A,
    )
    .build();
    let answer = MessageBuilder::response_to(&enumerate, Rcode::NoError)
        .answer_a(
            enumerate.questions[0].qname.clone(),
            300,
            Ipv4Addr::new(198, 51, 100, (seed % 250) as u8 + 1),
        )
        .build();
    vec![enumerate, chaos, snoop, cased, answer]
}

/// `dnswire.encode_ns` / `dnswire.decode_ns`: mean time per message
/// over the campaign shapes.
pub fn dnswire(out: &mut Outcome, seed: u64, tr: &Tracer, parent: Option<SpanId>) {
    let shapes = codec_shapes(seed);
    let wires: Vec<Vec<u8>> = shapes.iter().map(Message::encode).collect();
    for (shape, wire) in shapes.iter().zip(&wires) {
        let round = Message::decode(wire).map(|m| m.encode());
        out.check(round.as_ref() == Ok(wire), || {
            format!("dnswire round trip changed {:?}", shape.questions)
        });
    }
    let per_op = |t: Instant| t.elapsed().as_nanos() as f64 / (CODEC_ROUNDS * shapes.len()) as f64;
    let encode_ns = tr.span("dnswire.encode", parent, |_| {
        let t = Instant::now();
        for m in &shapes {
            for _ in 0..CODEC_ROUNDS {
                black_box(black_box(m).encode());
            }
        }
        per_op(t)
    });
    let decode_ns = tr.span("dnswire.decode", parent, |_| {
        let t = Instant::now();
        for w in &wires {
            for _ in 0..CODEC_ROUNDS {
                let _ = black_box(Message::decode(black_box(w)));
            }
        }
        per_op(t)
    });
    out.layer("dnswire.encode_ns", encode_ns);
    out.layer("dnswire.decode_ns", decode_ns);
}

/// One generated page of the corpus, cycling through the generator
/// families the simulated web hosts and manipulators serve.
fn page(i: usize, seed: u64) -> String {
    const CATEGORIES: [SiteCategory; 12] = [
        SiteCategory::Ads,
        SiteCategory::Adult,
        SiteCategory::Alexa,
        SiteCategory::Antivirus,
        SiteCategory::Banking,
        SiteCategory::Dating,
        SiteCategory::Filesharing,
        SiteCategory::Gambling,
        SiteCategory::Malware,
        SiteCategory::Tracking,
        SiteCategory::Misc,
        SiteCategory::GroundTruth,
    ];
    let ctx = PageCtx::new(
        &format!("site{}.example", i % 155),
        seed ^ ((i as u64) << 8),
    );
    let legit = || gen::legit_site(CATEGORIES[i % CATEGORIES.len()], &ctx);
    match i % 16 {
        0..=3 => legit(),
        4 => gen::http_error([403, 404, 500, 503][i / 16 % 4], &ctx),
        5 => gen::router_login(
            [
                RouterVendor::ZyRouter,
                RouterVendor::TpConnect,
                RouterVendor::Generic,
            ][i / 16 % 3],
            &ctx,
        ),
        6 => gen::camera_login(&ctx),
        7 => gen::captive_portal(["HotelNet", "CafeSpot", "AirLink"][i / 16 % 3], &ctx),
        8 => gen::webmail_login(&ctx),
        9 => gen::parking_page(["ParkCo", "DomainPark"][i / 16 % 2], &ctx),
        10 => gen::search_page(["Searchly", "Findit"][i / 16 % 2], i % 32 < 16, &ctx),
        11 => gen::censorship_landing(["TR", "IR", "ID"][i / 16 % 3], "Authority", &ctx),
        12 => gen::blocking_page("ISP", "policy", &ctx),
        13 => gen::phishing_kit_images("bank", &ctx),
        14 => gen::inject_ad(&legit(), "ads.example"),
        _ => gen::fake_update_page("Player", &ctx),
    }
}

/// htmlsim and classify on a generated corpus of `n` pages: feature
/// extraction, all-pairs page distance, UPGMA over that matrix, and
/// the whole `cluster_pages` call.
pub fn clustering(out: &mut Outcome, seed: u64, n: usize, tr: &Tracer, parent: Option<SpanId>) {
    let corpus: Vec<String> = (0..n).map(|i| page(i, seed)).collect();
    let mut interner = TagInterner::new();
    let t = Instant::now();
    let features: Vec<PageFeatures> = tr.span("htmlsim.extract", parent, |_| {
        corpus
            .iter()
            .map(|html| PageFeatures::extract(html, &mut interner))
            .collect()
    });
    out.layer(
        "htmlsim.extract_us",
        t.elapsed().as_secs_f64() * 1e6 / n as f64,
    );
    let weights = FeatureWeights::default();
    let mut dist = vec![0f32; n * n];
    let t = Instant::now();
    tr.span("htmlsim.page_distance", parent, |_| {
        for i in 0..n {
            for j in i + 1..n {
                let d = page_distance(&features[i], &features[j], &weights) as f32;
                dist[i * n + j] = d;
                dist[j * n + i] = d;
            }
        }
    });
    let pairs = n * n.saturating_sub(1) / 2;
    out.layer(
        "htmlsim.page_distance_us",
        t.elapsed().as_secs_f64() * 1e6 / pairs.max(1) as f64,
    );
    out.layer("htmlsim.pairs", pairs as f64);
    let threshold = goingwild::AnalysisOptions::default().cluster_threshold;
    let t = Instant::now();
    let by_matrix = tr.span("classify.agglomerate", parent, |_| {
        classify::cluster::agglomerate(n, dist, None).cut(threshold)
    });
    out.layer("classify.agglomerate_s", t.elapsed().as_secs_f64());
    let t = Instant::now();
    let flat = tr.span("classify.cluster_pages", parent, |_| {
        classify::cluster_pages(&features, &weights, threshold)
    });
    out.layer("classify.cluster_s", t.elapsed().as_secs_f64());
    let members: usize = flat.clusters.iter().map(Vec::len).sum();
    out.check(members == n && flat.len() == by_matrix.len(), || {
        format!(
            "cluster_pages gave {} clusters over {members} pages; the matrix path gave {} over {n}",
            flat.len(),
            by_matrix.len()
        )
    });
}
