//! The Sec. 4.3 case-study detectors.
//!
//! Each detector consumes acquired content for unexpected tuples and
//! reports the specific abuse class with the evidence the paper cites.

use htmlsim::{tokenize, PageFeatures, TagInterner, Token};
use scanner::Acquired;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

/// One unexpected tuple with its acquired content — the unit all
/// detectors work on.
#[derive(Debug, Clone)]
pub struct CaseRecord {
    /// Index of the resolver in the scanned fleet.
    pub resolver_idx: u32,
    /// The resolver's address at scan time.
    pub resolver_ip: Ipv4Addr,
    /// The queried domain.
    pub domain: String,
    /// The address the resolver answered with.
    pub target_ip: Ipv4Addr,
    /// Content fetched from that address.
    pub acquired: Acquired,
}

// ---------------------------------------------------------------------
// Transparent proxies
// ---------------------------------------------------------------------

/// Proxy findings (Sec. 4.3: 20 proxy IPs; 99 resolvers → 10 TLS IPs,
/// 10,179 resolvers → 10 HTTP-only IPs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProxyReport {
    /// Proxy addresses that forward valid TLS.
    pub tls_proxy_ips: BTreeSet<Ipv4Addr>,
    /// Proxy addresses refusing TLS (credential-exposure risk).
    pub http_only_proxy_ips: BTreeSet<Ipv4Addr>,
    /// Resolvers pointing at TLS-capable proxies.
    pub resolvers_via_tls: BTreeSet<u32>,
    /// Resolvers pointing at HTTP-only proxies.
    pub resolvers_via_http_only: BTreeSet<u32>,
}

/// Detect transparent proxies: a target IP that served the *original*
/// content (byte-equal to ground truth) for at least `min_domains`
/// distinct domains. TLS capability splits the two classes.
pub fn detect_proxies(
    records: &[CaseRecord],
    ground_truth_bodies: &BTreeMap<String, String>,
    min_domains: usize,
) -> ProxyReport {
    // target ip → set of domains it mirrored, TLS evidence, resolvers.
    struct Acc {
        mirrored: BTreeSet<String>,
        tls_ok: bool,
        any_tls_attempt: bool,
        resolvers: BTreeSet<u32>,
    }
    let mut by_ip: BTreeMap<Ipv4Addr, Acc> = BTreeMap::new();
    for r in records {
        let Some(http) = &r.acquired.http else {
            continue;
        };
        let Some(gt) = ground_truth_bodies.get(&r.domain) else {
            continue;
        };
        if http.status != 200 || &http.body != gt {
            continue;
        }
        let acc = by_ip.entry(r.target_ip).or_insert_with(|| Acc {
            mirrored: BTreeSet::new(),
            tls_ok: false,
            any_tls_attempt: false,
            resolvers: BTreeSet::new(),
        });
        acc.mirrored.insert(r.domain.clone());
        acc.resolvers.insert(r.resolver_idx);
        acc.any_tls_attempt = true;
        if let Some(page) = &r.acquired.https_sni {
            if page
                .certificate
                .as_ref()
                .map(|c| c.valid_chain && c.covers(&r.domain))
                .unwrap_or(false)
            {
                acc.tls_ok = true;
            }
        }
    }
    let mut report = ProxyReport::default();
    for (ip, acc) in by_ip {
        if acc.mirrored.len() < min_domains {
            continue;
        }
        if acc.tls_ok {
            report.tls_proxy_ips.insert(ip);
            report.resolvers_via_tls.extend(acc.resolvers);
        } else {
            report.http_only_proxy_ips.insert(ip);
            report.resolvers_via_http_only.extend(acc.resolvers);
        }
    }
    report
}

// ---------------------------------------------------------------------
// Phishing
// ---------------------------------------------------------------------

/// One phishing finding.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhishFinding {
    /// The phishing host.
    pub target_ip: Ipv4Addr,
    /// The impersonated domain.
    pub domain: String,
    /// Resolvers directing clients there.
    pub resolvers: BTreeSet<u32>,
    /// Evidence tokens (image-kit structure, foreign form action,
    /// self-signed certificate).
    pub evidence: Vec<String>,
}

/// Detect phishing hosts: content impersonating a specific domain with
/// credential capture re-pointed at attacker infrastructure.
pub fn detect_phishing(
    records: &[CaseRecord],
    ground_truth_bodies: &BTreeMap<String, String>,
) -> Vec<PhishFinding> {
    let mut pages = Pages::new(ground_truth_bodies);
    let mut verdicts = HashMap::new();
    let mut by_key: BTreeMap<(Ipv4Addr, String), PhishFinding> = BTreeMap::new();
    for r in records {
        let Some(http) = &r.acquired.http else {
            continue;
        };
        if http.status != 200 {
            continue;
        }
        let mut evidence = memoized(&mut verdicts, r, &http.body, || {
            page_phish_evidence(&http.body, &r.domain, &mut pages)
        });

        // Self-signed TLS on an impersonated domain.
        if let Some(page) = &r.acquired.https_sni {
            if let Some(cert) = &page.certificate {
                if !cert.valid_chain {
                    evidence.push("self-signed certificate".to_string());
                }
            }
        }

        if evidence.is_empty() {
            continue;
        }
        let entry = by_key
            .entry((r.target_ip, r.domain.clone()))
            .or_insert_with(|| PhishFinding {
                target_ip: r.target_ip,
                domain: r.domain.clone(),
                resolvers: BTreeSet::new(),
                evidence: Vec::new(),
            });
        entry.resolvers.insert(r.resolver_idx);
        for e in evidence {
            if !entry.evidence.contains(&e) {
                entry.evidence.push(e);
            }
        }
    }
    by_key.into_values().collect()
}

/// The phishing evidence a page body carries for `domain`: the image-kit
/// structure and a credential form posting to a foreign host.
fn page_phish_evidence(body: &str, domain: &str, pages: &mut Pages<'_>) -> Vec<String> {
    let mut evidence = Vec::new();
    let page = parse_page(body, &mut pages.interner);

    // Structure: the 46-<img> + POST-form kit.
    let imgs = page.features.count_of("img", &pages.interner);
    let forms = page.features.count_of("form", &pages.interner);
    if imgs >= 30 && forms >= 1 {
        evidence.push(format!("image-kit structure ({imgs} img tags + form)"));
    }

    // Credential form posting to a foreign host / php collector.
    if let Some(action) = &page.form_action {
        let foreign = action.starts_with("http://") || action.starts_with("https://");
        let foreign_host = foreign && !action.contains(domain);
        if foreign_host && (action.ends_with(".php") || action.contains(".php")) {
            evidence.push(format!("credential form posts to {action}"));
        } else if foreign_host && forms >= 1 && pages.mimics(&page, domain) {
            evidence.push(format!("cloned page posts to {action}"));
        }
    }
    evidence
}

/// The verdict for record `r`, computed once per `(target_ip, domain)`.
/// The pipeline fetches each pair once, so every record of a pair
/// carries the same body; a stored verdict is reused only when the
/// record's body is the one it was computed from.
fn memoized<'a, V: Clone>(
    verdicts: &mut HashMap<(Ipv4Addr, &'a str), (&'a str, V)>,
    r: &'a CaseRecord,
    body: &'a str,
    verdict: impl FnOnce() -> V,
) -> V {
    match verdicts.entry((r.target_ip, r.domain.as_str())) {
        Entry::Occupied(e) if e.get().0 == body => e.get().1.clone(),
        Entry::Occupied(_) => verdict(),
        Entry::Vacant(e) => e.insert((body, verdict())).1.clone(),
    }
}

/// What the detectors read from one page, taken from one tokenization.
struct ParsedPage {
    features: PageFeatures,
    /// The first `action` attribute of a `<form>`.
    form_action: Option<String>,
    /// Every `src` attribute value.
    srcs: BTreeSet<String>,
    /// The `src` attribute values of `<script>` tags.
    script_srcs: BTreeSet<String>,
}

/// Parses pages under one tag interner, and each domain's ground truth
/// at most once per detector call.
struct Pages<'a> {
    ground_truth_bodies: &'a BTreeMap<String, String>,
    interner: TagInterner,
    truths: HashMap<&'a str, ParsedPage>,
}

impl<'a> Pages<'a> {
    fn new(ground_truth_bodies: &'a BTreeMap<String, String>) -> Self {
        Pages {
            ground_truth_bodies,
            interner: TagInterner::new(),
            truths: HashMap::new(),
        }
    }

    /// The parsed ground truth of `domain`, if it has one.
    fn truth(&mut self, domain: &str) -> Option<&ParsedPage> {
        let (name, body) = self.ground_truth_bodies.get_key_value(domain)?;
        let interner = &mut self.interner;
        Some(
            self.truths
                .entry(name.as_str())
                .or_insert_with(|| parse_page(body, interner)),
        )
    }

    /// Whether `page` is structurally close to `domain`'s ground truth
    /// (>60% of opening tags shared).
    fn mimics(&mut self, page: &ParsedPage, domain: &str) -> bool {
        self.truth(domain).is_some_and(|gt| {
            htmlsim::distance::jaccard_multiset(
                &page.features.tag_multiset,
                &gt.features.tag_multiset,
            ) < 0.4
        })
    }
}

fn parse_page(body: &str, interner: &mut TagInterner) -> ParsedPage {
    let tokens = tokenize(body);
    let mut form_action = None;
    let mut srcs = BTreeSet::new();
    let mut script_srcs = BTreeSet::new();
    for token in &tokens {
        let Token::Open { name, attrs, .. } = token else {
            continue;
        };
        for (k, v) in attrs {
            if k == "action" && name == "form" && form_action.is_none() {
                form_action = Some(v.clone());
            } else if k == "src" {
                srcs.insert(v.clone());
                if name == "script" {
                    script_srcs.insert(v.clone());
                }
            }
        }
    }
    ParsedPage {
        features: PageFeatures::from_tokens(body.len(), &tokens, interner),
        form_action,
        srcs,
        script_srcs,
    }
}

// ---------------------------------------------------------------------
// Ad manipulation
// ---------------------------------------------------------------------

/// Ad-traffic manipulation classes (Sec. 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AdManipulation {
    /// Banners injected into the provider's page.
    InjectedBanner,
    /// Suspicious JavaScript injected.
    InjectedScript,
    /// Ads replaced with empty placeholders.
    BlankedAds,
    /// A search-page mimicry with embedded ads.
    FakeSearchFront,
}

/// Findings per manipulation class.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AdReport {
    /// Manipulating addresses per class.
    pub by_class: BTreeMap<AdManipulation, BTreeSet<Ipv4Addr>>,
    /// Participating resolvers per class.
    pub resolvers: BTreeMap<AdManipulation, BTreeSet<u32>>,
}

/// Detect manipulated ad-provider responses by diffing against ground
/// truth.
pub fn detect_ad_manipulation(
    records: &[CaseRecord],
    ground_truth_bodies: &BTreeMap<String, String>,
) -> AdReport {
    let mut pages = Pages::new(ground_truth_bodies);
    let mut verdicts = HashMap::new();
    let mut report = AdReport::default();
    for r in records {
        let Some(http) = &r.acquired.http else {
            continue;
        };
        let Some(gt) = ground_truth_bodies.get(&r.domain) else {
            continue;
        };
        if http.status != 200 || &http.body == gt {
            continue;
        }
        let class = memoized(&mut verdicts, r, &http.body, || {
            ad_manipulation(&http.body, &r.domain, &mut pages)
        });
        if let Some(class) = class {
            report
                .by_class
                .entry(class)
                .or_default()
                .insert(r.target_ip);
            report
                .resolvers
                .entry(class)
                .or_default()
                .insert(r.resolver_idx);
        }
    }
    report
}

/// The manipulation a body that differs from `domain`'s ground truth
/// shows, if any.
fn ad_manipulation(body: &str, domain: &str, pages: &mut Pages<'_>) -> Option<AdManipulation> {
    let lower = body.to_ascii_lowercase();
    if lower.contains("did you mean") && lower.contains("search") {
        return Some(AdManipulation::FakeSearchFront);
    }
    // Injection classes require the page to still *be* the ad
    // provider's page — unrelated redirect targets (error pages, misc
    // sites) have their own src attributes and must not count as
    // injections.
    let page = parse_page(body, &mut pages.interner);
    if !pages.mimics(&page, domain) {
        return None;
    }
    let gt = pages.truth(domain)?;
    let added_src = page.srcs.difference(&gt.srcs).next().is_some();
    let removed_src = gt.srcs.difference(&page.srcs).next().is_some();
    let added_script = page
        .script_srcs
        .difference(&gt.script_srcs)
        .next()
        .is_some();
    if body.contains("/blank.gif") && removed_src {
        Some(AdManipulation::BlankedAds)
    } else if added_script {
        Some(AdManipulation::InjectedScript)
    } else if added_src {
        Some(AdManipulation::InjectedBanner)
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// Mail interception
// ---------------------------------------------------------------------

/// Mail findings (Sec. 4.3: 64.7% of MX-suspicious resolvers → 1,135
/// listening IPs; 8 resolvers → banner clones).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MailReport {
    /// IPs listening on mail ports for redirected MX hostnames.
    pub listening_ips: BTreeSet<Ipv4Addr>,
    /// IPs whose banners match a legitimate provider's banners —
    /// the suspicious clones.
    pub clone_ips: BTreeSet<Ipv4Addr>,
    /// Resolvers redirecting mail hostnames.
    pub resolvers: BTreeSet<u32>,
}

/// Detect mail interception. `legit_banners` are the banner strings of
/// the real providers.
pub fn detect_mail_interception(
    records: &[CaseRecord],
    legit_banners: &BTreeSet<String>,
) -> MailReport {
    let mut report = MailReport::default();
    for r in records {
        if r.acquired.mail_banners.is_empty() {
            continue;
        }
        report.listening_ips.insert(r.target_ip);
        report.resolvers.insert(r.resolver_idx);
        if r.acquired
            .mail_banners
            .iter()
            .any(|(_, b)| legit_banners.contains(b))
        {
            report.clone_ips.insert(r.target_ip);
        }
    }
    report
}

// ---------------------------------------------------------------------
// Malware droppers
// ---------------------------------------------------------------------

/// Fake-update malware findings (Sec. 4.3: 228 resolvers → 30 IPs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MalwareReport {
    /// Fake-update hosts serving executables.
    pub dropper_ips: BTreeSet<Ipv4Addr>,
    /// Resolvers directing clients there.
    pub resolvers: BTreeSet<u32>,
}

/// Detect fake-update dropper pages: update-themed content offering an
/// executable download.
pub fn detect_malware_updates(records: &[CaseRecord]) -> MalwareReport {
    let mut report = MalwareReport::default();
    for r in records {
        let Some(http) = &r.acquired.http else {
            continue;
        };
        let body = http.body.to_ascii_lowercase();
        if (body.contains("out of date")
            || body.contains("update required")
            || body.contains("install update"))
            && body.contains(".exe")
        {
            report.dropper_ips.insert(r.target_ip);
            report.resolvers.insert(r.resolver_idx);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use htmlsim::gen::{self, PageCtx, SiteCategory};
    use scanner::FetchedPage;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn fetched(status: u16, body: &str) -> FetchedPage {
        FetchedPage {
            status,
            body: body.to_string(),
            certificate: None,
            redirects: 0,
            final_host: "h".into(),
            final_ip: ip("9.9.9.9"),
        }
    }

    fn rec(resolver: u32, domain: &str, target: &str, http_body: Option<&str>) -> CaseRecord {
        CaseRecord {
            resolver_idx: resolver,
            resolver_ip: ip("5.5.5.5"),
            domain: domain.to_string(),
            target_ip: ip(target),
            acquired: Acquired {
                http: http_body.map(|b| fetched(200, b)),
                https_sni: None,
                https_nosni: None,
                mail_banners: Vec::new(),
            },
        }
    }

    #[test]
    fn proxies_need_multiple_domains_and_identity() {
        let gt_a = gen::legit_site(
            SiteCategory::Banking,
            &PageCtx::new("a.example", htmlsim::gen::PageCtx::new("a.example", 0).seed),
        );
        // Use the shared legit_content convention instead: identical
        // bodies keyed by domain.
        let mut gts = BTreeMap::new();
        gts.insert("a.example".to_string(), "BODY-A".to_string());
        gts.insert("b.example".to_string(), "BODY-B".to_string());
        gts.insert("c.example".to_string(), "BODY-C".to_string());
        let _ = gt_a;

        let records = vec![
            rec(1, "a.example", "30.0.0.1", Some("BODY-A")),
            rec(1, "b.example", "30.0.0.1", Some("BODY-B")),
            rec(2, "c.example", "30.0.0.1", Some("BODY-C")),
            // A host mirroring only one domain is not a proxy.
            rec(3, "a.example", "30.0.0.2", Some("BODY-A")),
            // A host serving different content is not a proxy.
            rec(4, "a.example", "30.0.0.3", Some("OTHER")),
        ];
        let report = detect_proxies(&records, &gts, 2);
        assert!(report.http_only_proxy_ips.contains(&ip("30.0.0.1")));
        assert!(!report.http_only_proxy_ips.contains(&ip("30.0.0.2")));
        assert!(!report.http_only_proxy_ips.contains(&ip("30.0.0.3")));
        assert_eq!(
            report.resolvers_via_http_only,
            [1u32, 2].into_iter().collect()
        );
    }

    #[test]
    fn phishing_kit_detected() {
        let kit = gen::phishing_kit_images("paypal", &PageCtx::new("paypal.example", 1));
        let records = vec![rec(7, "paypal.example", "40.0.0.1", Some(&kit))];
        let gts = BTreeMap::new();
        let findings = detect_phishing(&records, &gts);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].evidence.iter().any(|e| e.contains("image-kit")));
        assert!(findings[0]
            .evidence
            .iter()
            .any(|e| e.contains("collect.php")));
        assert!(findings[0].resolvers.contains(&7));
    }

    #[test]
    fn bank_clone_detected() {
        let gt = gen::legit_site(
            SiteCategory::Banking,
            &PageCtx::new(
                "bank.example",
                htmlsim::gen::PageCtx::new("bank.example", 0).seed,
            ),
        );
        // The clone generator rewrites the form action.
        let clone = gt.replace(
            "https://bank.example/login",
            "http://203.0.113.66/cgi/harvest.php",
        );
        let mut gts = BTreeMap::new();
        gts.insert("bank.example".to_string(), gt);
        let records = vec![rec(9, "bank.example", "41.0.0.1", Some(&clone))];
        let findings = detect_phishing(&records, &gts);
        assert_eq!(findings.len(), 1, "clone with foreign php action");
    }

    #[test]
    fn legit_content_not_phishing() {
        let gt = gen::legit_site(SiteCategory::Banking, &PageCtx::new("bank.example", 3));
        let mut gts = BTreeMap::new();
        gts.insert("bank.example".to_string(), gt.clone());
        let records = vec![rec(9, "bank.example", "41.0.0.1", Some(&gt))];
        assert!(detect_phishing(&records, &gts).is_empty());
    }

    #[test]
    fn verdicts_follow_the_body_within_one_pair() {
        let kit = gen::phishing_kit_images("paypal", &PageCtx::new("paypal.example", 1));
        let gt = gen::legit_site(SiteCategory::Ads, &PageCtx::new("adnet.example", 5));
        let injected = gen::inject_ad(&gt, "ads.rogue.example");
        let mut gts = BTreeMap::new();
        gts.insert("adnet.example".to_string(), gt);
        // Records of one (target, domain) pair usually carry one fetched
        // body; when they do not, each body gets its own verdict.
        let records = vec![
            rec(1, "paypal.example", "40.0.0.1", Some(&kit)),
            rec(2, "paypal.example", "40.0.0.1", Some("<html>plain</html>")),
            rec(3, "paypal.example", "40.0.0.1", Some(&kit)),
            rec(4, "adnet.example", "50.0.0.1", Some("<html>plain</html>")),
            rec(5, "adnet.example", "50.0.0.1", Some(&injected)),
        ];
        let findings = detect_phishing(&records, &gts);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].resolvers, [1u32, 3].into_iter().collect());
        let report = detect_ad_manipulation(&records, &gts);
        assert_eq!(
            report.resolvers[&AdManipulation::InjectedBanner],
            [5u32].into_iter().collect()
        );
    }

    #[test]
    fn ad_manipulation_classes() {
        let gt = gen::legit_site(SiteCategory::Ads, &PageCtx::new("adnet.example", 5));
        let injected = gen::inject_ad(&gt, "ads.rogue.example");
        let scripted = gen::inject_script(&gt, "js.rogue.example");
        let fake = gen::search_page("Google", true, &PageCtx::new("adnet.example", 5));
        let mut gts = BTreeMap::new();
        gts.insert("adnet.example".to_string(), gt);
        let records = vec![
            rec(1, "adnet.example", "50.0.0.1", Some(&injected)),
            rec(2, "adnet.example", "50.0.0.2", Some(&scripted)),
            rec(3, "adnet.example", "50.0.0.3", Some(&fake)),
        ];
        let report = detect_ad_manipulation(&records, &gts);
        assert!(report.by_class[&AdManipulation::InjectedBanner].contains(&ip("50.0.0.1")));
        assert!(report.by_class[&AdManipulation::InjectedScript].contains(&ip("50.0.0.2")));
        assert!(report.by_class[&AdManipulation::FakeSearchFront].contains(&ip("50.0.0.3")));
    }

    #[test]
    fn mail_interception_and_clones() {
        let legit: BTreeSet<String> = ["220 smtp.gmail.example ESMTP ready".to_string()]
            .into_iter()
            .collect();
        let mut r1 = rec(1, "smtp.gmail.example", "60.0.0.1", None);
        r1.acquired.mail_banners = vec![("smtp".into(), "220 mail-relay-3 ESMTP".into())];
        let mut r2 = rec(2, "smtp.gmail.example", "60.0.0.2", None);
        r2.acquired.mail_banners =
            vec![("smtp".into(), "220 smtp.gmail.example ESMTP ready".into())];
        let r3 = rec(3, "smtp.gmail.example", "60.0.0.3", None);
        let report = detect_mail_interception(&[r1, r2, r3], &legit);
        assert_eq!(report.listening_ips.len(), 2);
        assert_eq!(report.clone_ips, [ip("60.0.0.2")].into_iter().collect());
    }

    #[test]
    fn malware_droppers_detected() {
        let page = gen::fake_update_page("Flash", &PageCtx::new("update.adobe.example", 2));
        let records = vec![
            rec(1, "update.adobe.example", "70.0.0.1", Some(&page)),
            rec(
                2,
                "update.adobe.example",
                "70.0.0.2",
                Some("<html>plain</html>"),
            ),
        ];
        let report = detect_malware_updates(&records);
        assert_eq!(report.dropper_ips, [ip("70.0.0.1")].into_iter().collect());
    }
}
