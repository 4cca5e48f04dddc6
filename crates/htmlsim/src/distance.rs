//! String and set distances, and the combined seven-feature page
//! distance of Section 3.6.

use crate::page::PageFeatures;
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Levenshtein edit distance over small-integer symbols (bytes, tag ids).
///
/// Myers' bit-parallel algorithm in Hyyrö's multi-word form: the shorter
/// sequence is the pattern, one bit per pattern position, and each text
/// symbol advances a whole column of the DP matrix in ⌈m/64⌉ word steps,
/// so the cost is O(⌈m/64⌉·n) for lengths `m ≤ n`. The result equals the
/// classic dynamic program's. The match table holds one row per symbol
/// value up to the pattern's largest, which is why the symbols are small
/// integers. Scratch space is per thread and reused, so a call allocates
/// only when it needs a larger table than any earlier call on that
/// thread.
pub fn levenshtein<T: Copy + Into<usize>>(a: &[T], b: &[T]) -> usize {
    let (text, pattern) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    if pattern.is_empty() {
        return text.len();
    }
    SCRATCH.with(|s| s.borrow_mut().distance(pattern, text))
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Per-thread state of the bit-parallel kernel.
#[derive(Default)]
struct Scratch {
    /// Match masks: word `w` of symbol `s`'s row is `peq[s * words + w]`,
    /// bit `i` set where pattern position `64·w + i` holds `s`. All zero
    /// between calls, so the row layout may change from call to call.
    peq: Vec<u64>,
    /// Vertical +1 deltas of the current DP column, one bit per row.
    pv: Vec<u64>,
    /// Vertical −1 deltas of the current DP column.
    mv: Vec<u64>,
}

impl Scratch {
    fn distance<T: Copy + Into<usize>>(&mut self, pattern: &[T], text: &[T]) -> usize {
        let m = pattern.len();
        let words = m.div_ceil(64);
        // Rows `0..alphabet` cover the pattern's symbols; row `alphabet`
        // stays empty and stands for every symbol absent from the pattern.
        let alphabet = pattern.iter().map(|&c| c.into()).max().unwrap_or(0usize) + 1;
        let rows = (alphabet + 1) * words;
        if self.peq.len() < rows {
            self.peq.resize(rows, 0);
        }
        for (i, &c) in pattern.iter().enumerate() {
            let c: usize = c.into();
            self.peq[c * words + i / 64] |= 1 << (i % 64);
        }
        self.pv.clear();
        self.pv.resize(words, !0);
        self.mv.clear();
        self.mv.resize(words, 0);

        // Bit of the last pattern row within the last word.
        let last = 1u64 << ((m - 1) % 64);
        let mut score = m;
        for &c in text {
            let c: usize = c.into();
            let row = &self.peq[c.min(alphabet) * words..][..words];
            // The DP's top row is 0, 1, 2, …: every column enters the
            // first word with a +1 horizontal delta.
            let (mut hp, mut hm) = (1u64, 0u64);
            let (mut ph, mut mh) = (0u64, 0u64);
            for ((pv, mv), &eq) in self.pv.iter_mut().zip(self.mv.iter_mut()).zip(row) {
                (ph, mh) = advance(pv, mv, eq, hp, hm);
                hp = ph >> 63;
                hm = mh >> 63;
            }
            // `ph` and `mh` now hold the last word's horizontal deltas.
            score += usize::from(ph & last != 0);
            score -= usize::from(mh & last != 0);
        }

        for (i, &c) in pattern.iter().enumerate() {
            let c: usize = c.into();
            self.peq[c * words + i / 64] = 0;
        }
        score
    }
}

/// Advances one 64-row word of the DP column by one text symbol.
///
/// `eq` is the symbol's match mask for these rows; `hp`/`hm` (0 or 1)
/// say whether the horizontal delta entering the word's top row is +1
/// or −1. Updates the word's vertical deltas and returns its horizontal
/// +1/−1 deltas before the shift into the next column; their top bits
/// are the delta leaving the word's bottom row.
#[inline(always)]
fn advance(pv: &mut u64, mv: &mut u64, eq: u64, hp: u64, hm: u64) -> (u64, u64) {
    let (p, n) = (*pv, *mv);
    let xv = eq | n;
    // A −1 delta entering the word is the carry of the addition below
    // out of the word above.
    let eq = eq | hm;
    let xh = ((eq & p).wrapping_add(p) ^ p) | eq;
    let ph = n | !(xh | p);
    let mh = p & xh;
    let phs = (ph << 1) | hp;
    let mhs = (mh << 1) | hm;
    *pv = mhs | !(xv | phs);
    *mv = phs & xv;
    (ph, mh)
}

/// Levenshtein distance normalized into `[0, 1]` by the longer length.
/// Two empty sequences have distance 0.
pub fn levenshtein_normalized<T: Copy + Into<usize>>(a: &[T], b: &[T]) -> f64 {
    let max = a.len().max(b.len());
    if max == 0 {
        return 0.0;
    }
    levenshtein(a, b) as f64 / max as f64
}

/// Levenshtein on string bytes, normalized.
pub fn str_distance(a: &str, b: &str) -> f64 {
    // Compare on bytes: the payloads are ASCII-dominated, and bytes keep
    // the kernel's match table at 256 rows.
    levenshtein_normalized(a.as_bytes(), b.as_bytes())
}

/// Jaccard **distance** for multisets: `1 − |A ∩ B| / |A ∪ B|`, where
/// intersection takes per-item minima and union per-item maxima.
/// Two empty multisets have distance 0.
pub fn jaccard_multiset<K: Ord>(a: &BTreeMap<K, u32>, b: &BTreeMap<K, u32>) -> f64 {
    let mut intersection = 0u64;
    let mut union = 0u64;
    let mut ita = a.iter().peekable();
    let mut itb = b.iter().peekable();
    loop {
        match (ita.peek(), itb.peek()) {
            (Some((ka, &va)), Some((kb, &vb))) => {
                use std::cmp::Ordering::*;
                match ka.cmp(kb) {
                    Less => {
                        union += va as u64;
                        ita.next();
                    }
                    Greater => {
                        union += vb as u64;
                        itb.next();
                    }
                    Equal => {
                        intersection += va.min(vb) as u64;
                        union += va.max(vb) as u64;
                        ita.next();
                        itb.next();
                    }
                }
            }
            (Some((_, &va)), None) => {
                union += va as u64;
                ita.next();
            }
            (None, Some((_, &vb))) => {
                union += vb as u64;
                itb.next();
            }
            (None, None) => break,
        }
    }
    if union == 0 {
        0.0
    } else {
        1.0 - intersection as f64 / union as f64
    }
}

/// Relative length difference in `[0, 1]`.
pub fn length_distance(a: usize, b: usize) -> f64 {
    let max = a.max(b);
    if max == 0 {
        0.0
    } else {
        (a.abs_diff(b)) as f64 / max as f64
    }
}

/// Per-feature weights for the combined page distance. The paper uses
/// "seven normalized features of equal weight"; the ablation benches
/// (A-ABL1) zero individual weights to measure each feature's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureWeights {
    /// Weight of the body-length difference.
    pub body_len: f64,
    /// Weight of the tag-multiset Jaccard distance.
    pub tag_multiset: f64,
    /// Weight of the tag-sequence edit distance.
    pub tag_sequence: f64,
    /// Weight of the `<title>` edit distance.
    pub title: f64,
    /// Weight of the inline-JavaScript edit distance.
    pub javascript: f64,
    /// Weight of the `src=` multiset Jaccard distance.
    pub resources: f64,
    /// Weight of the `href=` multiset Jaccard distance.
    pub links: f64,
}

impl Default for FeatureWeights {
    /// Equal weights, as in the paper.
    fn default() -> Self {
        FeatureWeights {
            body_len: 1.0,
            tag_multiset: 1.0,
            tag_sequence: 1.0,
            title: 1.0,
            javascript: 1.0,
            resources: 1.0,
            links: 1.0,
        }
    }
}

impl FeatureWeights {
    /// Equal weights with one feature removed — used by ablations.
    pub fn without(feature: &str) -> Self {
        let mut w = Self::default();
        match feature {
            "body_len" => w.body_len = 0.0,
            "tag_multiset" => w.tag_multiset = 0.0,
            "tag_sequence" => w.tag_sequence = 0.0,
            "title" => w.title = 0.0,
            "javascript" => w.javascript = 0.0,
            "resources" => w.resources = 0.0,
            "links" => w.links = 0.0,
            other => panic!("unknown feature `{other}`"),
        }
        w
    }

    fn total(&self) -> f64 {
        self.body_len
            + self.tag_multiset
            + self.tag_sequence
            + self.title
            + self.javascript
            + self.resources
            + self.links
    }
}

/// The combined page distance in `[0, 1]`: weighted mean of the seven
/// normalized per-feature distances (Section 3.6).
pub fn page_distance(a: &PageFeatures, b: &PageFeatures, w: &FeatureWeights) -> f64 {
    let total = w.total();
    if total == 0.0 {
        return 0.0;
    }
    let mut acc = 0.0;
    if w.body_len > 0.0 {
        acc += w.body_len * length_distance(a.body_len, b.body_len);
    }
    if w.tag_multiset > 0.0 {
        acc += w.tag_multiset * jaccard_multiset(&a.tag_multiset, &b.tag_multiset);
    }
    if w.tag_sequence > 0.0 {
        acc += w.tag_sequence * levenshtein_normalized(&a.tag_sequence, &b.tag_sequence);
    }
    if w.title > 0.0 {
        acc += w.title * str_distance(&a.title, &b.title);
    }
    if w.javascript > 0.0 {
        acc += w.javascript * str_distance(&a.javascript, &b.javascript);
    }
    if w.resources > 0.0 {
        acc += w.resources * jaccard_multiset(&a.resources, &b.resources);
    }
    if w.links > 0.0 {
        acc += w.links * jaccard_multiset(&a.links, &b.links);
    }
    acc / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, PageCtx, SiteCategory};
    use crate::page::{JS_FEATURE_CAP, TAG_SEQ_CAP};
    use crate::tagid::TagInterner;
    use proptest::prelude::*;

    /// The classic two-row dynamic program, O(n·m): the oracle the
    /// bit-parallel kernel must match exactly.
    fn levenshtein_dp<T: PartialEq>(a: &[T], b: &[T]) -> usize {
        let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
        let mut row: Vec<usize> = (0..=short.len()).collect();
        for (i, x) in long.iter().enumerate() {
            let mut prev_diag = row[0];
            row[0] = i + 1;
            for (j, y) in short.iter().enumerate() {
                let cost = usize::from(x != y);
                let next = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
                prev_diag = row[j + 1];
                row[j + 1] = next;
            }
        }
        row[short.len()]
    }

    /// [`page_distance`] with every edit distance taken from the oracle.
    fn page_distance_dp(a: &PageFeatures, b: &PageFeatures, w: &FeatureWeights) -> f64 {
        let norm = |d: usize, x: usize, y: usize| {
            let max = x.max(y);
            if max == 0 {
                0.0
            } else {
                d as f64 / max as f64
            }
        };
        let seq = |x: &[u16], y: &[u16]| norm(levenshtein_dp(x, y), x.len(), y.len());
        let text =
            |x: &str, y: &str| norm(levenshtein_dp(x.as_bytes(), y.as_bytes()), x.len(), y.len());
        let mut acc = 0.0;
        acc += w.body_len * length_distance(a.body_len, b.body_len);
        acc += w.tag_multiset * jaccard_multiset(&a.tag_multiset, &b.tag_multiset);
        acc += w.tag_sequence * seq(&a.tag_sequence, &b.tag_sequence);
        acc += w.title * text(&a.title, &b.title);
        acc += w.javascript * text(&a.javascript, &b.javascript);
        acc += w.resources * jaccard_multiset(&a.resources, &b.resources);
        acc += w.links * jaccard_multiset(&a.links, &b.links);
        acc / w.total()
    }

    /// A deterministic pseudo-random sequence over `0..alphabet`.
    fn noise(len: usize, alphabet: u64, seed: u64) -> Vec<u64> {
        let mut x = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % alphabet
            })
            .collect()
    }

    /// `base` with every `stride`-th symbol substituted, deleted or
    /// followed by an insertion, in turn.
    fn mutate<T: Copy>(base: &[T], stride: usize, fresh: T) -> Vec<T> {
        let mut out = Vec::with_capacity(base.len() + base.len() / stride + 1);
        for (i, &c) in base.iter().enumerate() {
            match (i % stride, i / stride % 3) {
                (0, 0) => out.push(fresh),
                (0, 1) => {}
                (0, _) => out.extend([c, fresh]),
                _ => out.push(c),
            }
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Bytes, lengths 0–300: patterns of one to five words. The
        /// alphabets differ, so text symbols absent from the pattern
        /// occur whichever side is shorter.
        #[test]
        fn bit_parallel_matches_dp_on_bytes(
            a in proptest::collection::vec(0u8..6, 0..300),
            b in proptest::collection::vec(0u8..10, 0..300),
        ) {
            prop_assert_eq!(levenshtein(&a, &b), levenshtein_dp(&a, &b));
            prop_assert_eq!(levenshtein(&b, &a), levenshtein_dp(&a, &b));
        }

        /// Tag ids, lengths 0–300, including ids far above any other
        /// symbol of the pattern.
        #[test]
        fn bit_parallel_matches_dp_on_tag_ids(
            a in proptest::collection::vec(0u16..24, 0..300),
            b in proptest::collection::vec(0u16..24, 0..300),
            far in 1000u16..u16::MAX,
            at in 0usize..300,
        ) {
            let mut b = b;
            if at < b.len() {
                b[at] = far;
            }
            prop_assert_eq!(levenshtein(&a, &b), levenshtein_dp(&a, &b));
        }

        /// A text that is a light edit of the pattern keeps the distance
        /// small, where carries run across many words.
        #[test]
        fn bit_parallel_matches_dp_on_near_copies(
            a in proptest::collection::vec(0u8..4, 60..300),
            stride in 3usize..40,
        ) {
            let b = mutate(&a, stride, 7u8);
            prop_assert_eq!(levenshtein(&a, &b), levenshtein_dp(&a, &b));
        }
    }

    fn bytes(len: usize, alphabet: u64, seed: u64) -> Vec<u8> {
        noise(len, alphabet, seed)
            .iter()
            .map(|&x| x as u8)
            .collect()
    }

    fn tag_ids(len: usize, alphabet: u64, seed: u64) -> Vec<u16> {
        noise(len, alphabet, seed)
            .iter()
            .map(|&x| x as u16)
            .collect()
    }

    fn assert_matches_dp<T: Copy + Into<usize> + PartialEq>(a: &[T], b: &[T]) {
        let want = levenshtein_dp(a, b);
        assert_eq!(
            levenshtein(a, b),
            want,
            "lengths {} and {}",
            a.len(),
            b.len()
        );
        assert_eq!(
            levenshtein(b, a),
            want,
            "lengths {} and {}",
            b.len(),
            a.len()
        );
    }

    #[test]
    fn bit_parallel_matches_dp_at_word_boundaries() {
        for len in [63, 64, 65, 128] {
            let a = bytes(len, 5, len as u64);
            assert_matches_dp(&a, &mutate(&a, 17, 9));
            assert_matches_dp(&a, &a[1..]);
            assert_matches_dp(&a, &bytes(len, 6, 3));
            assert_matches_dp(&a, &[]);
            let ids = tag_ids(len, 90, len as u64 + 1);
            assert_matches_dp(&ids, &mutate(&ids, 11, 500));
            assert_matches_dp(&ids, &ids[..len - 1]);
            assert_matches_dp(&ids, &ids);
        }
    }

    #[test]
    fn bit_parallel_matches_dp_at_feature_caps() {
        let ids = tag_ids(TAG_SEQ_CAP, 90, 7);
        assert_matches_dp(&ids, &mutate(&ids, 29, 500));
        let js = bytes(JS_FEATURE_CAP, 40, 8);
        assert_matches_dp(&js, &mutate(&js, 37, 200));
        assert_matches_dp(&js, &bytes(JS_FEATURE_CAP - 1, 30, 9));
    }

    #[test]
    fn page_distance_is_bit_identical_to_the_dp_oracle() {
        let mut interner = TagInterner::new();
        let categories = [
            SiteCategory::Banking,
            SiteCategory::Ads,
            SiteCategory::Alexa,
            SiteCategory::Tracking,
        ];
        let mut pages: Vec<String> = Vec::new();
        for seed in 0..6u64 {
            let ctx = PageCtx::new(&format!("site{seed}.example"), seed);
            let legit = gen::legit_site(categories[seed as usize % categories.len()], &ctx);
            pages.push(gen::inject_script(&legit, "js.example"));
            pages.push(gen::inject_ad(&legit, "ads.example"));
            pages.push(legit);
            pages.push(gen::http_error(404 + seed as u16, &ctx));
            pages.push(gen::router_login(gen::RouterVendor::ZyRouter, &ctx));
            pages.push(gen::parking_page("ParkCo", &ctx));
            pages.push(gen::phishing_kit_images("bank", &ctx));
            pages.push(gen::fake_update_page("Player", &ctx));
            pages.push(gen::search_page("Findit", seed % 2 == 0, &ctx));
        }
        // Pages whose tag sequence and script reach the feature caps.
        pages.push(format!(
            "<html><body>{}<script>{}</script></body></html>",
            "<div><p>x</p><a href=\"/l\">l</a></div>".repeat(TAG_SEQ_CAP / 3 + 5),
            "var q = track(1);".repeat(JS_FEATURE_CAP / 16 + 5),
        ));
        pages.push(format!(
            "<html><body>{}<script>{}</script></body></html>",
            "<div><span>y</span></div>".repeat(TAG_SEQ_CAP / 4),
            "var q = track(2);".repeat(JS_FEATURE_CAP / 32),
        ));
        let features: Vec<PageFeatures> = pages
            .iter()
            .map(|html| PageFeatures::extract(html, &mut interner))
            .collect();
        assert!(features
            .iter()
            .any(|f| f.tag_sequence.len() == TAG_SEQ_CAP && f.javascript.len() == JS_FEATURE_CAP));
        let weights = [FeatureWeights::default(), FeatureWeights::without("title")];
        for w in &weights {
            for (i, a) in features.iter().enumerate() {
                for b in &features[i + 1..] {
                    let oracle = page_distance_dp(a, b, w).to_bits();
                    assert_eq!(page_distance(a, b, w).to_bits(), oracle);
                    assert_eq!(page_distance(b, a, w).to_bits(), oracle);
                }
            }
        }
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein(b"kitten", b"sitting"), 3);
        assert_eq!(levenshtein(b"", b"abc"), 3);
        assert_eq!(levenshtein(b"abc", b""), 3);
        assert_eq!(levenshtein(b"abc", b"abc"), 0);
        assert_eq!(levenshtein(b"flaw", b"lawn"), 2);
    }

    #[test]
    fn levenshtein_symmetric() {
        assert_eq!(
            levenshtein(b"abcdef", b"azced"),
            levenshtein(b"azced", b"abcdef")
        );
    }

    #[test]
    fn normalized_in_unit_interval() {
        assert_eq!(levenshtein_normalized::<u8>(&[], &[]), 0.0);
        assert_eq!(levenshtein_normalized(b"abc", b"xyz"), 1.0);
        let d = levenshtein_normalized(b"abcd", b"abcx");
        assert!(d > 0.0 && d < 1.0);
    }

    #[test]
    fn jaccard_multiset_semantics() {
        let a: BTreeMap<&str, u32> = [("x", 2), ("y", 1)].into_iter().collect();
        let b: BTreeMap<&str, u32> = [("x", 1), ("z", 1)].into_iter().collect();
        // intersection = min(2,1) = 1; union = max(2,1)+1+1 = 4
        assert!((jaccard_multiset(&a, &b) - 0.75).abs() < 1e-12);
        assert_eq!(jaccard_multiset(&a, &a), 0.0);
        let empty: BTreeMap<&str, u32> = BTreeMap::new();
        assert_eq!(jaccard_multiset(&empty, &empty), 0.0);
        assert_eq!(jaccard_multiset(&a, &empty), 1.0);
    }

    #[test]
    fn identical_pages_have_zero_distance() {
        let mut i = TagInterner::new();
        let html = "<html><head><title>T</title></head><body><p>x</p></body></html>";
        let a = PageFeatures::extract(html, &mut i);
        let b = PageFeatures::extract(html, &mut i);
        assert_eq!(page_distance(&a, &b, &FeatureWeights::default()), 0.0);
    }

    #[test]
    fn unrelated_pages_have_large_distance() {
        let mut i = TagInterner::new();
        let a = PageFeatures::extract(
            "<html><head><title>Bank login</title><script>auth();</script></head>\
             <body><form action=\"/login\"><input></form></body></html>",
            &mut i,
        );
        let b = PageFeatures::extract(
            "<html><head><title>404 Not Found</title></head><body><h1>404</h1></body></html>",
            &mut i,
        );
        let d = page_distance(&a, &b, &FeatureWeights::default());
        assert!(d > 0.35, "distance was {d}");
    }

    #[test]
    fn small_modification_has_small_distance() {
        let mut i = TagInterner::new();
        let base = format!(
            "<html><head><title>News</title></head><body>{}</body></html>",
            "<div><p>story</p></div>".repeat(40)
        );
        let injected = base.replace(
            "</body>",
            "<script src=\"http://evil.example/adjector.js\"></script></body>",
        );
        let a = PageFeatures::extract(&base, &mut i);
        let b = PageFeatures::extract(&injected, &mut i);
        let d = page_distance(&a, &b, &FeatureWeights::default());
        assert!(d < 0.2, "distance was {d}");
        assert!(d > 0.0);
    }

    #[test]
    fn distance_is_symmetric_and_bounded() {
        let mut i = TagInterner::new();
        let a = PageFeatures::extract("<p>one</p>", &mut i);
        let b = PageFeatures::extract(
            "<html><body><table><tr><td>x</td></tr></table></body></html>",
            &mut i,
        );
        let w = FeatureWeights::default();
        let d1 = page_distance(&a, &b, &w);
        let d2 = page_distance(&b, &a, &w);
        assert_eq!(d1, d2);
        assert!((0.0..=1.0).contains(&d1));
    }

    #[test]
    fn ablation_weights() {
        let w = FeatureWeights::without("javascript");
        assert_eq!(w.javascript, 0.0);
        assert_eq!(w.title, 1.0);
    }

    #[test]
    #[should_panic(expected = "unknown feature")]
    fn ablation_rejects_unknown_feature() {
        let _ = FeatureWeights::without("bogus");
    }
}
