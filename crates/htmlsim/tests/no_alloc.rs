//! `page_distance` must not touch the heap per pair: the edit-distance
//! kernel keeps its tables in per-thread scratch. This test binary holds
//! a single test, so the counting allocator sees only its own thread.

use htmlsim::distance::{page_distance, FeatureWeights};
use htmlsim::gen::{self, PageCtx, SiteCategory};
use htmlsim::{PageFeatures, TagInterner};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn page_distance_allocates_nothing_per_pair() {
    let mut interner = TagInterner::new();
    let mut pages: Vec<PageFeatures> = Vec::new();
    for seed in 0..8u64 {
        let ctx = PageCtx::new(&format!("s{seed}.example"), seed);
        let legit = gen::legit_site(SiteCategory::Banking, &ctx);
        for html in [
            gen::inject_script(&legit, "js.example"),
            legit,
            gen::http_error(404, &ctx),
            gen::phishing_kit_images("bank", &ctx),
        ] {
            pages.push(PageFeatures::extract(&html, &mut interner));
        }
    }
    let w = FeatureWeights::default();
    let all_pairs = |pages: &[PageFeatures]| {
        let mut sum = 0.0;
        for a in pages {
            for b in pages {
                sum += page_distance(a, b, &w);
            }
        }
        sum
    };
    // The first sweep sizes the scratch tables for the largest pair.
    let warm = all_pairs(&pages);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let again = all_pairs(&pages);
    let allocated = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(warm.to_bits(), again.to_bits());
    assert_eq!(
        allocated,
        0,
        "{} pairs allocated {allocated} times",
        pages.len().pow(2)
    );
}
