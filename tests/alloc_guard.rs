//! Heap allocations per mined pattern across one LASH mine plus the index
//! write, counted by a global allocator over `System`. Unlike a wall-clock
//! time, the count does not move with the host: it guards the output path
//! (miner sink → result arena → index writer) against regaining a
//! per-pattern allocation.
//!
//! The allocator counts process-wide, so this binary holds this one test
//! and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use lash::datagen::{ProductConfig, ProductCorpus, ProductHierarchy};
use lash::mapreduce::EngineConfig;
use lash::{GsmParams, Lash, LashConfig};

/// Counts every call that hands out memory: `alloc`, `alloc_zeroed` and
/// `realloc`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Measured at 106,474–107,863 allocations for 45,764 patterns, 2.33–2.36
/// per pattern. When each pattern still became its own `Vec` on the way to the
/// index (cloned into a `BTreeMap` by the miner, decoded into a `Pattern`,
/// cloned again to be sorted for the index), the same run took
/// 265,855–267,231 (5.81–5.84 per pattern).
/// The bound leaves 20% headroom over the measurement and sits more than
/// 3 per pattern below that.
const MAX_ALLOCATIONS_PER_PATTERN: f64 = 2.8;

/// An amzn-shaped corpus (product sessions under the h8 hierarchy, about
/// 0.7 products per session) at γ = 1, λ = 5, mined by the two-thread,
/// 16-reduce-task engine the perf ledger uses, then indexed. The shuffle
/// stays in memory whatever `LASH_SPILL_THRESHOLD` says: the spill path
/// allocates per record, and this counts the output path.
#[test]
fn mine_and_index_allocate_a_bounded_amount_per_pattern() {
    let (vocab, db) = ProductCorpus::generate(&ProductConfig {
        users: 4_000,
        products: 2_800,
        seed: 20150601,
        ..ProductConfig::default()
    })
    .dataset(ProductHierarchy::H8);
    let cluster = EngineConfig::default()
        .with_parallelism(2)
        .with_reduce_tasks(16)
        .with_spill_threshold(None);
    let shards = db.shards(cluster.split_size);
    let lash = Lash::new(LashConfig::new(cluster));
    let params = GsmParams::new(4, 1, 5).unwrap();
    let dir = std::env::temp_dir().join(format!("lash-alloc-guard-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let result = lash.mine_sharded(&shards, &vocab, &params, None).unwrap();
    lash::index::write_patterns(&dir, &vocab, result.arena()).unwrap();
    let patterns = result.arena().len();
    drop(result);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    std::fs::remove_dir_all(&dir).unwrap();

    assert!(patterns > 10_000, "only {patterns} patterns");
    let per_pattern = allocations as f64 / patterns as f64;
    eprintln!("{allocations} allocations for {patterns} patterns: {per_pattern:.3} per pattern");
    assert!(
        per_pattern <= MAX_ALLOCATIONS_PER_PATTERN,
        "{allocations} allocations for {patterns} patterns: {per_pattern:.3} per pattern"
    );
}
