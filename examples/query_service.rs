//! Serving mined patterns: mine a corpus, lay the result out as an
//! on-disk pattern index, and answer exact-support / prefix / top-k /
//! hierarchy-aware queries concurrently from multiple threads against one
//! atomically swappable snapshot — then re-mine and swap.
//!
//! Run with: `cargo run --release --example query_service`

use std::sync::Arc;

use lash::datagen::{TextConfig, TextCorpus, TextHierarchy};
use lash::index::{PatternIndexReader, Query, QueryReply, QueryService};
use lash::{GsmParams, ItemId, Lash, Pattern, Vocabulary};

fn main() -> Result<(), lash::Error> {
    // A synthetic NYT-like corpus with a lemma → POS hierarchy.
    let (vocab, db) = TextCorpus::generate(&TextConfig {
        sentences: 4_000,
        lemmas: 800,
        ..TextConfig::default()
    })
    .dataset(TextHierarchy::LP);
    let params = GsmParams::new(20, 1, 4)?;
    let result = Lash::default().mine(&db, &vocab, &params)?;
    let patterns = result.patterns().to_vec();
    println!(
        "mined {} patterns from {} sequences",
        patterns.len(),
        db.len()
    );

    // Build the index: the mined patterns, streamed from the result in
    // item-id order and laid out once as a block-structured prefix trie.
    let dir = std::env::temp_dir().join(format!("lash-query-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = lash::index::write_patterns(&dir, &vocab, result.arena())?;
    println!(
        "indexed: {} patterns, {} trie nodes, {:.1} KiB arena",
        summary.num_patterns,
        summary.num_nodes,
        summary.arena_bytes as f64 / 1024.0
    );

    // Serve it. The service is one shared handle; every thread grabs an
    // Arc snapshot and queries lock-free.
    let service = Arc::new(QueryService::new(PatternIndexReader::open(&dir)?));
    let threads = 4;
    let mut handles = Vec::new();
    for t in 0..threads {
        let service = Arc::clone(&service);
        let patterns = patterns.clone();
        handles.push(std::thread::spawn(move || {
            let snapshot = service.snapshot();
            let mut answered = 0u64;
            // Each thread takes a stripe of the pattern list and checks
            // every answer against brute force over the mined output.
            for p in patterns.iter().skip(t).step_by(threads) {
                // Exact support, through the instrumented service path (it
                // records per-query-type latency into the shared registry).
                let reply = service
                    .execute(&Query::Support {
                        items: p.items.clone(),
                    })
                    .unwrap();
                assert_eq!(reply, QueryReply::Support(Some(p.frequency)));
                // Prefix enumeration equals the brute-force filter.
                let prefix = &p.items[..1];
                let got = snapshot.enumerate(prefix, None).unwrap();
                let want = brute_enumerate(&patterns, prefix);
                assert_eq!(got, want);
                // Hierarchy-aware: the pattern's own items always find it.
                let hits = snapshot.lookup_generalized(&p.items).unwrap();
                assert!(hits
                    .iter()
                    .any(|(items, f)| items == &p.items && *f == p.frequency));
                answered += 3;
            }
            // Top-k with the pruning bound agrees with brute force.
            let got = snapshot.top_k(&[], 10).unwrap();
            assert_eq!(got, brute_top_k(&patterns, 10));
            (t, answered + 1)
        }));
    }
    for h in handles {
        let (t, answered) = h.join().expect("serving thread");
        println!("thread {t}: {answered} queries answered, all equal to brute force");
    }

    // What the registry saw: support-latency quantiles from the storm's
    // instrumented path and the queries-served counter.
    println!(
        "\nmetrics after the query storm:\n{}",
        lash::obs::global().render_text()
    );

    // A taste of the query surface itself.
    let top = service.execute(&Query::TopK {
        prefix: vec![],
        k: 3,
    })?;
    if let QueryReply::Patterns(hits) = top {
        println!("\ntop-3 patterns by frequency:");
        for hit in hits {
            println!("  {:<30} {}", display(&vocab, &hit.items), hit.frequency);
        }
    }

    // Leaf-phrased hierarchy query: take a mined generalized pattern and
    // query it through one of its leaf specializations.
    if let Some((leaf_query, generalized)) = leaf_probe(&vocab, &patterns) {
        let hits = service.execute(&Query::Generalized {
            items: leaf_query.clone(),
        })?;
        if let QueryReply::Patterns(hits) = hits {
            println!(
                "\nquery {:?} (leaf items) finds {} generalized pattern(s), e.g. {:?}",
                display(&vocab, &leaf_query),
                hits.len(),
                display(&vocab, &generalized),
            );
        }
    }

    // Re-mine with a stricter support threshold and swap the snapshot —
    // in-flight readers keep their old index, new queries see the new one.
    let strict = GsmParams::new(40, 1, 4)?;
    let restricted = Lash::default().mine(&db, &vocab, &strict)?;
    let dir2 = std::env::temp_dir().join(format!("lash-query-service-v2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir2);
    lash::index::write_patterns(&dir2, &vocab, restricted.arena())?;
    service.swap(PatternIndexReader::open(&dir2)?);
    println!(
        "\nswapped in re-mined index: {} → {} patterns (σ {} → {})",
        patterns.len(),
        restricted.patterns().len(),
        params.sigma,
        strict.sigma
    );

    // The swap bumped `index.swaps` (and, with `LASH_OBS_JSONL` set, left
    // an `index.swap` event carrying the replaced snapshot's query count).
    println!(
        "\nmetrics after the snapshot swap:\n{}",
        lash::obs::global().render_text()
    );

    std::fs::remove_dir_all(&dir)?;
    std::fs::remove_dir_all(&dir2)?;
    Ok(())
}

fn display(vocab: &Vocabulary, items: &[ItemId]) -> String {
    items
        .iter()
        .map(|&i| vocab.name(i))
        .collect::<Vec<_>>()
        .join(" ")
}

fn brute_enumerate(patterns: &[Pattern], prefix: &[ItemId]) -> Vec<(Vec<ItemId>, u64)> {
    let mut hits: Vec<(Vec<ItemId>, u64)> = patterns
        .iter()
        .filter(|p| p.items.starts_with(prefix))
        .map(|p| (p.items.clone(), p.frequency))
        .collect();
    hits.sort();
    hits
}

fn brute_top_k(patterns: &[Pattern], k: usize) -> Vec<(Vec<ItemId>, u64)> {
    let mut hits: Vec<(Vec<ItemId>, u64)> = patterns
        .iter()
        .map(|p| (p.items.clone(), p.frequency))
        .collect();
    hits.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hits.truncate(k);
    hits
}

/// Finds a mined pattern containing a non-leaf item and phrases a query
/// for it in one of that item's leaf descendants.
fn leaf_probe(vocab: &Vocabulary, patterns: &[Pattern]) -> Option<(Vec<ItemId>, Vec<ItemId>)> {
    for p in patterns {
        for (pos, &item) in p.items.iter().enumerate() {
            let mut leaf = item;
            while let Some(&child) = vocab.children(leaf).first() {
                leaf = child;
            }
            if leaf != item {
                let mut query = p.items.clone();
                query[pos] = leaf;
                return Some((query, p.items.clone()));
            }
        }
    }
    None
}
