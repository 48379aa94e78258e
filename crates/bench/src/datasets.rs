//! The canonical experiment datasets: synthetic stand-ins for the paper's
//! NYT and AMZN corpora, sized for a single machine and scaled with
//! `--scale`.
//!
//! The corpora are generated once per harness invocation and shared across
//! experiments (generation is deterministic, so re-running a single
//! subcommand sees identical data).

use std::path::Path;

use lash_datagen::{
    ProductConfig, ProductCorpus, ProductHierarchy, TextConfig, TextCorpus, TextHierarchy,
};
use lash_store::{CorpusReader, StoreOptions};

/// Builds the NYT-like corpus at `scale` (1.0 ≈ 20k sentences).
pub fn nyt(scale: f64) -> TextCorpus {
    TextCorpus::generate(&TextConfig::default().scaled(scale))
}

/// Builds the AMZN-like corpus at `scale` (1.0 ≈ 20k sessions).
pub fn amzn(scale: f64) -> ProductCorpus {
    ProductCorpus::generate(&ProductConfig::default().scaled(scale))
}

/// Cache generation, combined with the store format version in every cache
/// key. Bump this whenever `lash-datagen`'s generators or default configs
/// change, so persistent caches are invalidated instead of silently serving
/// corpora the current code no longer generates.
pub const CACHE_GENERATION: u32 = 1;

fn cache_key(corpus: &str, hierarchy: &str, scale: f64) -> String {
    format!(
        "{corpus}-{hierarchy}-x{scale}-v{}g{CACHE_GENERATION}",
        lash_store::FORMAT_VERSION
    )
}

/// Opens the NYT-like corpus as an on-disk store under `cache_dir`,
/// generating and persisting it on the first call — repeated harness runs
/// reopen the corpus cold instead of regenerating it, and experiments can
/// mine it without holding the database in memory.
pub fn nyt_store(
    scale: f64,
    hierarchy: TextHierarchy,
    cache_dir: &Path,
) -> lash_store::Result<CorpusReader> {
    cached_corpus(
        cache_dir,
        &cache_key("nyt", hierarchy.name(), scale),
        || nyt(scale).dataset(hierarchy),
    )
}

/// Opens the AMZN-like corpus as an on-disk store under `cache_dir`,
/// generating and persisting it on the first call.
pub fn amzn_store(
    scale: f64,
    hierarchy: ProductHierarchy,
    cache_dir: &Path,
) -> lash_store::Result<CorpusReader> {
    cached_corpus(
        cache_dir,
        &cache_key("amzn", hierarchy.name(), scale),
        || amzn(scale).dataset(hierarchy),
    )
}

/// Opens `cache_dir/key` as a corpus, building it via `generate` if absent.
fn cached_corpus(
    cache_dir: &Path,
    key: &str,
    generate: impl FnOnce() -> (lash_core::Vocabulary, lash_core::SequenceDatabase),
) -> lash_store::Result<CorpusReader> {
    let dir = cache_dir.join(key);
    // Probe before opening: a cold cache is the normal first run, not an
    // error, and opening a missing corpus would spend the process's one
    // flight-recorder dump on it.
    if dir.join(lash_store::format::MANIFEST_FILE).exists() {
        if let Ok(reader) = CorpusReader::open(&dir) {
            return Ok(reader);
        }
    }
    // Absent or unreadable: rebuild from scratch (generation is
    // deterministic, so a rebuild is always equivalent).
    let _ = std::fs::remove_dir_all(&dir);
    let (vocab, db) = generate();
    lash_store::convert::write_database(&dir, &vocab, &db, StoreOptions::default())?;
    CorpusReader::open(&dir)
}

/// Environment variable overriding the on-disk corpus cache directory.
pub const CACHE_DIR_ENV: &str = "LASH_BENCH_CACHE";

/// The default corpus cache directory: `$LASH_BENCH_CACHE` or
/// `<system temp>/lash-bench-cache`. The cache key embeds hierarchy and
/// scale, so corpora persist across harness reruns and are reopened cold
/// instead of being regenerated in memory.
pub fn default_cache_dir() -> std::path::PathBuf {
    std::env::var_os(CACHE_DIR_ENV)
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::env::temp_dir().join("lash-bench-cache"))
}

/// Lazily-built corpora shared by the experiment subcommands.
///
/// Figure/table experiments pull their `(vocabulary, database)` pairs
/// through [`Datasets::nyt_dataset`]/[`Datasets::amzn_dataset`], which are
/// backed by the cached on-disk stores of [`nyt_store`]/[`amzn_store`]: the
/// first run of a (corpus, hierarchy, scale) combination generates and
/// persists the corpus; every later harness invocation reopens it from the
/// cache directory.
pub struct Datasets {
    scale: f64,
    cache_dir: std::path::PathBuf,
    nyt_readers: std::collections::BTreeMap<&'static str, CorpusReader>,
    amzn_readers: std::collections::BTreeMap<&'static str, CorpusReader>,
}

impl Datasets {
    /// Creates the holder at a given scale, caching under
    /// [`default_cache_dir`].
    pub fn new(scale: f64) -> Datasets {
        Datasets::with_cache_dir(scale, default_cache_dir())
    }

    /// Creates the holder with an explicit cache directory.
    pub fn with_cache_dir(scale: f64, cache_dir: impl Into<std::path::PathBuf>) -> Datasets {
        Datasets {
            scale,
            cache_dir: cache_dir.into(),
            nyt_readers: Default::default(),
            amzn_readers: Default::default(),
        }
    }

    /// The scale factor.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The corpus cache directory.
    pub fn cache_dir(&self) -> &Path {
        &self.cache_dir
    }

    /// The cached on-disk NYT corpus under `hierarchy` (written on first
    /// use, reopened afterwards).
    pub fn nyt_reader(&mut self, hierarchy: TextHierarchy) -> &CorpusReader {
        let (scale, cache) = (self.scale, self.cache_dir.clone());
        self.nyt_readers
            .entry(hierarchy.name())
            .or_insert_with(|| nyt_store(scale, hierarchy, &cache).expect("open cached NYT corpus"))
    }

    /// The cached on-disk AMZN corpus under `hierarchy`.
    pub fn amzn_reader(&mut self, hierarchy: ProductHierarchy) -> &CorpusReader {
        let (scale, cache) = (self.scale, self.cache_dir.clone());
        self.amzn_readers
            .entry(hierarchy.name())
            .or_insert_with(|| {
                amzn_store(scale, hierarchy, &cache).expect("open cached AMZN corpus")
            })
    }

    /// The NYT `(vocabulary, database)` pair under `hierarchy`, materialized
    /// from the cached on-disk corpus.
    pub fn nyt_dataset(
        &mut self,
        hierarchy: TextHierarchy,
    ) -> (lash_core::Vocabulary, lash_core::SequenceDatabase) {
        let reader = self.nyt_reader(hierarchy);
        let db = reader.to_database().expect("materialize cached NYT corpus");
        (reader.vocabulary().clone(), db)
    }

    /// The AMZN `(vocabulary, database)` pair under `hierarchy`, materialized
    /// from the cached on-disk corpus.
    pub fn amzn_dataset(
        &mut self,
        hierarchy: ProductHierarchy,
    ) -> (lash_core::Vocabulary, lash_core::SequenceDatabase) {
        let reader = self.amzn_reader(hierarchy);
        let db = reader
            .to_database()
            .expect("materialize cached AMZN corpus");
        (reader.vocabulary().clone(), db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_build_lazily_and_cache() {
        let cache = std::env::temp_dir().join(format!("lash-bench-lazy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let mut d = Datasets::with_cache_dir(0.01, &cache);
        let n1 = d.nyt_reader(TextHierarchy::LP).len();
        let n2 = d.nyt_reader(TextHierarchy::LP).len();
        assert_eq!(n1, n2);
        assert!(n1 > 0);
        let (vocab, db) = d.amzn_dataset(ProductHierarchy::H2);
        assert!(!db.is_empty());
        assert!(!vocab.is_empty());
        std::fs::remove_dir_all(&cache).unwrap();
    }

    #[test]
    fn store_cache_persists_and_reopens() {
        let cache = std::env::temp_dir().join(format!("lash-bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let first = nyt_store(0.01, TextHierarchy::LP, &cache).unwrap();
        let in_memory = nyt(0.01).dataset(TextHierarchy::LP).1;
        assert_eq!(first.len(), in_memory.len() as u64);
        // Second call reopens the same files instead of regenerating.
        let second = nyt_store(0.01, TextHierarchy::LP, &cache).unwrap();
        assert_eq!(second.len(), first.len());
        assert_eq!(second.manifest(), first.manifest());
        let db = second.to_database().unwrap();
        for i in 0..db.len() {
            assert_eq!(db.get(i), in_memory.get(i));
        }
        std::fs::remove_dir_all(&cache).unwrap();
    }
}
