//! Conversions between corpus representations: in-memory databases, the
//! plain-text formats of `lash_core::io`, and the on-disk store.

use std::io::BufRead;
use std::path::Path;

use lash_core::io::{read_hierarchy, read_sequences_into, SequenceSink};
use lash_core::sequence::SequenceDatabase;
use lash_core::vocabulary::{ItemId, Vocabulary, VocabularyBuilder};

use crate::format::Manifest;
use crate::writer::CorpusWriter;
use crate::{Result, StoreError, StoreOptions};

/// Streaming sink: text corpora convert line-by-line into the store when
/// the vocabulary is already known (e.g. a stable product hierarchy).
impl SequenceSink for CorpusWriter {
    fn accept(&mut self, seq: &[ItemId]) -> lash_core::error::Result<()> {
        self.append(seq)
            .map(|_| ())
            .map_err(|e| lash_core::error::Error::Engine(format!("store append: {e}")))
    }
}

/// Persists an in-memory database as a new corpus at `dir`.
pub fn write_database(
    dir: impl AsRef<Path>,
    vocab: &Vocabulary,
    db: &SequenceDatabase,
    opts: StoreOptions,
) -> Result<Manifest> {
    let mut writer = CorpusWriter::create(dir, vocab, opts)?;
    writer.append_db(db)?;
    writer.finish()
}

/// Appends an in-memory database to the existing corpus at `dir` as one
/// sealed generation (see [`crate::IncrementalWriter`]); sequences are
/// validated against the corpus's stored vocabulary.
pub fn append_database(dir: impl AsRef<Path>, db: &SequenceDatabase) -> Result<Manifest> {
    let mut writer = crate::IncrementalWriter::open(dir)?;
    writer.append_db(db)?;
    writer.finish()
}

/// Converts a plain-text corpus (hierarchy file + sequence file, the
/// formats of [`lash_core::io`]) into a new on-disk corpus at `dir`, so
/// subsequent runs reopen it without re-parsing any text.
///
/// The text formats intern items while reading, so the vocabulary is only
/// complete after the sequence pass; sequences are buffered in memory once
/// during conversion. Ingest with a known vocabulary can instead stream
/// straight into a [`CorpusWriter`] via its [`SequenceSink`] impl.
pub fn convert_text(
    hierarchy: impl BufRead,
    sequences: impl BufRead,
    dir: impl AsRef<Path>,
    opts: StoreOptions,
) -> Result<Manifest> {
    let mut builder = VocabularyBuilder::new();
    read_hierarchy(hierarchy, &mut builder).map_err(core_to_store)?;
    let mut db = SequenceDatabase::new();
    read_sequences_into(sequences, &mut builder, false, &mut db).map_err(core_to_store)?;
    let vocab = builder.finish().map_err(core_to_store)?;
    write_database(dir, &vocab, &db, opts)
}

fn core_to_store(e: lash_core::error::Error) -> StoreError {
    StoreError::Corrupt(format!("text corpus: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CorpusReader;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "lash-store-convert-{tag}-{}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const HIERARCHY: &str = "b1\tB\nb2\tB\nd1\tD\n";
    const SEQUENCES: &str = "a b1 a\nb2 d1\na d1 b1\n";

    #[test]
    fn text_corpus_converts_and_reopens() {
        let dir = temp_dir("text");
        let manifest = convert_text(
            HIERARCHY.as_bytes(),
            SEQUENCES.as_bytes(),
            &dir,
            StoreOptions::default(),
        )
        .unwrap();
        assert_eq!(manifest.num_sequences, 3);
        assert_eq!(manifest.total_items, 8);
        let reader = CorpusReader::open(&dir).unwrap();
        let vocab = reader.vocabulary();
        let b1 = vocab.lookup("b1").unwrap();
        let b = vocab.lookup("B").unwrap();
        assert!(vocab.generalizes_to(b1, b));
        let db = reader.to_database().unwrap();
        assert_eq!(db.len(), 3);
        let names: Vec<&str> = db.get(0).iter().map(|&i| vocab.name(i)).collect();
        assert_eq!(names, ["a", "b1", "a"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sink_streaming_matches_batch_conversion() {
        // With a pre-built vocabulary, text streams straight into the store.
        let mut builder = VocabularyBuilder::new();
        read_hierarchy(HIERARCHY.as_bytes(), &mut builder).unwrap();
        for tok in "a b1 b2 d1".split_whitespace() {
            builder.intern(tok);
        }
        let vocab = builder.finish().unwrap();

        let dir = temp_dir("sink");
        let mut writer = CorpusWriter::create(&dir, &vocab, StoreOptions::default()).unwrap();
        let mut vb2 = VocabularyBuilder::new();
        for item in vocab.items() {
            vb2.intern(vocab.name(item));
        }
        let n = read_sequences_into(SEQUENCES.as_bytes(), &mut vb2, false, &mut writer).unwrap();
        assert_eq!(n, 3);
        writer.finish().unwrap();

        let reader = CorpusReader::open(&dir).unwrap();
        assert_eq!(reader.len(), 3);
        let db = reader.to_database().unwrap();
        assert_eq!(db.get(1).len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
