//! The index writer: one streaming pass over the lexicographically sorted
//! pattern stream, emitting the trie bottom-up into checksummed block
//! frames.
//!
//! The writer keeps only the *open path* in memory — the trie nodes from
//! the root to the most recently added pattern — so building the index
//! over millions of patterns holds O(pattern length · fan-out) state, in
//! the spirit of keeping the result set in secondary memory rather than
//! RAM (Grahne & Zhu). When the next pattern diverges from the open path,
//! the abandoned suffix can never receive further children (the input is
//! sorted) and is serialized immediately.
//!
//! Sealing mirrors `lash-store`: the trie file carries no authority on its
//! own — the directory only becomes an index when
//! [`PatternIndexWriter::finish`] writes the manifest (temp file, rename,
//! directory fsync), so a crashed build is never mistaken for a complete
//! index.

use std::fs::{self, File};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use lash_core::pattern::{lexicographic_prefix, PatternArena};
use lash_core::vocabulary::{ItemId, Vocabulary};
use lash_encoding::frame;

use crate::format::{self, IndexManifest, BLOCK_CHECKSUM, INDEX_FORMAT_VERSION};
use crate::{IndexError, Result};

/// One node of the currently open path.
struct OpenNode {
    /// The item on the edge from the parent (unused for the root).
    item: u32,
    /// Frequency if the path down to this node is itself a pattern.
    freq: Option<u64>,
    /// Running maximum pattern frequency in the subtree (including self).
    max_desc: u64,
    /// Where this node's sealed children start in the writer's shared
    /// child stack; they run to the start of the next open node's, or to
    /// the end.
    first_child: usize,
}

impl OpenNode {
    fn new(item: u32, freq: Option<u64>, first_child: usize) -> Self {
        OpenNode {
            item,
            freq,
            max_desc: freq.unwrap_or(0),
            first_child,
        }
    }
}

/// Statistics of a sealed index, returned by
/// [`PatternIndexWriter::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSummary {
    /// Number of indexed patterns.
    pub num_patterns: u64,
    /// Number of trie nodes, including the root.
    pub num_nodes: u64,
    /// Bytes of the node arena (before frame overhead).
    pub arena_bytes: u64,
    /// Maximum pattern frequency (0 when the index is empty).
    pub max_frequency: u64,
}

/// Streaming builder of an on-disk pattern index.
///
/// Patterns must arrive **strictly ascending in lexicographic item-id
/// order** (see [`lash_core::pattern::sort_patterns_lexicographic`]) —
/// not the frequency-rank order the miners work in; out-of-order or
/// duplicate input is rejected with [`IndexError::UnsortedInput`]. Use
/// [`write_patterns`] to index a mining result in one call.
pub struct PatternIndexWriter {
    dir: PathBuf,
    vocab: Vocabulary,
    file: BufWriter<File>,
    /// `stack[0]` is the root; `stack[d]` is the open node at depth `d`.
    stack: Vec<OpenNode>,
    /// The sealed children `(item id, arena offset)` of every open node,
    /// ascending in both per node, in open-path order: only the deepest
    /// open node ever gains a child, so its children are always the tail.
    children: Vec<(u32, u64)>,
    /// Items of the most recently added pattern.
    last: Vec<u32>,
    /// The block being assembled; sealed into a frame at the budget.
    block: Vec<u8>,
    block_budget: usize,
    /// Logical arena bytes emitted so far (frames excluded).
    arena_len: u64,
    num_patterns: u64,
    num_nodes: u64,
    max_frequency: u64,
    /// Scratch for group-varint child-id deltas.
    scratch: Vec<u32>,
    /// When the build began: the `index.build` span runs from here to the
    /// end of [`PatternIndexWriter::finish`].
    started: Instant,
}

impl PatternIndexWriter {
    /// Creates a new index at `dir` for patterns over `vocab`, with the
    /// default block budget ([`frame::DEFAULT_BLOCK_BYTES`]).
    ///
    /// The directory is created if missing; an existing manifest makes
    /// this fail with [`IndexError::AlreadyExists`] — indexes are
    /// immutable, a re-mine builds a fresh one and swaps it in.
    pub fn create(dir: impl AsRef<Path>, vocab: &Vocabulary) -> Result<Self> {
        Self::create_with_budget(dir, vocab, frame::DEFAULT_BLOCK_BYTES)
    }

    /// [`PatternIndexWriter::create`] with an explicit node-block payload
    /// budget in bytes (clamped to ≥ 1; mainly for tests that want many
    /// tiny blocks).
    pub fn create_with_budget(
        dir: impl AsRef<Path>,
        vocab: &Vocabulary,
        block_budget: usize,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        if dir.join(format::MANIFEST_FILE).exists() {
            return Err(IndexError::AlreadyExists(dir));
        }
        let mut file = BufWriter::new(File::create(dir.join(format::TRIE_FILE))?);
        let mut header = Vec::new();
        format::encode_trie_header(INDEX_FORMAT_VERSION, &mut header);
        frame::write_frame(&header, &mut file)?;
        Ok(PatternIndexWriter {
            dir,
            vocab: vocab.clone(),
            file,
            stack: vec![OpenNode::new(0, None, 0)],
            children: Vec::new(),
            last: Vec::new(),
            block: Vec::new(),
            block_budget: block_budget.max(1),
            arena_len: 0,
            num_patterns: 0,
            num_nodes: 0,
            max_frequency: 0,
            scratch: Vec::new(),
            started: Instant::now(),
        })
    }

    /// Number of patterns added so far.
    pub fn len(&self) -> u64 {
        self.num_patterns
    }

    /// True if no pattern has been added yet.
    pub fn is_empty(&self) -> bool {
        self.num_patterns == 0
    }

    /// Adds the next pattern. `items` must be non-empty, in-vocabulary,
    /// and strictly greater (lexicographically) than the previous pattern.
    pub fn add(&mut self, items: &[ItemId], frequency: u64) -> Result<()> {
        if items.is_empty() {
            return Err(IndexError::EmptyPattern);
        }
        for &item in items {
            if item.index() >= self.vocab.len() {
                return Err(IndexError::UnknownItem(item.as_u32()));
            }
        }
        // Longest common prefix with the previous pattern decides how much
        // of the open path survives.
        let common = self
            .last
            .iter()
            .zip(items.iter())
            .take_while(|(a, b)| **a == b.as_u32())
            .count();
        // Sorted-strictly-ascending check: the new pattern must extend the
        // common prefix with a larger item than the old one did — or extend
        // the old pattern itself.
        let extends = common == self.last.len() && items.len() > common;
        let diverges_up = common < self.last.len()
            && common < items.len()
            && items[common].as_u32() > self.last[common];
        if !(extends || diverges_up) {
            return Err(IndexError::UnsortedInput {
                position: self.num_patterns,
            });
        }
        // Seal the abandoned suffix of the open path (deepest first).
        while self.stack.len() - 1 > common {
            self.seal_top()?;
        }
        // Open the new suffix.
        for (d, &item) in items.iter().enumerate().skip(common) {
            let terminal = d + 1 == items.len();
            self.stack.push(OpenNode::new(
                item.as_u32(),
                terminal.then_some(frequency),
                self.children.len(),
            ));
        }
        // Propagate the frequency bound up the whole open path now; sealed
        // descendants have already folded theirs into their parents.
        for node in &mut self.stack {
            node.max_desc = node.max_desc.max(frequency);
        }
        self.last.clear();
        self.last.extend(items.iter().map(|i| i.as_u32()));
        self.num_patterns += 1;
        self.max_frequency = self.max_frequency.max(frequency);
        Ok(())
    }

    /// Serializes the deepest open node and registers it with its parent.
    fn seal_top(&mut self) -> Result<()> {
        let node = self.stack.pop().expect("seal_top never pops the root");
        let offset = self.emit_open_node(&node)?;
        self.children.push((node.item, offset));
        let parent = self.stack.last_mut().expect("root below every sealed node");
        parent.max_desc = parent.max_desc.max(node.max_desc);
        Ok(())
    }

    /// Serializes `node`, just popped off the open path, with the tail of
    /// the child stack that holds its children, and drops that tail.
    fn emit_open_node(&mut self, node: &OpenNode) -> Result<u64> {
        let children = std::mem::take(&mut self.children);
        let offset = self.emit_node(node.freq, node.max_desc, &children[node.first_child..]);
        self.children = children;
        self.children.truncate(node.first_child);
        offset
    }

    /// Appends one serialized node to the arena, sealing a block frame
    /// when the budget is reached; returns the node's arena offset.
    fn emit_node(
        &mut self,
        freq: Option<u64>,
        max_desc: u64,
        children: &[(u32, u64)],
    ) -> Result<u64> {
        let offset = self.arena_len;
        let before = self.block.len();
        format::encode_node(freq, max_desc, children, &mut self.scratch, &mut self.block);
        self.arena_len += (self.block.len() - before) as u64;
        self.num_nodes += 1;
        if self.block.len() >= self.block_budget {
            self.flush_block()?;
        }
        Ok(offset)
    }

    /// Seals the current block into a checksummed frame.
    fn flush_block(&mut self) -> Result<()> {
        if self.block.is_empty() {
            return Ok(());
        }
        frame::write_frame_with(&self.block, &mut self.file, BLOCK_CHECKSUM)?;
        self.block.clear();
        Ok(())
    }

    /// Seals the trie (root node last), fsyncs it, and commits the
    /// manifest — the atomic point at which the directory becomes an
    /// index.
    pub fn finish(mut self) -> Result<IndexSummary> {
        let summary = self.seal();
        // Observed once the whole build is over — every `add` since
        // `create` belongs to it, not only the seal — and also when it
        // failed.
        lash_obs::global().observe_span(
            "index.build",
            self.started.elapsed(),
            &[
                ("patterns", self.num_patterns.into()),
                ("nodes", self.num_nodes.into()),
            ],
        );
        summary
    }

    fn seal(&mut self) -> Result<IndexSummary> {
        while self.stack.len() > 1 {
            self.seal_top()?;
        }
        let root = self.stack.pop().expect("the root is always open");
        let root_offset = self.emit_open_node(&root)?;
        self.flush_block()?;
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        let manifest = IndexManifest {
            version: INDEX_FORMAT_VERSION,
            num_patterns: self.num_patterns,
            num_nodes: self.num_nodes,
            arena_len: self.arena_len,
            root_offset,
            max_frequency: self.max_frequency,
        };
        write_manifest(&self.dir, &manifest, &self.vocab)?;
        Ok(IndexSummary {
            num_patterns: manifest.num_patterns,
            num_nodes: manifest.num_nodes,
            arena_bytes: manifest.arena_len,
            max_frequency: manifest.max_frequency,
        })
    }
}

/// Writes `INDEX.lash` via temp file + rename + directory fsync — the
/// same durable commit protocol as `lash-store` manifests: the manifest's
/// bytes reach disk before the rename exposes them, and the directory
/// fsync makes the rename survive a power loss.
fn write_manifest(dir: &Path, manifest: &IndexManifest, vocab: &Vocabulary) -> Result<()> {
    let tmp = dir.join(format!("{}.tmp", format::MANIFEST_FILE));
    {
        let mut file = BufWriter::new(File::create(&tmp)?);
        let mut buf = Vec::new();
        format::encode_manifest_header(manifest, &mut buf);
        frame::write_frame(&buf, &mut file)?;
        buf.clear();
        format::encode_vocabulary(vocab, &mut buf);
        frame::write_frame(&buf, &mut file)?;
        file.flush()?;
        file.get_ref().sync_all()?;
    }
    fs::rename(&tmp, dir.join(format::MANIFEST_FILE))?;
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// Indexes a mining result in one call: sorts a `u32` permutation of
/// `patterns` into lexicographic item-id order and streams the arena
/// through a [`PatternIndexWriter`] in that order. The patterns are read in
/// place, never copied.
///
/// `patterns` is usually `LashResult::arena()`. The sort is part of the
/// build: the `index.build` span covers it.
pub fn write_patterns(
    dir: impl AsRef<Path>,
    vocab: &Vocabulary,
    patterns: &PatternArena<ItemId>,
) -> Result<IndexSummary> {
    let started = Instant::now();
    let order = patterns.order_by_key(|items, _| lexicographic_prefix(items), <[ItemId]>::cmp);
    let mut writer = PatternIndexWriter::create(dir, vocab)?;
    writer.started = started;
    for i in order {
        let (items, frequency) = patterns.get(i as usize);
        writer.add(items, frequency)?;
    }
    writer.finish()
}
