//! The index reader: opens an index cold, verifies every block frame,
//! decodes the node arena **once** into a flat structure-of-arrays trie,
//! and answers exact-support, prefix-enumeration, top-k, and
//! hierarchy-aware queries over it.
//!
//! The one-pass decode at open time doubles as an exhaustive validation
//! pass — every node, child id, and child offset in the file is checked
//! against the format invariants before the first query runs, so
//! corruption the frame checksums cannot see (a logically inconsistent
//! but checksum-passing file) still surfaces as a typed [`IndexError`] at
//! open, never as a panic or a runaway walk later. After the decode the
//! compressed arena is dropped; queries run over dense arrays: an
//! exact-support lookup is one binary search per pattern item, with no
//! allocation and no varint work on the hot path.

use std::collections::BinaryHeap;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

use lash_core::vocabulary::{ItemId, Vocabulary};
use lash_encoding::frame::{self, FrameRead};

use crate::format::{self, IndexManifest, NodeBuf, BLOCK_CHECKSUM};
use crate::{IndexError, Result};

/// A pattern index opened cold from its manifest, ready to serve queries
/// from any number of threads (`&self` everywhere; the reader is `Send +
/// Sync`).
///
/// Internally a structure-of-arrays trie in arena order (children before
/// parents, the root last): node `n`'s children are
/// `edge_ids[child_start[n]..child_start[n+1]]` (ascending item ids) with
/// the subtree of child `i` rooted at node
/// `edge_targets[child_start[n] + i]`.
pub struct PatternIndexReader {
    dir: PathBuf,
    manifest: IndexManifest,
    vocab: Vocabulary,
    /// Pattern frequency + 1 per node; 0 when the node is no terminal.
    freq: Vec<u64>,
    /// Maximum pattern frequency in each node's subtree (including self).
    max_desc: Vec<u64>,
    /// Per node, the start of its edge range; `len = nodes + 1`.
    child_start: Vec<u32>,
    /// Edge labels (child item ids), ascending within each node.
    edge_ids: Vec<u32>,
    /// Edge targets (child node indices).
    edge_targets: Vec<u32>,
    /// The root node's index (the last node of the arena).
    root: u32,
}

impl PatternIndexReader {
    /// Opens the index at `dir`: reads and validates the manifest
    /// (rejecting future format versions with
    /// [`IndexError::UnsupportedVersion`]), loads the trie file verifying
    /// every block frame's checksum, and decodes every node, validating
    /// the whole structure before the first query.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_inner(dir.as_ref()).inspect_err(|e| {
            lash_obs::flight::record_error("index.open", &e.to_string());
        })
    }

    fn open_inner(dir: &Path) -> Result<Self> {
        let dir = dir.to_path_buf();
        let mut file = BufReader::new(File::open(dir.join(format::MANIFEST_FILE))?);
        let header = read_required_frame(&mut file, "index manifest header")?;
        let manifest = format::decode_manifest_header(&header)?;
        let vocab_bytes = read_required_frame(&mut file, "index manifest vocabulary")?;
        let vocab = format::decode_vocabulary(&vocab_bytes)?;

        let mut trie = BufReader::new(File::open(dir.join(format::TRIE_FILE))?);
        let trie_header = read_required_frame(&mut trie, "trie header")?;
        let trie_version = format::decode_trie_header(&trie_header)?;
        if trie_version != manifest.version {
            return Err(IndexError::Corrupt(format!(
                "trie file version {trie_version} does not match manifest version {}",
                manifest.version
            )));
        }
        let mut arena = Vec::with_capacity(manifest.arena_len.min(1 << 30) as usize);
        let mut block = Vec::new();
        while let Some(len) = frame::read_frame_into(&mut trie, &mut block, BLOCK_CHECKSUM)? {
            arena.extend_from_slice(&block[..len]);
            if arena.len() as u64 > manifest.arena_len {
                return Err(IndexError::Corrupt(format!(
                    "trie holds more than the {} arena bytes the manifest declares",
                    manifest.arena_len
                )));
            }
        }
        if (arena.len() as u64) < manifest.arena_len {
            return Err(IndexError::Corrupt(format!(
                "trie holds {} arena bytes, manifest declares {}",
                arena.len(),
                manifest.arena_len
            )));
        }

        // Sequential decode: nodes are laid out back to back, children
        // before parents, so every child offset must land exactly on an
        // already-decoded node boundary.
        let mut offsets: Vec<u64> = Vec::new();
        let mut freq = Vec::new();
        let mut max_desc = Vec::new();
        let mut child_start: Vec<u32> = vec![0];
        let mut edge_ids: Vec<u32> = Vec::new();
        let mut edge_targets: Vec<u32> = Vec::new();
        let mut node = NodeBuf::default();
        let mut pos = 0u64;
        let mut patterns = 0u64;
        let mut highest = 0u64;
        while pos < manifest.arena_len {
            let consumed = format::decode_node(&arena, pos, vocab.len() as u32, &mut node)?;
            // The subtree bound must be exactly what the subtree holds —
            // children are decoded first, so their (already verified)
            // bounds are at hand. A wrong bound would silently corrupt
            // top-k pruning, so it is rejected here, not discovered there.
            let mut expect_bound = node.freq.unwrap_or(0);
            for (&id, &child_off) in node.ids.iter().zip(node.offsets.iter()) {
                let target = offsets.binary_search(&child_off).map_err(|_| {
                    IndexError::Corrupt(format!(
                        "child offset {child_off} does not point at a node boundary"
                    ))
                })?;
                expect_bound = expect_bound.max(max_desc[target]);
                edge_ids.push(id);
                edge_targets.push(target as u32);
            }
            if node.max_desc != expect_bound {
                return Err(IndexError::Corrupt(format!(
                    "node at offset {pos} declares subtree bound {}, subtree holds {expect_bound}",
                    node.max_desc
                )));
            }
            if edge_ids.len() > u32::MAX as usize || offsets.len() >= u32::MAX as usize {
                return Err(IndexError::Corrupt(
                    "trie exceeds u32::MAX nodes or edges".into(),
                ));
            }
            child_start.push(edge_ids.len() as u32);
            if let Some(f) = node.freq {
                patterns += 1;
                highest = highest.max(f);
            }
            freq.push(node.freq.map_or(0, |f| f + 1));
            max_desc.push(node.max_desc);
            offsets.push(pos);
            pos += consumed as u64;
        }
        if offsets.is_empty() {
            return Err(IndexError::Corrupt("trie holds no nodes".into()));
        }
        // The root is the last node by construction; the manifest must
        // agree, and its counts must match what the arena actually holds.
        let root_offset = *offsets.last().expect("non-empty checked above");
        if manifest.root_offset != root_offset {
            return Err(IndexError::Corrupt(format!(
                "manifest root offset {} is not the last node's offset {root_offset}",
                manifest.root_offset
            )));
        }
        if manifest.num_nodes != offsets.len() as u64 {
            return Err(IndexError::Corrupt(format!(
                "manifest declares {} nodes, trie holds {}",
                manifest.num_nodes,
                offsets.len()
            )));
        }
        if manifest.num_patterns != patterns {
            return Err(IndexError::Corrupt(format!(
                "manifest declares {} patterns, trie holds {patterns}",
                manifest.num_patterns
            )));
        }
        if manifest.max_frequency != highest {
            return Err(IndexError::Corrupt(format!(
                "manifest declares max frequency {}, trie holds {highest}",
                manifest.max_frequency
            )));
        }
        let root = (offsets.len() - 1) as u32;
        Ok(PatternIndexReader {
            dir,
            manifest,
            vocab,
            freq,
            max_desc,
            child_start,
            edge_ids,
            edge_targets,
            root,
        })
    }

    /// The index directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The manifest snapshot this reader loaded.
    pub fn manifest(&self) -> &IndexManifest {
        &self.manifest
    }

    /// The vocabulary (and hierarchy) the indexed patterns are phrased in.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Number of indexed patterns.
    pub fn num_patterns(&self) -> u64 {
        self.manifest.num_patterns
    }

    /// True if the index holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.manifest.num_patterns == 0
    }

    /// The highest pattern frequency in the index (0 when empty).
    pub fn max_frequency(&self) -> u64 {
        self.manifest.max_frequency
    }

    /// The edge range of node `n`.
    #[inline]
    fn edges(&self, n: u32) -> std::ops::Range<usize> {
        self.child_start[n as usize] as usize..self.child_start[n as usize + 1] as usize
    }

    /// The child of `n` along `item`, by binary search over the sorted
    /// edge labels.
    #[inline]
    fn child(&self, n: u32, item: u32) -> Option<u32> {
        let range = self.edges(n);
        let ids = &self.edge_ids[range.clone()];
        ids.binary_search(&item)
            .ok()
            .map(|i| self.edge_targets[range.start + i])
    }

    /// The pattern frequency at node `n`, if the path to it is a pattern.
    #[inline]
    fn node_freq(&self, n: u32) -> Option<u64> {
        self.freq[n as usize].checked_sub(1)
    }

    /// Validates query items against the vocabulary ids the index was
    /// built over — unknown ids are a typed error, not a panic.
    fn validate(&self, items: &[ItemId]) -> Result<()> {
        for &item in items {
            if item.index() >= self.vocab.len() {
                return Err(IndexError::UnknownItem(item.as_u32()));
            }
        }
        Ok(())
    }

    /// Walks from the root along `items`; `None` when the path leaves the
    /// trie.
    #[inline]
    fn descend(&self, items: &[ItemId]) -> Option<u32> {
        let mut n = self.root;
        for &item in items {
            n = self.child(n, item.as_u32())?;
        }
        Some(n)
    }

    /// The exact support of `items`, or `None` if it was not mined as a
    /// frequent pattern. One binary search per item; no allocation.
    pub fn support(&self, items: &[ItemId]) -> Result<Option<u64>> {
        self.validate(items)?;
        Ok(self.descend(items).and_then(|n| self.node_freq(n)))
    }

    /// Every indexed pattern starting with `prefix` (the prefix itself
    /// included if it is a pattern), in lexicographic order, capped at
    /// `limit` results (`None` for all).
    pub fn enumerate(
        &self,
        prefix: &[ItemId],
        limit: Option<usize>,
    ) -> Result<Vec<(Vec<ItemId>, u64)>> {
        self.validate(prefix)?;
        let cap = limit.unwrap_or(usize::MAX);
        let mut out = Vec::new();
        if cap == 0 {
            return Ok(out);
        }
        let Some(start) = self.descend(prefix) else {
            return Ok(out);
        };
        // Iterative DFS in edge order: visiting a node before its children
        // yields lexicographic output (a pattern sorts before its
        // extensions).
        let mut path: Vec<ItemId> = prefix.to_vec();
        let mut stack: Vec<std::ops::Range<usize>> = Vec::new();
        let mut current = start;
        loop {
            if let Some(freq) = self.node_freq(current) {
                out.push((path.clone(), freq));
                if out.len() >= cap {
                    return Ok(out);
                }
            }
            stack.push(self.edges(current));
            loop {
                let Some(top) = stack.last_mut() else {
                    return Ok(out);
                };
                if let Some(edge) = top.next() {
                    path.push(ItemId::from_u32(self.edge_ids[edge]));
                    current = self.edge_targets[edge];
                    break;
                }
                stack.pop();
                path.pop();
            }
        }
    }

    /// The `k` most frequent patterns extending `prefix` (the prefix
    /// itself included if it is a pattern), ordered by descending
    /// frequency with ties broken lexicographically.
    ///
    /// This is a best-first search over the per-node
    /// max-subtree-frequency annotations: a subtree enters the frontier
    /// with its bound and is only expanded once its bound is the highest
    /// outstanding — so subtrees that cannot reach the current k-th
    /// frequency are never visited at all.
    pub fn top_k(&self, prefix: &[ItemId], k: usize) -> Result<Vec<(Vec<ItemId>, u64)>> {
        self.validate(prefix)?;
        let mut out = Vec::new();
        if k == 0 {
            return Ok(out);
        }
        let Some(start) = self.descend(prefix) else {
            return Ok(out);
        };
        let mut heap: BinaryHeap<Candidate> = BinaryHeap::new();
        heap.push(Candidate {
            bound: self.max_desc[start as usize],
            is_pattern: false,
            items: prefix.iter().map(|i| i.as_u32()).collect(),
            node: start,
        });
        while let Some(cand) = heap.pop() {
            if cand.is_pattern {
                out.push((
                    cand.items.iter().map(|&v| ItemId::from_u32(v)).collect(),
                    cand.bound,
                ));
                if out.len() >= k {
                    break;
                }
                continue;
            }
            if let Some(freq) = self.node_freq(cand.node) {
                heap.push(Candidate {
                    bound: freq,
                    is_pattern: true,
                    items: cand.items.clone(),
                    node: cand.node,
                });
            }
            for edge in self.edges(cand.node) {
                let child = self.edge_targets[edge];
                let mut items = Vec::with_capacity(cand.items.len() + 1);
                items.extend_from_slice(&cand.items);
                items.push(self.edge_ids[edge]);
                heap.push(Candidate {
                    bound: self.max_desc[child as usize],
                    is_pattern: false,
                    items,
                    node: child,
                });
            }
        }
        Ok(out)
    }

    /// Hierarchy-aware lookup: every pattern `P` with `|P| = |items|`
    /// where each query item **generalizes to** the pattern item at its
    /// position (`items[i] →* P[i]` — equal, or `P[i]` an ancestor of
    /// `items[i]`), in lexicographic order.
    ///
    /// This answers queries phrased in the items that actually occur in
    /// the data (leaves) against the generalized patterns LASH mined: a
    /// query for `["Canon EOS 70D", "tripod"]` finds `["camera",
    /// "tripod"]`. Unknown item ids surface as
    /// [`IndexError::UnknownItem`].
    pub fn lookup_generalized(&self, items: &[ItemId]) -> Result<Vec<(Vec<ItemId>, u64)>> {
        self.validate(items)?;
        // Per position, the sorted set of ids the pattern may use there:
        // the query item and all its ancestors.
        let mut admissible: Vec<Vec<u32>> = Vec::with_capacity(items.len());
        for &item in items {
            let chain = self
                .vocab
                .try_chain(item)
                .map_err(|_| IndexError::UnknownItem(item.as_u32()))?;
            let mut ids: Vec<u32> = chain.iter().map(|a| a.as_u32()).collect();
            ids.sort_unstable();
            admissible.push(ids);
        }
        let mut out = Vec::new();
        if items.is_empty() {
            return Ok(out);
        }
        // DFS constrained to admissible ids per depth; only full-length
        // matches are collected. The admissible set drives the probe: per
        // visited node, each of its ~depth-of-hierarchy admissible ids is
        // binary-searched in the node's sorted edge labels — not the other
        // way around, which would scan every edge of a high-fan-out node
        // (the root has one child per distinct first item) per query.
        struct Frame {
            /// Matching edge indices, ascending (admissible ids are probed
            /// in ascending order, so matches come out sorted and the DFS
            /// stays lexicographic).
            matches: Vec<usize>,
            next: usize,
        }
        let matched_edges = |node: u32, allowed: &[u32]| -> Vec<usize> {
            let range = self.edges(node);
            let ids = &self.edge_ids[range.clone()];
            let mut matches = Vec::with_capacity(allowed.len());
            for aid in allowed {
                if let Ok(i) = ids.binary_search(aid) {
                    matches.push(range.start + i);
                }
            }
            matches
        };
        let mut stack: Vec<Frame> = vec![Frame {
            matches: matched_edges(self.root, &admissible[0]),
            next: 0,
        }];
        let mut path: Vec<ItemId> = Vec::new();
        while let Some(top) = stack.last_mut() {
            let Some(&edge) = top.matches.get(top.next) else {
                stack.pop();
                path.pop();
                continue;
            };
            top.next += 1;
            let child = self.edge_targets[edge];
            path.push(ItemId::from_u32(self.edge_ids[edge]));
            if path.len() == items.len() {
                if let Some(freq) = self.node_freq(child) {
                    out.push((path.clone(), freq));
                }
                path.pop();
            } else {
                let matches = matched_edges(child, &admissible[path.len()]);
                stack.push(Frame { matches, next: 0 });
            }
        }
        Ok(out)
    }
}

/// A frontier entry of the top-k best-first search.
///
/// Ordered so the [`BinaryHeap`] pops: higher bound first; at equal
/// bounds, lexicographically smaller items first (so a subtree that may
/// contain an equal-frequency but lexicographically earlier pattern is
/// expanded before a later pattern is emitted); at equal items, the
/// sealed pattern before its own subtree. The result: output order is
/// fully deterministic — descending frequency, ties by ascending items.
struct Candidate {
    bound: u64,
    is_pattern: bool,
    items: Vec<u32>,
    node: u32,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound
            .cmp(&other.bound)
            .then_with(|| other.items.cmp(&self.items))
            .then_with(|| self.is_pattern.cmp(&other.is_pattern))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Candidate {}

/// Reads one frame that must exist (EOF is corruption).
fn read_required_frame(reader: &mut impl std::io::Read, what: &str) -> Result<Vec<u8>> {
    match frame::read_frame(reader)? {
        FrameRead::Payload(bytes) => Ok(bytes),
        FrameRead::Eof => Err(IndexError::Corrupt(format!("missing {what} frame"))),
    }
}
