//! Block interner: structural sharing of repeated layer blocks.
//!
//! Deep transformer and MoE graphs are overwhelmingly made of identical
//! layer blocks — the same ~11 ops per layer, differing only in the name
//! prefix (`encoder.3/…` vs `encoder.4/…`), the id offset, and the layer
//! index. This module stores one [`BlockTemplate`] per *distinct* block
//! shape in a process-wide interner, so a thousand-layer model holds a
//! thousand `Arc` pointers to one allocation instead of a thousand op-list
//! copies, and per-block derived state (the template fingerprint, the
//! block-local adjacency) is computed once per distinct block rather than
//! once per layer.
//!
//! Interning is content-addressed with exact-equality verification, so two
//! `Arc<InternedBlock>`s are pointer-equal **iff** their templates are
//! equal — pointer comparison is a sound (not merely probabilistic) equality
//! fast path for graphs and blocks.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, OnceLock};

use whale_fp::{Fingerprint, Fingerprinter};

use crate::fingerprint::{push_kind, push_phase, push_tensor};
use crate::graph::OpId;
use crate::inline_list::InlineList;
use crate::op::{OpKind, Phase};
use crate::tensor::TensorMeta;

/// One input edge of a [`TemplateOp`], relative to the block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TemplateInput {
    /// Produced by the op at this offset within the same block.
    Internal(usize),
    /// Produced outside the block; resolved through
    /// [`BlockInst::externals`] at this slot.
    External(usize),
}

/// One op of a block, with everything instantiation-dependent factored out:
/// the name keeps only the suffix after the instantiation prefix, inputs are
/// block-relative, and the layer index is relative to the instantiation's
/// layer base.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateOp {
    /// Name suffix; the instantiated name is `prefix + suffix`.
    pub suffix: String,
    /// Semantic kind with cost attributes.
    pub kind: OpKind,
    /// Block-relative data dependencies.
    pub inputs: Vec<TemplateInput>,
    /// Output tensor metadata (shapes are part of the template).
    pub output: TensorMeta,
    /// Execution phase.
    pub phase: Phase,
    /// Layer index minus the instantiation's layer base (`None` for ops
    /// without a layer index).
    pub layer_rel: Option<usize>,
}

/// The shape of one block: a straight-line run of template ops plus the
/// number of external input slots it consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockTemplate {
    /// Ops in block-local topological order.
    pub ops: Vec<TemplateOp>,
    /// Number of distinct external producers referenced by
    /// [`TemplateInput::External`] slots.
    pub external_slots: usize,
}

/// Block-local adjacency, memoized once per distinct block. Edge lists are
/// recorded in the exact order a flat scan of the instantiated ops would
/// produce (ascending consumer offset, duplicate inputs preserved), so a
/// graph-level adjacency assembled from these lists is identical to one
/// rebuilt from the flat op list.
#[derive(Debug)]
pub struct BlockAdj {
    /// Consumer offsets per producer offset.
    pub internal_consumers: Vec<Vec<usize>>,
    /// Consumer offsets per external slot.
    pub external_consumers: Vec<Vec<usize>>,
    /// Whether the op at each offset is consumed within the block.
    pub consumed: Vec<bool>,
    /// Offsets of template ops with no inputs at all.
    pub sources_rel: Vec<usize>,
}

impl BlockAdj {
    fn build(template: &BlockTemplate) -> BlockAdj {
        counters::BLOCK_ADJ_BUILDS.fetch_add(1, Ordering::Relaxed);
        let n = template.ops.len();
        let mut internal_consumers = vec![Vec::new(); n];
        let mut external_consumers = vec![Vec::new(); template.external_slots];
        let mut consumed = vec![false; n];
        let mut sources_rel = Vec::new();
        for (off, op) in template.ops.iter().enumerate() {
            if op.inputs.is_empty() {
                sources_rel.push(off);
            }
            for input in &op.inputs {
                match *input {
                    TemplateInput::Internal(p) => {
                        internal_consumers[p].push(off);
                        consumed[p] = true;
                    }
                    TemplateInput::External(s) => external_consumers[s].push(off),
                }
            }
        }
        BlockAdj {
            internal_consumers,
            external_consumers,
            consumed,
            sources_rel,
        }
    }
}

/// A deduplicated block: the template plus memoized derived state. Obtained
/// only through [`intern_block`] / [`intern_block_with`], which guarantee
/// one allocation per distinct template process-wide.
#[derive(Debug)]
pub struct InternedBlock {
    template: BlockTemplate,
    fingerprint: Fingerprint,
    adj: OnceLock<BlockAdj>,
}

impl InternedBlock {
    /// The shared template.
    pub fn template(&self) -> &BlockTemplate {
        &self.template
    }

    /// Content fingerprint of the template (the interner key). Computed
    /// once per distinct block, no matter how many layers share it.
    pub fn fingerprint(&self) -> Fingerprint {
        self.fingerprint
    }

    /// Block-local adjacency, built on first use and shared by every graph
    /// that contains this block.
    pub fn adjacency(&self) -> &BlockAdj {
        self.adj.get_or_init(|| BlockAdj::build(&self.template))
    }
}

/// One placement of an interned block inside a graph: everything the
/// template factored out. The instance owns no text — the name prefix is
/// recovered by slicing `prefix_len` bytes off the instantiated first op's
/// name in the graph's flat storage — so creating one allocates nothing
/// (up to four externals are held inline). Cloning a graph (or splicing one edited
/// block) copies the untouched instances, memoized fingerprint
/// contribution included, so per-instance memos survive across graph
/// versions.
#[derive(Debug, Clone)]
pub struct BlockInst {
    /// The shared block.
    pub block: Arc<InternedBlock>,
    /// Byte length of the name prefix prepended to every template suffix
    /// (the prefix text is `flat[base].name[..prefix_len]`).
    pub prefix_len: usize,
    /// Absolute op id of the block's first op.
    pub base: usize,
    /// Layer index the template's `layer_rel` values are relative to.
    pub layer_base: usize,
    /// Absolute producers for the template's external slots.
    pub externals: InlineList<OpId>,
    fp_sum: OnceLock<u64>,
}

impl BlockInst {
    /// Instantiate `block` at a position in some graph.
    pub fn new(
        block: Arc<InternedBlock>,
        prefix_len: usize,
        base: usize,
        layer_base: usize,
        externals: InlineList<OpId>,
    ) -> BlockInst {
        assert_eq!(
            externals.len(),
            block.template().external_slots,
            "external arity must match the template"
        );
        BlockInst {
            block,
            prefix_len,
            base,
            layer_base,
            externals,
            fp_sum: OnceLock::new(),
        }
    }

    /// Number of ops this instance contributes to the graph.
    pub fn len(&self) -> usize {
        self.block.template().ops.len()
    }

    /// Whether the block is empty (never true for interned blocks in
    /// practice; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The memoized fingerprint contribution, if [`BlockInst::content_sum`]
    /// has run (race-free memoization probe for tests and diagnostics).
    pub fn content_sum_cached(&self) -> Option<u64> {
        self.fp_sum.get().copied()
    }

    /// This instance's contribution to the graph fingerprint: the wrapping
    /// sum of the content hashes of its instantiated ops, bit-identical to
    /// hashing the materialized `Op`s, computed without materializing them
    /// and memoized for the lifetime of the instance. `prefix` is the
    /// instantiation's name prefix (`flat[base].name[..prefix_len]` — the
    /// instance owns no text).
    pub fn content_sum(&self, prefix: &str) -> u64 {
        debug_assert_eq!(prefix.len(), self.prefix_len);
        *self.fp_sum.get_or_init(|| {
            counters::INST_SUM_COMPUTES.fetch_add(1, Ordering::Relaxed);
            let mut sum = 0u64;
            for (off, t) in self.block.template().ops.iter().enumerate() {
                let mut fp = Fingerprinter::new("graph-op");
                fp.push_usize(self.base + off);
                // push_str(prefix + suffix) without building the String.
                fp.push_len(prefix.len() + t.suffix.len());
                fp.push_bytes(prefix.as_bytes());
                fp.push_bytes(t.suffix.as_bytes());
                push_kind(&mut fp, &t.kind);
                fp.push_len(t.inputs.len());
                for input in &t.inputs {
                    let abs = match *input {
                        TemplateInput::Internal(p) => self.base + p,
                        TemplateInput::External(s) => self.externals[s].0,
                    };
                    fp.push_usize(abs);
                }
                push_tensor(&mut fp, &t.output);
                push_phase(&mut fp, t.phase);
                match t.layer_rel {
                    Some(rel) => fp.push_bool(true).push_usize(self.layer_base + rel),
                    None => fp.push_bool(false),
                };
                sum = sum.wrapping_add(fp.finish().0);
            }
            sum
        })
    }
}

/// Content fingerprint of a template (instantiation-independent).
pub fn template_fingerprint(template: &BlockTemplate) -> Fingerprint {
    let mut fp = Fingerprinter::new("block-template");
    fp.push_len(template.ops.len());
    fp.push_usize(template.external_slots);
    for op in &template.ops {
        fp.push_str(&op.suffix);
        push_kind(&mut fp, &op.kind);
        fp.push_len(op.inputs.len());
        for input in &op.inputs {
            match *input {
                TemplateInput::Internal(p) => fp.push_tag(0).push_usize(p),
                TemplateInput::External(s) => fp.push_tag(1).push_usize(s),
            };
        }
        push_tensor(&mut fp, &op.output);
        push_phase(&mut fp, op.phase);
        match op.layer_rel {
            Some(rel) => fp.push_bool(true).push_usize(rel),
            None => fp.push_bool(false),
        };
    }
    fp.finish()
}

/// The process-wide template table: fingerprint buckets with exact-equality
/// verification inside each bucket (a hash collision degrades to a second
/// entry, never to a wrong share).
fn table() -> &'static Mutex<HashMap<u64, Vec<Arc<InternedBlock>>>> {
    static TABLE: OnceLock<Mutex<HashMap<u64, Vec<Arc<InternedBlock>>>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Intern a template: returns the canonical `Arc` for its content, either
/// an existing allocation (the duplicate template is dropped) or a new one.
pub fn intern_block(template: BlockTemplate) -> Arc<InternedBlock> {
    let fingerprint = template_fingerprint(&template);
    let mut map = table().lock().unwrap_or_else(|p| p.into_inner());
    let bucket = map.entry(fingerprint.0).or_default();
    for block in bucket.iter() {
        if block.template == template {
            counters::INTERN_HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(block);
        }
    }
    counters::INTERN_MISSES.fetch_add(1, Ordering::Relaxed);
    let block = Arc::new(InternedBlock {
        template,
        fingerprint,
        adj: OnceLock::new(),
    });
    bucket.push(Arc::clone(&block));
    block
}

/// Intern by externally computed key, building the template only on a
/// miss. The builder takes this path for a block that differs from the one
/// it sealed before: on a hit, recorded ops are verified against the
/// canonical template in place and no [`BlockTemplate`] is ever built.
///
/// Contract: `fingerprint` must equal [`template_fingerprint`] of the
/// template `build` returns, and `matches` must hold exactly for templates
/// equal to it — both are debug-asserted on the miss path, preserving the
/// pointer-equality ⟺ template-equality invariant.
pub fn intern_block_with(
    fingerprint: Fingerprint,
    matches: impl Fn(&BlockTemplate) -> bool,
    build: impl FnOnce() -> BlockTemplate,
) -> Arc<InternedBlock> {
    let mut map = table().lock().unwrap_or_else(|p| p.into_inner());
    let bucket = map.entry(fingerprint.0).or_default();
    for block in bucket.iter() {
        if matches(&block.template) {
            counters::INTERN_HITS.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(block);
        }
    }
    counters::INTERN_MISSES.fetch_add(1, Ordering::Relaxed);
    let template = build();
    debug_assert_eq!(
        template_fingerprint(&template),
        fingerprint,
        "key must be the built template's fingerprint"
    );
    debug_assert!(matches(&template), "matcher must accept the built template");
    let block = Arc::new(InternedBlock {
        template,
        fingerprint,
        adj: OnceLock::new(),
    });
    bucket.push(Arc::clone(&block));
    block
}

/// Intern a block the caller already holds the canonical `Arc` of, having
/// checked its content against that `Arc`'s template: counted as a hit,
/// with no hash and no lock on the table. The builder's path for a block
/// equal to the one it sealed before (every repeated layer).
pub(crate) fn intern_again(block: &Arc<InternedBlock>) -> Arc<InternedBlock> {
    counters::INTERN_HITS.fetch_add(1, Ordering::Relaxed);
    Arc::clone(block)
}

/// Number of distinct templates currently interned (diagnostics; the table
/// is append-only for the process lifetime, like a string interner).
pub fn interned_block_count() -> usize {
    table()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .values()
        .map(|b| b.len())
        .sum()
}

/// Monotonic counters instrumenting the interner, used by incrementality
/// tests and the compile benchmark to assert work *didn't* happen (blocks
/// re-fingerprinted, adjacency rebuilt) rather than timing it.
pub mod counters {
    use std::sync::atomic::{AtomicU64, Ordering};

    pub(super) static INTERN_HITS: AtomicU64 = AtomicU64::new(0);
    pub(super) static INTERN_MISSES: AtomicU64 = AtomicU64::new(0);
    pub(super) static BLOCK_ADJ_BUILDS: AtomicU64 = AtomicU64::new(0);
    pub(super) static INST_SUM_COMPUTES: AtomicU64 = AtomicU64::new(0);

    /// Interner lookups that returned an existing allocation.
    pub fn intern_hits() -> u64 {
        INTERN_HITS.load(Ordering::Relaxed)
    }

    /// Interner lookups that created a new allocation.
    pub fn intern_misses() -> u64 {
        INTERN_MISSES.load(Ordering::Relaxed)
    }

    /// Block-local adjacency builds (once per distinct block on first use).
    pub fn block_adj_builds() -> u64 {
        BLOCK_ADJ_BUILDS.load(Ordering::Relaxed)
    }

    /// Per-instance fingerprint-contribution computations (once per block
    /// instance; cache hits on re-fingerprinting don't count).
    pub fn inst_sum_computes() -> u64 {
        INST_SUM_COMPUTES.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_template(elems: u64) -> BlockTemplate {
        BlockTemplate {
            ops: vec![
                TemplateOp {
                    suffix: "/a".into(),
                    kind: OpKind::Elementwise {
                        elems,
                        flops_per_elem: 1,
                    },
                    inputs: vec![TemplateInput::External(0)],
                    output: TensorMeta::f32(&[elems as usize]),
                    phase: Phase::Forward,
                    layer_rel: Some(0),
                },
                TemplateOp {
                    suffix: "/b".into(),
                    kind: OpKind::Elementwise {
                        elems,
                        flops_per_elem: 1,
                    },
                    inputs: vec![TemplateInput::Internal(0), TemplateInput::Internal(0)],
                    output: TensorMeta::f32(&[elems as usize]),
                    phase: Phase::Forward,
                    layer_rel: Some(0),
                },
            ],
            external_slots: 1,
        }
    }

    #[test]
    fn interning_dedups_to_pointer_equality() {
        let a = intern_block(toy_template(1717));
        let b = intern_block(toy_template(1717));
        let c = intern_block(toy_template(1718));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn block_adjacency_preserves_duplicate_edges_and_order() {
        let block = intern_block(toy_template(1719));
        let adj = block.adjacency();
        // `/b` consumes `/a` twice, mirroring a flat scan.
        assert_eq!(adj.internal_consumers[0], vec![1, 1]);
        assert!(adj.internal_consumers[1].is_empty());
        assert_eq!(adj.external_consumers[0], vec![0]);
        assert_eq!(adj.consumed, vec![true, false]);
        assert!(adj.sources_rel.is_empty());
        // The memo is shared: the same slices come back.
        assert!(std::ptr::eq(adj, block.adjacency()));
    }

    #[test]
    fn content_sum_is_memoized_per_instance() {
        let block = intern_block(toy_template(1720));
        let inst = BlockInst::new(block, 1, 1, 0, [OpId(0)].into_iter().collect());
        assert_eq!(inst.content_sum_cached(), None);
        let first = inst.content_sum("x");
        assert_eq!(inst.content_sum_cached(), Some(first));
        assert_eq!(inst.content_sum("x"), first);
    }

    #[test]
    fn externals_inline_then_spill() {
        let mut e = InlineList::new();
        assert!(e.is_empty());
        for i in 0..6 {
            e.push(OpId(i));
            assert_eq!(e.spilled(), i >= 4);
        }
        assert_eq!(&*e, (0..6).map(OpId).collect::<Vec<_>>());
        let same: InlineList<OpId> = (0..6).map(OpId).collect();
        assert_eq!(e, same);
        let inline: InlineList<OpId> = (0..3).map(OpId).collect();
        assert_ne!(e, inline);
        // Equality ignores representation padding.
        let a: InlineList<OpId> = [OpId(7)].into_iter().collect();
        let mut b = InlineList::new();
        b.push(OpId(9));
        assert_ne!(a, b);
        b[0] = OpId(7);
        assert_eq!(a, b);
    }
}
