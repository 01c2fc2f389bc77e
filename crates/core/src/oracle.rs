//! The off-line migration oracle: §5's "load with intent to modify".
//!
//! The paper contrasts its on-line protocols with off-line analysis:
//! "data identified as migratory could be moved explicitly on a read
//! access if the architecture provides a *load with intent to modify*
//! instruction such as those assumed by the Read-With-Ownership
//! operation of the sophisticated version of the Berkeley Ownership
//! protocol". An oracle with perfect knowledge of the future issues
//! RWITM on exactly the read misses whose node writes the block before
//! any other node touches it — the per-reference optimum the on-line
//! protocols approximate.
//!
//! [`migrate_hints`] computes those decisions in one linear pass;
//! [`DirectoryEngine::step_hinted`](crate::DirectoryEngine::step_hinted)
//! applies them. The `repro ablation_oracle` experiment measures how close
//! the adaptive protocols come to this bound.

use std::collections::HashMap;

use mcc_trace::{BlockSize, Trace};

/// For each reference in `trace`, whether an off-line-optimal protocol
/// would service it as a migratory read (fetch the block with write
/// permission): `true` exactly when the reference is a read and the
/// *same node* writes the block before any other node accesses it.
///
/// Entries for writes are `false` (writes always fetch ownership
/// anyway).
///
/// # Examples
///
/// ```
/// use mcc_core::migrate_hints;
/// use mcc_trace::{Addr, BlockSize, MemRef, NodeId, Trace};
///
/// let mut t = Trace::new();
/// t.push(MemRef::read(NodeId::new(0), Addr::new(0)));  // followed by own write
/// t.push(MemRef::write(NodeId::new(0), Addr::new(0)));
/// t.push(MemRef::read(NodeId::new(1), Addr::new(0)));  // next access is foreign
/// t.push(MemRef::read(NodeId::new(2), Addr::new(0)));
///
/// assert_eq!(migrate_hints(&t, BlockSize::B16), vec![true, false, false, false]);
/// ```
pub fn migrate_hints(trace: &Trace, block_size: BlockSize) -> Vec<bool> {
    // Group reference indices per block, preserving order.
    let mut per_block: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, r) in trace.iter().enumerate() {
        per_block
            .entry(r.addr.block(block_size).index())
            .or_default()
            .push(i);
    }
    let refs = trace.as_slice();
    let mut hints = vec![false; refs.len()];
    for indices in per_block.values() {
        // Backward pass: `writes_ahead_in_run[k]` = within the maximal
        // same-node run containing position k, does a write occur at a
        // position strictly after k?
        let mut writes_ahead = vec![false; indices.len()];
        for k in (0..indices.len().saturating_sub(1)).rev() {
            let this = refs[indices[k]];
            let next = refs[indices[k + 1]];
            if this.node == next.node {
                writes_ahead[k] = next.op.is_write() || writes_ahead[k + 1];
            }
        }
        for (k, &i) in indices.iter().enumerate() {
            if refs[i].op.is_read() && writes_ahead[k] {
                hints[i] = true;
            }
        }
    }
    hints
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_trace::{Addr, MemRef, NodeId};

    const BS: BlockSize = BlockSize::B16;

    fn r(n: u16, a: u64) -> MemRef {
        MemRef::read(NodeId::new(n), Addr::new(a))
    }

    fn w(n: u16, a: u64) -> MemRef {
        MemRef::write(NodeId::new(n), Addr::new(a))
    }

    #[test]
    fn read_followed_by_own_write_migrates() {
        let t: Trace = vec![r(0, 0), w(0, 0)].into();
        assert_eq!(migrate_hints(&t, BS), vec![true, false]);
    }

    #[test]
    fn read_followed_by_foreign_access_replicates() {
        let t: Trace = vec![r(0, 0), r(1, 0), w(0, 0)].into();
        assert_eq!(migrate_hints(&t, BS), vec![false, false, false]);
    }

    #[test]
    fn intervening_own_reads_do_not_break_the_run() {
        let t: Trace = vec![r(0, 0), r(0, 0), r(0, 8), w(0, 0)].into();
        // All three reads are to the same block (offsets 0 and 8) and
        // node 0 writes before anyone else: all migrate.
        assert_eq!(migrate_hints(&t, BS), vec![true, true, true, false]);
    }

    #[test]
    fn blocks_are_independent() {
        let t: Trace = vec![r(0, 0), r(1, 16), w(1, 16), w(0, 0)].into();
        assert_eq!(migrate_hints(&t, BS), vec![true, true, false, false]);
    }

    #[test]
    fn trailing_read_never_migrates() {
        let t: Trace = vec![w(0, 0), r(1, 0)].into();
        assert_eq!(migrate_hints(&t, BS), vec![false, false]);
    }

    #[test]
    fn migratory_handoffs_all_hint_migrate() {
        let mut t = Trace::new();
        for turn in 0..6u16 {
            t.push(r(turn % 3, 0));
            t.push(w(turn % 3, 0));
        }
        let hints = migrate_hints(&t, BS);
        for (i, hint) in hints.iter().enumerate() {
            assert_eq!(*hint, i % 2 == 0, "reference {i}");
        }
    }

    #[test]
    fn empty_trace() {
        assert!(migrate_hints(&Trace::new(), BS).is_empty());
    }
}
