//! Directory-entry storage cost analysis (§2.2).
//!
//! "Adding an adaptive protocol to an existing directory-based protocol
//! increases the size of each directory entry. The amount of extra
//! storage depends on both the design of the original protocol and the
//! properties of the particular adaptive policy chosen." This module
//! quantifies that: bits per directory entry for a full-map directory,
//! with and without the adaptive extension, so hardware-cost trade-offs
//! can be tabulated (see the `repro storage_overhead` experiment).

use core::fmt;

use crate::policy::AdaptivePolicy;

/// Bit-level layout of a full-map directory entry.
///
/// # Examples
///
/// ```
/// use mcc_core::{AdaptivePolicy, DirEntryLayout};
///
/// let conventional = DirEntryLayout::conventional(16);
/// let adaptive = DirEntryLayout::adaptive(16, AdaptivePolicy::basic());
/// assert!(adaptive.total_bits() > conventional.total_bits());
/// // The paper's point: the increase is a handful of bits.
/// assert!(adaptive.total_bits() - conventional.total_bits() <= 8);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirEntryLayout {
    /// Nodes tracked by the full-map copy set.
    pub nodes: u16,
    /// Presence-vector bits (one per node).
    pub copyset_bits: u32,
    /// Base state bits (uncached / one / two / three-or-more plus the
    /// dirty flag).
    pub state_bits: u32,
    /// Migratory classification bit (0 for conventional).
    pub migratory_bits: u32,
    /// Bits identifying the last invalidator (0 when the copy-set
    /// representation already reveals creation order, or for the
    /// conventional protocol).
    pub last_invalidator_bits: u32,
    /// Hysteresis counter bits (⌈log2(events_required)⌉).
    pub hysteresis_bits: u32,
}

impl DirEntryLayout {
    /// Layout for a conventional full-map write-invalidate directory.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn conventional(nodes: u16) -> Self {
        assert!(nodes > 0, "node count must be positive");
        DirEntryLayout {
            nodes,
            copyset_bits: u32::from(nodes),
            // Uncached / shared / dirty.
            state_bits: 2,
            migratory_bits: 0,
            last_invalidator_bits: 0,
            hysteresis_bits: 0,
        }
    }

    /// Layout for the adaptive extension under `policy`.
    ///
    /// The copies-created counter folds into the state field (two extra
    /// encodings), the migratory flag costs one bit, the last
    /// invalidator costs ⌈log2 nodes⌉ bits, and the hysteresis counter
    /// costs ⌈log2 events_required⌉ bits — "a small (one or two bits)
    /// counter field" in the paper's words.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or `policy.events_required` is zero.
    pub fn adaptive(nodes: u16, policy: AdaptivePolicy) -> Self {
        assert!(nodes > 0, "node count must be positive");
        assert!(
            policy.events_required > 0,
            "events_required must be positive"
        );
        let hysteresis_states = u32::from(policy.events_required);
        DirEntryLayout {
            nodes,
            copyset_bits: u32::from(nodes),
            // Uncached / one / two / three-or-more, plus dirty.
            state_bits: 3,
            migratory_bits: 1,
            last_invalidator_bits: ceil_log2(u32::from(nodes)),
            hysteresis_bits: ceil_log2(hysteresis_states),
        }
    }

    /// Total bits per directory entry.
    pub fn total_bits(&self) -> u32 {
        self.copyset_bits
            + self.state_bits
            + self.migratory_bits
            + self.last_invalidator_bits
            + self.hysteresis_bits
    }

    /// Directory overhead as a fraction of data storage, for a given
    /// block size: `total_bits / (block_bytes * 8)`.
    pub fn overhead_fraction(&self, block_bytes: u64) -> f64 {
        self.total_bits() as f64 / (block_bytes * 8) as f64
    }
}

impl fmt::Display for DirEntryLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bits/entry ({} copyset + {} state + {} migratory + {} last-inv + {} hysteresis)",
            self.total_bits(),
            self.copyset_bits,
            self.state_bits,
            self.migratory_bits,
            self.last_invalidator_bits,
            self.hysteresis_bits
        )
    }
}

/// ⌈log2(n)⌉ for n ≥ 1 (0 for n = 1).
fn ceil_log2(n: u32) -> u32 {
    debug_assert!(n >= 1);
    32 - (n - 1).leading_zeros().min(32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(16), 4);
        assert_eq!(ceil_log2(17), 5);
    }

    #[test]
    fn sixteen_node_layouts() {
        let conv = DirEntryLayout::conventional(16);
        assert_eq!(conv.total_bits(), 18);

        let basic = DirEntryLayout::adaptive(16, AdaptivePolicy::basic());
        // 16 copyset + 3 state + 1 migratory + 4 last-inv + 0 hysteresis.
        assert_eq!(basic.total_bits(), 24);

        let conservative = DirEntryLayout::adaptive(16, AdaptivePolicy::conservative());
        // One extra hysteresis bit.
        assert_eq!(conservative.total_bits(), 25);
    }

    #[test]
    fn overhead_fraction_for_paper_blocks() {
        let basic = DirEntryLayout::adaptive(16, AdaptivePolicy::basic());
        // 24 bits over a 16-byte block = 18.75%.
        assert!((basic.overhead_fraction(16) - 24.0 / 128.0).abs() < 1e-12);
        // Over a 256-byte block it is negligible.
        assert!(basic.overhead_fraction(256) < 0.02);
    }

    #[test]
    fn adaptive_cost_grows_slowly_with_nodes() {
        for nodes in [4u16, 16, 64] {
            let conv = DirEntryLayout::conventional(nodes);
            let adapt = DirEntryLayout::adaptive(nodes, AdaptivePolicy::aggressive());
            let extra = adapt.total_bits() - conv.total_bits();
            // One state encoding, one migratory bit, log2(n) last-inv.
            assert!(extra <= 2 + 1 + 16, "{nodes} nodes: {extra} extra bits");
            assert!(adapt.total_bits() > conv.total_bits());
        }
    }

    #[test]
    #[should_panic(expected = "node count must be positive")]
    fn zero_nodes_rejected() {
        let _ = DirEntryLayout::conventional(0);
    }

    #[test]
    fn display_itemizes() {
        let text = DirEntryLayout::adaptive(16, AdaptivePolicy::conservative()).to_string();
        assert!(text.contains("25 bits/entry"));
        assert!(text.contains("hysteresis"));
    }
}
