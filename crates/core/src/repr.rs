//! Directory representations: full-map presence vectors versus
//! limited-pointer (Dir<sub>i</sub>B), coarse-vector
//! (Dir<sub>i</sub>CV<sub>r</sub>) and sparse-directory schemes.
//!
//! The paper's simulations assume a DASH-style full-map directory. The
//! scalable-directory line of work the paper cites (Agarwal et al.; the
//! LimitLESS work; Gupta et al.'s coarse-vector taxonomy) trades
//! precision for bounded per-entry storage:
//!
//! * **Dir<sub>i</sub>B**: at most *i* sharer pointers; overflow falls
//!   back to broadcast invalidation.
//! * **Coarse vector**: one presence bit per *region* of `region_size`
//!   nodes; invalidations go to every node of every covered region.
//! * **Sparse** (Dir<sub>i</sub>CV<sub>r</sub>): exact pointers up to
//!   *i* sharers, degrading to the coarse vector instead of a full
//!   broadcast on overflow.
//!
//! That interacts with migratory data in an interesting way: migratory
//! blocks never have more than two cached copies, so an adaptive
//! protocol keeps cheap directories out of their imprecise modes exactly
//! where a conventional protocol needs them most. The
//! `repro ablation_limited_pointers` experiment quantifies this.
//!
//! Every representation charges the same *residency* (the engines track
//! the true copy set regardless); only the `‖DistantCopies‖` message
//! charge differs. Classification and demotion decisions are therefore
//! bit-identical across representations — the property
//! `tests/repr_parity.rs` pins.

use core::fmt;

use mcc_trace::NodeId;

use crate::directory::CopySet;

/// How the directory stores the set of sharers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum DirectoryRepr {
    /// A presence bit per node: invalidations go exactly to the sharers
    /// (the paper's assumed organization).
    #[default]
    FullMap,
    /// `Dir_iB`: at most `pointers` sharer identities are tracked; when
    /// more copies are created the entry *overflows* and subsequent
    /// invalidations must broadcast to every node.
    LimitedPointer {
        /// Sharer pointers per entry (≥ 1).
        pointers: u8,
    },
    /// A coarse presence vector: one bit per contiguous region of
    /// `region_size` nodes. Never overflows, but every invalidation is
    /// delivered to all nodes of every covered region. `region_size`
    /// of 1 degenerates to the full map.
    CoarseVector {
        /// Nodes per presence bit (≥ 1).
        region_size: u16,
    },
    /// `Dir_iCV_r` (Gupta et al.): exact sharer pointers while at most
    /// `pointers` copies exist; once more are created the entry
    /// degrades to the coarse vector — invalidations cover regions, not
    /// the whole machine.
    Sparse {
        /// Sharer pointers per entry (≥ 1).
        pointers: u8,
        /// Nodes per coarse-vector region on overflow (≥ 1).
        region_size: u16,
    },
}

impl DirectoryRepr {
    /// Returns `true` when a copy set of `copies` current sharers
    /// exceeds the representation's precise capacity.
    pub fn overflows(self, copies: u64) -> bool {
        match self {
            DirectoryRepr::FullMap | DirectoryRepr::CoarseVector { .. } => false,
            DirectoryRepr::LimitedPointer { pointers } | DirectoryRepr::Sparse { pointers, .. } => {
                copies > u64::from(pointers)
            }
        }
    }

    /// The `‖DistantCopies‖` value to *charge* for an invalidation when
    /// the true copy set is `copyset`: the precise distant count for a
    /// full map (or an un-overflowed entry), everyone except the
    /// initiator and home under a limited-pointer broadcast, or every
    /// node of every covered region under a coarse vector.
    pub fn charged_distant_copies(
        self,
        copyset: &CopySet,
        overflowed: bool,
        initiator: NodeId,
        home: NodeId,
        nodes: u16,
    ) -> u64 {
        match self {
            DirectoryRepr::FullMap => copyset.distant_count(initiator, home),
            DirectoryRepr::LimitedPointer { .. } => {
                if overflowed {
                    let mut all = u64::from(nodes);
                    all -= 1; // the initiator
                    if home != initiator {
                        all -= 1; // the home invalidates locally
                    }
                    all
                } else {
                    copyset.distant_count(initiator, home)
                }
            }
            DirectoryRepr::CoarseVector { region_size } => {
                coarse_charge(copyset, region_size, initiator, home, nodes)
            }
            DirectoryRepr::Sparse { region_size, .. } => {
                if overflowed {
                    coarse_charge(copyset, region_size, initiator, home, nodes)
                } else {
                    copyset.distant_count(initiator, home)
                }
            }
        }
    }

    /// Bits needed to store the sharer set for `nodes` nodes.
    pub fn sharer_bits(self, nodes: u16) -> u32 {
        match self {
            DirectoryRepr::FullMap => u32::from(nodes),
            DirectoryRepr::LimitedPointer { pointers } => {
                u32::from(pointers) * ptr_bits(nodes) + 1 // +1 overflow bit
            }
            DirectoryRepr::CoarseVector { region_size } => region_bits(nodes, region_size),
            DirectoryRepr::Sparse {
                pointers,
                region_size,
            } => {
                // The pointer array and the coarse vector reuse the same
                // field (reinterpreted on overflow), plus the mode bit.
                (u32::from(pointers) * ptr_bits(nodes)).max(region_bits(nodes, region_size)) + 1
            }
        }
    }
}

/// Bits per sharer pointer for a machine of `nodes` nodes.
fn ptr_bits(nodes: u16) -> u32 {
    (32 - u32::from(nodes.saturating_sub(1)).leading_zeros()).max(1)
}

/// Presence bits of a coarse vector with `region_size`-node regions.
fn region_bits(nodes: u16, region_size: u16) -> u32 {
    let r = u32::from(region_size.max(1));
    u32::from(nodes).div_ceil(r)
}

/// The coarse-vector invalidation charge: every node of every region
/// containing at least one sharer is invalidated, except the initiator
/// and the home (which invalidate locally). A `region_size` of 1
/// charges exactly [`CopySet::distant_count`].
fn coarse_charge(
    copyset: &CopySet,
    region_size: u16,
    initiator: NodeId,
    home: NodeId,
    nodes: u16,
) -> u64 {
    let r = usize::from(region_size.max(1));
    let nodes = usize::from(nodes);
    let mut covered = 0u64;
    let mut prev_region = usize::MAX;
    for n in copyset.iter() {
        let region = n.index() / r;
        if region != prev_region {
            prev_region = region;
            // The machine's last region may be partial.
            covered += (nodes.saturating_sub(region * r)).min(r) as u64;
            if initiator.index() / r == region {
                covered -= 1;
            }
            if home != initiator && home.index() / r == region {
                covered -= 1;
            }
        }
    }
    covered
}

impl fmt::Display for DirectoryRepr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DirectoryRepr::FullMap => f.write_str("full-map"),
            DirectoryRepr::LimitedPointer { pointers } => write!(f, "Dir{pointers}B"),
            DirectoryRepr::CoarseVector { region_size } => write!(f, "CV{region_size}"),
            DirectoryRepr::Sparse {
                pointers,
                region_size,
            } => write!(f, "Dir{pointers}CV{region_size}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P0: NodeId = NodeId::new(0);
    const P1: NodeId = NodeId::new(1);
    const P2: NodeId = NodeId::new(2);

    #[test]
    fn full_map_never_overflows() {
        for copies in 0..64 {
            assert!(!DirectoryRepr::FullMap.overflows(copies));
        }
    }

    #[test]
    fn limited_pointers_overflow_past_capacity() {
        let d2 = DirectoryRepr::LimitedPointer { pointers: 2 };
        assert!(!d2.overflows(0));
        assert!(!d2.overflows(2));
        assert!(d2.overflows(3));
    }

    #[test]
    fn coarse_vector_never_overflows() {
        let cv = DirectoryRepr::CoarseVector { region_size: 4 };
        for copies in 0..256 {
            assert!(!cv.overflows(copies));
        }
    }

    #[test]
    fn sparse_overflows_like_limited_pointers() {
        let sp = DirectoryRepr::Sparse {
            pointers: 2,
            region_size: 4,
        };
        assert!(!sp.overflows(2));
        assert!(sp.overflows(3));
    }

    #[test]
    fn charged_copies_exact_when_not_overflowed() {
        let mut set = CopySet::new();
        set.insert(P1);
        set.insert(P2);
        let d = DirectoryRepr::LimitedPointer { pointers: 2 };
        assert_eq!(d.charged_distant_copies(&set, false, P0, P0, 16), 2);
        assert_eq!(d.charged_distant_copies(&set, false, P1, P0, 16), 1);
        let sp = DirectoryRepr::Sparse {
            pointers: 2,
            region_size: 4,
        };
        assert_eq!(sp.charged_distant_copies(&set, false, P0, P0, 16), 2);
    }

    #[test]
    fn charged_copies_broadcast_when_overflowed() {
        let set = CopySet::only(P1);
        let d = DirectoryRepr::LimitedPointer { pointers: 1 };
        // Broadcast charges everyone but the initiator and the home.
        assert_eq!(d.charged_distant_copies(&set, true, P0, P2, 16), 14);
        // Home == initiator: only the initiator is exempt.
        assert_eq!(d.charged_distant_copies(&set, true, P0, P0, 16), 15);
    }

    #[test]
    fn coarse_vector_charges_whole_regions() {
        let cv = DirectoryRepr::CoarseVector { region_size: 4 };
        // Sharer at node 5 covers region {4..8}; initiator 4 is in the
        // region, home 0 is not.
        let set = CopySet::only(NodeId::new(5));
        assert_eq!(
            cv.charged_distant_copies(&set, false, NodeId::new(4), P0, 16),
            3
        );
        // Home inside the covered region too.
        assert_eq!(
            cv.charged_distant_copies(&set, false, NodeId::new(4), NodeId::new(6), 16),
            2
        );
        // Distant region: all 4 nodes charged.
        assert_eq!(cv.charged_distant_copies(&set, false, P0, P1, 16), 4);
    }

    #[test]
    fn coarse_vector_clamps_the_partial_last_region() {
        let cv = DirectoryRepr::CoarseVector { region_size: 4 };
        // 10-node machine: the last region covers only nodes 8 and 9.
        let set = CopySet::only(NodeId::new(9));
        assert_eq!(cv.charged_distant_copies(&set, false, P0, P1, 10), 2);
    }

    #[test]
    fn region_size_one_is_exact() {
        let cv = DirectoryRepr::CoarseVector { region_size: 1 };
        let mut set = CopySet::new();
        for i in [0u16, 3, 7, 70] {
            set.insert(NodeId::new(i));
        }
        for (init, home) in [(P0, P1), (P0, P0), (NodeId::new(7), NodeId::new(70))] {
            assert_eq!(
                cv.charged_distant_copies(&set, false, init, home, 128),
                set.distant_count(init, home)
            );
        }
    }

    #[test]
    fn sparse_degrades_to_regions_not_broadcast() {
        let sp = DirectoryRepr::Sparse {
            pointers: 1,
            region_size: 4,
        };
        let mut set = CopySet::new();
        set.insert(P1);
        set.insert(NodeId::new(9));
        // Overflowed: regions {0..4} and {8..12} are covered — the
        // initiator (node 0) is exempted, giving 3 + 4 = 7, far below
        // the 14 a Dir1B broadcast would charge.
        assert_eq!(sp.charged_distant_copies(&set, true, P0, P0, 16), 7);
        // Not overflowed: exact.
        assert_eq!(sp.charged_distant_copies(&set, false, P0, P0, 16), 2);
    }

    #[test]
    fn sharer_bits() {
        assert_eq!(DirectoryRepr::FullMap.sharer_bits(16), 16);
        assert_eq!(DirectoryRepr::FullMap.sharer_bits(64), 64);
        // Dir2B at 16 nodes: 2 pointers x 4 bits + overflow bit.
        assert_eq!(
            DirectoryRepr::LimitedPointer { pointers: 2 }.sharer_bits(16),
            9
        );
        // Dir4B at 64 nodes: 4 x 6 + 1.
        assert_eq!(
            DirectoryRepr::LimitedPointer { pointers: 4 }.sharer_bits(64),
            25
        );
        // CV4 at 1024 nodes: one bit per 4-node region.
        assert_eq!(
            DirectoryRepr::CoarseVector { region_size: 4 }.sharer_bits(1024),
            256
        );
        // Dir4CV16 at 1024 nodes: max(4 x 10, 64) + mode bit.
        assert_eq!(
            DirectoryRepr::Sparse {
                pointers: 4,
                region_size: 16
            }
            .sharer_bits(1024),
            65
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(DirectoryRepr::FullMap.to_string(), "full-map");
        assert_eq!(
            DirectoryRepr::LimitedPointer { pointers: 3 }.to_string(),
            "Dir3B"
        );
        assert_eq!(
            DirectoryRepr::CoarseVector { region_size: 8 }.to_string(),
            "CV8"
        );
        assert_eq!(
            DirectoryRepr::Sparse {
                pointers: 3,
                region_size: 8
            }
            .to_string(),
            "Dir3CV8"
        );
    }
}
