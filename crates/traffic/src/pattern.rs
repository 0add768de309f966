//! Synthetic traffic patterns (§6.4 of the paper and the usual suspects).

use punchsim_types::{Coord, NodeId, SimRng, Substrate};

/// A synthetic destination-selection pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPattern {
    /// Every node equally likely (including self).
    UniformRandom,
    /// `(x, y) -> (y, x)` — the paper's most adversarial load (Figure 12c).
    Transpose,
    /// Bit-complement of the node index (corner-to-corner pressure).
    BitComplement,
    /// Bit-reversal of the node index.
    BitReverse,
    /// One-bit rotate (perfect shuffle) of the node index.
    Shuffle,
    /// Half-way around each dimension (`tornado`).
    Tornado,
    /// Nearest neighbour: one hop east (wraps to the row start).
    Neighbor,
    /// All traffic to a fixed hotspot node.
    Hotspot(NodeId),
}

impl TrafficPattern {
    /// The three patterns evaluated in Figure 12, in figure order.
    pub const FIGURE12: [TrafficPattern; 3] = [
        TrafficPattern::UniformRandom,
        TrafficPattern::BitComplement,
        TrafficPattern::Transpose,
    ];

    /// Every parameter-free pattern (everything but `Hotspot`), the set a
    /// synthetic campaign sweeps.
    pub const SYNTHETIC: [TrafficPattern; 7] = [
        TrafficPattern::UniformRandom,
        TrafficPattern::Transpose,
        TrafficPattern::BitComplement,
        TrafficPattern::BitReverse,
        TrafficPattern::Shuffle,
        TrafficPattern::Tornado,
        TrafficPattern::Neighbor,
    ];

    /// Stable machine-readable tag: CLI flag values, campaign spec ids and
    /// `BENCH_*.json` artifacts all use these. Never rename a tag — cached
    /// campaign results and checked-in baselines key on them.
    pub fn tag(self) -> &'static str {
        match self {
            TrafficPattern::UniformRandom => "uniform",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::BitComplement => "bitcomp",
            TrafficPattern::BitReverse => "bitrev",
            TrafficPattern::Shuffle => "shuffle",
            TrafficPattern::Tornado => "tornado",
            TrafficPattern::Neighbor => "neighbor",
            TrafficPattern::Hotspot(_) => "hotspot",
        }
    }

    /// Parses a [`TrafficPattern::tag`] back into a pattern (`Hotspot` is
    /// not parseable: its node parameter is not part of the tag).
    pub fn from_tag(tag: &str) -> Option<TrafficPattern> {
        TrafficPattern::SYNTHETIC
            .into_iter()
            .find(|p| p.tag() == tag)
    }

    /// Short label for figure output.
    pub fn label(self) -> &'static str {
        match self {
            TrafficPattern::UniformRandom => "uniform-random",
            TrafficPattern::Transpose => "transpose",
            TrafficPattern::BitComplement => "bit-complement",
            TrafficPattern::BitReverse => "bit-reverse",
            TrafficPattern::Shuffle => "shuffle",
            TrafficPattern::Tornado => "tornado",
            TrafficPattern::Neighbor => "neighbor",
            TrafficPattern::Hotspot(_) => "hotspot",
        }
    }

    /// Picks the destination for a packet injected at `src`.
    ///
    /// Deterministic patterns ignore `rng`. Index-bit patterns permute the
    /// `ceil(log2 nodes)`-bit index space and fold it back with `% nodes`:
    /// exact on a power-of-two node count (the evaluated 4x4/8x8/16x16
    /// meshes), a modulo mapping on any other.
    pub fn destination(self, topo: impl Into<Substrate>, src: NodeId, rng: &mut SimRng) -> NodeId {
        let mesh: Substrate = topo.into();
        let n = mesh.nodes() as u16;
        let bits = (n as u32).next_power_of_two().trailing_zeros().max(1);
        let mask = ((1u32 << bits) - 1) as u16;
        match self {
            TrafficPattern::UniformRandom => NodeId(rng.random_range(0..n)),
            TrafficPattern::Transpose => {
                let c = mesh.coord(src);
                // Transpose assumes a square mesh; clamp otherwise.
                let x = c.y.min(mesh.width() - 1);
                let y = c.x.min(mesh.height() - 1);
                mesh.node(Coord::new(x, y))
            }
            TrafficPattern::BitComplement => NodeId((!src.0 & mask) % n),
            TrafficPattern::BitReverse => NodeId((src.0.reverse_bits() >> (16 - bits)) % n),
            TrafficPattern::Shuffle => {
                let s = ((src.0 << 1) | (src.0 >> (bits - 1) & 1)) & mask;
                NodeId(s % n)
            }
            TrafficPattern::Tornado => {
                let c = mesh.coord(src);
                let x = (c.x + mesh.width() / 2) % mesh.width();
                let y = (c.y + mesh.height() / 2) % mesh.height();
                mesh.node(Coord::new(x, y))
            }
            TrafficPattern::Neighbor => {
                let c = mesh.coord(src);
                let x = (c.x + 1) % mesh.width();
                mesh.node(Coord::new(x, c.y))
            }
            TrafficPattern::Hotspot(h) => h,
        }
    }
}

impl std::fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use punchsim_types::Mesh;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1)
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let m = Mesh::new(8, 8);
        // R27 = (3,3) maps to itself; R26 = (2,3) maps to (3,2) = R19.
        let mut r = rng();
        assert_eq!(
            TrafficPattern::Transpose.destination(m, NodeId(27), &mut r),
            NodeId(27)
        );
        assert_eq!(
            TrafficPattern::Transpose.destination(m, NodeId(26), &mut r),
            NodeId(19)
        );
    }

    #[test]
    fn bit_complement_is_involution() {
        let m = Substrate::from(Mesh::new(8, 8));
        let mut r = rng();
        for src in m.iter_nodes() {
            let d = TrafficPattern::BitComplement.destination(m, src, &mut r);
            let back = TrafficPattern::BitComplement.destination(m, d, &mut r);
            assert_eq!(back, src);
        }
    }

    /// Every pattern, on every mesh up to 6x6 (most of them not a power of
    /// two in nodes) plus the 8x8, from every source: a destination inside
    /// the mesh and no shift overflow (the test profile checks those). And
    /// bit-reverse stays a spread-out mapping off the powers of two — it
    /// used to reverse `trailing_zeros` bits: 2 on a 6x6, so every packet
    /// went to nodes 0-3.
    #[test]
    fn all_destinations_in_mesh() {
        let mut r = rng();
        let small = (1..=6u16).flat_map(|w| (1..=6u16).map(move |h| (w, h)));
        for (w, h) in small.chain([(8, 8)]) {
            let m = Substrate::from(Mesh::new(w, h));
            let hotspot = TrafficPattern::Hotspot(NodeId(m.nodes() as u16 - 1));
            for p in TrafficPattern::SYNTHETIC.into_iter().chain([hotspot]) {
                let mut seen = vec![false; m.nodes()];
                for src in m.iter_nodes() {
                    let d = p.destination(m, src, &mut r);
                    assert!(m.contains(d), "{p} on {w}x{h} from {src} gave {d}");
                    seen[d.index()] = true;
                }
                if p == TrafficPattern::BitReverse && !m.nodes().is_power_of_two() {
                    let distinct = seen.iter().filter(|&&s| s).count();
                    assert!(distinct >= m.nodes() / 4, "{w}x{h}: {distinct} targets");
                }
            }
        }
    }

    #[test]
    fn tornado_travels_half_way() {
        let m = Substrate::from(Mesh::new(8, 8));
        let mut r = rng();
        let d = TrafficPattern::Tornado.destination(m, NodeId(0), &mut r);
        assert_eq!(m.coord(d), Coord::new(4, 4));
    }

    #[test]
    fn uniform_covers_whole_mesh() {
        let m = Mesh::new(4, 4);
        let mut r = rng();
        let mut seen = [false; 16];
        for _ in 0..2000 {
            let d = TrafficPattern::UniformRandom.destination(m, NodeId(0), &mut r);
            seen[d.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn tags_roundtrip() {
        for p in TrafficPattern::SYNTHETIC {
            assert_eq!(TrafficPattern::from_tag(p.tag()), Some(p));
        }
        assert_eq!(TrafficPattern::from_tag("hotspot"), None);
        assert_eq!(TrafficPattern::from_tag("nope"), None);
    }
}
