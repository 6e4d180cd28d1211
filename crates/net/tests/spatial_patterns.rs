//! Property tests for the spatial traffic patterns: every pattern on
//! any mesh yields in-mesh destinations distinct from the source (or a
//! documented self-loop skip), destination sequences are deterministic
//! for a fixed seed across threads, and the classic patterns are the
//! involutions the literature says they are.

use mango_core::RouterId;
use mango_net::{Grid, SpatialPattern};
use mango_sim::SimRng;
use proptest::prelude::*;

/// Builds the `variant`-th pattern for a `width × height` mesh, using
/// `salt` to derive hotspot/pool parameters deterministically.
fn pattern_for(variant: u8, width: u8, height: u8, salt: u64) -> SpatialPattern {
    let grid = Grid::new(width, height);
    let n = grid.len();
    match variant % 8 {
        0 => SpatialPattern::UniformRandom,
        1 => SpatialPattern::Transpose,
        2 => SpatialPattern::BitComplement,
        3 => SpatialPattern::BitReverse,
        4 => SpatialPattern::Tornado,
        5 => {
            let t1 = grid.id_at(salt as usize % n);
            let t2 = grid.id_at((salt / 7) as usize % n);
            SpatialPattern::hotspot(vec![t1, t2], (salt % 101) as f64 / 100.0)
        }
        6 => SpatialPattern::NearestNeighbour,
        _ => {
            let pool: Vec<RouterId> = (0..n)
                .step_by(1 + salt as usize % 3)
                .map(|i| grid.id_at(i))
                .collect();
            SpatialPattern::FixedPool(pool)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any pattern, any mesh, any source: a pick lands inside the mesh
    /// and never on the source — or is `None` (the documented self-loop
    /// / off-mesh skip). No pick panics.
    #[test]
    fn picks_stay_in_mesh_and_off_source(
        variant in 0u8..8,
        width in 1u8..17,
        height in 1u8..17,
        src_i in 0usize..289,
        salt in 0u64..10_000,
        seed in 0u64..1000,
    ) {
        let grid = Grid::new(width, height);
        let src = grid.id_at(src_i % grid.len());
        let pattern = pattern_for(variant, width, height, salt);
        let mut rng = SimRng::new(seed);
        for _ in 0..64 {
            if let Some(d) = pattern.pick(src, &grid, &mut rng) {
                prop_assert!(grid.contains(d), "{pattern:?}: {d} off-mesh");
                prop_assert!(d != src, "{pattern:?} returned the source");
            }
        }
    }

    /// A pattern validated for its mesh never skips for *off-mesh*
    /// reasons: whenever it returns a destination it is in-mesh, and the
    /// validated deterministic patterns (transpose on square meshes,
    /// bit-reverse on power-of-two meshes) skip only true self-loops.
    #[test]
    fn validated_transpose_and_bitrev_skip_only_self_loops(
        side_log in 1u32..4,
        src_i in 0usize..64,
    ) {
        let side = 1u8 << side_log; // 2, 4, 8: square and power-of-two
        let grid = Grid::new(side, side);
        let src = grid.id_at(src_i % grid.len());
        let mut rng = SimRng::new(1);
        for pattern in [SpatialPattern::Transpose, SpatialPattern::BitReverse] {
            prop_assert!(pattern.validate(&grid).is_ok());
            if pattern.pick(src, &grid, &mut rng).is_none() {
                // The mapping must be a fixed point, not an off-mesh drop.
                let fixed = match pattern {
                    SpatialPattern::Transpose => src.x == src.y,
                    SpatialPattern::BitReverse => {
                        let i = grid.index(src);
                        let bits = usize::BITS - (grid.len() - 1).leading_zeros();
                        i.reverse_bits() >> (usize::BITS - bits) == i
                    }
                    _ => unreachable!(),
                };
                prop_assert!(fixed, "{pattern:?} skipped a non-fixed-point at {src}");
            }
        }
    }

    /// Fixed seed ⇒ identical destination sequence, even when computed
    /// on different threads — the contract the parallel sweep runner
    /// rests on.
    #[test]
    fn destination_sequences_are_thread_deterministic(
        variant in 0u8..8,
        width in 2u8..13,
        height in 2u8..13,
        salt in 0u64..10_000,
        seed in 0u64..1000,
    ) {
        let sequence = |()| -> Vec<Option<RouterId>> {
            let grid = Grid::new(width, height);
            let pattern = pattern_for(variant, width, height, salt);
            let src = grid.id_at(salt as usize % grid.len());
            let mut rng = SimRng::new(seed);
            (0..128).map(|_| pattern.pick(src, &grid, &mut rng)).collect()
        };
        let (a, b) = std::thread::scope(|s| {
            let ha = s.spawn(|| sequence(()));
            let hb = s.spawn(|| sequence(()));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a, sequence(()));
    }

    /// Transpose (square mesh), bit-complement (any mesh) and bit-reverse
    /// (power-of-two mesh) are involutions: following the mapping twice
    /// returns to the source.
    #[test]
    fn classic_patterns_are_involutions(
        side in 2u8..13,
        src_i in 0usize..169,
    ) {
        let grid = Grid::new(side, side);
        let src = grid.id_at(src_i % grid.len());
        let mut rng = SimRng::new(3);
        let pow2 = grid.len().is_power_of_two();
        let cases = [
            (SpatialPattern::Transpose, true),
            (SpatialPattern::BitComplement, true),
            (SpatialPattern::BitReverse, pow2),
        ];
        for (pattern, applies) in cases {
            if !applies {
                continue;
            }
            if let Some(d) = pattern.pick(src, &grid, &mut rng) {
                let back = pattern.pick(d, &grid, &mut rng);
                prop_assert!(
                    back == Some(src),
                    "{pattern:?} is not an involution at {src}"
                );
            }
        }
    }

    /// The uniform pattern really is uniform over all-but-self: over a
    /// long draw sequence every other node appears, the source never.
    #[test]
    fn uniform_covers_every_other_node(
        width in 2u8..7,
        height in 2u8..7,
        seed in 0u64..500,
    ) {
        let grid = Grid::new(width, height);
        let src = grid.id_at(seed as usize % grid.len());
        let mut rng = SimRng::new(seed);
        let mut seen = vec![false; grid.len()];
        for _ in 0..grid.len() * 64 {
            let d = SpatialPattern::UniformRandom.pick(src, &grid, &mut rng).unwrap();
            seen[grid.index(d)] = true;
        }
        for (i, &hit) in seen.iter().enumerate() {
            prop_assert_eq!(hit, i != grid.index(src));
        }
    }
}
