//! Property test: EDT compress -> decompress round trip. Any cube whose
//! care bits the GF(2) solver can encode must be reproduced exactly by
//! expanding the compressed stimulus through the real ring-generator /
//! phase-shifter datapath (every care bit satisfied).

use dft_compress::EdtCodec;
use dft_logicsim::{RunCtx, TestCube};
use dft_metrics::MetricsHandle;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random geometry + random care bits: whenever encode succeeds, the
    /// expanded loads satisfy the cube; metric counters agree with the
    /// outcome.
    #[test]
    fn encode_expand_satisfies_cube(
        chains in 2usize..12,
        chain_len in 4usize..40,
        channels in 1usize..4,
        ring_len in 16usize..48,
        seed in 0u64..10_000,
        care_seed in 0u64..10_000,
        density_pct in 1u64..30,
    ) {
        let metrics = MetricsHandle::enabled();
        let codec = EdtCodec::new(chains, chain_len, channels, ring_len, seed).with_ctx(RunCtx {
            metrics: metrics.clone(),
            ..RunCtx::default()
        });

        // Derive care bits from a seeded LCG (the vendored proptest has no
        // collection strategies).
        let flat = codec.flat_bits();
        let mut cube = TestCube::all_x(flat);
        let mut s = care_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(3);
        let mut care = 0u64;
        for i in 0..flat {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            if (s >> 33) % 100 < density_pct {
                cube.set(i, (s >> 13) & 1 == 1);
                care += 1;
            }
        }

        match codec.encode(&cube) {
            Some(compressed) => {
                prop_assert_eq!(compressed.len(), codec.compressed_bits() / channels);
                let loads = codec.expand(&compressed);
                prop_assert!(codec.satisfies(&cube, &loads),
                    "decompressed loads violate a care bit");
                let snap = metrics.snapshot().unwrap();
                prop_assert_eq!(snap.counter("edt_cubes_encoded"), 1);
                prop_assert_eq!(snap.counter("edt_cubes_failed"), 0);
                prop_assert_eq!(snap.counter("edt_care_bits"), care);
            }
            None => {
                let snap = metrics.snapshot().unwrap();
                prop_assert_eq!(snap.counter("edt_cubes_encoded"), 0);
                prop_assert_eq!(snap.counter("edt_cubes_failed"), 1);
            }
        }
        let snap = metrics.snapshot().unwrap();
        prop_assert_eq!(snap.counter("edt_cubes_attempted"), 1);
        prop_assert_eq!(snap.counter("gf2_solves"), 1);
    }

    /// Cubes within the capacity hint nearly always encode; this pins the
    /// contract that sparse cubes round-trip rather than silently failing.
    #[test]
    fn sparse_cubes_encode_and_round_trip(
        seed in 0u64..10_000,
        care_seed in 0u64..10_000,
    ) {
        let codec = EdtCodec::new(8, 32, 2, 32, seed);
        let flat = codec.flat_bits();
        let budget = codec.capacity_hint() / 3;
        let mut cube = TestCube::all_x(flat);
        let mut s = care_seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        for _ in 0..budget {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            cube.set(((s >> 24) as usize) % flat, (s >> 7) & 1 == 1);
        }
        let compressed = codec.encode(&cube);
        prop_assert!(compressed.is_some(), "sparse cube failed to encode");
        let loads = codec.expand(&compressed.unwrap());
        prop_assert!(codec.satisfies(&cube, &loads));
    }
}
