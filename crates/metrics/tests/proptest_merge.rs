//! Property tests: counter/histogram merging is associative — the totals
//! are a pure function of the multiset of recorded events, independent of
//! how the events are partitioned across threads. This is the contract
//! the parallel fault-simulation paths rely on to keep metric snapshots
//! bit-identical for any `--threads` value.

use proptest::prelude::*;

use dft_metrics::{Metrics, MetricsHandle};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any partition of any event multiset, applied from any number of
    /// threads, yields the same counter total and histogram buckets as
    /// the serial single-chunk application.
    #[test]
    fn counter_merge_is_associative(
        seed in 0u64..10_000,
        len in 0usize..200,
        chunks in 1usize..9,
    ) {
        // The vendored proptest has no collection strategies; derive the
        // event list from the seed with an LCG.
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let events: Vec<u64> = (0..len)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                s >> 50
            })
            .collect();
        // Serial reference.
        let serial = Metrics::new();
        for &e in &events {
            serial.faultsim_gate_evals.add(e);
            serial.podem_backtracks_per_call.record(e);
        }

        // Partitioned across `chunks` threads through one shared handle.
        let handle = MetricsHandle::enabled();
        let chunk_len = events.len().div_ceil(chunks).max(1);
        std::thread::scope(|s| {
            for part in events.chunks(chunk_len) {
                let h = handle.clone();
                s.spawn(move || {
                    let m = h.get().unwrap();
                    for &e in part {
                        m.faultsim_gate_evals.add(e);
                        m.podem_backtracks_per_call.record(e);
                    }
                });
            }
        });

        let got = handle.snapshot().unwrap();
        prop_assert_eq!(got, serial.snapshot());
    }

    /// Splitting one total across two registries and summing the
    /// snapshots equals recording it in one registry (merge = add).
    #[test]
    fn split_registries_sum_to_whole(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let left = Metrics::new();
        let right = Metrics::new();
        left.edt_care_bits.add(a);
        right.edt_care_bits.add(b);
        let whole = Metrics::new();
        whole.edt_care_bits.add(a);
        whole.edt_care_bits.add(b);
        prop_assert_eq!(
            left.snapshot().counter("edt_care_bits")
                + right.snapshot().counter("edt_care_bits"),
            whole.snapshot().counter("edt_care_bits")
        );
    }
}
