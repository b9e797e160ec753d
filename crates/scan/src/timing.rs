//! Test-application cost model and scan pattern formatting.

use dft_logicsim::{Pattern, PatternSet, SimKernel, TapeKernel};
use dft_netlist::Netlist;

use crate::ScanInsertion;

/// Analytical tester-time model for a scan architecture.
///
/// The standard accounting: each pattern shifts `max_chain_len` cycles to
/// load (overlapped with the previous pattern's unload), plus one capture
/// cycle, plus a final unload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestTimeModel {
    /// Number of scan chains.
    pub chains: usize,
    /// Longest chain length (shift cycles per load).
    pub max_chain_len: usize,
    /// Number of test patterns.
    pub patterns: usize,
    /// Scan shift clock in MHz (typical: 50-100 MHz, slower than
    /// functional clock for power reasons).
    pub shift_mhz: u32,
}

impl TestTimeModel {
    /// Builds a model from a scan architecture and a pattern count.
    pub fn for_architecture(scan: &ScanInsertion, patterns: usize, shift_mhz: u32) -> Self {
        TestTimeModel {
            chains: scan.chains.len(),
            max_chain_len: scan.shift_cycles(),
            patterns,
            shift_mhz,
        }
    }

    /// Total tester cycles: `(patterns + 1) * shift + patterns` (loads
    /// overlap unloads; one trailing unload; one capture per pattern).
    pub fn total_cycles(&self) -> u64 {
        (self.patterns as u64 + 1) * self.max_chain_len as u64 + self.patterns as u64
    }

    /// Test time in milliseconds at the configured shift clock.
    pub fn test_time_ms(&self) -> f64 {
        self.total_cycles() as f64 / (self.shift_mhz as f64 * 1e3)
    }

    /// Scan data volume in bits moved into the chip (loads only).
    pub fn data_volume_bits(&self) -> u64 {
        // Every load shifts max_chain_len cycles on every chain pin.
        (self.patterns as u64) * (self.max_chain_len as u64) * (self.chains as u64)
    }

    /// Scan pin count: si + so per chain, plus scan-enable.
    pub fn pin_count(&self) -> usize {
        2 * self.chains + 1
    }
}

/// Splits one ATPG pattern (PI bits then PPI bits in netlist source
/// order) into per-chain load vectors, scan-in-first ordering: element
/// `[c][k]` is the bit shifted into chain `c` at cycle `k`, so the bit
/// destined for the flop *farthest* from scan-in goes first.
pub fn chain_loads(nl: &Netlist, scan: &ScanInsertion, pattern: &Pattern) -> Vec<Vec<bool>> {
    let num_pi = nl.num_inputs();
    let ffs = nl.dffs();
    scan.chains
        .iter()
        .map(|chain| {
            // chain[0] is nearest scan-in; after L shifts, the first bit
            // shifted ends up in chain[L-1]. So shift order is the load
            // value of the last flop first.
            chain
                .iter()
                .rev()
                .map(|ff| {
                    let ppi_idx = ffs
                        .iter()
                        .position(|&f| f == *ff)
                        .expect("chain flop must exist in netlist");
                    pattern[num_pi + ppi_idx]
                })
                .collect()
        })
        .collect()
}

/// Computes the expected per-chain unload vectors for every pattern: the
/// captured flop responses in scan-out order (farthest flop emerges
/// last... i.e. the flop nearest scan-out emerges first).
pub fn expected_unloads(
    nl: &Netlist,
    scan: &ScanInsertion,
    patterns: &PatternSet,
) -> Vec<Vec<Vec<bool>>> {
    let sim = TapeKernel::compile(nl);
    let responses = sim.eval_batch(patterns);
    let num_po = nl.num_outputs();
    let ffs = nl.dffs();
    responses
        .iter()
        .map(|resp| {
            scan.chains
                .iter()
                .map(|chain| {
                    // Unload order: last flop (next to so) first.
                    chain
                        .iter()
                        .rev()
                        .map(|ff| {
                            let ppi_idx = ffs.iter().position(|&f| f == *ff).unwrap();
                            resp[num_po + ppi_idx]
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{insert_scan, ScanConfig};
    use dft_netlist::generators::{counter, shift_register};

    #[test]
    fn cycle_accounting() {
        let m = TestTimeModel {
            chains: 4,
            max_chain_len: 100,
            patterns: 10,
            shift_mhz: 100,
        };
        assert_eq!(m.total_cycles(), 11 * 100 + 10);
        assert_eq!(m.pin_count(), 9);
        assert_eq!(m.data_volume_bits(), 10 * 100 * 4);
        assert!((m.test_time_ms() - 1110.0 / 100_000.0).abs() < 1e-12);
    }

    #[test]
    fn more_chains_cut_test_time() {
        let nl = shift_register(64);
        let t1 = {
            let scan = insert_scan(&nl, &ScanConfig { num_chains: 1 });
            TestTimeModel::for_architecture(&scan, 100, 100).total_cycles()
        };
        let t8 = {
            let scan = insert_scan(&nl, &ScanConfig { num_chains: 8 });
            TestTimeModel::for_architecture(&scan, 100, 100).total_cycles()
        };
        assert!(t8 * 7 < t1, "1 chain {t1} vs 8 chains {t8}");
    }

    #[test]
    fn chain_loads_reverse_order() {
        let nl = counter(4);
        let scan = insert_scan(&nl, &ScanConfig { num_chains: 1 });
        // Pattern: en=0, q0..q3 = 1,0,1,1.
        let pattern = vec![false, true, false, true, true];
        let loads = chain_loads(&nl, &scan, &pattern);
        assert_eq!(loads.len(), 1);
        // Chain order q0(first, nearest si)..q3; shift order reversed.
        assert_eq!(loads[0], vec![true, true, false, true]);
    }

    #[test]
    fn unloads_match_simulated_capture() {
        let nl = counter(4);
        let scan = insert_scan(&nl, &ScanConfig { num_chains: 2 });
        let ps = PatternSet::random(&nl, 5, 77);
        let unloads = expected_unloads(&nl, &scan, &ps);
        assert_eq!(unloads.len(), 5);
        assert_eq!(unloads[0].len(), 2);
        let total: usize = unloads[0].iter().map(|c| c.len()).sum();
        assert_eq!(total, 4);
    }
}
