//! The EDT codec: cube encoding (GF(2) solve) and stimulus expansion.

use dft_logicsim::{RunCtx, TestCube};
use dft_metrics::MetricsHandle;
use dft_netlist::Netlist;
use dft_scan::ScanInsertion;
use dft_trace::TraceHandle;

use crate::gf2::Gf2System;
use crate::{PhaseShifter, RingGenerator};

/// An EDT compression codec for a fixed scan geometry.
///
/// Cell indexing: cell `(chain c, position p)` (position 0 nearest
/// scan-in) is flat index `c * chain_len + p`. The bit occupying position
/// `p` after a full load is the phase-shifter output of chain `c` at shift
/// cycle `chain_len - 1 - p`.
#[derive(Debug, Clone)]
pub struct EdtCodec {
    ring: RingGenerator,
    shifter: PhaseShifter,
    chains: usize,
    chain_len: usize,
    /// Decompressor warm-up cycles before the first chain-load cycle.
    /// Without warm-up, cells loaded in the first cycles depend on almost
    /// no variables and over-constrain trivially.
    warmup: usize,
    /// Symbolic linear expression of every (load cycle, chain) output over
    /// the injected variables.
    cell_expr: Vec<Vec<Vec<u64>>>,
    metrics: MetricsHandle,
    trace: TraceHandle,
}

impl EdtCodec {
    /// Builds a codec: `chains x chain_len` scan cells fed by `channels`
    /// tester channels through a ring generator of `ring_len` bits. The
    /// decompressor is clocked `ring_len` warm-up cycles (with injection)
    /// before the load begins.
    pub fn new(
        chains: usize,
        chain_len: usize,
        channels: usize,
        ring_len: usize,
        seed: u64,
    ) -> EdtCodec {
        let ring = RingGenerator::new(ring_len, channels, seed);
        let shifter = PhaseShifter::new(ring_len, chains, seed);
        let warmup = ring_len;
        let vars = channels * (chain_len + warmup);
        let var_words = vars.div_ceil(64);
        // Symbolic simulation of warm-up plus one full load.
        let mut state = vec![vec![0u64; var_words]; ring_len];
        let mut cell_expr: Vec<Vec<Vec<u64>>> = Vec::with_capacity(chain_len);
        for k in 0..warmup + chain_len {
            let injected: Vec<usize> = (0..channels).map(|c| k * channels + c).collect();
            ring.step_symbolic(&mut state, &injected, var_words);
            if k >= warmup {
                cell_expr.push(shifter.output_symbolic(&state, var_words));
            }
        }
        EdtCodec {
            ring,
            shifter,
            chains,
            chain_len,
            warmup,
            cell_expr,
            metrics: MetricsHandle::disabled(),
            trace: TraceHandle::disabled(),
        }
    }

    /// Takes the run context: encode/solve counters go to
    /// `ctx.metrics`, and each [`EdtCodec::encode`] call records an
    /// `edt_encode` span (`arg` = care bits) wrapping a `gf2_solve` span
    /// around the linear solve.
    pub fn with_ctx(mut self, ctx: RunCtx) -> EdtCodec {
        self.metrics = ctx.metrics;
        self.trace = ctx.trace;
        self
    }

    /// Number of scan chains driven.
    pub fn chains(&self) -> usize {
        self.chains
    }

    /// Scan cells per chain.
    pub fn chain_len(&self) -> usize {
        self.chain_len
    }

    /// Tester channels (compressed stimulus width per cycle).
    pub fn channels(&self) -> usize {
        self.ring.channels()
    }

    /// Compressed bits per pattern (`channels * (warmup + chain_len)`).
    pub fn compressed_bits(&self) -> usize {
        self.channels() * (self.chain_len + self.warmup)
    }

    /// Uncompressed bits per pattern (`chains * chain_len`).
    pub fn flat_bits(&self) -> usize {
        self.chains * self.chain_len
    }

    /// Encodes a test cube over the flat cell index space. Returns the
    /// per-cycle channel inputs, or `None` when the care bits are not
    /// encodable (over-constrained for this geometry).
    pub fn encode(&self, cube: &TestCube) -> Option<Vec<Vec<bool>>> {
        assert_eq!(cube.width(), self.flat_bits(), "cube width");
        let mut sys = Gf2System::new(self.compressed_bits());
        for c in 0..self.chains {
            for p in 0..self.chain_len {
                if let Some(v) = cube.get(c * self.chain_len + p) {
                    let cycle = self.chain_len - 1 - p;
                    sys.add_equation(self.cell_expr[cycle][c].clone(), v);
                }
            }
        }
        let care_bits = sys.num_rows() as u64;
        let _encode = self.trace.span_arg("edt_encode", care_bits);
        let (solution, eliminations) = {
            let _solve = self.trace.span_arg("gf2_solve", care_bits);
            sys.solve_counted()
        };
        if let Some(m) = self.metrics.get() {
            m.edt_cubes_attempted.inc();
            m.edt_care_bits.add(care_bits);
            m.edt_care_bits_per_cube.record(care_bits);
            m.gf2_solves.inc();
            m.gf2_eliminations.add(eliminations);
            if solution.is_some() {
                m.edt_cubes_encoded.inc();
            } else {
                m.edt_cubes_failed.inc();
            }
        }
        let x = solution?;
        let channels = self.channels();
        Some(
            (0..self.chain_len + self.warmup)
                .map(|k| (0..channels).map(|c| x[k * channels + c]).collect())
                .collect(),
        )
    }

    /// Expands compressed stimulus (warm-up cycles followed by load
    /// cycles) into per-chain load vectors indexed by position
    /// (`loads[c][p]` is the final value of cell `p` of chain `c`).
    pub fn expand(&self, inputs: &[Vec<bool>]) -> Vec<Vec<bool>> {
        assert_eq!(inputs.len(), self.chain_len + self.warmup, "cycles");
        let mut state = vec![false; self.ring.length()];
        let mut loads = vec![vec![false; self.chain_len]; self.chains];
        for (k, ins) in inputs.iter().enumerate() {
            self.ring.step(&mut state, ins);
            if k < self.warmup {
                continue;
            }
            let out = self.shifter.output(&state);
            let pos = self.chain_len - 1 - (k - self.warmup);
            for (c, &bit) in out.iter().enumerate() {
                loads[c][pos] = bit;
            }
        }
        loads
    }

    /// Checks a cube's care bits against expanded loads (test helper and
    /// sign-off utility).
    pub fn satisfies(&self, cube: &TestCube, loads: &[Vec<bool>]) -> bool {
        for (c, load) in loads.iter().enumerate().take(self.chains) {
            for (p, &bit) in load.iter().enumerate().take(self.chain_len) {
                if let Some(v) = cube.get(c * self.chain_len + p) {
                    if bit != v {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Probability-free capacity heuristic: cubes with up to roughly
    /// `compressed_bits - ring_len` care bits usually encode.
    pub fn capacity_hint(&self) -> usize {
        self.compressed_bits().saturating_sub(self.ring.length())
    }
}

/// Aggregate compression statistics for a pattern set (experiment E4).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CompressionStats {
    /// Patterns successfully encoded.
    pub encoded: usize,
    /// Patterns that failed encoding (must be applied uncompressed or
    /// re-generated with fewer care bits).
    pub failed: usize,
    /// Total compressed stimulus bits.
    pub compressed_bits: u64,
    /// Total flat stimulus bits for the same patterns.
    pub flat_bits: u64,
    /// Cubes skipped because the context's token fired mid-pass (see
    /// [`ScanEdt::compress_all`]). Non-zero means the stats
    /// cover only a prefix of the cube set.
    pub skipped: usize,
}

impl CompressionStats {
    /// Stimulus compression ratio (`flat / compressed`), counting failed
    /// cubes at flat cost.
    pub fn ratio(&self) -> f64 {
        if self.compressed_bits == 0 {
            return 1.0;
        }
        self.flat_bits as f64 / self.compressed_bits as f64
    }

    /// Encoding success rate.
    pub fn encode_rate(&self) -> f64 {
        let total = self.encoded + self.failed;
        if total == 0 {
            return 1.0;
        }
        self.encoded as f64 / total as f64
    }
}

/// Binds an [`EdtCodec`] to a real scan architecture: maps ATPG cubes
/// (netlist source order) onto scan cells and accounts compression for a
/// whole cube set.
#[derive(Debug)]
pub struct ScanEdt<'a> {
    nl: &'a Netlist,
    scan: &'a ScanInsertion,
    codec: EdtCodec,
    /// For each flop (by netlist dff order), its flat cell index.
    cell_of_ff: Vec<usize>,
    ctx: RunCtx,
}

impl<'a> ScanEdt<'a> {
    /// Builds the binding. The codec geometry is taken from the scan
    /// architecture (chains padded to the longest chain length).
    pub fn new(
        nl: &'a Netlist,
        scan: &'a ScanInsertion,
        channels: usize,
        ring_len: usize,
        seed: u64,
    ) -> ScanEdt<'a> {
        let chain_len = scan.shift_cycles();
        let codec = EdtCodec::new(scan.chains.len(), chain_len, channels, ring_len, seed);
        let ffs = nl.dffs();
        let mut cell_of_ff = vec![usize::MAX; ffs.len()];
        for (ci, chain) in scan.chains.iter().enumerate() {
            for (pos, ff) in chain.iter().enumerate() {
                // Scan chains index flops of the *scan netlist*, which
                // shares gate ids with the original for pre-existing gates.
                let ff_idx = ffs
                    .iter()
                    .position(|&f| f == *ff)
                    .expect("chain flop in original dff list");
                cell_of_ff[ff_idx] = ci * chain_len + pos;
            }
        }
        ScanEdt {
            nl,
            scan,
            codec,
            cell_of_ff,
            ctx: RunCtx::default(),
        }
    }

    /// Takes the run context, for the binding and its codec:
    /// [`ScanEdt::compress_all`] records a `compress_all` span (`arg` =
    /// cube count) around per-cube `edt_encode`/`gf2_solve` spans, and
    /// checks `ctx.cancel` at every cube boundary.
    pub fn with_ctx(mut self, ctx: RunCtx) -> ScanEdt<'a> {
        self.codec = self.codec.with_ctx(ctx.clone());
        self.ctx = ctx;
        self
    }

    /// The underlying codec.
    pub fn codec(&self) -> &EdtCodec {
        &self.codec
    }

    /// Converts an ATPG cube (netlist source order: PIs then flops) into a
    /// scan-cell cube for the codec. PI care bits are not compressed
    /// (driven directly) and are ignored here.
    pub fn to_cell_cube(&self, cube: &TestCube) -> TestCube {
        let num_pi = self.nl.num_inputs();
        let mut cells = TestCube::all_x(self.codec.flat_bits());
        for (ff_idx, &cell) in self.cell_of_ff.iter().enumerate() {
            if cell == usize::MAX {
                continue;
            }
            if let Some(v) = cube.get(num_pi + ff_idx) {
                cells.set(cell, v);
            }
        }
        cells
    }

    /// The inverse of [`ScanEdt::to_cell_cube`] composed with
    /// [`EdtCodec::expand`]: reassembles a full simulation pattern
    /// (netlist source order: PIs then flops) from directly-driven PI
    /// bits and the per-chain scan loads the decompressor shifts in.
    /// Cells the scan architecture padded past the real flops are
    /// ignored; an unmapped flop loads `false`. Both the tester and the
    /// die derive patterns through this one function, so a cube that
    /// round-trips the codec yields bit-identical stimulus on each side.
    pub fn to_pattern(&self, pi_bits: &[bool], loads: &[Vec<bool>]) -> Vec<bool> {
        let num_pi = self.nl.num_inputs();
        assert_eq!(pi_bits.len(), num_pi, "PI bit count mismatch");
        let chain_len = self.scan.shift_cycles();
        let mut pattern = vec![false; num_pi + self.cell_of_ff.len()];
        pattern[..num_pi].copy_from_slice(pi_bits);
        for (ff_idx, &cell) in self.cell_of_ff.iter().enumerate() {
            if cell == usize::MAX {
                continue;
            }
            pattern[num_pi + ff_idx] = loads[cell / chain_len][cell % chain_len];
        }
        pattern
    }

    /// Encodes every cube, returning aggregate statistics. A fired
    /// context token drains the pass at the next cube boundary,
    /// counting the unprocessed tail in [`CompressionStats::skipped`].
    /// Compression is a pure accounting pass (nothing downstream
    /// consumes its intermediate state), so a drained pass is simply
    /// rerun after resume.
    pub fn compress_all(&self, cubes: &[TestCube]) -> CompressionStats {
        let _span = self.ctx.trace.span_arg("compress_all", cubes.len() as u64);
        let mut stats = CompressionStats::default();
        for (i, cube) in cubes.iter().enumerate() {
            if self
                .ctx
                .cancel
                .as_ref()
                .is_some_and(|tok| tok.is_cancelled())
            {
                stats.skipped = cubes.len() - i;
                break;
            }
            let cells = self.to_cell_cube(cube);
            stats.flat_bits += self.codec.flat_bits() as u64;
            match self.codec.encode(&cells) {
                Some(_) => {
                    stats.encoded += 1;
                    stats.compressed_bits += self.codec.compressed_bits() as u64;
                }
                None => {
                    stats.failed += 1;
                    // Bypass mode: failed cubes ship flat.
                    stats.compressed_bits += self.codec.flat_bits() as u64;
                }
            }
        }
        if let Some(m) = self.ctx.metrics.get() {
            m.edt_compressed_bits.add(stats.compressed_bits);
            m.edt_flat_bits.add(stats.flat_bits);
        }
        stats
    }

    /// The scan architecture this binding uses.
    pub fn scan(&self) -> &ScanInsertion {
        self.scan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dft_checkpoint::CancelToken;
    use dft_scan::{insert_scan, ScanConfig};

    #[test]
    fn encode_expand_round_trip() {
        let codec = EdtCodec::new(16, 32, 2, 32, 0xE0);
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(1);
        for trial in 0..30 {
            let mut cube = TestCube::all_x(codec.flat_bits());
            // ~5% care density, well within capacity.
            for _ in 0..codec.capacity_hint() / 2 {
                let i = rng.gen_range(0..codec.flat_bits());
                cube.set(i, rng.gen_bool(0.5));
            }
            let Some(compressed) = codec.encode(&cube) else {
                panic!("trial {trial}: encode failed below capacity");
            };
            let loads = codec.expand(&compressed);
            assert!(codec.satisfies(&cube, &loads), "trial {trial}");
        }
    }

    #[test]
    fn overconstrained_cube_fails_gracefully() {
        // More care bits than free variables cannot encode (except by
        // luck); a fully-specified random cube must fail.
        let codec = EdtCodec::new(16, 16, 1, 16, 0x5);
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2);
        let mut cube = TestCube::all_x(codec.flat_bits());
        for i in 0..codec.flat_bits() {
            cube.set(i, rng.gen_bool(0.5));
        }
        assert!(codec.encode(&cube).is_none());
    }

    #[test]
    fn compression_ratio_accounting() {
        let stats = CompressionStats {
            encoded: 90,
            failed: 10,
            compressed_bits: 90 * 64 + 10 * 1024,
            flat_bits: 100 * 1024,
            skipped: 0,
        };
        assert!(stats.ratio() > 6.0);
        assert!((stats.encode_rate() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn cancelled_compression_counts_the_skipped_tail() {
        use dft_netlist::generators::counter;
        let nl = counter(8);
        let scan = insert_scan(&nl, &ScanConfig { num_chains: 2 });
        let edt = |cancel: CancelToken| {
            ScanEdt::new(&nl, &scan, 1, 16, 9).with_ctx(RunCtx {
                cancel: Some(cancel),
                ..RunCtx::default()
            })
        };
        let cubes = vec![TestCube::all_x(1 + 8); 5];
        let tok = CancelToken::new();
        tok.cancel();
        let stats = edt(tok).compress_all(&cubes);
        assert_eq!(stats.skipped, 5);
        assert_eq!(stats.encoded + stats.failed, 0);
        // An un-fired token leaves the pass identical to the plain one.
        let clean = edt(CancelToken::new()).compress_all(&cubes);
        let plain = ScanEdt::new(&nl, &scan, 1, 16, 9).compress_all(&cubes);
        assert_eq!(clean, plain);
        assert_eq!(clean.skipped, 0);
    }

    #[test]
    fn scan_binding_maps_ppi_bits() {
        use dft_netlist::generators::counter;
        let nl = counter(8);
        let scan = insert_scan(&nl, &ScanConfig { num_chains: 2 });
        let edt = ScanEdt::new(&nl, &scan, 1, 16, 9);
        // Cube setting flop 5 (source index 1 PI + 5).
        let mut cube = TestCube::all_x(1 + 8);
        cube.set(1 + 5, true);
        cube.set(0, false); // PI bit: ignored by the cell cube
        let cells = edt.to_cell_cube(&cube);
        assert_eq!(cells.care_bits(), 1);
        // Flop 5 sits in chain 1 position 1 -> cell 1*4+1 = 5.
        assert_eq!(cells.get(5), Some(true));
    }

    #[test]
    fn real_atpg_cubes_compress_well() {
        use dft_atpg::{Atpg, AtpgConfig, CompactionMode};
        use dft_netlist::generators::mac_pe;
        let nl = mac_pe(4);
        let run = Atpg::new(&nl).run(&AtpgConfig {
            random_patterns: 0,
            compaction: CompactionMode::None,
            ..AtpgConfig::default()
        });
        let scan = insert_scan(&nl, &ScanConfig { num_chains: 4 });
        let edt = ScanEdt::new(&nl, &scan, 1, 24, 0xAB);
        let stats = edt.compress_all(&run.cubes);
        assert!(stats.encoded > 0);
        assert!(
            stats.encode_rate() > 0.5,
            "encode rate {}",
            stats.encode_rate()
        );
    }
}
